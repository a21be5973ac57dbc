"""Shared independent oracles for the test suite.

These deliberately avoid the library's fast paths: conditionals are rebuilt
by raw summation over full assignments, and gradients by central finite
differences, so the tests check the production code against a second route.
"""

from __future__ import annotations

import itertools

import numpy as np

from mdlmlab.core import SequenceState, StateBatch
from mdlmlab.nn import Params, loss_on_corrupted
from mdlmlab.oracle import JointModel, joint_prob


def one_row(state: SequenceState) -> StateBatch:
    """One state as the one-row ``StateBatch`` a denoiser takes."""
    return StateBatch(state.vocab, np.array([state.tokens]))


def brute_conditionals(model: JointModel, state) -> dict[int, np.ndarray]:
    """Conditionals by one raw pass over every full assignment."""
    V, L = model.vocab.size, model.L
    masked = state.masked_positions()
    buckets = {i: np.zeros(V) for i in masked}
    context_mass = 0.0
    for assignment in itertools.product(range(1, V + 1), repeat=L):
        if any(
            assignment[i] != tok for i, tok in enumerate(state.tokens) if i not in masked
        ):
            continue
        p = joint_prob(model, assignment)
        context_mass += p
        for i in masked:
            buckets[i][assignment[i] - 1] += p
    if context_mass <= 0:
        raise ZeroDivisionError("context has zero mass")
    return {i: b / context_mass for i, b in buckets.items()}


def central_diff_max_rel_err(
    params: Params,
    grads: dict[str, np.ndarray],
    corrupted: np.ndarray,
    x0: np.ndarray,
    loss_mask: np.ndarray,
    weights: np.ndarray,
    h: float = 1e-4,
    sample_per_tensor: int | None = None,
    seed: int = 0,
) -> dict[str, float]:
    """Max relative error of analytic vs central-difference gradients.

    With ``sample_per_tensor`` set, only that many entries per tensor are
    probed (used by the fast unit test); otherwise every entry is checked.
    """
    rng = np.random.default_rng(seed)
    worst: dict[str, float] = {}
    for name, grad in grads.items():
        flat = params.tensors[name].reshape(-1)
        gflat = grad.reshape(-1)
        if sample_per_tensor is None or sample_per_tensor >= flat.size:
            idxs = range(flat.size)
        else:
            idxs = rng.choice(flat.size, size=sample_per_tensor, replace=False)
        err = 0.0
        for i in idxs:
            old = flat[i]
            flat[i] = old + h
            lp = loss_on_corrupted(params, corrupted, x0, loss_mask, weights)
            flat[i] = old - h
            lm = loss_on_corrupted(params, corrupted, x0, loss_mask, weights)
            flat[i] = old
            fd = (lp - lm) / (2.0 * h)
            denom = max(abs(fd) + abs(gflat[i]), 1e-8)
            err = max(err, abs(fd - gflat[i]) / denom)
        worst[name] = err
    return worst
