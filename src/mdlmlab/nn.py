"""A tiny bidirectional transformer denoiser with manual backpropagation.

Pre-norm encoder blocks, learned positional embeddings, exact (erf) GELU,
full bidirectional attention, no dropout. The output head covers the V
content tokens only, so the mask symbol always has probability zero. Every
attention matrix is returned from the forward pass; that tensor is the input
to attention-based dependency scoring.

A row's forward does not depend on the other rows of its batch, so every
batched entry point (``TransformerDenoiser.batch`` and the training losses)
runs each distinct row once and repeats its output: the outputs and the loss
are bit-identical to a forward over every row. The gradient is the backward
of the distinct rows, each taking the sum of its copies' output gradients;
the backward is linear in those for fixed activations, so it is the same
sum in another order (about 1e-14 relative drift).

The forward writes its activations into a ``Tape`` when given one: every
activation the backward reads. The backward writes its own temporaries of
that size into it too. Its buffers are sized for the largest batch seen,
so steps that share a tape write the same memory instead of having it freed
and faulted back in each step. Only ``train`` shares one tape, across all
its steps; every other loss call gets a fresh tape, inference passes none
and keeps nothing, and the gradients are new arrays on every call. The ops
and their order are those of the fresh-array code, so the results are
bit-identical.

All tensors are float64, which keeps finite-difference gradient checks tight.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.special import erf

from .core import DenoiserOutput, StateBatch, Vocabulary, forward_mask, number_fields, token_rows
# ``sample_joint`` stays bound here: the traced benchmark wraps it in every
# module that imports it, and bench/selftest.py checks this binding
from .oracle import JointModel, sample_joint, sample_joints  # noqa: F401


class CheckpointError(ValueError):
    """Malformed, truncated, or mismatched checkpoint file."""


@dataclass(frozen=True)
class TransformerConfig:
    n_layers: int = 2
    n_heads: int = 2
    d_model: int = 32
    max_len: int = 16
    vocab_size: int = 2
    seed: int = 0
    learning_rate: float = 0.1
    batch_size: int = 64
    train_steps: int = 4000
    t_min: float = 0.01

    def __post_init__(self) -> None:
        number_fields(self, int, ("n_layers", "n_heads", "d_model", "max_len", "vocab_size",
                                  "seed", "batch_size", "train_steps"))
        number_fields(self, float, ("learning_rate", "t_min"))
        for name in ("n_layers", "n_heads", "d_model", "max_len", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if not 0.0 < self.t_min <= 0.5:
            raise ValueError("t_min must lie in (0, 0.5]")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if not self.learning_rate >= 0.0:  # false for NaN too
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.train_steps < 0:
            raise ValueError(f"train_steps must be >= 0, got {self.train_steps}")

    @property
    def d_ff(self) -> int:
        return 4 * self.d_model

    @property
    def vocab(self) -> Vocabulary:
        return Vocabulary(self.vocab_size)


# one encoder block's tensors, in checkpoint order; field ln1_g names ln1.g
_Layer = namedtuple("_Layer", "ln1_g ln1_b wq wk wv wo ln2_g ln2_b w1 b1 w2 b2")


@functools.cache
def _layer_names(l: int) -> _Layer:
    """The tensor names of block ``l``: ``layer{l}.ln1.g`` and so on."""
    return _Layer(*(f"layer{l}.{field.replace('_', '.')}" for field in _Layer._fields))


def _layer(tensors: dict[str, np.ndarray], l: int) -> _Layer:
    """The tensors of block ``l``."""
    return _Layer._make(map(tensors.__getitem__, _layer_names(l)))


def param_specs(config: TransformerConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) list; checkpoints store tensors in this order."""
    d, dff, V = config.d_model, config.d_ff, config.vocab_size
    specs: list[tuple[str, tuple[int, ...]]] = [
        ("tok_emb", (V + 1, d)),  # rows 0..V-1 = content tokens, row V = mask
        ("pos_emb", (config.max_len, d)),
    ]
    shapes = _Layer(ln1_g=(d,), ln1_b=(d,), wq=(d, d), wk=(d, d), wv=(d, d), wo=(d, d),
                    ln2_g=(d,), ln2_b=(d,), w1=(d, dff), b1=(dff,), w2=(dff, d), b2=(d,))
    for l in range(config.n_layers):
        specs += zip(_layer_names(l), shapes)
    specs += [
        ("lnf.g", (d,)),
        ("lnf.b", (d,)),
        ("wout", (d, V)),
        ("bout", (V,)),
    ]
    return specs


@dataclass
class Params:
    """Parameter tensors keyed by name, together with their architecture."""

    config: TransformerConfig
    tensors: dict[str, np.ndarray]


def init_params(config: TransformerConfig) -> Params:
    rng = np.random.default_rng(config.seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in param_specs(config):
        if name.endswith(".g"):
            tensors[name] = np.ones(shape)
        elif name.endswith((".b", ".b1", ".b2", "bout")):
            tensors[name] = np.zeros(shape)
        else:
            tensors[name] = rng.normal(0.0, 0.02, size=shape)
    return Params(config, tensors)


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

_LN_EPS = 1e-5


class Tape:
    """Activation buffers that training steps reuse instead of reallocating.

    ``take(key, shape)`` returns the leading ``shape[0]`` rows of buffer
    ``key``. A buffer is allocated on first use and again when a step needs
    more rows or another row shape; it never shrinks. It is allocated with
    at least the rows ``reserve`` asked for: a loss reserves its batch's row
    count, which bounds the distinct rows it runs, so a training run
    allocates each buffer once instead of once per new largest distinct-row
    count (each regrowth left the old buffer behind as a heap hole, about
    1 MB of peak RSS on the benchmark's training run). Pages of rows no step
    writes are never touched. The forward writes every activation the
    backward reads into the tape and records their views in ``saved``; the
    next forward on the same tape overwrites them.
    """

    def __init__(self) -> None:
        self._buffers: dict = {}
        self._rows = 0
        self.saved: tuple | None = None

    def reserve(self, rows: int) -> None:
        self._rows = max(self._rows, rows)

    def take(self, key, shape: tuple[int, ...]) -> np.ndarray:
        buf = self._buffers.get(key)
        if buf is None or len(buf) < shape[0] or buf.shape[1:] != shape[1:]:
            buf = self._buffers[key] = np.empty((max(shape[0], self._rows), *shape[1:]))
        return buf[:shape[0]]


def _take(tape: Tape | None, key, shape: tuple[int, ...]) -> np.ndarray:
    """A float64 array of ``shape`` to write into: the tape's buffer ``key``,
    or a fresh array when there is no tape."""
    return np.empty(shape) if tape is None else tape.take(key, shape)


def _ln_forward(x, g, b, tape, key):
    d = x.shape[-1]
    xhat = _take(tape, (key, "xhat"), x.shape)
    y = _take(tape, (key, "y"), x.shape)
    xc = np.subtract(x, x.sum(-1, keepdims=True) / d, out=xhat)
    var = np.multiply(xc, xc, out=y).sum(-1, keepdims=True) / d
    inv = np.divide(1.0, np.sqrt(var + _LN_EPS), out=_take(tape, (key, "inv"), var.shape))
    np.multiply(xc, inv, out=xhat)
    np.multiply(g, xhat, out=y)
    return np.add(y, b, out=y), (xhat, inv)


def _ln_backward(dy, cache, g, tape, out):
    """Write LayerNorm's input gradient into ``out``; return (dg, db)."""
    xhat, inv = cache
    d = dy.shape[-1]
    t = np.multiply(dy, xhat, out=tape.take("ln t", dy.shape))
    dg = t.sum(axis=(0, 1))
    db = dy.sum(axis=(0, 1))
    dxh = np.multiply(dy, g, out=tape.take("ln dxh", dy.shape))
    mean_dxh = dxh.sum(-1, keepdims=True) / d
    mean_dxh_xhat = np.multiply(dxh, xhat, out=t).sum(-1, keepdims=True) / d
    # dx = inv * (dxh - mean_dxh - xhat * mean_dxh_xhat)
    np.subtract(dxh, mean_dxh, out=out)
    np.subtract(out, np.multiply(xhat, mean_dxh_xhat, out=t), out=out)
    np.multiply(inv, out, out=out)
    return dg, db


def _gelu(u, tape, l):
    phi = np.divide(u, np.sqrt(2.0), out=_take(tape, (l, "phi"), u.shape))
    erf(phi, out=phi)
    np.add(1.0, phi, out=phi)
    np.multiply(0.5, phi, out=phi)
    return np.multiply(u, phi, out=_take(tape, (l, "gu"), u.shape)), phi


def _gelu_grad(u, phi, out):
    """phi + u * exp(-u * u / 2) / sqrt(2 pi), op by op into ``out``."""
    np.multiply(-0.5, u, out=out)
    np.multiply(out, u, out=out)
    np.exp(out, out=out)
    np.multiply(u, out, out=out)
    np.divide(out, np.sqrt(2.0 * np.pi), out=out)
    return np.add(phi, out, out=out)


def _softmax(x):
    """Softmax over the last axis, in place."""
    np.subtract(x, x.max(axis=-1, keepdims=True), out=x)
    np.exp(x, out=x)
    return np.divide(x, x.sum(axis=-1, keepdims=True), out=x)


def _log_softmax(x):
    z = x - x.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _split_heads(x, H):
    B, L, d = x.shape
    return x.reshape(B, L, H, d // H).transpose(0, 2, 1, 3)


def _merge_heads(x, out):
    """The (B, H, L, dh) heads ``x`` side by side in ``out``, (B, L, H * dh)."""
    B, H, L, dh = x.shape
    np.copyto(out.reshape(B, L, H, dh), x.swapaxes(1, 2))
    return out


def _forward_batch(params: Params, tokens: np.ndarray, tape: Tape | None = None):
    """Full forward pass over (n, L) token rows; returns (log_probs, attentions).

    ``tokens`` are rows that ``core.token_rows`` (mask allowed) has passed;
    rows of no tokens or longer than ``max_len`` raise ``ValueError``. Every
    activation is written through ``_take``. Training passes a tape, which
    keeps what the backward reads; inference passes none and keeps none.
    """
    cfg = params.config
    t = params.tensors
    n, L = tokens.shape
    if not 1 <= L <= cfg.max_len:
        raise ValueError(f"sequence length {L} outside 1..max_len {cfg.max_len}")
    d, H = cfg.d_model, cfg.n_heads
    rows = tokens - 1  # embedding rows: 0..V-1 for content tokens, V for the mask
    # the caller checked the ids, so "clip" clips nothing; it spares a buffered copy
    h = np.take(t["tok_emb"], rows, axis=0, out=_take(tape, "h", (n, L, d)), mode="clip")
    h += t["pos_emb"][:L]
    scale = 1.0 / np.sqrt(d // H)
    saved = []
    attentions = []
    for l in range(cfg.n_layers):
        p = _layer(t, l)
        x1, c1 = _ln_forward(h, p.ln1_g, p.ln1_b, tape, (l, 1))
        qh, kh, vh = (_split_heads(np.matmul(x1, w, out=_take(tape, (l, key), h.shape)), H)
                      for key, w in (("q", p.wq), ("k", p.wk), ("v", p.wv)))
        a = np.matmul(qh, kh.swapaxes(-1, -2), out=_take(tape, (l, "a"), (n, H, L, L)))
        a = _softmax(np.multiply(a, scale, out=a))
        av = np.matmul(a, vh, out=_take(tape, "av", vh.shape))
        ctx = _merge_heads(av, _take(tape, (l, "ctx"), h.shape))
        h_mid = np.matmul(ctx, p.wo, out=_take(tape, "h_mid", h.shape))
        np.add(h, h_mid, out=h_mid)
        x2, c2 = _ln_forward(h_mid, p.ln2_g, p.ln2_b, tape, (l, 2))
        u = np.matmul(x2, p.w1, out=_take(tape, (l, "u"), (n, L, cfg.d_ff)))
        u += p.b1
        gu, phi = _gelu(u, tape, l)
        # h_out = h_mid + gu @ w2 + b2, written over the block's input h,
        # which nothing reads any more
        np.add(h_mid, np.matmul(gu, p.w2, out=h), out=h)
        h += p.b2
        if tape is not None:
            saved.append((c1, x1, qh, kh, vh, a, ctx, c2, x2, u, phi, gu))
        del u, phi, gu  # the widest activations: not alive in the next layer
        attentions.append(a)
    hf, cf = _ln_forward(h, t["lnf.g"], t["lnf.b"], tape, "final")
    log_probs = _log_softmax(hf @ t["wout"] + t["bout"])
    if tape is not None:
        tape.saved = (rows, saved, cf, hf)
    return log_probs, attentions


def _backward_batch(params: Params, dlogits: np.ndarray, tape: Tape) -> dict[str, np.ndarray]:
    """The gradient of every tensor, from the output gradient of the last
    forward on ``tape``; its temporaries of an activation's size or wider
    are tape buffers too."""
    cfg = params.config
    t = params.tensors
    rows, saved, cf, hf = tape.saved
    L = dlogits.shape[1]
    H = cfg.n_heads
    scale = 1.0 / np.sqrt(cfg.d_model // H)
    g = {name: np.zeros_like(arr) for name, arr in t.items()}
    shape = hf.shape
    # dh: the gradient of the residual stream; dx: of a LayerNorm's output,
    # or of the attention context; dx_term: one term of dx1
    dh, dh_mid, dx, dx_term = (tape.take(key, shape) for key in ("dh", "dh_mid", "dx", "dx_term"))

    flat = lambda x: x.reshape(-1, x.shape[-1])  # noqa: E731
    g["wout"] += flat(hf).T @ flat(dlogits)
    g["bout"] += dlogits.sum(axis=(0, 1))
    dhf = np.matmul(dlogits, t["wout"].T, out=dx)
    g["lnf.g"], g["lnf.b"] = _ln_backward(dhf, cf, t["lnf.g"], tape, dh)

    for l in reversed(range(cfg.n_layers)):
        name, p = _layer_names(l), _layer(t, l)
        c1, x1, qh, kh, vh, a, ctx, c2, x2, u, phi, gu = saved[l]
        # h_out = h_mid + gelu(x2 @ w1 + b1) @ w2 + b2
        df = dh
        g[name.w2] += flat(gu).T @ flat(df)
        g[name.b2] += df.sum(axis=(0, 1))
        dgu = np.matmul(df, p.w2.T, out=tape.take("dgu", u.shape))
        du = np.multiply(dgu, _gelu_grad(u, phi, tape.take("gelu'", u.shape)), out=dgu)
        g[name.w1] += flat(x2).T @ flat(du)
        g[name.b1] += du.sum(axis=(0, 1))
        dx2 = np.matmul(du, p.w1.T, out=dx)
        g[name.ln2_g], g[name.ln2_b] = _ln_backward(dx2, c2, p.ln2_g, tape, dh_mid)
        np.add(dh, dh_mid, out=dh_mid)  # dh_mid = dh + the LayerNorm's gradient
        # h_mid = h_in + merge(a @ vh) @ wo
        g[name.wo] += flat(ctx).T @ flat(dh_mid)
        dctxh = _split_heads(np.matmul(dh_mid, p.wo.T, out=dx), H)
        dA = np.matmul(dctxh, vh.swapaxes(-1, -2), out=tape.take("dA", a.shape))
        dvh = np.matmul(a.swapaxes(-1, -2), dctxh, out=tape.take("dvh", vh.shape))
        ds = tape.take("ds", a.shape)
        # ds = a * (dA - (dA * a).sum(-1))
        np.subtract(dA, np.multiply(dA, a, out=ds).sum(axis=-1, keepdims=True), out=dA)
        np.multiply(a, dA, out=ds)
        dqh = np.matmul(ds, kh, out=tape.take("dqh", qh.shape))
        dkh = np.matmul(ds.swapaxes(-1, -2), qh, out=tape.take("dkh", kh.shape))
        np.multiply(dqh, scale, out=dqh)
        np.multiply(dkh, scale, out=dkh)
        dq, dk, dv = (_merge_heads(x, tape.take(key, shape))
                      for key, x in (("dq", dqh), ("dk", dkh), ("dv", dvh)))
        g[name.wq] += flat(x1).T @ flat(dq)
        g[name.wk] += flat(x1).T @ flat(dk)
        g[name.wv] += flat(x1).T @ flat(dv)
        dx1 = np.matmul(dq, p.wq.T, out=dx)
        dx1 += np.matmul(dk, p.wk.T, out=dx_term)
        dx1 += np.matmul(dv, p.wv.T, out=dx_term)
        g[name.ln1_g], g[name.ln1_b] = _ln_backward(dx1, c1, p.ln1_g, tape, dh)
        np.add(dh_mid, dh, out=dh)  # dh = dh_mid + the LayerNorm's gradient

    g["pos_emb"][:L] += dh.sum(axis=0)
    np.add.at(g["tok_emb"], rows, dh)
    return g


def _distinct_rows(tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` of the distinct rows of an (n, L) int64 array.

    ``tokens[first]`` holds each distinct row once, and
    ``tokens[first][inverse]`` equals ``tokens``. Rows are keyed by their
    bytes (one ``np.unique`` over an int64 void view), a key that cannot
    overflow for any V or L.
    """
    tokens = np.ascontiguousarray(tokens)
    keys = tokens.view(np.dtype((np.void, tokens.itemsize * tokens.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


def forward(params: Params, states: StateBatch) -> DenoiserOutput:
    """Denoise a batch: per-position distributions plus all attention maps.

    ``states.tokens`` is an (n, L) array of n sequences; the output has
    (n, L, V) probs and per layer an (n, H, L, L) attention tensor. The rows
    do not interact. Deterministic given (params, states); repeated calls
    are bit-identical. Rows that ``core.token_rows`` refuses (one row given
    as a flat sequence among them) raise ``ValueError``.
    """
    if states.vocab.size != params.config.vocab_size:
        raise ValueError("state vocabulary does not match the model")
    tokens = token_rows(states.tokens, params.config.vocab_size, mask=True)
    log_probs, attentions = _forward_batch(params, tokens)
    return DenoiserOutput(probs=np.exp(log_probs), attentions=attentions)


class TransformerDenoiser:
    """The denoiser interface of ``decoding`` over a parameter set."""

    def __init__(self, params: Params):
        self.params = params
        self.vocab = params.config.vocab

    def batch(self, states: StateBatch) -> DenoiserOutput:
        """``forward(params, states)``, from one batched forward over its
        distinct rows: each output is repeated in row order.

        A row's output does not depend on the other rows, so the result is
        bit-identical. Rows are keyed by ``_distinct_rows``. NFE
        still counts one evaluation per sequence per step, whatever is shared
        among equal rows, as with the oracle's cache. Errors are those of
        ``forward``, in its order: the vocabulary first, then the rows.
        """
        if states.vocab.size != self.vocab.size:
            raise ValueError("state vocabulary does not match the model")
        tokens = token_rows(states.tokens, self.vocab.size, mask=True)
        first, inverse = _distinct_rows(tokens)
        out = forward(self.params, StateBatch(states.vocab, tokens[first]))
        return DenoiserOutput(out.probs[inverse], [a[inverse] for a in out.attentions])


# ---------------------------------------------------------------------------
# training loss
# ---------------------------------------------------------------------------

def _check_targets(x0, loss_mask, weights, shape: tuple[int, int], V: int) -> np.ndarray:
    """``x0`` as int64, once it holds ids 1..V and it and ``loss_mask`` have
    the batch's (B, L) ``shape`` and ``weights`` is (B,). Otherwise
    ``ValueError`` names the argument, so no target is aliased or broadcast
    over the batch."""
    try:
        x0 = token_rows(x0, V)
    except ValueError as exc:
        raise ValueError(f"x0: {exc}") from None
    for name, arg, want in (("x0", x0, shape),
                            ("loss_mask", loss_mask, shape),
                            ("weights", weights, shape[:1])):
        if np.shape(arg) != want:
            raise ValueError(f"{name} must have shape {want}, got {np.shape(arg)}")
    return x0


def _cross_entropy(log_probs, x0, loss_mask, weights) -> float:
    B = log_probs.shape[0]
    target_lp = np.take_along_axis(log_probs, (x0 - 1)[:, :, None], axis=2)[:, :, 0]
    per_example = (target_lp * loss_mask).sum(axis=1)
    return float(-(weights * per_example).sum() / B)


def masked_cross_entropy(
    log_probs: np.ndarray,
    x0: np.ndarray,
    loss_mask: np.ndarray,
    weights: np.ndarray,
) -> float:
    """Weighted cross-entropy over masked positions, averaged over the batch.

    ``log_probs`` is (B, L, V) with B >= 1; targets are token ids in x0; each
    example b contributes -weights[b] * sum_i log p(x0[b,i]) over its masked
    positions, and the total is divided by B. The targets are checked as the
    losses check them: a malformed one raises ``ValueError`` naming it.
    """
    if np.ndim(log_probs) != 3 or not len(log_probs):
        raise ValueError(
            f"log_probs must be (B, L, V) with B >= 1, got shape {np.shape(log_probs)}")
    x0 = _check_targets(x0, loss_mask, weights, log_probs.shape[:2], log_probs.shape[2])
    return _cross_entropy(log_probs, x0, loss_mask, weights)


def _forward_corrupted(
    params: Params,
    corrupted: np.ndarray,
    x0: np.ndarray,
    loss_mask: np.ndarray,
    weights: np.ndarray,
    tape: Tape | None = None,
):
    """Check a loss's arguments, each once, and run the forward over the
    distinct rows.

    Returns ``(log_probs, inverse, x0)``: the distinct rows' log-probs, each
    corrupted row's index into them, and ``x0`` as int64.
    """
    tokens = token_rows(corrupted, params.config.vocab_size, mask=True)
    if not len(tokens):
        raise ValueError(f"corrupted must hold at least one row, got shape {tokens.shape}")
    x0 = _check_targets(x0, loss_mask, weights, tokens.shape, params.config.vocab_size)
    first, inverse = _distinct_rows(tokens)
    if tape is not None:
        tape.reserve(len(tokens))
    log_probs, _ = _forward_batch(params, tokens[first], tape)
    return log_probs, inverse, x0


def loss_on_corrupted(
    params: Params,
    corrupted: np.ndarray,
    x0: np.ndarray,
    loss_mask: np.ndarray,
    weights: np.ndarray,
) -> float:
    """Loss only (no gradient); the target for finite-difference checks.

    It runs the forward of ``loss_and_grad_on_corrupted``, over the distinct
    corrupted rows, and refuses what that refuses.
    """
    log_probs, inverse, x0 = _forward_corrupted(params, corrupted, x0, loss_mask, weights)
    return _cross_entropy(log_probs[inverse], x0, loss_mask, weights)


def loss_and_grad_on_corrupted(
    params: Params,
    corrupted: np.ndarray,
    x0: np.ndarray,
    loss_mask: np.ndarray,
    weights: np.ndarray,
    *,
    tape: Tape | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Deterministic loss and exact-backprop gradient on a corrupted batch.

    One forward and one backward run over the batch's distinct corrupted
    rows. The loss takes each row's log-probs from its distinct row, so it
    is bit-identical to a forward over every row. Each row's output
    gradient is built as for its own forward and summed into its distinct
    row's, so the gradient is the full batch's up to summation order.

    ``corrupted`` must hold at least one row. ``x0`` must hold ids 1..V and,
    like ``loss_mask``, have the corrupted batch's (B, L) shape; ``weights``
    must be (B,). Otherwise ``ValueError`` names the argument, so no target
    is aliased or broadcast over the batch.

    The activations go on ``tape``, a fresh one unless given; ``train``
    passes one tape to every step. The gradients are new arrays either way.
    """
    if tape is None:
        tape = Tape()
    distinct, inverse, x0 = _forward_corrupted(params, corrupted, x0, loss_mask, weights, tape)
    log_probs = distinct[inverse]
    loss = _cross_entropy(log_probs, x0, loss_mask, weights)
    B, L, V = log_probs.shape
    w = (weights / B)[:, None] * loss_mask  # (B, L) per-position weight
    dlogits = np.exp(log_probs) * w[:, :, None]
    np.subtract.at(
        dlogits,
        (np.arange(B)[:, None], np.arange(L)[None, :], x0 - 1),
        w,
    )
    summed = np.zeros_like(distinct)
    np.add.at(summed, inverse, dlogits)
    grads = _backward_batch(params, summed, tape)
    return loss, grads


def corrupt_batch(
    config: TransformerConfig,
    x0_batch: np.ndarray,
    prompt_len: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Sample t per example and mask; returns (corrupted, loss_mask, weights, skipped).

    One ``core.forward_mask`` draw over the batch, with t ~ Uniform[t_min, 1]
    and one redraw: a row that still masks nothing is skipped (weight 0)
    and counted; every other row is weighted by 1/t. Raises ``ValueError``
    for an empty batch and for what ``forward_mask`` refuses: rows with an
    id outside 1..V, or a prompt_len outside 0..L-1.
    """
    corrupted, t = forward_mask(x0_batch, config.vocab_size, prompt_len, rng,
                                config.t_min, redraws=1)
    if len(corrupted) < 1:
        raise ValueError("x0 batch must be a nonempty (B, L) array")
    loss_mask = corrupted == config.vocab_size + 1
    kept = loss_mask.any(axis=1)
    weights = np.zeros(len(t))
    weights[kept] = 1.0 / t[kept]
    return corrupted, loss_mask, weights, int((~kept).sum())


def mdlm_loss_and_grad(
    params: Params,
    x0_batch: np.ndarray,
    prompt_len: int,
    rng: np.random.Generator,
    *,
    tape: Tape | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """One masked-diffusion training objective evaluation on a clean batch.

    Each example is corrupted at its own t ~ Uniform[t_min, 1] and the
    masked-position cross-entropy is weighted by 1/t; the gradient comes
    from exact backpropagation through the forward pass, with the
    activations on ``tape`` as in ``loss_and_grad_on_corrupted``.
    """
    corrupted, loss_mask, weights, _ = corrupt_batch(params.config, x0_batch, prompt_len, rng)
    return loss_and_grad_on_corrupted(params, corrupted, np.asarray(x0_batch), loss_mask,
                                      weights, tape=tape)


def train(
    config: TransformerConfig,
    model: JointModel,
    prompt_len: int = 0,
    rng: np.random.Generator | None = None,
    on_step: Callable[[int, float], None] | None = None,
) -> Params:
    """Plain fixed-step SGD on batches sampled from the joint.

    Emits the loss curve through ``on_step(step, loss)``. Aborts with a
    diagnostic if the loss stops being finite. Every step writes its
    activations on one ``Tape``.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    params = init_params(config)
    lr = config.learning_rate
    tape = Tape()
    for step in range(config.train_steps):
        batch = sample_joints(model, rng, config.batch_size)
        loss, grads = mdlm_loss_and_grad(params, batch, prompt_len, rng, tape=tape)
        if not np.isfinite(loss):
            raise RuntimeError(f"training diverged at step {step}: loss={loss}")
        for name, grad in grads.items():
            params.tensors[name] -= lr * grad
        if on_step is not None:
            on_step(step, loss)
    return params


# ---------------------------------------------------------------------------
# checkpoint format: little-endian binary
#   magic "MDLMLABC" | u32 version | u32 x5 arch ints | u32 tensor count |
#   per tensor (canonical param_specs order): u32 ndim, u32 dims..., f64 data |
#   SHA-256 of all preceding bytes (no tensor shape depends on n_heads)
# ---------------------------------------------------------------------------

_MAGIC = b"MDLMLABC"
_VERSION = 2
_ARCH_FIELDS = ("n_layers", "n_heads", "d_model", "max_len", "vocab_size")


def save_checkpoint(params: Params, path: str) -> None:
    cfg = params.config
    with open(path, "w+b") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<5I", *(getattr(cfg, f) for f in _ARCH_FIELDS)))
        specs = param_specs(cfg)
        fh.write(struct.pack("<I", len(specs)))
        for name, shape in specs:
            arr = np.ascontiguousarray(params.tensors[name], dtype="<f8")
            if arr.shape != shape:
                raise CheckpointError(f"tensor {name} has shape {arr.shape}, expected {shape}")
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())
        fh.seek(0)
        fh.write(hashlib.sha256(fh.read()).digest())


def _read_exact(fh, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise CheckpointError("truncated checkpoint file")
    return buf


def load_checkpoint(path: str, expected_config: TransformerConfig | None = None) -> Params:
    """Load a checkpoint; the round trip with save_checkpoint is bit-exact.

    With ``expected_config`` given, every architecture field is compared and
    a mismatch error names the offending field. The checksum is checked
    last, so a corrupt header still gets its own error.
    """
    with open(path, "rb") as fh:
        if _read_exact(fh, len(_MAGIC)) != _MAGIC:
            raise CheckpointError(f"{path}: wrong magic header")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != _VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        arch = struct.unpack("<5I", _read_exact(fh, 20))
        try:
            config = TransformerConfig(
                **dict(zip(_ARCH_FIELDS, arch)),
                seed=0,
                learning_rate=0.0,
                batch_size=1,
                train_steps=0,
            )
        except ValueError as exc:
            raise CheckpointError(f"{path}: invalid architecture header: {exc}") from None
        if expected_config is not None:
            for f in _ARCH_FIELDS:
                if getattr(expected_config, f) != getattr(config, f):
                    raise CheckpointError(
                        f"{path}: config mismatch in field {f!r}: "
                        f"checkpoint has {getattr(config, f)}, "
                        f"expected {getattr(expected_config, f)}"
                    )
        (count,) = struct.unpack("<I", _read_exact(fh, 4))
        # checked before param_specs, which a corrupt n_layers would make huge:
        # 2 embeddings, 12 tensors per layer and 4 in the head
        if count != 6 + 12 * config.n_layers:
            raise CheckpointError(
                f"{path}: tensor count {count} does not match n_layers={config.n_layers}"
            )
        tensors: dict[str, np.ndarray] = {}
        for name, shape in param_specs(config):
            (ndim,) = struct.unpack("<I", _read_exact(fh, 4))
            if ndim != len(shape):
                raise CheckpointError(f"{path}: tensor {name} has {ndim} axes, not {len(shape)}")
            dims = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim))
            if dims != shape:
                raise CheckpointError(
                    f"{path}: tensor {name} has shape {dims}, expected {shape}"
                )
            n = int(np.prod(dims)) if dims else 1
            data = np.frombuffer(_read_exact(fh, 8 * n), dtype="<f8")
            tensors[name] = data.reshape(dims).astype(np.float64)
        end = fh.tell()
        digest = _read_exact(fh, 32)
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after the checksum")
        fh.seek(0)
        if hashlib.sha256(fh.read(end)).digest() != digest:
            raise CheckpointError(f"{path}: checksum mismatch")
    return Params(config, tensors)
