"""Per-position scores that rank masked tokens for decoding.

Every ranking follows one convention: higher means decode earlier, so the
entropy scorer negates the raw entropy at this boundary. Unmasked positions
carry NaN ("not scored"). Natural log throughout.

Scores work on the value slices ``array[..., v]``, one elementwise
operation across all rows per value, rather than reduce the short value
axis V with a NumPy reduction, which costs far more than its arithmetic.
Maxima take the values in order. Sums (entropy, KL, the DOS context mass)
go through ``_subset_sum``: where every row keeps fewer than 8 entries it
adds the value slices in order, the one-by-one order of NumPy's own sum of
so few, and longer rows it hands to NumPy itself, so every score keeps the
bits of a last-axis reduction.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

NOT_SCORED = np.nan

UNCERTAINTY_SCORERS = ("confidence", "entropy", "margin")
SCORERS = UNCERTAINTY_SCORERS + ("dos", "oracle_dep")


def row_scores(kind: str, rows: np.ndarray) -> np.ndarray:
    """Ranking score of each last-axis row of a (..., V) probability array.

    The one implementation of the uncertainty scorers: ``confidence`` is the
    largest probability, ``entropy`` the negated Shannon entropy (sum of
    p log p over p > 0), ``margin`` the gap between the two largest
    probabilities.
    """
    rows = np.asarray(rows, dtype=float)
    values = _slices(rows)
    if kind == "confidence":
        return functools.reduce(np.maximum, values)
    if kind == "entropy":
        return _subset_sum(rows * np.log(np.where(rows > 0, rows, 1.0)), True)
    if kind == "margin":
        if len(values) < 2:
            raise ValueError("margin needs at least two outcomes")
        top, second = np.maximum(values[0], values[1]), np.minimum(values[0], values[1])
        for value in values[2:]:
            second = np.maximum(second, np.minimum(top, value))
            top = np.maximum(top, value)
        return top - second
    raise ValueError(f"unknown uncertainty scorer {kind!r}")


def _slices(array: np.ndarray) -> list[np.ndarray]:
    """The value slices ``array[..., v]``, one per entry of the last axis."""
    return [array[..., v] for v in range(array.shape[-1])]


def confidence(p: np.ndarray) -> float:
    """Largest probability in the distribution."""
    return float(row_scores("confidence", p))


def entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats, with 0 log 0 = 0."""
    return float(-row_scores("entropy", p))


def margin(p: np.ndarray) -> float:
    """Gap between the highest and second-highest probabilities."""
    return float(row_scores("margin", p))


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float | np.ndarray:
    """KL(p || q) with 0 log 0 = 0; q is floored at 1e-12 so the value is total.

    Arrays with leading axes give each last-axis row's KL, bit for bit its
    1-D value.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must share a support size")
    nz = p > 0
    kl = _subset_sum(p * np.log(np.where(nz, p / np.maximum(q, 1e-12), 1.0)), nz)
    return float(kl) if p.ndim == 1 else kl


def _subset_sum(terms: np.ndarray, keep) -> np.ndarray:
    """Each last-axis row of ``terms`` summed over its ``keep`` entries (any
    mask that broadcasts to ``terms``), bit for bit the sum of those entries
    as a 1-D array.

    Two paths, chosen by the largest kept count of the chunk. NumPy sums
    fewer than 8 entries one by one from 0 (from 8 on it sums pairwise, so
    a zero-padded row can round differently). While no row keeps 8 entries,
    the value slices are added in order, one elementwise operation across
    all rows per value: an unkept entry adds a 0, which leaves a sum as it
    is, and a sum started from 0 never ends at -0. Otherwise the rows are
    grouped by kept count and NumPy sums each group's compacted entries,
    one ``np.unique`` loop with a gather per distinct count.
    """
    V = terms.shape[-1]
    # V entries a row, and the other axes as given: 1 where the mask broadcasts
    keep = np.asarray(keep, dtype=bool) | np.zeros((1,) * (terms.ndim - 1) + (V,), dtype=bool)
    # a row of fewer than 8 values keeps fewer than 8: no count to take
    if V < 8 or keep.sum(axis=-1).max(initial=0) < 8:
        total = np.zeros(terms.shape[:-1])
        for value in _slices(np.where(keep, terms, 0.0)):
            total += value
        return total
    flat = terms.reshape(-1, V)
    keep = np.broadcast_to(keep, terms.shape).reshape(-1, V)
    counts = keep.sum(axis=1)
    out = np.zeros(len(counts))
    for c in np.unique(counts).tolist():
        if c:
            rows = counts == c
            out[rows] = flat[rows][keep[rows]].reshape(-1, c).sum(axis=1)
    return out.reshape(terms.shape[:-1])


def dos_dependency(
    attentions: Sequence[np.ndarray],
    layer: int,
    masked: np.ndarray | Sequence[int],
    unmasked: Sequence[int] | None = None,
    n_positions: int | None = None,
) -> np.ndarray:
    """Attention mass each masked position places on the unmasked context.

    The chosen layer's heads are averaged arithmetically into one L x L
    matrix; the score of a masked position is its row-sum over the unmasked
    columns (no renormalization). Unmasked positions stay unscored.

    For n states, ``attentions`` holds each layer's (n, H, L, L) maps and
    ``masked`` is their (n, L) mask; the result is (n, L). One state's
    (H, L, L) maps with ``masked`` and ``unmasked`` position lists and
    ``n_positions`` give its (L,) vector, bit for bit its row of a chunk.
    """
    if not 0 <= layer < len(attentions):
        raise IndexError(f"layer {layer} out of range for {len(attentions)} layers")
    attn = np.asarray(attentions[layer], dtype=float)
    if unmasked is None:
        rows = np.asarray(masked, dtype=bool)
        cols = ~rows
    else:  # one state
        attn, rows, cols = attn[None], *np.zeros((2, 1, n_positions), dtype=bool)
        rows[0, list(masked)] = cols[0, list(unmasked)] = True
    scores = _subset_sum(attn.mean(axis=1), cols[:, None, :])
    scores[~rows] = NOT_SCORED
    return scores if unmasked is None else scores[0]


def uncertainty_scores(kind: str, probs: np.ndarray, masked: np.ndarray) -> np.ndarray:
    """Ranking of every position under one of the uncertainty scorers.

    ``probs`` holds the (n, L, V) predictive distributions of n states and
    ``masked`` their (n, L) boolean mask; the (n, L) result scores each
    masked position (higher = earlier) and is NaN elsewhere. One state's
    (L, V) probabilities with an (L,) mask give its (L,) vector. A mask of
    any other shape than ``probs.shape[:-1]`` raises ``ValueError``. Each
    position's score comes from its own row alone, so a state scores the
    same alone as in a batch.
    """
    probs, masked = np.asarray(probs, dtype=float), np.asarray(masked, dtype=bool)
    if masked.shape != probs.shape[:-1]:
        raise ValueError(f"a mask of shape {masked.shape} for probabilities of shape "
                         f"{probs.shape}: it must have shape {probs.shape[:-1]}")
    return np.where(masked, row_scores(kind, probs), NOT_SCORED)


def confidence_vector(probs: np.ndarray, masked: np.ndarray) -> np.ndarray:
    return uncertainty_scores("confidence", probs, masked)


def entropy_vector(probs: np.ndarray, masked: np.ndarray) -> np.ndarray:
    """Raw (unnegated) entropies, used as the budget in entropy-bounded selection."""
    return -uncertainty_scores("entropy", probs, masked)
