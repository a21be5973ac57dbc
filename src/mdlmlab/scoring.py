"""Per-position scores that rank masked tokens for decoding.

Every ranking follows one convention: higher means decode earlier, so the
entropy scorer negates the raw entropy at this boundary. Unmasked positions
carry NaN ("not scored"). Natural log throughout.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

NOT_SCORED = np.nan

UNCERTAINTY_SCORERS = ("confidence", "entropy", "margin")
SCORERS = UNCERTAINTY_SCORERS + ("dos", "oracle_dep")


def row_scores(kind: str, rows: np.ndarray) -> np.ndarray:
    """Ranking score of each row of an (n, V) probability matrix.

    The one implementation of the uncertainty scorers: ``confidence`` is the
    largest probability, ``entropy`` the negated Shannon entropy (sum of
    p log p over p > 0), ``margin`` the gap between the two largest
    probabilities.
    """
    rows = np.asarray(rows, dtype=float)
    if kind == "confidence":
        return rows.max(axis=1)
    if kind == "entropy":
        return (rows * np.log(np.where(rows > 0, rows, 1.0))).sum(axis=1)
    if kind == "margin":
        if rows.shape[1] < 2:
            raise ValueError("margin needs at least two outcomes")
        top2 = np.partition(rows, -2, axis=1)
        return top2[:, -1] - top2[:, -2]
    raise ValueError(f"unknown uncertainty scorer {kind!r}")


def confidence(p: np.ndarray) -> float:
    """Largest probability in the distribution."""
    return float(row_scores("confidence", np.atleast_2d(p))[0])


def entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats, with 0 log 0 = 0."""
    return float(-row_scores("entropy", np.atleast_2d(p))[0])


def margin(p: np.ndarray) -> float:
    """Gap between the highest and second-highest probabilities."""
    return float(row_scores("margin", np.atleast_2d(p))[0])


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) with 0 log 0 = 0; q is floored at 1e-12 so the value is total."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must share a support size")
    q = np.maximum(q, 1e-12)
    nz = p > 0
    return float((p[nz] * np.log(p[nz] / q[nz])).sum())


def dos_dependency(
    attentions: Sequence[np.ndarray],
    layer: int,
    masked: Sequence[int],
    unmasked: Sequence[int],
    n_positions: int,
) -> np.ndarray:
    """Attention mass each masked position places on the unmasked context.

    The chosen layer's heads are averaged arithmetically into one L x L
    matrix; the score of a masked position is its row-sum over the unmasked
    columns (no renormalization). Unmasked positions stay unscored.
    """
    if not 0 <= layer < len(attentions):
        raise IndexError(f"layer {layer} out of range for {len(attentions)} layers")
    attn = np.asarray(attentions[layer], dtype=float).mean(axis=0)
    scores = np.full(n_positions, NOT_SCORED)
    rows = np.asarray(masked, dtype=np.intp)
    cols = np.asarray(unmasked, dtype=np.intp)
    scores[rows] = attn[np.ix_(rows, cols)].sum(axis=1)
    return scores


def uncertainty_scores(kind: str, probs: np.ndarray, masked: np.ndarray) -> np.ndarray:
    """Ranking of every position under one of the uncertainty scorers.

    ``probs`` holds the (n, L, V) predictive distributions of n states and
    ``masked`` their (n, L) boolean mask; the (n, L) result scores each
    masked position (higher = earlier) and is NaN elsewhere. One state's
    (L, V) probabilities with an (L,) mask give its (L,) vector. Each
    position's score comes from its own row alone, so a state scores the
    same alone as in a batch.
    """
    masked = np.asarray(masked, dtype=bool)
    scores = np.full(masked.shape, NOT_SCORED)
    scores[masked] = row_scores(kind, np.asarray(probs)[masked])
    return scores


def confidence_vector(probs: np.ndarray, masked: np.ndarray) -> np.ndarray:
    return uncertainty_scores("confidence", probs, masked)


def entropy_vector(probs: np.ndarray, masked: np.ndarray) -> np.ndarray:
    """Raw (unnegated) entropies, used as the budget in entropy-bounded selection."""
    return -uncertainty_scores("entropy", probs, masked)
