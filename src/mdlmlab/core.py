"""Sequence states, vocabularies, and the continuous-time masking process.

Token ids are 1..V for content tokens; the mask symbol is the distinguished
extra id V+1. Positions are 0-based. The leading ``prompt_len`` positions of
a state are conditioning context and are never masked by any operation here.

The masking process is linear: at time t in [0, 1] each non-prompt token
survives with probability alpha(t) = 1 - t and is masked otherwise, so
training weights the masked-position cross-entropy by 1/t. ``forward_mask``
is the one draw of it, over token rows: ``nn.corrupt_batch`` corrupts each
training batch with it, and ``harness.mean_conditional_kl`` its evaluation
states. ``reverse_unmask_prob`` is the matching reverse step: the chance
that stochastic remasking reveals a masked position.

``token_rows`` is the one check of token rows: every entry point that takes
token ids (states, prompts, denoisers, joint lookups, training batches)
refuses a malformed row through it, so no id is truncated or aliased.
``number_fields`` is the one type check of the config classes' numbers.
``distinct_rows`` is the one way rows are grouped by equal content: the
transformer's forward runs each distinct token row once, for inference and
training alike, and the oracle's per-pattern kernel groups rows by mask
pattern.

All types are immutable values; operations are pure given an explicit
``numpy.random.Generator``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Vocabulary:
    """Content vocabulary of size ``size``; the mask id is ``size + 1``."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError(f"vocabulary size must be >= 2, got {self.size}")

    @property
    def mask_id(self) -> int:
        return self.size + 1


def token_rows(tokens, V: int, L: int | None = None, mask: bool = False) -> np.ndarray:
    """``tokens`` as an (n, L) int64 array of ids 1..V (1..V+1 with ``mask``).

    Rows of more than one length (or not ``L`` when given), a dtype that is
    not integer (except for rows of no tokens) and an id out of range raise
    ``ValueError``."""
    want = f"rows of {L} tokens" if L is not None else "rows of one length"
    try:
        rows = np.asarray(tokens)
    except ValueError:
        raise ValueError(f"tokens must be {want}, got ragged rows") from None
    if rows.ndim != 2 or (L is not None and rows.shape[1] != L):
        raise ValueError(f"tokens must be {want}, got shape {rows.shape}")
    if rows.size and rows.dtype.kind not in "iu":
        raise ValueError(f"token ids must be integers, got dtype {rows.dtype}")
    top = V + 1 if mask else V
    ok = (rows >= 1) & (rows <= top)
    if not ok.all():
        row = tuple(rows[np.argmin(ok.all(axis=1))].tolist())
        raise ValueError(f"token row {row} has a token outside 1..{top}")
    return rows.astype(np.int64, copy=False)


def number_fields(config, kind: type, names) -> None:
    """Store the fields ``names`` of the dataclass ``config`` as Python
    ``kind`` values, ``int`` or ``float``, so a NumPy scalar names and prints
    as the Python number does. A ``bool``, and a value that is not an integer
    (for ``float``: not a real number), raises a ValueError naming the field."""
    abstract, noun = {int: (numbers.Integral, "an integer"),
                      float: (numbers.Real, "a real number")}[kind]
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, abstract):
            raise ValueError(f"{name} must be {noun}, got {value!r}")
        object.__setattr__(config, name, kind(value))  # frozen dataclasses too


@dataclass(frozen=True)
class SequenceState:
    """Length-L token tuple over content tokens and masks, plus prompt length."""

    vocab: Vocabulary
    tokens: tuple[int, ...]
    prompt_len: int = 0

    def __post_init__(self) -> None:
        L = len(self.tokens)
        if L < 1:
            raise ValueError("empty sequence state")
        if not 0 <= self.prompt_len < L:
            raise ValueError(f"prompt_len {self.prompt_len} out of range for L={L}")
        token_rows([self.tokens], self.vocab.size, mask=True)
        if self.vocab.mask_id in self.tokens[: self.prompt_len]:
            i = self.tokens.index(self.vocab.mask_id)
            raise ValueError(f"prompt position {i} must not be masked")

    def __len__(self) -> int:
        return len(self.tokens)

    def masked_positions(self) -> tuple[int, ...]:
        m = self.vocab.mask_id
        return tuple(i for i, t in enumerate(self.tokens) if t == m)

    def with_tokens(self, updates: dict[int, int]) -> "SequenceState":
        """Return a copy with ``updates`` (position -> token id) applied."""
        toks = list(self.tokens)
        for pos, tok in updates.items():
            toks[pos] = tok
        return SequenceState(self.vocab, tuple(toks), self.prompt_len)


@dataclass(frozen=True)
class StateBatch:
    """Same-length sequences of one vocabulary as an (n, L) token array.

    The one input of both denoisers (``denoiser.batch``, ``nn.forward``). It
    is not validated here: the denoisers check its rows with ``token_rows``
    (mask allowed). The output for it is a ``DenoiserOutput`` whose arrays
    carry a leading axis of n rows.
    """

    vocab: Vocabulary
    tokens: np.ndarray

    def __len__(self) -> int:
        return len(self.tokens)


def alpha(t: float) -> float:
    """Survival probability of an unmasked token at time t: 1 - t."""
    return 1.0 - t


@dataclass
class DenoiserOutput:
    """Per-position predictive distributions plus optional attention tensors,
    for the n rows of a ``StateBatch``.

    ``probs[r, i]`` is row r's distribution at position i over content
    tokens 1..V; the mask symbol carries probability 0 by construction (it
    has no output dimension). ``attentions``, when present, holds one
    row-stochastic (n, H, L, L) tensor per transformer layer.
    """

    probs: np.ndarray
    attentions: list[np.ndarray] | None = None


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` of the distinct rows of an (n, L) array.

    ``rows[first]`` holds each distinct row once, and
    ``rows[first][inverse]`` equals ``rows``. Rows are keyed by their bytes
    (one ``np.unique`` over a void view), a key that cannot overflow for any
    V or L.
    """
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


def forward_mask(
    x0,
    V: int,
    prompt_len: int,
    rng: np.random.Generator,
    t_min: float = 0.0,
    redraws: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Corrupt clean (n, L) token rows; returns (corrupted, t).

    Row by row: t ~ Uniform[t_min, 1), then each non-prompt position is
    masked (set to V+1) when its uniform draw is >= alpha(t). A row that
    comes out with no masked position draws a fresh t and positions again,
    at most ``redraws`` times (``None``: until one is masked); a row that is
    still unmasked is returned clean. ``t[r]`` is row r's last t. Prompt
    positions are never touched. Rows that ``token_rows`` refuses (ids 1..V),
    a ``prompt_len`` outside 0..L-1, a ``t_min`` outside [0, 1] (NaN too)
    and ``redraws`` other than ``None`` or an integer >= 0 raise
    ``ValueError`` before any draw.

    An attempt at a row takes 1 + (L - prompt_len) doubles of ``rng``, t
    first (``uniform(t_min, 1)`` is ``t_min + (1 - t_min) * random()``), so
    the attempts come in blocks, one per row left, handed to the rows in
    order under the retry rule: the draws, and no more, of row by row.
    """
    rows = token_rows(x0, V)
    n, L = rows.shape
    if not 0 <= prompt_len < L:
        raise ValueError(f"prompt_len {prompt_len} out of range for L={L}")
    if not 0.0 <= t_min <= 1.0:
        raise ValueError(f"t_min must lie in [0, 1], got {t_min}")
    if redraws is not None and (isinstance(redraws, bool)
                                or not isinstance(redraws, numbers.Integral) or redraws < 0):
        raise ValueError(f"redraws must be None or an integer >= 0, got {redraws!r}")
    hidden = np.zeros((n, L), dtype=bool)
    t = np.empty(n)
    attempt = np.arange(n)
    done = tries = 0  # rows finished; failed attempts of row ``done`` so far
    while done < n:
        m = n - done
        draws = rng.random((m, 1 + L - prompt_len))
        t_try = t_min + (1.0 - t_min) * draws[:, 0]
        masked = draws[:, 1:] >= alpha(t_try)[:, None]
        ends = masked.any(axis=1)
        if redraws is not None:
            # a failure ends its row at every (redraws + 1)-th failure since
            # the last success, the carried-over tries counted
            last_ok = np.maximum.accumulate(np.where(ends, attempt[:m], -1 - tries))
            ends |= (attempt[:m] - last_ok) % (redraws + 1) == 0
        ends = np.flatnonzero(ends)
        hidden[done:done + len(ends), prompt_len:] = masked[ends]
        t[done:done + len(ends)] = t_try[ends]
        tries = m - 1 - ends[-1] if len(ends) else tries + m
        done += len(ends)
    return np.where(hidden, V + 1, rows), t


def reverse_unmask_prob(t: float, s: float) -> float:
    """Probability that a masked token is revealed on the step t -> s (elementwise).

    Equals (alpha(s) - alpha(t)) / (1 - alpha(t)), which is (t - s) / t.
    """
    if not np.all((0.0 <= s) & (s < t) & (t <= 1.0)):
        raise ValueError(f"need 0 <= s < t <= 1, got s={s}, t={t}")
    a_t, a_s = alpha(t), alpha(s)
    denom = 1.0 - a_t
    if np.any(denom <= 0.0):
        raise ValueError(f"reverse step undefined at t={t} where alpha(t)=1")
    return (a_s - a_t) / denom
