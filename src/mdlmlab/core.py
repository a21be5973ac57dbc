"""Sequence states, vocabularies, and the continuous-time masking process.

Token ids are 1..V for content tokens; the mask symbol is the distinguished
extra id V+1. Positions are 0-based. The leading ``prompt_len`` positions of
a state are conditioning context and are never masked by any operation here.

The masking process is linear: at time t in [0, 1] each non-prompt token
survives with probability alpha(t) = 1 - t and is masked otherwise, so
training weights the masked-position cross-entropy by 1/t.

``token_rows`` is the one check of token rows: every entry point that takes
token ids (states, prompts, denoisers, joint lookups, training batches)
refuses a malformed row through it, so no id is truncated or aliased.

All types are immutable values; operations are pure given an explicit
``numpy.random.Generator``.
"""

from __future__ import annotations

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

    def is_content(self, token: int) -> bool:
        return 1 <= token <= self.size


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

    def is_masked(self, position: int) -> bool:
        return self.tokens[position] == self.vocab.mask_id

    def masked_positions(self) -> tuple[int, ...]:
        m = self.vocab.mask_id
        return tuple(i for i, t in enumerate(self.tokens) if t == m)

    def unmasked_positions(self) -> tuple[int, ...]:
        m = self.vocab.mask_id
        return tuple(i for i, t in enumerate(self.tokens) if t != m)

    def with_tokens(self, updates: dict[int, int]) -> "SequenceState":
        """Return a copy with ``updates`` (position -> token id) applied."""
        toks = list(self.tokens)
        for pos, tok in updates.items():
            toks[pos] = tok
        return SequenceState(self.vocab, tuple(toks), self.prompt_len)


@dataclass(frozen=True)
class StateBatch:
    """Same-length sequences of one vocabulary as an (n, L) token array.

    The input of ``denoiser.batch`` and of a batched forward pass
    (``nn.forward``). It is not validated here: the denoisers check its
    rows with ``token_rows`` (mask allowed). The one output for it is a
    ``DenoiserOutput`` whose arrays carry a leading axis of n rows.
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
    """Per-position predictive distributions plus optional attention tensors.

    For one state, ``probs[i]`` is position i's distribution over content
    tokens 1..V; the mask symbol carries probability 0 by construction (it
    has no output dimension). ``attentions``, when present, holds one
    row-stochastic (H, L, L) tensor per transformer layer. The output for a
    ``StateBatch`` of n rows has the same arrays with a leading row axis:
    (n, L, V) probs and (n, H, L, L) attentions per layer.
    """

    probs: np.ndarray
    attentions: list[np.ndarray] | None = None


def mask_patterns(masked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an (n, L) mask and each row's index among them. Rows are keyed
    by their bits (L <= 62): a 1-D ``np.unique`` is far faster than one with ``axis=0``."""
    codes = masked @ (1 << np.arange(masked.shape[1]))
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    return masked[first], inverse


def forward_mask(
    x0: SequenceState,
    t: float,
    rng: np.random.Generator,
) -> SequenceState:
    """Corrupt x0 at time t: each non-prompt token survives w.p. alpha(t).

    Prompt positions are never touched. Requires a fully unmasked input on
    the non-prompt positions.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t={t} outside [0, 1]")
    for i in range(x0.prompt_len, len(x0)):
        if x0.is_masked(i):
            raise ValueError("forward_mask expects a fully unmasked input")
    keep = alpha(t)
    u = rng.random(len(x0) - x0.prompt_len)
    updates = {
        x0.prompt_len + j: x0.vocab.mask_id for j, uj in enumerate(u) if uj >= keep
    }
    return x0.with_tokens(updates) if updates else x0


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


def posterior_step(
    x_t: SequenceState,
    x0: SequenceState,
    t: float,
    s: float,
    rng: np.random.Generator,
) -> SequenceState:
    """One reverse step of the analytic posterior given the true x0.

    Unmasked positions are kept unchanged; each masked position reveals its
    x0 token with probability (alpha(s) - alpha(t)) / (1 - alpha(t)) and
    stays masked otherwise.
    """
    if x_t.tokens == x0.tokens and not x_t.masked_positions():
        return x_t
    p = reverse_unmask_prob(t, s)
    updates = {}
    for i in x_t.masked_positions():
        if rng.random() < p:
            updates[i] = x0.tokens[i]
    return x_t.with_tokens(updates) if updates else x_t
