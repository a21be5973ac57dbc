"""The generation loop: selection policies, block partitioning, traces.

A denoiser has a ``vocab`` attribute and one call: ``denoiser.batch(states)``
takes a ``core.StateBatch`` of n same-length rows and returns one
``DenoiserOutput`` whose arrays carry a leading row axis, in row order (the
transformer runs the rows as one batched forward, the oracle reads each row
from its cache and computes the missed rows together). A row's output must
not depend on the other rows of the call. The exact backend additionally
exposes ``dependency_scores(masked)``, from one row's mask, for the
oracle_dep scorer. A step makes one forward evaluation per sequence, and
both the scores and the committed predictions come from that same
evaluation, so the trace's NFE equals the number of forward evaluations
exactly.

The step rule (block order and budgets, candidates, KLASS history, scoring
and selection) lives in one step loop, the private generator ``_lockstep``,
which holds the sequences as arrays (an (N, L) token array and (N,) arrays
of block, steps in block, forwards and mass) and scores and selects each
chunk of rows with whole-array calls. ``core.token_rows`` checks the
prompts once; from there on no ``SequenceState`` is built. The sampler
``decode_blockwise`` draws one continuation per sequence and records each
position's step and score; the enumerator ``enumerate_decodes`` replaces
each sequence by all of its continuations, each with its probability, and
hands the harness its outcomes as arrays, from which the harness computes
exact induced distributions.

Stochastic remasking runs only under top-k, so under every other selector a
position is masked from a sequence's first step until it is committed. KLASS
relies on this: its ``History`` is the sequences' last n+1 whole outputs, a
masked position's own record is its slice of them, and enumeration branches
inherit their parent's records.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from .core import DenoiserOutput, StateBatch, mask_patterns, reverse_unmask_prob, token_rows
from . import scoring

SELECTORS = ("topk", "threshold", "klass", "eb")


@dataclass(frozen=True)
class PolicyConfig:
    """One decoding policy: how to rank masked positions and which to commit.

    ``steps`` is the top-k budget T (0 means one token per step). The
    threshold, klass, and eb parameters default to the standard settings
    (eps=0.95, n=2, gamma=0.01).

    Under blocks, T is split across blocks in proportion to their length:
    a block of n positions gets max(1, round(T * n / gen_len)) steps. The
    rounded budgets can sum above T, so top-k NFE is their sum, not T:
    steps=4, gen_len=8, block_size=3 gives budgets [2, 2, 1] and 5 forward
    calls. Without stochastic remasking NFE never exceeds gen_len.
    """

    scorer: str = "confidence"
    selector: str = "topk"
    steps: int = 0
    block_size: int = 0  # 0 = single block
    temperature: str = "greedy"  # greedy | sample
    layer: int = 0
    eps: float = 0.95
    tau: float = 0.9
    eps_kl: float = 0.01
    n_history: int = 2
    gamma: float = 0.01
    stochastic_remask: bool = False
    dep_eb_prefilter: float | None = None

    def __post_init__(self) -> None:
        if self.scorer not in scoring.SCORERS:
            raise ValueError(f"unknown scorer {self.scorer!r}")
        if self.selector not in SELECTORS:
            raise ValueError(f"unknown selector {self.selector!r}")
        if self.temperature not in ("greedy", "sample"):
            raise ValueError(f"unknown temperature mode {self.temperature!r}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        # written so that NaN, which fails every comparison, fails each check
        if not self.eps_kl > 0.0:
            raise ValueError("eps_kl must be > 0")
        if self.n_history < 1:
            raise ValueError("n_history must be >= 1")
        if not self.gamma >= 0.0:
            raise ValueError("gamma must be >= 0")
        if self.dep_eb_prefilter is not None and math.isnan(self.dep_eb_prefilter):
            raise ValueError("dep_eb_prefilter must be a number, got nan")
        if self.dep_eb_prefilter is not None and self.selector != "eb":
            raise ValueError(f"dep_eb_prefilter must be None under selector {self.selector!r}")
        if self.steps < 0 or self.block_size < 0 or self.layer < 0:
            raise ValueError("steps, block_size, and layer must be >= 0")
        if self.stochastic_remask and self.selector != "topk":
            raise ValueError("stochastic_remask requires the step-scheduled topk selector")

    def policy_id(self) -> str:
        """A distinct name per policy; all-default tuning parameters add nothing."""
        parts = [self.scorer, self.selector]
        if self.selector == "topk" or self.steps:
            parts.append(f"T{self.steps}")
        if self.block_size:
            parts.append(f"b{self.block_size}")
        if self.scorer == "dos" or self.layer:
            parts.append(f"l{self.layer}")
        parts.append(self.temperature)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _TUNING and value != f.default:
                parts.append(f.name if value is True else f"{f.name}{value!r}")
        return "-".join(parts)


# Parameters that ``policy_id`` names only when they differ from the default.
_TUNING = (
    "eps", "tau", "eps_kl", "n_history", "gamma", "stochastic_remask",
    "dep_eb_prefilter",
)


@dataclass
class TraceStep:
    step: int
    positions: list[int]
    tokens: list[int]
    scores: list[float]
    nfe: int

    def to_record(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class DecodeTrace:
    """One decode as read-only rows: its final ``tokens``, the step that
    committed each position (``step_of``, -1 in the prompt), each commit's
    ``scores`` and the forward count ``nfe``. ``steps`` is derived: step s
    lists its positions in ascending order with cumulative NFE s + 1, so a
    stochastic-remasking step that committed nothing is listed, empty."""

    tokens: np.ndarray
    step_of: np.ndarray
    scores: np.ndarray
    nfe: int

    @property
    def steps(self) -> list[TraceStep]:
        at = [np.flatnonzero(self.step_of == s) for s in range(self.nfe)]  # ascending
        return [TraceStep(s, a.tolist(), self.tokens[a].tolist(), self.scores[a].tolist(), s + 1)
                for s, a in enumerate(at)]

    def committed_positions(self) -> list[int]:
        return [p for s in self.steps for p in s.positions]

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(s.to_record()) for s in self.steps) + "\n"

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())


class History:
    """The last n+1 outputs of one row, (L, V) each, or of a chunk of rows,
    (rows, L, V) each, oldest first; an immutable value. A KLASS position is
    masked from the row's first step until committed, so its own record is
    exactly its slice of these outputs."""

    def __init__(self, n: int, outputs: tuple[np.ndarray, ...] = ()):
        self.n = n
        self.outputs = outputs

    def record(self, probs: np.ndarray) -> "History":
        """A new history ending with ``probs``; the receiver is unchanged."""
        return History(self.n, (self.outputs + (probs,))[-(self.n + 1):])

    def take(self, rows: np.ndarray) -> "History":
        """The history of ``rows`` of a chunk, in that order."""
        return History(self.n, tuple(out[rows] for out in self.outputs))

    def stable(self, eps_kl: float) -> np.ndarray:
        """Per position: n+1 records exist and all n consecutive KLs are < eps_kl
        (False for every position while fewer records exist)."""
        if len(self.outputs) < self.n + 1:
            return np.False_
        older, newer = np.array(self.outputs[:-1]), np.array(self.outputs[1:])
        return (scoring.kl_divergence(older, newer) < eps_kl).all(axis=0)

    def copy(self) -> "History":
        # an immutable value needs no copy; kept while bench/tracer.py traces it
        return self


# ---------------------------------------------------------------------------
# selection primitives over (n, L) chunks: each takes per-row candidate masks
# and returns an (n, L) selected mask; all ties break toward the lowest
# position index. A 1-D vector with a position list is the one-row case and
# gives the selected positions as a sorted tuple.
# ---------------------------------------------------------------------------

def _one_row(select, vectors: Sequence[np.ndarray], candidates: Sequence[int], *args):
    """``select`` on one row given as 1-D ``vectors`` and a position list."""
    mask = np.zeros((1, len(vectors[0])), dtype=bool)
    mask[0, list(candidates)] = True
    selected = select(*(np.asarray(v)[None] for v in vectors), mask, *args)
    return tuple(np.flatnonzero(selected[0]).tolist())


def _ranked(scores: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Each row's positions: its candidates by descending score, then the rest."""
    return np.argsort(np.where(candidates, -scores, np.nan), axis=1, kind="stable")


def _prefix(order: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The mask of the first ``counts[r]`` positions of each row's ``order``."""
    selected = np.zeros(order.shape, dtype=bool)
    selected[np.arange(len(order))[:, None], order] = np.arange(order.shape[1]) < counts[:, None]
    return selected


def _or_best(chosen: np.ndarray, conf: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """``chosen``, where a row with no chosen position takes its most confident candidate."""
    empty = np.flatnonzero(~chosen.any(axis=1))
    if len(empty):
        best = np.where(candidates[empty], conf[empty], -np.inf).argmax(axis=1)
        chosen[empty, best] = True
    return chosen


def select_topk(scores: np.ndarray, candidates, k) -> np.ndarray | tuple[int, ...]:
    """The min(k, #candidates) highest-scoring candidates, with k per row. One row
    sorts in Python, as numpy calls cost more in the layered models' rejection loop."""
    if np.ndim(scores) == 1:
        if k < 1 or not candidates:
            raise ValueError("k must be >= 1" if k < 1 else "no masked positions to select from")
        return tuple(sorted(sorted(candidates, key=lambda i: (-scores[i], i))[:k]))
    count = candidates.sum(axis=1)
    if (k < 1).any() or not count.all():
        raise ValueError("k must be >= 1 and every row needs a masked position")
    return _prefix(_ranked(scores, candidates), np.minimum(k, count))


def select_threshold(conf: np.ndarray, candidates, eps: float) -> np.ndarray | tuple[int, ...]:
    """Candidates with confidence > eps; a row with none takes its single best one."""
    if np.ndim(conf) == 1:
        return _one_row(select_threshold, [conf], candidates, eps)
    return _or_best(candidates & (conf > eps), conf, candidates)


def select_klass(
    history, conf: np.ndarray, candidates, tau: float, eps_kl: float
) -> np.ndarray | tuple[int, ...]:
    """Stable candidates: n consecutive KLs below eps_kl and confidence above tau.

    ``history`` is the rows' ``History``, of (L, V) outputs in the one-row
    case. Positions with fewer than n+1 records are ineligible; a row with
    no stable candidate falls back to its argmax-confidence singleton.
    """
    if np.ndim(conf) == 1:
        return _one_row(lambda c, m: select_klass(history, c, m, tau, eps_kl), [conf], candidates)
    return _or_best(candidates & (conf > tau) & history.stable(eps_kl), conf, candidates)


def select_eb(
    ranking: np.ndarray, entropies: np.ndarray, candidates, gamma: float
) -> np.ndarray | tuple[int, ...]:
    """Longest ranked prefix whose entropy sum minus prefix-max entropy is <= gamma.

    A prefix of size 1 always qualifies; a longer one ends before the first
    position at which the running sum minus the running max exceeds gamma
    (a value that never decreases as the prefix grows).
    """
    if np.ndim(ranking) == 1:
        return _one_row(select_eb, [ranking, entropies], candidates, gamma)
    order = _ranked(ranking, candidates)
    ent = np.take_along_axis(entropies, order, axis=1)
    top = np.maximum.accumulate(np.maximum(ent, 0.0), axis=1)  # the running max starts at 0
    count = candidates.sum(axis=1)
    over = (np.cumsum(ent, axis=1) - top > gamma) & (np.arange(ent.shape[1]) < count[:, None])
    over[:, 0] = False  # a prefix of one qualifies, whatever gamma
    return _prefix(order, np.where(over.any(axis=1), over.argmax(axis=1), count))


def commit_token(probs: np.ndarray, temperature: str, rng: np.random.Generator) -> np.ndarray:
    """One token id (1..V) per row of a (K, V) probability matrix.

    Greedy takes each row's argmax (ties to the lowest token id) and draws
    nothing. Sampling normalises each row, takes its cumulative sum divided
    by the last entry, and counts the entries <= one ``rng.random()`` draw
    per row, in row order: the tokens, and the generator state left behind,
    are those of K calls of ``rng.choice(V, p=row / row.sum())``.
    """
    probs = np.asarray(probs, dtype=float)
    if temperature == "greedy":
        return probs.argmax(axis=1) + 1
    if temperature == "sample":
        cdf = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
        cdf = cdf / cdf[:, -1:]
        u = rng.random(len(cdf))
        return (cdf <= u[:, None]).sum(axis=1) + 1
    raise ValueError(f"unknown temperature mode {temperature!r}")


# ---------------------------------------------------------------------------
# scoring and selection for one step of a chunk of rows
# ---------------------------------------------------------------------------

def compute_ranking(
    policy: PolicyConfig, out: DenoiserOutput, masked: np.ndarray, denoiser
) -> np.ndarray:
    """The policy's (n, L) ScoreVectors of n rows, NaN off the masked positions.

    ``out`` is the rows' ``denoiser.batch`` output ((n, L, V) probs) and
    ``masked`` their (n, L) mask. Every scorer ranks the rows in one call,
    except oracle_dep, which asks once per distinct mask pattern.
    """
    if policy.scorer in scoring.UNCERTAINTY_SCORERS:
        return scoring.uncertainty_scores(policy.scorer, out.probs, masked)
    if policy.scorer == "dos":
        if out.attentions is None:
            raise ValueError("the dos scorer needs a denoiser that returns attentions")
        return scoring.dos_dependency(out.attentions, policy.layer, masked)
    if policy.scorer == "oracle_dep":
        dep = getattr(denoiser, "dependency_scores", None)
        if dep is None:
            raise ValueError("the oracle_dep scorer needs an exact denoiser")
        patterns, inverse = mask_patterns(masked)
        return np.array([dep(pattern) for pattern in patterns])[inverse]
    raise ValueError(f"unknown scorer {policy.scorer!r}")


def selector_vectors(
    policy: PolicyConfig, probs: np.ndarray, masked: np.ndarray
) -> np.ndarray | None:
    """What the selector reads besides the ranking, for n rows at once:
    confidences for threshold and KLASS, entropies for EB, None for top-k."""
    if policy.selector in ("threshold", "klass"):
        return scoring.confidence_vector(probs, masked)
    if policy.selector == "eb":
        return scoring.entropy_vector(probs, masked)
    return None


def plan_step(
    policy: PolicyConfig, ranking: np.ndarray, vector: np.ndarray | None,
    candidates: np.ndarray, steps_left: np.ndarray, history: History | None,
) -> np.ndarray:
    """The (n, L) mask of the positions n rows commit at a step (no commitment).

    ``ranking`` holds the rows' ScoreVectors, ``vector`` their rows of
    ``selector_vectors``, ``candidates`` the masked positions of each row's
    active block, ``steps_left`` each row's remaining budget (>= 1), and
    ``history`` the rows' KLASS ``History`` (None under other selectors).
    """
    if policy.selector == "topk":
        return select_topk(ranking, candidates, -(-candidates.sum(axis=1) // steps_left))
    if policy.selector == "threshold":
        return select_threshold(vector, candidates, policy.eps)
    if policy.selector == "klass":
        return select_klass(history, vector, candidates, policy.tau, policy.eps_kl)
    if policy.selector == "eb":
        pool = candidates
        if policy.dep_eb_prefilter is not None:
            kept = candidates & (ranking > policy.dep_eb_prefilter)
            pool = np.where(kept.any(axis=1, keepdims=True), kept, candidates)
        return select_eb(ranking, vector, pool, policy.gamma)
    raise ValueError(f"unknown selector {policy.selector!r}")


# ---------------------------------------------------------------------------
# the step loop, shared by the sampler and the exact enumerator
# ---------------------------------------------------------------------------

# Rows per denoiser call. A step denoises its rows chunk by chunk and keeps
# only the probabilities of the selected positions, so a 10000-sample
# evaluation or a wide enumeration level holds one chunk's outputs (and
# attention maps) at a time.
FORWARD_ROWS = 256


@dataclass
class _Rows:
    """The step loop's sequences, one entry per row: ``block`` is the active
    block (the block count once unmasked), ``steps`` the steps taken in it,
    ``mass`` the path probability, ``history`` the KLASS ``History``."""

    tokens: np.ndarray
    block: np.ndarray
    steps: np.ndarray
    forwards: np.ndarray
    mass: np.ndarray
    history: History | None


def _start(
    denoiser, policy: PolicyConfig, prompts: Sequence[Sequence[int]], gen_len: int
) -> tuple[np.ndarray, np.ndarray, _Rows]:
    """Left-to-right blocks, as each position's block index (-1 in the
    prompt) and each block's step budget (see ``PolicyConfig``), and one
    fresh row per prompt, its prompt followed by ``gen_len`` masks. No
    prompt, prompts that ``core.token_rows`` refuses (ids 1..V) and a
    ``gen_len`` below 1 raise ``ValueError`` before any denoiser call.
    """
    if gen_len < 1:
        raise ValueError(f"gen_len must be >= 1, got {gen_len}")
    if not len(prompts):
        raise ValueError("a decode needs one or more prompts of one length")
    prompt = token_rows(prompts, denoiser.vocab.size)
    tokens = np.hstack([prompt, np.full((len(prompt), gen_len), denoiser.vocab.mask_id)])
    size = policy.block_size if 0 < policy.block_size < gen_len else gen_len
    total_steps = policy.steps if policy.steps else gen_len
    sizes = np.diff([*range(0, gen_len, size), gen_len]).tolist()
    budgets = np.array([max(1, round(total_steps * n / gen_len)) for n in sizes])
    block_of = np.repeat(np.arange(-1, len(sizes)), [prompt.shape[1], *sizes])
    block, steps, forwards = (np.zeros(len(tokens), dtype=int) for _ in range(3))
    history = History(policy.n_history) if policy.selector == "klass" else None
    return block_of, budgets, _Rows(tokens, block, steps, forwards, np.ones(len(tokens)), history)


def _lockstep(
    denoiser, policy: PolicyConfig, block_of: np.ndarray, budgets: np.ndarray, rows: _Rows
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The step loop: plan the next step of every row of ``rows``, step by step.

    A step moves each row to its first block with a masked position
    (entering a block restarts its step count) and denoises the unfinished
    rows in ``denoiser.batch`` calls of at most ``FORWARD_ROWS`` rows, each
    a slice of their token array. Each chunk is scored and selected as a
    whole: one call per vector, one KLASS record of its whole output (see
    the module docstring), and one ``plan_step`` call over the masked
    positions of each row's block under its remaining budget. Yields
    ``(selected, probs, scores)`` per step: the (N, L) mask each row
    commits, and the probability rows and rankings of the selected
    positions in row-major order. The caller commits before
    resuming, by writing into or replacing the arrays of ``rows``.
    """
    vocab = denoiser.vocab
    while True:
        masked = rows.tokens == vocab.mask_id
        block = np.where(masked, block_of, len(budgets)).min(axis=1)
        rows.steps = np.where(block == rows.block, rows.steps, 0)
        rows.block = block
        active = np.flatnonzero(block < len(budgets))
        if not len(active):
            return
        tokens, block = rows.tokens[active], block[active]
        candidates = masked[active] & (block_of == block[:, None])
        steps_left = np.maximum(1, budgets[block] - rows.steps[active])
        selected = np.zeros(masked.shape, dtype=bool)
        record = None if rows.history is None else np.zeros(masked.shape + (vocab.size,))
        chosen_probs, chosen_scores = [], []
        for lo in range(0, len(active), FORWARD_ROWS):
            part, ids = slice(lo, lo + FORWARD_ROWS), active[lo : lo + FORWARD_ROWS]
            out = denoiser.batch(StateBatch(vocab, tokens[part]))
            ranking = compute_ranking(policy, out, masked[ids], denoiser)
            vector = selector_vectors(policy, out.probs, masked[ids])
            history = None
            if record is not None:
                history = rows.history.take(ids).record(out.probs)
                record[ids] = out.probs
            chosen = plan_step(policy, ranking, vector, candidates[part], steps_left[part], history)
            selected[ids] = chosen
            chosen_probs.append(out.probs[chosen])
            chosen_scores.append(ranking[chosen])
            del out  # the next forward runs without this one
        if record is not None:
            rows.history = rows.history.record(record)
        rows.steps[active] += 1
        rows.forwards[active] += 1  # one forward evaluation per step
        yield selected, np.concatenate(chosen_probs), np.concatenate(chosen_scores)


def decode_blockwise(
    denoiser, policy: PolicyConfig, prompts: Sequence[Sequence[int]], gen_len: int,
    rng: np.random.Generator,
) -> list[tuple[tuple[int, ...], DecodeTrace]]:
    """Generate from every prompt in lockstep; ``(final tokens, trace)`` per prompt.

    The prompts must be non-empty in number and share one length (an empty
    prompt means unconditional generation); a malformed prompt raises
    ``ValueError`` before any denoiser call (see ``_start``). Each final
    sequence is a tuple of ints. Each step of the shared step loop denoises
    the sequences that still have masked positions, commits with one
    ``commit_token`` call over all selected positions, by fancy indexing
    into the token array, and writes each commit's step and score into two
    (N, L) arrays that the traces view by row. A sequence leaves the batch
    once it is unmasked, so adaptive selectors (threshold, KLASS, EB)
    finish sequences at different steps.

    Positions are partitioned into left-to-right blocks of
    ``policy.block_size`` (the last may be short; 0 or ``>= gen_len`` is one
    block), and selection is confined to the active block until it is
    unmasked; scoring sees the whole sequence. Every selector commits at
    least one token per forward call (unless stochastic remasking is on),
    so NFE <= gen_len. Per step, ``rng`` first gives the stochastic-remasking
    draws, then the token draws, each sequence by sequence and in position
    order within one; a single prompt draws as a one-sequence decoder would.
    """
    block_of, budgets, rows = _start(denoiser, policy, prompts, gen_len)
    step_of = np.full(rows.tokens.shape, -1)
    score_of = np.full(rows.tokens.shape, np.nan)
    for selected, probs, scores in _lockstep(denoiser, policy, block_of, budgets, rows):
        r, c = np.nonzero(selected)
        if policy.stochastic_remask:
            k, b = rows.steps[r] - 1, budgets[rows.block[r]]  # k: the steps before this one
            t, s = np.maximum(1.0 - k / b, 1.0 / b), np.maximum(1.0 - (k + 1) / b, 0.0)
            keep = rng.random(len(r)) < reverse_unmask_prob(t, s)
            r, c, probs, scores = r[keep], c[keep], probs[keep], scores[keep]
        rows.tokens[r, c] = commit_token(probs, policy.temperature, rng)
        step_of[r, c] = rows.forwards[r] - 1
        score_of[r, c] = scores
    for array in (rows.tokens, step_of, score_of):
        array.flags.writeable = False  # each trace holds row views of them
    return [
        (tuple(final), DecodeTrace(rows.tokens[k], step_of[k], score_of[k], nfe))
        for k, (final, nfe) in enumerate(zip(rows.tokens.tolist(), rows.forwards.tolist()))
    ]


def enumerate_decodes(
    denoiser, policy: PolicyConfig, prompts: Sequence[tuple[Sequence[int], float]], gen_len: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every outcome of decoding the prompts, as the arrays ``(tokens, mass,
    forwards)``: one (N, L) token row, path probability and forward count
    per outcome.

    ``prompts`` pairs each prompt with its mass, as ``oracle.prompt_marginal``
    returns them. Runs the sampler's step loop over all prompts at once, but
    instead of drawing the committed tokens, it replaces each unfinished
    row by every value combination of its selected set, with the row's mass
    times the combination's product probability (greedy temperature follows
    the single argmax branch). A step repeats the rows once per value of
    their first selected position, then of the next, so the first position
    varies slowest; finished rows keep their place. Outcomes come prompt by
    prompt, each prompt's depth-first in token order; a sequence reached
    along several paths is listed once per path. A malformed prompt raises
    ``ValueError`` before any denoiser call (see ``_start``).
    """
    if policy.stochastic_remask:
        raise ValueError("stochastic remasking has no exact mode")
    block_of, budgets, rows = _start(denoiser, policy, [prompt for prompt, _ in prompts], gen_len)
    rows.mass = np.array([mass for _, mass in prompts], dtype=float)
    V = denoiser.vocab.size
    for selected, probs, _ in _lockstep(denoiser, policy, block_of, budgets, rows):
        if policy.temperature == "greedy":
            probs = np.eye(V)[probs.argmax(axis=1)]  # one branch of probability 1
        count = selected.sum(axis=1)
        first = np.cumsum(count) - count  # each row's first entry in probs
        order = np.argsort(~selected, axis=1, kind="stable")  # its selected positions first
        src, path, tokens = np.arange(len(count)), np.ones(len(count)), rows.tokens
        for j in range(count.max()):
            level = count[src] > j
            support = np.eye(V)[np.zeros(len(src), dtype=int)]  # no j-th position: one branch
            support[level] = probs[first[src[level]] + j]
            parent, value = np.nonzero(support > 0)
            # in selection order, then times mass below: masses stay bit-stable
            path = path[parent] * support[parent, value]
            src, tokens, level = src[parent], tokens[parent], level[parent]
            tokens[np.flatnonzero(level), order[src[level], j]] = value[level] + 1
        rows.tokens, rows.mass = tokens, rows.mass[src] * path
        rows.block, rows.steps, rows.forwards = rows.block[src], rows.steps[src], rows.forwards[src]
        if rows.history is not None:
            rows.history = rows.history.take(src)
    return rows.tokens, rows.mass, rows.forwards
