"""The generation loop: selection policies, block partitioning, traces.

A denoiser has a ``vocab`` attribute and one call: ``denoiser.batch(states)``
takes a ``core.StateBatch`` of n same-length rows and returns one
``DenoiserOutput`` whose arrays carry a leading row axis, in row order (the
transformer runs one batched forward over its distinct rows, the oracle
computes every row of the call together). A row's output must not depend
on the other rows of the call. For the oracle_dep scorer, the exact
backend also has ``dependency_scores(masked)``: it takes the rows' (n, L)
mask and returns their (n, L) scores. A step makes one forward evaluation
per sequence, and both the scores and the committed predictions come from
that same evaluation, so the trace's NFE equals the number of forward
evaluations exactly: one per sequence per step, whatever a denoiser shares
among equal rows (the transformer's one forward per distinct row).

The step rule (block order and budgets, candidates, KLASS history, scoring
and selection) lives in one step loop, the private generator ``_lockstep``,
which holds the sequences as arrays (an (N, L) token array and (N,) arrays
of block, steps in block and forwards) and scores and selects each
chunk of rows with whole-array calls. ``core.token_rows`` checks the
prompts once; from there on no ``SequenceState`` is built. The sampler
``decode_blockwise`` draws one continuation per sequence and records each
position's step and score; the enumerator ``enumerate_decodes`` replaces
each sequence by all of its continuations, each with its probability, and
hands the harness its outcomes as arrays, from which the harness computes
exact induced distributions. Both take each row's selected positions from
``np.nonzero`` of the step's selected mask, the row-major order in which
the step yields their probabilities. The table ``SELECTION`` is where each
selector declares the vector it reads, the fields it reads and its rule.

Stochastic remasking runs only under top-k, so under every other selector a
position is masked from a sequence's first step until it is committed. KLASS
relies on this: a masked position's history is its slice of its sequence's
(see ``_Rows``), and enumeration branches inherit their parent's.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .core import DenoiserOutput, StateBatch, number_fields, reverse_unmask_prob, token_rows
from . import scoring


@dataclass(frozen=True)
class PolicyConfig:
    """One decoding policy: how to rank masked positions and which to commit.

    ``steps`` is the top-k budget T (0 means one token per step). The other
    selectors' fields default to the standard settings: threshold eps=0.95,
    KLASS tau=0.9, eps_kl=0.01 and n_history=2, EB gamma=0.01.

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
        number_fields(self, int, ("steps", "block_size", "layer", "n_history"))
        number_fields(self, float, ("eps", "tau", "eps_kl", "gamma"))
        if self.dep_eb_prefilter is not None:
            number_fields(self, float, ("dep_eb_prefilter",))
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
        reads = SELECTION[self.selector].fields
        if self.dep_eb_prefilter is not None and "dep_eb_prefilter" not in reads:
            raise ValueError(f"dep_eb_prefilter must be None under selector {self.selector!r}")
        if self.steps < 0 or self.block_size < 0 or self.layer < 0:
            raise ValueError("steps, block_size, and layer must be >= 0")
        if self.stochastic_remask and "stochastic_remask" not in reads:
            raise ValueError("stochastic_remask requires the step-scheduled topk selector")

    def policy_id(self) -> str:
        """A distinct name per policy; all-default tuning parameters add nothing."""
        parts = [self.scorer, self.selector]
        if "steps" in SELECTION[self.selector].fields or self.steps:
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


@dataclass
class TraceStep:
    step: int
    positions: list[int]
    tokens: list[int]
    scores: list[float]
    nfe: int


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
        order = np.argsort(self.step_of, kind="stable")  # by step, then ascending position
        bounds = np.searchsorted(self.step_of[order], np.arange(self.nfe + 1)).tolist()
        at, tokens, scores = (x.tolist() for x in (order, self.tokens[order], self.scores[order]))
        return [TraceStep(s, at[a:b], tokens[a:b], scores[a:b], s + 1)
                for s, (a, b) in enumerate(zip(bounds, bounds[1:]))]

    def committed_positions(self) -> list[int]:
        return [p for s in self.steps for p in s.positions]

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(asdict(s)) for s in self.steps) + "\n"

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())


class History:
    """Empty: the KLASS state lives in the step loop's arrays (see ``_Rows``)."""

    def copy(self) -> "History":
        # kept while bench/tracer.py traces it
        return self


# ---------------------------------------------------------------------------
# selection primitives over (n, L) chunks: each takes per-row candidate masks
# and returns an (n, L) selected mask; all ties break toward the lowest
# position index. ``select_eb`` also takes one row as a 1-D vector with a
# position list and gives its selected positions as a sorted tuple.
# ---------------------------------------------------------------------------

def _ranked(scores: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Each row's positions: its candidates by descending score, then the rest."""
    return np.argsort(np.where(candidates, -scores, np.nan), axis=1, kind="stable")


def _flat(order: np.ndarray) -> np.ndarray:
    """Each row's ``order`` as indices into the flattened (n, L) chunk."""
    return order + np.arange(0, order.size, order.shape[1])[:, None]


def _prefix(order: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The mask of the first ``counts[r]`` positions of each row's ``order``."""
    selected = np.zeros(order.shape, dtype=bool)
    selected.ravel()[_flat(order)] = np.arange(order.shape[1]) < counts[:, None]
    return selected


def _or_best(chosen: np.ndarray, conf: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """``chosen``, where a row with no chosen position takes its most confident candidate."""
    empty = np.flatnonzero(~chosen.any(axis=1))
    if len(empty):
        best = np.where(candidates[empty], conf[empty], -np.inf).argmax(axis=1)
        chosen[empty, best] = True
    return chosen


def select_topk(scores: np.ndarray, candidates: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The min(k, #candidates) highest-scoring candidates, with k per row."""
    count = candidates.sum(axis=1)
    if (k < 1).any() or not count.all():
        raise ValueError("k must be >= 1 and every row needs a masked position")
    return _prefix(_ranked(scores, candidates), np.minimum(k, count))


def select_threshold(conf: np.ndarray, candidates: np.ndarray, eps: float) -> np.ndarray:
    """Candidates with confidence > eps; a row with none takes its single best one."""
    return _or_best(candidates & (conf > eps), conf, candidates)


def select_klass(
    stable: np.ndarray, conf: np.ndarray, candidates: np.ndarray, tau: float
) -> np.ndarray:
    """Stable candidates with confidence above tau.

    ``stable`` marks the positions whose last n consecutive KLs are below
    eps_kl; a row with no stable candidate above tau falls back to its
    argmax-confidence singleton.
    """
    return _or_best(candidates & (conf > tau) & stable, conf, candidates)


def select_eb(
    ranking: np.ndarray, entropies: np.ndarray, candidates, gamma: float
) -> np.ndarray | tuple[int, ...]:
    """Longest ranked prefix whose entropy sum minus prefix-max entropy is <= gamma.

    A prefix of size 1 always qualifies; a longer one ends before the first
    position at which the running sum minus the running max exceeds gamma
    (a value that never decreases as the prefix grows).
    """
    if np.ndim(ranking) == 1:
        mask = np.zeros((1, len(ranking)), dtype=bool)
        mask[0, list(candidates)] = True
        selected = select_eb(np.asarray(ranking)[None], np.asarray(entropies)[None], mask, gamma)
        return tuple(np.flatnonzero(selected[0]).tolist())
    order = _ranked(ranking, candidates)
    ent = np.take(entropies, _flat(order))
    # the running max starts at 0; fmax skips the NaN of non-candidates, all past ``count``
    top = np.fmax.accumulate(np.maximum(ent, 0.0), axis=1)
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
    ``masked`` their (n, L) mask. Every scorer ranks the rows in one call.
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
        return dep(masked)
    raise ValueError(f"unknown scorer {policy.scorer!r}")


def _eb(policy: PolicyConfig, ranking, vector, candidates, steps_left, stable) -> np.ndarray:
    """EB's rule, over the candidates ranked above ``dep_eb_prefilter`` where a row has any."""
    floor = policy.dep_eb_prefilter
    kept = candidates if floor is None else candidates & (ranking > floor)
    pool = np.where(kept.any(axis=1, keepdims=True), kept, candidates)
    return select_eb(ranking, vector, pool, policy.gamma)


class Selector(NamedTuple):
    vector: str | None  # the ``scoring`` vector read besides the ranking, by name
    fields: tuple[str, ...]  # the ``PolicyConfig`` fields the rule reads
    rule: Callable[..., np.ndarray]  # takes ``plan_step``'s arguments


# One entry per selector. The rules reach the ``select_*`` functions, and ``_lockstep``
# the vectors, by module attribute at call time, so a wrapper put on one sees every call.
SELECTION = {
    "topk": Selector(None, ("steps", "stochastic_remask"), lambda p, rank, vec, cand, left, _:
                     select_topk(rank, cand, -(-cand.sum(axis=1) // left))),
    "threshold": Selector("confidence_vector", ("eps",), lambda p, rank, vec, cand, left, _:
                          select_threshold(vec, cand, p.eps)),
    "klass": Selector("confidence_vector", ("tau", "eps_kl", "n_history"),
                      lambda p, rank, vec, cand, left, stable:
                      select_klass(stable, vec, cand, p.tau)),
    "eb": Selector("entropy_vector", ("gamma", "dep_eb_prefilter"), _eb),
}
SELECTORS = tuple(SELECTION)
# The fields ``policy_id`` names only off their default: all selectors' but ``steps`` (T).
_TUNING = {name for entry in SELECTION.values() for name in entry.fields} - {"steps"}


def plan_step(
    policy: PolicyConfig, ranking: np.ndarray, vector: np.ndarray | None,
    candidates: np.ndarray, steps_left: np.ndarray, stable: np.ndarray | None,
) -> np.ndarray:
    """The (n, L) mask of the positions n rows commit at a step (no commitment).

    ``ranking`` holds the rows' ScoreVectors, ``vector`` their rows of the
    vector the selector's ``SELECTION`` entry names, ``candidates`` the
    masked positions of each row's active block, ``steps_left`` each row's
    remaining budget (>= 1), and ``stable`` the (n, L) KLASS stability mask.
    """
    return SELECTION[policy.selector].rule(policy, ranking, vector, candidates, steps_left, stable)


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
    block (the block count once unmasked), ``steps`` the steps taken in it.
    KLASS (else None) keeps ``last``, each row's last (L, V) output, and
    ``calm``, per position the count of consecutive outputs, ending with the
    last, whose KL from the one before is below eps_kl: stable at >= n."""

    tokens: np.ndarray
    block: np.ndarray
    steps: np.ndarray
    forwards: np.ndarray
    last: np.ndarray | None
    calm: np.ndarray | None


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
    last = calm = None
    if "n_history" in SELECTION[policy.selector].fields:
        last, calm = np.zeros(tokens.shape + (denoiser.vocab.size,)), np.zeros(tokens.shape, int)
    return block_of, budgets, _Rows(tokens, block, steps, forwards, last, calm)


def _lockstep(
    denoiser, policy: PolicyConfig, block_of: np.ndarray, budgets: np.ndarray, rows: _Rows
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The step loop: plan the next step of every row of ``rows``, step by step.

    A step moves each row to its first block with a masked position
    (entering a block restarts its step count) and denoises the unfinished
    rows in ``denoiser.batch`` calls of at most ``FORWARD_ROWS`` rows, each
    a slice of their token array. Each chunk is scored and selected as the
    selector declares its vector, fields and rule in its ``SELECTION`` entry:
    one call of its vector, one KL of the output from the rows' last (KLASS
    only, see ``_Rows``), and one ``plan_step`` call over the masked positions
    of each row's block under its remaining budget. A chunk whose
    probabilities are not all finite raises ``ValueError``, naming its first
    such row, before it is scored. Yields ``(selected, probs, scores)`` per
    step: the (N, L) mask each row commits, and the probability rows and
    rankings of the selected positions in row-major order, the order of
    ``np.nonzero(selected)``. The caller commits into (or replaces) the
    arrays of ``rows`` before resuming.
    """
    vocab, vector_name = denoiser.vocab, SELECTION[policy.selector].vector
    while True:
        masked = rows.tokens == vocab.mask_id
        block = np.where(masked, block_of, len(budgets)).min(axis=1)
        rows.steps = np.where(block == rows.block, rows.steps, 0)
        rows.block = block
        running = block < len(budgets)
        active = np.flatnonzero(running)
        if not len(active):
            return
        tokens, block, masked = rows.tokens[active], block[active], masked[active]
        candidates = masked & (block_of == block[:, None])
        steps_left = np.maximum(1, budgets[block] - rows.steps[active])
        selected = np.zeros(rows.tokens.shape, dtype=bool)
        chosen_probs, chosen_scores = [], []
        for lo in range(0, len(active), FORWARD_ROWS):
            part, ids = slice(lo, lo + FORWARD_ROWS), active[lo : lo + FORWARD_ROWS]
            out = denoiser.batch(StateBatch(vocab, tokens[part]))
            if not np.isfinite(out.probs).all():
                bad = ids[np.flatnonzero(~np.isfinite(out.probs).all(axis=(1, 2)))[0]]
                raise ValueError(f"the denoiser gave non-finite probabilities for row {bad}, "
                                 f"tokens {rows.tokens[bad].tolist()}")
            ranking = compute_ranking(policy, out, masked[part], denoiser)
            vector = vector_name and getattr(scoring, vector_name)(out.probs, masked[part])
            stable = None
            if rows.last is not None:  # a row's first output follows none
                still = scoring.kl_divergence(rows.last[ids], out.probs) < policy.eps_kl
                rows.calm[ids] = (rows.calm[ids] + 1) * (still & (rows.forwards[ids, None] > 0))
                rows.last[ids] = out.probs
                stable = rows.calm[ids] >= policy.n_history
            chosen = plan_step(policy, ranking, vector, candidates[part], steps_left[part], stable)
            selected[ids] = chosen
            chosen_probs.append(out.probs[chosen])
            chosen_scores.append(ranking[chosen])
            del out  # the next forward runs without this one
        rows.steps += running
        rows.forwards += running  # one forward evaluation per step
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
    prompt, each prompt's depth-first in token order. A malformed prompt
    raises ``ValueError`` before any denoiser call (see ``_start``).

    Given distinct prompts, every token row the walk hands its denoiser is
    distinct across the whole walk, and so is every outcome: each step
    commits at least one position, and the branches of a row all commit
    the same selected set, each with other values. So a denoiser that
    computes every row it is handed, as ``OracleDenoiser`` does, computes
    no row twice in a walk.
    """
    if policy.stochastic_remask:
        raise ValueError("stochastic remasking has no exact mode")
    block_of, budgets, rows = _start(denoiser, policy, [prompt for prompt, _ in prompts], gen_len)
    mass = np.array([m for _, m in prompts], dtype=float)
    values = np.arange(denoiser.vocab.size)
    lone = (values == 0)[None]  # the one branch of a row with no j-th position
    for selected, probs, _ in _lockstep(denoiser, policy, block_of, budgets, rows):
        if policy.temperature == "greedy":  # one branch of probability 1
            probs = probs.argmax(axis=1)[:, None] == values
        support, at = np.concatenate([probs, lone], dtype=float), np.nonzero(selected)[1]
        count = selected.sum(axis=1)
        first = np.cumsum(count) - count  # each row's first entry in probs and at
        src, path, tokens = np.arange(len(count)), np.ones(len(count)), rows.tokens
        for j in range(count.max()):
            entry = np.where(count[src] > j, first[src] + j, len(at))
            parent, value = np.nonzero(support[entry] > 0)
            # in selection order, then times mass below: masses stay bit-stable
            path = path[parent] * support[entry[parent], value]
            src, tokens, entry = src[parent], tokens[parent], entry[parent]
            level = np.flatnonzero(entry < len(at))
            tokens[level, at[entry[level]]] = value[level] + 1
        rows.tokens, mass = tokens, mass[src] * path
        rows.block, rows.steps, rows.forwards = rows.block[src], rows.steps[src], rows.forwards[src]
        if rows.last is not None:
            rows.last, rows.calm = rows.last[src], rows.calm[src]
    return rows.tokens, mass, rows.forwards
