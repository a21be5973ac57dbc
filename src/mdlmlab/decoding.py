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
and selection) lives in one step loop, the private generator ``_lockstep``:
per step it makes the denoiser calls for every unfinished sequence and
yields their plans. Inside the loop a sequence is a plain token tuple;
``SequenceState`` validates only what enters (the prompts) and what the
sampler returns. The sampler ``decode_blockwise`` draws one continuation
per sequence, with one token draw per step; the enumerator
``enumerate_decodes`` replaces each sequence by all of its continuations,
each with its probability, which is how the harness computes exact induced
distributions.

Stochastic remasking runs only under top-k, so under every other selector a
position is masked from a sequence's first step until it is committed. KLASS
relies on this: its ``History`` is the sequence's last n+1 whole outputs, a
masked position's own record is its slice of them, and enumeration branches
share their parent's history instead of copying it.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Iterator, Sequence

import numpy as np

from .core import (
    DenoiserOutput, SequenceState, StateBatch, make_masked_state, reverse_unmask_prob,
)
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


@dataclass
class DecodeTrace:
    """Per-step record of committed positions plus cumulative forward count."""

    steps: list[TraceStep] = field(default_factory=list)

    @property
    def nfe(self) -> int:
        return self.steps[-1].nfe if self.steps else 0

    def committed_positions(self) -> list[int]:
        return [p for s in self.steps for p in s.positions]

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(s.to_record()) for s in self.steps) + "\n"

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())


class History:
    """A row's last n+1 (L, V) outputs, oldest first; an immutable value.

    A KLASS position is masked from the row's first step until committed, so
    its own record is exactly its slice of these outputs.
    """

    def __init__(self, n: int, outputs: tuple[np.ndarray, ...] = ()):
        self.n = n
        self.outputs = outputs

    def record(self, probs: np.ndarray) -> "History":
        """A new history ending with ``probs``; the receiver is unchanged."""
        return History(self.n, (self.outputs + (probs,))[-(self.n + 1):])

    def stable(self, position: int, eps_kl: float) -> bool:
        """True iff n+1 records exist and all n consecutive KLs are < eps_kl."""
        if len(self.outputs) < self.n + 1:
            return False
        return all(
            scoring.kl_divergence(a[position], b[position]) < eps_kl
            for a, b in zip(self.outputs, self.outputs[1:])
        )

    def copy(self) -> "History":
        # an immutable value needs no copy; kept while bench/tracer.py traces it
        return self


# ---------------------------------------------------------------------------
# selection primitives (all ties break toward the lowest position index)
# ---------------------------------------------------------------------------

def _ranked(scores: np.ndarray, candidates: Sequence[int]) -> list[int]:
    return sorted(candidates, key=lambda i: (-scores[i], i))


def select_topk(scores: np.ndarray, candidates: Sequence[int], k: int) -> tuple[int, ...]:
    """The min(k, #candidates) highest-scoring positions."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not candidates:
        raise ValueError("no masked positions to select from")
    return tuple(sorted(_ranked(scores, candidates)[:k]))


def select_threshold(conf: np.ndarray, candidates: Sequence[int], eps: float) -> tuple[int, ...]:
    """Positions with confidence > eps; falls back to the single best one."""
    chosen = [i for i in sorted(candidates) if conf[i] > eps]
    if not chosen:
        chosen = _ranked(conf, candidates)[:1]
    return tuple(sorted(chosen))


def select_klass(
    history: History,
    conf: np.ndarray,
    candidates: Sequence[int],
    tau: float,
    eps_kl: float,
) -> tuple[int, ...]:
    """Stable positions: n consecutive KLs below eps_kl and confidence above tau.

    Positions with fewer than n+1 recorded distributions are ineligible; an
    empty result falls back to the argmax-confidence singleton.
    """
    chosen = [
        i
        for i in sorted(candidates)
        if conf[i] > tau and history.stable(i, eps_kl)
    ]
    if not chosen:
        chosen = _ranked(conf, candidates)[:1]
    return tuple(sorted(chosen))


def select_eb(
    ranking: np.ndarray,
    entropies: np.ndarray,
    candidates: Sequence[int],
    gamma: float,
) -> tuple[int, ...]:
    """Longest ranked prefix whose entropy sum minus prefix-max entropy is <= gamma.

    The constraint value never decreases as the prefix grows, so the scan
    stops at the first violation; a prefix of size 1 always qualifies.
    """
    order = _ranked(ranking, candidates)
    chosen: list[int] = []
    ent_sum = 0.0
    ent_max = 0.0
    for i in order:
        e = float(entropies[i])
        if chosen and (ent_sum + e) - max(ent_max, e) > gamma:
            break
        chosen.append(i)
        ent_sum += e
        ent_max = max(ent_max, e)
    return tuple(sorted(chosen))


def commit_token(
    probs: np.ndarray, temperature: str, rng: np.random.Generator
) -> np.ndarray:
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
# scoring and selection for one step
# ---------------------------------------------------------------------------

def compute_ranking(
    policy: PolicyConfig, out: DenoiserOutput, masked: np.ndarray, denoiser
) -> np.ndarray:
    """The policy's (n, L) ScoreVectors of n rows, NaN off the masked positions.

    ``out`` is the rows' ``denoiser.batch`` output ((n, L, V) probs) and
    ``masked`` their (n, L) mask. Uncertainty scorers rank every row in one
    call; dos and oracle_dep rank row by row, from each row's mask.
    """
    if policy.scorer in scoring.UNCERTAINTY_SCORERS:
        return scoring.uncertainty_scores(policy.scorer, out.probs, masked)
    if policy.scorer == "dos":
        if out.attentions is None:
            raise ValueError("the dos scorer needs a denoiser that returns attentions")
        L = masked.shape[1]
        return np.array([
            scoring.dos_dependency(
                [a[j] for a in out.attentions], policy.layer,
                np.flatnonzero(row), np.flatnonzero(~row), L,
            )
            for j, row in enumerate(masked)
        ])
    if policy.scorer == "oracle_dep":
        dep = getattr(denoiser, "dependency_scores", None)
        if dep is None:
            raise ValueError("the oracle_dep scorer needs an exact denoiser")
        return np.array([dep(row) for row in masked.tolist()])
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
    policy: PolicyConfig,
    ranking: np.ndarray,
    vector: np.ndarray | None,
    candidates: Sequence[int],
    steps_left: int,
    history: History,
) -> tuple[int, ...]:
    """The position subset one row commits at a step (no commitment).

    ``ranking`` is the row's ScoreVector and ``vector`` its row of
    ``selector_vectors``.
    """
    if policy.selector == "topk":
        k = math.ceil(len(candidates) / max(1, steps_left))
        return select_topk(ranking, candidates, k)
    if policy.selector == "threshold":
        return select_threshold(vector, candidates, policy.eps)
    if policy.selector == "klass":
        return select_klass(history, vector, candidates, policy.tau, policy.eps_kl)
    if policy.selector == "eb":
        pool = candidates
        if policy.dep_eb_prefilter is not None:
            kept = [i for i in candidates if ranking[i] > policy.dep_eb_prefilter]
            pool = kept or candidates
        return select_eb(ranking, vector, pool, policy.gamma)
    raise ValueError(f"unknown selector {policy.selector!r}")


# ---------------------------------------------------------------------------
# the step loop, shared by the sampler and the exact enumerator
# ---------------------------------------------------------------------------

# Rows per denoiser call. A step denoises its rows chunk by chunk and a row
# keeps only what it commits from, so a 10000-sample evaluation or a wide
# enumeration level holds one chunk's outputs (and attention maps) at a time.
FORWARD_ROWS = 256


def _commit(tokens: tuple[int, ...], updates: dict[int, int]) -> tuple[int, ...]:
    """The tokens after ``updates``.

    The step loop only writes content tokens into masked positions, so the
    result needs no validation.
    """
    if not updates:
        return tokens
    out = list(tokens)
    for pos, tok in updates.items():
        out[pos] = tok
    return tuple(out)


@dataclass
class _Row:
    """One sequence of the step loop; ``mass`` is its path's probability when enumerated."""

    tokens: tuple[int, ...]
    history: History
    block: int = 0
    steps_in_block: int = 0
    forwards: int = 0
    mass: float = 1.0


def _start(
    denoiser, policy: PolicyConfig, prompts: Sequence[Sequence[int]], gen_len: int
) -> tuple[list[tuple[range, int]], list[_Row]]:
    """Left-to-right blocks with their step budgets (see ``PolicyConfig``),
    and one fresh row per prompt.

    Each prompt is validated as a ``SequenceState`` here, before any
    denoiser call: ragged lengths, and a token outside 1..V (the mask id
    included), raise ``ValueError``.
    """
    lengths = {len(p) for p in prompts}
    if len(lengths) != 1:
        raise ValueError("a decode needs one or more prompts of one length")
    prompt_len = lengths.pop()
    positions = range(prompt_len, prompt_len + gen_len)
    size = policy.block_size if 0 < policy.block_size < gen_len else gen_len
    total_steps = policy.steps if policy.steps else gen_len
    blocks = [
        (block, max(1, round(total_steps * len(block) / gen_len)))
        for block in (positions[i : i + size] for i in range(0, gen_len, size))
    ]
    rows = [
        _Row(make_masked_state(denoiser.vocab, p, gen_len).tokens, History(policy.n_history))
        for p in prompts
    ]
    return blocks, rows


def _lockstep(
    denoiser, policy: PolicyConfig, blocks: list[tuple[range, int]], rows: list[_Row]
) -> Iterator[list]:
    """The step loop: plan the next step of every row of ``rows``, step by step.

    A step moves each row past its finished blocks (entering a block restarts
    its step count) and denoises the unfinished rows in ``denoiser.batch``
    calls of at most ``FORWARD_ROWS`` rows, each an (n, L) ``StateBatch`` of
    the rows' token tuples. Each such chunk is scored as a whole: from its
    (n, L, V) probabilities and (n, L) mask, one call per vector gives the
    rankings and the selector's vectors. KLASS records each row's whole
    output, as a KLASS position is masked from the first step until
    committed (see the module docstring), and ``plan_step`` selects among
    the active block's masked positions under its remaining budget. Yields
    one plan per row, in order: None for a finished row, else
    ``(ranking, selected, probs)`` with the probability rows of the selected
    positions. The caller commits before resuming, in place or by replacing the
    contents of ``rows``. The loop ends when no row has a masked position.
    """
    vocab = denoiser.vocab
    mask_id = vocab.mask_id
    while True:
        todo = []
        for k, row in enumerate(rows):
            while row.block < len(blocks) and mask_id not in row.tokens[
                blocks[row.block][0].start : blocks[row.block][0].stop
            ]:
                row.block += 1
                row.steps_in_block = 0
            if row.block < len(blocks):
                todo.append(k)
        if not todo:
            return
        plans = [None] * len(rows)
        for lo in range(0, len(todo), FORWARD_ROWS):
            chunk = todo[lo : lo + FORWARD_ROWS]
            tokens = np.array([rows[k].tokens for k in chunk])
            out = denoiser.batch(StateBatch(vocab, tokens))
            probs = out.probs
            masked = tokens == mask_id
            rankings = compute_ranking(policy, out, masked, denoiser)
            vectors = selector_vectors(policy, probs, masked)
            for j, (k, row_masked) in enumerate(zip(chunk, masked.tolist())):
                row = rows[k]
                if policy.selector == "klass":
                    row.history = row.history.record(probs[j])
                positions, budget = blocks[row.block]
                candidates = tuple(i for i in positions if row_masked[i])
                steps_left = max(1, budget - row.steps_in_block)
                selected = plan_step(
                    policy, rankings[j], None if vectors is None else vectors[j],
                    candidates, steps_left, row.history,
                )
                plans[k] = (rankings[j], selected, probs[j, list(selected)])
            del out, probs  # the next forward runs without these (KLASS keeps its rows)
        yield plans


def decode_blockwise(
    denoiser,
    policy: PolicyConfig,
    prompts: Sequence[Sequence[int]],
    gen_len: int,
    rng: np.random.Generator,
) -> list[tuple[SequenceState, DecodeTrace]]:
    """Generate from every prompt in lockstep; ``(final state, trace)`` per prompt.

    A malformed prompt raises ``ValueError`` before any denoiser call (see
    ``_start``); each final state is a validated ``SequenceState``.

    Each step of the shared step loop denoises the sequences that still
    have masked positions, scores and selects per sequence, and commits
    with one ``commit_token`` call over all selected positions. A sequence
    leaves the batch once it is unmasked, so adaptive selectors (threshold,
    KLASS, EB) finish sequences at different steps. The prompts must be
    non-empty in number and share one length (an empty prompt means
    unconditional generation).

    Positions are partitioned into left-to-right blocks of
    ``policy.block_size`` (the last may be short; 0 or ``>= gen_len`` is one
    block), and selection is confined to the active block until it is
    unmasked; scoring sees the whole sequence. Every selector commits at
    least one token per forward call (unless stochastic remasking is on),
    so NFE <= gen_len.

    Per step, ``rng`` first gives the stochastic-remasking draws, sequence
    by sequence, then the token draws, sequence by sequence and in position
    order within one; a single prompt draws exactly as a one-sequence
    decoder would.
    """
    blocks, rows = _start(denoiser, policy, prompts, gen_len)
    traces = [DecodeTrace() for _ in prompts]
    for plans in _lockstep(denoiser, policy, blocks, rows):
        steps = [(row, trace, *plan) for row, trace, plan in zip(rows, traces, plans) if plan]
        if policy.stochastic_remask:
            for k, (row, trace, ranking, selected, probs) in enumerate(steps):
                budget = blocks[row.block][1]
                t = max(1.0 - row.steps_in_block / budget, 1.0 / budget)
                s = max(1.0 - (row.steps_in_block + 1) / budget, 0.0)
                p_reveal = reverse_unmask_prob(t, s) if s < t else 1.0
                keep = [rng.random() < p_reveal for _ in selected]
                kept = tuple(itertools.compress(selected, keep))
                steps[k] = (row, trace, ranking, kept, probs[keep])
        probs = np.concatenate([step[-1] for step in steps])
        tokens = iter(commit_token(probs, policy.temperature, rng).tolist())
        for row, trace, ranking, selected, _ in steps:
            toks = [next(tokens) for _ in selected]
            row.forwards += 1  # one forward evaluation per step
            trace.steps.append(TraceStep(
                step=len(trace.steps), positions=list(selected), tokens=toks,
                scores=[float(ranking[i]) for i in selected], nfe=row.forwards,
            ))
            row.tokens = _commit(row.tokens, dict(zip(selected, toks)))
            row.steps_in_block += 1
    prompt_len = len(prompts[0])
    return [
        (SequenceState(denoiser.vocab, row.tokens, prompt_len), trace)
        for row, trace in zip(rows, traces)
    ]


def enumerate_decodes(
    denoiser,
    policy: PolicyConfig,
    prompts: Sequence[tuple[Sequence[int], float]],
    gen_len: int,
) -> list[tuple[tuple[int, ...], float, int]]:
    """Every outcome of decoding the prompts, as ``(tokens, mass, forwards)``.

    ``prompts`` pairs each prompt with its mass, as ``oracle.prompt_marginal``
    returns them. Runs the sampler's step loop over all prompts at once, but
    instead of drawing the committed tokens, it replaces each unfinished
    row by every value combination of its selected set, with the row's mass
    times the combination's product probability (greedy temperature follows
    the single argmax branch). Finished rows keep their place, so outcomes
    come prompt by prompt, each prompt's depth-first in token order within a
    step; a sequence reached along several paths is listed once per path.
    A malformed prompt raises ``ValueError`` before any denoiser call (see
    ``_start``).
    """
    if policy.stochastic_remask:
        raise ValueError("stochastic remasking has no exact mode")
    blocks, rows = _start(denoiser, policy, [prompt for prompt, _ in prompts], gen_len)
    for row, (_, mass) in zip(rows, prompts):
        row.mass = mass
    for plans in _lockstep(denoiser, policy, blocks, rows):
        frontier = []
        for row, plan in zip(rows, plans):
            if plan is None:
                frontier.append(row)
                continue
            _, selected, probs = plan
            if policy.temperature == "greedy":
                supports = [[(int(np.argmax(p)) + 1, 1.0)] for p in probs]
            else:
                supports = [[(v + 1, float(pv)) for v, pv in enumerate(p) if pv > 0] for p in probs]
            for combo in itertools.product(*supports):
                p = 1.0  # in selection order, then times mass: masses stay bit-stable
                for _, pv in combo:
                    p *= pv
                tokens = _commit(row.tokens, dict(zip(selected, [tok for tok, _ in combo])))
                frontier.append(_Row(tokens, row.history, row.block, row.steps_in_block + 1,
                                     row.forwards + 1, row.mass * p))
        rows[:] = frontier
    return [(row.tokens, row.mass, row.forwards) for row in rows]
