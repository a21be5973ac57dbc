"""The generation loop: selection policies, block partitioning, traces.

A denoiser has a ``vocab`` attribute and two calls. ``denoiser(state)``
returns the ``DenoiserOutput`` of one state; ``denoiser.batch(states)``
returns the outputs of a list of same-length states, in order, each equal
to what the one-state call returns for it (the transformer runs the list as
one batched forward, the oracle answers each state from its cache). The
exact backend additionally exposes ``dependency_scores(state)`` for the
oracle_dep scorer. A step makes one forward evaluation per sequence, and
both the scores and the committed predictions come from that same
evaluation, so the trace's NFE equals the number of forward evaluations
exactly.

The step rule (block order and budgets, candidates, KLASS history, scoring
and selection) lives in two private functions: ``_next_block`` skips
finished blocks before the forward, ``_step`` plans from its output. The
sampler ``decode_blockwise`` advances many prompts in lockstep, with one
batch call and one token draw per step for all unfinished sequences; the
enumerator ``enumerate_decodes`` follows every branch of one prompt with
its probability, calling the denoiser one state at a time, which is how
the harness computes exact induced distributions.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import DenoiserOutput, SequenceState, make_masked_state, reverse_unmask_prob
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
        if self.eps_kl <= 0.0:
            raise ValueError("eps_kl must be > 0")
        if self.n_history < 1:
            raise ValueError("n_history must be >= 1")
        if self.gamma < 0.0:
            raise ValueError("gamma must be >= 0")
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
    """Rolling record of the last n+1 predictive distributions per position."""

    def __init__(self, n: int):
        self.n = n
        self._dists: dict[int, list[np.ndarray]] = {}

    def record(self, position: int, dist: np.ndarray) -> None:
        lst = self._dists.setdefault(position, [])
        lst.append(np.array(dist, dtype=float))
        if len(lst) > self.n + 1:
            del lst[0]

    def clear(self, positions: Iterable[int]) -> None:
        for i in positions:
            self._dists.pop(i, None)

    def stable(self, position: int, eps_kl: float) -> bool:
        """True iff n+1 records exist and all n consecutive KLs are < eps_kl."""
        lst = self._dists.get(position, [])
        if len(lst) < self.n + 1:
            return False
        return all(
            scoring.kl_divergence(lst[k], lst[k + 1]) < eps_kl
            for k in range(self.n)
        )

    def copy(self) -> "History":
        h = History(self.n)
        h._dists = {k: [d.copy() for d in v] for k, v in self._dists.items()}
        return h


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
    policy: PolicyConfig,
    out: DenoiserOutput,
    state: SequenceState,
    denoiser,
) -> np.ndarray:
    """ScoreVector for the policy's scorer over the currently masked positions."""
    masked = state.masked_positions()
    L = len(state)
    if policy.scorer in scoring.UNCERTAINTY_SCORERS:
        return scoring.uncertainty_scores(policy.scorer, out.probs, masked, L)
    if policy.scorer == "dos":
        if out.attentions is None:
            raise ValueError("the dos scorer needs a denoiser that returns attentions")
        return scoring.dos_dependency(
            out.attentions, policy.layer, masked, state.unmasked_positions(), L
        )
    if policy.scorer == "oracle_dep":
        dep = getattr(denoiser, "dependency_scores", None)
        if dep is None:
            raise ValueError("the oracle_dep scorer needs an exact denoiser")
        return dep(state)
    raise ValueError(f"unknown scorer {policy.scorer!r}")


def plan_step(
    policy: PolicyConfig,
    out: DenoiserOutput,
    state: SequenceState,
    denoiser,
    candidates: Sequence[int],
    steps_left: int,
    history: History,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Scores and the selected position subset for one step (no commitment)."""
    L = len(state)
    ranking = compute_ranking(policy, out, state, denoiser)
    if policy.selector == "topk":
        k = math.ceil(len(candidates) / max(1, steps_left))
        selected = select_topk(ranking, candidates, k)
    elif policy.selector == "threshold":
        conf = scoring.confidence_vector(out.probs, state.masked_positions(), L)
        selected = select_threshold(conf, candidates, policy.eps)
    elif policy.selector == "klass":
        conf = scoring.confidence_vector(out.probs, state.masked_positions(), L)
        selected = select_klass(history, conf, candidates, policy.tau, policy.eps_kl)
    elif policy.selector == "eb":
        ents = scoring.entropy_vector(out.probs, state.masked_positions(), L)
        pool = candidates
        if policy.dep_eb_prefilter is not None:
            kept = [i for i in candidates if ranking[i] > policy.dep_eb_prefilter]
            pool = kept or candidates
        selected = select_eb(ranking, ents, pool, policy.gamma)
    else:
        raise ValueError(f"unknown selector {policy.selector!r}")
    return ranking, selected


# ---------------------------------------------------------------------------
# the step rule, shared by the sampler and the exact enumerator
# ---------------------------------------------------------------------------

def _block_plan(
    policy: PolicyConfig, prompt_len: int, gen_len: int
) -> list[tuple[list[int], int]]:
    """Left-to-right blocks with their step budgets (see ``PolicyConfig``)."""
    positions = list(range(prompt_len, prompt_len + gen_len))
    size = policy.block_size if 0 < policy.block_size < gen_len else gen_len
    total_steps = policy.steps if policy.steps else gen_len
    return [
        (block, max(1, round(total_steps * len(block) / gen_len)))
        for block in (positions[i : i + size] for i in range(0, gen_len, size))
    ]


def _next_block(
    blocks: list[tuple[list[int], int]],
    state: SequenceState,
    block: int,
    steps_in_block: int,
) -> tuple[int, int] | None:
    """The ``(block, steps_in_block)`` of the next step; None once all is unmasked.

    Finished blocks are skipped here, before the forward call, and entering
    a block restarts its step count.
    """
    while block < len(blocks) and not any(map(state.is_masked, blocks[block][0])):
        block += 1
        steps_in_block = 0
    return None if block == len(blocks) else (block, steps_in_block)


def _step(
    out: DenoiserOutput,
    denoiser,
    policy: PolicyConfig,
    blocks: list[tuple[list[int], int]],
    state: SequenceState,
    history: History,
    block: int,
    steps_in_block: int,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Plan the step of ``state`` in ``block`` from its forward output ``out``.

    The step rule after ``_next_block``, shared by the sampler and the
    enumerator: KLASS records the predictive distribution of every masked
    position, and the policy selects among the active block's masked
    positions under its remaining budget. Returns ``(ranking, selected)``.
    """
    if policy.selector == "klass":
        for i in state.masked_positions():
            history.record(i, out.probs[i])
    positions, budget = blocks[block]
    candidates = tuple(i for i in positions if state.is_masked(i))
    steps_left = max(1, budget - steps_in_block)
    return plan_step(policy, out, state, denoiser, candidates, steps_left, history)


def _commit(state: SequenceState, history: History, updates: dict[int, int]):
    """The state after ``updates``; KLASS forgets the committed positions."""
    history.clear(updates)
    return state.with_tokens(updates) if updates else state


@dataclass
class _Row:
    """One sequence of a lockstep decode and where it is in the block plan."""

    state: SequenceState
    history: History
    trace: DecodeTrace = field(default_factory=DecodeTrace)
    block: int = 0
    steps_in_block: int = 0


def _unfinished(rows: list[_Row], blocks: list[tuple[list[int], int]]) -> list[_Row]:
    """The rows with a masked position left, each moved past finished blocks."""
    left = []
    for row in rows:
        at = _next_block(blocks, row.state, row.block, row.steps_in_block)
        if at is not None:
            row.block, row.steps_in_block = at
            left.append(row)
    return left


def decode_blockwise(
    denoiser,
    policy: PolicyConfig,
    prompts: Sequence[Sequence[int]],
    gen_len: int,
    rng: np.random.Generator,
) -> list[tuple[SequenceState, DecodeTrace]]:
    """Generate from every prompt in lockstep; ``(final state, trace)`` per prompt.

    Each step runs one ``denoiser.batch`` call over the sequences that still
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
    lengths = {len(p) for p in prompts}
    if len(lengths) != 1:
        raise ValueError("decode_blockwise needs one or more prompts of one length")
    blocks = _block_plan(policy, lengths.pop(), gen_len)
    rows = [
        _Row(make_masked_state(denoiser.vocab, p, gen_len), History(policy.n_history))
        for p in prompts
    ]
    active = rows
    while active := _unfinished(active, blocks):
        outs = denoiser.batch([row.state for row in active])
        plans = [
            _step(out, denoiser, policy, blocks, row.state, row.history,
                  row.block, row.steps_in_block)
            for row, out in zip(active, outs)
        ]
        committed = [selected for _, selected in plans]
        if policy.stochastic_remask:
            for k, row in enumerate(active):
                budget = blocks[row.block][1]
                t = max(1.0 - row.steps_in_block / budget, 1.0 / budget)
                s = max(1.0 - (row.steps_in_block + 1) / budget, 0.0)
                p_reveal = reverse_unmask_prob(t, s) if s < t else 1.0
                committed[k] = tuple(i for i in committed[k] if rng.random() < p_reveal)
        probs = np.concatenate(
            [out.probs[list(sel)] for out, sel in zip(outs, committed)]
        )
        tokens = iter(commit_token(probs, policy.temperature, rng).tolist())
        for row, (ranking, _), sel in zip(active, plans, committed):
            toks = [next(tokens) for _ in sel]
            trace = row.trace
            trace.steps.append(
                TraceStep(
                    step=len(trace.steps),
                    positions=list(sel),
                    tokens=toks,
                    scores=[float(ranking[i]) for i in sel],
                    nfe=len(trace.steps) + 1,  # one forward evaluation per step
                )
            )
            row.state = _commit(row.state, row.history, dict(zip(sel, toks)))
            row.steps_in_block += 1
    return [(row.state, row.trace) for row in rows]


def enumerate_decodes(
    denoiser,
    policy: PolicyConfig,
    prompt: Sequence[int],
    gen_len: int,
    mass: float = 1.0,
) -> Iterator[tuple[tuple[int, ...], float, int]]:
    """Every outcome of a one-prompt decode, as ``(tokens, mass, forwards)``.

    Runs the sampler's step rule, one state per denoiser call, but instead
    of drawing the committed tokens, follows every value combination of the
    selected set with its product probability times ``mass`` (greedy
    temperature follows the single argmax branch). Outcomes come depth-first,
    in token order within a step; a sequence reached along several paths is
    yielded once per path.
    """
    if policy.stochastic_remask:
        raise ValueError("stochastic remasking has no exact mode")
    blocks = _block_plan(policy, len(prompt), gen_len)
    state = make_masked_state(denoiser.vocab, prompt, gen_len)
    stack = [(state, History(policy.n_history), 0, 0, 0, mass)]
    while stack:
        state, history, block, steps_in_block, forwards, mass = stack.pop()
        at = _next_block(blocks, state, block, steps_in_block)
        if at is None:
            yield state.tokens, mass, forwards
            continue
        block, steps_in_block = at
        out = denoiser(state)
        _, selected = _step(
            out, denoiser, policy, blocks, state, history, block, steps_in_block
        )
        if policy.temperature == "greedy":
            supports = [[(int(np.argmax(out.probs[i])) + 1, 1.0)] for i in selected]
        else:
            supports = [
                [(v + 1, float(p)) for v, p in enumerate(out.probs[i]) if p > 0]
                for i in selected
            ]
        combos = list(itertools.product(*supports))
        children = []
        for k, combo in enumerate(combos):
            # each KLASS branch needs its own history; the last takes the parent's
            h = history
            if policy.selector == "klass" and k < len(combos) - 1:
                h = history.copy()
            p = 1.0  # in selection order, then times mass: masses stay bit-stable
            for _, pv in combo:
                p *= pv
            child = _commit(state, h, dict(zip(selected, [tok for tok, _ in combo])))
            node = (child, h, block, steps_in_block + 1, forwards + 1, mass * p)
            children.append(node)
        stack.extend(reversed(children))  # depth-first, first branch first
