"""Experiment orchestration: induced distributions, metrics, sweeps, CSV.

The quality metric throughout is total variation distance between the
distribution a decoding policy induces over full sequences and the known
target joint. Unless the mode is "mc", a policy without stochastic
remasking is scored exactly, whatever the denoiser: this module sums the
outcomes ``decoding.enumerate_decodes`` lists over ``oracle.prompt_marginal``.
Otherwise the distribution is estimated by Monte Carlo with
``decode_blockwise``, which decodes all samples of a policy in lockstep.
Both run the one step loop of ``decoding``, where the step rule lives.

Every distribution over sequences is an ``oracle.Distribution``: a dense
(V^L,) vector indexed like ``joint_table(model).ravel()``. The target is
the raveled table, an exact or Monte Carlo distribution one ``np.bincount``
of its sequences' codes, and TV and KL are array reductions summed with
``math.fsum``. The vector is seen through a read-only mapping from token
tuples to masses, which the metrics also accept as plain dicts.

The one enumeration limit is ``oracle.ENUM_LIMIT``, checked where
``oracle.joint_table`` builds a table; a joint past it fails at
``model_distribution`` in every mode. It also bounds enumeration: a policy
selects from the path so far, so each prompt has at most V^gen_len paths.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .core import StateBatch, Vocabulary, forward_mask, number_fields
from .decoding import (
    DecodeTrace,
    PolicyConfig,
    decode_blockwise,
    enumerate_decodes,
    select_topk,
)
from .nn import CheckpointError, TransformerDenoiser, load_checkpoint
from .oracle import (
    Distribution,
    FactorizedDAG,
    GroupSchedule,
    JointModel,
    OracleDenoiser,
    exact_policy_distribution,
    load_joint_model,
    model_distribution,
    prompt_marginal,
    sample_joint,
    sample_joints,
)
from . import scoring


# ---------------------------------------------------------------------------
# distributions and metrics
# ---------------------------------------------------------------------------

def empirical_distribution(samples, V: int) -> Distribution:
    """Normalized frequency of each sequence among ``samples``, an (n, L)
    array-like of tokens 1..V (see ``oracle.sequence_codes``)."""
    if not len(samples):
        raise ValueError("empirical_distribution needs at least one sample")
    return Distribution.of(samples, V, len(samples[0]))


def _aligned(p: Mapping, q: Mapping) -> tuple[np.ndarray, np.ndarray]:
    """The masses of ``p`` and ``q`` as two arrays over one index: the
    vectors of two ``Distribution`` views of one joint, else the union of
    their keys. Two ``Distribution``s over different (V, L), or keys of
    different lengths, raise ``ValueError``: they are not one sequence space."""
    if isinstance(p, Distribution) and isinstance(q, Distribution):
        if (p.V, p.L) != (q.V, q.L):
            raise ValueError(f"cannot compare {p.V}^{p.L} with {q.V}^{q.L} sequences")
        return p.vector, q.vector
    p, q = dict(p.items()), dict(q.items())
    keys = {**p, **q}
    if len({len(k) for k in keys}) > 1:
        raise ValueError("cannot compare sequences of different lengths")
    return np.array([p.get(k, 0.0) for k in keys]), np.array([q.get(k, 0.0) for k in keys])


def tv_distance(p: Mapping, q: Mapping) -> float:
    """(1/2) sum |p - q| over the union of supports."""
    a, b = _aligned(p, q)
    return 0.5 * math.fsum(np.abs(a - b).tolist())


def kl_target_induced(target: Mapping, induced: Mapping) -> float:
    """KL(target || induced) over the target's support, with the induced
    mass floored at 1e-12 and the result clamped at 0."""
    p, q = _aligned(target, induced)
    p, q = p[p > 0.0], q[p > 0.0]
    return max(math.fsum((p * np.log(p / np.maximum(q, 1e-12))).tolist()), 0.0)


# ---------------------------------------------------------------------------
# exact induced distribution of a full decoding policy
# ---------------------------------------------------------------------------

def exact_induced_distribution(
    model: JointModel, policy: PolicyConfig, prompt_len: int, denoiser=None
) -> tuple[Distribution, float]:
    """Exact sequence distribution produced by a decoding policy.

    ``decoding.enumerate_decodes`` follows every outcome of the decode loop
    from all prompts of the joint's marginal at once, level by level (a
    transformer runs one batched forward per level), against ``denoiser``:
    any denoiser whose vocabulary and length fit ``model``, a new
    ``OracleDenoiser(model)`` by default. Its outcome arrays become the
    distribution in one ``np.bincount`` of their codes weighted by mass,
    which adds the masses of a sequence in outcome order. Returns the
    distribution and the mean number of forward calls: each forward count
    weighted by its outcomes' mass (added in outcome order) over the total
    of those masses, so a policy whose every outcome takes f forwards reads
    exactly f.
    """
    if denoiser is None:
        denoiser = OracleDenoiser(model)
    prompts, gen_len = prompt_marginal(model, prompt_len), model.L - prompt_len
    tokens, mass, forwards = enumerate_decodes(denoiser, policy, prompts, gen_len)
    by_count = np.bincount(forwards, weights=mass)
    nfe = float(np.arange(len(by_count)) @ (by_count / by_count.sum()))
    return Distribution.of(tokens, model.vocab.size, model.L, mass), nfe


# ---------------------------------------------------------------------------
# experiment configuration and runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    joint: str  # "file PATH" | "reference SEED" | "layered SEED"
    denoiser: str = "oracle"  # "oracle" | "checkpoint PATH"
    prompt_len: int = 0
    policies: tuple[PolicyConfig, ...] = ()
    samples: int = 10000
    seed: int = 42
    out: str | None = None
    mode: str = "auto"  # auto (exact unless remasking stochastically) | exact | mc
    unconditional: bool = False

    def __post_init__(self) -> None:
        number_fields(self, int, ("samples", "prompt_len", "seed"))
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not self.policies:
            raise ValueError("an experiment needs at least one policy")
        if self.mode not in ("auto", "exact", "mc"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.prompt_len < 0:
            raise ValueError(f"prompt_len must be >= 0, got {self.prompt_len}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.prompt_len == 0 and not self.unconditional:
            raise ValueError("prompt_len=0 requires unconditional=true")


@dataclass
class MetricRow:
    """One metrics-CSV row; the field order is the column order."""

    policy_id: str
    scorer: str
    selector: str
    block_size: int
    layer: int
    tv_distance: float
    kl_divergence: float
    mean_nfe: float
    samples: int
    seed: int


METRIC_FIELDS = tuple(f.name for f in fields(MetricRow))

CSV_SCHEMA_TAG = "mdlmlab-metrics-v1"


@dataclass
class ExperimentResult:
    rows: list[MetricRow]
    failures: list[tuple[str, str]]


def resolve_joint(spec: str) -> JointModel:
    """Build the joint named by an experiment spec."""
    match spec.split():
        case ["file", path]:
            return load_joint_model(path)
        case ["reference", seed]:
            return reference_dag_model(int(seed))
        case ["layered", seed]:
            return layered_suite_model(int(seed))
    raise ValueError(f"bad joint spec {spec!r}")


def resolve_denoiser(spec: str, model: JointModel):
    """The denoiser a spec names; a checkpoint that does not fit ``model`` (its
    ``vocab_size`` is not V or its ``max_len`` is below L) raises ``CheckpointError``."""
    match spec.split():
        case ["oracle"]:
            return OracleDenoiser(model)
        case ["checkpoint", path]:
            params = load_checkpoint(path)
            V, max_len = params.config.vocab_size, params.config.max_len
            if V != model.vocab.size:
                raise CheckpointError(f"{spec}: vocab_size {V} must equal V={model.vocab.size}")
            if max_len < model.L:
                raise CheckpointError(f"{spec}: max_len {max_len} must be >= L={model.L}")
            return TransformerDenoiser(params)
    raise ValueError(f"bad denoiser spec {spec!r}")


def run_policy(
    model: JointModel, denoiser, policy: PolicyConfig, cfg: ExperimentConfig,
    rng: np.random.Generator, keep_traces: bool = False,
) -> tuple[MetricRow, list[DecodeTrace]]:
    """One policy's metrics row, and its Monte Carlo traces when ``keep_traces``.

    With any denoiser, a policy without stochastic remasking runs in exact
    mode unless ``cfg.mode`` is "mc" (in mode "exact", one with it fails).
    Exact mode enumerates the induced distribution and draws nothing from
    ``rng``. Monte Carlo mode decodes ``cfg.samples`` sequences in lockstep
    with ``decode_blockwise`` and draws from ``rng`` in this order: every
    prompt first (one ``sample_joints`` call, as one ``sample_joint`` per
    sample would); then, per step, the stochastic-remasking draws in sample
    order, then one token draw per committed token, sample by sample and in
    position order within a sample. Either way the target, the induced
    distribution and the metrics are dense vectors (see the module
    docstring): no call builds a dict per sequence.
    """
    target = model_distribution(model)
    gen_len = model.L - cfg.prompt_len
    traces: list[DecodeTrace] = []
    if cfg.mode == "exact" or (cfg.mode == "auto" and not policy.stochastic_remask):
        dist, mean_nfe = exact_induced_distribution(
            model, policy, cfg.prompt_len, denoiser
        )
        samples_used = 0
    else:
        prompts = sample_joints(model, rng, cfg.samples)[:, : cfg.prompt_len].tolist()
        decoded = decode_blockwise(denoiser, policy, prompts, gen_len, rng)
        dist = empirical_distribution([final for final, _ in decoded], model.vocab.size)
        mean_nfe = float(np.mean([trace.nfe for _, trace in decoded]))
        if keep_traces:
            traces = [trace for _, trace in decoded]
        samples_used = cfg.samples
    row = MetricRow(
        policy_id=policy.policy_id(),
        scorer=policy.scorer,
        selector=policy.selector,
        block_size=policy.block_size,
        layer=policy.layer,
        tv_distance=tv_distance(target, dist),
        kl_divergence=kl_target_induced(target, dist),
        mean_nfe=mean_nfe,
        samples=samples_used,
        seed=cfg.seed,
    )
    return row, traces


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every policy, compute metrics, and (optionally) write the CSV.

    Per-policy failures are recorded and the run continues; each policy gets
    an independent RNG stream derived from the global seed by its index.
    """
    model = resolve_joint(cfg.joint)
    denoiser = resolve_denoiser(cfg.denoiser, model)
    if cfg.prompt_len >= model.L:
        raise ValueError(f"prompt_len {cfg.prompt_len} must be below L={model.L}")
    result = ExperimentResult(rows=[], failures=[])
    streams = np.random.SeedSequence(cfg.seed).spawn(len(cfg.policies))
    for policy, ss in zip(cfg.policies, streams):
        rng = np.random.default_rng(ss)
        try:
            row, _ = run_policy(model, denoiser, policy, cfg, rng)
        except Exception as exc:  # noqa: BLE001 - recorded, run continues
            result.failures.append((policy.policy_id(), repr(exc)))
            continue
        result.rows.append(row)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(metrics_csv_text(result.rows))
    return result


def metrics_csv_text(rows: Sequence[MetricRow]) -> str:
    lines = [f"# schema={CSV_SCHEMA_TAG}", ",".join(METRIC_FIELDS)]
    for r in rows:
        # str of a Python float is its shortest round-trip repr
        lines.append(",".join(str(getattr(r, f)) for f in METRIC_FIELDS))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def sweep(cfg: ExperimentConfig, field: str, values: Sequence) -> ExperimentResult:
    """Re-run every policy with the ``PolicyConfig`` field ``field`` set to each
    value; one row per (value, policy), value-major. A value ``PolicyConfig``
    refuses raises before any run; one a run cannot use (a ``layer`` past the
    model's depth, say) is recorded as that policy's failure."""
    policies = tuple(replace(p, **{field: v}) for v in values for p in cfg.policies)
    return run_experiment(replace(cfg, policies=policies))


# ---------------------------------------------------------------------------
# learned-denoiser evaluation
# ---------------------------------------------------------------------------

def mean_conditional_kl(
    model: JointModel, denoiser, prompt_len: int, n_states: int, rng: np.random.Generator
) -> float:
    """Mean KL(exact conditional || prediction) over random masked states.

    Each state is a clean ``sample_joint`` draw corrupted right away by
    ``core.forward_mask`` at t ~ Uniform[0, 1), redrawn until at least one
    position is masked. All of them are drawn into one (n, L) token array
    first and then denoised in one ``denoiser.batch`` call, which draws
    nothing, and in one exact ``OracleDenoiser`` call. The KL is averaged
    over every masked position of every state, summed left to right state
    by state and position by position. ``n_states`` below 1 and a
    ``prompt_len`` outside 0..L-1 raise ``ValueError``.
    """
    if n_states < 1:
        raise ValueError(f"n_states must be >= 1, got {n_states}")
    vocab = model.vocab
    tokens = np.empty((n_states, model.L), dtype=np.int64)
    for row in tokens:
        corrupted, _ = forward_mask([sample_joint(model, rng)], vocab.size, prompt_len, rng)
        row[:] = corrupted[0]
    batch = StateBatch(vocab, tokens)
    masked = batch.tokens == vocab.mask_id
    exact = OracleDenoiser(model).batch(batch).probs[masked]
    kl = scoring.kl_divergence(exact, denoiser.batch(batch).probs[masked])
    return float(np.cumsum(kl)[-1]) / kl.size  # cumsum adds in order, like a loop


# ---------------------------------------------------------------------------
# seeded suites: the 5-node reference network and the layered family
# ---------------------------------------------------------------------------

def reference_schedules() -> dict[str, GroupSchedule]:
    """The four parallel schedules over X1..X4 (positions 1..4, prompt at 0)."""
    return {
        "all_at_once": GroupSchedule(((1, 2, 3, 4),)),
        "pair_13_then_24": GroupSchedule(((1, 3), (2, 4))),
        "pair_23_then_14": GroupSchedule(((2, 3), (1, 4))),
        "pair_12_then_34": GroupSchedule(((1, 2), (3, 4))),
    }


# Only the last schedule respects the reference network's dependencies, so it
# is the only one expected to reproduce the joint exactly.
REFERENCE_EXACT_SCHEDULE = "pair_12_then_34"

# CPT draws a suite model tries before it gives up.
REFERENCE_MAX_ATTEMPTS = 1000
LAYERED_MAX_ATTEMPTS = 500


def _bern_row(p1) -> np.ndarray:
    """The binary CPT rows of an array of P(x = 1): ``p1``'s shape plus (2,)."""
    return np.stack([p1, 1.0 - p1], -1)


def reference_dag_model(seed: int) -> FactorizedDAG:
    """Seeded binary 5-node network: prompt -> {X1, X2}, X1 -> X3, {X1, X2} -> X4.

    CPT draws are rejected until each of the three dependency-breaking
    schedules induces TV > 0.01 (the dependency-respecting schedule is exact
    for every draw, by construction of the graph).
    """
    rng = np.random.default_rng(seed)
    parents = ((), (0,), (0,), (1,), (1, 2))
    for _ in range(REFERENCE_MAX_ATTEMPTS):
        root = _bern_row(rng.uniform(0.35, 0.65))
        rows = _bern_row(rng.uniform(0.08, 0.92, 10))  # X1, X2, X3, then X4's four
        cpts = (root, rows[0:2], rows[2:4], rows[4:6], rows[6:].reshape(2, 2, 2))
        model = FactorizedDAG(Vocabulary(2), parents, cpts)
        tvs = _reference_tvs(model)
        broken = [v for k, v in tvs.items() if k != REFERENCE_EXACT_SCHEDULE]
        if min(broken) > 0.01:
            return model
    raise RuntimeError(f"no acceptable CPT draw after {REFERENCE_MAX_ATTEMPTS} attempts")


def _reference_tvs(model: FactorizedDAG) -> dict[str, float]:
    """TV between the joint and each reference schedule's induced distribution."""
    target = model_distribution(model)
    return {
        name: tv_distance(target, exact_policy_distribution(model, sched, prompt_len=1))
        for name, sched in reference_schedules().items()
    }


def reference_schedule_report(seed: int) -> list[dict]:
    """TV of each reference schedule, with its expected outcome; CLI-facing."""
    report = []
    for name, tv in _reference_tvs(reference_dag_model(seed)).items():
        exact_expected = name == REFERENCE_EXACT_SCHEDULE
        ok = tv <= 1e-9 if exact_expected else tv > 0.01
        report.append(
            {
                "schedule": name,
                "tv": tv,
                "expected": "exact" if exact_expected else "mismatched",
                "ok": ok,
            }
        )
    return report


def dependency_greedy_schedule(model: JointModel, prompt_len: int, steps: int) -> GroupSchedule:
    """The fixed group schedule a dependency-ranked top-k decode follows.

    Pattern mutual information does not depend on observed values, so the
    selection sequence is one deterministic schedule.
    """
    denoiser = OracleDenoiser(model)
    mask = np.arange(model.L)[None] >= prompt_len
    groups = []
    steps_left = steps
    while mask.any():
        k = -(-mask.sum(axis=1) // max(1, steps_left))
        group = select_topk(denoiser.dependency_scores(mask), mask, k)
        groups.append(tuple(np.flatnonzero(group[0]).tolist()))
        mask = mask & ~group
        steps_left = max(1, steps_left - 1)
    return GroupSchedule(tuple(groups))


def layered_suite_model(seed: int) -> FactorizedDAG:
    """One dependency-structured instance of the seeded layered family.

    Binary network over 9 positions: position 0 is the prompt, the four
    roots (positions 1..4) couple directly to it, and each of the four
    children (positions 5..8) couples strongly to two roots. Half the
    children carry asymmetric tables that inflate their marginal confidence;
    the other half carry parity-style tables with low prompt information.
    CPT draws are rejected until the instance is genuinely
    dependency-structured:

      * pattern mutual information separates the layers at the start,
      * for every prompt value at least one child outranks all but one root
        in confidence (so uncertainty ordering crosses the layers),
      * every child table has row spread >= 0.3 (strong parent coupling),
      * the dependency-greedy parallel schedule is mismatch-free.
    """
    rng = np.random.default_rng(seed)
    roots = [1, 2, 3, 4]
    children = [5, 6, 7, 8]
    gen_len = 8
    steps = gen_len // 2
    agree = np.eye(2, dtype=bool)  # [va, vb]: the two parents agree
    for _ in range(LAYERED_MAX_ATTEMPTS):
        parents: list[tuple[int, ...]] = [()]
        cpts: list[np.ndarray] = [_bern_row(rng.uniform(0.4, 0.6))]
        for _ in roots:
            hi = rng.uniform(0.70, 0.78)
            parents.append((0,))
            cpts.append(_bern_row(np.array([hi, 1.0 - hi])))
        for j, _ in enumerate(children):
            pa, pb = sorted(rng.choice(roots, size=2, replace=False).tolist())
            parents.append((pa, pb))
            # Both child types key on parent agreement, which carries almost no
            # prompt information (flipping the prompt flips both roots).
            if j % 2 == 0:  # confidence-inflating child: near-certain on agreement
                p1 = rng.uniform(np.where(agree, 0.96, 0.45), np.where(agree, 0.995, 0.55))
            else:  # parity-style child: strong coupling, near-uniform marginal
                hi = rng.uniform(0.86, 0.95, (2, 2))
                p1 = np.where(agree, hi, 1.0 - hi)
            cpts.append(_bern_row(p1))
        model = FactorizedDAG(Vocabulary(2), tuple(parents), tuple(cpts))

        # margin 1: mutual information separates the layers up front
        exact = OracleDenoiser(model)
        mi = exact.dependency_scores([[False] + [True] * gen_len])[0]
        if min(mi[r] for r in roots) < max(mi[c] for c in children) + 0.02:
            continue
        # margin 2: confidence ordering crosses the layers for every prompt value
        starts = np.array([[c] + [model.vocab.mask_id] * gen_len for c in (1, 2)])
        conf = exact.batch(StateBatch(model.vocab, starts)).probs.max(axis=2)
        root_conf = np.sort(conf[:, roots], axis=1)
        if not (conf[:, children].max(axis=1) > root_conf[:, -2] + 0.02).all():
            continue
        # margin 3: every child strongly coupled to its parents
        spread_ok = all(
            float(cpts[ch][..., 0].max() - cpts[ch][..., 0].min()) >= 0.3
            for ch in children
        )
        if not spread_ok:
            continue
        # margin 4: the dependency-greedy schedule recovers the joint exactly
        sched = dependency_greedy_schedule(model, prompt_len=1, steps=steps)
        target = model_distribution(model)
        induced = exact_policy_distribution(model, sched, prompt_len=1)
        if tv_distance(target, induced) > 1e-9:
            continue
        return model
    raise RuntimeError(f"no acceptable layered draw after {LAYERED_MAX_ATTEMPTS} attempts")
