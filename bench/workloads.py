"""The benchmark's four workloads, each driven through mdlmlab's public API.

Every workload is a closed loop on one thread: an operation starts when the
previous one returns. Inputs come from the workload seed alone. A workload
knows how to build its inputs (``setup``), how to run operations until a
deadline or for a fixed count (``run``), and how to check their outputs
(``check``). Why each workload exists is written in ``GLOSSARY.md``.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from mdlmlab import decoding, harness, nn, oracle

Policy = decoding.PolicyConfig

EXACT_REFERENCE = Path(__file__).with_name("exact_reference.json")
N_LAYERED_JOINTS = 20  # exact-layered runs over layered seeds seed .. seed + 19
PROMPT_LEN = 1
TRAIN_STEPS_PER_OP = 4  # training steps timed as one operation
TRAIN_MIX_OPS = 5  # traced training work comes in multiples of 20 steps
MC_DELTA = 1e-6  # chance that a correct MC run fails its TV check, per policy


def reference_work() -> int:
    """A fixed computation, independent of mdlmlab, that times the host.

    Two halves of interpreted Python: float arithmetic, then dict, tuple and
    list work. On recorded runs of exact-layered this mix followed the
    program's slowdowns more closely than either half or small numpy calls.
    """
    x = 0.0
    for i in range(5000):
        x = (x + i * 0.5) % 1000.0
    counts: dict = {}
    row: list = []
    for i in range(750):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + 1
        row = [v for v in key if v]
    return int(x) + len(counts) + len(row)


def time_reference() -> float:
    """Seconds ``reference_work`` takes now, with the garbage collector off.

    Load from outside the container slows this machine by up to 2x, in
    phases from a fraction of a second to minutes. Timed right after an
    operation, the reference work shows how fast the host was then; with
    the collector off, the size of the program's heap cannot change it.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        gc.enable()


@dataclass
class Log:
    """What a closed loop did: one entry per operation, in order."""

    kinds: list[int] = field(default_factory=list)  # which op of the mix
    seconds: list[float] = field(default_factory=list)  # duration of each op
    units: list[int] = field(default_factory=list)  # work units in each op
    outputs: list = field(default_factory=list)  # digest of each op's output
    errors: list[str] = field(default_factory=list)  # repr of each exception
    reference_s: list[float] = field(default_factory=list)  # after each op

    def attempted(self) -> int:
        return sum(self.units)


def closed_loop(ops, deadline: float | None, max_ops: int | None) -> Log:
    """Run ``(kind, units, thunk, digest)`` operations one after another.

    Stops before the next operation once ``deadline`` (a ``perf_counter``
    time) has passed, or after ``max_ops`` operations. Only the thunk is
    timed; ``digest`` condenses its output afterwards so that large outputs
    are not kept. An operation that raises is logged with output ``None``.
    The reference work is timed after every operation.
    """
    log = Log()
    clock = time.perf_counter
    for kind, units, thunk, digest in ops:
        if deadline is not None and clock() >= deadline:
            break
        if max_ops is not None and len(log.seconds) >= max_ops:
            break
        t0 = clock()
        try:
            out = thunk()
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            log.seconds.append(clock() - t0)
            log.errors.append(repr(exc))
            out = None
        else:
            log.seconds.append(clock() - t0)
            out = digest(out)
        log.kinds.append(kind)
        log.units.append(units)
        log.outputs.append(out)
        log.reference_s.append(time_reference())
    return log


def _topk(scorer: str, steps: int, block_size: int = 0, layer: int = 0) -> Policy:
    return Policy(
        scorer=scorer,
        selector="topk",
        steps=steps,
        block_size=block_size,
        layer=layer,
        temperature="sample",
    )


def _adaptive(scorer: str, selector: str) -> Policy:
    return Policy(scorer=scorer, selector=selector, temperature="sample")


def exact_policies(gen_len: int) -> tuple[Policy, ...]:
    """The fixed 14-policy set of exact-layered; top-k uses T = gen_len / 2."""
    T = gen_len // 2
    return (
        *(_topk(s, T) for s in ("oracle_dep", "confidence", "entropy", "margin")),
        *(_topk(s, T, b) for s in ("oracle_dep", "confidence") for b in (1, 2, 4)),
        _adaptive("confidence", "threshold"),
        _adaptive("confidence", "klass"),
        _adaptive("confidence", "eb"),
        _adaptive("oracle_dep", "eb"),
    )


def _config(seed: int, policies, mode: str, samples: int = 1):
    return harness.ExperimentConfig(
        joint=f"layered {seed}",
        prompt_len=PROMPT_LEN,
        policies=tuple(policies),
        samples=samples,
        seed=seed,
        mode=mode,
    )


def _layered(seed: int):
    model = harness.layered_suite_model(seed)
    oracle.joint_table(model)
    oracle.sample_joint(model, np.random.default_rng(0))  # fills the CPT cumsums
    return model


def _row_ok(row, gen_len: int) -> bool:
    return (
        0.0 <= row.tv_distance <= 1.0
        and math.isfinite(row.kl_divergence)
        and row.kl_divergence >= 0.0
        and 1.0 <= row.mean_nfe <= gen_len + 1e-9  # exact mode sums mass x NFE
    )


def _generated(trace) -> tuple[int, ...]:
    """The generated tokens of one decode, in position order, from its trace."""
    tokens = {}
    for step in trace.steps:
        tokens.update(zip(step.positions, step.tokens))
    return tuple(tokens[i] for i in sorted(tokens))


def _gen_marginal(dist: dict) -> dict:
    out: dict = {}
    for seq, p in dist.items():
        key = seq[PROMPT_LEN:]
        out[key] = out.get(key, 0.0) + p
    return out


def mc_tv_bound(q: dict, n: int, delta: float = MC_DELTA) -> float:
    """How far the TV of ``n`` MC samples may sit from the exact TV.

    By the triangle inequality the gap is at most TV(empirical, q), where q
    is the distribution the policy induces. Its mean is at most
    (1/2) sum sqrt(q_k (1 - q_k) / n), and one sample moves it by at most
    1/n, so it exceeds that mean by more than sqrt(ln(1/delta) / (2n)) with
    probability below delta (McDiarmid).
    """
    mean = 0.5 * sum(math.sqrt(p * (1.0 - p) / n) for p in q.values())
    return mean + math.sqrt(math.log(1.0 / delta) / (2.0 * n))


class ExactLayered:
    """``run_policy`` in exact mode over 20 layered joints x 14 policies."""

    name = "exact-layered"
    trace_mixes_per_s = 0.5  # traced work: mixes (here joints) per --seconds

    def setup(self, seed: int):
        models = [_layered(seed + i) for i in range(N_LAYERED_JOINTS)]
        gen_len = models[0].L - PROMPT_LEN
        policies = exact_policies(gen_len)
        return SimpleNamespace(
            seed=seed,
            models=models,
            gen_len=gen_len,
            policies=policies,
            mix_ops=len(policies),  # one joint's policies
            cfg=_config(seed, policies, "exact"),
            rng=np.random.default_rng(seed),  # unused in exact mode
        )

    def _ops(self, ctx):
        for i in itertools.cycle(range(N_LAYERED_JOINTS)):
            model = ctx.models[i]
            for k, policy in enumerate(ctx.policies):
                yield (
                    k,
                    1,
                    lambda m=model, p=policy: harness.run_policy(
                        m, oracle.OracleDenoiser(m), p, ctx.cfg, ctx.rng
                    ),
                    lambda out, i=i, p=policy: (ctx.seed + i, p, out[0]),
                )

    def run(self, ctx, deadline=None, max_ops=None) -> Log:
        return closed_loop(self._ops(ctx), deadline, max_ops)

    def check(self, ctx, log: Log) -> list[bool]:
        """Per-operation verdicts.

        Every row must be in range and, where ``exact_reference.json`` has
        the (layered seed, policy) pair, match the recorded TV and KL within
        1e-9. The first joint's distributions are recomputed: each must sum
        to 1 within 1e-12 and reproduce its row's TV.
        """
        reference = json.loads(EXACT_REFERENCE.read_text())["tv_kl"]
        ok = []
        for out in log.outputs:
            if out is None:
                ok.append(False)
                continue
            joint_seed, policy, row = out
            good = _row_ok(row, ctx.gen_len)
            want = reference.get(str(joint_seed), {}).get(policy.policy_id())
            if want is not None:
                good &= abs(row.tv_distance - want[0]) <= 1e-9
                good &= abs(row.kl_divergence - want[1]) <= 1e-9
            ok.append(good)
        model = ctx.models[0]
        target = oracle.model_distribution(model)
        for k, out in enumerate(log.outputs[: ctx.mix_ops]):
            if out is None:
                continue
            dist, _ = harness.exact_induced_distribution(model, out[1], PROMPT_LEN)
            ok[k] &= abs(math.fsum(dist.values()) - 1.0) <= 1e-12
            ok[k] &= abs(harness.tv_distance(target, dist) - out[2].tv_distance) <= 1e-12
        return ok


class _MonteCarlo:
    """``run_policy`` in MC mode on ``layered <seed>``, cycling a policy set.

    One operation is one ``run_policy`` call of ``samples`` samples; its work
    units are samples. Each policy keeps its own RNG stream across calls, as
    in ``run_experiment``.
    """

    samples: int
    trace_mixes_per_s: float

    def policies(self, gen_len: int) -> tuple[Policy, ...]:
        raise NotImplementedError

    def denoiser(self, model):
        raise NotImplementedError

    def setup(self, seed: int):
        model = _layered(seed)
        gen_len = model.L - PROMPT_LEN
        policies = self.policies(gen_len)
        streams = np.random.SeedSequence(seed).spawn(len(policies))
        return SimpleNamespace(
            seed=seed,
            model=model,
            gen_len=gen_len,
            policies=policies,
            mix_ops=len(policies),  # one call of every policy
            denoiser=self.denoiser(model),
            cfg=_config(seed, policies, "mc", self.samples),
            rngs=[np.random.default_rng(s) for s in streams],
        )

    def _ops(self, ctx):
        for k in itertools.cycle(range(len(ctx.policies))):
            yield (
                k,
                self.samples,
                lambda k=k: harness.run_policy(
                    ctx.model, ctx.denoiser, ctx.policies[k], ctx.cfg, ctx.rngs[k],
                    keep_traces=True,
                ),
                lambda out, k=k: (
                    k,
                    out[0],
                    [t.nfe for t in out[1]],
                    Counter(_generated(t) for t in out[1]),
                ),
            )

    def run(self, ctx, deadline=None, max_ops=None) -> Log:
        return closed_loop(self._ops(ctx), deadline, max_ops)


class MCOracle(_MonteCarlo):
    """Adaptive selectors plus two top-k policies against a shared oracle."""

    name = "mc-oracle"
    samples = 32
    trace_mixes_per_s = 2.0

    def policies(self, gen_len):
        T = gen_len // 2
        return (
            _adaptive("confidence", "threshold"),
            _adaptive("confidence", "klass"),
            _adaptive("oracle_dep", "eb"),
            _topk("oracle_dep", T),
            _topk("confidence", T, block_size=4),
        )

    def denoiser(self, model):
        return oracle.OracleDenoiser(model)

    def check(self, ctx, log: Log) -> list[bool]:
        """Rows in range, NFE <= gen_len, and MC TV near the exact TV.

        The TV check pools every sample a policy drew in the run. The prompt
        is not in a decode trace, so it compares distributions over the
        generated positions: |TV(target, MC) - TV(target, exact)| must stay
        within ``mc_tv_bound`` for the pooled sample count.
        """
        ok = []
        pooled = [Counter() for _ in ctx.policies]
        for out in log.outputs:
            if out is None:
                ok.append(False)
                continue
            k, row, nfes, counts = out
            ok.append(_row_ok(row, ctx.gen_len) and max(nfes) <= ctx.gen_len)
            pooled[k].update(counts)
        target = _gen_marginal(oracle.model_distribution(ctx.model))
        for k, counts in enumerate(pooled):
            n = sum(counts.values())
            if not n:
                continue
            exact, _ = harness.exact_induced_distribution(
                ctx.model, ctx.policies[k], PROMPT_LEN
            )
            q = _gen_marginal(exact)
            empirical = {seq: c / n for seq, c in counts.items()}
            gap = abs(
                harness.tv_distance(target, empirical) - harness.tv_distance(target, q)
            )
            if gap > mc_tv_bound(q, n):
                ok = [good and out[0] != k for good, out in zip(ok, log.outputs)]
        return ok


class MCTransformer(_MonteCarlo):
    """Fixed-budget top-k against an untrained transformer (NFE is exactly T)."""

    name = "mc-transformer"
    samples = 16
    trace_mixes_per_s = 2.0

    def policies(self, gen_len):
        T = gen_len // 2
        return (
            _topk("dos", T, layer=0),
            _topk("dos", T, block_size=4, layer=1),
            _topk("confidence", T),
        )

    def denoiser(self, model):
        config = nn.TransformerConfig(vocab_size=model.vocab.size, seed=7)
        return nn.TransformerDenoiser(nn.init_params(config))

    def check(self, ctx, log: Log) -> list[bool]:
        T = ctx.gen_len // 2
        return [
            out is not None
            and _row_ok(out[1], ctx.gen_len)
            and out[1].mean_nfe == T
            and all(nfe == T for nfe in out[2])
            for out in log.outputs
        ]


class _Deadline(Exception):
    """Raised from ``on_step`` to end a timed training run."""


class Train:
    """``nn.train`` on ``reference 42`` at B=64.

    One operation is ``TRAIN_STEPS_PER_OP`` consecutive steps, timed
    between ``on_step`` calls; its work units are steps and its output is
    their losses. Timing steps in groups, like the MC workloads' calls of
    many samples, keeps the per-step percentiles from following the
    host's sub-step stalls.
    """

    name = "train"
    trace_mixes_per_s = 1.25

    def setup(self, seed: int):
        model = harness.reference_dag_model(42)
        oracle.joint_table(model)
        oracle.sample_joint(model, np.random.default_rng(0))
        return SimpleNamespace(
            seed=seed,
            model=model,
            config=nn.TransformerConfig(vocab_size=2, seed=7),
            mix_ops=TRAIN_MIX_OPS,
        )

    def run(self, ctx, deadline=None, max_ops=None) -> Log:
        log = Log()
        clock = time.perf_counter
        steps = max_ops * TRAIN_STEPS_PER_OP if max_ops else 10**9
        config = replace(ctx.config, train_steps=steps)
        losses: list = []
        last = clock()

        def record(seconds: float) -> None:
            log.seconds.append(seconds)
            log.kinds.append(0)
            log.units.append(len(losses))
            log.outputs.append(losses.copy())
            losses.clear()
            log.reference_s.append(time_reference())

        def on_step(step: int, loss: float) -> None:
            nonlocal last
            losses.append(loss)
            if len(losses) < TRAIN_STEPS_PER_OP:
                return
            now = clock()
            record(now - last)
            if deadline is not None and now >= deadline:
                raise _Deadline
            last = clock()

        try:
            nn.train(
                config, ctx.model, PROMPT_LEN, np.random.default_rng(ctx.seed), on_step
            )
        except _Deadline:
            pass
        except Exception as exc:  # noqa: BLE001 - the step in progress failed
            log.errors.append(repr(exc))
            losses.append(None)
            record(clock() - last)
        return log

    def check(self, ctx, log: Log) -> list[bool]:
        """Every loss finite; the last tenth of steps beats the first tenth."""
        losses = [loss for op in log.outputs for loss in op]
        finite = [all(x is not None and math.isfinite(x) for x in op) for op in log.outputs]
        tenth = max(1, len(losses) // 10)
        learned = all(finite) and (
            np.mean(losses[-tenth:]) < np.mean(losses[:tenth])
        )
        return [good and learned for good in finite]


WORKLOADS = {w.name: w for w in (ExactLayered(), MCOracle(), MCTransformer(), Train())}
