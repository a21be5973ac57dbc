"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines inline.
"""

import itertools
import time

import numpy as np
import pytest

from helpers import brute_conditionals, central_diff_max_rel_err
from mdlmlab.core import SequenceState, Vocabulary
from mdlmlab.decoding import PolicyConfig, decode_blockwise, select_eb
from mdlmlab.harness import (
    ExperimentConfig,
    exact_induced_distribution,
    layered_suite_model,
    mean_conditional_kl,
    reference_dag_model,
    reference_schedules,
    run_experiment,
    tv_distance,
    REFERENCE_EXACT_SCHEDULE,
)
from mdlmlab.nn import (
    TransformerConfig,
    TransformerDenoiser,
    corrupt_batch,
    init_params,
    loss_and_grad_on_corrupted,
    train,
)
from mdlmlab.oracle import (
    OracleDenoiser,
    conditional_marginal,
    exact_policy_distribution,
    model_distribution,
    random_dag,
    random_tabular,
    sample_joint,
)
from mdlmlab.scoring import confidence, dos_dependency, entropy, margin


def _report(num: int, name: str, detail: str) -> None:
    print(f"\nACCEPTANCE-{num:02d} {name}: PASS ({detail})")


def test_criterion_01_reference_schedule_suite():
    t0 = time.perf_counter()
    model = reference_dag_model(42)
    target = model_distribution(model)
    tvs = {
        name: tv_distance(
            target, exact_policy_distribution(model, sched, prompt_len=1)
        )
        for name, sched in reference_schedules().items()
    }
    elapsed = time.perf_counter() - t0
    assert tvs[REFERENCE_EXACT_SCHEDULE] <= 1e-9
    for name, tv in tvs.items():
        if name != REFERENCE_EXACT_SCHEDULE:
            assert tv > 0.01, (name, tv)
    assert elapsed < 1.0
    _report(
        1,
        "reference-schedule-suite",
        f"exact schedule tv={tvs[REFERENCE_EXACT_SCHEDULE]:.2e}, "
        f"others min tv={min(v for k, v in tvs.items() if k != REFERENCE_EXACT_SCHEDULE):.3f}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_02_conditionals_match_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        V = int(rng.integers(2, 5))
        L = int(rng.integers(2, 7))
        model = (
            random_tabular(rng, V, L)
            if rng.random() < 0.5
            else random_dag(rng, V, L)
        )
        toks = [int(v) for v in sample_joint(model, rng)]
        for i in rng.choice(L, size=int(rng.integers(1, L + 1)), replace=False):
            toks[i] = model.vocab.mask_id
        state = SequenceState(model.vocab, tuple(toks), 0)
        got = conditional_marginal(model, state)
        want = brute_conditionals(model, state)
        for i in state.masked_positions():
            worst = max(worst, float(np.max(np.abs(got[i] - want[i]))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12
    assert elapsed < 30.0
    _report(2, "oracle-conditionals", f"worst abs err={worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_scorer_unit_suite():
    assert confidence(np.array([0.0, 1.0])) == 1.0
    assert confidence(np.full(4, 0.25)) == 0.25
    assert confidence(np.array([0.7, 0.2, 0.1])) == pytest.approx(0.7)
    assert entropy(np.array([1.0, 0.0])) == 0.0
    assert abs(entropy(np.full(4, 0.25)) - np.log(4)) <= 1e-12
    assert abs(entropy(np.array([0.5, 0.5, 0.0, 0.0])) - np.log(2)) <= 1e-12
    assert margin(np.array([1.0, 0.0])) == 1.0
    assert margin(np.full(4, 0.25)) == 0.0
    assert margin(np.array([0.7, 0.2, 0.1])) == pytest.approx(0.5)

    rng = np.random.default_rng(3)
    for _ in range(10000):
        raw = rng.gamma(1.0, 1.0, size=int(rng.integers(2, 8)))
        p = raw / raw.sum()
        assert margin(p) <= confidence(p) + 1e-12

    worst_gap = 0.0
    for _ in range(300):
        L, H = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        raw = rng.gamma(1.0, 1.0, size=(H, L, L))
        attn = raw / raw.sum(axis=-1, keepdims=True)
        masked = sorted(
            rng.choice(L, size=int(rng.integers(1, L + 1)), replace=False).tolist()
        )
        unmasked = [i for i in range(L) if i not in masked]
        scores = dos_dependency([attn], 0, masked, unmasked, L)
        avg = attn.mean(axis=0)
        for m in masked:
            gap = abs(scores[m] + avg[m, masked].sum() - 1.0)
            worst_gap = max(worst_gap, gap)
    assert worst_gap < 1e-6
    _report(3, "scorer-unit-suite", f"mass-split worst gap={worst_gap:.2e}")


def test_criterion_04_eb_selection_properties():
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(10000):
        L = int(rng.integers(1, 10))
        ranking = rng.normal(size=L)
        ents = rng.uniform(0.0, 1.2, size=L)
        for gamma in (0.0, 0.01, 0.1):
            chosen = list(select_eb(ranking, ents, list(range(L)), gamma))
            assert len(chosen) >= 1  # singleton always admissible
            assert ents[chosen].sum() - ents[chosen].max() <= gamma + 1e-12
            order = sorted(range(L), key=lambda i: (-ranking[i], i))
            if len(chosen) < L:
                ext = chosen + [order[len(chosen)]]
                assert np.sum(ents[ext]) - np.max(ents[ext]) > gamma
            checked += 1
    _report(4, "eb-selection-properties", f"{checked} (vector, gamma) cases")


def test_criterion_05_full_gradient_check():
    t0 = time.perf_counter()
    config = TransformerConfig()  # the default toy transformer
    params = init_params(config)
    rng = np.random.default_rng(5)
    x0 = rng.integers(1, config.vocab_size + 1, size=(2, 6))
    corrupted, mask, weights, _ = corrupt_batch(config, x0, 1, rng)
    assert mask.any()
    _, grads = loss_and_grad_on_corrupted(params, corrupted, x0, mask, weights)
    worst = central_diff_max_rel_err(params, grads, corrupted, x0, mask, weights)
    elapsed = time.perf_counter() - t0
    worst_err = max(worst.values())
    assert worst_err < 1e-4, worst
    assert elapsed < 60.0
    _report(
        5,
        "gradient-check",
        f"max rel err={worst_err:.2e} over {len(worst)} tensors, {elapsed:.1f}s",
    )


def test_criterion_06_learnability():
    t0 = time.perf_counter()
    model = reference_dag_model(42)
    config = TransformerConfig(vocab_size=2, seed=7)
    params = train(config, model, prompt_len=1)
    den = TransformerDenoiser(params)
    kl = mean_conditional_kl(
        model, den, prompt_len=1, n_states=500, rng=np.random.default_rng(123)
    )
    elapsed = time.perf_counter() - t0
    assert kl < 0.05
    assert elapsed < 600.0
    _report(6, "learnability", f"mean conditional KL={kl:.4f}, {elapsed:.0f}s")


def _layered_policy(scorer: str, steps: int, block_size: int = 0) -> PolicyConfig:
    return PolicyConfig(
        scorer=scorer,
        selector="topk",
        steps=steps,
        block_size=block_size,
        temperature="sample",
    )


def test_criterion_07_dependency_ordering_beats_uncertainty():
    # With exact conditionals, one-token-per-step decoding is order-invariant
    # (any adaptive order telescopes to the joint by the chain rule), so the
    # ordering claim is only observable under parallel commits: the suite
    # runs top-k with T = gen_len / 2, two tokens per step.
    model0 = layered_suite_model(0)
    gen_len = model0.L - 1
    target0 = model_distribution(model0)
    for scorer in ("oracle_dep", "confidence", "entropy", "margin"):
        dist, _ = exact_induced_distribution(
            model0, _layered_policy(scorer, steps=gen_len), prompt_len=1
        )
        assert tv_distance(target0, dist) < 1e-9  # sequential: all orders exact

    baselines = ("confidence", "entropy", "margin")
    strict = 0
    for seed in range(20):
        model = layered_suite_model(seed)
        target = model_distribution(model)
        steps = (model.L - 1) // 2
        dist, _ = exact_induced_distribution(
            model, _layered_policy("oracle_dep", steps), prompt_len=1
        )
        dos_tv = tv_distance(target, dist)
        base_tvs = []
        for scorer in baselines:
            dist, _ = exact_induced_distribution(
                model, _layered_policy(scorer, steps), prompt_len=1
            )
            base_tvs.append(tv_distance(target, dist))
        for tv in base_tvs:
            assert dos_tv <= tv + 1e-12, (seed, dos_tv, base_tvs)
        if all(tv - dos_tv > 1e-9 for tv in base_tvs):
            strict += 1
    assert strict >= 15
    _report(
        7,
        "dependency-ordering",
        f"dos <= all baselines on 20/20 seeds, strictly better on {strict}/20",
    )


def test_criterion_08_block_size_robustness():
    worst_dos_range = 0.0
    worst_conf_range = np.inf
    for seed in range(20):
        model = layered_suite_model(seed)
        target = model_distribution(model)
        gen_len = model.L - 1
        steps = gen_len // 2
        ranges = {}
        for scorer in ("oracle_dep", "confidence"):
            tvs = []
            for bs in (1, 2, 4, gen_len):
                dist, _ = exact_induced_distribution(
                    model, _layered_policy(scorer, steps, block_size=bs), prompt_len=1
                )
                tvs.append(tv_distance(target, dist))
            ranges[scorer] = max(tvs) - min(tvs)
        assert ranges["oracle_dep"] < 0.02, (seed, ranges)
        assert ranges["confidence"] > 0.05, (seed, ranges)
        worst_dos_range = max(worst_dos_range, ranges["oracle_dep"])
        worst_conf_range = min(worst_conf_range, ranges["confidence"])
    _report(
        8,
        "block-size-robustness",
        f"dos range <= {worst_dos_range:.2e}, confidence range >= "
        f"{worst_conf_range:.3f} across sizes (1, 2, 4, L)",
    )


def test_criterion_09_nfe_accounting():
    model = reference_dag_model(42)
    den = OracleDenoiser(model)
    gen_len = model.L - 1
    rng = np.random.default_rng(9)
    prompts = [sample_joint(model, rng)[:1] for _ in range(50)]

    top1 = PolicyConfig(scorer="confidence", selector="topk", steps=gen_len,
                        temperature="sample")
    for prompt in prompts:
        [(_, trace)] = decode_blockwise(den, top1, [prompt], gen_len,
                                    np.random.default_rng(0))
        assert trace.nfe == gen_len

    for selector in ("threshold", "klass", "eb"):
        policy = PolicyConfig(scorer="confidence", selector=selector,
                              temperature="sample")
        for prompt in prompts:
            [(_, trace)] = decode_blockwise(den, policy, [prompt], gen_len,
                                        np.random.default_rng(1))
            assert trace.nfe <= gen_len

    # dependency ranking + entropy budget is never slower than plain top-1
    dos_eb = PolicyConfig(scorer="oracle_dep", selector="eb",
                          temperature="sample")
    _, topk_nfe = exact_induced_distribution(model, top1, prompt_len=1)
    _, dos_eb_nfe = exact_induced_distribution(model, dos_eb, prompt_len=1)
    assert dos_eb_nfe <= topk_nfe + 1e-12
    assert topk_nfe == pytest.approx(gen_len)
    _report(
        9,
        "nfe-accounting",
        f"top-1 nfe={topk_nfe:.2f}, dependency+eb nfe={dos_eb_nfe:.2f}",
    )


def test_criterion_10_deterministic_evaluate(tmp_path):
    policies = (
        PolicyConfig(scorer="oracle_dep", selector="topk", steps=2,
                     temperature="sample"),
        PolicyConfig(scorer="confidence", selector="threshold",
                     temperature="sample"),
    )
    out1, out2 = str(tmp_path / "run1.csv"), str(tmp_path / "run2.csv")
    cfg = ExperimentConfig(
        joint="reference 42", prompt_len=1, policies=policies,
        samples=2000, seed=42, mode="mc", out=out1,
    )
    run_experiment(cfg)
    from dataclasses import replace

    run_experiment(replace(cfg, out=out2))
    with open(out1, "rb") as fh:
        b1 = fh.read()
    with open(out2, "rb") as fh:
        b2 = fh.read()
    assert b1 == b2
    _report(10, "deterministic-evaluate", f"{len(b1)} identical bytes")
