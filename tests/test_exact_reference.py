"""The exact-mode metrics the benchmark checks, checked in tier 1 as well.

``bench/exact_reference.json`` records the TV and KL of the 14 policies of
``bench/workloads.exact_policies`` on layered joints; any change to the step
loop, selection or branching that moves an exact distribution moves them.
The workloads module is loaded from its file (``bench/`` is not a package),
and nothing under ``bench/`` is written. The dense-vector metrics are checked
against a dict reference computed here, one loop per sequence.
"""

import importlib.util
import itertools
import json
import math
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mdlmlab.core import Vocabulary
from mdlmlab.decoding import PolicyConfig, decode_blockwise, enumerate_decodes
from mdlmlab.harness import (
    ExperimentConfig, exact_induced_distribution, kl_target_induced, layered_suite_model,
    run_policy, tv_distance,
)
from mdlmlab.oracle import (
    OracleDenoiser, TabularJoint, joint_prob, prompt_marginal, sample_joints,
)

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_exact_policies_match_the_recorded_reference(seed):
    workloads = _load_workloads()
    reference = json.loads(workloads.EXACT_REFERENCE.read_text())["tv_kl"][str(seed)]
    model = layered_suite_model(seed)
    policies = workloads.exact_policies(model.L - workloads.PROMPT_LEN)
    assert len(policies) == 14
    cfg = ExperimentConfig(joint=f"layered {seed}", prompt_len=workloads.PROMPT_LEN,
                           policies=policies, mode="exact")
    for policy in policies:
        row, _ = run_policy(model, OracleDenoiser(model), policy, cfg,
                            np.random.default_rng(seed))
        tv, kl = reference[policy.policy_id()]
        assert abs(row.tv_distance - tv) <= 1e-9, policy.policy_id()
        assert abs(row.kl_divergence - kl) <= 1e-9, policy.policy_id()


def dict_target(model) -> dict:
    return {
        seq: p for seq in itertools.product(range(1, model.vocab.size + 1), repeat=model.L)
        if (p := joint_prob(model, seq)) > 0
    }


def dict_induced(model, policy, prompt_len) -> dict:
    dist: dict = {}
    prompts = prompt_marginal(model, prompt_len)
    tokens, mass, _ = enumerate_decodes(
        OracleDenoiser(model), policy, prompts, model.L - prompt_len
    )
    for seq, p in zip(map(tuple, tokens.tolist()), mass.tolist()):
        dist[seq] = dist.get(seq, 0.0) + p
    return dist


def dict_tv(p: dict, q: dict) -> float:
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))


def dict_kl(p: dict, q: dict) -> float:
    total = sum(pv * math.log(pv / max(q.get(k, 0.0), 1e-12)) for k, pv in p.items() if pv > 0)
    return max(total, 0.0)


def assert_row_matches(row, target: dict, induced: dict) -> None:
    assert abs(row.tv_distance - dict_tv(target, induced)) <= 1e-15
    assert abs(row.kl_divergence - dict_kl(target, induced)) <= 1e-13


def test_dense_metrics_match_a_dict_reference():
    workloads = _load_workloads()
    prompt_len = workloads.PROMPT_LEN
    for seed in range(5):
        model = layered_suite_model(seed)
        target = dict_target(model)
        policies = workloads.exact_policies(model.L - prompt_len)
        cfg = ExperimentConfig(joint=f"layered {seed}", prompt_len=prompt_len,
                               policies=policies, mode="exact", samples=64)
        for policy in policies:
            row, _ = run_policy(model, OracleDenoiser(model), policy, cfg,
                                np.random.default_rng(seed))
            induced = dict_induced(model, policy, prompt_len)
            assert_row_matches(row, target, induced)
            dist, _ = exact_induced_distribution(model, policy, prompt_len)
            assert dist == induced  # bincount adds masses in outcome order
            assert abs(math.fsum(dist.values()) - 1.0) <= 1e-12
            # a plain dict on either side reduces to the same bits
            assert tv_distance(target, dist) == row.tv_distance
            assert kl_target_induced(target, dist) == row.kl_divergence
        # one Monte Carlo run against its samples, redrawn in run_policy's order
        policy = policies[-1]
        row, _ = run_policy(model, OracleDenoiser(model), policy, replace(cfg, mode="mc"),
                            np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        prompts = sample_joints(model, rng, cfg.samples)[:, :prompt_len].tolist()
        decoded = decode_blockwise(OracleDenoiser(model), policy, prompts,
                                   model.L - prompt_len, rng)
        counts = Counter(final for final, _ in decoded)
        empirical = {seq: c / cfg.samples for seq, c in counts.items()}
        assert row.samples == cfg.samples
        assert_row_matches(row, target, empirical)


def test_dense_metrics_count_mass_off_the_target_support():
    # two equally likely sequences: committing all positions at once puts
    # mass on the six the target gives zero, greedily on one sequence only
    table = np.zeros((2, 2, 2))
    table[0, 0, 0] = table[1, 1, 1] = 0.5
    model = TabularJoint(Vocabulary(2), table)
    target = dict_target(model)
    for temperature, tv, kl in (("sample", 0.75, math.log(4.0)),
                                ("greedy", 0.5, 0.5 * math.log(0.5) + 0.5 * math.log(0.5 / 1e-12))):
        policy = PolicyConfig(steps=1, temperature=temperature)
        cfg = ExperimentConfig(joint="file unused", policies=(policy,), mode="exact",
                               unconditional=True)
        row, _ = run_policy(model, OracleDenoiser(model), policy, cfg,
                            np.random.default_rng(0))
        assert_row_matches(row, target, dict_induced(model, policy, 0))
        assert row.tv_distance == pytest.approx(tv, abs=1e-15)
        assert row.kl_divergence == pytest.approx(kl, abs=1e-13)
