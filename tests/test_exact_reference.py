"""The exact-mode metrics the benchmark checks, checked in tier 1 as well.

``bench/exact_reference.json`` records the TV and KL of the 14 policies of
``bench/workloads.exact_policies`` on layered joints; any change to the step
loop, selection or branching that moves an exact distribution moves them.
The workloads module is loaded from its file (``bench/`` is not a package),
and nothing under ``bench/`` is written.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from mdlmlab.harness import ExperimentConfig, layered_suite_model, run_policy
from mdlmlab.oracle import OracleDenoiser

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
