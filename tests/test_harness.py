import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlmlab.cli import load_experiment_config, parse_policy
from mdlmlab.core import SequenceState, forward_mask
from mdlmlab.decoding import (
    SELECTORS, PolicyConfig, TraceStep, decode_blockwise, enumerate_decodes,
)
from mdlmlab.harness import (
    CSV_SCHEMA_TAG,
    METRIC_FIELDS,
    ExperimentConfig,
    dependency_greedy_schedule,
    empirical_distribution,
    exact_induced_distribution,
    kl_target_induced,
    layered_suite_model,
    mean_conditional_kl,
    metrics_csv_text,
    reference_dag_model,
    reference_schedule_report,
    resolve_denoiser,
    resolve_joint,
    run_experiment,
    run_policy,
    sweep,
    tv_distance,
)
from mdlmlab.nn import (
    CheckpointError,
    TransformerConfig,
    TransformerDenoiser,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from mdlmlab.oracle import (
    GroupSchedule,
    OracleDenoiser,
    conditional_marginal,
    exact_policy_distribution,
    model_distribution,
    prompt_marginal,
    random_dag,
    sample_joint,
    sample_joints,
    save_joint_model,
)
from mdlmlab.scoring import kl_divergence


def test_empirical_distribution_examples():
    assert empirical_distribution([(1, 2)] * 5, 2) == {(1, 2): 1.0}
    d = empirical_distribution([(1,), (2,), (1,), (2,)], 3)
    assert d == {(1,): 0.5, (2,): 0.5}
    with pytest.raises(ValueError):
        empirical_distribution([], 2)
    with pytest.raises(ValueError, match="outside 1..2"):
        empirical_distribution([(1,), (3,)], 2)


def test_empirical_matches_sampler():
    model = reference_dag_model(1)
    rng = np.random.default_rng(0)
    samples = list(map(tuple, sample_joints(model, rng, 100000).tolist()))
    assert tv_distance(model_distribution(model), empirical_distribution(samples, 2)) < 0.02


def test_tv_distance_examples():
    p = {(1,): 0.9, (2,): 0.1}
    assert tv_distance(p, p) == 0.0
    assert tv_distance({(1,): 1.0}, {(2,): 1.0}) == 1.0
    q = {(1,): 0.5, (2,): 0.5}
    assert tv_distance(p, q) == pytest.approx(0.4)


def test_kl_target_induced_floor():
    p = {(1,): 1.0}
    assert kl_target_induced(p, p) == 0.0
    assert np.isfinite(kl_target_induced(p, {(2,): 1.0}))


def _mc_tv_bound(q, n, delta=1e-6):
    """How far the TV of n MC samples may sit from the exact TV.

    The gap is at most TV(empirical, q) for the induced distribution q,
    whose mean is at most (1/2) sum sqrt(q_k (1 - q_k) / n); one sample
    moves it by at most 1/n, so by McDiarmid it exceeds that mean by more
    than sqrt(ln(1/delta) / (2n)) with probability below delta.
    """
    mean = 0.5 * sum(math.sqrt(p * (1.0 - p) / n) for p in q.values())
    return mean + math.sqrt(math.log(1.0 / delta) / (2.0 * n))


def test_exact_and_monte_carlo_agree():
    model = reference_dag_model(3)
    policies = [
        PolicyConfig(scorer="confidence", selector="topk", steps=2,
                     temperature="sample"),
        PolicyConfig(scorer="confidence", selector="topk", steps=2, block_size=2,
                     temperature="sample"),
        # adaptive settings under which samples take different step counts
        PolicyConfig(scorer="confidence", selector="threshold", eps=0.7,
                     temperature="sample"),
        PolicyConfig(scorer="confidence", selector="klass", tau=0.6, n_history=1,
                     temperature="sample"),
        PolicyConfig(scorer="oracle_dep", selector="eb", gamma=0.5,
                     temperature="sample"),
    ]
    cfg_exact = ExperimentConfig(
        joint="reference 3", prompt_len=1, policies=tuple(policies),
        samples=10000, seed=7, mode="exact",
    )
    rows_exact = run_experiment(cfg_exact).rows
    rows_mc = run_experiment(replace(cfg_exact, mode="mc"), keep_traces=True)
    for policy, exact, mc in zip(policies, rows_exact, rows_mc.rows):
        q, _ = exact_induced_distribution(model, policy, prompt_len=1)
        gap = abs(exact.tv_distance - mc.tv_distance)
        assert gap <= _mc_tv_bound(q, 10000), (policy.policy_id(), gap)
        if policy.selector != "topk":
            # samples of one lockstep call finished at different steps
            nfes = {t.nfe for t in rows_mc.traces[policy.policy_id()]}
            assert len(nfes) > 1, policy.policy_id()


def test_exact_and_monte_carlo_agree_for_a_transformer():
    # reference 3 has 32 outcomes, so the sampling bound (~0.054) is tight
    # enough to catch a wrong enumeration; layered 3's 512 give 0.138
    model = reference_dag_model(3)
    den = TransformerDenoiser(init_params(TransformerConfig(vocab_size=2, seed=7)))
    policies = [
        PolicyConfig(scorer="dos", selector="topk", steps=2, layer=0,
                     temperature="sample"),
        PolicyConfig(scorer="dos", selector="topk", steps=2, layer=1, block_size=2,
                     temperature="sample"),
        PolicyConfig(scorer="confidence", selector="threshold", eps=0.7,
                     temperature="sample"),
    ]
    cfg = ExperimentConfig(joint="reference 3", prompt_len=1,
                           policies=tuple(policies), samples=10000, seed=7)
    rng = np.random.default_rng(7)
    for policy in policies:
        exact, _ = run_policy(model, den, policy, replace(cfg, mode="exact"), rng)
        mc, _ = run_policy(model, den, policy, replace(cfg, mode="mc"), rng)
        q, _ = exact_induced_distribution(model, policy, 1, den)
        gap = abs(exact.tv_distance - mc.tv_distance)
        assert gap <= _mc_tv_bound(q, 10000), (policy.policy_id(), gap)


def test_exact_transformer_enumeration_follows_the_sampler():
    model = layered_suite_model(3)
    den = TransformerDenoiser(init_params(TransformerConfig(vocab_size=2, seed=7)))
    for selector in ("topk", "threshold", "eb", "klass"):
        policy = PolicyConfig(scorer="dos", selector=selector, steps=4,
                              temperature="greedy")
        # greedy: one outcome per prompt, in prompt order, the one the sampler
        # decodes; one enumeration runs both prompts
        prompts = prompt_marginal(model, 1)
        outcomes = enumerate_decodes(den, policy, prompts, 8)
        assert len(outcomes[0]) == len(prompts) == 2
        for (prompt, p), tokens, mass, forwards in zip(prompts, *outcomes):
            [(final, trace)] = decode_blockwise(
                den, policy, [prompt], 8, np.random.default_rng(0)
            )
            assert (tuple(tokens.tolist()), forwards, mass) == (final, trace.nfe, p)
        dist, _ = exact_induced_distribution(
            model, replace(policy, temperature="sample"), 1, den
        )
        assert abs(sum(dist.values()) - 1.0) <= 1e-12


def test_exact_induced_distribution_properties():
    model = reference_dag_model(5)
    for selector in ("topk", "threshold", "eb", "klass"):
        policy = PolicyConfig(scorer="confidence", selector=selector, steps=2,
                              temperature="sample")
        dist, mean_nfe = exact_induced_distribution(model, policy, prompt_len=1)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
        assert 1.0 - 1e-9 <= mean_nfe <= 4.0 + 1e-9
    greedy = PolicyConfig(scorer="confidence", selector="topk", steps=2,
                          temperature="greedy")
    dist, _ = exact_induced_distribution(model, greedy, prompt_len=1)
    # greedy collapses the generated part: one outcome per prompt value
    assert len(dist) == 2


def test_exact_mode_uses_the_given_oracle():
    model = layered_suite_model(3)
    policy = PolicyConfig(scorer="confidence", selector="klass", temperature="sample")
    oracle = OracleDenoiser(model)
    assert exact_induced_distribution(model, policy, 1, oracle) == (
        exact_induced_distribution(model, policy, 1)
    )
    assert len(oracle._rows)  # the walk filled the caller's cache
    run_oracle = OracleDenoiser(model)
    cfg = ExperimentConfig(joint="layered 3", prompt_len=1, policies=(policy,),
                           mode="exact")
    run_policy(model, run_oracle, policy, cfg, np.random.default_rng(0))
    assert len(run_oracle._rows)


def test_run_experiment_determinism_and_csv(tmp_path):
    policy_exact = PolicyConfig(scorer="oracle_dep", selector="topk", steps=2,
                                temperature="sample")
    policy_mc = PolicyConfig(scorer="confidence", selector="eb",
                             temperature="sample")
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    cfg = ExperimentConfig(
        joint="reference 11", prompt_len=1,
        policies=(policy_exact, policy_mc),
        samples=1500, seed=42, mode="auto", out=out1,
    )
    r1 = run_experiment(cfg)
    run_experiment(replace(cfg, out=out2))
    with open(out1, "rb") as fh:
        b1 = fh.read()
    with open(out2, "rb") as fh:
        b2 = fh.read()
    assert b1 == b2
    text = b1.decode()
    lines = text.strip().split("\n")
    assert lines[0] == f"# schema={CSV_SCHEMA_TAG}"
    assert lines[1] == ",".join(METRIC_FIELDS)
    assert len(lines) == 2 + len(r1.rows)
    # the oracle_dep policy ran exactly (samples column is 0)
    assert r1.rows[0].samples == 0
    # the MC policy is auto mode too (eb still enumerable -> exact);
    # force mc and confirm the samples column records the count
    r_mc = run_experiment(replace(cfg, mode="mc", out=None))
    assert all(row.samples == 1500 for row in r_mc.rows)


def test_run_experiment_nfe_recount_from_traces():
    policy = PolicyConfig(scorer="confidence", selector="threshold",
                          temperature="sample")
    cfg = ExperimentConfig(
        joint="reference 13", prompt_len=1, policies=(policy,),
        samples=300, seed=3, mode="mc",
    )
    result = run_experiment(cfg, keep_traces=True)
    row = result.rows[0]
    traces = result.traces[policy.policy_id()]
    recount = float(np.mean([t.nfe for t in traces]))
    assert row.mean_nfe == pytest.approx(recount)
    for t in traces:
        assert t.nfe == len(t.steps)


def test_mc_run_policy_builds_no_state_or_step_objects(monkeypatch):
    # the sampler keeps its rows as arrays from prompt to metric: an MC run
    # of 64 samples builds no SequenceState and no TraceStep, and each of
    # its traces reads as the one-prompt decode of its sequence
    model = layered_suite_model(3)
    den = OracleDenoiser(model)
    built = []
    for cls in (SequenceState, TraceStep):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *a, _init=init, **k: (
            built.append(type(self).__name__) or _init(self, *a, **k)))
    greedy = PolicyConfig(scorer="confidence", selector="eb", gamma=0.3, temperature="greedy")
    remask = PolicyConfig(scorer="confidence", steps=4, temperature="sample",
                          stochastic_remask=True)
    runs = {}
    for policy in (greedy, remask):
        cfg = ExperimentConfig(joint="layered 3", prompt_len=1, policies=(policy,),
                               samples=64, seed=5, mode="mc")
        row, traces = run_policy(model, den, policy, cfg, np.random.default_rng(5),
                                 keep_traces=True)
        assert row.samples == 64 and len(traces) == 64
        runs[policy] = traces
    assert built == []
    prompts = sample_joints(model, np.random.default_rng(5), 64)[:, :1].tolist()
    nfes = set()
    for prompt, trace in zip(prompts, runs[greedy]):
        [(_, alone)] = decode_blockwise(den, greedy, [prompt], model.L - 1,
                                       np.random.default_rng(0))
        assert trace.to_jsonl() == alone.to_jsonl()
        nfes.add(trace.nfe)
    assert len(nfes) > 1  # the samples finished at different steps
    empty = 0
    for trace in runs[remask]:
        steps = trace.steps
        assert trace.nfe == len(steps)
        assert [(s.step, s.nfe) for s in steps] == [(k, k + 1) for k in range(trace.nfe)]
        assert sorted(trace.committed_positions()) == list(range(1, model.L))
        empty += sum(not s.positions for s in steps)
    assert empty  # remasking steps that committed nothing are listed


def test_run_experiment_records_failures_and_continues():
    good = PolicyConfig(scorer="confidence", selector="topk", steps=2,
                        temperature="sample")
    bad = PolicyConfig(scorer="dos", selector="topk", steps=2,
                       temperature="sample")  # no attentions from the oracle
    cfg = ExperimentConfig(
        joint="reference 17", prompt_len=1, policies=(bad, good),
        samples=200, seed=5,
    )
    result = run_experiment(cfg)
    assert len(result.rows) == 1
    assert len(result.failures) == 1
    assert result.failures[0][0] == bad.policy_id()


def test_experiment_config_validation():
    policy = PolicyConfig()
    with pytest.raises(ValueError):
        ExperimentConfig(joint="reference 1", policies=(), prompt_len=1)
    with pytest.raises(ValueError):
        ExperimentConfig(joint="reference 1", policies=(policy,), prompt_len=1,
                         samples=0)
    with pytest.raises(ValueError):
        ExperimentConfig(joint="reference 1", policies=(policy,), prompt_len=1,
                         mode="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(joint="reference 1", policies=(policy,), prompt_len=0)
    with pytest.raises(ValueError, match="prompt_len"):
        ExperimentConfig(joint="reference 1", policies=(policy,), prompt_len=-1)
    # refused here, not later inside SeedSequence
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(joint="reference 1", policies=(policy,), prompt_len=1, seed=-1)


def test_prompt_len_must_leave_a_position_to_generate():
    # layered 3 has L = 9; the run refuses prompt_len 9 before any policy runs
    policy = PolicyConfig(scorer="confidence", selector="topk", steps=2,
                          temperature="sample")
    for mode in ("exact", "mc"):
        cfg = ExperimentConfig(joint="layered 3", policies=(policy,), prompt_len=9,
                               samples=10, mode=mode)
        with pytest.raises(ValueError, match="prompt_len 9 must be below L=9"):
            run_experiment(cfg)


def test_run_experiment_from_file_joint(tmp_path):
    # running from a saved joint file reproduces the in-memory results
    model = reference_dag_model(19)
    path = str(tmp_path / "model.joint")
    save_joint_model(model, path)
    policy = PolicyConfig(scorer="oracle_dep", selector="topk", steps=2,
                          temperature="sample")
    from_file = ExperimentConfig(joint=f"file {path}", prompt_len=1,
                                 policies=(policy,), samples=10, seed=1)
    from_gen = replace(from_file, joint="reference 19")
    row_file = run_experiment(from_file).rows[0]
    row_gen = run_experiment(from_gen).rows[0]
    assert row_file.tv_distance == pytest.approx(row_gen.tv_distance, abs=1e-12)
    assert row_file.mean_nfe == pytest.approx(row_gen.mean_nfe, abs=1e-12)


def test_checkpoint_runs_are_exact_and_must_fit_the_joint(tmp_path):
    policy = PolicyConfig(scorer="dos", selector="topk", steps=4,
                          temperature="sample")
    cfg = ExperimentConfig(joint="layered 3", prompt_len=1, policies=(policy,),
                           samples=50, seed=3)
    ckpt = str(tmp_path / "m.ckpt")
    save_checkpoint(init_params(TransformerConfig(vocab_size=2, max_len=9, seed=1)), ckpt)
    run = replace(cfg, denoiser=f"checkpoint {ckpt}")
    [auto] = run_experiment(run).rows
    assert auto.samples == 0
    assert run_experiment(replace(run, mode="exact")).rows == [auto]
    for field, config in (
        ("vocab_size", TransformerConfig(vocab_size=3, seed=1)),  # V is 2
        ("max_len", TransformerConfig(vocab_size=2, max_len=4, seed=1)),  # L is 9
    ):
        save_checkpoint(init_params(config), ckpt)
        for mode in ("auto", "mc"):  # refused before any policy runs
            with pytest.raises(CheckpointError, match=field):
                run_experiment(replace(run, mode=mode))


def test_sweep_blocks_row_count():
    policies = (
        PolicyConfig(scorer="confidence", selector="topk", steps=4, temperature="sample"),
        PolicyConfig(scorer="margin", selector="threshold", temperature="sample"),
    )
    cfg = ExperimentConfig(joint="layered 0", prompt_len=1, policies=policies,
                           samples=10, seed=2)
    result = sweep(cfg, "block_size", [1, 2, 4, 8])
    # value-major: every policy at the first value, then every policy at the next
    assert [r.policy_id for r in result.rows] == [
        replace(p, block_size=size).policy_id() for size in (1, 2, 4, 8) for p in policies
    ]
    assert [r.block_size for r in result.rows] == [1, 1, 2, 2, 4, 4, 8, 8]


def test_sweep_layer_loads_the_checkpoint_once_and_fails_past_its_depth(tmp_path, monkeypatch):
    policy = PolicyConfig(scorer="dos", selector="topk", steps=2,
                          temperature="sample")
    cfg = ExperimentConfig(joint="reference 23", prompt_len=1,
                           policies=(policy,), samples=50, seed=4)
    # the oracle has no attention: each dos policy fails on its own
    result = sweep(cfg, "layer", [0, 1])
    assert not result.rows
    assert [pid for pid, _ in result.failures] == ["dos-topk-T2-l0-sample", "dos-topk-T2-l1-sample"]
    assert all("attentions" in err for _, err in result.failures)

    params = init_params(TransformerConfig(vocab_size=2, max_len=8, seed=0))  # 2 layers
    ckpt = str(tmp_path / "m.ckpt")
    save_checkpoint(params, ckpt)
    cfg = replace(cfg, denoiser=f"checkpoint {ckpt}")
    loads = []
    monkeypatch.setattr(
        "mdlmlab.harness.load_checkpoint", lambda path: loads.append(path) or load_checkpoint(path)
    )
    result = sweep(cfg, "layer", [0, 5])
    assert loads == [ckpt]  # the sweep's runs reuse the one loaded checkpoint
    [row] = result.rows
    assert (row.layer, row.samples) == (0, 0)  # exact, as in auto mode
    assert result.failures == [
        ("dos-topk-T2-l5-sample", repr(IndexError("layer 5 out of range for 2 layers")))
    ]
    again = sweep(cfg, "layer", [0, 1])
    assert again.rows[0] == row and again.rows[1].layer == 1


def test_reference_schedule_report_passes():
    report = reference_schedule_report(42)
    assert len(report) == 4
    assert all(entry["ok"] for entry in report)


def test_dependency_greedy_schedule_is_safe():
    # Dependency ranking may pull a child forward once its parents are
    # observed (that commit is exact), but it must never select a position
    # whose parents are still hidden, and the schedule as a whole must
    # reproduce the joint.
    from mdlmlab.oracle import exact_policy_distribution

    for seed in range(5):
        model = layered_suite_model(seed)
        sched = dependency_greedy_schedule(model, prompt_len=1, steps=4)
        observed = {0}
        for group in sched.groups:
            for pos in group:
                assert set(model.parents[pos]) <= observed, (seed, sched.groups)
            observed |= set(group)
        induced = exact_policy_distribution(model, sched, prompt_len=1)
        assert tv_distance(model_distribution(model), induced) < 1e-9


def test_mean_conditional_kl_zero_for_oracle():
    model = reference_dag_model(29)
    den = OracleDenoiser(model)
    rng = np.random.default_rng(0)
    kl = mean_conditional_kl(model, den, prompt_len=1, n_states=50, rng=rng)
    assert kl == pytest.approx(0.0, abs=1e-10)


def test_mean_conditional_kl_denoises_every_state_in_one_call():
    model = reference_dag_model(29)
    den = TransformerDenoiser(init_params(TransformerConfig(vocab_size=2, seed=7)))
    calls = []
    batch = den.batch
    den.batch = lambda states: calls.append(len(states)) or batch(states)
    kl = mean_conditional_kl(model, den, prompt_len=1, n_states=40,
                             rng=np.random.default_rng(3))
    assert calls == [40]
    # the same states, drawn the same way, each denoised alone
    rng = np.random.default_rng(3)
    total, count = 0.0, 0
    for _ in range(40):
        clean = SequenceState(model.vocab, sample_joint(model, rng), 1)
        state = clean
        while not state.masked_positions():
            state = forward_mask(clean, rng.uniform(0.0, 1.0), rng)
        probs = forward(den.params, state).probs
        for i, p in conditional_marginal(model, state).items():
            total += kl_divergence(p, probs[i])
            count += 1
    assert abs(kl - total / count) <= 1e-12


def test_metrics_csv_schema_stability():
    from mdlmlab.harness import MetricRow

    row = MetricRow("id", "confidence", "topk", 0, 0, 0.125, 0.5, 4.0, 100, 42)
    text = metrics_csv_text([row])
    lines = text.strip().split("\n")
    assert lines[0].startswith("# schema=")
    assert lines[1] == ",".join(METRIC_FIELDS)
    assert lines[2].split(",")[0] == "id"
    assert "0.125" in lines[2]


def test_policy_and_config_parsing(tmp_path):
    p = parse_policy("scorer=oracle_dep selector=eb gamma=0.02 temp=sample")
    assert p.scorer == "oracle_dep" and p.selector == "eb"
    assert p.gamma == 0.02 and p.temperature == "sample"
    with pytest.raises(ValueError):
        parse_policy("scorer=confidence bogus=1")
    model = reference_dag_model(42)
    for spec in ("", " ", "layered", "layered 1 2"):
        with pytest.raises(ValueError, match="bad joint spec"):
            resolve_joint(spec)
    for spec in ("", " ", "oracle x", "checkpoint"):
        with pytest.raises(ValueError, match="bad denoiser spec"):
            resolve_denoiser(spec, model)

    path = str(tmp_path / "exp.cfg")
    with open(path, "w") as fh:
        fh.write(
            "# comment line\n"
            "joint = reference 42\n"
            "denoiser = oracle\n"
            "prompt_len = 1\n"
            "samples = 500\n"
            "seed = 9\n"
            "policy = scorer=confidence selector=topk steps=2 temp=sample\n"
            "policy = scorer=oracle_dep selector=eb temp=sample\n"
        )
    cfg = load_experiment_config(path)
    assert cfg.joint == "reference 42"
    assert cfg.samples == 500 and cfg.seed == 9
    assert len(cfg.policies) == 2
    assert cfg.policies[1].gamma == 0.01  # defaults prefilled
    with open(path, "a") as fh:
        fh.write("mystery = 1\n")
    with pytest.raises(ValueError, match="mystery"):
        load_experiment_config(path)


def test_boolean_keys_parse_strictly(tmp_path):
    for text, want in (("true", True), ("FALSE", False), ("True", True)):
        assert parse_policy(f"remask={text}").stochastic_remask is want
    for bad in ("yes", "1", "tru", ""):
        with pytest.raises(ValueError, match="remask"):
            parse_policy(f"remask={bad}")

    path = str(tmp_path / "exp.cfg")

    def load(extra: str):
        with open(path, "w") as fh:
            fh.write("joint = reference 42\nprompt_len = 0\n"
                     "policy = scorer=confidence selector=topk\n" + extra)
        return load_experiment_config(path)

    assert load("unconditional = TRUE\n").unconditional is True
    with pytest.raises(ValueError, match="unconditional"):
        load("unconditional = yes\n")
    with pytest.raises(ValueError, match="unknown experiment key 'enum_limit'"):
        load("unconditional = true\nenum_limit = 100\n")


def test_dependency_topk_enumeration_equals_greedy_schedule():
    # the dependency_greedy_schedule contract: an oracle_dep top-k decode
    # follows that one fixed schedule, whatever values get revealed
    policy = PolicyConfig(scorer="oracle_dep", selector="topk", steps=4,
                          temperature="sample")
    for seed in range(20):
        model = layered_suite_model(seed)
        induced, _ = exact_induced_distribution(model, policy, prompt_len=1)
        sched = dependency_greedy_schedule(model, prompt_len=1, steps=4)
        reference = exact_policy_distribution(model, sched, prompt_len=1)
        assert induced.keys() == reference.keys()
        assert max(abs(induced[k] - reference[k]) for k in induced) <= 1e-12


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    V=st.integers(2, 3),
    L=st.integers(2, 4),
    prompt_len=st.integers(0, 1),
    scorer=st.sampled_from(("confidence", "entropy", "margin", "oracle_dep")),
    selector=st.sampled_from(SELECTORS),
    steps=st.integers(0, 5),
    block_size=st.integers(0, 4),
    temperature=st.sampled_from(("greedy", "sample")),
)
def test_induced_distributions_are_normalized_and_nfe_bounded(
    seed, V, L, prompt_len, scorer, selector, steps, block_size, temperature
):
    model = random_dag(np.random.default_rng(seed), V=V, L=L)
    policy = PolicyConfig(scorer=scorer, selector=selector, steps=steps,
                          block_size=block_size, temperature=temperature)
    gen_len = L - prompt_len
    dist, mean_nfe = exact_induced_distribution(model, policy, prompt_len)
    assert abs(math.fsum(dist.values()) - 1.0) <= 1e-12
    assert mean_nfe <= gen_len + 1e-12
    den = OracleDenoiser(model)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        prompt = sample_joint(model, rng)[:prompt_len]
        [(_, trace)] = decode_blockwise(den, policy, [prompt], gen_len, rng)
        assert 1 <= trace.nfe <= gen_len
