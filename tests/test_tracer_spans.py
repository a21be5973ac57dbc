"""The traced benchmark run (``bench/run.py --trace 1``) wraps the functions
that ``bench/tracer.py`` lists in ``SPANS``; a rename in ``mdlmlab`` that
drops one of them breaks that run, so it should fail here as well."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import mdlmlab  # noqa: F401 - the tracer looks owners up in sys.modules
from mdlmlab import nn
from mdlmlab.decoding import PolicyConfig
from mdlmlab.harness import (
    ExperimentConfig, layered_suite_model, reference_dag_model, run_policy,
)
from mdlmlab.nn import TransformerConfig, TransformerDenoiser, init_params
from mdlmlab.oracle import OracleDenoiser

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves():
    tracer = _load_tracer()
    assert tracer.SPANS
    for layer, owner_spec, attr in tracer.SPANS:
        owner = tracer._owner(owner_spec)
        # methods are wrapped through the class dict, functions by attribute
        found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(
            owner, attr, None
        )
        assert callable(found), f"{layer}: {owner_spec}.{attr} does not resolve"


def test_lockstep_mc_run_is_attributed_per_step():
    # 16 samples at T=4 advance together: one forward over a step's 16
    # rows, of which it runs the distinct ones, one scoring call and one
    # token draw per step. A path around the traced names would read 0 here.
    tracer = _load_tracer()
    model = layered_suite_model(3)
    den = TransformerDenoiser(init_params(TransformerConfig(vocab_size=2, seed=7)))
    handed, ran = [], []
    batch, forward_batch = den.batch, nn._forward_batch
    den.batch = lambda states: handed.append(states.tokens.copy()) or batch(states)

    def recording(p, tokens, tape=None):  # counts the distinct rows each forward runs
        out = forward_batch(p, tokens, tape)
        ran.append(len(out[0]))
        return out

    policy = PolicyConfig(scorer="confidence", selector="topk", steps=4,
                          temperature="sample")
    cfg = ExperimentConfig(joint="layered 3", prompt_len=1, policies=(policy,),
                           samples=16, mode="mc")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "_forward_batch", recording)
        with tracer.installed(tracer.Tracer()) as t:
            run_policy(model, den, policy, cfg, np.random.default_rng(0))
    assert not tracer.leftover_wrappers()
    assert t.calls["nn.forward"] == 4
    assert [len(tokens) for tokens in handed] == [16] * 4
    assert t.rows == 64  # the rows handed to the forward
    assert sum(ran) == sum(len(np.unique(tokens, axis=0)) for tokens in handed) < 64
    assert t.calls["decoding.commit_token"] == 4
    assert t.calls["scoring"] == 4
    assert t.calls["decoding.decode_blockwise"] == 1


def test_exact_transformer_run_is_attributed_per_forward():
    # auto mode enumerates a transformer's decode too: one exact walk, no
    # sampler, and one batched forward per enumeration level over every
    # prompt's states (top-k at T=4: levels of 2, 8, 32 and 128 states)
    tracer = _load_tracer()
    model = layered_suite_model(3)
    den = TransformerDenoiser(init_params(TransformerConfig(vocab_size=2, seed=7)))
    for selector, calls, rows in (("topk", 4, 170), ("threshold", 8, 510),
                                  ("klass", 8, 510), ("eb", 8, 510)):
        policy = PolicyConfig(scorer="dos", selector=selector, steps=4,
                              temperature="sample")
        cfg = ExperimentConfig(joint="layered 3", prompt_len=1, policies=(policy,),
                               mode="auto")
        with tracer.installed(tracer.Tracer()) as t:
            row, _ = run_policy(model, den, policy, cfg, np.random.default_rng(0))
        assert not tracer.leftover_wrappers()
        assert row.samples == 0
        assert t.calls["harness.exact_walk"] == 1
        assert t.calls["decoding.decode_blockwise"] == 0
        assert (t.calls["nn.forward"], t.rows) == (calls, rows)


def test_exact_oracle_run_keeps_its_work_under_traced_names():
    # the exact walk holds token tuples, so no commit derives a SequenceState,
    # and the oracle answers each enumeration level (2, 8, 32 and 128 rows)
    # in one traced call, without conditional_marginal
    tracer = _load_tracer()
    model = layered_suite_model(3)
    policy = PolicyConfig(scorer="confidence", selector="topk", steps=4,
                          temperature="sample")
    cfg = ExperimentConfig(joint="layered 3", prompt_len=1, policies=(policy,),
                           mode="exact")
    with tracer.installed(tracer.Tracer()) as t:
        row, _ = run_policy(model, OracleDenoiser(model), policy, cfg,
                            np.random.default_rng(0))
    assert not tracer.leftover_wrappers()
    assert row.samples == 0
    assert t.calls["core.with_tokens"] == 0
    assert t.calls["oracle.denoise"] == 4
    assert t.calls["oracle.conditional_marginal"] == 0
    assert t.self_s["oracle.denoise"] > 0.0


def test_training_masks_each_batch_in_one_forward_mask_call():
    # nn.train corrupts each batch with one core.forward_mask call, made from
    # inside nn.corrupt_batch, so the span counts one call per train step
    tracer = _load_tracer()
    t = tracer.Tracer()
    parents = []
    enter = t.enter

    def spy(layer, name):
        if layer == "core.forward_mask":
            parents.append(t._stack[-1][0] if t._stack else None)
        enter(layer, name)

    t.enter = spy
    cfg = TransformerConfig(n_layers=1, d_model=8, max_len=5, batch_size=8,
                            train_steps=3, seed=0)
    with tracer.installed(t):
        nn.train(cfg, reference_dag_model(42), prompt_len=1)  # the traced binding
    assert not tracer.leftover_wrappers()
    assert t.calls["nn.train"] == 1 and t.calls["nn.corrupt_batch"] == 3
    assert t.calls["core.forward_mask"] == 3
    assert parents == ["nn.corrupt_batch"] * 3
