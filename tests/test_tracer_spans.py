"""The traced benchmark run (``bench/run.py --trace 1``) wraps the functions
that ``bench/tracer.py`` lists in ``SPANS``; a rename in ``mdlmlab`` that
drops one of them breaks that run, so it should fail here as well."""

import importlib.util
from pathlib import Path

import numpy as np

import mdlmlab  # noqa: F401 - the tracer looks owners up in sys.modules
from mdlmlab.decoding import PolicyConfig
from mdlmlab.harness import ExperimentConfig, layered_suite_model, run_policy
from mdlmlab.nn import TransformerConfig, TransformerDenoiser, init_params

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
    # 16 samples at T=4 advance together: one forward of 16 rows, one
    # scoring call and one token draw per step. A path around the traced
    # names would read 0 here.
    tracer = _load_tracer()
    model = layered_suite_model(3)
    den = TransformerDenoiser(init_params(TransformerConfig(vocab_size=2, seed=7)))
    policy = PolicyConfig(scorer="confidence", selector="topk", steps=4,
                          temperature="sample")
    cfg = ExperimentConfig(joint="layered 3", prompt_len=1, policies=(policy,),
                           samples=16, mode="mc")
    with tracer.installed(tracer.Tracer()) as t:
        run_policy(model, den, policy, cfg, np.random.default_rng(0))
    assert not tracer.leftover_wrappers()
    assert t.calls["nn.forward"] == 4
    assert t.rows == 64
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
