"""The traced benchmark run (``bench/run.py --trace 1``) wraps the functions
that ``bench/tracer.py`` lists in ``SPANS``; a rename in ``mdlmlab`` that
drops one of them breaks that run, so it should fail here as well."""

import importlib.util
from pathlib import Path

import mdlmlab  # noqa: F401 - the tracer looks owners up in sys.modules

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
