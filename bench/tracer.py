"""Per-layer spans for the traced benchmark run.

The benchmark wraps the public functions of each ``mdlmlab`` module from
here, so ``src/`` carries no tracing code. A wrapped call opens a span named
after its layer; when the span closes, its duration minus the time covered
by its child spans is added to the layer's self time. Spans are folded into
these totals as they close rather than kept as a list: an MC run closes
about a million of them.

All work runs on one thread, so one stack describes the open spans, and no
layer ever waits on another (there are no queues): self time is time busy.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# (layer, owner, attribute): owner is an ``mdlmlab`` module name, or
# ``module:Class`` for a method. Several functions may share one layer.
SPANS = (
    ("core.with_tokens", "core:SequenceState", "with_tokens"),
    ("core.forward_mask", "core", "forward_mask"),
    ("oracle.denoise", "oracle:OracleDenoiser", "__call__"),
    ("oracle.conditional_marginal", "oracle", "conditional_marginal"),
    ("oracle.dependency", "oracle:OracleDenoiser", "dependency_scores"),
    ("oracle.dependency", "oracle", "oracle_dependency"),
    ("oracle.sample_joint", "oracle", "sample_joint"),
    ("scoring", "scoring", "uncertainty_scores"),
    ("scoring", "scoring", "confidence_vector"),
    ("scoring", "scoring", "entropy_vector"),
    ("scoring.dos_dependency", "scoring", "dos_dependency"),
    ("decoding.decode_blockwise", "decoding", "decode_blockwise"),
    ("decoding.plan_step", "decoding", "plan_step"),
    ("decoding.select", "decoding", "select_topk"),
    ("decoding.select", "decoding", "select_threshold"),
    ("decoding.select", "decoding", "select_klass"),
    ("decoding.select", "decoding", "select_eb"),
    ("decoding.commit_token", "decoding", "commit_token"),
    ("decoding.history_copy", "decoding:History", "copy"),
    ("nn.forward", "nn", "forward"),
    ("nn.loss_and_grad", "nn", "loss_and_grad_on_corrupted"),
    ("nn.corrupt_batch", "nn", "corrupt_batch"),
    ("nn.train", "nn", "train"),
    ("harness.run_policy", "harness", "run_policy"),
    ("harness.exact_walk", "harness", "exact_induced_distribution"),
    ("harness.metrics", "harness", "tv_distance"),
    ("harness.metrics", "harness", "kl_target_induced"),
    ("harness.metrics", "harness", "empirical_distribution"),
    ("harness.metrics", "oracle", "model_distribution"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in SPANS))

_MARK = "__bench_span__"


class Tracer:
    """Call counts and self time per layer, from properly nested spans.

    ``calls[layer]`` counts entries into a layer from outside it, so a layer
    function calling another function of the same layer is one call;
    ``fn_calls[name]`` counts every call of each wrapped function.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: Counter = Counter()
        self.fn_calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.rows = 0
        self._stack: list[list] = []  # [layer, start, time covered by children]

    def enter(self, layer: str, name: str) -> None:
        if not self._stack or self._stack[-1][0] != layer:
            self.calls[layer] += 1
        self.fn_calls[name] += 1
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        layer, start, children = self._stack.pop()
        duration = self.clock() - start
        self.self_s[layer] += duration - children
        if self._stack:
            self._stack[-1][2] += duration


def _owner(spec: str):
    module_name, _, class_name = spec.partition(":")
    module = sys.modules[f"mdlmlab.{module_name}"]
    return getattr(module, class_name) if class_name else module


def _wrap(fn, tracer: Tracer, layer: str, name: str):
    enter, exit_ = tracer.enter, tracer.exit

    if layer == "nn.forward":

        @functools.wraps(fn)
        def wrapper(params, state, *args, **kwargs):
            # rows fed through the forward pass: 1 for one SequenceState
            tracer.rows += len(np.atleast_2d(np.asarray(state.tokens)))
            enter(layer, name)
            try:
                return fn(params, state, *args, **kwargs)
            finally:
                exit_()

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

    setattr(wrapper, _MARK, layer)
    return wrapper


def _mdlmlab_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "mdlmlab" or name.startswith("mdlmlab.")
    ]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every function in ``SPANS`` for the duration of the block.

    A module function is replaced in every ``mdlmlab`` namespace that binds
    it (``from .core import forward_mask`` makes ``nn.forward_mask`` one
    more binding); a method is replaced on its class. Every original is put
    back on exit, also when the block raises.
    """
    patched: list[tuple[object, str, object]] = []
    try:
        for layer, owner_spec, attr in SPANS:
            owner = _owner(owner_spec)
            name = f"{owner_spec}.{attr}"
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                setattr(owner, attr, _wrap(original, tracer, layer, name))
                patched.append((owner, attr, original))
                continue
            original = getattr(owner, attr)
            wrapper = _wrap(original, tracer, layer, name)
            for mod in _mdlmlab_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        patched.append((mod, key, original))
        yield tracer
    finally:
        for owner, key, original in reversed(patched):
            setattr(owner, key, original)


def leftover_wrappers() -> list[str]:
    """Names in ``mdlmlab`` modules and their classes that are still wrapped."""
    found = []
    for mod in _mdlmlab_modules():
        for key, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if hasattr(member, _MARK):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return found


def layer_metrics(tracer: Tracer, traced_s: float, overhead: float) -> dict:
    """The per-layer metrics of one traced run, by name, as (value, unit).

    ``traced_s`` is the time the traced operations took, summed. Self times
    are shares of it, in percent; a layer the workload never calls reads 0.
    ``trace.ops_ms`` turns a share back into milliseconds;
    ``nn.forward.ms_per_call`` is the forward's self time per call (0 when
    it is never called). ``overhead`` is the traced over the untraced time
    of the same work.
    """

    def pct(layer: str) -> float:
        return 100.0 * tracer.self_s[layer] / traced_s

    c, f = tracer.calls, tracer.fn_calls
    denoise = c["oracle.denoise"]
    out = {
        "trace.ops_ms": (1000.0 * traced_s, "ms"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "oracle.denoise.hit_ratio": (
            1.0 - c["oracle.conditional_marginal"] / denoise if denoise else 0.0,
            "ratio",
        ),
        "oracle.dependency.misses": (f["oracle.oracle_dependency"], "count"),
        "nn.forward.rows": (tracer.rows, "count"),
        "nn.forward.ms_per_call": (
            1000.0 * tracer.self_s["nn.forward"] / c["nn.forward"]
            if c["nn.forward"]
            else 0.0,
            "ms",
        ),
    }
    for layer in LAYERS:
        out[f"{layer}.calls"] = (c[layer], "count")
        out[f"{layer}.self_pct"] = (pct(layer), "%")
    return out
