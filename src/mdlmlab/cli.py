"""Command-line interface: train, decode, evaluate, sweep, fig2.

Config files are line-oriented ``key = value`` text; ``#`` starts a comment.
The ``policy`` key may repeat, one decoding policy per line, with
space-separated ``key=value`` pairs (defaults: eps=0.95, gamma=0.01, n=2).
A policy key is a ``PolicyConfig`` field or one of ``_POLICY_ALIASES``;
``sweep KEY --values v1,v2,...`` re-runs every policy at each value of KEY.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from typing import get_args, get_type_hints

import numpy as np

from .decoding import PolicyConfig, decode_blockwise
from .harness import (
    ExperimentConfig,
    reference_schedule_report,
    resolve_denoiser,
    resolve_joint,
    run_experiment,
    sweep,
)
from .nn import TransformerConfig, save_checkpoint, train


def read_kv_file(path: str) -> list[tuple[str, str]]:
    """Parse a line-oriented key = value file, preserving order and repeats."""
    pairs: list[tuple[str, str]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            pairs.append((key.strip(), value.strip()))
    return pairs


def _parse_bool(key: str, value: str) -> bool:
    """``true`` or ``false`` in any case, else a ValueError naming ``key``."""
    low = value.lower()
    if low not in ("true", "false"):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return low == "true"


def _typed(owner, name: str, value: str, key: str | None = None):
    """``value`` as the annotated type of ``name`` on a dataclass or function
    (``X | None`` as ``X``); a malformed value raises a ValueError naming ``key``."""
    key = key or name
    kind = get_type_hints(owner)[name]
    kind = next((a for a in get_args(kind) if a is not type(None)), kind)
    if kind is bool:
        return _parse_bool(key, value)
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"{key} must be {kind.__name__}, got {value!r}") from None


# Short spellings of policy keys; every PolicyConfig field name is a key too.
_POLICY_ALIASES = {
    "block": "block_size",
    "temp": "temperature",
    "n": "n_history",
    "remask": "stochastic_remask",
    "dep_prefilter": "dep_eb_prefilter",
}


def _policy_field(key: str) -> str:
    """The ``PolicyConfig`` field a policy key names: the field or its alias."""
    name = _POLICY_ALIASES.get(key, key)
    if name not in {f.name for f in fields(PolicyConfig)}:
        raise ValueError(f"unknown policy key {key!r}")
    return name


def parse_policy(text: str) -> PolicyConfig:
    kwargs = {}
    for token in text.split():
        if "=" not in token:
            raise ValueError(f"bad policy token {token!r}")
        key, value = token.split("=", 1)
        name = _policy_field(key)
        kwargs[name] = _typed(PolicyConfig, name, value, key)
    return PolicyConfig(**kwargs)


def load_experiment_config(path: str) -> ExperimentConfig:
    names = {f.name for f in fields(ExperimentConfig)} - {"policies"}
    kwargs: dict = {}
    policies: list[PolicyConfig] = []
    for key, value in read_kv_file(path):
        if key == "policy":
            policies.append(parse_policy(value))
        elif key in names:
            kwargs[key] = _typed(ExperimentConfig, key, value)
        else:
            raise ValueError(f"{path}: unknown experiment key {key!r}")
    return ExperimentConfig(policies=tuple(policies), **kwargs)


def load_train_config(path: str) -> dict:
    names = {f.name for f in fields(TransformerConfig)}
    model_kwargs: dict = {}
    extra: dict = {"prompt_len": 0, "loss_curve_out": None}
    for key, value in read_kv_file(path):
        if key in names:
            model_kwargs[key] = _typed(TransformerConfig, key, value)
        elif key == "prompt_len":
            extra[key] = _typed(train, key, value)
        elif key in ("joint", "checkpoint_out", "loss_curve_out"):
            extra[key] = value
        else:
            raise ValueError(f"{path}: unknown train key {key!r}")
    for required in ("joint", "checkpoint_out"):
        if required not in extra:
            raise ValueError(f"{path}: missing required key {required!r}")
    extra["config"] = TransformerConfig(**model_kwargs)
    return extra


def _cmd_train(args) -> int:
    spec = load_train_config(args.config)
    model = resolve_joint(spec["joint"])
    config: TransformerConfig = spec["config"]
    if config.vocab_size != model.vocab.size:
        raise ValueError(
            f"vocab_size {config.vocab_size} does not match the joint ({model.vocab.size})"
        )
    losses: list[float] = []

    def on_step(step: int, loss: float) -> None:
        losses.append(loss)
        if step % 1000 == 0 or step == config.train_steps - 1:
            print(f"step {step:6d}  loss {loss:.4f}")

    params = train(config, model, prompt_len=spec["prompt_len"], on_step=on_step)
    save_checkpoint(params, spec["checkpoint_out"])
    print(f"checkpoint written to {spec['checkpoint_out']}")
    if spec["loss_curve_out"]:
        with open(spec["loss_curve_out"], "w", encoding="utf-8") as fh:
            fh.write("step,loss\n")
            for i, l in enumerate(losses):
                fh.write(f"{i},{l!r}\n")
        print(f"loss curve written to {spec['loss_curve_out']}")
    return 0


def _cmd_decode(args) -> int:
    model = resolve_joint(args.joint)
    denoiser = resolve_denoiser(args.denoiser, model)
    policy = parse_policy(args.policy)
    try:
        prompt = [int(t) for t in args.prompt.split(",") if t]
    except ValueError:
        raise ValueError(f"--prompt must be comma-separated ints, got {args.prompt!r}") from None
    gen_len = model.L - len(prompt)
    if gen_len < 1:
        raise ValueError(f"--prompt has {len(prompt)} tokens; it must be shorter than L={model.L}")
    rng = np.random.default_rng(args.seed)
    [(final, trace)] = decode_blockwise(denoiser, policy, [prompt], gen_len, rng)
    print("sequence:", " ".join(str(t) for t in final))
    print("nfe:", trace.nfe)
    if args.trace:
        trace.write_jsonl(args.trace)
        print(f"trace written to {args.trace}")
    return 0


def _experiment_config(args) -> ExperimentConfig:
    """The --config file, with --out (when given) replacing its ``out``."""
    cfg = load_experiment_config(args.config)
    return replace(cfg, out=args.out) if args.out else cfg


def _report(result, out: str | None) -> int:
    for row in result.rows:
        print(
            f"{row.policy_id:32s} tv={row.tv_distance:.6f} "
            f"kl={row.kl_divergence:.6f} nfe={row.mean_nfe:.2f}"
        )
    for pid, err in result.failures:
        print(f"{pid}: FAILED ({err})", file=sys.stderr)
    if out:
        print(f"metrics written to {out}")
    return 1 if result.failures else 0


def _cmd_evaluate(args) -> int:
    cfg = _experiment_config(args)
    return _report(run_experiment(cfg), cfg.out)


def _cmd_sweep(args) -> int:
    cfg = _experiment_config(args)
    name = _policy_field(args.key)
    values = [_typed(PolicyConfig, name, v, args.key) for v in args.values.split(",") if v]
    if not values:
        raise ValueError(f"--values must list at least one value, got {args.values!r}")
    return _report(sweep(cfg, name, values), cfg.out)


def _cmd_fig2(args) -> int:
    report = reference_schedule_report(args.seed)
    all_ok = True
    for entry in report:
        status = "PASS" if entry["ok"] else "FAIL"
        all_ok &= entry["ok"]
        print(
            f"{entry['schedule']:18s} expected={entry['expected']:10s} "
            f"tv={entry['tv']:.6f}  {status}"
        )
    print("overall:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdlmlab",
        description="Masked-diffusion decoding laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the tiny denoiser from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("decode", help="run one decode and print the sequence")
    p.add_argument("--joint", required=True, help="'file PATH' | 'reference SEED' | 'layered SEED'")
    p.add_argument("--denoiser", default="oracle", help="'oracle' | 'checkpoint PATH'")
    p.add_argument("--policy", default="scorer=confidence selector=topk")
    p.add_argument("--prompt", default="", help="comma-separated token ids")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trace", default=None, help="write the JSONL step trace here")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("evaluate", help="run an experiment config and emit CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser(
        "sweep", help="re-run every policy of a config at each value of one policy key"
    )
    p.add_argument("key", metavar="KEY", help="a policy key, e.g. block, layer, gamma, steps")
    p.add_argument("--config", required=True)
    p.add_argument("--values", required=True, help="comma-separated values of KEY's type")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "fig2", help="verify which parallel schedules recover the reference joint"
    )
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_fig2)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
