"""Command-line interface: train, decode, evaluate, sweep, fig2.

Config files are line-oriented ``key = value`` text; ``#`` starts a comment.
The ``policy`` key may repeat, one decoding policy per line, with
space-separated ``key=value`` pairs (defaults: eps=0.95, gamma=0.01, n=2).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from .decoding import PolicyConfig, decode_blockwise
from .harness import (
    ExperimentConfig,
    reference_schedule_report,
    resolve_denoiser,
    resolve_joint,
    run_experiment,
    sweep_blocks,
    sweep_layers,
    write_metrics_csv,
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


_POLICY_KEYS = {
    "scorer": ("scorer", str),
    "selector": ("selector", str),
    "steps": ("steps", int),
    "block": ("block_size", int),
    "block_size": ("block_size", int),
    "temp": ("temperature", str),
    "temperature": ("temperature", str),
    "layer": ("layer", int),
    "eps": ("eps", float),
    "tau": ("tau", float),
    "eps_kl": ("eps_kl", float),
    "n": ("n_history", int),
    "gamma": ("gamma", float),
    "remask": ("stochastic_remask", lambda s: _parse_bool("remask", s)),
    "dep_prefilter": ("dep_eb_prefilter", float),
}


def parse_policy(text: str) -> PolicyConfig:
    kwargs = {}
    for token in text.split():
        if "=" not in token:
            raise ValueError(f"bad policy token {token!r}")
        key, value = token.split("=", 1)
        if key not in _POLICY_KEYS:
            raise ValueError(f"unknown policy key {key!r}")
        name, conv = _POLICY_KEYS[key]
        kwargs[name] = conv(value)
    return PolicyConfig(**kwargs)


def load_experiment_config(path: str) -> ExperimentConfig:
    pairs = read_kv_file(path)
    kwargs: dict = {}
    policies: list[PolicyConfig] = []
    for key, value in pairs:
        if key == "policy":
            policies.append(parse_policy(value))
        elif key in ("joint", "denoiser", "mode", "out"):
            kwargs[key] = value
        elif key in ("prompt_len", "samples", "seed"):
            kwargs[key] = int(value)
        elif key == "unconditional":
            kwargs[key] = _parse_bool(key, value)
        else:
            raise ValueError(f"{path}: unknown experiment key {key!r}")
    return ExperimentConfig(policies=tuple(policies), **kwargs)


def load_train_config(path: str) -> dict:
    pairs = read_kv_file(path)
    cfg_fields = {f.name: f.type for f in fields(TransformerConfig)}
    model_kwargs: dict = {}
    extra: dict = {"prompt_len": 0, "loss_curve_out": None}
    for key, value in pairs:
        if key in cfg_fields:
            model_kwargs[key] = (
                float(value) if key in ("learning_rate", "t_min") else int(value)
            )
        elif key == "joint":
            extra["joint"] = value
        elif key == "prompt_len":
            extra["prompt_len"] = int(value)
        elif key == "checkpoint_out":
            extra["checkpoint_out"] = value
        elif key == "loss_curve_out":
            extra["loss_curve_out"] = value
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
    prompt = [int(t) for t in args.prompt.split(",") if t] if args.prompt else []
    prompt_len = len(prompt)
    gen_len = args.gen_len if args.gen_len else model.L - prompt_len
    rng = np.random.default_rng(args.seed)
    [(final, trace)] = decode_blockwise(denoiser, policy, [prompt], gen_len, rng)
    print("sequence:", " ".join(str(t) for t in final.tokens))
    print("nfe:", trace.nfe)
    if args.trace:
        trace.write_jsonl(args.trace)
        print(f"trace written to {args.trace}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = load_experiment_config(args.config)
    if args.out:
        from dataclasses import replace

        cfg = replace(cfg, out=args.out)
    result = run_experiment(cfg)
    for row in result.rows:
        print(
            f"{row.policy_id:32s} tv={row.tv_distance:.6f} "
            f"kl={row.kl_divergence:.6f} nfe={row.mean_nfe:.2f}"
        )
    for pid, err in result.failures:
        print(f"{pid}: FAILED ({err})", file=sys.stderr)
    if cfg.out:
        print(f"metrics written to {cfg.out}")
    return 1 if result.failures else 0


def _cmd_sweep(args) -> int:
    cfg = load_experiment_config(args.config)
    values = [int(v) for v in args.values.split(",") if v]
    if args.what == "blocks":
        result = sweep_blocks(cfg, values)
    else:
        result = sweep_layers(cfg, values)
    if args.out:
        write_metrics_csv(result.rows, args.out)
        print(f"metrics written to {args.out}")
    for row in result.rows:
        print(
            f"{row.policy_id:32s} tv={row.tv_distance:.6f} nfe={row.mean_nfe:.2f}"
        )
    for pid, err in result.failures:
        print(f"{pid}: FAILED ({err})", file=sys.stderr)
    return 1 if result.failures else 0


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
    p.add_argument("--gen-len", type=int, default=0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trace", default=None, help="write the JSONL step trace here")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("evaluate", help="run an experiment config and emit CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="sweep block sizes or attention layers")
    p.add_argument("what", choices=["blocks", "layers"])
    p.add_argument("--config", required=True)
    p.add_argument("--values", required=True, help="comma-separated integers")
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
