"""Outputs that must not move by a bit, checked against recorded data.

``tests/data/suite_digests.json`` holds one SHA-256 per suite model: of its
parents and of each CPT's shape, dtype and bytes, for ``layered_suite_model``
seeds 0-39 and ``reference_dag_model`` seeds 0-39 and 42. The
``tests/data/golden_*.csv`` files hold ``metrics_csv_text`` of fixed
experiments on ``layered 3``: the oracle and an untrained transformer, each
in mode auto and in mode mc. ``tests/data/training_digests.json`` holds two
SHA-256s of training: of the losses and final parameter bytes of a 200-step
``nn.train`` on ``reference 42``, and of the gradient bytes of one
``loss_and_grad_on_corrupted`` call on a fixed batch at those parameters.
It also holds the SHA-256 of the ``save_checkpoint`` file of two untrained
configs, ``CHECKPOINTS``.

A change that is meant to keep every bit leaves these passing unchanged. A
change that moves bits on purpose rewrites the data with

    PYTHONPATH=src python tests/test_golden_outputs.py

and states the drift it made.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from mdlmlab.decoding import PolicyConfig as Policy
from mdlmlab.harness import (
    ExperimentConfig, layered_suite_model, metrics_csv_text, reference_dag_model, run_experiment,
)
from mdlmlab.nn import (
    TransformerConfig, corrupt_batch, init_params, loss_and_grad_on_corrupted, param_specs,
    save_checkpoint, train,
)
from mdlmlab.oracle import sample_joints

DATA = Path(__file__).resolve().parent / "data"
SUITE_DIGESTS = DATA / "suite_digests.json"
SUITES = {
    "layered": (layered_suite_model, range(40)),
    "reference": (reference_dag_model, (*range(40), 42)),
}
JOINT = "layered 3"
TRAINING_DIGESTS = DATA / "training_digests.json"
# nn.train as the benchmark's train workload runs it, for 200 steps
TRAINING = TransformerConfig(vocab_size=2, seed=7, train_steps=200)
TRAINING_PROMPT_LEN = 1
# training_digests.json key -> the config whose init_params is saved
CHECKPOINTS = {
    "checkpoint_vocab2_seed7": TransformerConfig(vocab_size=2, seed=7),
    "checkpoint_3layer_vocab3_seed1": TransformerConfig(n_layers=3, n_heads=4, d_model=16, max_len=6,
                                           vocab_size=3, seed=1),
}


def _topk(scorer: str, steps: int, block_size: int = 0, layer: int = 0) -> Policy:
    return Policy(scorer=scorer, steps=steps, block_size=block_size, layer=layer,
                  temperature="sample")


ORACLE_POLICIES = (
    *(_topk(s, 4) for s in ("oracle_dep", "confidence", "entropy", "margin")),
    *(_topk(s, 4, b) for s in ("oracle_dep", "confidence") for b in (1, 2, 4)),
    *(Policy(selector=k, temperature="sample") for k in ("threshold", "klass", "eb")),
    Policy(scorer="oracle_dep", selector="eb", temperature="sample"),
    Policy(selector="klass", n_history=3, tau=0.6, eps_kl=0.1, temperature="sample"),
    Policy(scorer="oracle_dep", selector="eb", dep_eb_prefilter=0.05, temperature="sample"),
    Policy(steps=4),
    Policy(steps=4, stochastic_remask=True, temperature="sample"),
)
TRANSFORMER_POLICIES = (
    _topk("dos", 4),
    _topk("dos", 4, block_size=4, layer=1),
    _topk("confidence", 4),
    Policy(selector="klass", temperature="sample"),
)
# file stem -> (denoiser, policies, mode, samples)
EXPERIMENTS = {
    "golden_oracle_auto": ("oracle", ORACLE_POLICIES, "auto", 2000),
    "golden_oracle_mc": ("oracle", ORACLE_POLICIES, "mc", 2000),
    "golden_transformer_auto": ("transformer", TRANSFORMER_POLICIES, "auto", 500),
    "golden_transformer_mc": ("transformer", TRANSFORMER_POLICIES, "mc", 500),
}


def suite_digest(model) -> str:
    h = hashlib.sha256(repr(model.parents).encode())
    for cpt in model.cpts:
        h.update(repr((cpt.shape, cpt.dtype.str)).encode())
        h.update(cpt.tobytes())
    return h.hexdigest()


def suite_digests() -> dict[str, dict[str, str]]:
    return {name: {str(s): suite_digest(build(s)) for s in seeds}
            for name, (build, seeds) in SUITES.items()}


def experiment_csv(stem: str, workdir: Path) -> str:
    """The metrics CSV of one golden experiment. The transformer is
    ``init_params(TransformerConfig(vocab_size=2, seed=7))``, saved under
    ``workdir``."""
    denoiser, policies, mode, samples = EXPERIMENTS[stem]
    if denoiser == "transformer":
        path = workdir / "untrained.ckpt"
        save_checkpoint(init_params(TransformerConfig(vocab_size=2, seed=7)), str(path))
        denoiser = f"checkpoint {path}"
    cfg = ExperimentConfig(joint=JOINT, denoiser=denoiser, prompt_len=1, policies=policies,
                           samples=samples, seed=5, mode=mode)
    result = run_experiment(cfg)
    assert result.failures == [], result.failures
    return metrics_csv_text(result.rows)


def _params_digest(h, tensors) -> None:
    for name, _ in param_specs(TRAINING):
        h.update(name.encode())
        h.update(tensors[name].tobytes())


def training_digests() -> dict[str, str]:
    """``train``: the losses and final parameters of ``nn.train(TRAINING)``
    on ``reference 42`` with ``default_rng(7)``. ``gradient``: the loss and
    gradients of one ``loss_and_grad_on_corrupted`` call at those
    parameters, on a batch drawn and corrupted with ``default_rng(11)``."""
    model = reference_dag_model(42)
    losses: list[float] = []
    params = train(TRAINING, model, TRAINING_PROMPT_LEN, np.random.default_rng(7),
                   lambda step, loss: losses.append(loss))
    trained = hashlib.sha256(np.array(losses).tobytes())
    _params_digest(trained, params.tensors)
    rng = np.random.default_rng(11)
    x0 = sample_joints(model, rng, TRAINING.batch_size)
    corrupted, loss_mask, weights, _ = corrupt_batch(TRAINING, x0, TRAINING_PROMPT_LEN, rng)
    loss, grads = loss_and_grad_on_corrupted(params, corrupted, x0, loss_mask, weights)
    gradient = hashlib.sha256(np.float64(loss).tobytes())
    _params_digest(gradient, grads)
    return {"train": trained.hexdigest(), "gradient": gradient.hexdigest()}


def checkpoint_digests(workdir: Path) -> dict[str, str]:
    """The SHA-256 of each ``CHECKPOINTS`` file, saved under ``workdir``."""
    digests = {}
    for key, config in CHECKPOINTS.items():
        path = workdir / f"{key}.ckpt"
        save_checkpoint(init_params(config), str(path))
        digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_suite_models_keep_their_bits():
    assert suite_digests() == json.loads(SUITE_DIGESTS.read_text())


@pytest.mark.parametrize("stem", sorted(EXPERIMENTS))
def test_metrics_csv_keeps_its_bytes(stem, tmp_path):
    want = (DATA / f"{stem}.csv").read_bytes()
    assert experiment_csv(stem, tmp_path).encode() == want


def test_training_keeps_its_bits():
    want = json.loads(TRAINING_DIGESTS.read_text())
    assert training_digests() == {key: want[key] for key in ("train", "gradient")}


def test_checkpoints_keep_their_bytes(tmp_path):
    want = json.loads(TRAINING_DIGESTS.read_text())
    assert checkpoint_digests(tmp_path) == {key: want[key] for key in CHECKPOINTS}


def _write_data() -> None:
    DATA.mkdir(exist_ok=True)
    SUITE_DIGESTS.write_text(json.dumps(suite_digests(), indent=1) + "\n")
    with tempfile.TemporaryDirectory() as workdir:
        digests = {**training_digests(), **checkpoint_digests(Path(workdir))}
        TRAINING_DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
        for stem in EXPERIMENTS:
            text = experiment_csv(stem, Path(workdir))
            (DATA / f"{stem}.csv").write_bytes(text.encode())


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} (no arguments: rewrites {DATA})")
    _write_data()
