"""A tiny bidirectional transformer denoiser with manual backpropagation.

Pre-norm encoder blocks, learned positional embeddings, exact (erf) GELU,
full bidirectional attention, no dropout. The output head covers the V
content tokens only, so the mask symbol always has probability zero. Every
attention matrix is returned from the forward pass; that tensor is the input
to attention-based dependency scoring.

All tensors are float64, which keeps finite-difference gradient checks tight.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.special import erf

from .core import DenoiserOutput, SequenceState, StateBatch, Vocabulary, alpha, token_rows
# ``sample_joint`` stays bound here: the traced benchmark wraps it in every
# module that imports it, and bench/selftest.py checks this binding
from .oracle import JointModel, sample_joint, sample_joints  # noqa: F401


class CheckpointError(ValueError):
    """Malformed, truncated, or mismatched checkpoint file."""


@dataclass(frozen=True)
class TransformerConfig:
    n_layers: int = 2
    n_heads: int = 2
    d_model: int = 32
    max_len: int = 16
    vocab_size: int = 2
    seed: int = 0
    learning_rate: float = 0.1
    batch_size: int = 64
    train_steps: int = 4000
    t_min: float = 0.01

    def __post_init__(self) -> None:
        for name in ("n_layers", "n_heads", "d_model", "max_len", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if not 0.0 < self.t_min <= 0.5:
            raise ValueError("t_min must lie in (0, 0.5]")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if not self.learning_rate >= 0.0:  # false for NaN too
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.train_steps < 0:
            raise ValueError(f"train_steps must be >= 0, got {self.train_steps}")

    @property
    def d_ff(self) -> int:
        return 4 * self.d_model

    @property
    def vocab(self) -> Vocabulary:
        return Vocabulary(self.vocab_size)


def param_specs(config: TransformerConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) list; checkpoints store tensors in this order."""
    d, dff, V = config.d_model, config.d_ff, config.vocab_size
    specs: list[tuple[str, tuple[int, ...]]] = [
        ("tok_emb", (V + 1, d)),  # rows 0..V-1 = content tokens, row V = mask
        ("pos_emb", (config.max_len, d)),
    ]
    for l in range(config.n_layers):
        specs += [
            (f"layer{l}.ln1.g", (d,)),
            (f"layer{l}.ln1.b", (d,)),
            (f"layer{l}.wq", (d, d)),
            (f"layer{l}.wk", (d, d)),
            (f"layer{l}.wv", (d, d)),
            (f"layer{l}.wo", (d, d)),
            (f"layer{l}.ln2.g", (d,)),
            (f"layer{l}.ln2.b", (d,)),
            (f"layer{l}.w1", (d, dff)),
            (f"layer{l}.b1", (dff,)),
            (f"layer{l}.w2", (dff, d)),
            (f"layer{l}.b2", (d,)),
        ]
    specs += [
        ("lnf.g", (d,)),
        ("lnf.b", (d,)),
        ("wout", (d, V)),
        ("bout", (V,)),
    ]
    return specs


@dataclass
class Params:
    """Parameter tensors keyed by name, together with their architecture."""

    config: TransformerConfig
    tensors: dict[str, np.ndarray]


def init_params(config: TransformerConfig) -> Params:
    rng = np.random.default_rng(config.seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in param_specs(config):
        if name.endswith(".g") or name == "lnf.g":
            tensors[name] = np.ones(shape)
        elif name.endswith((".b", ".b1", ".b2", "bout")) or name == "bout":
            tensors[name] = np.zeros(shape)
        else:
            tensors[name] = rng.normal(0.0, 0.02, size=shape)
    return Params(config, tensors)


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

_LN_EPS = 1e-5


def _ln_forward(x, g, b):
    mu = x.mean(-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv)


def _ln_backward(dy, cache, g):
    xhat, inv = cache
    dg = (dy * xhat).sum(axis=(0, 1))
    db = dy.sum(axis=(0, 1))
    dxh = dy * g
    dx = inv * (
        dxh
        - dxh.mean(-1, keepdims=True)
        - xhat * (dxh * xhat).mean(-1, keepdims=True)
    )
    return dx, dg, db


def _gelu(u):
    phi = 0.5 * (1.0 + erf(u / np.sqrt(2.0)))
    return u * phi, phi


def _gelu_grad(u, phi):
    return phi + u * np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)


def _softmax(x):
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(x):
    z = x - x.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _split_heads(x, H):
    B, L, d = x.shape
    return x.reshape(B, L, H, d // H).transpose(0, 2, 1, 3)


def _merge_heads(x):
    B, H, L, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, L, H * dh)


def _forward_batch(params: Params, tokens: np.ndarray, cache: list | None = None):
    """Full forward pass over (B, L) token rows; returns (log_probs, attentions).

    Every forward and every loss comes through here, so the rows are checked
    here, by ``core.token_rows`` (mask allowed), and a row longer than
    ``max_len`` raises ``ValueError``. The backward pass needs every
    layer's activations. The training path passes a list as ``cache`` and
    they are appended to it; inference passes none and keeps none.
    """
    cfg = params.config
    t = params.tensors
    tokens = token_rows(tokens, cfg.vocab_size, mask=True)
    B, L = tokens.shape
    if L > cfg.max_len:
        raise ValueError(f"sequence length {L} exceeds max_len {cfg.max_len}")
    rows = tokens - 1  # embedding rows: 0..V-1 for content tokens, V for the mask
    h = t["tok_emb"][rows] + t["pos_emb"][:L]
    scale = 1.0 / np.sqrt(cfg.d_model // cfg.n_heads)
    layer_caches = []
    attentions = []
    for l in range(cfg.n_layers):
        p = lambda s: t[f"layer{l}.{s}"]  # noqa: E731
        x1, c1 = _ln_forward(h, p("ln1.g"), p("ln1.b"))
        qh = _split_heads(x1 @ p("wq"), cfg.n_heads)
        kh = _split_heads(x1 @ p("wk"), cfg.n_heads)
        vh = _split_heads(x1 @ p("wv"), cfg.n_heads)
        scores = (qh @ kh.swapaxes(-1, -2)) * scale
        a = _softmax(scores)
        ctx = _merge_heads(a @ vh)
        h_mid = h + ctx @ p("wo")
        x2, c2 = _ln_forward(h_mid, p("ln2.g"), p("ln2.b"))
        u = x2 @ p("w1") + p("b1")
        gu, phi = _gelu(u)
        h_out = h_mid + gu @ p("w2") + p("b2")
        if cache is not None:
            layer_caches.append(
                (h, c1, x1, qh, kh, vh, a, ctx, h_mid, c2, x2, u, phi, gu)
            )
        del u, phi, gu  # the widest activations: not alive in the next layer
        attentions.append(a)
        h = h_out
    hf, cf = _ln_forward(h, t["lnf.g"], t["lnf.b"])
    logits = hf @ t["wout"] + t["bout"]
    log_probs = _log_softmax(logits)
    if cache is not None:
        cache.extend((rows, layer_caches, cf, hf))
    return log_probs, attentions


def _backward_batch(params: Params, dlogits: np.ndarray, cache) -> dict[str, np.ndarray]:
    cfg = params.config
    t = params.tensors
    rows, layer_caches, cf, hf = cache
    B, L, _ = dlogits.shape
    scale = 1.0 / np.sqrt(cfg.d_model // cfg.n_heads)
    g = {name: np.zeros_like(arr) for name, arr in t.items()}

    flat = lambda x: x.reshape(-1, x.shape[-1])  # noqa: E731
    g["wout"] += flat(hf).T @ flat(dlogits)
    g["bout"] += dlogits.sum(axis=(0, 1))
    dhf = dlogits @ t["wout"].T
    dh, g["lnf.g"], g["lnf.b"] = _ln_backward(dhf, cf, t["lnf.g"])

    for l in reversed(range(cfg.n_layers)):
        p = lambda s: t[f"layer{l}.{s}"]  # noqa: E731
        h_in, c1, x1, qh, kh, vh, a, ctx, h_mid, c2, x2, u, phi, gu = layer_caches[l]
        # h_out = h_mid + gelu(x2 @ w1 + b1) @ w2 + b2
        df = dh
        g[f"layer{l}.w2"] += flat(gu).T @ flat(df)
        g[f"layer{l}.b2"] += df.sum(axis=(0, 1))
        dgu = df @ p("w2").T
        du = dgu * _gelu_grad(u, phi)
        g[f"layer{l}.w1"] += flat(x2).T @ flat(du)
        g[f"layer{l}.b1"] += du.sum(axis=(0, 1))
        dx2 = du @ p("w1").T
        dmid_ln, g[f"layer{l}.ln2.g"], g[f"layer{l}.ln2.b"] = _ln_backward(
            dx2, c2, p("ln2.g")
        )
        dh_mid = dh + dmid_ln
        # h_mid = h_in + merge(a @ vh) @ wo
        g[f"layer{l}.wo"] += flat(ctx).T @ flat(dh_mid)
        dctxh = _split_heads(dh_mid @ p("wo").T, cfg.n_heads)
        dA = dctxh @ vh.swapaxes(-1, -2)
        dvh = a.swapaxes(-1, -2) @ dctxh
        ds = a * (dA - (dA * a).sum(axis=-1, keepdims=True))
        dqh = (ds @ kh) * scale
        dkh = (ds.swapaxes(-1, -2) @ qh) * scale
        dq, dk, dv = _merge_heads(dqh), _merge_heads(dkh), _merge_heads(dvh)
        g[f"layer{l}.wq"] += flat(x1).T @ flat(dq)
        g[f"layer{l}.wk"] += flat(x1).T @ flat(dk)
        g[f"layer{l}.wv"] += flat(x1).T @ flat(dv)
        dx1 = dq @ p("wq").T + dk @ p("wk").T + dv @ p("wv").T
        din_ln, g[f"layer{l}.ln1.g"], g[f"layer{l}.ln1.b"] = _ln_backward(
            dx1, c1, p("ln1.g")
        )
        dh = dh_mid + din_ln

    g["pos_emb"][:L] += dh.sum(axis=0)
    np.add.at(g["tok_emb"], rows, dh)
    return g


def forward(params: Params, state: SequenceState | StateBatch) -> DenoiserOutput:
    """Denoise one state or a batch: per-position distributions plus all attention maps.

    ``state.tokens`` is one length-L sequence (a ``SequenceState``) or an
    (n, L) array of n sequences (a ``StateBatch``); the output carries the
    same leading axis: probs (L, V) or (n, L, V), and per layer an attention
    tensor (H, L, L) or (n, H, L, L). The rows of a batch do not interact.
    Deterministic given (params, state); repeated calls are bit-identical.
    Rows that ``core.token_rows`` refuses raise ``ValueError``.
    """
    if state.vocab.size != params.config.vocab_size:
        raise ValueError("state vocabulary does not match the model")
    one = isinstance(state, SequenceState)
    log_probs, attentions = _forward_batch(params, [state.tokens] if one else state.tokens)
    if one:  # one state: drop the batch axis
        log_probs, attentions = log_probs[0], [a[0] for a in attentions]
    return DenoiserOutput(probs=np.exp(log_probs), attentions=attentions)


class TransformerDenoiser:
    """The denoiser interface of ``decoding`` over a parameter set."""

    def __init__(self, params: Params):
        self.params = params
        self.vocab = params.config.vocab

    def batch(self, states: StateBatch) -> DenoiserOutput:
        """The rows' outputs from one batched forward: ``forward(params, states)``."""
        return forward(self.params, states)


# ---------------------------------------------------------------------------
# training loss
# ---------------------------------------------------------------------------

def masked_cross_entropy(
    log_probs: np.ndarray,
    x0: np.ndarray,
    loss_mask: np.ndarray,
    weights: np.ndarray,
) -> float:
    """Weighted cross-entropy over masked positions, averaged over the batch.

    ``log_probs`` is (B, L, V); targets are token ids in x0; each example b
    contributes -weights[b] * sum_i log p(x0[b,i]) over its masked positions,
    and the total is divided by B.
    """
    B = log_probs.shape[0]
    target_lp = np.take_along_axis(log_probs, (x0 - 1)[:, :, None], axis=2)[:, :, 0]
    per_example = (target_lp * loss_mask).sum(axis=1)
    return float(-(weights * per_example).sum() / B)


def loss_on_corrupted(
    params: Params,
    corrupted: np.ndarray,
    x0: np.ndarray,
    loss_mask: np.ndarray,
    weights: np.ndarray,
) -> float:
    """Loss only (no gradient); the target for finite-difference checks."""
    log_probs, _ = _forward_batch(params, corrupted)
    return masked_cross_entropy(log_probs, x0, loss_mask, weights)


def loss_and_grad_on_corrupted(
    params: Params,
    corrupted: np.ndarray,
    x0: np.ndarray,
    loss_mask: np.ndarray,
    weights: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Deterministic loss and exact-backprop gradient on a corrupted batch."""
    cache: list = []
    log_probs, _ = _forward_batch(params, corrupted, cache)
    loss = masked_cross_entropy(log_probs, x0, loss_mask, weights)
    B, L, V = log_probs.shape
    w = (weights / B)[:, None] * loss_mask  # (B, L) per-position weight
    dlogits = np.exp(log_probs) * w[:, :, None]
    np.subtract.at(
        dlogits,
        (np.arange(B)[:, None], np.arange(L)[None, :], x0 - 1),
        w,
    )
    grads = _backward_batch(params, dlogits, cache)
    return loss, grads


def corrupt_batch(
    config: TransformerConfig,
    x0_batch: np.ndarray,
    prompt_len: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Sample t per example and mask; returns (corrupted, loss_mask, weights, skipped).

    Row by row, t ~ Uniform[t_min, 1] and each non-prompt position is masked
    when its uniform draw is >= alpha(t), the draws ``core.forward_mask``
    makes. A row that comes out with no masked position gets one fresh t; if
    the redraw also masks nothing the row is skipped (weight 0) and counted.
    Raises ``ValueError`` for an empty batch, rows that ``core.token_rows``
    refuses (ids 1..V) or a prompt_len outside 0..L-1.
    """
    V = config.vocab_size
    x0 = token_rows(x0_batch, V)
    B, L = x0.shape
    if B < 1:
        raise ValueError("x0 batch must be a nonempty (B, L) array")
    if not 0 <= prompt_len < L:
        raise ValueError(f"prompt_len {prompt_len} out of range for L={L}")
    loss_mask = np.zeros((B, L), dtype=bool)
    weights = np.zeros(B)
    for b in range(B):
        for _ in range(2):  # one resample allowed
            t = rng.uniform(config.t_min, 1.0)
            masked = rng.random(L - prompt_len) >= alpha(t)
            if masked.any():
                loss_mask[b, prompt_len:] = masked
                weights[b] = 1.0 / t
                break
    corrupted = np.where(loss_mask, V + 1, x0)
    return corrupted, loss_mask, weights, int((weights == 0.0).sum())


def mdlm_loss_and_grad(
    params: Params,
    x0_batch: np.ndarray,
    prompt_len: int,
    rng: np.random.Generator,
) -> tuple[float, dict[str, np.ndarray]]:
    """One masked-diffusion training objective evaluation on a clean batch.

    Each example is corrupted at its own t ~ Uniform[t_min, 1] and the
    masked-position cross-entropy is weighted by 1/t; the gradient comes
    from exact backpropagation through the forward pass.
    """
    corrupted, loss_mask, weights, _ = corrupt_batch(params.config, x0_batch, prompt_len, rng)
    return loss_and_grad_on_corrupted(params, corrupted, np.asarray(x0_batch), loss_mask, weights)


def train(
    config: TransformerConfig,
    model: JointModel,
    prompt_len: int = 0,
    rng: np.random.Generator | None = None,
    on_step: Callable[[int, float], None] | None = None,
) -> Params:
    """Plain fixed-step SGD on batches sampled from the joint.

    Emits the loss curve through ``on_step(step, loss)``. Aborts with a
    diagnostic if the loss stops being finite.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    params = init_params(config)
    lr = config.learning_rate
    for step in range(config.train_steps):
        batch = sample_joints(model, rng, config.batch_size)
        loss, grads = mdlm_loss_and_grad(params, batch, prompt_len, rng)
        if not np.isfinite(loss):
            raise RuntimeError(f"training diverged at step {step}: loss={loss}")
        for name, grad in grads.items():
            params.tensors[name] -= lr * grad
        if on_step is not None:
            on_step(step, loss)
    return params


# ---------------------------------------------------------------------------
# checkpoint format: little-endian binary
#   magic "MDLMLABC" | u32 version | u32 x5 arch ints | u32 tensor count |
#   per tensor (canonical param_specs order): u32 ndim, u32 dims..., f64 data |
#   SHA-256 of all preceding bytes (no tensor shape depends on n_heads)
# ---------------------------------------------------------------------------

_MAGIC = b"MDLMLABC"
_VERSION = 2
_ARCH_FIELDS = ("n_layers", "n_heads", "d_model", "max_len", "vocab_size")


def save_checkpoint(params: Params, path: str) -> None:
    cfg = params.config
    with open(path, "w+b") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<5I", *(getattr(cfg, f) for f in _ARCH_FIELDS)))
        specs = param_specs(cfg)
        fh.write(struct.pack("<I", len(specs)))
        for name, shape in specs:
            arr = np.ascontiguousarray(params.tensors[name], dtype="<f8")
            if arr.shape != shape:
                raise CheckpointError(f"tensor {name} has shape {arr.shape}, expected {shape}")
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())
        fh.seek(0)
        fh.write(hashlib.sha256(fh.read()).digest())


def _read_exact(fh, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise CheckpointError("truncated checkpoint file")
    return buf


def load_checkpoint(path: str, expected_config: TransformerConfig | None = None) -> Params:
    """Load a checkpoint; the round trip with save_checkpoint is bit-exact.

    With ``expected_config`` given, every architecture field is compared and
    a mismatch error names the offending field. The checksum is checked
    last, so a corrupt header still gets its own error.
    """
    with open(path, "rb") as fh:
        if _read_exact(fh, len(_MAGIC)) != _MAGIC:
            raise CheckpointError(f"{path}: wrong magic header")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != _VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        arch = struct.unpack("<5I", _read_exact(fh, 20))
        try:
            config = TransformerConfig(
                **dict(zip(_ARCH_FIELDS, arch)),
                seed=0,
                learning_rate=0.0,
                batch_size=1,
                train_steps=0,
            )
        except ValueError as exc:
            raise CheckpointError(f"{path}: invalid architecture header: {exc}") from None
        if expected_config is not None:
            for f in _ARCH_FIELDS:
                if getattr(expected_config, f) != getattr(config, f):
                    raise CheckpointError(
                        f"{path}: config mismatch in field {f!r}: "
                        f"checkpoint has {getattr(config, f)}, "
                        f"expected {getattr(expected_config, f)}"
                    )
        (count,) = struct.unpack("<I", _read_exact(fh, 4))
        # checked before param_specs, which a corrupt n_layers would make huge:
        # 2 embeddings, 12 tensors per layer and 4 in the head
        if count != 6 + 12 * config.n_layers:
            raise CheckpointError(
                f"{path}: tensor count {count} does not match n_layers={config.n_layers}"
            )
        tensors: dict[str, np.ndarray] = {}
        for name, shape in param_specs(config):
            (ndim,) = struct.unpack("<I", _read_exact(fh, 4))
            if ndim != len(shape):
                raise CheckpointError(f"{path}: tensor {name} has {ndim} axes, not {len(shape)}")
            dims = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim))
            if dims != shape:
                raise CheckpointError(
                    f"{path}: tensor {name} has shape {dims}, expected {shape}"
                )
            n = int(np.prod(dims)) if dims else 1
            data = np.frombuffer(_read_exact(fh, 8 * n), dtype="<f8")
            tensors[name] = data.reshape(dims).astype(np.float64)
        end = fh.tell()
        digest = _read_exact(fh, 32)
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after the checksum")
        fh.seek(0)
        if hashlib.sha256(fh.read(end)).digest() != digest:
            raise CheckpointError(f"{path}: checksum mismatch")
    return Params(config, tensors)
