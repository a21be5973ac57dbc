import os
import struct
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import central_diff_max_rel_err, one_row
from mdlmlab import nn
from mdlmlab.core import SequenceState, StateBatch, Vocabulary, alpha
from mdlmlab.nn import (
    CheckpointError,
    Params,
    TransformerConfig,
    TransformerDenoiser,
    corrupt_batch,
    forward,
    init_params,
    load_checkpoint,
    loss_and_grad_on_corrupted,
    masked_cross_entropy,
    mdlm_loss_and_grad,
    param_specs,
    save_checkpoint,
    train,
)
from mdlmlab.oracle import FactorizedDAG, conditional_marginal, sample_joint
from mdlmlab.scoring import entropy

SMALL = TransformerConfig(
    n_layers=2, n_heads=2, d_model=16, max_len=8, vocab_size=3, seed=1
)


def copy_joint():
    # X2 := X1 with X1 ~ Bernoulli-style over two tokens
    cpt = np.array([[0.98, 0.02], [0.02, 0.98]])
    return FactorizedDAG(
        Vocabulary(2), ((), (0,)), (np.array([0.5, 0.5]), cpt)
    )


def uniform_joint(V, L):
    from mdlmlab.oracle import TabularJoint

    return TabularJoint(Vocabulary(V), np.full((V,) * L, 1.0 / V**L))


def test_config_validation():
    with pytest.raises(ValueError):
        TransformerConfig(d_model=30, n_heads=4)
    with pytest.raises(ValueError):
        TransformerConfig(n_layers=0)
    with pytest.raises(ValueError):
        TransformerConfig(t_min=0.6)
    # each refusal names its key; n_heads=0 is refused before the modulo
    for key, value in (("n_heads", 0), ("d_model", 0), ("batch_size", 0),
                       ("learning_rate", float("nan")), ("learning_rate", -0.1),
                       ("train_steps", -1)):
        with pytest.raises(ValueError, match=key):
            TransformerConfig(**{key: value})
    # the placeholders a loaded checkpoint carries stay valid
    TransformerConfig(learning_rate=0.0, batch_size=1, train_steps=0)


def test_config_sizes_are_integers():
    names = ("n_layers", "n_heads", "d_model", "max_len", "vocab_size", "seed",
             "batch_size", "train_steps")
    for name in names:
        for value in (2.5, np.float64(16), True, "2"):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
                TransformerConfig(**{name: value})
    # NumPy integers are stored as ints, and the parameters build as for ints
    cfg = TransformerConfig(**{name: np.int64(getattr(SMALL, name)) for name in names})
    assert cfg == SMALL and all(type(getattr(cfg, name)) is int for name in names)
    got, want = init_params(cfg).tensors, init_params(SMALL).tensors
    assert got.keys() == want.keys() and all(np.array_equal(got[k], want[k]) for k in want)
    # the float fields take any real number but a bool, stored as a Python float
    for name in ("learning_rate", "t_min"):
        for value in (True, "0.1"):
            with pytest.raises(ValueError, match=f"^{name} must be a real number, got"):
                TransformerConfig(**{name: value})
    cfg = TransformerConfig(learning_rate=np.float32(0.25), t_min=np.float32(0.01))
    assert (cfg.learning_rate, cfg.t_min) == (0.25, float(np.float32(0.01)))
    assert type(cfg.learning_rate) is float and type(cfg.t_min) is float


def test_forward_single_position_attention():
    params = init_params(SMALL)
    state = SequenceState(Vocabulary(3), (4,), 0)  # one masked position
    out = forward(params, one_row(state))
    for a in out.attentions:
        assert a.shape == (1, 2, 1, 1)
        assert np.allclose(a, 1.0)
    assert out.probs.shape == (1, 1, 3)
    assert out.probs.sum() == pytest.approx(1.0)


def test_forward_deterministic_and_rows_stochastic():
    params = init_params(SMALL)
    state = SequenceState(Vocabulary(3), (1, 4, 2, 4, 3), 1)
    out1 = forward(params, one_row(state))
    out2 = forward(params, one_row(state))
    assert np.array_equal(out1.probs, out2.probs)
    for a1, a2 in zip(out1.attentions, out2.attentions):
        assert np.array_equal(a1, a2)
        assert np.all(a1 >= 0)
        assert np.allclose(a1.sum(axis=-1), 1.0, atol=1e-6)


def test_forward_errors():
    # the transformer denoiser refuses what forward refuses, with the same
    # message; another vocabulary is named before its tokens are checked
    params = init_params(SMALL)
    vocab = Vocabulary(3)
    long_state = SequenceState(vocab, tuple([1] * 9), 0)
    for run in (lambda states: forward(params, states), TransformerDenoiser(params).batch):
        with pytest.raises(ValueError, match="max_len 8"):
            run(one_row(long_state))
        with pytest.raises(ValueError, match="^state vocabulary does not match the model$"):
            run(one_row(SequenceState(Vocabulary(5), (1, 6), 0)))
        with pytest.raises(ValueError, match="rows of one length, got shape"):
            run(StateBatch(vocab, np.array([1, 2, 4])))
        with pytest.raises(ValueError, match="outside 1..4"):
            run(StateBatch(vocab, np.array([[1, 5], [1, 5]])))
        with pytest.raises(ValueError, match="sequence length 0 outside 1..max_len 8"):
            run(StateBatch(vocab, np.ones((2, 0), dtype=int)))
        out = run(StateBatch(vocab, np.zeros((0, 5), dtype=int)))
        assert out.probs.shape == (0, 5, 3)
        assert [a.shape for a in out.attentions] == [(0, 2, 5, 5)] * 2


_PARAMS = {V: init_params(TransformerConfig(n_layers=2, n_heads=2, d_model=8, max_len=6,
                                            vocab_size=V, seed=V)) for V in (2, 3, 4)}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), V=st.integers(2, 4), L=st.integers(1, 6))
def test_batch_runs_each_distinct_row_once(data, V, L):
    # rows drawn from a small pool repeat; the batch equals each row's own
    # forward bit for bit, from one forward over exactly the distinct rows
    params = _PARAMS[V]
    row = st.lists(st.integers(1, V + 1), min_size=L, max_size=L)
    pool = data.draw(st.lists(row, min_size=1, max_size=4))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=12))
    tokens = np.array([pool[i] for i in picks], dtype=np.int64).reshape(len(picks), L)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "forward", lambda p, states: calls.append(states.tokens) or forward(p, states))
        out = TransformerDenoiser(params).batch(StateBatch(params.config.vocab, tokens))
    distinct = {tuple(r) for r in tokens.tolist()}
    [ran] = calls
    assert len(ran) == len(distinct) and {tuple(r) for r in ran.tolist()} == distinct
    assert out.probs.shape == (len(tokens), L, V)
    for r, row_tokens in enumerate(tokens):
        alone = forward(params, StateBatch(params.config.vocab, row_tokens[None]))
        assert np.array_equal(out.probs[r], alone.probs[0])
        for got, want in zip(out.attentions, alone.attentions, strict=True):
            assert np.array_equal(got[r], want[0])


def test_loss_zero_when_nothing_masked():
    params = init_params(SMALL)
    x0 = np.array([[1, 2, 3, 1]])
    mask = np.zeros((1, 4), dtype=bool)
    loss, grads = loss_and_grad_on_corrupted(params, x0, x0, mask, np.array([2.0]))
    assert loss == 0.0
    assert all(np.all(g == 0) for g in grads.values())


def _repeated_rows_batch(kind):
    """A corrupted SMALL batch whose rows repeat, with its x0, mask and weights.

    ``identical``: one fully masked row (prompt 1) six times, each copy with
    its own x0 and weight. ``mixed``: rows drawn from a pool of three x0 rows
    and three mask patterns, one of them masking nothing (weight 0)."""
    rng = np.random.default_rng(3)
    mask_id = SMALL.vocab.mask_id
    if kind == "identical":
        x0 = rng.integers(1, 4, size=(6, 6))
        x0[:, 0] = 1
        mask = np.zeros((6, 6), dtype=bool)
        mask[:, 1:] = True
        weights = rng.uniform(1.0, 5.0, size=6)
    else:
        pool = rng.integers(1, 4, size=(3, 6))
        patterns = np.array([[0, 1, 1, 0, 1, 1], [0, 1, 1, 1, 1, 1], [0] * 6], dtype=bool)
        picks = rng.integers(0, 3, size=(14, 2))
        x0, mask = pool[picks[:, 0]], patterns[picks[:, 1]]
        weights = np.where(mask.any(axis=1), rng.uniform(1.0, 5.0, size=14), 0.0)
    corrupted = np.where(mask, mask_id, x0)
    return corrupted, x0, mask, weights


@pytest.mark.parametrize("kind", ["identical", "mixed"])
def test_deduplicated_loss_and_gradient_match_every_row(kind):
    # the loss equals the one from each row's own forward bit for bit, and
    # each gradient is the un-deduplicated backward's up to summation order
    params = init_params(SMALL)
    corrupted, x0, mask, weights = _repeated_rows_batch(kind)
    assert 1 <= len({tuple(r) for r in corrupted.tolist()}) < len(corrupted)
    loss, grads = loss_and_grad_on_corrupted(params, corrupted, x0, mask, weights)
    per_row = np.concatenate([nn._forward_batch(params, row[None])[0] for row in corrupted])
    assert loss == masked_cross_entropy(per_row, x0, mask, weights)
    assert loss == nn.loss_on_corrupted(params, corrupted, x0, mask, weights)

    tape = nn.Tape()
    log_probs, _ = nn._forward_batch(params, corrupted, tape)
    B, L, _ = log_probs.shape
    w = (weights / B)[:, None] * mask
    dlogits = np.exp(log_probs) * w[:, :, None]
    np.subtract.at(dlogits, (np.arange(B)[:, None], np.arange(L)[None, :], x0 - 1), w)
    want = nn._backward_batch(params, dlogits, tape)
    assert set(grads) == set(want)
    for name, g in want.items():
        assert np.max(np.abs(grads[name] - g)) <= 1e-12 * np.max(np.abs(g)), name


def test_gradient_check_small_model():
    # on a corrupted batch, and on one whose rows repeat
    params = init_params(SMALL)
    rng = np.random.default_rng(0)
    x0 = rng.integers(1, 4, size=(3, 6))
    corrupted, mask, weights, _ = corrupt_batch(SMALL, x0, 1, rng)
    for batch in ((corrupted, x0, mask, weights), _repeated_rows_batch("mixed")):
        _, grads = loss_and_grad_on_corrupted(params, *batch)
        worst = central_diff_max_rel_err(params, grads, *batch, sample_per_tensor=6)
        assert max(worst.values()) < 1e-4, worst


def test_losses_run_each_distinct_corrupted_row_once():
    params = init_params(SMALL)
    corrupted, x0, mask, weights = _repeated_rows_batch("mixed")
    distinct = {tuple(r) for r in corrupted.tolist()}
    for loss_fn in (nn.loss_on_corrupted, loss_and_grad_on_corrupted):
        calls = []
        real = nn._forward_batch
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nn, "_forward_batch",
                       lambda p, tokens, tape=None: calls.append(tokens) or real(p, tokens, tape))
            loss_fn(params, corrupted, x0, mask, weights)
        [ran] = calls
        assert len(ran) == len(distinct) and {tuple(r) for r in ran.tolist()} == distinct


def test_a_loss_call_checks_each_token_argument_once():
    params = init_params(SMALL)
    corrupted, x0, mask, weights = _repeated_rows_batch("mixed")
    for loss_fn in (nn.loss_on_corrupted, loss_and_grad_on_corrupted):
        checked = []
        real = nn.token_rows
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nn, "token_rows",
                       lambda rows, *a, **k: checked.append(rows) or real(rows, *a, **k))
            loss_fn(params, corrupted, x0, mask, weights)
        assert len(checked) == 2 and checked[0] is corrupted and checked[1] is x0


def _malformed(probe):
    """(corrupted, x0, loss_mask, weights) of a V=2 batch of 2 corrupted rows,
    with one argument broken as ``probe`` names."""
    corrupted = np.array([[1, 3, 3], [3, 2, 3]])
    x0 = np.array([[1, 2, 1], [2, 2, 1]])
    mask = corrupted == 3
    weights = np.array([1.5, 2.0])
    if probe == "x0 id 0":
        x0[0, 1] = 0  # x0 - 1 = -1 would take the last token's log-prob
    elif probe == "one-row x0":
        x0 = x0[:1]  # would be broadcast over the batch
    elif probe == "x0 mask id":
        x0[1, 2] = 3
    elif probe == "float x0":
        x0 = x0.astype(float)
    elif probe == "one weight":
        weights = weights[:1]  # would be broadcast over the batch
    elif probe == "one-row loss_mask":
        mask = mask[:1]
    return corrupted, x0, mask, weights


@pytest.mark.parametrize("probe, name", [
    ("x0 id 0", "x0"), ("one-row x0", "x0"), ("x0 mask id", "x0"), ("float x0", "x0"),
    ("one weight", "weights"), ("one-row loss_mask", "loss_mask"),
])
def test_loss_entry_points_name_a_malformed_target(probe, name):
    params = init_params(TransformerConfig(vocab_size=2))
    args = _malformed(probe)
    for loss_fn in (nn.loss_on_corrupted, loss_and_grad_on_corrupted):
        with pytest.raises(ValueError, match=f"^{name}"):
            loss_fn(params, *args)
    assert np.isfinite(nn.loss_on_corrupted(params, *_malformed(None)))


def test_loss_entry_points_refuse_an_empty_batch():
    params = init_params(TransformerConfig(vocab_size=2))
    empty = np.zeros((0, 3), dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NaN loss with a RuntimeWarning either
        for loss_fn in (nn.loss_on_corrupted, loss_and_grad_on_corrupted):
            with pytest.raises(ValueError, match=r"^corrupted must hold at least one row"):
                loss_fn(params, empty, empty, empty.astype(bool), np.zeros(0))


def _batch_of_distinct_rows(rng, k, B=64):
    """A corrupted SMALL batch of B rows, exactly k of them distinct, with
    its x0, mask and weights."""
    V, L = SMALL.vocab_size, 6
    x0 = rng.integers(1, V + 1, size=(4 * k, L))
    mask = rng.random((4 * k, L)) < 0.5
    mask[:, 0] = True
    corrupted = np.where(mask, V + 1, x0)
    _, first = np.unique(corrupted, axis=0, return_index=True)
    pool = np.sort(first)[:k]
    picks = np.concatenate([pool, rng.choice(pool, B - k)])
    weights = rng.uniform(1.0, 5.0, size=B)
    return corrupted[picks], x0[picks], mask[picks], weights


def test_train_on_one_tape_equals_fresh_loss_calls():
    # the distinct-row count shrinks (40 -> 3), so rows from a larger step
    # stay behind in the buffers, then outgrows them (-> 47 of 64 rows)
    rng = np.random.default_rng(4)
    batches = [_batch_of_distinct_rows(rng, k, B) for k, B in ((40, 40), (3, 20), (47, 64))]
    for (corrupted, *_), k in zip(batches, (40, 3, 47)):
        assert len(np.unique(corrupted, axis=0)) == k
    config = replace(SMALL, train_steps=len(batches))
    losses = []
    with pytest.MonkeyPatch.context() as mp:
        clean = iter(x0 for _, x0, _, _ in batches)
        masked = iter((c, m, w, 0) for c, _, m, w in batches)
        mp.setattr(nn, "sample_joints", lambda model, rng, n: next(clean))
        mp.setattr(nn, "corrupt_batch", lambda config, x0, prompt_len, rng: next(masked))
        trained = train(config, copy_joint(), 1, on_step=lambda step, loss: losses.append(loss))

    params = init_params(config)
    want = []
    for batch in batches:
        loss, grads = loss_and_grad_on_corrupted(params, *batch)
        want.append(loss)
        for name, grad in grads.items():
            params.tensors[name] -= config.learning_rate * grad
    assert losses == want
    for name, tensor in params.tensors.items():
        assert np.array_equal(trained.tensors[name], tensor), name


@pytest.mark.parametrize("shared", [False, True])
def test_returned_gradients_outlive_later_calls(shared):
    params = init_params(SMALL)
    rng = np.random.default_rng(5)
    tape = nn.Tape() if shared else None
    _, grads = loss_and_grad_on_corrupted(params, *_batch_of_distinct_rows(rng, 20), tape=tape)
    kept = {name: g.copy() for name, g in grads.items()}
    loss_and_grad_on_corrupted(params, *_batch_of_distinct_rows(rng, 20), tape=tape)
    for name, g in grads.items():
        assert np.array_equal(g, kept[name]), name


def test_steps_on_one_tape_reuse_its_buffers():
    params = init_params(SMALL)
    rng = np.random.default_rng(6)
    tape = nn.Tape()

    def activations():
        rows, layers, final, hf = tape.saved
        arrays = [hf, *final]
        for layer in layers:
            for item in layer:
                arrays += item if isinstance(item, tuple) else [item]
        return arrays

    loss_and_grad_on_corrupted(params, *_batch_of_distinct_rows(rng, 30), tape=tape)
    before, buffers = activations(), dict(tape._buffers)
    loss_and_grad_on_corrupted(params, *_batch_of_distinct_rows(rng, 12), tape=tape)
    after = activations()
    assert len(before) == len(after) == 3 + 2 * 14
    for old, new in zip(before, after, strict=True):
        assert len(new) == 12 and np.shares_memory(old, new)
    assert tape._buffers.keys() == buffers.keys()  # the backward's temporaries too
    assert all(tape._buffers[key] is buf for key, buf in buffers.items())


def test_corrupt_batch_counts_skips():
    # t_min at the upper bound still occasionally masks nothing on a single
    # generated position; the example is then skipped with weight zero.
    cfg = TransformerConfig(vocab_size=2, max_len=4, t_min=0.01, seed=0)
    rng = np.random.default_rng(12)
    x0 = np.tile([1, 2], (64, 1))
    corrupted, mask, weights, skipped = corrupt_batch(cfg, x0, 1, rng)
    assert skipped >= 0
    zero_rows = int((mask.sum(axis=1) == 0).sum())
    assert zero_rows == skipped
    assert np.all(weights[mask.sum(axis=1) == 0] == 0.0)
    assert np.all(corrupted[:, 0] == 1)  # prompt untouched


def _corrupt_rows_reference(cfg, x0, prompt_len, rng):
    """Row-by-row reference for corrupt_batch: t, then the positions, one redraw."""
    corrupted, mask, weights = x0.copy(), np.zeros(x0.shape, bool), np.zeros(len(x0))
    redraws = 0
    for b in range(len(x0)):
        for attempt in range(2):
            t = rng.uniform(cfg.t_min, 1.0)
            hidden = rng.random(x0.shape[1] - prompt_len) >= alpha(t)
            if hidden.any():
                mask[b, prompt_len:] = hidden
                corrupted[b, mask[b]] = cfg.vocab.mask_id
                weights[b] = 1.0 / t
                break
            redraws += attempt == 0
    return corrupted, mask, weights, int((weights == 0).sum()), redraws


@pytest.mark.parametrize("vocab_size, L, prompt_len", [(2, 2, 1), (3, 6, 2), (4, 5, 0)])
def test_corrupt_batch_matches_per_row_forward_mask(vocab_size, L, prompt_len):
    cfg = TransformerConfig(vocab_size=vocab_size, max_len=8, t_min=0.01)
    x0 = np.random.default_rng(L).integers(1, vocab_size + 1, size=(300, L))
    got_rng = np.random.default_rng(21)
    got = corrupt_batch(cfg, x0, prompt_len, got_rng)
    ref_rng = np.random.default_rng(21)
    *want, redraws = _corrupt_rows_reference(cfg, x0, prompt_len, ref_rng)
    for g, w in zip(got[:3], want[:3]):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert got[3] == want[3]
    assert got_rng.random() == ref_rng.random()  # the same draws, no more
    if L - prompt_len == 1:  # one generated position: redraws and skips occur
        assert redraws > 0 and got[3] > 0


@pytest.mark.parametrize(
    "x0, prompt_len",
    [
        ([[1, 2, 3]], 1),  # 3 is the mask id for V=2
        ([[1, 0, 2]], 1),
        ([[1, 2], [2, 1]], 2),  # prompt_len must stay below L
        ([[1, 2]], -1),
        ([1, 2], 0),  # not a (B, L) batch
    ],
)
def test_corrupt_batch_rejects_malformed_batches(x0, prompt_len):
    cfg = TransformerConfig(vocab_size=2, max_len=4)
    with pytest.raises(ValueError):
        corrupt_batch(cfg, np.array(x0), prompt_len, np.random.default_rng(0))


def test_mdlm_loss_runs_and_reports_stats():
    params = init_params(SMALL)
    rng = np.random.default_rng(5)
    x0 = rng.integers(1, 4, size=(8, 5))
    loss, grads = mdlm_loss_and_grad(params, x0, 1, rng)
    assert np.isfinite(loss) and loss > 0
    assert set(grads) == {name for name, _ in param_specs(SMALL)}


def test_loss_equals_weighted_conditional_entropy_for_exact_predictor():
    # Feeding the exact conditionals into the masked cross-entropy must give,
    # in expectation, the same number as the 1/t-weighted conditional entropy.
    model = copy_joint()
    vocab = model.vocab
    rng = np.random.default_rng(9)
    t = 0.6
    lhs, rhs, n = 0.0, 0.0, 4000
    for _ in range(n):
        x0 = sample_joint(model, rng)
        hidden = rng.random(len(x0)) >= alpha(t)
        state = SequenceState(vocab, tuple(np.where(hidden, vocab.mask_id, x0).tolist()), 0)
        if not hidden.any():
            continue
        cm = conditional_marginal(model, state)
        for i, dist in cm.items():
            lhs += -(1.0 / t) * np.log(max(dist[x0[i] - 1], 1e-300))
            rhs += (1.0 / t) * entropy(dist)
    assert lhs == pytest.approx(rhs, rel=0.05)


def test_train_zero_steps_is_noop():
    cfg = TransformerConfig(vocab_size=2, max_len=4, train_steps=0, seed=3)
    params = train(cfg, copy_joint())
    fresh = init_params(cfg)
    for name in fresh.tensors:
        assert np.array_equal(params.tensors[name], fresh.tensors[name])


def test_train_uniform_joint_reaches_uniform_outputs():
    cfg = TransformerConfig(
        n_layers=1,
        n_heads=2,
        d_model=16,
        max_len=4,
        vocab_size=2,
        seed=11,
        learning_rate=0.1,
        batch_size=32,
        train_steps=400,
    )
    model = uniform_joint(2, 3)
    params = train(cfg, model)
    vocab = Vocabulary(2)
    state = SequenceState(vocab, (vocab.mask_id,) * 3, 0)
    [probs] = forward(params, one_row(state)).probs
    for i in range(3):
        tv = 0.5 * np.abs(probs[i] - 0.5).sum()
        assert tv < 0.05


def test_train_learns_deterministic_copy():
    cfg = TransformerConfig(
        n_layers=2,
        n_heads=2,
        d_model=32,
        max_len=4,
        vocab_size=2,
        seed=13,
        learning_rate=0.1,
        batch_size=32,
        train_steps=1200,
    )
    model = copy_joint()
    losses = []
    params = train(cfg, model, on_step=lambda s, l: losses.append(l))
    vocab = Vocabulary(2)
    for v in (1, 2):
        state = SequenceState(vocab, (v, vocab.mask_id), 0)
        [probs] = forward(params, one_row(state)).probs
        assert probs[1].max() > 0.9
        assert int(probs[1].argmax()) + 1 == v
    # smoothed loss curve must come down and end below where it started
    first, last = np.mean(losses[:100]), np.mean(losses[-100:])
    assert last < first
    smoothed = np.convolve(losses, np.ones(100) / 100, mode="valid")
    assert np.all(np.diff(smoothed) < 0.25)


def test_train_divergence_aborts():
    cfg = TransformerConfig(
        vocab_size=2,
        max_len=4,
        seed=17,
        learning_rate=1e12,
        batch_size=8,
        train_steps=50,
    )
    with np.errstate(all="ignore"):
        with pytest.raises(RuntimeError, match="diverged"):
            train(cfg, copy_joint())


def test_checkpoint_round_trip(tmp_path):
    params = init_params(SMALL)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.config.d_model == SMALL.d_model
    for name in params.tensors:
        assert np.array_equal(loaded.tensors[name], params.tensors[name])
    # also fine with the expected config supplied
    load_checkpoint(path, expected_config=SMALL)


def test_checkpoint_errors(tmp_path):
    params = init_params(SMALL)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(params, path)

    bad_magic = str(tmp_path / "bad_magic.ckpt")
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[:4] = b"XXXX"
    with open(bad_magic, "wb") as fh:
        fh.write(data)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(bad_magic)

    truncated = str(tmp_path / "truncated.ckpt")
    with open(truncated, "wb") as fh:
        with open(path, "rb") as src:
            fh.write(src.read()[:100])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(truncated)

    other = TransformerConfig(
        n_layers=2, n_heads=2, d_model=32, max_len=8, vocab_size=3, seed=1
    )
    with pytest.raises(CheckpointError, match="d_model"):
        load_checkpoint(path, expected_config=other)


# the header after the 8-byte magic and the u32 version: five u32 arch ints
ARCH_FIELDS = ("n_layers", "n_heads", "d_model", "max_len", "vocab_size")


def with_arch_field(data: bytes, field: str, value: int) -> bytes:
    offset = 12 + 4 * ARCH_FIELDS.index(field)
    return data[:offset] + struct.pack("<I", value) + data[offset + 4 :]


@pytest.mark.parametrize("field, value", [
    ("n_heads", 0), ("n_layers", 0), ("max_len", 0), ("vocab_size", 1),
    ("n_heads", 3), ("n_layers", 10**9),
])
def test_corrupt_checkpoint_header_raises_checkpoint_error(tmp_path, monkeypatch, field, value):
    cfg = TransformerConfig(n_layers=1, n_heads=2, d_model=32, max_len=8, vocab_size=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_params(cfg), str(path))
    path.write_bytes(with_arch_field(path.read_bytes(), field, value))

    def refuse(config):  # a billion layers would build 12 billion specs first
        raise AssertionError("param_specs built for a corrupt header")

    monkeypatch.setattr(nn, "param_specs", refuse)
    with pytest.raises(CheckpointError, match=field):
        load_checkpoint(str(path))


def checkpoint_bytes(params: Params) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "model.ckpt")
        save_checkpoint(params, path)
        with open(path, "rb") as fh:
            return fh.read()


def load_bytes(data: bytes) -> Params:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "model.ckpt")
        with open(path, "wb") as fh:
            fh.write(data)
        return load_checkpoint(path)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n_layers=st.integers(1, 3), n_heads=st.integers(1, 3), head_dim=st.integers(1, 3),
       max_len=st.integers(1, 5), vocab_size=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_checkpoint_round_trip_is_bit_exact(n_layers, n_heads, head_dim, max_len,
                                            vocab_size, seed):
    cfg = TransformerConfig(n_layers=n_layers, n_heads=n_heads, d_model=n_heads * head_dim,
                            max_len=max_len, vocab_size=vocab_size)
    params = init_params(cfg)
    rng = np.random.default_rng(seed)
    for name, tensor in params.tensors.items():
        # any 64-bit pattern: NaN payloads, infinities, -0.0 and subnormals too
        params.tensors[name] = rng.integers(0, 2**64, tensor.shape, dtype=np.uint64,
                                            endpoint=False).view(np.float64)
    loaded = load_bytes(checkpoint_bytes(params))
    assert [getattr(loaded.config, f) for f in ARCH_FIELDS] == [
        getattr(cfg, f) for f in ARCH_FIELDS]
    assert list(loaded.tensors) == list(params.tensors)
    for name, tensor in params.tensors.items():
        assert loaded.tensors[name].dtype == np.float64
        assert loaded.tensors[name].tobytes() == tensor.tobytes()


SMALL_BYTES = checkpoint_bytes(init_params(SMALL))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_corrupt_checkpoints_raise_checkpoint_error(data):
    # every corruption of a valid file raises CheckpointError, never a bare
    # error; the checksum catches an overwrite inside a tensor's values and
    # another head count that divides d_model (no tensor shape depends on it)
    kind = data.draw(st.sampled_from(("arch", "truncate", "trailing", "overwrite")))
    if kind == "arch":
        field = data.draw(st.sampled_from(ARCH_FIELDS))
        value = data.draw(st.one_of(st.integers(0, 64), st.integers(0, 2**32 - 1)).filter(
            lambda v: v != getattr(SMALL, field)))
        corrupt = with_arch_field(SMALL_BYTES, field, value)
    elif kind == "truncate":
        corrupt = SMALL_BYTES[: data.draw(st.integers(0, len(SMALL_BYTES) - 1))]
    elif kind == "trailing":
        corrupt = SMALL_BYTES + data.draw(st.binary(min_size=1, max_size=16))
    else:
        at = data.draw(st.integers(0, len(SMALL_BYTES) - 4))
        new = data.draw(st.binary(min_size=4, max_size=4).filter(
            lambda b: b != SMALL_BYTES[at : at + 4]))
        corrupt = SMALL_BYTES[:at] + new + SMALL_BYTES[at + 4 :]
    with pytest.raises(CheckpointError):
        load_bytes(corrupt)


def test_checkpoint_with_rewritten_head_count_raises(tmp_path):
    # 4 heads divide d_model 32 too, so only the checksum tells the files apart
    cfg = TransformerConfig(n_layers=1, n_heads=2, d_model=32, max_len=8, vocab_size=2)
    good = checkpoint_bytes(init_params(cfg))
    assert load_bytes(good).config.n_heads == 2
    with pytest.raises(CheckpointError, match="checksum"):
        load_bytes(with_arch_field(good, "n_heads", 4))


def test_version_1_checkpoint_is_refused():
    old = SMALL_BYTES[:8] + struct.pack("<I", 1) + SMALL_BYTES[12:-32]
    with pytest.raises(CheckpointError, match="unsupported format version 1"):
        load_bytes(old)


def test_transformer_denoiser_interface():
    params = init_params(SMALL)
    den = TransformerDenoiser(params)
    assert den.vocab.size == 3
    out = den.batch(StateBatch(Vocabulary(3), np.array([[1, 4]])))
    assert out.probs.shape == (1, 2, 3)
    assert out.attentions is not None and len(out.attentions) == 2


def test_batched_forward_rows_equal_single_rows():
    params = init_params(SMALL)
    vocab = Vocabulary(3)
    rng = np.random.default_rng(71)
    states = [
        SequenceState(vocab, tuple(int(t) for t in rng.integers(1, 5, size=6)))
        for _ in range(7)
    ]
    rows = StateBatch(vocab, np.array([s.tokens for s in states]))
    batch = forward(params, rows)
    assert batch.probs.shape == (7, 6, 3)
    assert [a.shape for a in batch.attentions] == [(7, 2, 6, 6)] * 2
    out = TransformerDenoiser(params).batch(rows)
    assert out.probs.shape == (7, 6, 3)
    for r, state in enumerate(states):
        single = forward(params, one_row(state))
        for probs in (batch.probs[r], out.probs[r]):
            assert np.max(np.abs(probs - single.probs[0])) <= 1e-12
        for layer, [want] in enumerate(single.attentions):
            assert np.max(np.abs(batch.attentions[layer][r] - want)) <= 1e-12
            assert np.max(np.abs(out.attentions[layer][r] - want)) <= 1e-12


def test_masked_cross_entropy_matches_manual():
    log_probs = np.log(np.array([[[0.5, 0.5], [0.9, 0.1]]]))
    x0 = np.array([[1, 1]])
    mask = np.array([[False, True]])
    got = masked_cross_entropy(log_probs, x0, mask, np.array([2.0]))
    assert got == pytest.approx(-2.0 * np.log(0.9))


@pytest.mark.parametrize("x0, weights, name", [
    ([[1, 0]], [1.0], "x0"),  # x0 - 1 = -1 would score the last token's log-prob
    ([[1, 2]], [1.0, 2.0], "weights"),  # would be broadcast over the one row
], ids=["x0 id 0", "two weights"])
def test_masked_cross_entropy_names_a_malformed_target(x0, weights, name):
    log_probs = np.log(np.full((1, 2, 2), 0.5))
    with pytest.raises(ValueError, match=f"^{name}"):
        masked_cross_entropy(log_probs, np.array(x0), np.ones((1, 2), bool), np.array(weights))
