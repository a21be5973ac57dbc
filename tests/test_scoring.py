import math

import numpy as np
import pytest

from mdlmlab.scoring import (
    confidence,
    confidence_vector,
    dos_dependency,
    entropy,
    entropy_vector,
    kl_divergence,
    margin,
    UNCERTAINTY_SCORERS,
    row_scores,
    uncertainty_scores,
)


def random_categorical(rng, V):
    raw = rng.gamma(1.0, 1.0, size=V)
    return raw / raw.sum()


def test_confidence_examples():
    assert confidence(np.array([0.0, 1.0, 0.0])) == 1.0
    assert confidence(np.full(4, 0.25)) == 0.25
    assert confidence(np.array([0.7, 0.2, 0.1])) == pytest.approx(0.7)


def test_entropy_examples():
    assert entropy(np.array([0.0, 1.0, 0.0])) == 0.0
    assert entropy(np.full(4, 0.25)) == pytest.approx(math.log(4), abs=1e-12)
    assert entropy(np.array([0.5, 0.5, 0.0, 0.0])) == pytest.approx(
        math.log(2), abs=1e-12
    )


def test_margin_examples():
    assert margin(np.array([0.0, 1.0, 0.0])) == 1.0
    assert margin(np.full(4, 0.25)) == 0.0
    assert margin(np.array([0.7, 0.2, 0.1])) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        margin(np.array([1.0]))


def test_kl_examples():
    p = np.array([0.9, 0.1])
    assert kl_divergence(p, p) == 0.0
    want = 0.9 * math.log(1.8) + 0.1 * math.log(0.2)
    assert kl_divergence(p, np.array([0.5, 0.5])) == pytest.approx(want, abs=1e-12)
    # total despite zeros in q thanks to the floor
    assert np.isfinite(kl_divergence(np.array([1.0, 0.0]), np.array([0.0, 1.0])))


def test_kl_nonnegative_on_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(10000):
        V = int(rng.integers(2, 6))
        p, q = random_categorical(rng, V), random_categorical(rng, V)
        assert kl_divergence(p, q) >= -1e-12


def test_score_bounds_and_margin_below_confidence():
    rng = np.random.default_rng(1)
    for _ in range(10000):
        p = random_categorical(rng, int(rng.integers(2, 8)))
        c, e, m = confidence(p), entropy(p), margin(p)
        assert 0.0 <= c <= 1.0
        assert 0.0 <= e <= math.log(p.size) + 1e-12
        assert 0.0 <= m <= 1.0
        assert m <= c + 1e-12


def test_dos_dependency_hand_example():
    # two heads, one masked row; score averages heads then sums unmasked cols
    attn = np.zeros((2, 3, 3))
    attn[0, 1] = [0.6, 0.2, 0.2]
    attn[1, 1] = [0.2, 0.2, 0.6]
    attn[:, 0] = [1.0, 0.0, 0.0]
    attn[:, 2] = [0.0, 0.0, 1.0]
    scores = dos_dependency([attn], 0, masked=[1, 2], unmasked=[0], n_positions=3)
    assert scores[1] == pytest.approx(0.4)
    assert np.isnan(scores[0])


def test_dos_dependency_empty_context_and_full_row():
    attn = np.full((1, 2, 2), 0.5)
    scores = dos_dependency([attn], 0, masked=[0, 1], unmasked=[], n_positions=2)
    assert scores[0] == 0.0 and scores[1] == 0.0
    scores = dos_dependency([attn], 0, masked=[1], unmasked=[0], n_positions=2)
    # dep plus the mass on masked columns is the full (stochastic) row
    assert scores[1] + attn[0, 1, 1] == pytest.approx(1.0, abs=1e-6)


def test_dos_dependency_mass_split_property():
    rng = np.random.default_rng(2)
    for _ in range(200):
        L, H = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        raw = rng.gamma(1.0, 1.0, size=(H, L, L))
        attn = raw / raw.sum(axis=-1, keepdims=True)
        masked = sorted(
            rng.choice(L, size=int(rng.integers(1, L + 1)), replace=False).tolist()
        )
        unmasked = [i for i in range(L) if i not in masked]
        scores = dos_dependency([attn], 0, masked, unmasked, L)
        avg = attn.mean(axis=0)
        for m in masked:
            assert 0.0 <= scores[m] <= 1.0 + 1e-12
            masked_mass = avg[m, masked].sum()
            assert scores[m] + masked_mass == pytest.approx(1.0, abs=1e-6)


def test_dos_dependency_equals_per_position_loop():
    # one state alone, and each row of an (n, L) chunk, bit for bit the
    # per-position sums (L reaches 16, past numpy's 8-entry pairwise blocks)
    rng = np.random.default_rng(8)
    for _ in range(500):
        L, H, n = int(rng.integers(1, 17)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
        raw = rng.gamma(1.0, 1.0, size=(n, H, L, L))
        attn = raw / raw.sum(axis=-1, keepdims=True)
        is_masked = rng.random((n, L)) < rng.random((n, 1))
        chunk = dos_dependency([attn], 0, is_masked)
        assert chunk.shape == (n, L)
        for r in range(n):
            masked = [i for i in range(L) if is_masked[r, i]]
            unmasked = [i for i in range(L) if not is_masked[r, i]]
            want = np.full(L, np.nan)
            for m in masked:
                want[m] = float(attn[r].mean(axis=0)[m, unmasked].sum()) if unmasked else 0.0
            got = dos_dependency([attn[r]], 0, masked, unmasked, L)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(chunk[r], want, equal_nan=True)


def test_kl_divergence_rows_equal_one_dimensional_calls():
    # V reaches 12, so zero-padded pairwise sums would round differently
    rng = np.random.default_rng(9)
    for V in range(2, 13):
        p = rng.random((3, 5, V)) * (rng.random((3, 5, V)) < 0.6)
        q = rng.random((3, 5, V)) * (rng.random((3, 5, V)) < 0.9)
        rows = kl_divergence(p, q)
        assert rows.shape == (3, 5)
        for i, j in np.ndindex(3, 5):
            q_ij = np.maximum(q[i, j], 1e-12)
            nz = p[i, j] > 0
            want = float((p[i, j][nz] * np.log(p[i, j][nz] / q_ij[nz])).sum())
            assert rows[i, j] == want == kl_divergence(p[i, j], q[i, j])


def test_dos_dependency_layer_bounds():
    attn = np.full((1, 2, 2), 0.5)
    with pytest.raises(IndexError):
        dos_dependency([attn], 1, [0], [1], 2)


def test_dos_depends_only_on_attentions():
    # identical attentions yield identical scores no matter the distributions
    rng = np.random.default_rng(3)
    raw = rng.gamma(1.0, 1.0, size=(2, 4, 4))
    attn = raw / raw.sum(axis=-1, keepdims=True)
    s1 = dos_dependency([attn], 0, [0, 2], [1, 3], 4)
    s2 = dos_dependency([attn.copy()], 0, [0, 2], [1, 3], 4)
    assert np.array_equal(s1[[0, 2]], s2[[0, 2]])


def test_uncertainty_scores_convention():
    probs = np.array([[0.7, 0.3], [0.5, 0.5]])
    conf = uncertainty_scores("confidence", probs, [True, True])
    ent = uncertainty_scores("entropy", probs, [True, True])
    marg = uncertainty_scores("margin", probs, [True, True])
    # higher always means decode earlier: all three prefer position 0 here
    assert conf[0] > conf[1]
    assert ent[0] > ent[1]  # entropy is negated at this boundary
    assert marg[0] > marg[1]
    assert np.isnan(uncertainty_scores("confidence", probs, [False, True])[0])


def test_vector_helpers():
    probs = np.array([[0.7, 0.3], [0.5, 0.5]])
    assert confidence_vector(probs, [True, False])[0] == pytest.approx(0.7)
    assert entropy_vector(probs, [False, True])[1] == pytest.approx(math.log(2))


def test_vectors_and_scalars_share_one_row_rule():
    rng = np.random.default_rng(5)
    probs = rng.dirichlet(np.ones(5), size=6)
    probs[1] = [0.0, 1.0, 0.0, 0.0, 0.0]
    probs[2, :2] = 0.0
    probs[2] /= probs[2].sum()
    masked = [0, 1, 2, 4]
    is_masked = np.isin(np.arange(6), masked)
    conf = confidence_vector(probs, is_masked)
    ents = entropy_vector(probs, is_masked)
    neg_ents = uncertainty_scores("entropy", probs, is_masked)
    margins = uncertainty_scores("margin", probs, is_masked)
    assert np.array_equal(row_scores("confidence", probs[masked]), conf[masked])
    for m in masked:
        assert conf[m] == confidence(probs[m])
        assert ents[m] == entropy(probs[m]) == -neg_ents[m]
        assert margins[m] == margin(probs[m])
    assert np.isnan(conf[[3, 5]]).all() and np.isnan(ents[[3, 5]]).all()
    with pytest.raises(ValueError, match="unknown"):
        uncertainty_scores("nope", probs, is_masked)


def test_a_batch_scores_like_its_states_one_by_one():
    rng = np.random.default_rng(6)
    scalar = {"confidence": confidence, "entropy": lambda p: -entropy(p), "margin": margin}
    for V in (2, 3, 9):
        probs = rng.dirichlet(np.ones(V), size=(5, 7))
        probs[probs < 0.1] = 0.0  # zero entries, as one-hot rows have
        masked = rng.random((5, 7)) < 0.6
        masked[0] = False  # a state with nothing left to score
        masked[1] = True
        for kind in UNCERTAINTY_SCORERS:
            batch = uncertainty_scores(kind, probs, masked)
            one_by_one = [uncertainty_scores(kind, probs[k], masked[k]) for k in range(5)]
            assert np.array_equal(batch, np.stack(one_by_one), equal_nan=True)
            assert np.isnan(batch[~masked]).all()
            for k, i in zip(*np.nonzero(masked)):
                assert batch[k, i] == scalar[kind](probs[k, i])
        assert np.array_equal(confidence_vector(probs, masked),
                              uncertainty_scores("confidence", probs, masked), equal_nan=True)
        assert np.array_equal(entropy_vector(probs, masked),
                              -uncertainty_scores("entropy", probs, masked), equal_nan=True)
