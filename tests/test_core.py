import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlmlab.core import (
    SequenceState,
    Vocabulary,
    alpha,
    forward_mask,
    reverse_unmask_prob,
    token_rows,
)

V4 = Vocabulary(4)


def test_vocabulary_basics():
    assert V4.mask_id == 5
    with pytest.raises(ValueError):
        Vocabulary(1)


def test_sequence_state_validation():
    with pytest.raises(ValueError):
        SequenceState(V4, (), 0)
    with pytest.raises(ValueError):
        SequenceState(V4, (1, 2), 2)  # prompt_len must stay below L
    with pytest.raises(ValueError):
        SequenceState(V4, (5, 1), 1)  # masked prompt position
    with pytest.raises(ValueError):
        SequenceState(V4, (1, 9), 0)  # bad token id
    s = SequenceState(V4, (3, 5, 1), 1)
    assert s.masked_positions() == (1,)
    s2 = s.with_tokens({1: 2})
    assert s2.tokens == (3, 2, 1) and s.tokens == (3, 5, 1)


def test_token_rows_examples():
    rows = token_rows([(3, 1, 5), (1, 2, 5)], 4, 3, mask=True)
    assert rows.dtype == np.int64 and rows.tolist() == [[3, 1, 5], [1, 2, 5]]
    assert token_rows([[], []], 4).shape == (2, 0)  # empty prompts
    assert token_rows(np.array([[4]], dtype=np.uint8), 4).dtype == np.int64
    for tokens, message in (
        ([(3, 1, 5)], "outside 1..4"),  # the mask id, not allowed here
        ([(1,), (1, 2)], "one length"),
        ([1, 2], "one length"),  # not rows
        ([(1.0, 2.0)], "integers"),
        ([(True, False)], "integers"),
    ):
        with pytest.raises(ValueError, match=message):
            token_rows(tokens, 4)
    with pytest.raises(ValueError, match="rows of 2 tokens"):
        token_rows([(1, 2, 3)], 4, 2)
    with pytest.raises(ValueError, match=r"outside 1\.\.5"):
        token_rows([(6,)], 4, mask=True)


def test_schedule_endpoints():
    assert alpha(0.0) == 1.0
    assert alpha(1.0) == 0.0
    assert alpha(0.25) == 0.75


def test_forward_mask_endpoints():
    rng = np.random.default_rng(0)
    corrupted, t = forward_mask([(1, 2, 3, 4)] * 3, 4, 1, rng, t_min=1.0)
    assert corrupted.tolist() == [[1, 5, 5, 5]] * 3 and t.tolist() == [1.0] * 3
    corrupted, t = forward_mask(np.zeros((0, 4), dtype=int), 4, 1, rng)
    assert corrupted.shape == (0, 4) and t.shape == (0,)
    for x0, prompt_len, message in (
        ([(1, 5)], 1, r"outside 1\.\.4"),  # the mask id is no clean token
        ([(1, 0)], 0, r"outside 1\.\.4"),
        ([(1.0, 2.0)], 0, "integers"),
        ([(1, 2), (1,)], 0, "one length"),
        ([1, 2], 0, "one length"),  # not rows
        ([(1, 2)], 2, "prompt_len 2 out of range for L=2"),
        ([(1, 2)], -1, "prompt_len -1 out of range"),
        ([()], 0, "prompt_len 0 out of range for L=0"),
    ):
        with pytest.raises(ValueError, match=message):
            forward_mask(x0, 4, prompt_len, rng)
    state = rng.bit_generator.state
    for t_min in (np.nan, np.inf, -0.1, 1.5):  # NaN used never to return
        with pytest.raises(ValueError, match=r"t_min must lie in \[0, 1\]"):
            forward_mask([(1, 2, 1)], 2, 0, rng, t_min=t_min)
    for redraws in (-1, -2, 1.5, True):  # each used to warn or return rows
        with pytest.raises(ValueError, match=r"redraws must be None or an integer >= 0"):
            forward_mask([(1, 2, 1)], 2, 0, rng, redraws=redraws)
    assert rng.bit_generator.state == state


def test_forward_mask_masked_fraction():
    # given its t, a row's masked count is Binomial(L, t)
    rng = np.random.default_rng(7)
    x0 = rng.integers(1, 5, size=(5, 10000))
    corrupted, t = forward_mask(x0, 4, 0, rng)
    frac = (corrupted == 5).mean(axis=1)
    assert np.all(np.abs(frac - t) < 0.02)


def test_forward_mask_never_touches_prompt():
    rng = np.random.default_rng(3)
    for _ in range(50):
        L = int(rng.integers(2, 9))
        pl = int(rng.integers(0, L))
        x0 = rng.integers(1, 5, size=(4, L))
        xt, _ = forward_mask(x0, 4, pl, rng, t_min=float(rng.uniform(0, 1)))
        assert np.array_equal(xt[:, :pl], x0[:, :pl])
        assert np.all((xt == x0) | (xt == V4.mask_id))


def _mask_rows_reference(x0, V, prompt_len, rng, t_min, redraws):
    """One row at a time, one uniform draw per position."""
    out, ts = [], []
    for row in x0:
        for attempt in range(10**9 if redraws is None else redraws + 1):
            t = rng.uniform(t_min, 1.0)
            hidden = [rng.random() >= 1.0 - t for _ in range(len(row) - prompt_len)]
            if any(hidden):
                break
        out.append(list(row[:prompt_len]) + [V + 1 if h else v
                                             for h, v in zip(hidden, row[prompt_len:])])
        ts.append(t)
    return out, ts


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), V=st.integers(2, 4), L=st.integers(1, 9), n=st.integers(0, 6),
       t_min=st.sampled_from([0.0, 0.01, 0.3, 0.5, 0.9]),
       redraws=st.sampled_from([None, 0, 1, 2]), seed=st.integers(0, 2**32 - 1))
def test_forward_mask_matches_per_row_reference(data, V, L, n, t_min, redraws, seed):
    prompt_len = data.draw(st.integers(0, L - 1))
    x0 = np.random.default_rng(seed).integers(1, V + 1, size=(n, L))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    corrupted, t = forward_mask(x0, V, prompt_len, rng, t_min, redraws)
    want, want_t = _mask_rows_reference(x0.tolist(), V, prompt_len, ref_rng, t_min, redraws)
    assert corrupted.dtype == np.int64 and corrupted.shape == (n, L)
    assert corrupted.tolist() == want and t.tolist() == want_t
    assert rng.random() == ref_rng.random()  # the same draws, no more
    if redraws is None:  # no retry limit: every row ends up masked
        assert np.all((corrupted == V + 1).any(axis=1))


class _CountingGenerator:
    """Forwards ``random`` and ``uniform`` to a generator, counting calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def random(self, *args, **kwargs):
        self.calls += 1
        return self.rng.random(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        self.calls += 1
        return self.rng.uniform(*args, **kwargs)


@pytest.mark.parametrize("redraws, most", [(0, 1), (1, 6), (None, 6)])
def test_forward_mask_draws_per_round_not_per_row(redraws, most):
    # one generator call per round of attempts: a row-by-row draw makes at
    # least two calls per row. ``most`` is the largest count measured over
    # these seeds (about 1 in 5 attempts at a training batch's rows, four
    # positions at t >= 0.01, masks nothing and is redrawn)
    for seed in range(20):
        x0 = np.random.default_rng(seed).integers(1, 3, size=(512, 5))
        rng = _CountingGenerator(np.random.default_rng(seed))
        forward_mask(x0, 2, 1, rng, t_min=0.01, redraws=redraws)
        assert 1 <= rng.calls <= most


def test_reverse_unmask_prob_values():
    assert reverse_unmask_prob(1.0, 0.0) == 1.0
    assert reverse_unmask_prob(1.0, 0.5) == 0.5
    assert reverse_unmask_prob(0.5, 0.25) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        reverse_unmask_prob(0.5, 0.5)
    with pytest.raises(ValueError):
        reverse_unmask_prob(0.0, -0.1)


def test_reverse_unmask_prob_range_and_monotonicity():
    for t in (0.2, 0.5, 0.9, 1.0):
        last = None
        for s in np.linspace(0.0, t - 1e-6, 25):
            p = reverse_unmask_prob(t, float(s))
            assert 0.0 <= p <= 1.0
            if last is not None:
                assert p <= last + 1e-12  # decreasing in s for fixed t
            last = p


def test_posterior_composition_recovers_forward_marginal():
    # Corrupting to time t and then revealing each masked position with
    # reverse_unmask_prob(t, s), as stochastic remasking does, must look like
    # corrupting directly to time s.
    rng = np.random.default_rng(11)
    x0 = np.array([2, 1, 4, 3, 2, 1])
    t, s = 0.8, 0.3
    n = 20000
    hidden_t = rng.random((n, len(x0))) >= alpha(t)
    revealed = rng.random((n, len(x0))) < reverse_unmask_prob(t, s)
    xs = np.where(hidden_t & ~revealed, V4.mask_id, x0)
    masked = xs == V4.mask_id
    assert np.all((xs == x0) | masked)
    assert np.all(np.abs(masked.mean(axis=0) - s) < 0.02)
