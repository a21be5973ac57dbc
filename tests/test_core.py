import numpy as np
import pytest

from mdlmlab.core import (
    SequenceState,
    Vocabulary,
    alpha,
    forward_mask,
    posterior_step,
    reverse_unmask_prob,
    token_rows,
)

V4 = Vocabulary(4)


def test_vocabulary_basics():
    assert V4.mask_id == 5
    assert V4.is_content(1) and V4.is_content(4)
    assert not V4.is_content(5) and not V4.is_content(0)
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
    assert s.unmasked_positions() == (0, 2)
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
    x0 = SequenceState(V4, (1, 2, 3, 4), 1)
    assert forward_mask(x0, 0.0, rng).tokens == x0.tokens
    assert forward_mask(x0, 1.0, rng).tokens == (1, 5, 5, 5)
    with pytest.raises(ValueError):
        forward_mask(x0, 1.5, rng)
    with pytest.raises(ValueError):
        forward_mask(SequenceState(V4, (1, 5), 1), 0.5, rng)


def test_forward_mask_masked_fraction():
    # Monte Carlo check of the per-token Bernoulli(t) masking rule.
    rng = np.random.default_rng(7)
    n = 10000
    x0 = SequenceState(V4, tuple(rng.integers(1, 5, size=n).tolist()), 0)
    xt = forward_mask(x0, 0.3, rng)
    frac = len(xt.masked_positions()) / n
    assert abs(frac - 0.3) < 0.02


def test_forward_mask_never_touches_prompt():
    rng = np.random.default_rng(3)
    for _ in range(50):
        L = int(rng.integers(2, 9))
        pl = int(rng.integers(0, L))
        toks = tuple(rng.integers(1, 5, size=L).tolist())
        x0 = SequenceState(V4, toks, pl)
        t = float(rng.uniform(0, 1))
        xt = forward_mask(x0, t, rng)
        assert xt.tokens[:pl] == toks[:pl]
        for i in range(pl, L):
            assert xt.tokens[i] in (toks[i], V4.mask_id)


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
    # Corrupting to time t and stepping the analytic posterior back to s must
    # look like corrupting directly to time s.
    rng = np.random.default_rng(11)
    x0 = SequenceState(V4, (2, 1, 4, 3, 2, 1), 0)
    t, s = 0.8, 0.3
    n = 20000
    masked_counts = np.zeros(len(x0))
    for _ in range(n):
        xt = forward_mask(x0, t, rng)
        xs = posterior_step(xt, x0, t, s, rng)
        for i in range(len(x0)):
            if xs.is_masked(i):
                masked_counts[i] += 1
            else:
                assert xs.tokens[i] == x0.tokens[i]
    fracs = masked_counts / n
    assert np.all(np.abs(fracs - s) < 0.02)
