import dataclasses
import itertools
import os
import tempfile
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_conditionals, one_row
from mdlmlab import oracle
from mdlmlab.core import SequenceState, StateBatch, Vocabulary
from mdlmlab.decoding import PolicyConfig, select_topk
from mdlmlab.harness import ExperimentConfig, dependency_greedy_schedule, run_policy, tv_distance
from mdlmlab.oracle import (
    ENUM_LIMIT,
    Distribution,
    EnumerationLimitError,
    FactorizedDAG,
    GroupSchedule,
    JointFormatError,
    OracleDenoiser,
    TabularJoint,
    ZeroSupportError,
    conditional_marginal,
    exact_policy_distribution,
    joint_prob,
    joint_table,
    load_joint_model,
    marginal_table,
    model_distribution,
    oracle_dependency,
    pattern_entropies,
    prompt_marginal,
    random_dag,
    random_tabular,
    random_tree_dag,
    sample_joint,
    sample_joints,
    save_joint_model,
    sequence_codes,
)

V2 = Vocabulary(2)


def uniform_tabular(V, L):
    return TabularJoint(Vocabulary(V), np.full((V,) * L, 1.0 / V**L))


def independent_dag(rows):
    # one CPT row per node, no parents
    parents = tuple(() for _ in rows)
    cpts = tuple(np.asarray(r, dtype=float) for r in rows)
    return FactorizedDAG(Vocabulary(len(rows[0])), parents, cpts)


def chain_dag(seed, V=2, L=4):
    rng = np.random.default_rng(seed)
    parents = [()] + [(i - 1,) for i in range(1, L)]
    cpts = []
    for ps in parents:
        raw = rng.gamma(1.0, 1.0, size=(V,) * len(ps) + (V,)) + 0.1
        cpts.append(raw / raw.sum(axis=-1, keepdims=True))
    return FactorizedDAG(Vocabulary(V), tuple(parents), tuple(cpts))


def test_joint_prob_uniform():
    m = uniform_tabular(2, 2)
    for a in itertools.product((1, 2), repeat=2):
        assert joint_prob(m, a) == pytest.approx(0.25)


def test_joint_prob_independent_product():
    m = independent_dag([[0.3, 0.7], [0.9, 0.1], [0.5, 0.5]])
    assert joint_prob(m, (1, 2, 1)) == pytest.approx(0.3 * 0.1 * 0.5)
    assert joint_prob(m, (2, 1, 2)) == pytest.approx(0.7 * 0.9 * 0.5)


def test_joint_prob_dag_matches_dense_table():
    rng = np.random.default_rng(5)
    m = random_dag(rng, V=2, L=5)
    table = joint_table(m)
    for a in itertools.product((1, 2), repeat=5):
        assert joint_prob(m, a) == pytest.approx(
            float(table[tuple(v - 1 for v in a)]), abs=1e-14
        )


def test_joint_prob_errors():
    m = uniform_tabular(2, 2)
    with pytest.raises(ValueError):
        joint_prob(m, (1, 2, 1))  # length mismatch
    with pytest.raises(ValueError):
        joint_prob(m, (1, 3))  # out-of-vocab token
    with pytest.raises(ValueError):
        joint_prob(m, (1, V2.mask_id))  # masked assignment


def test_conditional_marginal_point_mass():
    # X2 is a deterministic copy of X1: the conditional collapses.
    cpt = np.array([[1.0, 0.0], [0.0, 1.0]])
    m = FactorizedDAG(V2, ((), (0,)), (np.array([0.4, 0.6]), cpt))
    state = SequenceState(V2, (2, V2.mask_id), 0)
    cm = conditional_marginal(m, state)
    assert np.allclose(cm[1], [0.0, 1.0])


def test_conditional_marginal_independent():
    m = independent_dag([[0.3, 0.7], [0.9, 0.1]])
    state = SequenceState(V2, (1, V2.mask_id), 0)
    assert np.allclose(conditional_marginal(m, state)[1], [0.9, 0.1])
    state = SequenceState(V2, (2, V2.mask_id), 0)
    assert np.allclose(conditional_marginal(m, state)[1], [0.9, 0.1])


def test_conditional_marginal_reads_cpt_row():
    # With X1 observed and X3 depending only on X1, the conditional is the row.
    m = chain_dag(3, V=2, L=3)
    for v1 in (1, 2):
        state = SequenceState(V2, (v1, V2.mask_id, V2.mask_id), 0)
        cm = conditional_marginal(m, state)
        assert np.allclose(cm[1], m.cpts[1][v1 - 1], atol=1e-12)


def test_conditional_marginal_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(10):
        V = int(rng.integers(2, 4))
        L = int(rng.integers(2, 5))
        m = random_tabular(rng, V, L) if rng.random() < 0.5 else random_dag(rng, V, L)
        toks = [int(v) for v in sample_joint(m, rng)]
        n_masked = int(rng.integers(1, L + 1))
        for i in rng.choice(L, size=n_masked, replace=False):
            toks[i] = m.vocab.mask_id
        state = SequenceState(m.vocab, tuple(toks), 0)
        got = conditional_marginal(m, state)
        want = brute_conditionals(m, state)
        for i in state.masked_positions():
            assert np.max(np.abs(got[i] - want[i])) < 1e-12


def test_conditional_marginal_zero_support():
    table = np.array([[0.5, 0.5], [0.0, 0.0]])
    m = TabularJoint(V2, table / table.sum())
    state = SequenceState(V2, (2, V2.mask_id), 0)
    with pytest.raises(ZeroSupportError):
        conditional_marginal(m, state)
    with pytest.raises(ValueError):
        conditional_marginal(m, SequenceState(V2, (1, 1), 0))  # nothing masked


def test_exact_policy_distribution_chain_rule_any_order():
    # Single-position groups in any order reproduce the joint exactly.
    rng = np.random.default_rng(23)
    m = random_dag(rng, V=2, L=4)
    target = model_distribution(m)
    for order in ((0, 1, 2, 3), (3, 1, 0, 2), (2, 0, 3, 1)):
        sched = GroupSchedule(tuple((p,) for p in order))
        induced = exact_policy_distribution(m, sched)
        assert tv_distance(target, induced) < 1e-12


def test_exact_policy_distribution_single_group_is_marginal_product():
    rng = np.random.default_rng(29)
    m = random_dag(rng, V=2, L=4)
    induced = exact_policy_distribution(m, GroupSchedule(((0, 1, 2, 3),)))
    table = joint_table(m)
    for seq, p in induced.items():
        want = 1.0
        for i, v in enumerate(seq):
            marg = table.sum(axis=tuple(a for a in range(4) if a != i))
            want *= marg[v - 1]
        assert p == pytest.approx(want, abs=1e-12)


def test_exact_policy_distribution_sums_to_one():
    rng = np.random.default_rng(31)
    for _ in range(5):
        m = random_dag(rng, V=2, L=5)
        groups, pool = [], list(range(5))
        while pool:
            k = int(rng.integers(1, len(pool) + 1))
            groups.append(tuple(pool[:k]))
            pool = pool[k:]
        induced = exact_policy_distribution(m, GroupSchedule(tuple(groups)))
        assert sum(induced.values()) == pytest.approx(1.0, abs=1e-9)


def test_exact_policy_distribution_validates_cover_and_limit():
    m = uniform_tabular(2, 3)
    with pytest.raises(ValueError):
        exact_policy_distribution(m, GroupSchedule(((0, 1),)))  # misses position 2
    # 2^20 states: past ENUM_LIMIT, and building the DAG allocates no table
    big = random_dag(np.random.default_rng(0), V=2, L=20)
    assert big.vocab.size ** big.L > ENUM_LIMIT
    state = SequenceState(big.vocab, (big.vocab.mask_id,) * big.L)
    for call in (
        lambda: joint_table(big),
        lambda: conditional_marginal(big, state),
        lambda: exact_policy_distribution(big, GroupSchedule((tuple(range(20)),))),
        lambda: OracleDenoiser(big)(one_row(state)),
    ):
        with pytest.raises(EnumerationLimitError):
            call()
    for mode in ("auto", "mc"):
        cfg = ExperimentConfig(joint="layered 0", policies=(PolicyConfig(),),
                               prompt_len=1, samples=1, mode=mode)
        with pytest.raises(EnumerationLimitError):
            run_policy(big, OracleDenoiser(big), cfg.policies[0], cfg,
                       np.random.default_rng(0))


def test_refinement_monotonicity_on_trees():
    # Splitting any group into sequential singletons never hurts on trees.
    rng = np.random.default_rng(37)
    for _ in range(20):
        m = random_tree_dag(rng, V=2, L=int(rng.integers(3, 6)))
        L = m.L
        groups, pool = [], list(rng.permutation(L))
        while pool:
            k = int(rng.integers(1, len(pool) + 1))
            groups.append(tuple(int(x) for x in pool[:k]))
            pool = pool[k:]
        sched = GroupSchedule(tuple(groups))
        target = model_distribution(m)
        tv_orig = tv_distance(target, exact_policy_distribution(m, sched))
        gi = max(range(len(groups)), key=lambda j: len(groups[j]))
        split = (
            groups[:gi]
            + [(p,) for p in sorted(groups[gi])]
            + groups[gi + 1 :]
        )
        tv_split = tv_distance(
            target, exact_policy_distribution(m, GroupSchedule(tuple(split)))
        )
        assert tv_split <= tv_orig + 1e-12


def test_sample_joint_deterministic_model():
    table = np.zeros((2, 2))
    table[0, 1] = 1.0
    m = TabularJoint(V2, table)
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert sample_joint(m, rng) == (1, 2)


def test_sample_joint_uniform_frequencies():
    m = uniform_tabular(2, 2)
    rng = np.random.default_rng(41)
    counts = {}
    n = 100000
    for s in map(tuple, sample_joints(m, rng, n).tolist()):
        counts[s] = counts.get(s, 0) + 1
    for s in itertools.product((1, 2), repeat=2):
        assert abs(counts[s] / n - 0.25) < 0.01


def test_sample_joint_matches_model_distribution():
    rng = np.random.default_rng(43)
    m = random_dag(rng, V=2, L=4)
    n = 100000
    emp = {}
    for s in map(tuple, sample_joints(m, rng, n).tolist()):
        emp[s] = emp.get(s, 0) + 1
    emp = {k: c / n for k, c in emp.items()}
    assert tv_distance(model_distribution(m), emp) < 0.02


def scalar_draw(model, rng):
    """One draw by the per-node loop that ``sample_joints`` vectorises."""
    if isinstance(model, TabularJoint):
        cum = np.cumsum(model.table.ravel())
        k = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        k = min(k, cum.size - 1)
        return tuple(int(v) + 1 for v in np.unravel_index(k, model.table.shape))
    toks = [0] * model.L
    for i in model.topo_order():
        cum = np.cumsum(model.cpts[i], axis=-1)
        row = cum[tuple(toks[q] - 1 for q in model.parents[i])]
        v = int(np.searchsorted(row, rng.random() * row[-1], side="right"))
        toks[i] = min(v, row.size - 1) + 1
    return tuple(toks)


def test_topo_order_is_the_smallest_topological_order():
    # sample_joints hands column j of its uniforms to the j-th node of this
    # order, so any other valid order would move every MC draw
    rng = np.random.default_rng(61)
    for _ in range(100):
        L = int(rng.integers(1, 7))
        rank = rng.permutation(L)  # every edge runs from a lower rank to a higher
        parents = tuple(tuple(q for q in range(L) if rank[q] < rank[i] and rng.random() < 0.4)
                        for i in range(L))
        dag = FactorizedDAG(V2, parents,
                            tuple(np.full((2,) * (len(ps) + 1), 0.5) for ps in parents))
        valid = [order for order in itertools.permutations(range(L))
                 if all(order.index(q) < order.index(i) for i in range(L) for q in parents[i])]
        assert dag.topo_order() == min(valid)


def sparse_model(data: np.random.Generator, V: int, L: int, tabular: bool):
    """A random table, or a DAG with relabelled nodes, with zero entries."""
    if tabular:
        table = data.random((V,) * L) * (data.random((V,) * L) < 0.7)
        table.flat[0] += 0.1
        return TabularJoint(Vocabulary(V), table / table.sum())
    dag = random_dag(data, V, L, max_parents=3)
    # relabel the nodes, so the topological order is not the index order
    perm = data.permutation(L).tolist()
    parents, cpts = [()] * L, [None] * L
    for i in range(L):
        keep = data.random(dag.cpts[i].shape) < 0.7
        keep[..., 0] = True  # zeros in the CPT rows, none all zero
        cpt = dag.cpts[i] * keep
        parents[perm[i]] = tuple(perm[q] for q in dag.parents[i])
        cpts[perm[i]] = cpt / cpt.sum(axis=-1, keepdims=True)
    return FactorizedDAG(Vocabulary(V), tuple(parents), tuple(cpts))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), V=st.integers(2, 4), L=st.integers(1, 5),
       n=st.integers(0, 12), tabular=st.booleans())
def test_sample_joints_draws_like_one_row_calls(seed, V, L, n, tabular):
    data = np.random.default_rng(seed)
    model = sparse_model(data, V, L, tabular)
    batched, one_row, scalar = (np.random.default_rng(seed + 1) for _ in range(3))
    got = sample_joints(model, batched, n)
    assert got.shape == (n, L)
    rows = [tuple(r) for r in got.tolist()]
    assert rows == [sample_joint(model, one_row) for _ in range(n)]
    assert rows == [scalar_draw(model, scalar) for _ in range(n)]
    assert batched.random() == one_row.random() == scalar.random()


def test_model_distribution_lists_the_support_in_table_order():
    rng = np.random.default_rng(8)
    sparse = rng.random((3, 3, 3)) * (rng.random((3, 3, 3)) < 0.5)
    sparse[0, 0, 0] = 0.0
    sparse[2, 1, 0] += 0.1
    for model in (random_dag(rng, 3, 4), random_tabular(rng, 2, 5),
                  TabularJoint(Vocabulary(3), sparse / sparse.sum())):
        want = {
            tuple(v + 1 for v in idx): float(p)
            for idx, p in np.ndenumerate(joint_table(model)) if p > 0
        }
        got = model_distribution(model)
        assert list(got.items()) == list(want.items())
        assert all(type(p) is float for p in got.values())
        assert all(type(v) is int for seq in got for v in seq)
        # a read-only mapping that equals the dict of its items
        assert got == want and not got != want
        assert got != {**want, next(iter(want)): 2.0}
        assert all(got[k] == p and got.get(k) == p for k, p in want.items())
        seq = next(iter(want))
        with pytest.raises(TypeError):
            got[seq] = 0.5
        with pytest.raises(ValueError):
            got.vector[0] = 0.5
        # a sequence of zero mass, another length or a token past V is no key
        V, L = model.vocab.size, model.L
        absent = [k for k in itertools.product(range(1, V + 1), repeat=L) if k not in want]
        for key in absent[:1] + [seq[:-1], seq + (1,), (V + 1,) + seq[1:], (0,) + seq[1:]]:
            assert key not in got and got.get(key) is None
            with pytest.raises(KeyError):
                got[key]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(V=st.integers(2, 4), L=st.integers(1, 5), data=st.data())
def test_sequence_codes_round_trip_and_refuse_malformed_rows(V, L, data):
    row = st.lists(st.integers(1, V), min_size=L, max_size=L)
    rows = data.draw(st.lists(row, min_size=1, max_size=8))
    codes = sequence_codes(rows, V, L)
    assert codes.tolist() == [
        int(np.ravel_multi_index(tuple(v - 1 for v in r), (V,) * L)) for r in rows
    ]
    # the view lists the distinct rows, in table order, with their shares
    dist = Distribution.of(rows, V, L)
    counts = {tuple(r): rows.count(r) / len(rows) for r in rows}
    assert list(dist) == sorted(counts) and dist == counts
    # a token outside 1..V at any position: refused, not aliased
    i, k = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, L - 1))
    bad = [list(r) for r in rows]
    bad[i][k] = data.draw(st.sampled_from([0, -1, V + 1, V + 2, 10**6]))
    with pytest.raises(ValueError, match=f"token outside 1..{V}"):
        sequence_codes(bad, V, L)
    assert tuple(bad[i]) not in dist
    # a row of another length, alone or among rows of length L
    other = data.draw(st.lists(st.integers(1, V), max_size=L + 2).filter(lambda r: len(r) != L))
    for malformed in ([other], rows + [other]):
        with pytest.raises(ValueError, match=f"rows of {L} tokens"):
            sequence_codes(malformed, V, L)
    with pytest.raises(ValueError, match="integers"):
        sequence_codes(np.array(rows, dtype=float), V, L)


def test_oracle_call_with_repeated_rows_is_each_rows_own_call():
    # a call's rows repeat within it and across calls; each row's output is
    # its one-row call's, bit for bit
    model = random_dag(np.random.default_rng(3), V=3, L=5)
    vocab = model.vocab
    rng = np.random.default_rng(4)
    pool = rng.integers(1, vocab.mask_id + 1, size=(40, model.L))
    den = OracleDenoiser(model)
    alone = {tuple(row.tolist()): den(StateBatch(vocab, row[None])).probs[0] for row in pool}
    for _ in range(30):
        picks = rng.integers(0, len(pool), size=rng.integers(1, 30))
        tokens = pool[np.concatenate([picks, rng.permutation(picks)])]  # each row twice or more
        out = den.batch(StateBatch(vocab, tokens)).probs
        for r, row in enumerate(tokens.tolist()):
            assert np.array_equal(out[r], alone[tuple(row)])


def test_oracle_outputs_are_copies():
    # writing into an output leaves the next output for the same rows
    # unchanged, and no two outputs share memory
    model = random_dag(np.random.default_rng(5), V=3, L=4)
    vocab = model.vocab
    rows = np.array([[4, 1, 4, 2], [1, 4, 4, 3], [4, 1, 4, 2]])
    den = OracleDenoiser(model)
    want = den(StateBatch(vocab, rows)).probs.copy()
    first = den(StateBatch(vocab, rows))
    first.probs[...] = -1.0
    second = den(StateBatch(vocab, rows))
    assert np.array_equal(second.probs, want)
    assert not np.shares_memory(first.probs, second.probs)
    second.probs[0] = -1.0  # a repeated row is its own entry
    assert np.array_equal(second.probs[2], want[2])
    assert np.array_equal(den(StateBatch(vocab, rows[:1])).probs[0], want[0])


def test_oracle_names_the_first_dead_row_in_row_order():
    # both rows condition on an event of zero mass; the error names the
    # first row handed over, not the first in code order
    t = np.zeros((2, 2, 2))
    t[0, 0, 0] = t[1, 1, 1] = 0.5
    model = TabularJoint(V2, t)
    rows = np.array([[1, 2, 3], [2, 1, 3]])
    for tokens, fixed in ((rows, "{0: 1, 1: 2}"), (rows[::-1], "{0: 2, 1: 1}")):
        with pytest.raises(ZeroSupportError) as err:
            OracleDenoiser(model)(StateBatch(V2, tokens))
        assert str(err.value) == f"conditioning event {fixed} has probability zero"


def test_oracle_dependency_independent_is_zero():
    m = independent_dag([[0.3, 0.7], [0.9, 0.1], [0.5, 0.5]])
    state = SequenceState(m.vocab, (1, m.vocab.mask_id, m.vocab.mask_id), 0)
    assert oracle_dependency(m, state, 1) == pytest.approx(0.0, abs=1e-12)
    assert oracle_dependency(m, state, 2) == pytest.approx(0.0, abs=1e-12)


def test_oracle_dependency_copy_equals_marginal_entropy():
    # X2 copies X1 exactly, so its score is the entropy of X1's marginal.
    p1 = 0.35
    cpt = np.array([[1.0, 0.0], [0.0, 1.0]])
    m = FactorizedDAG(V2, ((), (0,)), (np.array([p1, 1 - p1]), cpt))
    state = SequenceState(V2, (1, V2.mask_id), 0)
    want = -(p1 * np.log(p1) + (1 - p1) * np.log(1 - p1))
    assert oracle_dependency(m, state, 1) == pytest.approx(want, abs=1e-12)


def test_oracle_dependency_data_processing_order():
    # X3 sees the context only through X1, so its score cannot exceed X1's.
    m = chain_dag(47, V=2, L=3)
    state = SequenceState(V2, (1, V2.mask_id, V2.mask_id), 0)
    assert oracle_dependency(m, state, 1) >= oracle_dependency(m, state, 2) - 1e-12


def test_oracle_dependency_no_context_is_zero():
    m = uniform_tabular(2, 2)
    state = SequenceState(V2, (V2.mask_id, V2.mask_id), 0)
    assert oracle_dependency(m, state, 0) == 0.0


def test_oracle_denoiser_outputs_and_scores():
    rng = np.random.default_rng(53)
    m = random_dag(rng, V=3, L=4)
    den = OracleDenoiser(m)
    state = SequenceState(m.vocab, (2, m.vocab.mask_id, 1, m.vocab.mask_id), 0)
    out = den(one_row(state))
    assert out.attentions is None
    assert np.allclose(out.probs.sum(axis=2), 1.0)
    assert out.probs[0, 0, 1] == 1.0  # observed positions are point masses
    before = out.probs.copy()
    out.probs[0, 1, 0] = 99.0  # a fresh array: writing into it changes no later output
    assert np.array_equal(den(one_row(state)).probs, before)
    masked = np.array([state.tokens]) == m.vocab.mask_id
    dep = den.dependency_scores(masked)
    assert np.isnan(dep[0, 0]) and np.isfinite(dep[0, 1])
    before = dep.copy()
    dep[0, 1] = 99.0  # a fresh gather as well
    assert np.array_equal(den.dependency_scores(masked), before, equal_nan=True)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), V=st.integers(2, 4), L=st.integers(1, 5),
       n=st.integers(1, 12), tabular=st.booleans())
def test_oracle_batch_is_each_rows_conditional(seed, V, L, n, tabular):
    data = np.random.default_rng(seed)
    model = sparse_model(data, V, L, tabular)
    vocab = model.vocab
    # contexts of positive mass, under random masks, plus one all-masked row
    tokens = np.where(data.random((n, L)) < data.random(), vocab.mask_id,
                      sample_joints(model, data, n))
    tokens = np.vstack([tokens, np.full((1, L), vocab.mask_id)])
    den = OracleDenoiser(model)
    out = den.batch(StateBatch(vocab, tokens))
    assert out.probs.shape == (n + 1, L, V) and out.attentions is None
    assert model._marginals is not None  # answered from the marginal table
    for r, row in enumerate(tokens.tolist()):
        state = SequenceState(vocab, tuple(row))
        want = brute_conditionals(model, state) if state.masked_positions() else {}
        for i, tok in enumerate(row):
            if i in want:
                assert np.max(np.abs(out.probs[r, i] - want[i])) <= 1e-12
            else:  # an unmasked position: the exact one-hot of its token
                assert np.array_equal(out.probs[r, i], np.eye(V)[tok - 1])
        # bit for bit the same alone, in a fresh denoiser
        assert np.array_equal(OracleDenoiser(model)(one_row(state)).probs[0], out.probs[r])
    # ... in reverse order, and after the denoiser answered other rows
    assert np.array_equal(den.batch(StateBatch(vocab, tokens[::-1])).probs, out.probs[::-1])
    mixed = OracleDenoiser(model)
    mixed.batch(StateBatch(vocab, tokens[::2]))
    assert np.array_equal(mixed.batch(StateBatch(vocab, tokens)).probs, out.probs)
    # a context of zero mass fails in the batch as in conditional_marginal
    row = data.integers(1, V + 1, size=L)
    row[data.random(L) < 0.5] = vocab.mask_id
    row[0] = vocab.mask_id
    seen = [i for i in range(L) if row[i] != vocab.mask_id]
    index = tuple(row[i] - 1 if i in seen else slice(None) for i in range(L))
    if joint_table(model)[index].sum() == 0.0:
        state = SequenceState(vocab, tuple(row.tolist()))
        with pytest.raises(ZeroSupportError):
            conditional_marginal(model, state)
        with pytest.raises(ZeroSupportError):
            OracleDenoiser(model).batch(StateBatch(vocab, np.vstack([tokens, row])))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), V=st.integers(2, 4), L=st.integers(1, 5),
       n=st.integers(1, 10), kind=st.sampled_from(["dense", "sparse", "dag"]))
def test_both_conditional_kernels_match_brute_force(seed, V, L, n, kind):
    data = np.random.default_rng(seed)
    if kind == "dense":
        model = random_tabular(data, V, L)
    else:
        model = sparse_model(data, V, L, kind == "sparse")
    mask = model.vocab.mask_id
    # masked draws from the joint, uniform rows, sequences of zero mass with
    # one position masked (some contexts of zero mass) and the all-masked row,
    # each row once as the oracle hands them over
    drawn = np.where(data.random((n, L)) < data.random(), mask, sample_joints(model, data, n))
    zeros = np.argwhere(joint_table(model) == 0.0)[:n] + 1
    zeros[np.arange(len(zeros)), data.integers(0, L, size=len(zeros))] = mask
    tokens = np.unique(np.vstack([drawn, data.integers(1, V + 2, size=(n, L)), zeros,
                                  np.full((1, L), mask)]), axis=0)
    live, dead = [], []
    for row in tokens:
        state = SequenceState(model.vocab, tuple(row.tolist()))
        try:
            want = brute_conditionals(model, state) if state.masked_positions() else {}
        except ZeroDivisionError:
            dead.append(row)
            continue
        live.append((row, want))
    rows = np.array([row for row, _ in live])
    gathered = oracle._gathered_conditionals(model, rows)
    by_pattern = oracle._pattern_conditionals(model, rows)
    assert np.max(np.abs(gathered - by_pattern)) <= 1e-15
    for probs in (gathered, by_pattern):
        for r, (row, want) in enumerate(live):
            for i, tok in enumerate(row.tolist()):
                if i in want:
                    assert np.max(np.abs(probs[r, i] - want[i])) <= 1e-12
                else:  # an unmasked position: the exact one-hot of its token
                    assert np.array_equal(probs[r, i], np.eye(V)[tok - 1])
    # a context of zero mass: both kernels name it, alone and as the first
    # one after the live rows
    for row in dead:
        fixed = {i: int(t) for i, t in enumerate(row.tolist()) if t != mask}
        for batch in (row[None], np.vstack([rows, row] + [d for d in dead if d is not row])):
            for kernel in (oracle._gathered_conditionals, oracle._pattern_conditionals):
                with pytest.raises(ZeroSupportError) as err:
                    kernel(model, batch)
                assert str(err.value) == f"conditioning event {fixed} has probability zero"


def test_joints_past_the_marginal_table_take_the_pattern_kernel(monkeypatch):
    # 2^13 sequences fit ENUM_LIMIT, a 3^13 marginal table does not
    model = random_dag(np.random.default_rng(71), V=2, L=13)
    assert model.vocab.size**model.L <= ENUM_LIMIT < (model.vocab.size + 1) ** model.L
    slabs = oracle._slabs
    calls = []
    monkeypatch.setattr(oracle, "_slabs", lambda sub: calls.append(sub.shape) or slabs(sub))
    rng = np.random.default_rng(72)
    mask = model.vocab.mask_id
    tokens = np.where(rng.random((3, model.L)) < 0.5, mask, sample_joints(model, rng, 3))
    tokens = np.vstack([tokens, np.full((1, model.L), mask)])
    out = OracleDenoiser(model)(StateBatch(model.vocab, tokens)).probs
    assert calls
    for r, row in enumerate(tokens.tolist()):
        state = SequenceState(model.vocab, tuple(row))
        want = brute_conditionals(model, state)
        calls.clear()
        got = conditional_marginal(model, state)
        assert calls and sorted(got) == sorted(want)
        for i in want:
            assert np.max(np.abs(out[r, i] - want[i])) <= 1e-12
            assert np.max(np.abs(got[i] - want[i])) <= 1e-12
        # bit for bit the same alone, in a fresh denoiser
        assert np.array_equal(OracleDenoiser(model)(one_row(state)).probs[0], out[r])
    assert model._marginals is None
    with pytest.raises(EnumerationLimitError):
        marginal_table(model)


def test_marginal_table_is_built_once_per_model():
    rng = np.random.default_rng(73)
    for model in (random_tabular(rng, V=3, L=4), random_dag(rng, V=2, L=5)):
        spec = {f.name: f for f in dataclasses.fields(model)}["_marginals"]
        assert not (spec.init or spec.repr or spec.compare)
        V, L = model.vocab.size, model.L
        before = repr(model)
        sched = GroupSchedule(tuple((i,) for i in range(L)))
        first = exact_policy_distribution(model, sched)
        table = model._marginals
        assert table is not None and table.shape == ((V + 1) ** L,) and repr(model) == before
        assert exact_policy_distribution(model, sched) == first
        OracleDenoiser(model)(StateBatch(model.vocab, np.full((1, L), V + 1)))
        assert model._marginals is table and marginal_table(model) is table
        # entry (row - 1) @ (V+1)**k is the joint summed over the masked positions
        joint = joint_table(model)
        for row in itertools.product(range(1, V + 2), repeat=L):
            code = sum((t - 1) * (V + 1) ** k for k, t in enumerate(row))
            masked = tuple(k for k, t in enumerate(row) if t == V + 1)
            index = tuple(slice(None) if t == V + 1 else t - 1 for t in row)
            want = joint[index].sum() if masked else joint[index]
            assert abs(table[code] - want) <= 1e-15
            if not masked:
                assert table[code] == want


def test_oracle_batch_rejects_rows_that_do_not_fit():
    model = random_dag(np.random.default_rng(5), V=3, L=4)
    den = OracleDenoiser(model)
    mask = model.vocab.mask_id
    for batch in (
        StateBatch(Vocabulary(2), np.array([[1, 3, 1, 3]])),  # another V
        StateBatch(model.vocab, np.array([[1, mask, 1]])),  # another L
        StateBatch(model.vocab, np.array([[0, mask, 1, 2]])),  # token 0
        StateBatch(model.vocab, np.array([[1, mask + 1, 1, 2]])),  # past the mask id
    ):
        with pytest.raises(ValueError):
            den.batch(batch)
    with pytest.raises(ValueError, match="vocabulary"):
        den.batch(StateBatch(Vocabulary(2), np.array([[1, 3, 1, 3]])))
    state = SequenceState(Vocabulary(3), (1, mask, 2))
    with pytest.raises(ValueError, match="vocabulary or length"):
        conditional_marginal(model, state)
    with pytest.raises(ValueError, match=f"rows of {model.L} tokens"):
        den(one_row(state))


def test_oracle_inputs_that_do_not_fit_the_joint_raise():
    model = random_dag(np.random.default_rng(5), V=3, L=4)
    mask = model.vocab.mask_id
    for state in (
        SequenceState(model.vocab, (1, mask, 2)),  # another L
        SequenceState(Vocabulary(2), (1, 3, 2, 3)),  # another V
    ):
        with pytest.raises(ValueError, match="vocabulary or length"):
            oracle_dependency(model, state, 1)
    den = OracleDenoiser(model)
    for masked in ([[True] * 3], [[True] * 5], [True] * model.L):
        with pytest.raises(ValueError, match=f"rows of {model.L} positions"):
            den.dependency_scores(masked)
    for prompt_len in (model.L + 1, model.L + 2, -1):
        with pytest.raises(ValueError, match=f"prompt_len {prompt_len} outside"):
            prompt_marginal(model, prompt_len)
    with pytest.raises(ValueError, match="prompt_len"):
        exact_policy_distribution(model, GroupSchedule(()), model.L + 2)
    assert len(prompt_marginal(model, model.L)) == len(model_distribution(model))


def recursive_walk(model, schedule: GroupSchedule, prompt_len: int) -> dict:
    """The schedule walk as a depth-first recursion, on brute-force prompt
    masses and conditionals."""
    V, L = model.vocab.size, model.L
    prompts: dict = defaultdict(float)
    for a in itertools.product(range(1, V + 1), repeat=L):
        prompts[a[:prompt_len]] += joint_prob(model, a)
    out: dict = {}

    def walk(tokens: tuple, gi: int, mass: float) -> None:
        if gi == len(schedule.groups):
            out[tokens] = out.get(tokens, 0.0) + mass
            return
        group = schedule.groups[gi]
        try:
            conds = brute_conditionals(model, SequenceState(model.vocab, tokens))
        except ZeroDivisionError:
            raise ZeroSupportError(f"context {tokens} has probability zero") from None
        supports = [[(v + 1, p) for v, p in enumerate(conds[i].tolist()) if p > 0]
                    for i in group]
        for combo in itertools.product(*supports):
            p, nxt = mass, list(tokens)
            for i, (tok, pv) in zip(group, combo):
                p *= pv
                nxt[i] = tok
            walk(tuple(nxt), gi + 1, p)

    for prompt, p in prompts.items():
        if p > 0:
            walk(prompt + (model.vocab.mask_id,) * (L - prompt_len), 0, p)
    return out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), V=st.integers(2, 3), L=st.integers(1, 4),
       prompt_len=st.integers(0, 1), tabular=st.booleans())
def test_schedule_walk_matches_the_recursive_walk(seed, V, L, prompt_len, tabular):
    data = np.random.default_rng(seed)
    model = sparse_model(data, V, L, tabular)
    groups, group = [], []
    for i in data.permutation(np.arange(prompt_len, L)).tolist():
        group.append(i)
        if data.random() < 0.5:
            groups, group = groups + [tuple(group)], []
    sched = GroupSchedule(tuple(groups + [tuple(group)] if group else groups))
    try:
        want = recursive_walk(model, sched, prompt_len)
    except ZeroSupportError:  # a group's joint draw left a context of zero mass
        with pytest.raises(ZeroSupportError):
            exact_policy_distribution(model, sched, prompt_len)
        return
    got = exact_policy_distribution(model, sched, prompt_len)
    assert list(got) == sorted(want)  # the same sequences, in table order
    assert max(abs(got[k] - want[k]) for k in want) <= 1e-12


def brute_mutual_information(probs: dict, masked, i: int) -> float:
    """I(x_i; unmasked positions) from every full assignment's probability."""
    seen = [j for j, m in enumerate(masked) if not m]
    joint, p_i, p_seen = defaultdict(float), defaultdict(float), defaultdict(float)
    for a, p in probs.items():
        u = tuple(a[j] for j in seen)
        joint[a[i], u] += p
        p_i[a[i]] += p
        p_seen[u] += p
    return sum(p * np.log(p / (p_i[v] * p_seen[u])) for (v, u), p in joint.items() if p > 0)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), V=st.integers(2, 4), L=st.integers(1, 5),
       n=st.integers(1, 8), tabular=st.booleans())
def test_dependency_scores_match_brute_force_mutual_information(seed, V, L, n, tabular):
    data = np.random.default_rng(seed)
    model = sparse_model(data, V, L, tabular)
    probs = {a: joint_prob(model, a) for a in itertools.product(range(1, V + 1), repeat=L)}
    den = OracleDenoiser(model)
    # random masks, each of them again in a random order, and the all-masked row
    drawn = data.random((n, L)) < data.random()
    masks = np.vstack([drawn, drawn[data.permutation(n)], np.ones((1, L), dtype=bool)])
    scores = den.dependency_scores(masks)
    assert scores.shape == masks.shape
    brute: dict = {}
    for masked, row in zip(masks, scores):
        # bit for bit the row's own one-row call, in a fresh denoiser
        alone = OracleDenoiser(model).dependency_scores(masked[None])
        assert np.array_equal(alone, row[None], equal_nan=True)
        state = SequenceState(model.vocab, tuple(np.where(masked, V + 1, 1).tolist()))
        for i in range(L):
            if masked[i]:
                key = (tuple(masked.tolist()), i)
                if key not in brute:
                    brute[key] = brute_mutual_information(probs, masked, i)
                assert abs(row[i] - brute[key]) <= 1e-12
                assert oracle_dependency(model, state, i) == row[i]
            else:
                assert np.isnan(row[i])


def table_entropy(joint: np.ndarray, masked) -> float:
    """Entropy of the joint's marginal over its unmasked positions, by one sum."""
    p = joint.sum(axis=tuple(k for k, m in enumerate(masked) if m)).ravel()
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def table_mutual_information(joint: np.ndarray, masked, i: int) -> float:
    """I(x_i; unmasked positions) from the joint table, as sum p log p / (p_i p_U)."""
    seen = [k for k, m in enumerate(masked) if not m]
    both = np.moveaxis(joint.sum(axis=tuple(k for k, m in enumerate(masked) if m and k != i)),
                       sum(k < i for k in seen), 0).reshape(joint.shape[0], -1)
    prod = np.outer(both.sum(axis=1), both.sum(axis=0))
    nz = both > 0
    return float((both[nz] * np.log(both[nz] / prod[nz])).sum())


def all_masks(L: int) -> np.ndarray:
    """Every mask pattern of L positions with a masked one, bit i for position i."""
    codes = np.arange(1, 2**L)
    return (codes[:, None] >> np.arange(L)) & 1 == 1


def test_pattern_entropies_are_built_once_per_model():
    rng = np.random.default_rng(74)
    for model in (random_tabular(rng, V=3, L=4), random_dag(rng, V=2, L=5)):
        spec = {f.name: f for f in dataclasses.fields(model)}["_entropies"]
        assert not (spec.init or spec.repr or spec.compare)
        L = model.L
        before = repr(model)
        first = dependency_greedy_schedule(model, prompt_len=1, steps=2)
        h = model._entropies
        assert h is not None and h.shape == (2**L,) and repr(model) == before
        assert dependency_greedy_schedule(model, prompt_len=1, steps=2) == first
        OracleDenoiser(model).dependency_scores(all_masks(L))
        state = SequenceState(model.vocab, (1,) + (model.vocab.mask_id,) * (L - 1))
        oracle_dependency(model, state, 1)
        assert model._entropies is h and pattern_entropies(model) is h
        # H[S] is the entropy of the marginal over the positions S leaves unmasked
        joint = joint_table(model)
        for code in range(2**L):
            masked = [bool(code >> k & 1) for k in range(L)]
            assert abs(h[code] - table_entropy(joint, masked)) <= 1e-12


def test_both_entropy_fills_agree():
    # binary L=13: a 3^13 marginal table does not fit, so entries are filled per pattern
    big = random_dag(np.random.default_rng(71), V=2, L=13)
    rng = np.random.default_rng(75)
    masks = np.vstack([rng.random((6, big.L)) < 0.6, np.ones((1, big.L), dtype=bool)])
    scores = OracleDenoiser(big).dependency_scores(masks)
    joint = joint_table(big)
    for masked, row in zip(masks.tolist(), scores):
        for i in range(big.L):
            if masked[i]:
                assert abs(row[i] - table_mutual_information(joint, masked, i)) <= 1e-12
    assert big._marginals is None and np.isnan(big._entropies).any()

    def both_fills(model, masks):
        """The scores of ``masks`` from each fill of the model's entropies."""
        L = model.L
        filled = oracle._filled_entropies(model, np.full(2**L, np.nan), np.arange(2**L))
        built = oracle._table_entropies(model)
        assert np.max(np.abs(filled - built)) <= 1e-12
        scores = []
        for h in (filled, built):
            model._entropies = h
            scores.append(OracleDenoiser(model).dependency_scores(masks))
        return scores

    # on small joints, both fills give the same scores and top-k picks on every pattern
    rng = np.random.default_rng(76)
    for model in (random_tabular(rng, V=3, L=4), random_dag(rng, V=2, L=6, max_parents=2),
                  sparse_model(rng, 3, 4, tabular=False)):
        masks = all_masks(model.L)
        by_fill, by_table = both_fills(model, masks)
        assert np.array_equal(np.isnan(by_fill), ~masks)
        assert np.nanmax(np.abs(by_fill - by_table)) <= 1e-12
        for k in range(1, model.L + 1):
            budget = np.full(len(masks), k)
            assert np.array_equal(select_topk(by_fill, masks, budget),
                                  select_topk(by_table, masks, budget))
    # a collider 0 -> 2 <- 1, an isolated 3 and 0 -> 4: with 0 unmasked, 1 and 3 are
    # d-separated from it, score exactly 0.0 by either fill, and tie by position
    collider = FactorizedDAG(V2, ((), (), (0, 1), (), (0,)), (
        np.array([0.3, 0.7]), np.array([0.6, 0.4]),
        np.array([[[0.9, 0.1], [0.2, 0.8]], [[0.3, 0.7], [0.95, 0.05]]]),
        np.array([0.5, 0.5]), np.array([[0.8, 0.2], [0.1, 0.9]])))
    context = np.array([[False, True, True, True, True]])
    for scores in both_fills(collider, context):
        assert scores[0, 1] == 0.0 and scores[0, 3] == 0.0
        assert scores[0, 2] > 0.0 and scores[0, 4] > 0.0
        assert select_topk(scores, context, np.array([3])).tolist() == [
            [False, True, True, False, True]]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), V=st.integers(2, 4), L=st.integers(1, 5),
       tabular=st.booleans())
def test_unmasking_a_position_never_lowers_a_score(seed, V, L, tabular):
    model = sparse_model(np.random.default_rng(seed), V, L, tabular)
    masks = all_masks(L)
    scores = OracleDenoiser(model).dependency_scores(masks)
    joint = joint_table(model)
    own = [table_entropy(joint, [k != i for k in range(L)]) for i in range(L)]
    assert np.all(np.nan_to_num(scores, nan=0.0) <= np.array(own) + 1e-12)
    for r, masked in enumerate(masks):  # row r has pattern code r + 1
        for j in np.flatnonzero(masked).tolist():
            fewer = (r + 1) ^ (1 << j)  # j unmasked too: every other masked i keeps or gains
            if fewer:
                others = masks[fewer - 1]
                assert np.all(scores[fewer - 1, others] >= scores[r, others] - 1e-12)


def test_group_schedule_validation():
    with pytest.raises(ValueError):
        GroupSchedule(((0, 1), (1, 2)))  # overlap
    with pytest.raises(ValueError):
        GroupSchedule(((0,), ()))  # empty group


def test_joint_model_validation():
    with pytest.raises(ValueError):
        TabularJoint(V2, np.array([[0.5, 0.6], [0.0, 0.0]]))  # sums to 1.1
    nan_table = np.full((2, 2), 0.25)
    nan_table[0, 0] = np.nan
    with pytest.raises(ValueError, match="table entries must be >= 0 and sum to 1"):
        TabularJoint(V2, nan_table)
    for bad_cpt in (np.array([[0.5, 0.6], [0.5, 0.5]]), np.array([[np.nan, 0.5], [0.5, 0.5]])):
        with pytest.raises(ValueError, match="node 1 CPT rows must sum to 1"):
            FactorizedDAG(V2, ((), (0,)), (np.array([0.5, 0.5]), bad_cpt))
    with pytest.raises(ValueError):
        FactorizedDAG(  # 0 -> 1 -> 0 cycle
            V2,
            ((1,), (0,)),
            (np.full((2, 2), 0.5), np.full((2, 2), 0.5)),
        )


def test_joint_file_round_trip(tmp_path):
    rng = np.random.default_rng(59)
    tab = random_tabular(rng, V=3, L=3)
    p = os.path.join(tmp_path, "tab.joint")
    save_joint_model(tab, p)
    loaded = load_joint_model(p)
    assert isinstance(loaded, TabularJoint)
    assert np.max(np.abs(loaded.table - tab.table)) < 1e-12

    dag = random_dag(rng, V=2, L=4)
    p = os.path.join(tmp_path, "dag.joint")
    save_joint_model(dag, p)
    loaded = load_joint_model(p)
    assert isinstance(loaded, FactorizedDAG)
    assert loaded.parents == dag.parents
    for a, b in zip(loaded.cpts, dag.cpts):
        assert np.max(np.abs(a - b)) < 1e-12


def joint_text(model) -> str:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "model.joint")
        save_joint_model(model, path)
        with open(path, encoding="utf-8") as fh:
            return fh.read()


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), V=st.integers(2, 4), L=st.integers(1, 5),
       tabular=st.booleans())
def test_joint_file_round_trip_is_bit_exact(seed, V, L, tabular):
    model = sparse_model(np.random.default_rng(seed), V, L, tabular)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "model.joint")
        save_joint_model(model, path)
        loaded = load_joint_model(path)
    assert type(loaded) is type(model) and loaded.vocab.size == V and loaded.L == L
    if tabular:
        assert loaded.table.tobytes() == model.table.tobytes()
    else:
        assert loaded.parents == model.parents
        assert [c.tobytes() for c in loaded.cpts] == [c.tobytes() for c in model.cpts]


# field values a corrupt file might hold: non-numbers, signs, special and
# huge numbers, keywords out of place
FIELDS = st.one_of(
    st.sampled_from(("x", "nan", "inf", "-inf", "1e309", "-1", "0", "-0.5", "0.5", "2",
                     "joint", "tabular", "dag", "node", "parents", "cpt", "9" * 5000)),
    st.integers(-3, 2**40).map(str),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), V=st.integers(2, 3), L=st.integers(1, 4),
       tabular=st.booleans(), data=st.data())
def test_corrupt_joint_files_raise_joint_format_error(seed, V, L, tabular, data):
    # a corrupt file loads as some joint or raises JointFormatError, never a
    # bare error, and never allocates what a huge header asks for
    lines = joint_text(sparse_model(np.random.default_rng(seed), V, L, tabular)).splitlines()
    kind = data.draw(st.sampled_from(("field", "drop_field", "add_field", "drop_line",
                                      "repeat_line", "header")))
    k = data.draw(st.integers(0, len(lines) - 1))
    parts = lines[k].split()
    j = data.draw(st.integers(0, len(parts) - 1))
    if kind == "field":
        parts[j] = data.draw(FIELDS)
    elif kind == "drop_field":
        del parts[j]
    elif kind == "add_field":
        parts.insert(j, data.draw(FIELDS))
    if kind == "drop_line":
        del lines[k]
    elif kind == "repeat_line":
        lines.insert(k, lines[k])
    elif kind == "header":
        lines[0] = " ".join(data.draw(st.tuples(
            st.sampled_from(("joint", "jointx")), st.sampled_from(("tabular", "dag", "x")),
            FIELDS, FIELDS)))
    else:
        lines[k] = " ".join(parts)
    try:
        with tempfile.TemporaryDirectory() as d:
            model = _load_text(d, "\n".join(lines) + "\n")
    except JointFormatError:
        return
    assert isinstance(model, (TabularJoint, FactorizedDAG))


def test_joint_file_errors(tmp_path):
    bad = os.path.join(tmp_path, "bad.joint")
    with open(bad, "w") as fh:
        fh.write("model tabular 2 2\n")
    with pytest.raises(ValueError):
        load_joint_model(bad)
    with open(bad, "w") as fh:
        fh.write("joint dag 2 2\nnode 0 parents cpt 0.7 0.2\n")
    with pytest.raises(ValueError):
        load_joint_model(bad)  # row does not sum to 1
    with open(bad, "w") as fh:
        fh.write("joint dag 2 2\nnode 0 parents cpt 0.7 0.3\n")
    with pytest.raises(ValueError):
        load_joint_model(bad)  # node 1 missing
    with open(bad, "wb") as fh:
        fh.write(b"joint tabular 2 1\n1 0.5\n2 0.5\xff\n")
    with pytest.raises(JointFormatError, match="UTF-8"):
        load_joint_model(bad)


def _load_text(tmp_path, text):
    path = os.path.join(tmp_path, "m.joint")
    with open(path, "w") as fh:
        fh.write(text)
    return load_joint_model(path)


@pytest.mark.parametrize(
    "text, line",
    [
        # token 0 would index the table at -1, i.e. alias token V
        ("joint tabular 2 2\n0 0 0.25\n1 1 0.25\n1 2 0.25\n2 1 0.25\n", "0 0 0.25"),
        ("joint tabular 2 2\n3 1 0.25\n1 1 0.25\n1 2 0.25\n2 1 0.25\n", "3 1 0.25"),
        ("joint tabular 2 2\n1 1 0.5\n1 1 0.5\n", "1 1 0.5"),  # repeated line
        # node -1 would alias node L-1; node 5 would index past the end
        ("joint dag 2 2\nnode -1 parents cpt 0.5 0.5\nnode 0 parents cpt 0.5 0.5\n",
         "node -1 parents cpt 0.5 0.5"),
        ("joint dag 2 2\nnode 0 parents cpt 0.5 0.5\nnode 5 parents cpt 0.5 0.5\n",
         "node 5 parents cpt 0.5 0.5"),
        ("joint dag 2 2\nnode 0 parents cpt 0.5 0.5\nnode 0 parents cpt 0.4 0.6\n"
         "node 1 parents cpt 0.5 0.5\n", "node 0 parents cpt 0.4 0.6"),
        ("joint dag 2 2\nnode 0 parents cpt 0.5 0.5\nnode 1 parents 0 cpt 0.5 0.5\n",
         "node 1 parents 0 cpt 0.5 0.5"),  # too few CPT values
        # non-numeric fields
        ("joint tabular 2 2\n1 x 0.5\n1 1 0.5\n", "1 x 0.5"),
        ("joint dag 2 two\nnode 0 parents cpt 0.5 0.5\n", "joint dag 2 two"),
        ("joint dag 2 1\nnode 0 parents cpt abc 0.5\n", "node 0 parents cpt abc 0.5"),
        # NaN fails every comparison, so a sum check alone lets it through
        ("joint tabular 2 1\n1 nan\n2 0.5\n", "1 nan"),
        ("joint dag 2 1\nnode 0 parents cpt nan 0.5\n", "node 0 parents cpt nan 0.5"),
        # negative entries whose rows still sum to 1
        ("joint tabular 2 1\n1 -0.5\n2 1.5\n", "1 -0.5"),
        ("joint dag 2 1\nnode 0 parents cpt -0.5 1.5\n",
         "node 0 parents cpt -0.5 1.5"),
        ("joint tabular 1 2\n1 1 1.0\n", "joint tabular 1 2"),  # V < 2
        # L < 1: a DAG would load empty, a table would fail with no line
        ("joint dag 2 0\n", "joint dag 2 0"),
        ("joint dag 2 -1\n", "joint dag 2 -1"),
        ("joint tabular 2 0\n1.0\n", "joint tabular 2 0"),
        # tables past ENUM_LIMIT, refused before any allocation: 2^21 entries
        # would load from one record, and 70 axes exceed numpy's 64
        ("joint tabular 2 21\n" + "1 " * 21 + "1.0\n", "joint tabular 2 21"),
        ("joint tabular 2 70\n", "joint tabular 2 70"),
        # refused before 2**(2**40) is computed or 2**40 node slots allocated
        ("joint tabular 2 1099511627776\n", "joint tabular 2 1099511627776"),
        ("joint dag 2 1099511627776\nnode 0 parents cpt 0.5 0.5\n",
         "joint dag 2 1099511627776"),
        # parents outside 0..L-1, the node itself, or a cycle
        ("joint dag 2 1\nnode 0 parents 7 cpt 0.5 0.5 0.5 0.5\n",
         "node 0 parents 7 cpt 0.5 0.5 0.5 0.5"),
        ("joint dag 2 2\nnode 0 parents -1 cpt 0.5 0.5 0.5 0.5\n"
         "node 1 parents cpt 0.5 0.5\n", "node 0 parents -1 cpt 0.5 0.5 0.5 0.5"),
        ("joint dag 2 2\nnode 0 parents cpt 0.5 0.5\n"
         "node 1 parents 1 cpt 0.5 0.5 0.5 0.5\n", "node 1 parents 1 cpt 0.5 0.5 0.5 0.5"),
        # node 0 only hangs below the 1 <-> 2 cycle; the line quoted is on it
        ("joint dag 2 3\nnode 0 parents 1 cpt 0.5 0.5 0.5 0.5\n"
         "node 1 parents 2 cpt 0.5 0.5 0.5 0.5\n"
         "node 2 parents 1 cpt 0.5 0.5 0.5 0.5\n", "node 1 parents 2 cpt 0.5 0.5 0.5 0.5"),
    ],
)
def test_joint_loader_rejects_bad_records(tmp_path, text, line):
    with pytest.raises(JointFormatError) as err:
        _load_text(tmp_path, text)
    assert repr(line) in str(err.value)


def test_sampling_caches_are_declared_fields():
    rng = np.random.default_rng(61)
    for m, name in ((random_tabular(rng, V=2, L=3), "_flat_cumsum"),
                    (random_dag(rng, V=2, L=3), "_cpt_cumsum")):
        spec = {f.name: f for f in dataclasses.fields(m)}[name]
        assert not (spec.init or spec.repr or spec.compare)
        before = repr(m)
        sample_joint(m, rng)
        assert getattr(m, name) is not None and repr(m) == before
