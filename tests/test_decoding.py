import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlmlab import scoring
from mdlmlab.core import DenoiserOutput, SequenceState, Vocabulary
from mdlmlab.decoding import (
    SELECTORS,
    DecodeTrace,
    History,
    PolicyConfig,
    commit_token,
    compute_ranking,
    decode_blockwise,
    enumerate_decodes,
    plan_step,
    select_eb,
    select_klass,
    select_threshold,
    select_topk,
)
from mdlmlab.nn import TransformerConfig, TransformerDenoiser, init_params
from mdlmlab.oracle import OracleDenoiser, random_dag, random_tree_dag, sample_joint
from mdlmlab.harness import (
    exact_induced_distribution,
    layered_suite_model,
    model_distribution,
    tv_distance,
)


def oracle_den(seed=0, V=2, L=4):
    rng = np.random.default_rng(seed)
    return OracleDenoiser(random_dag(rng, V=V, L=L))


def test_policy_config_validation():
    with pytest.raises(ValueError):
        PolicyConfig(scorer="nope")
    with pytest.raises(ValueError):
        PolicyConfig(selector="nope")
    with pytest.raises(ValueError):
        PolicyConfig(eps=1.5)
    with pytest.raises(ValueError):
        PolicyConfig(gamma=-0.1)
    with pytest.raises(ValueError):
        PolicyConfig(selector="eb", stochastic_remask=True)
    assert PolicyConfig(selector="eb", dep_eb_prefilter=0.1).dep_eb_prefilter == 0.1
    for selector in ("topk", "threshold", "klass"):  # they ignore it; it would only rename
        with pytest.raises(ValueError, match="^dep_eb_prefilter must be None"):
            PolicyConfig(selector=selector, dep_eb_prefilter=0.1)
    for name in ("gamma", "eps_kl", "dep_eb_prefilter", "eps", "tau"):
        with pytest.raises(ValueError, match=f"^{name} must"):
            PolicyConfig(**{name: float("nan")})
    # the standard defaults come prefilled
    p = PolicyConfig()
    assert p.eps == 0.95 and p.gamma == 0.01 and p.n_history == 2


def test_commit_token():
    rng = np.random.default_rng(0)
    assert commit_token(np.array([[0.1, 0.8, 0.1]]), "greedy", rng)[0] == 2
    assert commit_token(np.array([[0.5, 0.5]]), "greedy", rng)[0] == 1  # tie rule
    counts = np.zeros(4)
    for _ in range(100000):
        counts[commit_token(np.full((1, 4), 0.25), "sample", rng)[0] - 1] += 1
    assert np.all(np.abs(counts / 100000 - 0.25) < 0.01)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), K=st.integers(0, 6), V=st.integers(2, 17))
def test_commit_token_draws_like_sequential_choice(seed, K, V):
    data = np.random.default_rng(seed)
    probs = data.random((K, V)) * (data.random((K, V)) < 0.6)  # with zeros
    probs[np.arange(K), data.integers(0, V, size=K)] += 0.1  # no empty row
    rng, ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = commit_token(probs, "sample", rng)
    want = [int(ref.choice(V, p=row / row.sum())) + 1 for row in probs]
    assert got.tolist() == want
    assert rng.bit_generator.state == ref.bit_generator.state


def test_select_topk():
    scores = np.array([0.2, 0.9, 0.9])
    assert select_topk(scores, [0, 1, 2], 2) == (1, 2)  # tie to lowest index
    assert select_topk(scores, [0, 1, 2], 5) == (0, 1, 2)
    assert select_topk(scores, [0, 1, 2], 1) == (1,)
    with pytest.raises(ValueError):
        select_topk(scores, [], 1)
    with pytest.raises(ValueError):
        select_topk(scores, [0], 0)


def test_select_threshold():
    conf = np.array([0.99, 0.3])
    assert select_threshold(conf, [0, 1], 0.95) == (0,)
    assert select_threshold(np.array([0.5, 0.6]), [0, 1], 0.95) == (1,)  # fallback


def test_select_klass_history_rule():
    # each record is a row's whole (L, V) output; position 0 holds still
    steady = np.array([[0.99, 0.01], [0.95, 0.05]])
    conf = np.array([0.99, 0.95])
    h = History(n=2).record(steady)
    # fewer than n+1 records: ineligible, falls back to argmax confidence
    assert not np.any(h.stable(0.01))
    assert select_klass(h, conf, [0, 1], tau=0.9, eps_kl=0.01) == (0,)
    # n+1 agreeing outputs: both positions are stable
    h = h.record(steady).record(steady)
    assert h.stable(0.01).tolist() == [True, True]
    assert select_klass(h, conf, [0, 1], tau=0.9, eps_kl=0.01) == (0, 1)
    # position 1 drifts across the last n+1 outputs and is no longer stable
    for p1 in (0.5, 0.95):
        h = h.record(np.array([[0.99, 0.01], [p1, 1.0 - p1]]))
    assert h.stable(0.01).tolist() == [True, False]
    assert select_klass(h, conf, [0, 1], tau=0.9, eps_kl=0.01) == (0,)


def test_history_record_leaves_its_receiver_unchanged():
    outputs = [np.full((2, 2), 0.5), np.eye(2), np.full((2, 2), 0.5)]
    h = History(n=1)
    kept = []
    for out in outputs:
        kept.append((h, h.outputs))
        h = h.record(out)
    for old, before in kept:
        assert old.outputs is before  # the same tuple, holding the same arrays
    assert [len(old.outputs) for old, _ in kept] == [0, 1, 2]
    # the last n+1 outputs only
    assert len(h.outputs) == 2 and all(a is b for a, b in zip(h.outputs, outputs[1:]))
    assert h.copy() is h


class PerPositionHistory:
    """A KLASS history kept per position: every masked position records its
    own distribution at every step, and a committed position is forgotten."""

    def __init__(self, n):
        self.n = n
        self.dists = {}

    def record(self, position, dist):
        self.dists.setdefault(position, []).append(dist)
        del self.dists[position][: -(self.n + 1)]

    def clear(self, positions):
        for i in positions:
            self.dists.pop(i, None)

    def stable(self, position, eps_kl):
        lst = self.dists.get(position, [])
        return len(lst) == self.n + 1 and all(
            scoring.kl_divergence(a, b) < eps_kl for a, b in zip(lst, lst[1:]))


@pytest.mark.parametrize("temperature", ["greedy", "sample"])
@pytest.mark.parametrize("block_size", [0, 3])
@pytest.mark.parametrize("n_history", [1, 2, 3])
def test_klass_replays_the_per_position_history_rule(n_history, block_size, temperature):
    # every step of a lockstep run picks what the per-position rule picks
    # when replayed one sequence at a time from that run's own commits
    model = layered_suite_model(3)
    den = OracleDenoiser(model)
    mask = den.vocab.mask_id
    policy = PolicyConfig(selector="klass", n_history=n_history, block_size=block_size,
                          temperature=temperature, tau=0.6, eps_kl=0.1)
    prompts = [[1], [2], [1], [2], [1], [2]]
    gen_len = model.L - 1
    size = block_size or gen_len
    runs = decode_blockwise(den, policy, prompts, gen_len, np.random.default_rng(11))
    parallel = 0
    for prompt, (final, trace) in zip(prompts, runs):
        tokens = list(prompt) + [mask] * gen_len
        history = PerPositionHistory(n_history)
        for step in trace.steps:
            probs = den(SequenceState(den.vocab, tuple(tokens), len(prompt))).probs
            masked = [i for i, t in enumerate(tokens) if t == mask]
            for i in masked:
                history.record(i, probs[i])
            block = (masked[0] - len(prompt)) // size  # the first block not yet unmasked
            lo = len(prompt) + block * size
            candidates = [i for i in masked if i < lo + size]
            conf = scoring.confidence_vector(probs, np.array(tokens) == mask)
            chosen = tuple(i for i in candidates
                           if conf[i] > policy.tau and history.stable(i, policy.eps_kl))
            chosen = chosen or (max(candidates, key=lambda i: (conf[i], -i)),)
            assert chosen == tuple(step.positions)
            parallel += len(chosen) > 1
            for i, tok in zip(step.positions, step.tokens):
                tokens[i] = tok
            history.clear(step.positions)
        assert tuple(tokens) == final
    assert parallel  # some step committed a stable set, not the fallback


def test_select_eb_examples():
    # singleton always admissible even when its own entropy exceeds gamma
    assert select_eb(np.array([1.0]), np.array([5.0]), [0], 0.0) == (0,)
    ranking = np.array([3.0, 2.0, 1.0])
    ents = np.array([0.3, 0.0, 0.0])
    assert select_eb(ranking, ents, [0, 1, 2], 0.01) == (0, 1, 2)
    ranking = np.array([2.0, 1.0])
    ents = np.array([0.0, 0.3])
    # the later high-entropy token is the prefix max, so both qualify
    assert select_eb(ranking, ents, [0, 1], 0.01) == (0, 1)


def test_select_eb_maximality_property():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        L = int(rng.integers(1, 9))
        ranking = rng.normal(size=L)
        ents = rng.uniform(0, 1.5, size=L)
        gamma = float(rng.choice([0.0, 0.01, 0.1, 0.5]))
        chosen = select_eb(ranking, ents, list(range(L)), gamma)
        assert len(chosen) >= 1
        sel = list(chosen)
        val = ents[sel].sum() - ents[sel].max()
        assert val <= gamma + 1e-12
        order = sorted(range(L), key=lambda i: (-ranking[i], i))
        if len(chosen) < L:
            nxt = order[len(chosen)]
            ext = sel + [nxt]
            ext_val = ents[ext].sum() - max(ents[i] for i in ext)
            assert ext_val > gamma


# Per-row selectors as they were written before selection ran over (n, L)
# chunks: the reference the chunk-wide plan_step is checked against.
def _ref_ranked(scores, candidates):
    return sorted(candidates, key=lambda i: (-scores[i], i))


def _ref_kl(p, q):
    q = np.maximum(q, 1e-12)
    nz = p > 0
    return float((p[nz] * np.log(p[nz] / q[nz])).sum())


def _ref_stable(outputs, n, i, eps_kl):
    return len(outputs) >= n + 1 and all(
        _ref_kl(a[i], b[i]) < eps_kl for a, b in zip(outputs, outputs[1:]))


def _ref_eb(ranking, entropies, candidates, gamma):
    chosen, ent_sum, ent_max = [], 0.0, 0.0
    for i in _ref_ranked(ranking, candidates):
        e = float(entropies[i])
        if chosen and (ent_sum + e) - max(ent_max, e) > gamma:
            break
        chosen.append(i)
        ent_sum += e
        ent_max = max(ent_max, e)
    return tuple(sorted(chosen))


def _ref_plan(policy, ranking, vector, candidates, steps_left, outputs):
    if policy.selector == "topk":
        k = math.ceil(len(candidates) / max(1, steps_left))
        return tuple(sorted(_ref_ranked(ranking, candidates)[:k]))
    if policy.selector == "eb":
        pool = candidates
        if policy.dep_eb_prefilter is not None:
            pool = [i for i in candidates if ranking[i] > policy.dep_eb_prefilter] or candidates
        return _ref_eb(ranking, vector, pool, policy.gamma)
    if policy.selector == "threshold":
        chosen = [i for i in candidates if vector[i] > policy.eps]
    else:
        chosen = [i for i in candidates if vector[i] > policy.tau
                  and _ref_stable(outputs, policy.n_history, i, policy.eps_kl)]
    return tuple(sorted(chosen or _ref_ranked(vector, candidates)[:1]))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), selector=st.sampled_from(SELECTORS),
       n=st.integers(1, 6), L=st.integers(1, 9), V=st.integers(2, 4),
       n_history=st.integers(1, 3), records=st.integers(1, 4),
       prefilter=st.sampled_from([None, 0.25, 0.5]), noise=st.sampled_from([0.0, 0.02, 0.3]))
def test_chunk_plan_step_matches_per_row_selectors(
        seed, selector, n, L, V, n_history, records, prefilter, noise):
    # tied scores, per-row candidate sets and budgets, and KLASS histories
    # whose consecutive KLs fall on both sides of eps_kl
    rng = np.random.default_rng(seed)
    candidates = rng.random((n, L)) < 0.5
    candidates[np.arange(n), rng.integers(0, L, size=n)] = True
    masked = candidates | (rng.random((n, L)) < 0.3)
    levels = {"topk": [0.0, 0.25, 0.5, 1.0], "threshold": [0.5, 0.7, 0.9, 1.0],
              "klass": [0.5, 0.7, 0.9, 1.0], "eb": [0.0, 0.005, 0.01, 0.3]}[selector]
    ranking = np.where(masked, rng.choice([0.0, 0.25, 0.5, 1.0], size=(n, L)), np.nan)
    vector = np.where(masked, rng.choice(levels, size=(n, L)), np.nan)
    steps_left = rng.integers(1, 5, size=n)
    base = rng.random((n, L, V)) * (rng.random((n, L, V)) < 0.8) + 1e-3
    outputs = []
    for _ in range(min(records, n_history + 1)):
        out = base * np.exp(noise * rng.normal(size=base.shape))
        outputs.append(out / out.sum(axis=-1, keepdims=True))
    policy = PolicyConfig(selector=selector, eps=0.7, tau=0.7, eps_kl=0.01, gamma=0.01,
                          n_history=n_history,
                          dep_eb_prefilter=prefilter if selector == "eb" else None)
    history = History(n_history, tuple(outputs)) if selector == "klass" else None
    got = plan_step(policy, ranking, vector if selector != "topk" else None, candidates,
                    steps_left, history)
    assert got.shape == (n, L) and not (got & ~candidates).any()
    for r in range(n):
        want = _ref_plan(policy, ranking[r], vector[r], np.flatnonzero(candidates[r]).tolist(),
                         int(steps_left[r]), [out[r] for out in outputs])
        assert tuple(np.flatnonzero(got[r]).tolist()) == want
        if selector == "topk":  # the one-row case is a separate Python sort
            k = math.ceil(candidates[r].sum() / steps_left[r])
            assert select_topk(ranking[r], np.flatnonzero(candidates[r]).tolist(), k) == want


def test_decode_one_token_per_step_nfe():
    den = oracle_den(seed=2)
    policy = PolicyConfig(scorer="confidence", selector="topk", steps=4,
                          temperature="sample")
    rng = np.random.default_rng(0)
    [(final, trace)] = decode_blockwise(den, policy, [[]], 4, rng)
    assert trace.nfe == 4
    assert len(trace.steps) == 4
    assert all(len(s.positions) == 1 for s in trace.steps)
    assert den.vocab.mask_id not in final


def test_decode_parallel_policies_nfe_bound():
    den = oracle_den(seed=3)
    rng = np.random.default_rng(1)
    for policy in (
        PolicyConfig(scorer="confidence", selector="threshold", temperature="sample"),
        PolicyConfig(scorer="confidence", selector="eb", temperature="sample"),
        PolicyConfig(scorer="confidence", selector="klass", temperature="sample"),
        PolicyConfig(scorer="oracle_dep", selector="eb", temperature="sample"),
    ):
        [(final, trace)] = decode_blockwise(den, policy, [[]], 4, rng)
        assert 1 <= trace.nfe <= 4
        assert den.vocab.mask_id not in final


def test_decode_trace_partitions_positions():
    rng = np.random.default_rng(5)
    for seed in range(10):
        den = oracle_den(seed=seed, L=5)
        policy = PolicyConfig(
            scorer="confidence",
            selector=("topk", "threshold", "eb", "klass")[seed % 4],
            steps=3,
            temperature="sample",
        )
        [(final, trace)] = decode_blockwise(den, policy, [[1]], 4, rng)
        committed = trace.committed_positions()
        assert sorted(committed) == [1, 2, 3, 4]
        assert len(set(committed)) == len(committed)
        assert trace.nfe == len(trace.steps)


def test_unmasked_tokens_never_change():
    den = oracle_den(seed=7, L=5)
    policy = PolicyConfig(scorer="confidence", selector="topk", steps=2,
                          temperature="sample")
    rng = np.random.default_rng(2)
    seen = {}
    # instrument by replaying the trace against the final sequence
    [(final, trace)] = decode_blockwise(den, policy, [[2]], 4, rng)
    for step in trace.steps:
        for pos, tok in zip(step.positions, step.tokens):
            assert pos not in seen
            seen[pos] = tok
    for pos, tok in seen.items():
        assert final[pos] == tok


def test_decode_chain_order_recovers_joint():
    # left-to-right order on a chain-structured joint is the exact
    # factorization, so sampled decodes must reproduce the joint
    rng = np.random.default_rng(11)
    model = random_tree_dag(rng, V=2, L=4)  # tree with parents before children
    den = OracleDenoiser(model)
    policy = PolicyConfig(scorer="confidence", selector="topk", steps=4,
                          block_size=1, temperature="sample")
    seqs = [final for final, _ in decode_blockwise(den, policy, [[]] * 30000, 4, rng)]
    emp = {}
    for s in seqs:
        emp[s] = emp.get(s, 0) + 1
    emp = {k: v / len(seqs) for k, v in emp.items()}
    assert tv_distance(model_distribution(model), emp) < 0.02


def test_blockwise_single_block_equals_decode():
    den = oracle_den(seed=13, L=6)
    base = PolicyConfig(scorer="confidence", selector="topk", steps=3,
                        temperature="sample")
    blocked = PolicyConfig(scorer="confidence", selector="topk", steps=3,
                           block_size=99, temperature="sample")
    [t1] = decode_blockwise(den, base, [[]], 6, np.random.default_rng(42))
    [t2] = decode_blockwise(den, blocked, [[]], 6, np.random.default_rng(42))
    assert t1[0] == t2[0]
    assert [s.to_record() for s in t1[1].steps] == [s.to_record() for s in t2[1].steps]


def test_blockwise_size_one_is_left_to_right():
    den = oracle_den(seed=17, L=5)
    policy = PolicyConfig(scorer="confidence", selector="topk", steps=5,
                          block_size=1, temperature="sample")
    rng = np.random.default_rng(3)
    [(final, trace)] = decode_blockwise(den, policy, [[1]], 4, rng)
    assert [s.positions for s in trace.steps] == [[1], [2], [3], [4]]


def test_greedy_decode_is_pure():
    params = init_params(
        TransformerConfig(n_layers=2, n_heads=2, d_model=16, max_len=8,
                          vocab_size=3, seed=5)
    )
    den = TransformerDenoiser(params)
    policy = PolicyConfig(scorer="dos", selector="topk", steps=2, layer=1,
                          temperature="greedy")
    outs = [
        decode_blockwise(den, policy, [[2]], 4, np.random.default_rng(i))[0][0]
        for i in range(3)
    ]
    assert outs[0] == outs[1] == outs[2]


def test_lockstep_greedy_equals_one_prompt_decodes():
    # greedy draws nothing, so each sequence of a lockstep decode must match
    # its own one-prompt decode, whichever steps the others finish at
    model = random_dag(np.random.default_rng(43), V=3, L=7)
    rng = np.random.default_rng(44)
    prompts = [sample_joint(model, rng)[:2] for _ in range(8)]
    transformer = TransformerDenoiser(init_params(
        TransformerConfig(n_layers=2, n_heads=2, d_model=16, max_len=8,
                          vocab_size=3, seed=5)
    ))
    spread = set()
    for den, scorer in ((OracleDenoiser(model), "oracle_dep"),
                        (OracleDenoiser(model), "confidence"),
                        (transformer, "dos"), (transformer, "entropy")):
        for kwargs in ({"steps": 2}, {"steps": 3, "block_size": 2},
                       {"selector": "threshold", "eps": 0.6},
                       {"selector": "klass", "tau": 0.5}, {"selector": "eb"},
                       # budgets at which these sequences finish at different
                       # steps: 0.3 for the oracle, and just under ln 3 for
                       # the untrained transformer's near-uniform rows
                       {"selector": "eb", "gamma": 0.3},
                       {"selector": "eb", "gamma": 1.095}):
            policy = PolicyConfig(scorer=scorer, temperature="greedy", **kwargs)
            lockstep = decode_blockwise(den, policy, prompts, 5, rng)
            for prompt, (final, trace) in zip(prompts, lockstep):
                [(alone, alone_trace)] = decode_blockwise(den, policy, [prompt], 5, rng)
                assert final == alone
                assert trace.to_jsonl() == alone_trace.to_jsonl()
            spread.add((den is transformer, len({t.nfe for _, t in lockstep}) > 1))
    # both denoisers had a call whose sequences finished at different steps
    assert {(False, True), (True, True)} <= spread


def test_forward_chunks_leave_results_unchanged(monkeypatch):
    # the step loop hands the denoiser at most FORWARD_ROWS rows a call and
    # commits once per step, after every chunk: smaller chunks change no MC
    # draw (remasking makes the sequences finish at different steps) and no
    # exact mass
    model = layered_suite_model(3)
    den = TransformerDenoiser(init_params(TransformerConfig(vocab_size=2, seed=7)))
    rng = np.random.default_rng(5)
    prompts = [sample_joint(model, rng)[:1] for _ in range(10)]
    sampled = PolicyConfig(scorer="dos", steps=4, temperature="sample",
                           stochastic_remask=True)
    exact = PolicyConfig(scorer="dos", selector="threshold", temperature="sample")
    sizes = []
    batch = den.batch
    monkeypatch.setattr(den, "batch", lambda states: sizes.append(len(states)) or batch(states))

    def run():
        decoded = decode_blockwise(den, sampled, prompts, 8, np.random.default_rng(6))
        return ([(final, trace.to_jsonl()) for final, trace in decoded],
                exact_induced_distribution(model, exact, 1, den))

    whole = run()
    assert max(sizes) > 3
    sizes.clear()
    monkeypatch.setattr("mdlmlab.decoding.FORWARD_ROWS", 3)
    assert run() == whole
    assert max(sizes) == 3


def test_dos_scorer_requires_attentions():
    den = oracle_den(seed=19)
    policy = PolicyConfig(scorer="dos", selector="topk", steps=2)
    with pytest.raises(ValueError, match="attentions"):
        decode_blockwise(den, policy, [[]], 4, np.random.default_rng(0))


def test_oracle_dep_scorer_requires_exact_denoiser():
    params = init_params(
        TransformerConfig(n_layers=1, n_heads=1, d_model=8, max_len=8,
                          vocab_size=2, seed=5)
    )
    den = TransformerDenoiser(params)
    policy = PolicyConfig(scorer="oracle_dep", selector="topk", steps=2)
    with pytest.raises(ValueError, match="exact"):
        decode_blockwise(den, policy, [[]], 4, np.random.default_rng(0))


def test_dos_eb_composition_satisfies_budget():
    # the entropy budget must hold no matter which scorer produced the ranking
    den = oracle_den(seed=23, L=6)
    policy = PolicyConfig(scorer="oracle_dep", selector="eb", gamma=0.05,
                          temperature="sample")
    rng = np.random.default_rng(4)
    vocab = den.vocab
    state = SequenceState(vocab, (1,) + (vocab.mask_id,) * 5, 1)
    out = den(state)
    from mdlmlab.decoding import plan_step, selector_vectors

    probs = out.probs[None]
    masked = (np.array(state.tokens) == vocab.mask_id)[None]
    [ranking] = compute_ranking(policy, DenoiserOutput(probs), masked, den)
    [ents] = selector_vectors(policy, probs, masked)
    selected = plan_step(policy, ranking, ents, state.masked_positions(), 1, History(2))
    sel = list(selected)
    assert ents[sel].sum() - ents[sel].max() <= policy.gamma + 1e-12


def test_stochastic_remask_mode():
    den = oracle_den(seed=29)
    policy = PolicyConfig(scorer="confidence", selector="topk", steps=1,
                          temperature="sample", stochastic_remask=True)
    rng = np.random.default_rng(6)
    # T=1 collapses to a single forced step: reveal probability is 1
    [(final, trace)] = decode_blockwise(den, policy, [[]], 4, rng)
    assert trace.nfe == 1 and den.vocab.mask_id not in final

    policy = PolicyConfig(scorer="confidence", selector="topk", steps=4,
                          temperature="sample", stochastic_remask=True)
    for i in range(20):
        [(final, trace)] = decode_blockwise(den, policy, [[]], 4, np.random.default_rng(i))
        assert den.vocab.mask_id not in final
        committed = trace.committed_positions()
        assert sorted(committed) == [0, 1, 2, 3]


def test_decode_trace_steps_are_derived_from_its_row():
    # step s lists its positions in ascending order with their tokens and
    # scores and the cumulative NFE s + 1; a step that committed nothing stays
    trace = DecodeTrace(np.array([2, 1, 2, 1, 2]), np.array([-1, 1, 0, 1, -1]),
                        np.array([np.nan, 0.5, 0.7, 0.2, np.nan]), 3)
    assert [s.to_record() for s in trace.steps] == [
        {"step": 0, "positions": [2], "tokens": [2], "scores": [0.7], "nfe": 1},
        {"step": 1, "positions": [1, 3], "tokens": [1, 1], "scores": [0.5, 0.2], "nfe": 2},
        {"step": 2, "positions": [], "tokens": [], "scores": [], "nfe": 3},
    ]
    assert trace.committed_positions() == [2, 1, 3]
    assert trace != DecodeTrace(trace.tokens, trace.step_of, trace.scores, 3)  # eq=False
    with pytest.raises(AttributeError):
        trace.nfe = 4


def test_trace_jsonl_round_trip(tmp_path):
    den = oracle_den(seed=31)
    policy = PolicyConfig(scorer="confidence", selector="topk", steps=2,
                          temperature="sample")
    [(_, trace)] = decode_blockwise(den, policy, [[]], 4, np.random.default_rng(7))
    path = str(tmp_path / "trace.jsonl")
    trace.write_jsonl(path)
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    assert len(records) == len(trace.steps)
    assert records[0].keys() == {"step", "positions", "tokens", "scores", "nfe"}
    assert records[-1]["nfe"] == trace.nfe


def test_policy_id_is_injective():
    grid = {
        "scorer": ("confidence", "dos"),
        "selector": ("topk", "eb"),
        "steps": (0, 3),
        "block_size": (0, 2),
        "temperature": ("greedy", "sample"),
        "layer": (0, 1),
        "eps": (0.95, 0.9),
        "tau": (0.9, 0.8),
        "eps_kl": (0.01, 0.02),
        "n_history": (2, 3),
        "gamma": (0.01, 0.5),
        "stochastic_remask": (False, True),
        "dep_eb_prefilter": (None, 0.1),
    }
    policies = set()
    for values in itertools.product(*grid.values()):
        kwargs = dict(zip(grid, values))
        if kwargs["stochastic_remask"] and kwargs["selector"] != "topk":
            continue
        if kwargs["dep_eb_prefilter"] is not None and kwargs["selector"] != "eb":
            continue
        policies.add(PolicyConfig(**kwargs))
    ids = {p.policy_id() for p in policies}
    assert len(ids) == len(policies)
    assert (PolicyConfig(selector="eb", gamma=0.01).policy_id()
            != PolicyConfig(selector="eb", gamma=0.5).policy_id())


def test_policy_id_of_default_tuning_is_unchanged():
    # exact-reference keys and metrics CSV bytes depend on these strings
    assert PolicyConfig().policy_id() == "confidence-topk-T0-greedy"
    assert (PolicyConfig(scorer="oracle_dep", steps=4, block_size=2,
                         temperature="sample").policy_id()
            == "oracle_dep-topk-T4-b2-sample")
    assert (PolicyConfig(scorer="dos", steps=2, layer=1).policy_id()
            == "dos-topk-T2-l1-greedy")
    assert (PolicyConfig(scorer="entropy", selector="klass").policy_id()
            == "entropy-klass-greedy")
    assert (PolicyConfig(selector="eb", gamma=0.5, stochastic_remask=False)
            .policy_id() == "confidence-eb-greedy-gamma0.5")


def test_block_budgets_can_exceed_steps():
    # T=4 over gen_len=8 in blocks of 3: budgets round(1.5), round(1.5),
    # round(1.0) = [2, 2, 1], so top-k makes 5 forward calls, not 4
    den = oracle_den(seed=37, L=9)
    policy = PolicyConfig(scorer="confidence", selector="topk", steps=4,
                          block_size=3, temperature="sample")
    for i in range(5):
        [(_, trace)] = decode_blockwise(den, policy, [[1]], 8, np.random.default_rng(i))
        assert trace.nfe == 5
        assert [len(s.positions) for s in trace.steps] == [2, 1, 2, 1, 2]
    _, mean_nfe = exact_induced_distribution(den.model, policy, prompt_len=1)
    assert mean_nfe == pytest.approx(5.0, abs=1e-12)


def test_malformed_prompts_fail_before_any_denoiser_call(monkeypatch):
    den = oracle_den(seed=47, L=5)
    V = den.vocab.size

    def no_forward(states):
        raise AssertionError("denoised a malformed prompt")

    monkeypatch.setattr(den, "batch", no_forward)
    policy = PolicyConfig(temperature="sample")
    for prompts in ([[1], [1, 2]], [[0, 1]], [[1, V + 1]], [[V + 2, 1]], [[-1, 1]]):
        with pytest.raises(ValueError):
            decode_blockwise(den, policy, prompts, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            enumerate_decodes(den, policy, [(p, 1.0) for p in prompts], 3)
    for gen_len in (0, -1):  # named, not a bare error from the block plan
        with pytest.raises(ValueError, match="gen_len must be >= 1"):
            decode_blockwise(den, policy, [[1]], gen_len, np.random.default_rng(0))
        with pytest.raises(ValueError, match="gen_len must be >= 1"):
            enumerate_decodes(den, policy, [([1], 1.0)], gen_len)


def test_decode_blockwise_returns_validated_states():
    # each final sequence is a tuple of ints 1..V that keeps its prompt, and
    # its trace is a record of the same row
    den = oracle_den(seed=47, L=5)
    policy = PolicyConfig(selector="threshold", temperature="sample")
    decoded = decode_blockwise(den, policy, [[1, 2], [2, 2]], 3, np.random.default_rng(0))
    for (final, trace), prompt in zip(decoded, ([1, 2], [2, 2])):
        assert type(final) is tuple and all(type(t) is int for t in final)
        assert len(final) == 5 and all(1 <= t <= den.vocab.size for t in final)
        assert final[:2] == tuple(prompt)
        assert tuple(trace.tokens.tolist()) == final
        assert trace.step_of[:2].tolist() == [-1, -1] and trace.nfe >= 1
        assert not trace.tokens.flags.writeable and not trace.step_of.flags.writeable


def test_decode_blockwise_needs_prompts_of_one_length():
    den = oracle_den(seed=47, L=5)
    for prompts in ([], [[1], [1, 2]]):
        with pytest.raises(ValueError, match="one length"):
            decode_blockwise(den, PolicyConfig(), prompts, 3, np.random.default_rng(0))
