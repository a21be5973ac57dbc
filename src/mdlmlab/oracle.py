"""Exact small joint models and brute-force analysis of unmasking schedules.

Everything here is enumeration-based on purpose: the joints are small enough
to tabulate, so conditionals, schedule-induced distributions, and dependency
scores are computed exactly rather than approximated. The dense table is
built once per model and cached; ``joint_table`` checks the state space
against ``ENUM_LIMIT`` before it builds one, and every exact computation
goes through it.

Every exact conditional comes from ``_conditionals``. While the
``(V+1)**L`` marginal table M fits ``ENUM_LIMIT``, which every suite
joint's does, it answers a row with two gathers from M: slot V at a
position sums it out, so masked position i of a row with code c gets
M[c with digit i := v] / M[c]. M is built once per model and held while
the model lives: at most ``ENUM_LIMIT`` floats (8 MB), beside the joint
table. A joint whose M is past the limit but whose table fits it is
answered one mask pattern at a time by ``_slabs``, which sums a slice of
the table onto each of its free positions; the joint's size picks the
kernel.

Every mutual information comes from ``pattern_entropies``, the 2**L
entropies of the joint's marginals over the positions each mask pattern
leaves unmasked: I(x_i; x_U) is three gathers from it. While M fits it is
built in one pass from M; past that, each entry a call needs is filled from
the joint table.
"""

from __future__ import annotations

from collections.abc import ItemsView, Iterator, Mapping, ValuesView
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    DenoiserOutput, SequenceState, StateBatch, Vocabulary, distinct_rows, token_rows,
)

ENUM_LIMIT = 10**6
DEP_FLOOR = 1e-12  # a mutual information at or below this scores exactly 0.0


class ZeroSupportError(ValueError):
    """The conditioning event has probability zero."""


class EnumerationLimitError(RuntimeError):
    """The joint state space exceeds ``ENUM_LIMIT``."""


class JointFormatError(ValueError):
    """A joint model file is malformed; the message quotes the offending line."""


class CycleError(ValueError):
    """The parent relation of a DAG has a cycle; ``node`` lies on it."""

    def __init__(self, node: int):
        super().__init__(f"parent relation contains a cycle through node {node}")
        self.node = node


def _cache():
    """A field that caches derived data: not an argument, shown or compared."""
    return field(default=None, init=False, repr=False, compare=False)


@dataclass
class TabularJoint:
    """Full probability table; ``table[v1-1, ..., vL-1]`` = p(v1, ..., vL)."""

    vocab: Vocabulary
    table: np.ndarray
    _flat_cumsum: np.ndarray | None = _cache()
    _marginals: np.ndarray | None = _cache()
    _entropies: np.ndarray | None = _cache()

    def __post_init__(self) -> None:
        self.table = np.asarray(self.table, dtype=float)
        if self.table.ndim < 1 or any(s != self.vocab.size for s in self.table.shape):
            raise ValueError("table needs one axis of size V per position")
        # each test is false for NaN, so a NaN entry fails
        if not (np.all(self.table >= 0) and abs(float(self.table.sum()) - 1.0) <= 1e-12):
            raise ValueError("table entries must be >= 0 and sum to 1 within 1e-12")

    @property
    def L(self) -> int:
        return self.table.ndim


@dataclass
class FactorizedDAG:
    """Bayesian-network joint: a parent tuple and a CPT per node.

    ``cpts[i]`` has shape (V,) * len(parents[i]) + (V,); leading axes follow
    the listed parent order, the last axis is node i's own value. The parent
    relation must be acyclic and every CPT row must sum to 1.
    """

    vocab: Vocabulary
    parents: tuple[tuple[int, ...], ...]
    cpts: tuple[np.ndarray, ...]
    _cached_table: np.ndarray | None = _cache()
    _topo: tuple[int, ...] | None = _cache()
    _cpt_cumsum: tuple[np.ndarray, ...] | None = _cache()
    _marginals: np.ndarray | None = _cache()
    _entropies: np.ndarray | None = _cache()

    def __post_init__(self) -> None:
        V, L = self.vocab.size, len(self.parents)
        if len(self.cpts) != L:
            raise ValueError("need one CPT per node")
        self.parents = tuple(tuple(int(p) for p in ps) for ps in self.parents)
        cpts = []
        for i, (ps, cpt) in enumerate(zip(self.parents, self.cpts)):
            if any(not 0 <= p < L or p == i for p in ps):
                raise ValueError(f"node {i} has an invalid parent list {ps}")
            cpt = np.asarray(cpt, dtype=float)
            want = (V,) * len(ps) + (V,)
            if cpt.shape != want:
                raise ValueError(f"node {i} CPT shape {cpt.shape} != {want}")
            rows = cpt.reshape(-1, V)
            if not (np.all(rows >= 0) and np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-12)):
                raise ValueError(f"node {i} CPT rows must sum to 1 within 1e-12")
            cpts.append(cpt)
        self.cpts = tuple(cpts)
        self._topo = _topological_order(self.parents)

    @property
    def L(self) -> int:
        return len(self.parents)

    def topo_order(self) -> tuple[int, ...]:
        """The nodes in topological order, smallest node whose parents are
        placed first: the lexicographically smallest such order."""
        assert self._topo is not None
        return self._topo


JointModel = TabularJoint | FactorizedDAG


def _topological_order(parents: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Place, one at a time, the smallest unplaced node whose parents are
    all placed: the lexicographically smallest topological order."""
    order: list[int] = []
    placed: set[int] = set()
    left = list(range(len(parents)))
    while left:
        node = next((i for i in left if placed.issuperset(parents[i])), None)
        if node is None:
            # Every node left has a parent left, so walking up such parents
            # revisits a node, and the first one revisited is on a cycle.
            node, seen = left[0], set()
            while node not in seen:
                seen.add(node)
                node = next(p for p in parents[node] if p in left)
            raise CycleError(node)
        left.remove(node)
        placed.add(node)
        order.append(node)
    return tuple(order)


def joint_table(model: JointModel) -> np.ndarray:
    """Dense (V,)*L table of the joint; a DAG's is built once and cached.

    Raises EnumerationLimitError instead of building a DAG table with more
    than ``ENUM_LIMIT`` states.
    """
    if isinstance(model, TabularJoint):
        return model.table
    if model._cached_table is not None:
        return model._cached_table
    V, L = model.vocab.size, model.L
    if V**L > ENUM_LIMIT:
        raise EnumerationLimitError(
            f"joint space {V}^{L} exceeds enumeration limit {ENUM_LIMIT}"
        )
    table = np.ones((V,) * L)
    for i, (ps, cpt) in enumerate(zip(model.parents, model.cpts)):
        axes = list(ps) + [i]
        b = cpt.reshape(cpt.shape + (1,) * (L - cpt.ndim))
        b = np.moveaxis(b, range(cpt.ndim), axes)
        table = table * b
    model._cached_table = table
    return table


def joint_prob(model: JointModel, assignment: Sequence[int]) -> float:
    """Probability of a fully unmasked assignment (token ids 1..V); one that
    ``core.token_rows`` refuses as a row of L tokens raises ``ValueError``."""
    [a] = token_rows([assignment], model.vocab.size, model.L).tolist()
    if isinstance(model, TabularJoint):
        return float(model.table[tuple(v - 1 for v in a)])
    p = 1.0
    for i, (ps, cpt) in enumerate(zip(model.parents, model.cpts)):
        idx = tuple(a[q] - 1 for q in ps) + (a[i] - 1,)
        p *= float(cpt[idx])
    return p


def sequence_codes(tokens, V: int, L: int) -> np.ndarray:
    """Each row's index into a (V,)*L table raveled in C order.

    ``tokens`` is an (n, L) array-like of token ids 1..V; a row's code is
    ``(row - 1) @ V**(L-1-k)``. Rows that ``core.token_rows`` refuses raise
    ``ValueError``, since token V+1 at one position would alias another
    sequence's code.
    """
    return (token_rows(tokens, V, L) - 1) @ (V ** np.arange(L - 1, -1, -1, dtype=np.int64))


class Distribution(Mapping):
    """A distribution over the sequences of a (V,)*L joint, held as its dense
    (V**L,) ``vector`` of masses indexed by ``sequence_codes``.

    TV and KL reduce the vectors. The mapping is a read-only view: its keys
    are the int tuples of the support (positive entries) in table C order,
    its values Python floats, and it compares equal to a dict of the same
    items.
    """

    __slots__ = ("vector", "V", "L")

    def __init__(self, vector: np.ndarray, V: int, L: int):
        vector = np.asarray(vector, dtype=float).view()
        if vector.shape != (V**L,):
            raise ValueError(f"a distribution over {V}^{L} sequences needs {V**L} entries")
        vector.flags.writeable = False
        self.vector, self.V, self.L = vector, V, L

    @classmethod
    def of(cls, tokens, V: int, L: int, weights: np.ndarray | None = None) -> "Distribution":
        """The masses ``weights`` summed per sequence of the (n, L) ``tokens``,
        in row order; without weights each row's share 1/n."""
        if V**L > ENUM_LIMIT:
            raise EnumerationLimitError(f"sequence space {V}^{L} exceeds {ENUM_LIMIT}")
        codes = sequence_codes(tokens, V, L)
        vector = np.bincount(codes, weights=weights, minlength=V**L)
        return cls(vector if weights is not None else vector / len(codes), V, L)

    def __getitem__(self, key) -> float:
        try:
            (code,) = sequence_codes([key], self.V, self.L)
        except ValueError:
            raise KeyError(key) from None
        if not self.vector[code] > 0.0:
            raise KeyError(key)
        return float(self.vector[code])

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        support = np.argwhere(self.vector.reshape((self.V,) * self.L) > 0.0) + 1
        return map(tuple, support.tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.vector))

    def items(self) -> ItemsView:
        return _Items(self)

    def values(self) -> ValuesView:
        return _Values(self)

    def _masses(self) -> list[float]:
        return self.vector[self.vector > 0.0].tolist()


# The views read the support's masses at once, not by one lookup per key.
class _Items(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping._masses())


class _Values(ValuesView):
    def __iter__(self):
        return iter(self._mapping._masses())


def model_distribution(model: JointModel) -> Distribution:
    """The target joint as a ``Distribution`` over its raveled table."""
    return Distribution(joint_table(model).reshape(-1), model.vocab.size, model.L)


def _slabs(sub: np.ndarray) -> list[np.ndarray]:
    """For each free axis of an (m, V, ..., V) slice, its (m, V) sum over the
    other free axes. Every sum runs over one row's contiguous values, so a
    row's bits do not depend on the other rows."""
    m, V, n = sub.shape[0], sub.shape[-1], sub.ndim - 1
    return [
        sub.transpose(0, 1 + k, *(1 + j for j in range(n) if j != k))
        .reshape(m, V, -1).sum(axis=2)
        for k in range(n)
    ]


def _radix(V: int, L: int) -> np.ndarray:
    """Digit weights of a row's base-(V+1) code: position k has (V+1)**k."""
    return (V + 1) ** np.arange(L, dtype=np.int64)


def marginal_table(model: JointModel) -> np.ndarray:
    """The flat ``(V+1)**L`` marginal table of the joint, built once and cached.

    Entry ``(row - 1) @ _radix(V, L)`` of a row of tokens 1..V+1 is the
    joint's mass of the row's unmasked tokens: digit V (the mask token)
    at a position sums it out. The table is filled in place, one axis at a
    time: slot V of axis k is the sum of slots 0..V-1, over every slot of
    the axes before k. Raises EnumerationLimitError past ``ENUM_LIMIT``
    entries.
    """
    if model._marginals is not None:
        return model._marginals
    V, L = model.vocab.size, model.L
    if (V + 1) ** L > ENUM_LIMIT:
        raise EnumerationLimitError(
            f"marginal table {V + 1}^{L} exceeds enumeration limit {ENUM_LIMIT}"
        )
    flat = np.empty((V + 1) ** L)
    table = flat.reshape((V + 1,) * L, order="F")  # a view: axis k has digit weight (V+1)**k
    table[(slice(V),) * L] = joint_table(model)
    for k in range(L):
        head, tail = (slice(None),) * k, (slice(V),) * (L - k - 1)
        np.add.reduce(table[head + (slice(V),) + tail], axis=k, keepdims=True,
                      out=table[head + (slice(V, None),) + tail])
    model._marginals = flat
    return flat


def _entropy_terms(p: np.ndarray) -> np.ndarray:
    """-p log p entry by entry, 0 where p = 0."""
    log = np.zeros_like(p)
    np.log(p, out=log, where=p > 0.0)
    return -p * log


def _table_entropies(model: JointModel) -> np.ndarray:
    """Every entry of ``pattern_entropies`` in one pass over ``marginal_table``:
    -M log M, then at each axis in turn slots 0..V-1 summed into one slot and
    slot V kept beside it, so a position's bit is 1 where it is masked."""
    V, L = model.vocab.size, model.L
    h = _entropy_terms(marginal_table(model)).reshape((V + 1,) * L, order="F")
    for k in range(L):
        head = (slice(None),) * k
        h = np.concatenate([h[head + (slice(V),)].sum(axis=k, keepdims=True),
                            h[head + (slice(V, None),)]], axis=k)
    return h.reshape(-1, order="F")


def _filled_entropies(model: JointModel, h: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """``h`` with its NaN entries among the pattern ``codes`` filled in place,
    each from the joint table summed over the pattern's masked positions."""
    table = joint_table(model)
    codes = np.unique(codes)
    for code in codes[np.isnan(h[codes])].tolist():
        masked = tuple(k for k in range(model.L) if code >> k & 1)
        h[code] = _entropy_terms(np.asarray(table.sum(axis=masked))).sum()
    return h


def pattern_entropies(model: JointModel, codes=None) -> np.ndarray:
    """The (2**L,) pattern entropies H of the joint, cached on the model.

    H[S] is the entropy of the joint's marginal over the positions the mask
    pattern S leaves unmasked; bit i of S is set when position i is masked.
    While ``marginal_table`` fits ``ENUM_LIMIT`` the whole vector is built
    from it at once. Past that, NaN marks the entries not filled yet, and
    those among the pattern ``codes`` are filled from the joint table.
    Raises EnumerationLimitError for a joint whose table is past the limit.
    """
    V, L = model.vocab.size, model.L
    fits = (V + 1) ** L <= ENUM_LIMIT
    if model._entropies is None:
        if fits:
            model._entropies = _table_entropies(model)
        else:
            joint_table(model)  # refuses a joint past the limit before 2**L floats are taken
            model._entropies = np.full(2**L, np.nan)
    if codes is not None and not fits:
        _filled_entropies(model, model._entropies, codes)
    return model._entropies


def _zero_support(row: np.ndarray, mask_id: int) -> ZeroSupportError:
    fixed_tokens = {i: int(t) for i, t in enumerate(row.tolist()) if t != mask_id}
    return ZeroSupportError(f"conditioning event {fixed_tokens} has probability zero")


def _one_hots(tokens: np.ndarray, V: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows' (m, L) mask and an (m, L, V) output holding the one-hot of
    every unmasked token and zeros at the masked positions."""
    masked = tokens == V + 1
    probs = np.zeros(tokens.shape + (V,))
    seen_r, seen_i = np.nonzero(~masked)
    probs[seen_r, seen_i, tokens[seen_r, seen_i] - 1] = 1.0
    return masked, probs


def _gathered_conditionals(model: JointModel, tokens: np.ndarray) -> np.ndarray:
    """``_conditionals`` by two gathers from ``marginal_table``: value v of
    masked position i of a row with code c gets M[c with digit i := v] / M[c],
    and an unmasked position the one-hot of its token. The entries are
    built value-major, as a (V, m*L) array, so that every step runs over
    m*L contiguous entries rather than V."""
    V, L = model.vocab.size, model.L
    flat = marginal_table(model)
    digits = tokens - 1
    masked = digits == V
    radix = _radix(V, L)
    codes = digits @ radix
    total = flat[codes]
    if not total.all():  # some row has zero mass: refused if it has a masked position
        dead = masked.any(axis=1) & ~(total > 0.0)
        if dead.any():
            raise _zero_support(tokens[int(np.argmax(dead))], V + 1)
    values = np.arange(V)[:, None]
    probs = (digits.reshape(-1) == values).astype(float)
    index = (masked * radix).reshape(-1) * (values - V) + np.repeat(codes, L)
    np.divide(flat[index], np.repeat(total, L), out=probs, where=masked.reshape(-1))
    return np.ascontiguousarray(probs.T).reshape(tokens.shape + (V,))


def _pattern_conditionals(model: JointModel, tokens: np.ndarray) -> np.ndarray:
    """``_conditionals`` one mask pattern at a time, for joints whose
    ``marginal_table`` is past ``ENUM_LIMIT``. Rows are grouped by mask
    pattern, the ``core.distinct_rows`` of their masks. For each pattern
    one gather takes each row's slice of the joint table at its unmasked
    tokens, an (m_g, V, ..., V) array over the masked positions, and each
    masked position's conditional is its ``_slabs`` sum divided by the
    row's total."""
    V = model.vocab.size
    table = joint_table(model)
    masked, probs = _one_hots(tokens, V)
    first, group = distinct_rows(masked)
    dead = np.zeros(len(tokens), dtype=bool)
    for g, pattern in enumerate(masked[first]):
        free = np.flatnonzero(pattern).tolist()
        if not free:
            continue
        fixed = np.flatnonzero(~pattern).tolist()
        rs = np.flatnonzero(group == g)
        index = tuple(tokens[rs][:, fixed].T - 1)
        sub = table.transpose(fixed + free)[index].reshape((len(rs),) + (V,) * len(free))
        total = sub.reshape(len(rs), -1).sum(axis=1)
        if not np.all(total > 0.0):
            dead[rs] = ~(total > 0.0)
            continue
        for pos, slab in zip(free, _slabs(sub)):
            probs[rs, pos] = slab / total[:, None]
    if dead.any():
        raise _zero_support(tokens[int(np.argmax(dead))], V + 1)
    return probs


def _conditionals(model: JointModel, tokens: np.ndarray) -> np.ndarray:
    """The (m, L, V) exact output rows of m (m, L) token rows, mask V+1.

    A masked position gets p(x_i | unmasked tokens), an unmasked one the
    one-hot of its token. A joint whose ``marginal_table`` fits
    ``ENUM_LIMIT`` is answered by gathers from it; a larger one by the
    per-pattern ``_slabs`` kernel, the only one that fits it. Either way
    a row's output depends on its own tokens alone, bit for bit. Raises
    ZeroSupportError, naming the first such row's unmasked tokens, for a
    row with a masked position whose unmasked tokens have probability zero.
    """
    V, L = model.vocab.size, model.L
    if (V + 1) ** L <= ENUM_LIMIT:
        return _gathered_conditionals(model, tokens)
    return _pattern_conditionals(model, tokens)


def conditional_marginal(
    model: JointModel, state: SequenceState
) -> dict[int, np.ndarray]:
    """Exact p(x_i = v | unmasked tokens) for every masked position i.

    This is the distribution the masked-diffusion training loss converges
    to, computed by summing the joint over all completions of the other
    masked positions. Raises ZeroSupportError if the observed context has
    probability zero.
    """
    if state.vocab.size != model.vocab.size or len(state) != model.L:
        raise ValueError("state does not match the model's vocabulary or length")
    masked = state.masked_positions()
    if not masked:
        raise ValueError("state has no masked position")
    tokens = np.array([state.tokens])
    probs = _conditionals(model, tokens)[0]
    return {i: probs[i] for i in masked}


def sample_joints(model: JointModel, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n full sequences as an (n, L) token array.

    A table draws one uniform per sequence and takes the first entry of its
    cumulative sum above u times the total. A DAG samples ancestrally: it
    draws an (n, L) block of uniforms, column j serving the j-th node of
    ``topo_order()`` (smallest node whose parents are placed, first), and
    counts the entries of the node's cumulative CPT row that are <= u times
    the row total. So the tokens, and the generator state left behind, are
    those of n ``sample_joint`` calls.
    """
    if isinstance(model, TabularJoint):
        if model._flat_cumsum is None:
            model._flat_cumsum = np.cumsum(model.table.ravel())
        cum = model._flat_cumsum
        k = np.searchsorted(cum, rng.random(n) * cum[-1], side="right")
        k = np.minimum(k, cum.size - 1)
        return np.stack(np.unravel_index(k, model.table.shape), axis=1) + 1
    if model._cpt_cumsum is None:
        model._cpt_cumsum = tuple(np.cumsum(c, axis=-1) for c in model.cpts)
    cums = model._cpt_cumsum
    u = rng.random((n, model.L))
    toks = np.zeros((n, model.L), dtype=np.int64)
    for j, i in enumerate(model.topo_order()):
        rows = cums[i][tuple(toks[:, q] - 1 for q in model.parents[i])]
        v = (rows <= u[:, j : j + 1] * rows[..., -1:]).sum(axis=-1)
        toks[:, i] = np.minimum(v, rows.shape[-1] - 1) + 1
    return toks


def sample_joint(model: JointModel, rng: np.random.Generator) -> tuple[int, ...]:
    """Draw one full sequence: ``sample_joints`` for one row."""
    return tuple(sample_joints(model, rng, 1)[0].tolist())


@dataclass(frozen=True)
class GroupSchedule:
    """Ordered partition of the generated positions into parallel groups."""

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        norm = tuple(tuple(sorted(int(p) for p in g)) for g in self.groups)
        object.__setattr__(self, "groups", norm)
        seen: set[int] = set()
        for g in norm:
            if not g:
                raise ValueError("schedule groups must be nonempty")
            if seen & set(g):
                raise ValueError("schedule groups must be disjoint")
            seen |= set(g)

    def positions(self) -> set[int]:
        return {p for g in self.groups for p in g}


def prompt_marginal(model: JointModel, prompt_len: int) -> list[tuple[tuple[int, ...], float]]:
    """Every prompt of positive mass with its joint marginal, in table order.

    An empty prompt (``prompt_len`` 0) is the one outcome ``((), 1.0)``; a
    ``prompt_len`` outside 0..L raises ``ValueError``.
    """
    if not 0 <= prompt_len <= model.L:
        raise ValueError(f"prompt_len {prompt_len} outside 0..{model.L}")
    if not prompt_len:
        return [((), 1.0)]
    pm = joint_table(model).sum(axis=tuple(range(prompt_len, model.L)))
    keys = map(tuple, (np.argwhere(pm > 0) + 1).tolist())
    return list(zip(keys, pm[pm > 0].tolist()))


def exact_policy_distribution(
    model: JointModel, schedule: GroupSchedule, prompt_len: int = 0
) -> Distribution:
    """The ``Distribution`` over full sequences a fixed group schedule induces.

    Each group is unmasked in one parallel step: every position in the group
    draws independently from its exact conditional given everything revealed
    so far, and later groups condition on the realized tokens. Prompt
    positions are drawn from their joint marginal first, so the result is a
    distribution over the whole sequence space (it matches the target joint
    exactly iff the schedule respects the dependency structure).
    """
    L = model.L
    if schedule.positions() != set(range(prompt_len, L)):
        raise ValueError(f"schedule covers {sorted(schedule.positions())}, expected "
                         f"exactly the non-prompt positions {list(range(prompt_len, L))}")
    mask_id = model.vocab.mask_id
    prompts = prompt_marginal(model, prompt_len)
    # The walk goes one group at a time over every partial row of that level:
    # they all mask the same positions, so one kernel call conditions them
    # all. A row branches on each group position's support in group order
    # and its mass is multiplied in that order, as a recursive walk's is;
    # every full row is reached once.
    rows = np.full((len(prompts), L), mask_id)
    rows[:, :prompt_len] = np.array([t for t, _ in prompts]).reshape(len(prompts), prompt_len)
    mass = np.array([p for _, p in prompts])
    for group in schedule.groups:
        probs = _conditionals(model, rows)
        src = np.arange(len(rows))
        for pos in group:
            r, v = np.nonzero(probs[src, pos])
            src, rows, mass = src[r], rows[r], mass[r] * probs[src[r], pos, v]
            rows[:, pos] = v + 1
    return Distribution.of(rows, model.vocab.size, L, mass)


def oracle_dependency(model: JointModel, state: SequenceState, position: int) -> float:
    """Mutual information between a masked position and the unmasked set.

    The other masked positions are marginalized out; only the mask pattern
    matters, not the observed values. Serves as the attention-free stand-in
    for dependency scoring when decoding against the exact denoiser: a high
    score means the position is strongly pinned down by the visible context.
    This is one entry of ``OracleDenoiser.dependency_scores``.
    """
    if state.vocab.size != model.vocab.size or len(state) != model.L:
        raise ValueError("state does not match the model's vocabulary or length")
    if state.tokens[position] != state.vocab.mask_id:
        raise ValueError(f"position {position} is not masked")
    masked = np.array([state.tokens]) == state.vocab.mask_id
    return float(OracleDenoiser(model).dependency_scores(masked)[0, position])


class OracleDenoiser:
    """Exact denoiser backed by a joint model; no attentions are produced.

    Its outputs come from ``_conditionals``, as every exact conditional
    here does: gathers from the model's cached ``marginal_table`` (at most
    ``ENUM_LIMIT`` floats, held while the model lives), or the per-pattern
    ``_slabs`` kernel for a joint whose marginal table is past that limit.
    Its dependency scores are gathers from the model's cached
    ``pattern_entropies``. It keeps no per-row state: every call computes
    all of its rows, so an exact walk, which hands its denoiser each row
    once, does no work twice, and a row repeated across calls is simply
    computed again.
    """

    def __init__(self, model: JointModel):
        self.model = model
        self.vocab = model.vocab

    def __call__(self, states: StateBatch) -> DenoiserOutput:
        """Exact (n, L, V) output of the rows of a ``StateBatch``, a fresh array.

        Each masked position gets p(x_i | unmasked tokens), each unmasked
        one the exact one-hot of its token: ``_conditionals`` of the rows,
        so each row is a function of its own tokens alone, bit for bit,
        whatever else the call holds. Another vocabulary and what
        ``core.token_rows`` refuses as rows of L tokens (mask allowed), one
        flat row too, raise ``ValueError``; a row with a masked position
        whose unmasked tokens have probability zero raises
        ``ZeroSupportError``, naming the first such row in row order.
        """
        if states.vocab.size != self.vocab.size:
            raise ValueError("states do not match the model's vocabulary")
        rows = token_rows(states.tokens, self.vocab.size, self.model.L, mask=True)
        return DenoiserOutput(_conditionals(self.model, rows))

    def batch(self, states: StateBatch) -> DenoiserOutput:
        """``self(states)``: one output with a leading row axis."""
        return self(states)

    def dependency_scores(self, masked) -> np.ndarray:
        """``oracle_dependency`` of every masked position of n rows, NaN elsewhere.

        ``masked`` is the rows' (n, L) mask. A row's scores depend on its
        mask alone: position i of a row with pattern S scores
        H[S] + H[full ^ bit i] - H[S ^ bit i] from ``pattern_entropies``,
        three gathers for all rows at once, and a score at or below
        ``DEP_FLOOR`` is exactly 0.0, so positions of no mutual information
        tie instead of ranking by roundoff. The result is a fresh (n, L)
        array. A mask that is not rows of L positions raises ``ValueError``.
        """
        L = self.model.L
        masked = np.asarray(masked, dtype=bool)
        if masked.ndim != 2 or masked.shape[1] != L:
            raise ValueError(f"masks must be rows of {L} positions, got shape {masked.shape}")
        bits = 1 << np.arange(L, dtype=np.int64)
        codes = masked @ bits
        alone = ((1 << L) - 1) ^ bits  # position i unmasked, every other masked
        joined = codes[:, None] & ~bits  # the row's unmasked positions and i
        h = pattern_entropies(self.model, np.concatenate([codes, alone, joined.ravel()]))
        mi = h[codes][:, None] + h[alone] - h[joined]
        return np.where(masked, np.where(mi > DEP_FLOOR, mi, 0.0), np.nan)


# ---------------------------------------------------------------------------
# text file format: `joint <tabular|dag> V L` header, then one record per line
# ---------------------------------------------------------------------------

def save_joint_model(model: JointModel, path: str) -> None:
    V, L = model.vocab.size, model.L
    lines = []
    if isinstance(model, TabularJoint):
        lines.append(f"joint tabular {V} {L}")
        for idx, p in np.ndenumerate(model.table):
            toks = " ".join(str(v + 1) for v in idx)
            lines.append(f"{toks} {float(p)!r}")
    else:
        lines.append(f"joint dag {V} {L}")
        for i, (ps, cpt) in enumerate(zip(model.parents, model.cpts)):
            pstr = " ".join(str(p) for p in ps)
            cstr = " ".join(repr(float(x)) for x in cpt.ravel())
            lines.append(f"node {i} parents {pstr} cpt {cstr}".replace("  ", " "))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _numbers(kind: type, fields: Sequence[str], path: str, line: str) -> list:
    """``fields`` parsed with ``kind`` (int or float), quoting ``line`` on failure."""
    try:
        return [kind(x) for x in fields]
    except ValueError:
        raise JointFormatError(f"{path}: non-numeric field: {line!r}") from None


def _probabilities(fields: Sequence[str], path: str, line: str) -> np.ndarray:
    """``fields`` as probabilities, quoting ``line`` for a negative or NaN one."""
    p = np.array(_numbers(float, fields, path, line))
    if not np.all(p >= 0.0):  # false for NaN too
        raise JointFormatError(f"{path}: negative or NaN probability: {line!r}")
    return p


def load_joint_model(path: str) -> JointModel:
    """Load a joint model; probabilities are validated to 1e-9 and renormalized.

    A table or CPT row whose sum is within 1e-12 of 1 (the models' own
    tolerance) loads as written, so a saved joint loads bit for bit.
    Bytes that are not UTF-8 and malformed records (non-numeric fields, a
    vocabulary size below 2 or a length below 1, a tabular header past
    ``ENUM_LIMIT``, negative or NaN probabilities, out-of-range tokens or
    node ids, parent lists naming an unknown node or the node itself, cyclic
    parent relations, repeated assignments or nodes, too few node lines,
    wrong field counts) raise ``JointFormatError``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    except UnicodeDecodeError as exc:
        raise JointFormatError(f"{path}: not UTF-8 text: {exc}") from None
    if not lines:
        raise JointFormatError(f"{path}: empty joint model file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "joint" or head[1] not in ("tabular", "dag"):
        raise JointFormatError(f"{path}: bad header {lines[0]!r}")
    variant = head[1]
    V, L = _numbers(int, head[2:], path, lines[0])
    if V < 2:
        raise JointFormatError(f"{path}: vocabulary size below 2: {lines[0]!r}")
    if L < 1:
        raise JointFormatError(f"{path}: sequence length below 1: {lines[0]!r}")
    vocab = Vocabulary(V)
    if variant == "tabular":
        # V >= 2, so an L of ENUM_LIMIT's bit length or more is past it already
        if L >= ENUM_LIMIT.bit_length() or V**L > ENUM_LIMIT:
            raise JointFormatError(f"{path}: table exceeds {ENUM_LIMIT} entries: {lines[0]!r}")
        table = np.zeros((V,) * L)
        seen: set[tuple[int, ...]] = set()
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != L + 1:
                raise JointFormatError(
                    f"{path}: expected {L} tokens and a probability: {ln!r}"
                )
            toks = tuple(_numbers(int, parts[:L], path, ln))
            (p,) = _probabilities(parts[L:], path, ln)
            if not all(1 <= v <= V for v in toks):
                raise JointFormatError(f"{path}: token outside 1..{V}: {ln!r}")
            if toks in seen:
                raise JointFormatError(f"{path}: repeated assignment: {ln!r}")
            seen.add(toks)
            table[tuple(v - 1 for v in toks)] = p
        total = float(table.sum())
        if abs(total - 1.0) > 1e-9:
            raise JointFormatError(f"{path}: table sums to {total}, not 1 within 1e-9")
        return TabularJoint(vocab, table / total if abs(total - 1.0) > 1e-12 else table)
    if len(lines) - 1 < L:  # checked before allocating per-node lists
        raise JointFormatError(f"{path}: {L} node lines needed: {lines[0]!r}")
    parents: list[tuple[int, ...]] = [()] * L
    cpts: list[np.ndarray | None] = [None] * L
    node_lines = [""] * L
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] != "node" or "parents" not in parts or "cpt" not in parts:
            raise JointFormatError(f"{path}: bad node line {ln!r}")
        (i,) = _numbers(int, parts[1:2], path, ln)
        if not 0 <= i < L:
            raise JointFormatError(f"{path}: node id outside 0..{L - 1}: {ln!r}")
        if cpts[i] is not None:
            raise JointFormatError(f"{path}: repeated node {i}: {ln!r}")
        pi, ci = parts.index("parents"), parts.index("cpt")
        ps = tuple(_numbers(int, parts[pi + 1 : ci], path, ln))
        if any(not 0 <= p < L or p == i for p in ps):
            raise JointFormatError(
                f"{path}: node {i} needs parents in 0..{L - 1} but itself: {ln!r}"
            )
        vals = _probabilities(parts[ci + 1 :], path, ln)
        if vals.size != V ** (len(ps) + 1):
            raise JointFormatError(
                f"{path}: node {i} needs {V ** (len(ps) + 1)} CPT values: {ln!r}"
            )
        rows = vals.reshape(-1, V)
        if np.any(np.abs(rows.sum(axis=1) - 1.0) > 1e-9):
            raise JointFormatError(
                f"{path}: node {i} CPT rows do not sum to 1 within 1e-9: {ln!r}"
            )
        parents[i] = ps
        node_lines[i] = ln
        sums = rows.sum(axis=1, keepdims=True)
        rows = np.where(np.abs(sums - 1.0) > 1e-12, rows / sums, rows)
        cpts[i] = rows.reshape((V,) * len(ps) + (V,))
    try:
        return FactorizedDAG(vocab, tuple(parents), tuple(cpts))  # type: ignore
    except CycleError as exc:
        raise JointFormatError(
            f"{path}: cyclic parents through node {exc.node}: {node_lines[exc.node]!r}"
        ) from None


# ---------------------------------------------------------------------------
# random model generators used by tests and experiments
# ---------------------------------------------------------------------------

def random_tabular(rng: np.random.Generator, V: int, L: int) -> TabularJoint:
    """A random strictly positive full table (Dirichlet-style draw)."""
    raw = rng.gamma(1.0, 1.0, size=(V,) * L) + 0.05
    return TabularJoint(Vocabulary(V), raw / raw.sum())


def _random_cpt(rng: np.random.Generator, V: int, n_parents: int) -> np.ndarray:
    raw = rng.gamma(1.0, 1.0, size=(V,) * n_parents + (V,)) + 0.05
    return raw / raw.sum(axis=-1, keepdims=True)


def random_tree_dag(rng: np.random.Generator, V: int, L: int) -> FactorizedDAG:
    """A random tree-structured network: node 0 is the root, others pick one parent."""
    parents: list[tuple[int, ...]] = [()]
    for i in range(1, L):
        parents.append((int(rng.integers(0, i)),))
    cpts = tuple(_random_cpt(rng, V, len(ps)) for ps in parents)
    return FactorizedDAG(Vocabulary(V), tuple(parents), cpts)


def random_dag(
    rng: np.random.Generator, V: int, L: int, max_parents: int = 2
) -> FactorizedDAG:
    """A random DAG over positions 0..L-1 with edges pointing forward."""
    parents: list[tuple[int, ...]] = []
    for i in range(L):
        k = int(rng.integers(0, min(i, max_parents) + 1))
        ps = tuple(sorted(rng.choice(i, size=k, replace=False).tolist())) if k else ()
        parents.append(ps)
    cpts = tuple(_random_cpt(rng, V, len(ps)) for ps in parents)
    return FactorizedDAG(Vocabulary(V), tuple(parents), cpts)
