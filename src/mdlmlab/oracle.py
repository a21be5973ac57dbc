"""Exact small joint models and brute-force analysis of unmasking schedules.

Everything here is enumeration-based on purpose: the joints are small enough
to tabulate, so conditionals, schedule-induced distributions, and dependency
scores are computed exactly rather than approximated. The dense table is
built once per model and cached; ``joint_table`` checks the state space
against ``ENUM_LIMIT`` before it builds one, and every exact computation
goes through it. One kernel serves every exact conditional and mutual
information: ``_slabs`` sums a slice of the table onto each of its free
positions, and ``_conditionals`` answers token rows with it.
"""

from __future__ import annotations

from collections.abc import ItemsView, Iterator, Mapping, ValuesView
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    DenoiserOutput, SequenceState, StateBatch, Vocabulary, mask_patterns, token_rows,
)

ENUM_LIMIT = 10**6


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

    def __post_init__(self) -> None:
        self.table = np.asarray(self.table, dtype=float)
        if self.table.ndim < 1 or any(s != self.vocab.size for s in self.table.shape):
            raise ValueError("table needs one axis of size V per position")
        if np.any(self.table < 0) or abs(float(self.table.sum()) - 1.0) > 1e-12:
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
            if np.any(rows < 0) or np.any(np.abs(rows.sum(axis=1) - 1.0) > 1e-12):
                raise ValueError(f"node {i} CPT rows must sum to 1 within 1e-12")
            cpts.append(cpt)
        self.cpts = tuple(cpts)
        self._topo = _topological_order(self.parents)

    @property
    def L(self) -> int:
        return len(self.parents)

    def topo_order(self) -> tuple[int, ...]:
        assert self._topo is not None
        return self._topo


JointModel = TabularJoint | FactorizedDAG


def _topological_order(parents: Sequence[Sequence[int]]) -> tuple[int, ...]:
    L = len(parents)
    children: list[list[int]] = [[] for _ in range(L)]
    indeg = [0] * L
    for i, ps in enumerate(parents):
        indeg[i] = len(ps)
        for p in ps:
            children[p].append(i)
    ready = sorted(i for i in range(L) if indeg[i] == 0)
    order: list[int] = []
    while ready:
        n = ready.pop(0)
        order.append(n)
        for c in children[n]:
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
        ready.sort()
    if len(order) != L:
        # Every node left out has a parent left out, so walking up such
        # parents revisits a node, and the first one revisited is on a cycle.
        done = set(order)
        node = min(set(range(L)) - done)
        seen: set[int] = set()
        while node not in seen:
            seen.add(node)
            node = next(p for p in parents[node] if p not in done)
        raise CycleError(node)
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


def _conditionals(table: np.ndarray, tokens: np.ndarray, mask_id: int) -> np.ndarray:
    """The (m, L, V) exact output rows of m distinct (m, L) token rows.

    A masked position gets p(x_i | unmasked tokens), an unmasked one the
    one-hot of its token. Rows that mask the same positions are answered
    together: one gather takes each row's slice of the joint table at its
    unmasked tokens, an (m_g, V, ..., V) array over the masked positions,
    and each masked position's conditional is its ``_slabs`` sum divided by
    the row's total. Raises ZeroSupportError for a row with a masked
    position whose unmasked tokens have probability zero.
    """
    m, L = tokens.shape
    V = table.shape[0]
    masked = tokens == mask_id
    probs = np.zeros((m, L, V))
    seen_r, seen_i = np.nonzero(~masked)
    probs[seen_r, seen_i, tokens[seen_r, seen_i] - 1] = 1.0
    patterns, group = mask_patterns(masked)
    for g, pattern in enumerate(patterns):
        free = np.flatnonzero(pattern).tolist()
        if not free:
            continue
        fixed = np.flatnonzero(~pattern).tolist()
        rs = np.flatnonzero(group == g)
        index = tuple(tokens[rs][:, fixed].T - 1)
        sub = table.transpose(fixed + free)[index].reshape((len(rs),) + (V,) * len(free))
        total = sub.reshape(len(rs), -1).sum(axis=1)
        if not np.all(total > 0.0):
            bad = tokens[rs[int(np.argmin(total > 0.0))]]
            fixed_tokens = {i: int(bad[i]) for i in fixed}
            raise ZeroSupportError(
                f"conditioning event {fixed_tokens} has probability zero"
            )
        for pos, slab in zip(free, _slabs(sub)):
            probs[rs, pos] = slab / total[:, None]
    return probs


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
    probs = _conditionals(joint_table(model), tokens, model.vocab.mask_id)[0]
    return {i: probs[i] for i in masked}


def sample_joints(model: JointModel, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n full sequences as an (n, L) token array.

    A table draws one uniform per sequence and takes the first entry of its
    cumulative sum above u times the total. A DAG samples ancestrally: it
    draws an (n, L) block of uniforms, column j serving the j-th node of
    the topological order, and counts the entries of the node's cumulative
    CPT row that are <= u times the row total. So the tokens, and the
    generator state left behind, are those of n ``sample_joint`` calls.
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
    table, mask_id = joint_table(model), model.vocab.mask_id
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
        probs = _conditionals(table, rows, mask_id)
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
    if not state.is_masked(position):
        raise ValueError(f"position {position} is not masked")
    mask_id = state.vocab.mask_id
    return float(OracleDenoiser(model).dependency_scores(
        [t == mask_id for t in state.tokens])[position])


class OracleDenoiser:
    """Exact denoiser backed by a joint model; no attentions are produced.

    Its outputs and dependency scores come from the module's one kernel
    (``_conditionals`` and ``_slabs``), as every exact conditional and mutual
    information here does. Output rows are cached by token row and
    dependency scores by mask pattern, so repeated contexts during
    enumeration or sampling are cheap. A row's cache key is one integer,
    its tokens 1..V+1 read as base-(V+1) digits; under ``ENUM_LIMIT``
    (V+1)^L stays below 2^31. The row store doubles when full, so a call
    that misses copies the cache only when it grows, and its new keys are
    merged into the sorted index in one insert.
    """

    def __init__(self, model: JointModel):
        self.model = model
        self.vocab = model.vocab
        V, L = self.vocab.size, model.L
        self._radix = (V + 1) ** np.arange(L, dtype=np.int64)
        # row 0: the cached rows' codes, sorted after a sentinel that matches
        # no row; row 1: each code's row in _rows
        self._index = np.array([[np.iinfo(np.int64).max], [-1]])
        # _rows is a read-only view of the filled part of _buffer, which
        # doubles when full; only __call__ writes the spare rows
        self._buffer = np.zeros((0, L, V))
        self._rows = self._buffer[:0]
        self._dep_cache: dict[tuple[bool, ...], np.ndarray] = {}
        self.hits = 0  # rows a call found in the cache
        self.misses = 0  # rows a call did not find there

    def __call__(self, states: SequenceState | StateBatch) -> DenoiserOutput:
        """Exact output of one state, or of each row of a ``StateBatch``.

        Probs are (L, V) for one state and (n, L, V) for a batch: each masked
        position gets p(x_i | unmasked tokens), each unmasked one the exact
        one-hot of its token. A row is computed once and then read from the
        cache; the rows a call misses are computed together (see
        ``_conditionals``), and each is a function of its own tokens alone,
        bit for bit, whatever else the call holds. Every row a call finds
        cached counts in ``hits``, every other row in ``misses``. One
        state's output is a read-only view of the cache. Another vocabulary
        and rows that ``core.token_rows`` refuses as rows of L tokens (mask
        allowed) raise ``ValueError``; a row with a masked position whose
        unmasked tokens have probability zero raises ``ZeroSupportError``.
        """
        V, L = self.vocab.size, self.model.L
        one = isinstance(states, SequenceState)
        if states.vocab.size != V or (one and len(states) != L):
            raise ValueError("state does not match the model's vocabulary or length")
        batch = token_rows([states.tokens] if one else states.tokens, V, L, mask=True)
        codes = (batch - 1) @ self._radix
        at = np.searchsorted(self._index[0], codes)
        slots = np.where(self._index[0, at] == codes, self._index[1, at], -1)
        missed = slots < 0
        n_missed = int(missed.sum())
        self.hits, self.misses = self.hits + len(batch) - n_missed, self.misses + n_missed
        if n_missed:
            new, first, inverse = np.unique(
                codes[missed], return_index=True, return_inverse=True
            )
            fresh = _conditionals(joint_table(self.model), batch[missed][first], V + 1)
            n, m = len(self._rows), len(new)
            if n + m > len(self._buffer):
                grown = np.empty((max(2 * len(self._buffer), n + m), L, V))
                grown[:n] = self._rows
                self._buffer = grown
            self._buffer[n : n + m] = fresh
            self._rows = self._buffer[: n + m]
            self._rows.flags.writeable = False  # no caller can corrupt a cached row
            slots[missed] = n + inverse
            at = np.searchsorted(self._index[0], new)
            self._index = np.insert(self._index, at, [new, np.arange(n, n + m)], axis=1)
        if one:
            return DenoiserOutput(self._rows[slots[0]])
        return DenoiserOutput(self._rows[slots])

    def batch(self, states: StateBatch) -> DenoiserOutput:
        """``self(states)``: one output with a leading row axis."""
        return self(states)

    def dependency_scores(self, masked: Sequence[bool]) -> np.ndarray:
        """``oracle_dependency`` of every masked position, NaN elsewhere.

        ``masked`` is one row's mask (position -> masked); the scores depend
        on it alone, so they are cached by it. The table is transposed once
        to (unmasked..., masked...) with the unmasked assignments as rows, so
        ``_slabs`` gives each masked position's joint with the unmasked set.
        A mask of another length raises ``ValueError``.
        """
        pattern = tuple(bool(m) for m in masked)
        L, V = self.model.L, self.vocab.size
        if len(pattern) != L:
            raise ValueError(f"mask of length {len(pattern)} does not match "
                             "the model's vocabulary or length")
        if pattern not in self._dep_cache:
            free = [i for i in range(L) if pattern[i]]
            fixed = [i for i in range(L) if not pattern[i]]
            scores = np.full(L, np.nan)
            scores[free] = 0.0
            if free and fixed:
                sub = joint_table(self.model).transpose(fixed + free)
                for pos, slab in zip(free, _slabs(sub.reshape((-1,) + (V,) * len(free)))):
                    joint = slab.T  # (value of pos, unmasked assignment)
                    prod = np.outer(joint.sum(axis=1), joint.sum(axis=0))
                    nz = joint > 0
                    mi = float((joint[nz] * np.log(joint[nz] / prod[nz])).sum())
                    scores[pos] = max(mi, 0.0)
            scores.flags.writeable = False  # no caller can corrupt cached scores
            self._dep_cache[pattern] = scores
        return self._dep_cache[pattern]


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
