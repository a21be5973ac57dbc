"""Exact small joint models and brute-force analysis of unmasking schedules.

Everything here is enumeration-based on purpose: the joints are small enough
to tabulate, so conditionals, schedule-induced distributions, and dependency
scores are computed exactly rather than approximated. The dense table is
built once per model and cached; ``joint_table`` checks the state space
against ``ENUM_LIMIT`` before it builds one, and every exact computation
goes through it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import DenoiserOutput, SequenceState, StateBatch, Vocabulary, mask_patterns

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
    """Probability of a fully unmasked assignment (token ids 1..V)."""
    a = tuple(int(v) for v in assignment)
    if len(a) != model.L:
        raise ValueError(f"assignment length {len(a)} != L={model.L}")
    if any(not model.vocab.is_content(v) for v in a):
        raise ValueError("assignment must be fully unmasked content tokens")
    if isinstance(model, TabularJoint):
        return float(model.table[tuple(v - 1 for v in a)])
    p = 1.0
    for i, (ps, cpt) in enumerate(zip(model.parents, model.cpts)):
        idx = tuple(a[q] - 1 for q in ps) + (a[i] - 1,)
        p *= float(cpt[idx])
    return p


def model_distribution(model: JointModel) -> dict[tuple[int, ...], float]:
    """The target joint as a sequence -> probability map (zero entries kept out).

    Sequences come in the table's C order.
    """
    table = joint_table(model)
    support = table > 0
    keys = map(tuple, (np.argwhere(support) + 1).tolist())
    return dict(zip(keys, table[support].tolist()))


def _conditionals_given(
    table: np.ndarray,
    L: int,
    fixed: dict[int, int],
    positions: Sequence[int],
) -> dict[int, np.ndarray]:
    """Exact per-position conditionals given fixed token values.

    All unfixed positions other than the target are marginalized out.
    """
    idx = tuple(
        fixed[i] - 1 if i in fixed else slice(None) for i in range(L)
    )
    sub = table[idx]
    free = [i for i in range(L) if i not in fixed]
    total = float(sub.sum())
    if total <= 0.0:
        raise ZeroSupportError(f"conditioning event {fixed} has probability zero")
    out: dict[int, np.ndarray] = {}
    for pos in positions:
        axis = free.index(pos)
        other = tuple(a for a in range(sub.ndim) if a != axis)
        out[pos] = sub.sum(axis=other) / total
    return out


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
    table = joint_table(model)
    fixed = {i: state.tokens[i] for i in state.unmasked_positions()}
    return _conditionals_given(table, model.L, fixed, masked)


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

    An empty prompt (``prompt_len`` 0) is the one outcome ``((), 1.0)``.
    """
    if not prompt_len:
        return [((), 1.0)]
    pm = joint_table(model).sum(axis=tuple(range(prompt_len, model.L)))
    return [
        (tuple(int(v) + 1 for v in idx), float(p))
        for idx, p in np.ndenumerate(pm)
        if p > 0
    ]


def exact_policy_distribution(
    model: JointModel, schedule: GroupSchedule, prompt_len: int = 0
) -> dict[tuple[int, ...], float]:
    """Distribution over full sequences induced by a fixed group schedule.

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
    table = joint_table(model)

    out: dict[tuple[int, ...], float] = {}

    def walk(fixed: dict[int, int], gi: int, mass: float) -> None:
        if gi == len(schedule.groups):
            seq = tuple(fixed[i] for i in range(L))
            out[seq] = out.get(seq, 0.0) + mass
            return
        group = schedule.groups[gi]
        conds = _conditionals_given(table, L, fixed, group)
        supports = [
            [(v + 1, float(p)) for v, p in enumerate(conds[pos]) if p > 0]
            for pos in group
        ]
        for combo in itertools.product(*supports):
            p = mass
            for _, pv in combo:
                p *= pv
            nxt = dict(fixed)
            for pos, (tok, _) in zip(group, combo):
                nxt[pos] = tok
            walk(nxt, gi + 1, p)

    for prompt, p in prompt_marginal(model, prompt_len):
        walk(dict(enumerate(prompt)), 0, p)
    return out


def oracle_dependency(model: JointModel, state: SequenceState, position: int) -> float:
    """Mutual information between a masked position and the unmasked set.

    The other masked positions are marginalized out; only the mask pattern
    matters, not the observed values. Serves as the attention-free stand-in
    for dependency scoring when decoding against the exact denoiser: a high
    score means the position is strongly pinned down by the visible context.
    """
    if not state.is_masked(position):
        raise ValueError(f"position {position} is not masked")
    unmasked = state.unmasked_positions()
    if not unmasked:
        return 0.0
    table = joint_table(model)
    L, V = model.L, model.vocab.size
    keep = set(unmasked) | {position}
    drop = tuple(i for i in range(L) if i not in keep)
    joint = table.sum(axis=drop) if drop else table
    kept_order = sorted(keep)
    joint = np.moveaxis(joint, kept_order.index(position), 0).reshape(V, -1)
    pm = joint.sum(axis=1)
    pu = joint.sum(axis=0)
    prod = np.outer(pm, pu)
    nz = joint > 0
    mi = float((joint[nz] * np.log(joint[nz] / prod[nz])).sum())
    return max(mi, 0.0)


class OracleDenoiser:
    """Exact denoiser backed by a joint model; no attentions are produced.

    Output rows are cached by token row and dependency scores by mask
    pattern, so repeated contexts during enumeration or sampling are cheap.
    A row's cache key is one integer, its tokens 1..V+1 read as base-(V+1)
    digits; under ``ENUM_LIMIT`` (V+1)^L stays below 2^31.
    """

    def __init__(self, model: JointModel):
        self.model = model
        self.vocab = model.vocab
        V, L = self.vocab.size, model.L
        self._radix = (V + 1) ** np.arange(L, dtype=np.int64)
        # the cached rows' codes, sorted after a sentinel that matches no
        # row, and each code's row in the read-only _rows
        self._codes = np.array([np.iinfo(np.int64).max])
        self._slots = np.array([-1])
        self._rows = np.zeros((0, L, V))
        self._dep_cache: dict[tuple[bool, ...], np.ndarray] = {}

    def __call__(self, states: SequenceState | StateBatch) -> DenoiserOutput:
        """Exact output of one state, or of each row of a ``StateBatch``.

        Probs are (L, V) for one state and (n, L, V) for a batch: each masked
        position gets p(x_i | unmasked tokens), each unmasked one the exact
        one-hot of its token. A row is computed once and then read from the
        cache; the rows a call misses are computed together (see
        ``_conditionals``), and each is a function of its own tokens alone,
        bit for bit, whatever else the call holds. One state's output is a
        read-only view of the cache. Tokens or a shape that do not fit the
        joint raise ``ValueError``; a row with a masked position whose
        unmasked tokens have probability zero raises ``ZeroSupportError``.
        """
        tokens = np.asarray(states.tokens)
        batch = np.atleast_2d(tokens)
        V, L = self.vocab.size, self.model.L
        if states.vocab.size != V or batch.ndim != 2 or batch.shape[1] != L:
            raise ValueError("state does not match the model's vocabulary or length")
        if not np.all((batch >= 1) & (batch <= V + 1)):
            raise ValueError(f"token ids must lie in 1..{V + 1}")
        codes = (batch - 1) @ self._radix
        at = np.searchsorted(self._codes, codes)
        slots = np.where(self._codes[at] == codes, self._slots[at], -1)
        missed = slots < 0
        if missed.any():
            new, first, inverse = np.unique(
                codes[missed], return_index=True, return_inverse=True
            )
            rows = np.concatenate([self._rows, self._conditionals(batch[missed][first])])
            rows.flags.writeable = False  # no caller can corrupt a cached row
            slots[missed] = len(self._rows) + inverse
            at = np.searchsorted(self._codes, new)
            self._codes = np.insert(self._codes, at, new)
            self._slots = np.insert(self._slots, at, np.arange(len(self._rows), len(rows)))
            self._rows = rows
        if tokens.ndim == 1:
            return DenoiserOutput(self._rows[slots[0]])
        return DenoiserOutput(self._rows[slots])

    def batch(self, states: StateBatch) -> DenoiserOutput:
        """``self(states)``: one output with a leading row axis."""
        return self(states)

    def _conditionals(self, tokens: np.ndarray) -> np.ndarray:
        """The (m, L, V) output rows of m distinct (m, L) token rows.

        Rows that mask the same positions are answered together: one gather
        takes each row's slice of the joint table at its unmasked tokens, an
        (m_g, V, ..., V) array over the masked positions, and each masked
        position's conditional is that slice summed over the other masked
        positions, divided by the row's total. Every sum runs over one row's
        contiguous values, so a row's bits do not depend on the other rows.
        """
        table = joint_table(self.model)
        m, L = tokens.shape
        V = self.vocab.size
        masked = tokens == self.vocab.mask_id
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
            for k, pos in enumerate(free):
                slabs = np.moveaxis(sub, 1 + k, 1).reshape(len(rs), V, -1)
                probs[rs, pos] = slabs.sum(axis=2) / total[:, None]
        return probs

    def dependency_scores(self, masked: Sequence[bool]) -> np.ndarray:
        """``oracle_dependency`` of every masked position, NaN elsewhere.

        ``masked`` is one row's mask (position -> masked); the scores depend
        on it alone, so they are cached by it.
        """
        pattern = tuple(bool(m) for m in masked)
        if pattern not in self._dep_cache:
            # the observed values do not matter: token 1 stands in for each
            mask_id = self.vocab.mask_id
            state = SequenceState(self.vocab, tuple(mask_id if m else 1 for m in pattern))
            self._dep_cache[pattern] = np.array([
                oracle_dependency(self.model, state, i) if m else np.nan
                for i, m in enumerate(pattern)
            ])
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
