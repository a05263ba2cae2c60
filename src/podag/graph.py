"""Core graph machinery: DAGs, partially directed graphs, layerings.

Nodes are dense 0-based indices; labels are metadata only.  All graph
types are immutable after construction, so queries are pure and safe to
call concurrently.
"""

from __future__ import annotations

import itertools
from collections import deque

from .errors import CycleError, InconsistencyError, LabelMismatchError

__all__ = [
    "Dag",
    "Pdag",
    "PartialOrdering",
    "SepsetMap",
    "apply_meek_rules",
    "orient_by_ordering",
    "write_edgelist",
    "read_layering",
    "write_layering",
]


def _column_labels(labels, m):
    """The labels of ``m`` nodes (data columns) as strings, ``V0, V1, ...`` by default.

    Raises :class:`LabelMismatchError` naming the labels that repeat.
    """
    if labels is None:
        labels = [f"V{i}" for i in range(m)]
    if len(labels) != m:
        raise ValueError("labels must have one entry per column")
    labels = tuple(str(x) for x in labels)
    if len(set(labels)) != m:
        raise LabelMismatchError({x for x in labels if labels.count(x) > 1}, "duplicate column labels")
    return labels


def _check_node(n_nodes, v):
    if not (0 <= v < n_nodes):
        raise ValueError(f"node index {v} out of range [0, {n_nodes})")


def _checked_edge(n_nodes, edge):
    """``edge`` as a pair of ints, both in range and distinct."""
    u, v = (int(x) for x in edge)
    _check_node(n_nodes, u)
    _check_node(n_nodes, v)
    if u == v:
        raise ValueError(f"self-loop at node {u}")
    return u, v


class Dag:
    """Directed acyclic graph over ``n_nodes`` indexed nodes.

    Parameters
    ----------
    n_nodes : int
        Number of nodes.
    edges : iterable of (int, int)
        Directed edges as ``(parent, child)`` pairs.
    labels : sequence of str, optional
        Distinct per-node names.  Defaults to ``V0, V1, ...``.

    Raises
    ------
    CycleError
        If the edge set admits no topological sort.
    LabelMismatchError
        If a label repeats.
    ValueError
        On self-loops or out-of-range indices.
    """

    def __init__(self, n_nodes, edges=(), labels=None):
        self.n_nodes = int(n_nodes)
        self.edges = frozenset(_checked_edge(self.n_nodes, e) for e in edges)
        self.labels = _column_labels(labels, self.n_nodes)

        self._parents = [set() for _ in range(self.n_nodes)]
        self._children = [set() for _ in range(self.n_nodes)]
        for u, v in self.edges:
            self._parents[v].add(u)
            self._children[u].add(v)
        self._topo = self._topological_sort()

    def _topological_sort(self):
        indeg = [len(self._parents[v]) for v in range(self.n_nodes)]
        queue = deque(v for v in range(self.n_nodes) if indeg[v] == 0)
        order = []
        while queue:
            u = queue.popleft()
            order.append(u)
            for w in sorted(self._children[u]):
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if len(order) < self.n_nodes:
            cycle = [v for v in range(self.n_nodes) if indeg[v] > 0]
            raise CycleError(cycle)
        return tuple(order)

    # -- basic queries ------------------------------------------------

    def parents(self, j):
        _check_node(self.n_nodes, j)
        return frozenset(self._parents[j])

    def children(self, j):
        _check_node(self.n_nodes, j)
        return frozenset(self._children[j])

    def has_edge(self, u, v):
        return (u, v) in self.edges

    def is_adjacent(self, u, v):
        return (u, v) in self.edges or (v, u) in self.edges

    def topological_order(self):
        return self._topo

    def ancestors(self, nodes):
        """Return ``nodes`` together with all their strict ancestors."""
        return self._reachable(nodes, self._parents)

    def descendants(self, nodes):
        """Return ``nodes`` together with all their strict descendants."""
        return self._reachable(nodes, self._children)

    def _reachable(self, nodes, step):
        """``nodes`` together with every node reached from them through ``step`` (parents or children)."""
        out = set()
        stack = list(nodes)
        for v in stack:
            _check_node(self.n_nodes, v)
        while stack:
            v = stack.pop()
            if v not in out:
                out.add(v)
                stack.extend(step[v])
        return frozenset(out)

    # -- d-separation -------------------------------------------------

    def is_dsep(self, i, j, s):
        """Check whether ``s`` d-separates nodes ``i`` and ``j``.

        Implemented by reachability on the moralized ancestral subgraph
        (Lauritzen): restrict to ancestors of ``{i, j} | s``, marry
        parents, drop directions, delete ``s``, and test connectivity.
        """
        s = frozenset(int(v) for v in s)
        i, j = int(i), int(j)
        _check_node(self.n_nodes, i)
        _check_node(self.n_nodes, j)
        for v in s:
            _check_node(self.n_nodes, v)
        if i == j:
            raise ValueError("i and j must be distinct")
        if i in s or j in s:
            raise ValueError("conditioning set must not contain i or j")

        anc = self.ancestors({i, j} | s)
        moral = {v: set() for v in anc}
        for v in anc:
            pars = self._parents[v] & anc
            for p in pars:
                moral[v].add(p)
                moral[p].add(v)
            for p, q in itertools.combinations(pars, 2):
                moral[p].add(q)
                moral[q].add(p)
        # BFS from i avoiding s
        seen = {i}
        queue = deque([i])
        while queue:
            u = queue.popleft()
            for w in moral[u]:
                if w in s or w in seen:
                    continue
                if w == j:
                    return False
                seen.add(w)
                queue.append(w)
        return True

    # -- derived structures -------------------------------------------

    def v_structures(self):
        """Unshielded colliders as triples ``(i, j, k)`` with ``i < k``."""
        out = set()
        for j in range(self.n_nodes):
            for i, k in itertools.combinations(sorted(self._parents[j]), 2):
                if not self.is_adjacent(i, k):
                    out.add((i, j, k))
        return frozenset(out)

    def skeleton(self):
        und = {(min(u, v), max(u, v)) for u, v in self.edges}
        return Pdag(self.n_nodes, directed_edges=(), undirected_edges=und, labels=self.labels)

    def cross_edges(self, ordering):
        """Edges whose endpoints lie in different layers of ``ordering``."""
        return frozenset(
            (u, v) for u, v in self.edges if u in ordering.before_set(v)
        )

    def __eq__(self, other):
        return (
            isinstance(other, Dag)
            and self.n_nodes == other.n_nodes
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n_nodes, self.edges))

    def __repr__(self):
        return f"Dag(n_nodes={self.n_nodes}, edges={sorted(self.edges)})"


class Pdag:
    """Partially directed graph: disjoint directed and undirected edge sets."""

    def __init__(self, n_nodes, directed_edges=(), undirected_edges=(), labels=None):
        self.n_nodes = int(n_nodes)
        directed = {_checked_edge(self.n_nodes, e) for e in directed_edges}
        undirected = {tuple(sorted(_checked_edge(self.n_nodes, e))) for e in undirected_edges}
        for u, v in directed:
            if (v, u) in directed:
                raise InconsistencyError((u, v), message=f"edge {(u, v)} directed both ways")
            if (min(u, v), max(u, v)) in undirected:
                raise ValueError(f"pair {(u, v)} is both directed and undirected")
        self.directed_edges = frozenset(directed)
        self.undirected_edges = frozenset(undirected)
        self.labels = _column_labels(labels, self.n_nodes)

    def is_adjacent(self, u, v):
        return (
            (u, v) in self.directed_edges
            or (v, u) in self.directed_edges
            or (min(u, v), max(u, v)) in self.undirected_edges
        )

    def adjacency_pairs(self):
        """All adjacent pairs as ``(min, max)`` tuples."""
        out = {(min(u, v), max(u, v)) for u, v in self.directed_edges}
        return frozenset(out | self.undirected_edges)

    def __eq__(self, other):
        return (
            isinstance(other, Pdag)
            and self.n_nodes == other.n_nodes
            and self.directed_edges == other.directed_edges
            and self.undirected_edges == other.undirected_edges
        )

    def __hash__(self):
        return hash((self.n_nodes, self.directed_edges, self.undirected_edges))

    def __repr__(self):
        return (
            f"Pdag(n_nodes={self.n_nodes}, directed={sorted(self.directed_edges)}, "
            f"undirected={sorted(self.undirected_edges)})"
        )


class PartialOrdering:
    """Ordered partition of nodes into layers, with optional extras.

    ``layers`` is an ordered list of disjoint node sets ``V1 < V2 < ...``;
    ``unordered`` holds nodes with no ordering information.  Together they
    must partition ``{0, ..., n_nodes - 1}``.  Optional per-node ``before``
    and ``after`` sets override the layer-derived order information for
    weaker kinds of partial orderings.
    """

    def __init__(self, layers, n_nodes=None, unordered=(), before=None, after=None):
        self.layers = tuple(frozenset(int(v) for v in layer) for layer in layers)
        self.unordered = frozenset(int(v) for v in unordered)
        counted = [v for layer in self.layers for v in layer] + list(self.unordered)
        if n_nodes is None:
            n_nodes = len(counted)
        self.n_nodes = int(n_nodes)
        if sorted(counted) != list(range(self.n_nodes)):
            raise ValueError("layers plus unordered must partition the node set")
        self._layer_of = {}
        for idx, layer in enumerate(self.layers):
            for v in layer:
                self._layer_of[v] = idx

        if before is None and after is None:
            self._before, self._after = self._layer_tables()
        else:
            self._before, self._after = self._override_tables(before or {}, after or {})
        everything = frozenset(range(self.n_nodes))
        self._peers = tuple(everything - b - a - {j} for j, (b, a) in enumerate(zip(self._before, self._after)))

    def _layer_tables(self):
        """Per-node before/after sets implied by the layers alone."""
        empty = frozenset()
        earlier = [empty]
        for layer in self.layers:
            earlier.append(earlier[-1] | layer)
        everything = earlier[-1]
        before, after = [empty] * self.n_nodes, [empty] * self.n_nodes
        for idx, layer in enumerate(self.layers):
            for v in layer:
                before[v] = earlier[idx]
                after[v] = everything - earlier[idx + 1]
        return tuple(before), tuple(after)

    def _override_tables(self, before, after):
        """Per-node before/after sets given explicitly, checked against the layers, then mirrored.

        ``u`` in ``before[v]`` says what ``v`` in ``after[u]`` says, so each table gains the other's pairs.
        """
        tables = []
        for name, given in (("before", before), ("after", after)):
            table = [frozenset()] * self.n_nodes
            for j, s in given.items():
                j = int(j)
                _check_node(self.n_nodes, j)
                table[j] = frozenset(map(int, s))
                for v in table[j]:
                    _check_node(self.n_nodes, v)
                if j in table[j]:
                    raise ValueError(f"{name} set of node {j} contains the node itself")
            tables.append(table)
        derived_before, derived_after = self._layer_tables()
        for j, (b, a) in enumerate(zip(*tables)):
            if j in self._layer_of:
                if not b <= derived_before[j]:
                    raise ValueError(f"before set of layered node {j} exceeds earlier layers")
                if not a <= derived_after[j]:
                    raise ValueError(f"after set of layered node {j} exceeds later layers")
        before, after = ([set(s) for s in table] for table in tables)
        for j in range(self.n_nodes):
            for u in tables[0][j]:
                after[u].add(j)
            for v in tables[1][j]:
                before[v].add(j)
        for j, (b, a) in enumerate(zip(before, after)):
            if b & a:
                raise ValueError(f"before/after sets of node {j} overlap: {sorted(b & a)}")
        return tuple(map(frozenset, before)), tuple(map(frozenset, after))

    @property
    def n_layers(self):
        return len(self.layers)

    def layer_of(self, v):
        """Layer index of ``v``, or None when ``v`` is unordered."""
        _check_node(self.n_nodes, v)
        return self._layer_of.get(v)

    def before_set(self, j):
        """Nodes known to precede ``j`` (the set T< of node ``j``)."""
        _check_node(self.n_nodes, j)
        return self._before[j]

    def after_set(self, j):
        """Nodes known to succeed ``j`` (the set T> of node ``j``)."""
        _check_node(self.n_nodes, j)
        return self._after[j]

    def peer_set(self, j):
        """Nodes with no known order relative to ``j``."""
        _check_node(self.n_nodes, j)
        return self._peers[j]

    def orders_before(self, u, v):
        """True when ``u`` is known to precede ``v``."""
        return u in self.before_set(v) or v in self.after_set(u)

    def to_before_after(self):
        """Per-node ``(before, after)`` tables, one entry per node."""
        return {j: (self.before_set(j), self.after_set(j)) for j in range(self.n_nodes)}

    def __eq__(self, other):
        return (
            isinstance(other, PartialOrdering)
            and self.layers == other.layers
            and self.unordered == other.unordered
            and self._before == other._before
            and self._after == other._after
        )

    def __repr__(self):
        parts = [f"layers={[sorted(l) for l in self.layers]}"]
        if self.unordered:
            parts.append(f"unordered={sorted(self.unordered)}")
        if (self._before, self._after) != self._layer_tables():
            parts.append("overrides=...")
        return "PartialOrdering(" + ", ".join(parts) + ")"


class SepsetMap:
    """Separating sets recorded during search, as groups on a target.

    Every separator is stored in one form, a group ``(shared, excluded)``
    on a target: the separator of ``(a, target)`` is ``shared - {a}`` for
    each ``a`` in ``excluded``, and a target may hold several groups.  A
    level-0 block is one group (``cond(b)`` and the removed sources), a
    screening verdict another (a verdict pool and its dropped members),
    and :meth:`record` stores the separator ``S`` of ``(i, j)`` as the
    group ``(S | {i}, {i})`` on ``j``.  ``in``, :meth:`get`,
    :meth:`record`'s conflict check and orientation's reads
    (:func:`_separators`) look in both endpoints' groups without
    expanding them; :meth:`items`, ``len`` and ``==`` expand them.
    """

    def __init__(self):
        self._groups = {}  # target -> [(shared frozenset, excluded sources)]

    def record(self, i, j, sepset):
        """Record ``sepset`` for the pair, as the group ``(sepset | {i}, {i})`` on ``j``."""
        if not isinstance(sepset, frozenset):
            sepset = frozenset(map(int, sepset))
        if i in sepset or j in sepset:
            raise ValueError("separating set must not contain its endpoints")
        known = self.get(i, j)
        if known is None:
            self._record_excluding(j, sepset | {i}, {i})
        elif known != sepset:
            raise ValueError(f"pair {(min(i, j), max(i, j))} already has a different separating set")

    def _record_excluding(self, target, shared, excluded):
        """Record ``shared - {a}`` for the pair ``(a, target)`` of each ``a`` in the set ``excluded``.

        Unchecked, for the search and orientation: no pair is recorded
        yet, and no separator holds an endpoint.
        """
        self._groups.setdefault(target, []).append((shared, excluded))

    def _find(self, i, j):
        """``(shared, left_out)``, the pair's separator being ``shared - {left_out}``; None when unrecorded."""
        for shared, excluded in self._groups.get(j, ()):
            if i in excluded:
                return shared, i
        for shared, excluded in self._groups.get(i, ()):
            if j in excluded:
                return shared, j
        return None

    def get(self, i, j):
        found = self._find(i, j)
        return None if found is None else found[0] - {found[1]}

    def __contains__(self, pair):
        return self._find(*pair) is not None

    def items(self):
        pairs = {}
        for t, groups in self._groups.items():
            pairs.update(((min(a, t), max(a, t)), shared - {a}) for shared, excluded in groups for a in excluded)
        return sorted(pairs.items())

    def __len__(self):
        return sum(len(excluded) for groups in self._groups.values() for _, excluded in groups)

    def _by_label(self, labels):
        """The separators as ``result.json`` writes them: ``{"a,b": [sorted labels]}``."""
        return {f"{labels[a]},{labels[b]}": sorted(labels[v] for v in s) for (a, b), s in self.items()}

    def __eq__(self, other):
        return isinstance(other, SepsetMap) and dict(self.items()) == dict(other.items())


# -- orientation ------------------------------------------------------


class _OrientationState:
    """Mutable adjacency store that a fit orients in place, then turns into its one :class:`Pdag`.

    Unchecked: :meth:`to_pdag` checks the edges, ``undirected`` ones as ``(min, max)`` pairs.
    """

    def __init__(self, n_nodes, directed=(), undirected=(), labels=None):
        self.n_nodes = n_nodes
        self.labels = _column_labels(labels, n_nodes)
        self.directed = set(directed)
        self.undirected = set(undirected)
        self._parents = [set() for _ in range(self.n_nodes)]
        self._children = [set() for _ in range(self.n_nodes)]
        self._neigh = [set() for _ in range(self.n_nodes)]
        for u, v in self.directed:
            self._parents[v].add(u)
            self._children[u].add(v)
        for u, v in self.undirected:
            self._neigh[u].add(v)
            self._neigh[v].add(u)

    def is_adjacent(self, u, v):
        return v in self._neigh[u] or v in self._children[u] or v in self._parents[u]

    def orient(self, u, v, on_conflict="error", context=None):
        """Turn edge u-v into u->v.  Returns True if anything changed."""
        if (u, v) in self.directed:
            return False
        if (v, u) in self.directed:
            if on_conflict != "ignore":
                raise InconsistencyError((u, v), triple=context, labels=self.labels)
            return False  # keep the existing orientation
        key = (min(u, v), max(u, v))
        if key not in self.undirected:
            raise ValueError(f"pair {(u, v)} is not adjacent")
        self.undirected.discard(key)
        self._neigh[u].discard(v)
        self._neigh[v].discard(u)
        self.directed.add((u, v))
        self._parents[v].add(u)
        self._children[u].add(v)
        return True

    def to_pdag(self):
        return Pdag(self.n_nodes, self.directed, self.undirected, labels=self.labels)


def orient_by_ordering(pdag, ordering):
    """Point every undirected edge whose endpoints ``ordering`` orders forward.

    Edges between nodes the ordering leaves mutually unordered stay
    undirected; directed edges are kept as they are.
    """
    edges = _ordered_edges(pdag.directed_edges, pdag.undirected_edges, ordering)
    return Pdag(pdag.n_nodes, *edges, labels=pdag.labels)


def _ordered_edges(directed, undirected, ordering):
    """The edge sets ``directed`` and ``undirected`` after :func:`orient_by_ordering`, as two new sets."""
    oriented, unordered = set(directed), set()
    for u, v in undirected:
        if ordering.orders_before(u, v):
            oriented.add((u, v))
        elif ordering.orders_before(v, u):
            oriented.add((v, u))
        else:
            unordered.add((u, v))
    return oriented, unordered


def _unshielded_pairs(state):
    """Each node's sorted neighbours in ``state``, and the sorted unshielded pairs.

    A pair ``(i, k)``, ``i < k``, is unshielded when the two are not
    adjacent but share a neighbour; it is given as the int ``i * n + k``,
    ``n`` nodes, so that a fit builds no tuple per pair.
    """
    n = state.n_nodes
    neighbours = [sorted(state._neigh[v] | state._children[v] | state._parents[v]) for v in range(n)]
    pairs = []
    for i, around in enumerate(neighbours):
        ends = {k for j in around for k in neighbours[j] if k > i}.difference(around)
        pairs += [i * n + k for k in sorted(ends)]
    return neighbours, pairs


def _separators(sepsets, pairs, n):
    """``{pair: shared}`` for the int ``pairs`` of :func:`_unshielded_pairs`, each read once from ``sepsets``.

    ``shared`` is the set that :meth:`SepsetMap._find` returns, the
    separator plus the endpoint it leaves out, or None when the pair has
    none.  Only a middle node is looked up in it, and that is never an
    endpoint, so it lies in ``shared`` exactly when it lies in the
    separator.
    """
    return {pair: (sepsets._find(*divmod(pair, n)) or (None,))[0] for pair in pairs}


def _orient_triples(state, neighbours, found, on_conflict):
    """Orient the unshielded colliders of ``state`` in place, with the separators ``found`` by :func:`_separators`.

    A triple ``i - j - k``, ``i < k``, whose pair has a separator without
    ``j`` becomes ``i -> j <- k``.  The triples are oriented in
    lexicographic order, walked from ``neighbours`` without being listed.
    """
    n = state.n_nodes
    for i, around in enumerate(neighbours):
        for j in around:
            for k in neighbours[j]:
                if k > i and found.get(i * n + k) is not None and j not in found[i * n + k]:
                    state.orient(i, j, on_conflict=on_conflict, context=(i, j, k))
                    state.orient(k, j, on_conflict=on_conflict, context=(i, j, k))


def apply_meek_rules(pdag, on_conflict="error"):
    """Close ``pdag`` under Meek's orientation rules R1-R4 (:func:`_close_meek`)."""
    state = _OrientationState(pdag.n_nodes, pdag.directed_edges, pdag.undirected_edges, pdag.labels)
    _close_meek(state, on_conflict)
    return state.to_pdag()


def _close_meek(state, on_conflict):
    """Close ``state`` under Meek's orientation rules R1-R4, in place.

    Known orientations (e.g. from a layering) enter as directed edges of
    ``state``.  The edge scan is deterministic (lexicographic by (min,
    max) pair), adjacencies are never created or removed, and the result
    is maximal with respect to the input.  An edge forced both ways
    raises :class:`InconsistencyError` unless ``on_conflict="ignore"``,
    which keeps the earlier orientation.
    """

    def rule_applies(a, b):
        # R1: x -> a - b with x, b nonadjacent  =>  a -> b
        for x in sorted(state._parents[a]):
            if x != b and not state.is_adjacent(x, b):
                return True
        # R2: a -> x -> b with a - b  =>  a -> b
        for x in sorted(state._children[a]):
            if b in state._children[x]:
                return True
        # R3: a - x -> b, a - y -> b, x and y nonadjacent  =>  a -> b
        cands = sorted(state._neigh[a] & state._parents[b])
        for x, y in itertools.combinations(cands, 2):
            if not state.is_adjacent(x, y):
                return True
        # R4: a ~ x (any edge), x -> y -> b, x and b nonadjacent  =>  a -> b
        for x in range(state.n_nodes):
            if x in (a, b) or not state.is_adjacent(a, x):
                continue
            if state.is_adjacent(x, b):
                continue
            for y in sorted(state._children[x] & state._parents[b]):
                if y != a:
                    return True
        return False

    changed = True
    while changed:
        changed = False
        for u, v in sorted(state.undirected):
            if rule_applies(u, v):
                state.orient(u, v, on_conflict=on_conflict)
                changed = True
            elif rule_applies(v, u):
                state.orient(v, u, on_conflict=on_conflict)
                changed = True


# -- text formats -----------------------------------------------------


def write_edgelist(directed_edges, labels, undirected_edges=()):
    """Render edges in the tab-separated text format.

    One ``parent<TAB>child`` line per directed edge and
    ``a<TAB>b<TAB>u`` per undirected edge, sorted for determinism.
    """
    lines = []
    for u, v in sorted(directed_edges):
        lines.append(f"{labels[u]}\t{labels[v]}")
    for u, v in sorted((min(a, b), max(a, b)) for a, b in undirected_edges):
        lines.append(f"{labels[u]}\t{labels[v]}\tu")
    return "\n".join(lines) + ("\n" if lines else "")


def write_layering(ordering, labels):
    """Render a layering in the text format (one line per layer, top first)."""
    lines = []
    for layer in ordering.layers:
        lines.append(",".join(labels[v] for v in sorted(layer)))
    if ordering.unordered:
        lines.append("unordered:" + ",".join(labels[v] for v in sorted(ordering.unordered)))
    return "\n".join(lines) + "\n"


def read_layering(text, labels):
    """Parse a layering file against the given node labels.

    Raises
    ------
    LabelMismatchError
        If the file mentions labels absent from ``labels`` or misses some.
    """
    index = {lab: i for i, lab in enumerate(labels)}
    layers = []
    unordered = []

    def nodes(line):
        names = [x.strip() for x in line.split(",") if x.strip()]
        unknown = [x for x in names if x not in index]
        if unknown:
            raise LabelMismatchError(unknown, "layering file mentions unknown labels")
        return [index[x] for x in names]

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("unordered:"):
            unordered.extend(nodes(line[len("unordered:"):]))
        else:
            layers.append(set(nodes(line)))
    seen = {v for layer in layers for v in layer} | set(unordered)
    missing = set(range(len(labels))) - seen
    if missing:
        raise LabelMismatchError(
            [labels[v] for v in missing], "layering file misses labels"
        )
    return PartialOrdering(layers, n_nodes=len(labels), unordered=unordered)
