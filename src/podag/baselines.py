"""Reference estimators used for comparison.

Two naive regression-style estimators of the between-layer graph (each
with a characteristic false-positive mode), the classic PC algorithm,
and PC+, the variant that prunes candidate separating sets using the
layering and orients cross-layer edges by the ordering.  PC and PC+
share one body, whose skeleton search is the level-wise driver of
:mod:`podag.search`.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .graph import Pdag, SepsetMap, _ordered_edges, _OrientationState
from .search import Diagnostics, _elapsed_ms, _FitResult, _orient, _search_levels
from .stats import _check_node_count, _dependence_error

__all__ = ["BaselineResult", "estimate_h0", "estimate_h_minus_j", "pc", "pc_plus"]


@dataclass(frozen=True)
class BaselineResult(_FitResult):
    """A baseline's estimate, shaped as a PODAG result; its JSON lists the edges directed or undirected."""

    def to_json(self):
        return self._dumps(
            {
                "directed": self._labelled(self.pdag.directed_edges),
                "undirected": self._labelled(self.pdag.undirected_edges),
                "diagnostics": {"ci_tests": self.diagnostics.ci_tests},
            }
        )


def _result(pdag, sepsets, removals, engine, start, started):
    """A fit's result; it began at ``started``, and its queries, all ``search``, are ``engine``'s since ``start``."""
    queries = {"screen": 0, "search": engine.n_queries - start, "orient": 0}
    return BaselineResult(pdag, sepsets, Diagnostics(queries, removals, _elapsed_ms(started)))


def _two_layer_sets(ordering):
    if ordering.n_layers != 2 or ordering.unordered:
        raise ValueError("this estimator needs a two-layer ordering")
    first = sorted(ordering.layers[0])
    second = sorted(ordering.layers[1])
    return first, second


def _dependence_edges(engine, ordering, labels, adjust_second):
    """k -> j for each first-layer k on which second-layer j depends.

    The conditioning set is every other first-layer node, plus every
    second-layer node but j when ``adjust_second`` is set.  A sample
    engine raises :class:`DegenerateDataError` naming a linearly
    dependent column set in j's union with it, as screening does, where
    that union has fewer columns than samples (and so could have full
    rank): its tests would read rounding noise, or fail naming indices.
    """
    _check_node_count(ordering.n_nodes, engine)
    first, second = _two_layer_sets(ordering)
    adjusted = first + second if adjust_second else first
    cov = getattr(engine, "cov", None)  # an oracle has none
    start, started = engine.n_queries, time.perf_counter()
    edges = set()
    for j in second:
        cond = frozenset(adjusted) - {j}
        union = sorted(cond | {j})
        error = _dependence_error(cov, union, spare=0) if cov is not None and cov.n > len(union) else None
        if error is not None:
            raise error
        independent = engine._query_block(j, first, cond)[0]
        edges.update((k, j) for k, ind in zip(first, independent) if not ind)
    pdag = Pdag(ordering.n_nodes, directed_edges=edges, labels=labels)
    return _result(pdag, SepsetMap(), {}, engine, start, started)


def estimate_h0(engine, ordering, labels=None):
    """Declare k -> j whenever j depends on k given the other first-layer nodes.

    Over-includes: any directed path from k into j running through the
    second layer also produces an edge, because no second-layer node is
    adjusted for.
    """
    return _dependence_edges(engine, ordering, labels, adjust_second=False)


def estimate_h_minus_j(engine, ordering, labels=None):
    """Declare k -> j whenever j depends on k given all remaining variables.

    Over-includes: conditioning on a common child of k and j opens the
    collider and yields an edge even when k and j are nonadjacent.
    """
    return _dependence_edges(engine, ordering, labels, adjust_second=True)


def _pc(engine, n_nodes, labels, max_level, stable, on_conflict, ordering=None):
    """PC from the complete graph; PC+ when ``ordering`` is given.

    Each pair ``i < j`` is tested from ``i``'s side, then from ``j``'s,
    with candidate separators drawn from that side's current
    adjacencies.  PC+ drops candidates lying in layers strictly later
    than both endpoints (when the candidate and both endpoints are
    layered) and orients cross-layer edges by the ordering before
    v-structure detection.
    """
    if max_level is not None and max_level < 0:
        raise ValueError("max_level must be nonnegative")
    _check_node_count(n_nodes, engine)
    start, started = engine.n_queries, time.perf_counter()
    adj = {v: set(range(n_nodes)) - {v} for v in range(n_nodes)}
    layer = [None if ordering is None else ordering.layer_of(v) for v in range(n_nodes)]
    # the candidates allowed when the later endpoint lies in layer L
    allowed = {
        latest: frozenset(v for v in range(n_nodes) if layer[v] is None or layer[v] <= latest)
        for latest in set(layer) - {None}
    }

    def pool(a, b):
        if layer[a] is not None and layer[b] is not None:
            return adj[b] & allowed[max(layer[a], layer[b])]
        return adj[b]

    # each pair i < j as (j, i), then (i, j)
    sources = [a for i, j in itertools.combinations(range(n_nodes), 2) for a in (j, i)]
    targets = [b for i, j in itertools.combinations(range(n_nodes), 2) for b in (i, j)]
    tests = (sources, targets)
    sepsets, removals, _ = _search_levels(engine, tests, lambda b: frozenset(), pool, adj, max_level, stable)
    directed, undirected = (), {(i, j) for i in adj for j in adj[i] if i < j}
    if ordering is not None:
        directed, undirected = _ordered_edges(directed, undirected, ordering)
    cpdag = _orient(_OrientationState(n_nodes, directed, undirected, labels), sepsets, on_conflict)
    return _result(cpdag, sepsets, removals, engine, start, started)


def pc(engine, n_nodes, labels=None, max_level=None, stable=False, on_conflict="error"):
    """Classic PC: skeleton, v-structures, Meek closure.  Returns a CPDAG.

    The default mode removes edges immediately (order-dependent PC);
    ``stable`` defers removals to the end of each level.
    """
    return _pc(engine, n_nodes, labels, max_level, stable, on_conflict)


def pc_plus(engine, ordering, labels=None, max_level=None, stable=False, on_conflict="error"):
    """PC with the layering folded in.

    Separating-set candidates for a pair exclude nodes lying in layers
    strictly later than both endpoints (if two nodes are d-separated, the
    ancestral part of the separator still works, so nothing is lost.)
    Nodes without layer information are never excluded, and the
    restriction applies only when both endpoints are layered.  After the
    skeleton is found, cross-layer edges are oriented by the ordering
    before v-structure detection and Meek closure.
    """
    return _pc(engine, ordering.n_nodes, labels, max_level, stable, on_conflict, ordering)
