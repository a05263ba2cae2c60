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
import json
from dataclasses import dataclass

from .graph import Pdag, SepsetMap, orient_by_ordering, write_edgelist
from .search import _orient, _search_levels
from .stats import _dependence_error

__all__ = ["BaselineResult", "estimate_h0", "estimate_h_minus_j", "pc", "pc_plus"]


@dataclass(frozen=True)
class BaselineResult:
    """Estimated graph plus the bookkeeping needed for evaluation."""

    pdag: Pdag
    sepsets: SepsetMap
    ci_tests: int

    @property
    def edges(self):
        return self.pdag.directed_edges

    def to_json(self):
        labels = self.pdag.labels
        doc = {
            "directed": [[labels[u], labels[v]] for u, v in sorted(self.pdag.directed_edges)],
            "undirected": [[labels[u], labels[v]] for u, v in sorted(self.pdag.undirected_edges)],
            "sepsets": self.sepsets._by_label(labels),
            "diagnostics": {"ci_tests": self.ci_tests},
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def to_edgelist(self):
        return write_edgelist(
            sorted(self.pdag.directed_edges),
            self.pdag.labels,
            undirected_edges=sorted(self.pdag.undirected_edges),
        )


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
    first, second = _two_layer_sets(ordering)
    adjusted = first + second if adjust_second else first
    cov = getattr(engine, "cov", None)  # an oracle has none
    start = engine.n_queries
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
    return BaselineResult(pdag=pdag, sepsets=SepsetMap(), ci_tests=engine.n_queries - start)


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
    start = engine.n_queries
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

    tests = [t for i, j in itertools.combinations(range(n_nodes), 2) for t in ((j, i), (i, j))]
    sepsets, _, _ = _search_levels(engine, tests, lambda b: frozenset(), pool, adj, max_level, stable)
    und = [(i, j) for i in adj for j in adj[i] if i < j]
    skeleton = Pdag(n_nodes, undirected_edges=und, labels=labels)
    if ordering is not None:
        skeleton = orient_by_ordering(skeleton, ordering)
    cpdag = _orient(skeleton, sepsets, on_conflict)
    return BaselineResult(pdag=cpdag, sepsets=sepsets, ci_tests=engine.n_queries - start)


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
