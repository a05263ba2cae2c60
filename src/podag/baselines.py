"""Reference estimators used for comparison.

Two naive regression-style estimators of the between-layer graph (each
with a characteristic false-positive mode), the classic PC algorithm,
and PC+, the variant that prunes candidate separating sets using the
layering and orients cross-layer edges by the ordering.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .graph import Pdag, SepsetMap, apply_meek_rules, orient_by_ordering, orient_v_structures, write_edgelist

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
            "sepsets": {
                f"{labels[a]},{labels[b]}": sorted(labels[v] for v in s)
                for (a, b), s in self.sepsets.items()
            },
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


def estimate_h0(engine, ordering, labels=None):
    """Declare k -> j whenever j depends on k given the other first-layer nodes.

    Over-includes: any directed path from k into j running through the
    second layer also produces an edge, because no second-layer node is
    adjusted for.
    """
    first, second = _two_layer_sets(ordering)
    start = engine.n_queries
    edges = set()
    for j in second:
        for k in first:
            rest = [v for v in first if v != k]
            if not engine.query(k, j, rest).independent:
                edges.add((k, j))
    pdag = Pdag(ordering.n_nodes, directed_edges=edges, labels=labels)
    return BaselineResult(pdag=pdag, sepsets=SepsetMap(), ci_tests=engine.n_queries - start)


def estimate_h_minus_j(engine, ordering, labels=None):
    """Declare k -> j whenever j depends on k given all remaining variables.

    Over-includes: conditioning on a common child of k and j opens the
    collider and yields an edge even when k and j are nonadjacent.
    """
    first, second = _two_layer_sets(ordering)
    start = engine.n_queries
    edges = set()
    for j in second:
        for k in first:
            rest = [v for v in first + second if v not in (k, j)]
            if not engine.query(k, j, rest).independent:
                edges.add((k, j))
    pdag = Pdag(ordering.n_nodes, directed_edges=edges, labels=labels)
    return BaselineResult(pdag=pdag, sepsets=SepsetMap(), ci_tests=engine.n_queries - start)


def _pc_skeleton(engine, n_nodes, sepset_filter=None, max_level=None, stable=False):
    """Level-wise PC skeleton search from the complete graph.

    ``sepset_filter(i, j, node)`` restricts candidate separating-set
    members for the pair (i, j); candidate sets are drawn from the
    current adjacencies of each side in turn, in ascending node order.
    The default mode removes edges immediately (classic order-dependent
    PC); ``stable`` defers removals to the end of each level.
    """
    adj = {v: set(range(n_nodes)) - {v} for v in range(n_nodes)}
    sepsets = SepsetMap()
    level = 0
    while True:
        pairs = [
            (i, j)
            for i in range(n_nodes)
            for j in range(i + 1, n_nodes)
            if j in adj[i]
        ]
        any_tested = False
        to_remove = []
        for i, j in pairs:
            if not stable and j not in adj[i]:
                continue
            removed = False
            for a, b in ((i, j), (j, i)):
                candidates = sorted(adj[a] - {b})
                if sepset_filter is not None:
                    candidates = [v for v in candidates if sepset_filter(a, b, v)]
                if len(candidates) < level:
                    continue
                for s in itertools.combinations(candidates, level):
                    any_tested = True
                    if engine.query(a, b, s).independent:
                        sep = frozenset(s)
                        if stable:
                            to_remove.append((i, j, sep))
                        else:
                            adj[i].discard(j)
                            adj[j].discard(i)
                            sepsets.record(i, j, sep)
                        removed = True
                        break
                if removed:
                    break
        if stable:
            for i, j, sep in to_remove:
                if j in adj[i]:
                    adj[i].discard(j)
                    adj[j].discard(i)
                    sepsets.record(i, j, sep)
        if not any_tested:
            break
        level += 1
        if max_level is not None and level > max_level:
            break
    und = {(i, j) for i in range(n_nodes) for j in adj[i] if i < j}
    return und, sepsets


def pc(engine, n_nodes, labels=None, max_level=None, stable=False, on_conflict="error"):
    """Classic PC: skeleton, v-structures, Meek closure.  Returns a CPDAG."""
    start = engine.n_queries
    und, sepsets = _pc_skeleton(engine, n_nodes, max_level=max_level, stable=stable)
    skeleton = Pdag(n_nodes, undirected_edges=und, labels=labels)
    oriented = orient_v_structures(skeleton, sepsets, on_conflict=on_conflict)
    cpdag = apply_meek_rules(oriented, on_conflict=on_conflict)
    return BaselineResult(pdag=cpdag, sepsets=sepsets, ci_tests=engine.n_queries - start)


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
    n_nodes = ordering.n_nodes

    def sepset_filter(a, b, v):
        la, lb = ordering.layer_of(a), ordering.layer_of(b)
        if la is None or lb is None:
            return True
        lv = ordering.layer_of(v)
        if lv is None:
            return True
        return lv <= max(la, lb)

    start = engine.n_queries
    und, sepsets = _pc_skeleton(
        engine, n_nodes, sepset_filter=sepset_filter, max_level=max_level, stable=stable
    )
    skeleton = orient_by_ordering(Pdag(n_nodes, undirected_edges=und, labels=labels), ordering)
    oriented = orient_v_structures(skeleton, sepsets, on_conflict=on_conflict)
    result = apply_meek_rules(oriented, on_conflict=on_conflict)
    return BaselineResult(pdag=result, sepsets=sepsets, ci_tests=engine.n_queries - start)
