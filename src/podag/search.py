"""The searching loop and the end-to-end PODAG estimator.

Candidates produced by screening are pruned by conditional-independence
tests over subsets of each target's conditional Markov blanket, then
oriented: edges with known order direction point forward, the rest get
v-structure detection plus Meek closure, yielding a maximal PDAG.

:func:`podag_multi_layer` is the one search entry point for every kind
of partial ordering; :func:`learn` is one :func:`screen_all` call
followed by it.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field, replace

from .errors import PodagError
from .graph import Dag, Pdag, SepsetMap, apply_meek_rules, orient_v_structures, write_edgelist
from .screening import ScreenSets, screen_all
from .stats import Dataset, GaussianEngine, OracleEngine

__all__ = [
    "PodagConfig",
    "Diagnostics",
    "PodagResult",
    "podag_multi_layer",
    "learn",
]


@dataclass(frozen=True)
class PodagConfig:
    """Knobs for screening, searching, and orientation.

    ``alpha`` is the searching-loop significance; ``screen_alpha`` the
    deliberately liberal screening significance.  ``max_sepset_size``
    caps the size of conditioning subsets drawn from the conditional
    Markov blanket (None leaves the enumeration unbounded).  ``stable``
    batches removals per level instead of applying them immediately;
    under an oracle the two modes coincide (separators never depend on
    removable members), on noisy data they may differ the way
    order-dependent and stable PC do.
    """

    backend: str = "pcor"
    backend_params: dict = field(default_factory=dict)
    alpha: float = 0.05
    screen_alpha: float = 0.5
    max_sepset_size: int | None = None
    learn_within_layers: bool = False
    stable: bool = False
    on_conflict: str = "error"

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if not 0 < self.screen_alpha < 1:
            raise ValueError("screen_alpha must be in (0, 1)")
        if self.max_sepset_size is not None and self.max_sepset_size < 0:
            raise ValueError("max_sepset_size must be nonnegative")
        if self.backend not in ("pcor", "sis", "lasso"):
            raise ValueError(f"unknown backend {self.backend!r}")


@dataclass(frozen=True)
class Diagnostics:
    ci_tests: int
    removals_per_level: dict
    elapsed_ms: int


@dataclass(frozen=True)
class PodagResult:
    """Output of a PODAG run.

    ``cross_edges`` are directed edges whose direction is implied by the
    ordering information; ``within`` holds the remaining learned
    adjacencies (between unordered peers) as a maximal PDAG.
    """

    n_nodes: int
    labels: tuple
    cross_edges: frozenset
    within: Pdag
    sepsets: SepsetMap
    screen: ScreenSets
    diagnostics: Diagnostics

    def as_pdag(self):
        """Everything in one partially directed graph."""
        return Pdag(
            self.n_nodes,
            directed_edges=self.cross_edges | self.within.directed_edges,
            undirected_edges=self.within.undirected_edges,
            labels=self.labels,
        )

    def to_json(self):
        doc = {
            "cross_edges": [
                [self.labels[k], self.labels[j]] for k, j in sorted(self.cross_edges)
            ],
            "within_directed": [
                [self.labels[u], self.labels[v]]
                for u, v in sorted(self.within.directed_edges)
            ],
            "within_undirected": [
                [self.labels[u], self.labels[v]]
                for u, v in sorted(self.within.undirected_edges)
            ],
            "sepsets": {
                f"{self.labels[a]},{self.labels[b]}": sorted(self.labels[v] for v in s)
                for (a, b), s in self.sepsets.items()
            },
            "diagnostics": {
                "ci_tests": self.diagnostics.ci_tests,
                "elapsed_ms": self.diagnostics.elapsed_ms,
                "removals_per_level": {
                    str(k): v for k, v in sorted(self.diagnostics.removals_per_level.items())
                },
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def to_edgelist(self):
        return write_edgelist(
            sorted(self.cross_edges | self.within.directed_edges),
            self.labels,
            undirected_edges=sorted(self.within.undirected_edges),
        )


def _elapsed_ms(started):
    return int(round((time.perf_counter() - started) * 1000))


def _set_phase(engine, phase):
    if hasattr(engine, "phase"):
        engine.phase = phase


def _searching_loop(engine, screen, candidates, cfg):
    """Prune candidate edges by CI tests over conditional-Markov-blanket subsets.

    Every query conditions on ``cross(j) - {k}`` plus a subset ``T`` of
    the target's current blanket minus ``k``, of the current level size.
    Removing an ordered candidate removes the opposite direction as well
    (the pair is resolved as nonadjacent) and drops each endpoint from
    the other's blanket: separating sets only ever need true neighbors,
    which are never removed, so shrinking the subset pool is sound and
    avoids enumerating subsets of blanket members already ruled out.
    The level loop runs until no surviving candidate has an untried
    subset (or the configured cap is hit).
    """
    surviving = set(candidates)
    sepsets = SepsetMap()
    removals = {}
    blanket = {j: set(screen[j].cmb) for j in screen.nodes()}

    def resolve(k, j, sep):
        surviving.discard((k, j))
        surviving.discard((j, k))
        sepsets.record(k, j, sep)
        if j in screen.entries and k in blanket[j]:
            blanket[j].discard(k)
        if k in screen.entries and j in blanket[k]:
            blanket[k].discard(j)

    level = 0
    while True:
        if cfg.max_sepset_size is not None and level > cfg.max_sepset_size:
            break
        eligible = [
            (k, j) for (k, j) in surviving if len(blanket[j] - {k}) >= level
        ]
        if not eligible:
            break
        removed_here = 0
        batch = [] if cfg.stable else None
        for k, j in sorted(eligible, key=lambda e: (e[1], e[0])):
            if (k, j) not in surviving:
                continue  # pair already resolved via the mirror direction
            base = screen[j].cross - {k}
            cmb = sorted(blanket[j] - {k})
            if len(cmb) < level:
                continue
            for t in itertools.combinations(cmb, level):
                try:
                    verdict = engine.query(k, j, base | set(t))
                except PodagError as err:
                    err.args = (f"{err.args[0]} [candidate ({k}, {j}), T={t}]",) + err.args[1:]
                    raise
                if verdict.independent:
                    sep = frozenset(base | set(t))
                    if cfg.stable:
                        batch.append((k, j, sep))
                    else:
                        resolve(k, j, sep)
                        removed_here += 1
                    break
        if cfg.stable:
            for k, j, sep in batch:
                if (k, j) in surviving or (j, k) in surviving:
                    resolve(k, j, sep)
                    removed_here += 1
        if removed_here:
            removals[level] = removed_here
        level += 1
    return surviving, sepsets, removals


def _posthoc_sepset(engine, screen, a, b, cfg):
    """Search a separating set for a pair that was never explicitly tested.

    Tries each side's restricted family: subsets of the target's cmb on
    top of its cross set.  Returns None when no separator is found (the
    affected triples are then left unoriented).
    """
    for target, other in ((b, a), (a, b)):
        if target not in screen:
            continue
        base = screen[target].cross - {other}
        cmb = sorted(screen[target].cmb - {other})
        max_level = len(cmb)
        if cfg.max_sepset_size is not None:
            max_level = min(max_level, cfg.max_sepset_size)
        for level in range(max_level + 1):
            for t in itertools.combinations(cmb, level):
                if engine.query(other, target, base | set(t)).independent:
                    return frozenset(base | set(t))
    return None


def _orient(engine, screen, cross_pairs, within_pairs, sepsets, cfg, n_nodes, labels):
    """Background orientations, v-structures, and Meek closure."""
    # background orientations enter first (the ordering is ground truth),
    # but Meek's rules run only after v-structure detection: closing the
    # rules early would let R1 orient edges that are really colliders.
    with_background = Pdag(
        n_nodes,
        directed_edges=cross_pairs,
        undirected_edges=within_pairs,
        labels=labels,
    )
    adjacency = {}
    for u, v in with_background.adjacency_pairs():
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)

    # sepsets for unshielded triples never tested during the search
    _set_phase(engine, "orient")
    needed = set()
    for j in sorted(adjacency):
        for i, k in itertools.combinations(sorted(adjacency[j]), 2):
            if k not in adjacency.get(i, set()):
                needed.add((i, k))
    for a, b in sorted(needed):
        if sepsets.get(a, b) is None:
            sep = _posthoc_sepset(engine, screen, a, b, cfg)
            if sep is not None:
                sepsets.record(a, b, sep)

    oriented = orient_v_structures(with_background, sepsets, on_conflict=cfg.on_conflict)
    return apply_meek_rules(oriented, on_conflict=cfg.on_conflict)


def podag_multi_layer(engine, ordering, screen, cfg=None):
    """Searching loop plus orientation over screened candidates.

    ``ordering`` is any :class:`PartialOrdering`: two layers, many
    layers, unordered nodes, or a weak ordering given by per-node
    before/after overrides (pairs with no mutual order information are
    searched symmetrically and oriented only by v-structures and Meek
    closure).  With ``learn_within_layers`` unset only the between-layer
    candidates are searched and ``within`` stays empty.
    """
    cfg = cfg or PodagConfig()
    screen.validate(ordering)
    started = time.perf_counter()
    start_queries = engine.n_queries

    candidates = list(screen.cross_candidates())
    if cfg.learn_within_layers:
        candidates += screen.within_candidates()
    _set_phase(engine, "search")
    surviving, sepsets, removals = _searching_loop(engine, screen, candidates, cfg)

    cross_edges = frozenset(
        (k, j) for (k, j) in surviving if k in screen[j].cross
    )
    within_pairs = frozenset(
        (min(k, j), max(k, j)) for (k, j) in surviving if k in screen[j].cmb
    )

    n_nodes = screen.n_nodes
    labels = screen.labels
    if cfg.learn_within_layers:
        maximal = _orient(
            engine, screen, cross_edges, within_pairs, sepsets, cfg, n_nodes, labels
        )
        within = Pdag(
            n_nodes,
            directed_edges=[
                (u, v) for u, v in maximal.directed_edges if (u, v) not in cross_edges
            ],
            undirected_edges=maximal.undirected_edges,
            labels=labels,
        )
    else:
        within = Pdag(n_nodes, labels=labels)

    diagnostics = Diagnostics(
        ci_tests=engine.n_queries - start_queries,
        removals_per_level=removals,
        elapsed_ms=_elapsed_ms(started),
    )
    return PodagResult(
        n_nodes=n_nodes,
        labels=labels,
        cross_edges=cross_edges,
        within=within,
        sepsets=sepsets,
        screen=screen,
        diagnostics=diagnostics,
    )


def learn(source, ordering, cfg=None, engine=None):
    """End-to-end estimator: screen, search, orient.

    ``source`` is a :class:`Dataset` (sample mode) or a :class:`Dag`
    (population oracle mode); ``engine`` optionally overrides the search
    engine (e.g. a recording wrapper around an oracle), which in oracle
    mode also answers the screening queries.  Superset robustness is
    inherited from the searching loop: any screening output covering the
    true sets yields the same final graph under an oracle engine.

    Reported ``ci_tests`` cover the whole run: screening, searching, and
    orientation-phase queries; ``elapsed_ms`` covers the same stages.
    """
    started = time.perf_counter()
    cfg = cfg or PodagConfig()
    if isinstance(source, Dag):
        if cfg.backend != "pcor":
            raise ValueError("oracle inputs support only the pcor backend")
        if engine is None:
            engine = OracleEngine(source)
        screen_source = engine
    elif isinstance(source, Dataset):
        if engine is None:
            engine = GaussianEngine(source, alpha=cfg.alpha)
        screen_source = source
    else:
        raise TypeError("source must be a Dataset or a Dag")

    if cfg.learn_within_layers:
        targets = list(range(ordering.n_nodes))
    else:
        targets = [j for j in range(ordering.n_nodes) if ordering.before_set(j)]
    params = dict(cfg.backend_params)
    if cfg.backend == "pcor":
        params.setdefault("alpha", cfg.screen_alpha)

    _set_phase(engine, "screen")
    screen, screen_tests = screen_all(screen_source, ordering, cfg.backend, params, targets)
    screen.labels = source.labels  # an engine source carries no labels
    result = podag_multi_layer(engine, ordering, screen, cfg)
    diagnostics = replace(
        result.diagnostics,
        ci_tests=screen_tests + result.diagnostics.ci_tests,
        elapsed_ms=_elapsed_ms(started),
    )
    return replace(result, diagnostics=diagnostics)
