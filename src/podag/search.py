"""The level-wise skeleton search and the end-to-end PODAG estimator.

Candidates produced by screening are pruned by conditional-independence
tests over subsets of each target's conditional Markov blanket, then
oriented: edges with known order direction point forward, the rest get
v-structure detection plus Meek closure, yielding a maximal PDAG.

The pruning is PC's skeleton loop with another pool of candidate
separators, and the orientation is PC's, so one private driver and one
orientation stage run them for PODAG here and for PC and PC+ in
:mod:`podag.baselines`.  :func:`podag_multi_layer` is the one
search entry point for every kind of partial ordering; :func:`learn` is
one :func:`screen_all` call followed by it.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import time
from dataclasses import dataclass, field, replace

from .errors import PodagError
from .graph import Dag, Pdag, SepsetMap, apply_meek_rules, write_edgelist
from .graph import _orient_triples, _unshielded_triples
from .screening import BACKENDS, ScreenSets, _backend_screen, screen_all
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
    deliberately liberal screening significance, at which pcor's drops
    also become orientation separators (see
    :func:`podag.screening.screen_pcor`).  ``max_sepset_size`` caps the
    size of conditioning subsets drawn from the conditional Markov
    blanket (None leaves the enumeration unbounded).  ``stable``
    batches removals per level instead of applying them immediately
    (a pair found separable is not tested again from its mirror
    direction in that level); under an oracle the two modes coincide
    (separators never depend on removable members), on noisy data they
    may differ the way order-dependent and stable PC do.
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
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if "alpha" in self.backend_params:
            raise ValueError("set the screening significance with screen_alpha, not backend_params")
        accepted = list(inspect.signature(_backend_screen(self.backend)).parameters)[3:]
        for key in self.backend_params:  # keywords after (source, ordering, j)
            if key not in accepted:
                raise ValueError(f"backend {self.backend!r} takes no parameter {key!r}")

    def screen_params(self):
        """Keyword arguments of the backend's per-node screen (pcor screens at ``screen_alpha``)."""
        if self.backend == "pcor":
            return dict(self.backend_params, alpha=self.screen_alpha)
        return dict(self.backend_params)


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

    @property
    def pdag(self):
        """:meth:`as_pdag`, named as on a baseline's result."""
        return self.as_pdag()

    @property
    def ci_tests(self):
        """``diagnostics.ci_tests``, named as on a baseline's result."""
        return self.diagnostics.ci_tests

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
            "sepsets": self.sepsets._by_label(self.labels),
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


WINDOW = 512  # unions the skeleton search speculates in one engine call
STACK_SIZE = 256  # subsets of one test speculated at a time


def _elapsed_ms(started):
    return int(round((time.perf_counter() - started) * 1000))


def _set_phase(engine, phase):
    if hasattr(engine, "phase"):
        engine.phase = phase


def _later_separator(engine, a, b, base, pool, level, start):
    """The first ``level``-subset ``T`` of the sorted ``pool``, from position ``start`` on, that separates.

    ``base | T`` separates ``a`` and ``b``; None when no such ``T``
    exists.  The subsets are enumerated and speculated ``STACK_SIZE`` at
    a time as the walk reaches them.
    """
    if math.comb(len(pool), level) > start:
        rest = itertools.islice(itertools.combinations(pool, level), start, None)
        while head := list(itertools.islice(rest, STACK_SIZE)):
            k = engine._query_first(a, b, base, head)
            if k is not None:
                return head[k]
    return None


def _restricted(head, stops, pool):
    """``head`` and its ``stops`` restricted to the subsets inside ``pool``: the head over that pool."""
    kept = {k: n for n, k in enumerate(k for k, t in enumerate(head) if pool.issuperset(t))}
    return [head[k] for k in kept], [(kept[k], known) for k, known in stops if k in kept]


def _search_levels(engine, tests, cond, pool, neighbours, max_level=None, stable=False, sepsets=None):
    """Level-wise skeleton search shared by PODAG, PC and PC+.

    ``tests`` is an ordered list of directed tests ``(a, b)``.
    ``cond(b)`` returns the target's conditioning set, and ``pool(a,
    b)`` a pool drawn from ``b``'s current set in ``neighbours`` (PC's
    adjacencies, PODAG's blankets).  At level ``l`` a test asks whether
    ``(cond(b) - {a}) | T`` separates ``a`` from ``b`` for each
    ``l``-subset ``T`` of ``pool(a, b) - {a}``, in
    lexicographic order of the sorted pool.  The first separator found
    for either direction removes the pair: it is recorded, the mirror
    direction is not tested again, and each endpoint leaves the other's
    neighbour set where it has one.  By default that last step is
    immediate (order-dependent PC); ``stable`` defers it to the end of
    the level, so every test of a level sees the same pools
    (order-independent PC, Colombo & Maathuis 2014).  The search ends
    after a level that runs no test, or after ``max_level``.  With
    ``neighbours={}`` no pool shrinks, so each test asks the separators
    it would ask alone, in the same order: the post-hoc search
    (:func:`_posthoc_search`) asks many unrelated pairs in one call.

    A level-0 test asks ``cond(b) - {a}`` alone, which no removal
    changes, so level 0 is decided one target at a time, in increasing
    ``b``: the target's live tests, in their order in ``tests``, are one
    :meth:`CiEngine._query_block`.  So the direction of a pair with the
    lower target is asked first, and a pair it removes is not asked
    again.  A target's removals are recorded together, with no object
    per verdict: the block's verdicts come as one boolean array, each
    separator is stored as the shared ``cond(b)`` plus the removed
    source (built as a set only when read, see :class:`SepsetMap`), and
    the neighbour sets lose the removed sources in one set difference
    (at the end of the level under ``stable``).  Levels 1 and up keep
    the order of ``tests``, on which order-dependent PC's output
    depends.  Their tests are decided a window at a time, with the
    queries of one test at a time.  A window gathers live tests until
    their first subsets (at most ``STACK_SIZE`` each) reach ``WINDOW``
    unions; one
    :meth:`CiEngine.speculate` call looks ahead over all of them, and
    each is then walked in order with :meth:`CiEngine._query_first`,
    the subsets past the first ones speculated as the walk reaches them
    (:func:`_later_separator`).  When a removal in the window shrinks a
    later test's pool, that test's subsets and stops are restricted to
    the new pool.

    Returns the :class:`SepsetMap` of removed pairs (``sepsets``, when
    given, with the removed pairs added), the number of removals per
    level (levels without removals are left out) and the tests of the
    pairs never removed, in their order in ``tests``.
    """
    sepsets = SepsetMap() if sepsets is None else sepsets
    removed = set()
    removals = {}
    shrunk = set()  # targets whose neighbour set may have lost a member during the current window

    def drop(b, sources):
        """Take the pairs ``(a, b)``, ``a`` in ``sources``, out of the neighbour sets."""
        if b in neighbours:
            neighbours[b].difference_update(sources)
        for a in sources:
            if a in neighbours:
                neighbours[a].discard(b)

    def remove(pair, a, b, sep):
        sepsets.record(a, b, sep)
        removed.add(pair)
        found.append((b, (a,)))
        if not stable:
            drop(b, (a,))
            shrunk.update(pair)

    def level_zero():
        """Decide level 0 a target at a time, each target's live tests as one block; whether any ran.

        The separators of a block's independent sources are recorded as
        its shared ``cond`` plus the excluded source.  A block that
        raises is asked again one test at a time, so that the error
        names the candidate that raised it.
        """
        sources_of = {}
        for a, b in tests:
            sources_of.setdefault(b, []).append(a)
        for b in sorted(sources_of):
            # a pair with a lower target was asked in that target's block
            sources = [a for a in sources_of[b] if a > b or (a, b) not in removed]
            if not sources:
                continue
            given = cond(b)
            try:
                independent = engine._query_block(b, sources, given)[0]
            except PodagError:
                independent = [engine._query_first(a, b, given - {a}, [()], [(0, False)]) is not None for a in sources]
            gone = list(itertools.compress(sources, independent))
            if gone:
                pairs = [(a, b) if a < b else (b, a) for a in gone]
                sepsets._record_excluding(pairs, given, gone)
                removed.update(pairs)
                found.append((b, gone))
                if not stable:
                    drop(b, gone)
        return bool(tests)

    def gather():
        """The live tests of the level in order, as ``(pair, a, b, base, pool, head)``."""
        for pair, a, b in live:
            if pair not in removed:
                members = sorted(pool(a, b) - {a})
                if len(members) >= level:
                    head = list(itertools.islice(itertools.combinations(members, level), STACK_SIZE))
                    yield pair, a, b, cond(b) - {a}, members, head

    def walk(window):
        """Speculate a window of tests in one call, then decide them in order; whether any ran."""
        stops = engine.speculate([(a, b, base, head) for _, a, b, base, _, head in window]) if window else []
        shrunk.clear()
        ran = False
        for (pair, a, b, base, members, head), stop in zip(window, stops):
            if pair in removed:
                continue
            if b in shrunk:
                now = pool(a, b) - {a}
                if len(now) < level:
                    continue
                if len(now) < len(members):  # pools only shrink
                    members, (head, stop) = sorted(now), _restricted(head, stop, now)
            ran = True
            k = engine._query_first(a, b, base, head, stop)
            t = head[k] if k is not None else _later_separator(engine, a, b, base, members, level, len(head))
            if t is not None:
                remove(pair, a, b, base.union(t))
        window.clear()
        return ran

    level = 0
    while max_level is None or level <= max_level:
        found = []  # (b, sources): the pairs (a, b) removed at this level
        if level == 0:
            tested = level_zero()
            live = [(pair, a, b) for a, b in tests if (pair := (a, b) if a < b else (b, a)) not in removed]
        else:
            live = [test for test in live if test[0] not in removed]
            tested = False
            window, unions = [], 0
            for item in gather():
                window.append(item)
                unions += len(item[-1])
                if unions >= WINDOW:
                    tested |= walk(window)
                    unions = 0
            tested |= walk(window)
        if not tested:
            break
        if stable:
            for b, sources in found:
                drop(b, sources)
        if found:
            removals[level] = sum(len(sources) for _, sources in found)
        level += 1
    return sepsets, removals, [(a, b) for pair, a, b in live if pair not in removed]


def _posthoc_search(engine, pairs, screen, sepsets, max_level):
    """Record in ``sepsets`` a separator for each of ``pairs`` ``(a, b)`` that a search finds.

    The fallback for the pairs that neither the search nor screening
    separated, whose entries carry no screening verdicts (sis, lasso,
    entries read from JSON or inflated).  A pair tries each side's
    restricted family, target ``b`` first: subsets of the target's cmb
    on top of its cross set, for the targets in ``screen``.  One
    :func:`_search_levels` call tests the pairs still open from ``b``'s
    side, and one more those still open from ``a``'s.  A pair found by
    neither keeps no separator, and its triples stay unoriented.
    """
    for side in (1, 0):  # the target is b = pair[1], then a = pair[0]
        tests = [(pair[1 - side], pair[side]) for pair in pairs if pair[side] in screen and pair not in sepsets]
        if tests:
            cross, cmb = (lambda t: screen[t].cross), (lambda o, t: screen[t].cmb)
            _search_levels(engine, tests, cross, cmb, {}, max_level, sepsets=sepsets)


def _orient(pdag, sepsets, on_conflict, separate=None):
    """V-structures and Meek closure: the orientation stage of PODAG, PC and PC+.

    ``pdag`` already carries the ordering's orientations.  The sorted
    unshielded pairs without a recorded separator go to
    ``separate(pairs)`` (when given) in one call, which records in
    ``sepsets`` the separators it finds.  One valid
    separator suffices: the middle node of an unshielded triple lies in
    every separator of its endpoints or in none (Spirtes, Glymour &
    Scheines 2000).
    """
    # the ordering's orientations are in pdag from the start (the ordering
    # is ground truth), but Meek's rules run only after v-structure
    # detection: closing the rules early would let R1 orient edges that
    # are really colliders.
    triples = _unshielded_triples(pdag)
    if separate is not None:
        separate([pair for pair in sorted({(i, k) for i, _, k in triples}) if pair not in sepsets])
    oriented = _orient_triples(pdag, sepsets, triples, on_conflict)
    return apply_meek_rules(oriented, on_conflict=on_conflict)


def _candidates(cross, cmb, within):
    """The search's tests ``(k, j)``, ordered by target ``j``, then source ``k``.

    ``cross`` and ``cmb`` map each screened target, in ascending order,
    to its cross set and its cmb.  Target ``j`` tests its cross set and,
    with ``within``, its cmb and every target whose cmb holds ``j``: the
    union of :meth:`ScreenSets.cross_candidates` and
    :meth:`ScreenSets.within_candidates`, grouped by target.
    """
    sources = {j: set(c) for j, c in cross.items()}
    if within:
        for j, members in cmb.items():
            sources[j].update(members)
            for k in members:
                if k in sources:
                    sources[k].add(j)
    return [(k, j) for j, ks in sources.items() for k in sorted(ks)]


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

    cross = {j: screen[j].cross for j in screen.nodes()}
    blanket = {j: set(screen[j].cmb) for j in screen.nodes()}
    candidates = _candidates(cross, blanket, cfg.learn_within_layers)
    # a removed pair leaves both blankets: separating sets only ever need
    # true neighbours, which are never removed, so shrinking the pool is
    # sound and skips subsets of members already ruled out
    _set_phase(engine, "search")
    sepsets, removals, surviving = _search_levels(
        engine,
        candidates,
        lambda j: cross[j],
        lambda k, j: blanket[j],
        blanket,
        cfg.max_sepset_size,
        cfg.stable,
    )

    cross_edges = frozenset((k, j) for (k, j) in surviving if k in cross[j])
    # a surviving pair never left the blankets
    within_pairs = frozenset((k, j) if k < j else (j, k) for (k, j) in surviving if k in blanket[j])

    n_nodes = screen.n_nodes
    labels = screen.labels
    if cfg.learn_within_layers:

        def separate(pairs):
            # b's screening verdict on a, then a's on b, then a search for the rest
            for a, b in pairs:
                for t, o in ((b, a), (a, b)):
                    pool = screen[t]._verdict_pool(o) if t in screen else None
                    if pool is not None:
                        sepsets._record_excluding([(a, b)], pool, [o])
                        break
            _posthoc_search(engine, pairs, screen, sepsets, cfg.max_sepset_size)

        with_background = Pdag(
            n_nodes, directed_edges=cross_edges, undirected_edges=within_pairs, labels=labels
        )
        _set_phase(engine, "orient")
        maximal = _orient(with_background, sepsets, cfg.on_conflict, separate)
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
        # screening and the search read one checked covariance
        screen_source = getattr(engine, "cov", source)
    else:
        raise TypeError("source must be a Dataset or a Dag")

    if cfg.learn_within_layers:
        targets = list(range(ordering.n_nodes))
    else:
        targets = [j for j in range(ordering.n_nodes) if ordering.before_set(j)]
    _set_phase(engine, "screen")
    screen, screen_tests = screen_all(screen_source, ordering, cfg.backend, cfg.screen_params(), targets)
    screen.labels = source.labels  # an engine source carries no labels
    result = podag_multi_layer(engine, ordering, screen, cfg)
    diagnostics = replace(
        result.diagnostics,
        ci_tests=screen_tests + result.diagnostics.ci_tests,
        elapsed_ms=_elapsed_ms(started),
    )
    return replace(result, diagnostics=diagnostics)
