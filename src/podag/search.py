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
from .graph import Dag, Pdag, SepsetMap, write_edgelist
from .graph import _close_meek, _orient_triples, _OrientationState, _separators, _unshielded_pairs
from .screening import _RULES, BACKENDS, ScreenSets, screen_all
from .stats import Dataset, GaussianEngine, OracleEngine, _check_node_count

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
    :func:`podag.screening.screen_all`).  ``max_sepset_size`` caps the
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
        accepted = list(inspect.signature(_RULES[self.backend]).parameters)[3:]
        for key in self.backend_params:  # keywords after (source, ordering, targets)
            if key not in accepted:
                raise ValueError(f"backend {self.backend!r} takes no parameter {key!r}")

    def screen_params(self):
        """Keyword arguments of the backend's screening rule (pcor screens at ``screen_alpha``)."""
        if self.backend == "pcor":
            return dict(self.backend_params, alpha=self.screen_alpha)
        return dict(self.backend_params)


STAGES = ("screen", "search", "orient")  # a fit's stages, in the order it runs them


@dataclass(frozen=True)
class Diagnostics:
    """What a fit did: its queries per stage, its removals per search level and its time.

    ``queries_per_stage`` maps each of :data:`STAGES` to the CI-test
    queries the fit counted there, ``ci_tests`` in all.  PC, PC+, h0
    and h-minus-j count every query as ``search``.  Fits that differ
    only in ``elapsed_ms`` compare equal.
    """

    queries_per_stage: dict
    removals_per_level: dict
    elapsed_ms: int = field(compare=False)

    @property
    def ci_tests(self):
        """The queries of every stage."""
        return sum(self.queries_per_stage.values())

    def stage_records(self, records):
        """``{stage: its queries}``, cut from ``records``, a recorded query list that ends with this fit's.

        Counted from the end, since sample-mode screening asks no engine:
        there the ``screen`` entry holds what precedes the fit's search,
        at most its count of records.
        """
        stages, end = {}, len(records)
        for stage in reversed(STAGES):
            start = max(end - self.queries_per_stage[stage], 0)
            stages[stage], end = records[start:end], start
        return {stage: stages[stage] for stage in STAGES}


@dataclass(frozen=True)
class _FitResult:
    """What every estimator returns: the one estimated graph, its separating sets and the fit's diagnostics."""

    pdag: Pdag
    sepsets: SepsetMap
    diagnostics: Diagnostics

    @property
    def ci_tests(self):
        """``diagnostics.ci_tests``."""
        return self.diagnostics.ci_tests

    def to_edgelist(self):
        return write_edgelist(self.pdag.directed_edges, self.pdag.labels, self.pdag.undirected_edges)

    def _dumps(self, doc):
        """``doc`` and the labelled sepsets as the result's JSON text."""
        doc["sepsets"] = self.sepsets._by_label(self.pdag.labels)
        return json.dumps(doc, indent=2, sort_keys=True)

    def _labelled(self, edges):
        labels = self.pdag.labels
        return [[labels[u], labels[v]] for u, v in sorted(edges)]


@dataclass(frozen=True)
class PodagResult(_FitResult):
    """Output of a PODAG run.

    ``pdag`` is the one estimated graph.  ``cross_edges`` are its
    directed edges whose direction is implied by the ordering
    information; :attr:`within` holds the remaining learned adjacencies
    (between unordered peers) as a maximal PDAG.
    """

    cross_edges: frozenset
    screen: ScreenSets

    @property
    def within(self):
        """The graph without its cross edges."""
        pdag = self.pdag
        return Pdag(pdag.n_nodes, pdag.directed_edges - self.cross_edges, pdag.undirected_edges, pdag.labels)

    def as_pdag(self):
        """Everything in one partially directed graph: ``pdag``."""
        return self.pdag

    def to_json(self):
        removals = self.diagnostics.removals_per_level
        return self._dumps(
            {
                "cross_edges": self._labelled(self.cross_edges),
                "within_directed": self._labelled(self.pdag.directed_edges - self.cross_edges),
                "within_undirected": self._labelled(self.pdag.undirected_edges),
                "diagnostics": {
                    "ci_tests": self.ci_tests,
                    "elapsed_ms": self.diagnostics.elapsed_ms,
                    "removals_per_level": {str(k): v for k, v in sorted(removals.items())},
                },
            }
        )


WINDOW = 512  # unions the skeleton search speculates in one engine call
STACK_SIZE = 256  # subsets of one test speculated at a time


def _elapsed_ms(started):
    return int(round((time.perf_counter() - started) * 1000))


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

    ``tests`` holds the directed tests ``(a, b)`` in order, as two int
    lists ``(sources, targets)``.
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
    again.  Before any is asked, one :meth:`CiEngine._read_blocks` call
    reads every target's block with all of its tests, uncounted; a
    target's block keeps the reads of its live tests, and only the tests
    left unread are single queries.  Level 0 builds no object per test:
    the block's verdicts come as one list of booleans, and a target's
    removals are one set of sources, which that filter and the later
    levels read, stored in ``sepsets`` as one group ``(cond(b), removed
    sources)`` (see :class:`SepsetMap`); the neighbour sets lose them in
    one set difference (at the end of the level under ``stable``).  Levels 1
    and up keep the order of ``tests``, on which order-dependent PC's
    output depends.  Their tests are decided a window at a time, with
    the queries of one test at a time.  A window gathers live tests
    until their first subsets (at most ``STACK_SIZE`` each) reach
    ``WINDOW`` unions; one
    :meth:`CiEngine.speculate` call looks ahead over all of them, and
    each is then walked in order with :meth:`CiEngine._query_first`,
    the subsets past the first ones speculated as the walk reaches them
    (:func:`_later_separator`).  When a removal in the window shrinks a
    later test's pool, that test's subsets and stops are restricted to
    the new pool.

    Returns the :class:`SepsetMap` of removed pairs (``sepsets``, when
    given, with the removed pairs added), the number of removals per
    level (levels without removals are left out) and the tests of the
    pairs never removed, in their order, as ``(sources, targets)``.
    """
    sources, targets = tests
    sepsets = SepsetMap() if sepsets is None else sepsets
    # b -> the sources a whose pair (a, b) was removed from b's side; frozen, as level 0's are sepsets' groups
    removed_at = {}
    removed_from = removed_at.get
    removals = {}
    shrunk = set()  # targets whose neighbour set may have lost a member during the current window

    def removed(a, b):
        return a in removed_from(b, ()) or b in removed_from(a, ())

    def drop(b, gone):
        """Take the pairs ``(a, b)``, ``a`` in ``gone``, out of the neighbour sets."""
        if b in neighbours:
            neighbours[b].difference_update(gone)
        for a in gone:
            if a in neighbours:
                neighbours[a].discard(b)

    def remove(a, b, sep):
        sepsets.record(a, b, sep)
        removed_at[b] = removed_from(b, frozenset()).union((a,))
        found.append((b, (a,)))
        if not stable:
            drop(b, (a,))
            shrunk.update((a, b))

    def level_zero():
        """Decide level 0 a target at a time, each target's live tests as one block; whether any ran.

        Every target's block is read first, in one engine call; a block
        that raises is asked again one test at a time, so that the error
        names the candidate that raised it.
        """
        sources_of = {}
        for a, b in zip(sources, targets):
            sources_of.setdefault(b, []).append(a)
        requests = [(b, sources_of[b], cond(b)) for b in sorted(sources_of)]
        for (b, block, given), got in zip(requests, engine._read_blocks(requests)):
            # a pair with a lower target was asked in that target's block
            live = [a > b or b not in removed_from(a, ()) for a in block]
            if not all(live):
                block = list(itertools.compress(block, live))
                if not block:
                    continue
                if got is not None:
                    got = tuple(list(itertools.compress(reads, live)) for reads in got)
            try:
                independent = engine._query_block(b, block, given, got)[0]
            except PodagError:
                independent = [engine._query_first(a, b, given - {a}, [()], [(0, False)]) is not None for a in block]
            gone = frozenset(itertools.compress(block, independent))
            if gone:
                removed_at[b] = gone
                sepsets._record_excluding(b, given, gone)
                found.append((b, gone))
                if not stable:
                    drop(b, gone)
        return bool(sources)

    def gather():
        """The live tests of the level in order, as ``(a, b, base, pool, head)``."""
        for a, b in zip(sources, targets):
            if not removed(a, b):
                members = pool(a, b)
                if len(members) - (a in members) >= level:  # a pool without a level-subset is not sorted
                    members = sorted(members - {a})
                    head = list(itertools.islice(itertools.combinations(members, level), STACK_SIZE))
                    yield a, b, cond(b) - {a}, members, head

    def walk(window):
        """Speculate a window of tests in one call, then decide them in order; whether any ran."""
        stops = engine.speculate([(a, b, base, head) for a, b, base, _, head in window]) if window else []
        shrunk.clear()
        ran = False
        for (a, b, base, members, head), stop in zip(window, stops):
            if removed(a, b):
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
                remove(a, b, base.union(t))
        window.clear()
        return ran

    level = 0
    while max_level is None or level <= max_level:
        found = []  # (b, sources): the pairs (a, b) removed at this level
        if level == 0:
            tested = level_zero()
        else:
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
            for b, gone in found:
                drop(b, gone)
        if found:
            removals[level] = sum(len(gone) for _, gone in found)
            live = [a not in removed_from(b, ()) and b not in removed_from(a, ()) for a, b in zip(sources, targets)]
            sources, targets = list(itertools.compress(sources, live)), list(itertools.compress(targets, live))
        level += 1
    return sepsets, removals, (sources, targets)


def _posthoc_search(engine, pairs, screen, sepsets, max_level):
    """Record in ``sepsets`` a separator for each of ``pairs`` ``(a, b)`` that a search finds.

    The fallback for the pairs that neither the search nor screening
    separated, whose entries carry no screening verdicts (sis, lasso,
    entries read from JSON or inflated); none of ``pairs`` has a
    separator yet.  A pair tries each side's restricted family, target
    ``b`` first: subsets of the target's cmb on top of its cross set,
    for the targets in ``screen``.  One :func:`_search_levels` call tests
    the pairs from ``b``'s side, and one more those it left open from
    ``a``'s.  A pair found by neither keeps no separator, and its triples
    stay unoriented.
    """
    cross, cmb = (lambda t: screen[t].cross), (lambda o, t: screen[t].cmb)
    for side in (1, 0):  # the target is b = pair[1], then a = pair[0]
        tests = [pair for pair in pairs if pair[side] in screen]
        if tests:
            ends = [pair[1 - side] for pair in tests], [pair[side] for pair in tests]
            _, _, (sources, targets) = _search_levels(engine, ends, cross, cmb, {}, max_level, sepsets=sepsets)
            separated = set(tests).difference(zip(sources, targets) if side else zip(targets, sources))
            pairs = [pair for pair in pairs if pair not in separated]


def _orient(state, sepsets, on_conflict, separate=None):
    """V-structures and Meek closure on ``state``, in place: the orientation stage of PODAG, PC and PC+.

    ``state``, an :class:`_OrientationState`, already carries the
    ordering's orientations.  Each unshielded pair's separator is read
    from ``sepsets`` once; the sorted pairs without one go to
    ``separate(pairs)`` (when given) in one call, which records in
    ``sepsets`` the separators it finds, and only those are read again.
    One valid separator suffices: the middle node of an unshielded
    triple lies in every separator of its endpoints or in none (Spirtes,
    Glymour & Scheines 2000).  Returns the fit's one :class:`Pdag`.
    """
    # the ordering's orientations are in the state from the start (the
    # ordering is ground truth), but Meek's rules run only after
    # v-structure detection: closing the rules early would let R1 orient
    # edges that are really colliders.
    neighbours, pairs = _unshielded_pairs(state)
    found = _separators(sepsets, pairs, state.n_nodes)
    if separate is not None:
        open_pairs = [pair for pair in pairs if found[pair] is None]
        separate([divmod(pair, state.n_nodes) for pair in open_pairs])
        found.update(_separators(sepsets, open_pairs, state.n_nodes))
    _orient_triples(state, neighbours, found, on_conflict)
    _close_meek(state, on_conflict)
    return state.to_pdag()


def _candidates(cross, cmb, within):
    """The search's tests ``(k, j)`` as ``(sources, targets)`` lists, ordered by target ``j``, then source ``k``.

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
    return [k for ks in sources.values() for k in sorted(ks)], [j for j, ks in sources.items() for _ in ks]


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
    sepsets, removals, surviving = _search_levels(
        engine,
        candidates,
        lambda j: cross[j],
        lambda k, j: blanket[j],
        blanket,
        cfg.max_sepset_size,
        cfg.stable,
    )
    searched = engine.n_queries

    cross_edges = frozenset((k, j) for k, j in zip(*surviving) if k in cross[j])
    if cfg.learn_within_layers:

        def separate(pairs):
            # b's screening verdict on a, then a's on b, then a search for the rest
            verdicts, rest = {}, []  # (target, pool) -> the sources its verdicts separate
            for a, b in pairs:
                for t, o in ((b, a), (a, b)):
                    pool = screen[t]._verdict_pool(o) if t in screen else None
                    if pool is not None:
                        verdicts.setdefault((t, pool), set()).add(o)
                        break
                else:
                    rest.append((a, b))
            for (t, pool), excluded in verdicts.items():
                sepsets._record_excluding(t, pool, excluded)
            _posthoc_search(engine, rest, screen, sepsets, cfg.max_sepset_size)

        # a surviving pair never left the blankets; the ordering keeps it off the cross sets
        within_pairs = {(k, j) if k < j else (j, k) for k, j in zip(*surviving) if k in blanket[j]}
        state = _OrientationState(screen.n_nodes, cross_edges, within_pairs, screen.labels)
        pdag = _orient(state, sepsets, cfg.on_conflict, separate)
    else:
        pdag = Pdag(screen.n_nodes, cross_edges, labels=screen.labels)

    queries = {"screen": 0, "search": searched - start_queries, "orient": engine.n_queries - searched}
    diagnostics = Diagnostics(queries, removals, _elapsed_ms(started))
    return PodagResult(pdag, sepsets, diagnostics, cross_edges, screen)


def learn(source, ordering, cfg=None, engine=None):
    """End-to-end estimator: screen, search, orient.

    ``source`` is a :class:`Dataset` (sample mode) or a :class:`Dag`
    (population oracle mode); ``engine`` optionally overrides the search
    engine (e.g. a recording wrapper around an oracle), which in oracle
    mode also answers the screening queries (pcor only: :func:`screen_all`
    rejects the other backends on an engine).  Superset robustness is
    inherited from the searching loop: any screening output covering the
    true sets yields the same final graph under an oracle engine.

    The diagnostics count the queries of each stage, screening's
    included, in ``queries_per_stage``; ``elapsed_ms`` covers the same
    stages.
    """
    started = time.perf_counter()
    cfg = cfg or PodagConfig()
    if not isinstance(source, (Dag, Dataset)):
        raise TypeError("source must be a Dataset or a Dag")
    _check_node_count(ordering.n_nodes, source)
    if isinstance(source, Dag):
        if engine is None:
            engine = OracleEngine(source)
        screen_source = engine
    else:
        if engine is None:
            engine = GaussianEngine(source, alpha=cfg.alpha)
        # screening and the search read one checked covariance
        screen_source = getattr(engine, "cov", source)

    if cfg.learn_within_layers:
        targets = list(range(ordering.n_nodes))
    else:
        targets = [j for j in range(ordering.n_nodes) if ordering.before_set(j)]
    screen, screen_tests = screen_all(screen_source, ordering, cfg.backend, cfg.screen_params(), targets)
    screen.labels = source.labels  # an engine source carries no labels
    result = podag_multi_layer(engine, ordering, screen, cfg)
    queries = dict(result.diagnostics.queries_per_stage, screen=screen_tests)
    diagnostics = replace(result.diagnostics, queries_per_stage=queries, elapsed_ms=_elapsed_ms(started))
    return replace(result, diagnostics=diagnostics)
