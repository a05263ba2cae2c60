import hashlib
import itertools
import json
import operator
import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import podag.search
from podag import (
    Dag,
    Dataset,
    GenConfig,
    OracleEngine,
    PartialOrdering,
    PodagConfig,
    RecordingEngine,
    estimate_h0,
    estimate_h_minus_j,
    generate_layered_dag,
    learn,
    pc,
    pc_plus,
    podag_multi_layer,
    random_weights,
    screen_all,
)
from podag.errors import InsufficientDataError, PodagError, SingularityError
from podag.graph import SepsetMap
from podag.screening import BACKENDS, ScreenEntry, ScreenSets
from podag.sem import rng_from_seed, sample, toy_two_layer_sem
from podag.stats import CiEngine, CiVerdict, GaussianEngine, sample_covariance

from helpers import (
    counting_factorizations,
    enumeration_maximal_pdag,
    inflate_screen_sets,
    oracle_maximal_pdag,
    random_layered_instance,
)


def oracle_screen(dag, ordering, targets=None):
    screen, _ = screen_all(OracleEngine(dag), ordering, backend="pcor", targets=targets)
    return ScreenSets(
        [screen[j] for j in screen.nodes()], n_nodes=dag.n_nodes, labels=dag.labels
    )


def mediated_witness():
    dag = Dag(4, [(0, 1), (1, 2), (0, 3), (2, 3)], labels=("X", "Yp", "Y", "Ypp"))
    ordering = PartialOrdering([{0}, {1, 2, 3}], n_nodes=4)
    return dag, ordering


class TestTwoLayerSearch:
    def test_toy_exact_recovery(self):
        sem, ordering = toy_two_layer_sem()
        engine = OracleEngine(sem.dag)
        screen = oracle_screen(sem.dag, ordering, targets=[2, 3])
        res = podag_multi_layer(engine, ordering, screen, PodagConfig())
        assert res.cross_edges == {(0, 2), (1, 3)}
        assert res.within.directed_edges == frozenset()
        assert res.within.undirected_edges == frozenset()

    def test_empty_candidates_zero_queries(self):
        entries = [ScreenEntry(2, set(), set()), ScreenEntry(3, set(), set())]
        screen = ScreenSets(entries, n_nodes=4)
        engine = OracleEngine(Dag(4, []))
        ordering = PartialOrdering([{0, 1}, {2, 3}], n_nodes=4)
        res = podag_multi_layer(engine, ordering, screen, PodagConfig())
        assert res.cross_edges == frozenset()
        assert res.diagnostics.ci_tests == 0

    def test_witness_edge_removed_at_level_one(self):
        dag, ordering = mediated_witness()
        engine = OracleEngine(dag)
        screen = oracle_screen(dag, ordering, targets=[1, 2, 3])
        assert 0 in screen[2].cross  # the spurious candidate enters the loop
        res = podag_multi_layer(engine, ordering, screen, PodagConfig())
        assert res.cross_edges == dag.cross_edges(ordering)
        sep = res.sepsets.get(0, 2)
        assert sep is not None
        assert 1 in sep  # the mediator separates
        assert 3 not in sep  # conditioning on the common child would reopen it
        assert res.diagnostics.removals_per_level.get(1, 0) >= 1

    def test_cap_blocks_deep_removals(self):
        dag, ordering = mediated_witness()
        engine = OracleEngine(dag)
        screen = oracle_screen(dag, ordering, targets=[1, 2, 3])
        res = podag_multi_layer(engine, ordering, screen, PodagConfig(max_sepset_size=0))
        assert (0, 2) in res.cross_edges  # needs |T| = 1, which the cap forbids

    def test_stable_mode_matches_sequential(self):
        rng = rng_from_seed(42)
        for _ in range(10):
            dag, ordering = random_layered_instance(rng, n_lo=4, n_hi=9)
            screen = oracle_screen(dag, ordering)
            a = podag_multi_layer(
                OracleEngine(dag), ordering, screen, PodagConfig(learn_within_layers=True)
            )
            b = podag_multi_layer(
                OracleEngine(dag),
                ordering,
                screen,
                PodagConfig(learn_within_layers=True, stable=True),
            )
            assert a.as_pdag() == b.as_pdag()


def sixteen_node_data(seed):
    """A 16-node, 3-layer simulated dataset (n = 300) and its ordering."""
    rng = rng_from_seed(seed)
    dag, ordering = generate_layered_dag(
        GenConfig(n_nodes=16, expected_edges_per_node=2.0, layers=3), rng
    )
    return sample(random_weights(dag, rng), 300, rng), ordering


def query_digest(recorder, result=None):
    """Short hash of a recorder's query sequence, each query tagged with its stage in ``result``'s fit.

    Without a result (a fit that raised) the queries go untagged.
    """
    stages = result.diagnostics.stage_records(recorder.records) if result else {"": recorder.records}
    text = "\n".join(f"{i} {j} {sorted(s)} {stage}" for stage, records in stages.items() for i, j, s in records)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class KnowsNothing(GaussianEngine):
    """A Gaussian engine that speculates nothing: every separator is asked as a single query."""

    speculate = CiEngine.speculate


class FailingEngine(CiEngine):
    def _decide(self, i, j, s):
        raise SingularityError(context=(i, j, tuple(sorted(s))))


class TestSkeletonDriver:
    """PODAG, PC and PC+ run one level-wise search driver."""

    # recorded from the separate PODAG and PC loops the driver replaced,
    # the learn entries again once orientation read the screening
    # verdicts, the PC and PC+ entries again once their level 0 was asked
    # target by target (equal counts and record multisets):
    # (ci_tests, digest of the recorded query sequence); numpy 2.4, x86-64
    PINNED = {
        (5, "pc", False): (395, "29c01f1d2f68aba8"),
        (5, "pc", True): (476, "6ef36840ad6261a9"),
        (5, "pc_plus", False): (412, "313271b08bf48aae"),
        (5, "pc_plus", True): (469, "f308538d08f5f0a9"),
        (5, "learn", False): (292, "acca25e740e63044"),
        (6, "pc", False): (216, "a249fbe6bfd9fa15"),
        (6, "pc", True): (232, "b21fb38132d73d27"),
        (6, "pc_plus", False): (204, "b3a1b731ce2d3215"),
        (6, "pc_plus", True): (214, "6377a92e0c878121"),
        (6, "learn", False): (267, "687ecb09eb14a1fc"),
    }

    @pytest.mark.parametrize("seed, algorithm, stable", sorted(PINNED))
    def test_query_sequence_pinned(self, seed, algorithm, stable):
        data, ordering = sixteen_node_data(seed)
        recorder = RecordingEngine(GaussianEngine(data, alpha=0.05))
        if algorithm == "pc":
            res = pc(recorder, data.m, stable=stable, on_conflict="ignore")
        elif algorithm == "pc_plus":
            res = pc_plus(recorder, ordering, stable=stable, on_conflict="ignore")
        else:
            cfg = PodagConfig(learn_within_layers=True, on_conflict="ignore", stable=stable)
            res = learn(data, ordering, cfg, engine=recorder)
        assert (res.ci_tests, query_digest(recorder, res)) == self.PINNED[seed, algorithm, stable]

    def test_stable_mode_skips_the_mirror_of_a_found_pair(self):
        # 0 -> 2 <- 1 with no ordering: the spouses 0 and 1 screen each
        # other in, and the pair is tested from both sides; the first side
        # separates it at level 0, so the mirror test of that level is
        # skipped although the removal waits for the end of the level
        dag = Dag(3, [(0, 2), (1, 2)])
        ordering = PartialOrdering([], n_nodes=3, unordered=range(3))
        for stable in (False, True):
            recorder = RecordingEngine(OracleEngine(dag))
            cfg = PodagConfig(learn_within_layers=True, stable=stable)
            res = learn(dag, ordering, cfg, engine=recorder)
            assert res.sepsets.get(0, 1) == frozenset()
            assert res.diagnostics.stage_records(recorder.records)["search"].count((0, 1, frozenset())) == 1, stable

    @pytest.mark.parametrize("algorithm", ["pc", "pc_plus"])
    def test_baseline_engine_errors_carry_candidate_context(self, algorithm):
        ordering = PartialOrdering([{0}, {1, 2}], n_nodes=3)
        with pytest.raises(SingularityError, match=r"\[candidate \(1, 0\), T=\(\)\]$"):
            if algorithm == "pc":
                pc(FailingEngine(), 3)
            else:
                pc_plus(FailingEngine(), ordering)

    def test_level_one_errors_carry_candidate_context(self):
        class FailingGivenAnything(OracleEngine):
            def _decide(self, i, j, s):
                if s:
                    raise SingularityError(context=(i, j, tuple(sorted(s))))
                return super()._decide(i, j, s)

        # the chain 0 -> 1 -> 2 keeps every pair at level 0
        engine = FailingGivenAnything(Dag(3, [(0, 1), (1, 2)]))
        with pytest.raises(SingularityError, match=r"\[candidate \(1, 0\), T=\(2,\)\]$"):
            pc(engine, 3)
        assert engine.n_queries == 6 + 1  # level 0, then the separator that raised, as one at a time

    def test_learn_engine_errors_carry_candidate_context(self):
        # 2 = 0 + 1 + noise: screening keeps cross(2) = {0, 1}, so the two
        # level-0 tests of target 2 go to the engine as one block
        x = rng_from_seed(3).normal(size=(200, 3))
        x[:, 2] += x[:, 0] + x[:, 1]
        ordering = PartialOrdering([{0, 1}, {2}], n_nodes=3)
        engine = FailingEngine()
        with pytest.raises(SingularityError, match=r"\[candidate \(0, 2\), T=\(\)\]$"):
            learn(Dataset(x), ordering, engine=engine)
        assert engine.n_queries == 3  # the block of two, then the first test again

    @pytest.mark.parametrize("algorithm", ["learn", "pc", "pc_plus"])
    def test_level_zero_blocks_replay_single_queries(self, monkeypatch, algorithm):
        # a fit of the benchmark's learn-p120 kind: p=120, L=5, n=1000
        rng = rng_from_seed(120)
        dag, ordering = generate_layered_dag(
            GenConfig(n_nodes=120, expected_edges_per_node=3.0, layers=5), rng
        )
        data = sample(random_weights(dag, rng), 1000, rng)
        cfg = PodagConfig(alpha=0.005, learn_within_layers=True, max_sepset_size=3, on_conflict="ignore")
        factorizations = counting_factorizations(monkeypatch, "_factor_spd")
        per_target = {}

        def charge(b, before):
            per_target[b] = per_target.get(b, 0) + len(factorizations) - before

        class BlockCounting(GaussianEngine):
            def _read_blocks(self, requests):
                got = []
                for request in requests:  # a block at a time, to charge each target its read
                    before = len(factorizations)
                    got += super()._read_blocks([request])
                    charge(request[0], before)
                return got

        class ChargingRecorder(RecordingEngine):
            def _query_block(self, b, sources, cond, got=None):
                before = len(factorizations)
                verdicts = super()._query_block(b, sources, cond, got)
                charge(b, before)  # the single queries of the sources the read left out
                return verdicts

        class SingleQueries(GaussianEngine):
            _read_blocks = CiEngine._read_blocks

        fits = []
        for engine_class, recorder_class in ((BlockCounting, ChargingRecorder), (SingleQueries, RecordingEngine)):
            recorder = recorder_class(engine_class(data, alpha=cfg.alpha))
            if algorithm == "learn":
                res = learn(data, ordering, cfg, engine=recorder)
                fit = (res.diagnostics.removals_per_level, res.diagnostics.ci_tests, res.as_pdag())
            else:
                estimator, target = (pc, data.m) if algorithm == "pc" else (pc_plus, ordering)
                res = estimator(recorder, target, max_level=cfg.max_sepset_size, on_conflict="ignore")
                fit = (res.ci_tests, res.pdag)
            fits.append((sorted(res.sepsets.items()), query_digest(recorder, res)) + fit)
        assert fits[0] == fits[1]
        assert len(per_target) > 100 and max(per_target.values()) <= 2

    @pytest.mark.parametrize("algorithm", ["pc", "pc_plus"])
    def test_baseline_level_zero_is_one_block_per_target(self, algorithm):
        data, ordering = sixteen_node_data(5)
        blocks = []
        windows = []

        class Blocks(GaussianEngine):
            def _query_block(self, b, sources, cond, got=None):
                verdicts = super()._query_block(b, sources, cond, got)
                blocks.append((b, sources, cond, [bool(independent) for independent in verdicts[0]]))
                return verdicts

            def speculate(self, requests):
                windows.extend(len(subsets[0]) for _, _, _, subsets in requests)
                return super().speculate(requests)

        engine = Blocks(data, alpha=0.05)
        if algorithm == "pc":
            res = pc(engine, data.m, on_conflict="ignore")
        else:
            res = pc_plus(engine, ordering, on_conflict="ignore")
        # every target in turn asks its pairs that no earlier target removed, as one block
        removed = set()
        asked = iter(blocks)
        for b in range(data.m):
            live = [a for a in range(data.m) if a != b and (min(a, b), max(a, b)) not in removed]
            if live:
                target, sources, cond, independent = next(asked)
                assert (target, sources, cond) == (b, live, frozenset())
                removed.update((min(a, b), max(a, b)) for a, ind in zip(live, independent) if ind)
        assert next(asked, None) is None
        assert removed == {pair for pair, sep in res.sepsets.items() if not sep}
        assert windows and min(windows) >= 1  # no level-0 test reaches the windows

    @pytest.mark.parametrize("algorithm", ["pc", "pc_plus", "pcor", "sis"])
    def test_stacked_separators_replay_single_queries(self, monkeypatch, algorithm):
        # data of the simulation grid's kind: p=50, L=5, n=500, sets up to 3
        rng = rng_from_seed(50)
        dag, ordering = generate_layered_dag(
            GenConfig(n_nodes=50, expected_edges_per_node=3.0, layers=5), rng
        )
        data = sample(random_weights(dag, rng), 500, rng)
        stacked = []
        kernel = GaussianEngine._stacked_verdicts
        monkeypatch.setattr(
            GaussianEngine, "_stacked_verdicts", lambda *args: stacked.append(args) or kernel(*args)
        )

        fits = []
        for engine_class in (GaussianEngine, KnowsNothing):
            recorder = RecordingEngine(engine_class(data, alpha=0.05))
            if algorithm == "pc":
                res = pc(recorder, data.m, max_level=3, on_conflict="ignore")
                pdag, ci_tests = res.pdag, res.ci_tests
            elif algorithm == "pc_plus":
                res = pc_plus(recorder, ordering, max_level=3, on_conflict="ignore")
                pdag, ci_tests = res.pdag, res.ci_tests
            else:
                cfg = PodagConfig(
                    backend=algorithm, max_sepset_size=3, learn_within_layers=True, on_conflict="ignore"
                )
                res = learn(data, ordering, cfg, engine=recorder)
                pdag, ci_tests = res.as_pdag(), res.diagnostics.ci_tests
            fits.append(
                (
                    pdag.directed_edges,
                    pdag.undirected_edges,
                    sorted(res.sepsets.items()),
                    ci_tests,
                    query_digest(recorder, res),
                )
            )
            if engine_class is GaussianEngine:
                assert len(stacked) > 10  # the stacked kernel answered
                stacked.clear()
        assert fits[0] == fits[1]
        assert stacked == []


class LateSeparator(CiEngine):
    """Nodes 0 and 1 are separated by ``sep`` alone (never when None); every other query is dependent."""

    def __init__(self, sep):
        super().__init__(42)
        self.sep = sep

    def _decide(self, i, j, s):
        return CiVerdict(independent=(i, j, s) == (0, 1, self.sep), statistic=0.0)


class TestLaterSeparators:
    """A test whose separator lies past its first ``STACK_SIZE`` subsets walks on to it, a stack at a time."""

    POOL = sorted(range(2, 42))  # 780 subsets of size 2: three stacks of at most 256

    def search(self, sep):
        recorder = RecordingEngine(LateSeparator(sep))
        sepsets, removals, surviving = podag.search._search_levels(
            recorder, ([0], [1]), lambda b: frozenset(), lambda a, b: set(self.POOL), {}, max_level=2
        )
        return sepsets.get(0, 1), removals, surviving, recorder.records

    @pytest.mark.parametrize("sep", [(13, 14), (40, 41), None])
    def test_the_walk_equals_one_stack_of_every_subset(self, monkeypatch, sep):
        pairs = list(itertools.combinations(self.POOL, 2))
        sep = None if sep is None else frozenset(sep)
        starts = []
        later = podag.search._later_separator
        monkeypatch.setattr(podag.search, "_later_separator", lambda *args: starts.append(args[-1]) or later(*args))
        got = self.search(sep)
        assert starts == [len(self.POOL), podag.search.STACK_SIZE]  # no level's first stack separated
        asked = 1 + len(self.POOL) + (len(pairs) if sep is None else pairs.index(tuple(sorted(sep))) + 1)
        assert got[0] == sep and len(got[3]) == asked
        assert got[3][-1] == (0, 1, frozenset(pairs[asked - 2 - len(self.POOL)]))
        assert got[1] == ({} if sep is None else {2: 1})
        monkeypatch.setattr(podag.search, "STACK_SIZE", len(pairs))  # level 2 as one stack
        assert self.search(sep) == got


def near_singular_data(seed, nodes, n, noise):
    """Simulated layered data; with ``noise``, one column is the sum of two others plus that noise."""
    rng = rng_from_seed(seed)
    dag, ordering = generate_layered_dag(
        GenConfig(n_nodes=nodes, expected_edges_per_node=2.0, layers=3), rng
    )
    x = sample(random_weights(dag, rng), n, rng).data.copy()
    if noise is not None:
        a, b, c = rng.choice(nodes, size=3, replace=False)
        x[:, c] = x[:, a] + x[:, b] + noise * rng.normal(size=n)
    return Dataset(x), ordering


def recorded_fit(engine, algorithm, data, ordering, stable=False):
    """Edges, sepsets, ci_tests and query digest of one fit, or its error with the count at the raise."""
    recorder = RecordingEngine(engine)
    try:
        if algorithm == "pc":
            res = pc(recorder, data.m, stable=stable, on_conflict="ignore")
        elif algorithm == "pc_plus":
            res = pc_plus(recorder, ordering, stable=stable, on_conflict="ignore")
        else:
            cfg = PodagConfig(
                backend=algorithm, learn_within_layers=True, stable=stable, on_conflict="ignore"
            )
            res = learn(data, ordering, cfg, engine=recorder)
    except PodagError as err:
        return type(err), str(err), recorder.n_queries, query_digest(recorder)
    if algorithm in ("pc", "pc_plus"):
        pdag, ci_tests = res.pdag, res.ci_tests
    else:
        pdag, ci_tests = res.as_pdag(), res.diagnostics.ci_tests
    edges = (pdag.directed_edges, pdag.undirected_edges)
    return edges, sorted(res.sepsets.items()), ci_tests, query_digest(recorder, res)


class TestWindows:
    """Windows of speculated tests decide, count and record as one test at a time."""

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nodes=st.integers(5, 12),
        n=st.integers(12, 300),
        noise=st.sampled_from([None, 1e-7, 1e-5]),
        algorithm=st.sampled_from(["pc", "pc_plus", "pcor", "sis"]),
        stable=st.booleans(),
        window=st.sampled_from([1, 10**6]),
    )
    def test_windows_replay_single_queries(self, seed, nodes, n, noise, algorithm, stable, window):
        # a window of one union holds one test; one of 10^6 holds a whole
        # level, so removals inside it shrink later pools
        data, ordering = near_singular_data(seed, nodes, n, noise)
        cov = sample_covariance(data)  # unchecked: near-singular unions reach the search
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(podag.search, "WINDOW", window)
            got = recorded_fit(GaussianEngine(cov), algorithm, data, ordering, stable)
        want = recorded_fit(KnowsNothing(cov), algorithm, data, ordering, stable)
        assert got == want

    @pytest.mark.parametrize("algorithm", ["pc", "pc_plus", "pcor"])
    def test_removals_inside_a_window_restrict_later_tests(self, monkeypatch, algorithm):
        restricted = []
        restrict = podag.search._restricted
        monkeypatch.setattr(
            podag.search,
            "_restricted",
            lambda head, stops, pool: restricted.append(len(head)) or restrict(head, stops, pool),
        )
        data, ordering = near_singular_data(30, 30, 300, None)
        got = recorded_fit(GaussianEngine(data), algorithm, data, ordering)
        assert restricted  # a removal shrank the pool of a gathered test
        assert got == recorded_fit(KnowsNothing(data), algorithm, data, ordering)

    @pytest.mark.parametrize("window", [1, 10**6])
    @pytest.mark.parametrize("algorithm", ["pc", "pc_plus"])
    def test_single_ask_error_mid_window(self, monkeypatch, window, algorithm):
        # V2 = V0 + V1 + 1e-7 noise: a union holding all three is positive
        # definite but fails the stacked bound, so it is asked alone, and
        # the engine below fails every such ask
        rng = rng_from_seed(7)
        x = rng.normal(size=(200, 7))
        x[:, 2] = x[:, 0] + x[:, 1] + 1e-7 * rng.normal(size=200)
        data = Dataset(x)
        ordering = PartialOrdering([{0, 1, 3}, {2, 4, 5, 6}], n_nodes=7)

        def failing(engine_class):
            class Failing(engine_class):
                def _decide(self, i, j, s):
                    if {0, 1, 2} <= s | {i, j}:
                        raise SingularityError(context=(i, j, tuple(sorted(s))))
                    return super()._decide(i, j, s)

            return Failing(sample_covariance(data))

        monkeypatch.setattr(podag.search, "WINDOW", window)
        got, want = (
            recorded_fit(failing(engine_class), algorithm, data, ordering)
            for engine_class in (GaussianEngine, KnowsNothing)
        )
        assert got[0] is SingularityError
        assert re.search(r"\[candidate \(\d+, \d+\), T=\(\d+,\)\]$", got[1])
        assert got == want  # the same separator raised, at the sequential count, after the same records


class TestScreeningVerdictSepsets:
    """Orientation reads pcor's screening verdicts before searching a separator."""

    CFG = PodagConfig(learn_within_layers=True, on_conflict="ignore")

    def test_pcor_orientation_skips_pairs_with_a_verdict(self):
        data, ordering = sixteen_node_data(5)
        recorder = RecordingEngine(GaussianEngine(data, alpha=0.05))
        res = learn(data, ordering, self.CFG, engine=recorder)
        screen = res.screen

        def verdicts(a, b):
            return {screen[b].verdict_sepset(a), screen[a].verdict_sepset(b)} - {None}

        assert any(sep in verdicts(a, b) for (a, b), sep in res.sepsets.items())
        for i, j, _ in res.diagnostics.stage_records(recorder.records)["orient"]:
            assert not verdicts(i, j), (i, j)

    # (orientation-phase queries, query digest) per screen source
    POSTHOC_PINNED = {
        "sis": (33, "5d23d06200f6e479"),
        "lasso": (39, "9851d5f64acc8914"),
        "from_json": (31, "fbc265898d888d36"),
        "inflated": (9, "c154a36e463e5dd2"),
    }

    @pytest.mark.parametrize("source", ["sis", "lasso", "from_json", "inflated"])
    def test_screens_without_verdicts_fall_back_to_posthoc_search(self, source):
        data, ordering = sixteen_node_data(5)
        recorder = RecordingEngine(GaussianEngine(data, alpha=0.05))
        if source in ("sis", "lasso"):
            params = {"t": 0.01} if source == "sis" else {}
            cfg = replace(self.CFG, backend=source, backend_params=params)
            res = learn(data, ordering, cfg, engine=recorder)
        else:
            screen, _ = screen_all(data, ordering, "pcor", {"alpha": self.CFG.screen_alpha})
            if source == "from_json":
                screen = ScreenSets.from_json(screen.to_json(), data.labels)
            else:
                screen = inflate_screen_sets(screen, ordering, rng_from_seed(1))
            res = podag_multi_layer(recorder, ordering, screen, self.CFG)
        pinned = (res.diagnostics.queries_per_stage["orient"], query_digest(recorder, res))
        assert pinned == self.POSTHOC_PINNED[source]

    @pytest.mark.parametrize("backend", ["sis", "lasso"])
    def test_a_fit_searches_at_most_three_times(self, monkeypatch, backend):
        # the search, then the post-hoc search from each side
        calls = []
        search_levels = podag.search._search_levels
        monkeypatch.setattr(
            podag.search, "_search_levels", lambda *args, **kw: calls.append(args[1]) or search_levels(*args, **kw)
        )
        data, ordering = sixteen_node_data(5)
        params = {"t": 0.01} if backend == "sis" else {}
        recorder = RecordingEngine(GaussianEngine(data, alpha=0.05))
        res = learn(data, ordering, replace(self.CFG, backend=backend, backend_params=params), engine=recorder)
        assert res.diagnostics.queries_per_stage["orient"] and len(calls) == 3

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nodes=st.integers(6, 14),
        source=st.sampled_from(["sis", "lasso", "from_json", "inflated"]),
        max_level=st.sampled_from([None, 0, 1, 2]),
        share=st.floats(0.2, 1.0),
    )
    def test_batched_posthoc_search_equals_per_pair_searches(self, seed, nodes, source, max_level, share):
        rng = rng_from_seed(seed)
        dag, ordering = generate_layered_dag(GenConfig(n_nodes=nodes, expected_edges_per_node=2.0, layers=3), rng)
        data = sample(random_weights(dag, rng), 200, rng)
        if source in ("sis", "lasso"):
            screen, _ = screen_all(data, ordering, source, {"t": 0.02} if source == "sis" else {})
        else:
            screen, _ = screen_all(data, ordering, "pcor", {"alpha": 0.5})
            if source == "from_json":
                screen = ScreenSets.from_json(screen.to_json(), data.labels)
            else:
                screen = inflate_screen_sets(screen, ordering, rng)
        pairs = [pair for pair in itertools.combinations(range(nodes), 2) if rng.random() < share]
        batched, single = GaussianEngine(data, alpha=0.05), GaussianEngine(data, alpha=0.05)
        sepsets = SepsetMap()
        podag.search._posthoc_search(batched, pairs, screen, sepsets, max_level)
        for a, b in pairs:
            assert sepsets.get(a, b) == per_pair_separator(single, screen, a, b, max_level), (a, b)
        assert {pair for pair, _ in sepsets.items()} <= set(pairs)
        assert batched.n_queries == single.n_queries


def per_pair_separator(engine, screen, a, b, max_level):
    """The post-hoc search of one pair: a one-test skeleton search from each side, target ``b`` first."""
    for target, other in ((b, a), (a, b)):
        if target in screen:
            cross, cmb = screen[target].cross, screen[target].cmb
            sepsets, _, _ = podag.search._search_levels(
                engine, ([other], [target]), lambda t: cross, lambda o, t: cmb, {}, max_level
            )
            if (a, b) in sepsets:
                return sepsets.get(a, b)
    return None


class TestMultiLayerSearch:
    def test_chain_within_edge_identifiable(self):
        # true graph 0 -> 1 -> 2 with ordering {0} < {1, 2}: the background
        # orientation 0 -> 1 plus no collider at 1 forces 1 -> 2
        dag = Dag(3, [(0, 1), (1, 2)])
        ordering = PartialOrdering([{0}, {1, 2}], n_nodes=3)
        res = learn(dag, ordering, PodagConfig(learn_within_layers=True))
        assert res.cross_edges == {(0, 1)}
        assert res.within.directed_edges == {(1, 2)}

    def test_one_sided_weak_ordering(self):
        # 2's before set alone orders 0 and 1 before it: 0 -> 2 is a cross
        # edge, never also a within pair
        ordering = PartialOrdering([], n_nodes=3, unordered=[0, 1, 2], before={2: {0, 1}}, after={})
        dag, rng = Dag(3, [(0, 2)]), rng_from_seed(3)
        data = sample(random_weights(dag, rng), 500, rng)
        res = learn(data, ordering, PodagConfig(learn_within_layers=True))
        assert res.cross_edges == {(0, 2)} == res.pdag.directed_edges
        assert res.within.adjacency_pairs() == frozenset()
        oracle = learn(dag, ordering, PodagConfig(learn_within_layers=True))
        assert oracle.as_pdag() == res.as_pdag()

    def test_population_correctness_random(self):
        rng = rng_from_seed(1234)
        for _ in range(40):
            dag, ordering = random_layered_instance(rng)
            res = learn(dag, ordering, PodagConfig(learn_within_layers=True))
            assert res.cross_edges == dag.cross_edges(ordering)
            assert res.as_pdag() == oracle_maximal_pdag(dag, ordering)

    def test_no_true_cross_edge_ever_removed(self):
        rng = rng_from_seed(77)
        for _ in range(20):
            dag, ordering = random_layered_instance(rng)
            res = learn(dag, ordering, PodagConfig(learn_within_layers=True))
            assert dag.cross_edges(ordering) <= res.cross_edges
            for (a, b), _ in res.sepsets.items():
                assert not dag.is_adjacent(a, b)


@st.composite
def screen_sets(draw):
    """Screening entries for a random subset of targets; their sets may name unscreened nodes."""
    n = draw(st.integers(2, 9))
    targets = draw(st.sets(st.integers(0, n - 1), min_size=1))
    entries = []
    for j in sorted(targets):
        others = st.sets(st.sampled_from([v for v in range(n) if v != j]))
        entries.append(ScreenEntry(j, draw(others), draw(others)))
    return ScreenSets(entries, n_nodes=n)


class TestCandidates:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(screen=screen_sets(), within=st.booleans())
    def test_grouped_by_target_as_the_sorted_union(self, screen, within):
        cross = {j: screen[j].cross for j in screen.nodes()}
        cmb = {j: set(screen[j].cmb) for j in screen.nodes()}
        want = set(screen.cross_candidates())
        if within:
            want |= set(screen.within_candidates())
        sources, targets = podag.search._candidates(cross, cmb, within)
        assert list(zip(sources, targets)) == sorted(want, key=operator.itemgetter(1, 0))


class TestSupersetRobustness:
    def test_inflated_screens_leave_output_unchanged(self):
        rng = rng_from_seed(2718)
        for _ in range(25):
            dag, ordering = random_layered_instance(rng, n_lo=5, n_hi=10)
            screen = oracle_screen(dag, ordering)
            cfg = PodagConfig(learn_within_layers=True)
            base = podag_multi_layer(OracleEngine(dag), ordering, screen, cfg)
            fat = inflate_screen_sets(screen, ordering, rng, extra=3)
            fatter = podag_multi_layer(OracleEngine(dag), ordering, fat, cfg)
            assert base.cross_edges == fatter.cross_edges
            assert base.as_pdag() == fatter.as_pdag()


class TestConditioningDiscipline:
    def test_search_queries_have_required_form(self):
        rng = rng_from_seed(31)
        for _ in range(10):
            dag, ordering = random_layered_instance(rng, n_lo=5, n_hi=9)
            screen = oracle_screen(dag, ordering)
            recorder = RecordingEngine(OracleEngine(dag))
            res = podag_multi_layer(recorder, ordering, screen, PodagConfig(learn_within_layers=True))
            for i, j, s in res.diagnostics.stage_records(recorder.records)["search"]:
                ok = False
                for target, other in ((j, i), (i, j)):
                    if target not in screen.entries:
                        continue
                    base = screen[target].cross - {other}
                    extra = s - base
                    if base <= s and extra <= (screen[target].cmb - {other}):
                        ok = True
                        break
                assert ok, (i, j, sorted(s))


class TestWeakOrdering:
    def test_layering_special_case_identical(self):
        rng = rng_from_seed(3)
        for _ in range(15):
            dag, ordering = random_layered_instance(rng, n_lo=4, n_hi=9)
            cfg = PodagConfig(learn_within_layers=True)
            layered = learn(dag, ordering, cfg)
            ba = ordering.to_before_after()
            weak_ord = PartialOrdering(
                [],
                n_nodes=dag.n_nodes,
                unordered=range(dag.n_nodes),
                before={j: b for j, (b, a) in ba.items()},
                after={j: a for j, (b, a) in ba.items()},
            )
            screen = oracle_screen(dag, weak_ord)
            weak = podag_multi_layer(OracleEngine(dag), weak_ord, screen, cfg)
            assert weak.cross_edges == layered.cross_edges
            assert weak.as_pdag() == layered.as_pdag()

    def test_no_information_degenerates_to_blanket_search(self):
        # with empty before/after sets everywhere the search runs over
        # Markov blankets and recovers the CPDAG of small faithful graphs
        rng = rng_from_seed(5)
        for _ in range(10):
            dag, _ = random_layered_instance(rng, n_lo=4, n_hi=7, epn_hi=1.8)
            weak_ord = PartialOrdering(
                [], n_nodes=dag.n_nodes, unordered=range(dag.n_nodes)
            )
            screen = oracle_screen(dag, weak_ord)
            res = podag_multi_layer(
                OracleEngine(dag), weak_ord, screen, PodagConfig(learn_within_layers=True)
            )
            assert res.cross_edges == frozenset()
            assert res.as_pdag() == enumeration_maximal_pdag(dag, ())

    def test_unordered_confounder_instance(self):
        # two ordered layers plus one unordered confounder node
        rng = rng_from_seed(11)
        hits = 0
        while hits < 10:
            dag, base_ordering = random_layered_instance(rng, n_lo=6, n_hi=7, layers_hi=3)
            if base_ordering.n_layers < 2:
                continue
            hits += 1
            confounder = sorted(base_ordering.layers[0])[0]
            layers = [layer - {confounder} for layer in base_ordering.layers]
            layers = [l for l in layers if l]
            ordering = PartialOrdering(layers, n_nodes=dag.n_nodes, unordered={confounder})
            res = learn(dag, ordering, PodagConfig(learn_within_layers=True))
            background = {
                (u, v) for u, v in dag.edges if ordering.orders_before(u, v)
            }
            assert res.as_pdag().adjacency_pairs() == dag.skeleton().adjacency_pairs()
            assert res.as_pdag() == enumeration_maximal_pdag(dag, background)


class TestLearnDispatch:
    def test_oracle_counts_include_screening(self):
        sem, ordering = toy_two_layer_sem()
        res = learn(sem.dag, ordering, PodagConfig())
        # screening alone issues 2 x (2 + 3) = 10 queries on the toy graph
        assert res.diagnostics.ci_tests >= 10

    def test_sample_mode_runs(self):
        sem, ordering = toy_two_layer_sem()
        data = sample(sem, 1000, rng_from_seed(0))
        res = learn(data, ordering, PodagConfig())
        assert res.cross_edges  # nonempty under this strong signal

    def test_oracle_rejects_data_backends(self):
        sem, ordering = toy_two_layer_sem()
        with pytest.raises(ValueError):
            learn(sem.dag, ordering, PodagConfig(backend="lasso"))

    def test_screening_significance_has_one_knob(self):
        with pytest.raises(ValueError, match="screen_alpha"):
            PodagConfig(backend_params={"alpha": 0.1})
        cfg = PodagConfig(screen_alpha=0.3, backend_params={"threshold": 0.2})
        assert cfg.screen_params() == {"threshold": 0.2, "alpha": 0.3}
        assert PodagConfig(backend="sis", backend_params={"t": 0.01}).screen_params() == {"t": 0.01}

    @pytest.mark.parametrize("backend, key", [("sis", "threshold"), ("lasso", "t"), ("pcor", "lambda0")])
    def test_rejects_parameters_of_another_backend(self, backend, key):
        with pytest.raises(ValueError, match=f"backend '{backend}' takes no parameter '{key}'"):
            PodagConfig(backend=backend, backend_params={key: 0.1})

    def test_rejects_unknown_source(self):
        sem, ordering = toy_two_layer_sem()
        with pytest.raises(TypeError):
            learn("nope", ordering)

    def test_engine_errors_carry_candidate_context(self):
        sem, ordering = toy_two_layer_sem()
        data = sample(sem, 5, rng_from_seed(1))
        # near-1 alpha keeps level-0 verdicts dependent, forcing level 1
        engine = GaussianEngine(data, alpha=0.999)
        # a fat screen forces a conditioning set of size 2, exhausting the
        # degrees of freedom n - |s| - 3 at n = 5
        screen = ScreenSets(
            [ScreenEntry(2, s0={0, 1}, s1={0, 1, 3}), ScreenEntry(3, s0=set(), s1=set())],
            n_nodes=4,
        )
        with pytest.raises(InsufficientDataError, match="candidate"):
            podag_multi_layer(engine, ordering, screen, PodagConfig())

    def test_elapsed_covers_screening(self, monkeypatch):
        screen_all_fast = podag.search.screen_all

        def screen_all_slow(*args, **kwargs):
            time.sleep(0.05)
            return screen_all_fast(*args, **kwargs)

        monkeypatch.setattr(podag.search, "screen_all", screen_all_slow)
        sem, ordering = toy_two_layer_sem()
        res = learn(sem.dag, ordering, PodagConfig())
        assert res.diagnostics.elapsed_ms >= 50

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_more_nodes_than_samples(self, backend):
        # the high-dimensional half: p = 120 nodes from n = 60 samples
        rng = rng_from_seed(3)
        dag, ordering = generate_layered_dag(
            GenConfig(n_nodes=120, expected_edges_per_node=3.0, layers=3), rng
        )
        data = sample(random_weights(dag, rng), 60, rng)
        cfg = PodagConfig(backend=backend, learn_within_layers=True, on_conflict="ignore", max_sepset_size=2)
        if backend == "pcor":
            with pytest.raises(InsufficientDataError, match="--backend lasso"):
                learn(data, ordering, cfg)
            return
        res = learn(data, ordering, cfg)
        assert res.cross_edges & dag.edges
        assert res.diagnostics.ci_tests > 0

    def test_backends_pinned_on_fixed_seed(self):
        # edges and test counts of one fixed simulated fit per backend,
        # recorded from the implementation before screening was unified
        # (pcor's count again once orientation read its screening verdicts)
        rng = rng_from_seed(2024)
        dag, ordering = generate_layered_dag(
            GenConfig(n_nodes=12, expected_edges_per_node=2.0, layers=3), rng
        )
        data = sample(random_weights(dag, rng), 300, rng)
        common = [(0, 7), (1, 4), (1, 8), (1, 11), (3, 4), (5, 0), (6, 0), (6, 7), (9, 10), (11, 2), (11, 7)]
        expected = {
            "pcor": (common + [(6, 2), (9, 2)], 142),
            "sis": (common + [(6, 2), (9, 2)], 72),
            "lasso": (common, 35),
        }
        for backend, (directed, ci_tests) in expected.items():
            cfg = PodagConfig(backend=backend, learn_within_layers=True, on_conflict="ignore")
            res = learn(data, ordering, cfg)
            assert res.as_pdag().directed_edges == set(directed), backend
            assert res.as_pdag().undirected_edges == {(1, 5)}, backend
            assert res.diagnostics.ci_tests == ci_tests, backend


class TestResultSerialization:
    def test_benchmark_kind_fit_pinned(self):
        # the full result.json, sepsets and ci_tests included, of one fit of
        # the benchmark's learn-p120 kind (p=120, L=5, n=1000), without
        # elapsed_ms; recorded before level 0 recorded separators lazily
        rng = rng_from_seed(120)
        dag, ordering = generate_layered_dag(
            GenConfig(n_nodes=120, expected_edges_per_node=3.0, layers=5), rng
        )
        data = sample(random_weights(dag, rng), 1000, rng)
        cfg = PodagConfig(alpha=0.005, max_sepset_size=3, learn_within_layers=True, on_conflict="ignore")
        doc = json.loads(learn(data, ordering, cfg).to_json())
        del doc["diagnostics"]["elapsed_ms"]
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert (doc["diagnostics"]["ci_tests"], len(doc["sepsets"])) == (14915, 3487)
        assert digest == "dc30ee16b8d1e78d5c384a2cd5b669e74964ab1b9e4b1bd3f6f0fc22f7df04ba"

    def test_json_shape_and_determinism(self):
        sem, ordering = toy_two_layer_sem()
        r1 = learn(sem.dag, ordering, PodagConfig(learn_within_layers=True))
        r2 = learn(sem.dag, ordering, PodagConfig(learn_within_layers=True))
        d1, d2 = json.loads(r1.to_json()), json.loads(r2.to_json())
        d1["diagnostics"].pop("elapsed_ms")
        d2["diagnostics"].pop("elapsed_ms")
        assert d1 == d2
        assert d1["cross_edges"] == [["X1", "Y1"], ["X2", "Y2"]]
        assert set(d1) == {
            "cross_edges",
            "within_directed",
            "within_undirected",
            "sepsets",
            "diagnostics",
        }

    def test_edgelist_output(self):
        sem, ordering = toy_two_layer_sem()
        res = learn(sem.dag, ordering, PodagConfig())
        assert res.to_edgelist() == "X1\tY1\nX2\tY2\n"

    def test_cross_edges_respect_ordering(self):
        rng = rng_from_seed(13)
        for _ in range(10):
            dag, ordering = random_layered_instance(rng)
            res = learn(dag, ordering, PodagConfig(learn_within_layers=True))
            for k, j in res.cross_edges:
                assert ordering.orders_before(k, j)
            cand = set(res.screen.cross_candidates())
            assert res.cross_edges <= cand


NODE_COUNT_FITS = {
    "learn": lambda data, ordering: learn(data, ordering),
    "learn-oracle": lambda data, ordering: learn(Dag(8, []), ordering),
    "screen_all": lambda data, ordering: screen_all(data, ordering),
    "pc": lambda data, ordering: pc(GaussianEngine(data), ordering.n_nodes),
    "pc_plus": lambda data, ordering: pc_plus(GaussianEngine(data), ordering),
    "h0": lambda data, ordering: estimate_h0(GaussianEngine(data), ordering),
    "h_minus_j": lambda data, ordering: estimate_h_minus_j(OracleEngine(Dag(8, [])), ordering),
}


@pytest.mark.parametrize("fit", sorted(NODE_COUNT_FITS))
@pytest.mark.parametrize("n_nodes", [4, 10])
def test_estimators_refuse_a_node_count_other_than_the_data(fit, n_nodes):
    # 4 nodes once fitted the first 4 of the 8 columns; 10 failed with an IndexError
    data = Dataset(np.random.default_rng(2).standard_normal((60, 8)))
    ordering = PartialOrdering([set(range(n_nodes // 2)), set(range(n_nodes // 2, n_nodes))])
    with pytest.raises(ValueError, match=f"given {n_nodes} nodes, but the data has 8"):
        NODE_COUNT_FITS[fit](data, ordering)
