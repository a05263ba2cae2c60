import hashlib
import itertools
import json
import math
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import podag.evaluation
from podag import (
    BenchmarkSpec,
    Dag,
    Dataset,
    GaussianEngine,
    OracleEngine,
    PartialOrdering,
    Pdag,
    PodagConfig,
    RecordingEngine,
    Sem,
    collect_test_tuples,
    edge_metrics,
    estimate_h0,
    estimate_h_minus_j,
    partial_correlation,
    podag_multi_layer,
    rho_min_star,
    run_benchmark,
    screen_all,
)
from podag.evaluation import (
    BENCHMARK_FIELDS,
    FAITHFULNESS_FIELDS,
    faithfulness_report,
    rows_to_csv,
)
from podag.screening import BACKENDS
from podag.search import STAGES
from podag.sem import GenConfig, generate_layered_dag, random_weights, rng_from_seed, sample, toy_two_layer_sem

from helpers import random_layered_instance, reference_edge_metrics, toy_diamond

SCOPES = ("cross_only", "all_edges", "skeleton")


def random_pairs(rng, n, prob):
    return [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < prob]


def random_pdag(rng, n, prob=0.3):
    """A Pdag whose drawn pairs are directed either way or left undirected."""
    directed, undirected = [], []
    for u, v in random_pairs(rng, n, prob):
        kind = rng.integers(3)
        if kind == 2:
            undirected.append((u, v))
        else:
            directed.append((u, v) if kind == 0 else (v, u))
    return Pdag(n, directed_edges=directed, undirected_edges=undirected)


def random_edge_set(rng, n, prob=0.3):
    """A raw directed edge set with a self-loop and one pair in both directions."""
    edges = {(u, v) if rng.random() < 0.5 else (v, u) for u, v in random_pairs(rng, n, prob)}
    u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
    return edges | {(u, u), (u, v), (v, u)}


def override_ordering(rng, n):
    """Per-node before/after sets drawn independently along one random rank.

    A node's tables often name a pair the other node's leave out; they
    never order a pair both ways, which :class:`PartialOrdering` rejects.
    """
    rank = rng.permutation(n)
    before, after = {}, {}
    for j in range(n):
        others = [v for v in range(n) if v != j and rng.random() < 0.4]
        before[j] = [v for v in others if rank[v] < rank[j]]
        after[j] = [v for v in others if rank[v] > rank[j]]
    return PartialOrdering([], n_nodes=n, unordered=range(n), before=before, after=after)


class TestEdgeMetrics:
    def test_perfect_estimate(self):
        dag = toy_diamond()
        m = edge_metrics(set(dag.edges), dag, scope="all_edges")
        assert (m.tpr, m.fpr, m.shd) == (1.0, 0.0, 0)

    def test_empty_estimate(self):
        dag = toy_diamond()
        m = edge_metrics(set(), dag, scope="all_edges")
        assert (m.tpr, m.fpr) == (0.0, 0.0)
        assert m.fn == 4

    def test_toy_h0_cross_counts(self):
        sem, ordering = toy_two_layer_sem()
        res = estimate_h0(OracleEngine(sem.dag), ordering)
        m = edge_metrics(res.pdag.directed_edges, sem.dag, scope="cross_only", ordering=ordering)
        assert (m.tp, m.fp, m.tn, m.fn) == (2, 1, 1, 0)
        assert m.tpr == 1.0
        assert m.fpr == 0.5

    def test_confusion_sums_to_universe(self):
        sem, ordering = toy_two_layer_sem()
        n = sem.dag.n_nodes
        for scope, size in (
            ("cross_only", 4),
            ("all_edges", n * (n - 1)),
            ("skeleton", n * (n - 1) // 2),
        ):
            m = edge_metrics(set(), sem.dag, scope=scope, ordering=ordering)
            assert m.universe_size == size

    def test_empty_scope_degenerate_rates(self):
        dag = Dag(3, [])
        ordering = PartialOrdering([{0, 1, 2}], n_nodes=3)
        m = edge_metrics(set(), dag, scope="cross_only", ordering=ordering)
        assert m.universe_size == 0
        assert m.tpr == 1.0  # 0/0 reads as 1
        assert m.fpr == 0.0  # 0/0 reads as 0

    def test_pdag_input_uses_ordering_for_undirected(self):
        sem, ordering = toy_two_layer_sem()
        est = Pdag(4, directed_edges=[(1, 3)], undirected_edges=[(0, 2)])
        m = edge_metrics(est, sem.dag, scope="cross_only", ordering=ordering)
        assert m.tp == 2  # the undirected cross pair counts forward

    def test_same_layer_undirected_not_directed(self):
        dag = Dag(3, [(0, 1), (1, 2)])
        ordering = PartialOrdering([{0}, {1, 2}], n_nodes=3)
        est = Pdag(3, directed_edges=[(0, 1)], undirected_edges=[(1, 2)])
        m = edge_metrics(est, dag, scope="all_edges", ordering=ordering)
        assert m.fn == 1  # the true 1 -> 2 is not credited
        assert m.fp == 0  # but its reverse is not charged either
        skel = edge_metrics(est, dag, scope="skeleton", ordering=ordering)
        assert skel.tpr == 1.0 and skel.fpr == 0.0

    def test_scope_validation(self):
        dag = toy_diamond()
        with pytest.raises(ValueError):
            edge_metrics(set(), dag, scope="bogus")
        with pytest.raises(ValueError):
            edge_metrics(set(), dag, scope="cross_only")  # ordering missing
        with pytest.raises(ValueError):
            edge_metrics({(0, 9)}, dag, scope="all_edges")


class TestEdgeMetricsAgainstReference:
    """Set-based counts equal the per-pair reference on random inputs."""

    def check(self, estimated, truth, ordering):
        for scope in SCOPES:
            m = edge_metrics(estimated, truth, scope=scope, ordering=ordering)
            got = (m.tp, m.fp, m.tn, m.fn, m.shd)
            assert got == reference_edge_metrics(estimated, truth, scope, ordering), scope

    def test_layered_orderings(self):
        rng = rng_from_seed(11)
        for _ in range(150):
            dag, ordering = random_layered_instance(rng)
            n = dag.n_nodes
            self.check(random_pdag(rng, n), dag, ordering)
            self.check(random_edge_set(rng, n), dag, ordering)
            self.check(set(dag.edges), dag, ordering)

    def test_override_orderings(self):
        rng = rng_from_seed(12)
        for _ in range(150):
            dag, _ = random_layered_instance(rng)
            n = dag.n_nodes
            ordering = override_ordering(rng, n)
            self.check(random_pdag(rng, n), dag, ordering)
            self.check(random_edge_set(rng, n), dag, ordering)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), overrides=st.booleans(), extra=st.integers(0, 2))
    def test_layers_with_unordered_nodes(self, seed, overrides, extra):
        # up to three layers with unordered nodes beside them, optionally
        # weakened by before/after overrides, over ``extra`` nodes more than
        # the truth has
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        m = n + extra
        layer = rng.integers(-1, 3, size=m)  # -1: unordered
        layers = [set(np.flatnonzero(layer == k).tolist()) for k in range(3)]
        layers = [nodes for nodes in layers if nodes]
        unordered = np.flatnonzero(layer == -1).tolist()
        ordering = PartialOrdering(layers, n_nodes=m, unordered=unordered)
        if overrides:
            before, after = {}, {}
            rank = rng.permutation(m)  # orders the unordered nodes' overrides, which may not contradict
            for j in range(m):
                if ordering.layer_of(j) is None:
                    others = [v for v in range(m) if v != j and rng.random() < 0.4]
                    before[j] = [v for v in others if rank[v] < rank[j]]
                    after[j] = [v for v in others if rank[v] > rank[j]]
                else:
                    before[j] = [v for v in ordering.before_set(j) if rng.random() < 0.7]
                    after[j] = [v for v in ordering.after_set(j) if rng.random() < 0.7]
            ordering = PartialOrdering(layers, n_nodes=m, unordered=unordered, before=before, after=after)
        topo = rng.permutation(n)
        truth = Dag(n, [(int(topo[u]), int(topo[v])) for u, v in random_pairs(rng, n, 0.35)])
        self.check(random_pdag(rng, n), truth, ordering)
        self.check(random_edge_set(rng, n), truth, ordering)
        self.check(set(truth.edges), truth, ordering)

    def test_override_orderings_disagree(self):
        # the universe is every pair that orders_before accepts, from
        # either side's table
        ordering = PartialOrdering(
            [], n_nodes=3, unordered=range(3), before={1: [0]}, after={2: [0]}
        )
        m = edge_metrics(set(), Dag(3, [(0, 1)]), scope="cross_only", ordering=ordering)
        assert (m.universe_size, m.fn) == (2, 1)


class TestFit:
    """``_fit`` is the one estimator dispatch; every result reads ``pdag`` and ``ci_tests``."""

    @staticmethod
    def two_layer_data():
        sem, ordering = toy_two_layer_sem()
        return sample(sem, 300, rng_from_seed(5)), ordering

    @pytest.mark.parametrize("algorithm, estimator", [("h0", estimate_h0), ("h_minus_j", estimate_h_minus_j)])
    def test_naive_estimators_run_on_a_gaussian_engine(self, algorithm, estimator):
        data, ordering = self.two_layer_data()
        got = podag.evaluation._fit(algorithm, data, ordering, PodagConfig())
        want = estimator(GaussianEngine(data), ordering, labels=data.labels)
        assert got == want
        assert got.pdag.directed_edges and got.ci_tests > 0

    @pytest.mark.parametrize("algorithm", ["podag", "pc", "pc_plus", "h0", "h_minus_j"])
    def test_every_result_reads_pdag_and_ci_tests(self, algorithm):
        data, ordering = self.two_layer_data()
        result = podag.evaluation._fit(algorithm, data, ordering, PodagConfig(on_conflict="ignore"))
        assert isinstance(result.pdag, Pdag) and result.pdag.labels == data.labels
        assert result.ci_tests == json.loads(result.to_json())["diagnostics"]["ci_tests"] > 0
        if algorithm == "podag":
            assert result.pdag == result.as_pdag()

    @pytest.mark.parametrize(
        "algorithm, within",
        [("podag", False), ("podag", True), ("pc", False), ("pc_plus", False), ("h0", False), ("h_minus_j", False)],
    )
    def test_one_pdag_per_fit(self, monkeypatch, algorithm, within):
        # orientation runs on one state, and a result stores the graph it returns
        rng = rng_from_seed(8)
        dag, ordering = generate_layered_dag(GenConfig(n_nodes=12, expected_edges_per_node=2.0, layers=2), rng)
        data = sample(random_weights(dag, rng), 400, rng)
        cfg = PodagConfig(learn_within_layers=within, on_conflict="ignore")
        built = []
        init = Pdag.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Pdag, "__init__", counting_init)
        result = podag.evaluation._fit(algorithm, data, ordering, cfg)
        first, second = result.pdag, result.pdag
        assert len(built) == 1
        assert first is second and first.adjacency_pairs()


def twelve_node_instance():
    """A 12-node, 2-layer DAG, its ordering and n = 400 samples."""
    rng = rng_from_seed(3)
    dag, ordering = generate_layered_dag(GenConfig(n_nodes=12, expected_edges_per_node=2.0, layers=2), rng)
    return dag, ordering, sample(random_weights(dag, rng), 400, rng)


class TestStageCounts:
    """Every fit counts its queries per stage; those counts cut a recorder's records into the fit's stages."""

    # (algorithm, backend, within, oracle); oracle inputs support only the pcor backend
    FITS = [
        ("podag", backend, within, oracle)
        for backend in BACKENDS
        for within in (False, True)
        for oracle in ((0, 1) if backend == "pcor" else (0,))
    ]
    FITS += [(name, "pcor", False, oracle) for name in ("pc", "pc_plus", "h0", "h_minus_j") for oracle in (0, 1)]

    @pytest.mark.parametrize("algorithm, backend, within, oracle", FITS)
    def test_the_stages_sum_to_ci_tests(self, algorithm, backend, within, oracle):
        dag, ordering, data = twelve_node_instance()
        cfg = PodagConfig(backend=backend, learn_within_layers=within, on_conflict="ignore")
        recorder = RecordingEngine(OracleEngine(dag) if oracle else GaussianEngine(data, alpha=cfg.alpha))
        result = podag.evaluation._fit(algorithm, dag if oracle else data, ordering, cfg, recorder)
        queries = result.diagnostics.queries_per_stage
        assert list(queries) == list(STAGES)
        assert sum(queries.values()) == result.ci_tests == json.loads(result.to_json())["diagnostics"]["ci_tests"]
        # screening asks the engine only under an oracle
        asked = result.ci_tests if oracle else queries["search"] + queries["orient"]
        assert recorder.n_queries == len(recorder.records) == asked
        stages = result.diagnostics.stage_records(recorder.records)
        lengths = [oracle * queries["screen"], queries["search"], queries["orient"]]
        assert [len(stages[stage]) for stage in STAGES] == lengths
        assert [t for stage in STAGES for t in stages[stage]] == recorder.records
        assert queries["search"] > 0
        assert (queries["screen"] > 0) == (algorithm == "podag" and backend == "pcor")
        if algorithm != "podag" or not within:
            assert queries["orient"] == 0

    def test_a_search_on_given_screens_counts_no_screening(self):
        dag, ordering, _ = twelve_node_instance()
        screen, _ = screen_all(OracleEngine(dag), ordering)
        recorder = RecordingEngine(OracleEngine(dag))
        result = podag_multi_layer(recorder, ordering, screen, PodagConfig(learn_within_layers=True))
        queries = result.diagnostics.queries_per_stage
        assert queries["screen"] == 0 and queries["search"] > 0
        assert result.ci_tests == recorder.n_queries == len(recorder.records)

    @pytest.mark.parametrize("first", ["podag", "pc", "pc_plus", "h0", "h_minus_j"])
    @pytest.mark.parametrize("second", ["podag", "pc", "pc_plus", "h0", "h_minus_j"])
    def test_a_reused_recorder_cuts_the_second_fit_as_a_fresh_one(self, first, second):
        dag, ordering, _ = twelve_node_instance()
        cfg = PodagConfig(learn_within_layers=True)

        def stages(recorder, algorithm):
            result = podag.evaluation._fit(algorithm, dag, ordering, cfg, recorder)
            return result.diagnostics.stage_records(recorder.records)

        reused = RecordingEngine(OracleEngine(dag))
        stages(reused, first)
        got, want = stages(reused, second), stages(RecordingEngine(OracleEngine(dag)), second)
        assert got == want
        assert got["search"] and not (second != "podag" and (got["screen"] or got["orient"]))
        if (first, second) == ("podag", "pc"):
            assert len(got["search"]) == 328  # every query PC asks after a within-layers PODAG fit


class TestCollectTuples:
    def test_pc_on_edgeless_four_nodes(self):
        tuples = collect_test_tuples("pc", Dag(4, []), None)
        assert len(tuples) == 6
        assert all(s == frozenset() for _, _, s in tuples)

    def test_pc_plus_tuples_subset_of_pc(self):
        dag = Dag(10, [(i, i + 1) for i in range(9)])
        ordering = PartialOrdering([{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}], n_nodes=10)
        assert set(collect_test_tuples("pc_plus", dag, ordering)) <= set(
            collect_test_tuples("pc", dag, ordering)
        )

    def test_podag_collection_excludes_screening_probes(self):
        # the collected tuples are the constraint-based tests: everything
        # conditions on a cross set plus blanket members, never on the
        # screening loop's all-but-one sets
        sem, ordering = toy_two_layer_sem()
        tuples = collect_test_tuples("podag", sem.dag, ordering)
        assert tuples
        assert tuples == collect_test_tuples(
            "podag", sem.dag, ordering, phases=("search", "orient")
        )
        skeleton_only = collect_test_tuples("podag", sem.dag, ordering, phases=("search",))
        assert len(skeleton_only) <= len(tuples)


class TestRhoMinStar:
    def test_single_edge_closed_form(self):
        beta = 0.6
        dag = Dag(2, [(0, 1)])
        weights = np.zeros((2, 2))
        weights[1, 0] = beta
        sem = Sem(dag, weights, np.ones(2))
        got = rho_min_star(sem, [(0, 1, frozenset())])
        assert got == pytest.approx(beta / math.sqrt(beta**2 + 1))

    def test_zero_only_tuples_give_infinity(self):
        dag = Dag(3, [(0, 1)])
        weights = np.zeros((3, 3))
        weights[1, 0] = 0.8
        sem = Sem(dag, weights, np.ones(3))
        assert rho_min_star(sem, [(0, 2, frozenset()), (1, 2, frozenset())]) == math.inf

    def test_invariant_to_duplication_and_order(self):
        sem, _ = toy_two_layer_sem()
        tuples = [(0, 2, frozenset()), (1, 3, frozenset({0})), (0, 3, frozenset({1, 2}))]
        a = rho_min_star(sem, tuples)
        b = rho_min_star(sem, tuples[::-1] + tuples)
        assert a == b

    def test_each_distinct_tuple_evaluated_once(self, monkeypatch):
        calls = []

        def counted(cov, i, j, s):
            calls.append((i, j, s))
            return partial_correlation(cov, i, j, s)

        monkeypatch.setattr(podag.evaluation, "partial_correlation", counted)
        sem, _ = toy_two_layer_sem()
        tuples = [(0, 2, frozenset()), (2, 0, frozenset()), (1, 3, frozenset({0})), (1, 3, {0})]
        rho_min_star(sem, tuples + tuples[::-1])
        assert len(calls) == 2


class TestFaithfulnessReport:
    def test_schema_and_determinism(self):
        rows1 = faithfulness_report(replicates=4, n_nodes=8, seed=3)
        rows2 = faithfulness_report(replicates=4, n_nodes=8, seed=3)
        assert rows1 == rows2
        assert len(rows1) == 12  # 4 replicates x 3 algorithms
        for row in rows1:
            assert set(row) == set(FAITHFULNESS_FIELDS)
            assert row["ci_tests"] > 0
            assert row["rho_min_full"] <= row["rho_min_skeleton"] or math.isinf(
                row["rho_min_skeleton"]
            )

    @pytest.mark.parametrize("threads", [None, 0, -1])
    def test_threads_below_one_raise_before_any_replicate(self, monkeypatch, threads):
        started = []
        monkeypatch.setattr(podag.evaluation, "ThreadPoolExecutor", lambda *args, **kwargs: started.append(args))
        monkeypatch.setattr(podag.evaluation, "_draw_replicate", lambda *args: started.append(args))
        with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
            faithfulness_report(replicates=2, n_nodes=6, seed=1, threads=threads)
        assert started == []

    def test_csv_rendering(self):
        rows = faithfulness_report(replicates=2, n_nodes=6, seed=1)
        text = rows_to_csv(rows, FAITHFULNESS_FIELDS)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(FAITHFULNESS_FIELDS)
        assert len(lines) == 7


class TestRunBenchmark:
    def test_benchmark_kind_grid_pinned(self):
        # every row, without elapsed_ms, of one grid call of the benchmark's
        # simgrid-p50 kind; recorded before level 0 recorded separators lazily
        spec = BenchmarkSpec(
            n_nodes=(50,),
            layers=(2, 5),
            n=(500,),
            algorithms=("pc", "pc_plus", "podag"),
            backends=("pcor", "sis", "lasso"),
            expected_edges_per_node=3.0,
            max_sepset_size=3,
            replicates=1,
            seed=1000,
        )
        rows, failures = run_benchmark(spec, threads=1)
        rows = [{k: v for k, v in row.items() if k != "elapsed_ms"} for row in rows]
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        assert (len(rows), failures) == (30, [])
        assert digest == "4e770c8abb95798dcc2bd94aa76a094a6ecebdfaac2f1608e8839f3b72cbb71e"

    def small_spec(self):
        return BenchmarkSpec(
            n_nodes=(8,),
            layers=(2,),
            n=(200,),
            replicates=2,
            seed=5,
            expected_edges_per_node=1.5,
            algorithms=("pc", "podag"),
            max_sepset_size=2,
        )

    def test_rows_complete_and_deterministic(self):
        rows1, fails1 = run_benchmark(self.small_spec())
        rows2, fails2 = run_benchmark(self.small_spec())
        assert fails1 == fails2 == []
        strip = lambda rows: [
            {k: v for k, v in r.items() if k != "elapsed_ms"} for r in rows
        ]
        assert strip(rows1) == strip(rows2)
        # 2 replicates x (pc + podag) x 3 scopes
        assert len(rows1) == 12
        for row in rows1:
            assert set(row) == set(BENCHMARK_FIELDS)
            assert row["tp"] + row["fp"] + row["tn"] + row["fn"] > 0

    def test_threading_matches_sequential(self):
        rows1, _ = run_benchmark(self.small_spec(), threads=1)
        rows2, _ = run_benchmark(self.small_spec(), threads=4)
        strip = lambda rows: [
            {k: v for k, v in r.items() if k != "elapsed_ms"} for r in rows
        ]
        assert strip(rows1) == strip(rows2)

    def test_degenerate_replicates_keep_their_failure_rows(self, monkeypatch):
        # n=3 fails the engine's sample-size check, n=40 gets collinear columns
        # and n=50 a constant one: every fit of those replicates fails with the
        # check's error.  At n=6 the check passes and only the pcor screen of
        # replicate 0 runs out of samples.  Pinned from fits that each checked
        # the dataset themselves.
        sample = podag.evaluation.sample

        def degenerate(sem, n, rng):
            data = sample(sem, n, rng).data.copy()
            if n == 40:
                data[:, 1] = 2.0 * data[:, 0]
            elif n == 50:
                data[:, 2] = 1.0
            return Dataset(data)

        monkeypatch.setattr(podag.evaluation, "sample", degenerate)
        spec = BenchmarkSpec(
            n_nodes=(6,),
            layers=(2,),
            n=(3, 6, 40, 50, 100),
            replicates=2,
            seed=4,
            expected_edges_per_node=1.5,
            backends=("pcor", "sis", "lasso"),
            scopes=("all_edges",),
            max_sepset_size=2,
        )
        rows = textwrap.dedent(
            """\
            n_nodes,layers,n,algorithm,backend,replicate,seed,scope,tp,fp,tn,fn,tpr,fpr,shd,ci_tests
            6,2,6,pc,,0,4,all_edges,0,1,23,6,0,0.04166666667,7,16
            6,2,6,pc,,1,4,all_edges,0,1,25,4,0,0.03846153846,6,17
            6,2,6,pc_plus,,0,4,all_edges,0,1,23,6,0,0.04166666667,7,16
            6,2,6,pc_plus,,1,4,all_edges,0,1,25,4,0,0.03846153846,6,17
            6,2,6,podag,lasso,0,4,all_edges,0,0,24,6,0,0,6,2
            6,2,6,podag,lasso,1,4,all_edges,0,0,26,4,0,0,4,2
            6,2,6,podag,pcor,1,4,all_edges,0,0,26,4,0,0,4,26
            6,2,6,podag,sis,0,4,all_edges,0,0,24,6,0,0,6,11
            6,2,6,podag,sis,1,4,all_edges,0,0,26,4,0,0,4,10
            6,2,100,pc,,0,4,all_edges,5,0,24,1,0.8333333333,0,1,39
            6,2,100,pc,,1,4,all_edges,2,3,21,4,0.3333333333,0.125,4,37
            6,2,100,pc_plus,,0,4,all_edges,5,0,24,1,0.8333333333,0,1,39
            6,2,100,pc_plus,,1,4,all_edges,4,1,23,2,0.6666666667,0.04166666667,2,37
            6,2,100,podag,lasso,0,4,all_edges,4,0,24,2,0.6666666667,0,2,8
            6,2,100,podag,lasso,1,4,all_edges,4,0,24,2,0.6666666667,0,2,12
            6,2,100,podag,pcor,0,4,all_edges,4,0,24,2,0.6666666667,0,2,42
            6,2,100,podag,pcor,1,4,all_edges,5,0,24,1,0.8333333333,0,1,43
            6,2,100,podag,sis,0,4,all_edges,4,0,24,2,0.6666666667,0,2,19
            6,2,100,podag,sis,1,4,all_edges,4,0,24,2,0.6666666667,0,2,18
            """
        )
        checks = {
            3: "InsufficientDataError('gaussian engine needs n >= 4')",
            40: "DegenerateDataError('columns V0 and V1 are collinear; drop one of them')",
            50: "DegenerateDataError(\"constant column(s): ['V2']\")",
        }
        pcor = (
            "InsufficientDataError('pcor screening of node 1 conditions on a pool of 5 nodes, which needs n > 7 "
            "samples (n=6); use --backend lasso or --backend sis when nodes outnumber samples')"
        )
        labels = ("pc", "pc_plus", "podag/pcor", "podag/sis", "podag/lasso")
        failures = [((6, 2, n), rep, label, checks[n]) for n in (3,) for rep in (0, 1) for label in labels]
        failures.append(((6, 2, 6), 0, "podag/pcor", pcor))
        failures += [((6, 2, n), rep, label, checks[n]) for n in (40, 50) for rep in (0, 1) for label in labels]
        fields = [f for f in BENCHMARK_FIELDS if f != "elapsed_ms"]
        for threads in (1, 2):
            got_rows, got_failures = run_benchmark(spec, threads=threads)
            assert rows_to_csv(got_rows, fields) == rows
            assert got_failures == failures

    def test_spec_from_json(self):
        spec = BenchmarkSpec.from_json(
            '{"n_nodes": [10], "layers": [2, 3], "replicates": 4, "seed": 9,'
            ' "max_sepset_size": 2, "backends": ["pcor", "sis"]}'
        )
        assert spec.n_nodes == (10,)
        assert spec.layers == (2, 3)
        assert spec.backends == ("pcor", "sis")
        assert spec.replicates == 4
        spec = BenchmarkSpec.from_json('{"n": 300, "weight_range": [0.2, 0.8]}')
        assert spec.n == (300,)
        assert spec.weight_range == (0.2, 0.8)
        with pytest.raises(ValueError, match="unknown benchmark spec keys: replicate"):
            BenchmarkSpec.from_json('{"replicate": 5}')
        with pytest.raises(ValueError, match="weight_range must be a"):
            BenchmarkSpec.from_json('{"weight_range": 0.5}')

    @pytest.mark.parametrize(
        "key, values, choices",
        [
            ("algorithms", ["pc", "pcplus"], "pc, pc_plus, podag"),
            ("backends", ["pcor", "lars"], "pcor, sis, lasso"),
            ("scopes", ["cross_only", "skel"], "cross_only, all_edges, skeleton"),
        ],
    )
    def test_spec_rejects_unknown_names(self, key, values, choices):
        message = rf"unknown {key[:-1]} '{values[-1]}'; choose from {choices}$"
        with pytest.raises(ValueError, match=message):
            BenchmarkSpec.from_json({key: values})
        with pytest.raises(ValueError, match=message):
            BenchmarkSpec(**{key: tuple(values)})

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"max_sepset_size": -1}, "max_sepset_size must be nonnegative"),
            ({"podag_alpha": 1.5}, r"alpha must be in \(0, 1\)"),
            ({"alpha": 0}, r"alpha must be in \(0, 1\)"),
            ({"screen_alpha": 1}, r"screen_alpha must be in \(0, 1\)"),
        ],
    )
    def test_spec_rejects_bad_levels_and_cap(self, doc, message):
        with pytest.raises(ValueError, match=message):
            BenchmarkSpec.from_json({**doc, "algorithms": ["pc"]})
        with pytest.raises(ValueError, match=message):
            BenchmarkSpec(**doc)

    def test_all_backends_run(self):
        spec = BenchmarkSpec(
            n_nodes=(8,),
            layers=(2,),
            n=(150,),
            replicates=1,
            seed=2,
            expected_edges_per_node=1.0,
            algorithms=("podag",),
            backends=("pcor", "sis", "lasso"),
            scopes=("skeleton",),
            max_sepset_size=2,
        )
        rows, failures = run_benchmark(spec)
        assert failures == []
        assert {r["backend"] for r in rows} == {"pcor", "sis", "lasso"}


class TestCsvFormatting:
    def test_infinity_and_floats(self):
        rows = [{"a": math.inf, "b": 0.123456789012345, "c": 3}]
        text = rows_to_csv(rows, ["a", "b", "c"])
        assert text.splitlines()[1] == "inf,0.123456789,3"
