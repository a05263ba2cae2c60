import itertools

import pytest

from podag import (
    Dag,
    DegenerateDataError,
    GaussianEngine,
    OracleEngine,
    PartialOrdering,
    RecordingEngine,
    estimate_h0,
    estimate_h_minus_j,
    pc,
    pc_plus,
)
from podag.sem import (
    GenConfig,
    generate_layered_dag,
    random_weights,
    rng_from_seed,
    sample,
    toy_two_layer_sem,
)

from helpers import (
    counting_factorizations,
    dependent_four_columns,
    enumeration_maximal_pdag,
    random_bipartite_instance,
    random_layered_instance,
    toy_diamond,
)


def h0_false_positive_pattern(dag, ordering, k, j):
    """A directed path k -> y1 -> ... -> j running inside the second layer."""
    second = ordering.layers[1]
    first_hops = dag.children(k) & second
    reachable = dag.descendants(first_hops - {j})
    return j in reachable or bool(first_hops & {j})


def hminus_false_positive_pattern(dag, k, j):
    """An open collider: a common child of k and j."""
    return bool(dag.children(k) & dag.children(j))


class TestH0:
    def test_toy_includes_path_false_positive(self):
        sem, ordering = toy_two_layer_sem()
        res = estimate_h0(OracleEngine(sem.dag), ordering)
        assert res.pdag.directed_edges == {(0, 2), (1, 3), (0, 3)}

    def test_edgeless(self):
        ordering = PartialOrdering([{0, 1}, {2, 3}], n_nodes=4)
        res = estimate_h0(OracleEngine(Dag(4, [])), ordering)
        assert res.pdag.directed_edges == frozenset()

    def test_chain_gains_one_false_positive_per_descendant(self):
        dag = Dag(4, [(0, 1), (1, 2), (2, 3)])
        ordering = PartialOrdering([{0}, {1, 2, 3}], n_nodes=4)
        res = estimate_h0(OracleEngine(dag), ordering)
        assert res.pdag.directed_edges == {(0, 1), (0, 2), (0, 3)}

    def test_needs_two_layers(self):
        with pytest.raises(ValueError):
            estimate_h0(OracleEngine(Dag(3, [])), PartialOrdering([{0, 1, 2}], n_nodes=3))

    def test_false_positives_match_directed_path_pattern(self):
        rng = rng_from_seed(8)
        for _ in range(30):
            dag, ordering = random_bipartite_instance(rng)
            res = estimate_h0(OracleEngine(dag), ordering)
            assert dag.cross_edges(ordering) <= res.pdag.directed_edges
            for k, j in res.pdag.directed_edges - dag.edges:
                assert h0_false_positive_pattern(dag, ordering, k, j), (
                    sorted(dag.edges),
                    k,
                    j,
                )


class TestHMinusJ:
    def test_toy_includes_collider_false_positive(self):
        sem, ordering = toy_two_layer_sem()
        res = estimate_h_minus_j(OracleEngine(sem.dag), ordering)
        assert res.pdag.directed_edges == {(0, 2), (1, 3), (1, 2)}

    def test_edgeless(self):
        ordering = PartialOrdering([{0, 1}, {2, 3}], n_nodes=4)
        res = estimate_h_minus_j(OracleEngine(Dag(4, [])), ordering)
        assert res.pdag.directed_edges == frozenset()

    def test_no_within_layer_edges_means_exact(self):
        # with no second-layer edges both naive estimators equal the truth
        rng = rng_from_seed(9)
        for _ in range(25):
            dag, ordering = random_bipartite_instance(rng)
            second = sorted(ordering.layers[1])
            pruned = Dag(
                dag.n_nodes,
                [e for e in dag.edges if not (e[0] in second and e[1] in second)],
            )
            truth = pruned.cross_edges(ordering)
            assert estimate_h0(OracleEngine(pruned), ordering).pdag.directed_edges == truth
            assert estimate_h_minus_j(OracleEngine(pruned), ordering).pdag.directed_edges == truth

    def test_false_positives_match_open_collider_pattern(self):
        rng = rng_from_seed(10)
        for _ in range(30):
            dag, ordering = random_bipartite_instance(rng)
            res = estimate_h_minus_j(OracleEngine(dag), ordering)
            assert dag.cross_edges(ordering) <= res.pdag.directed_edges
            for k, j in res.pdag.directed_edges - dag.edges:
                assert hminus_false_positive_pattern(dag, k, j), (sorted(dag.edges), k, j)


class TestNaiveEstimatorBlocks:
    """h0 and h-minus-j ask one block of queries per second-layer node."""

    @pytest.mark.parametrize("adjust_second", [False, True])
    def test_blocks_replay_a_single_query_loop(self, monkeypatch, adjust_second):
        rng = rng_from_seed(21)
        dag, ordering = generate_layered_dag(
            GenConfig(n_nodes=14, expected_edges_per_node=2.0, layers=2), rng
        )
        data = sample(random_weights(dag, rng), 300, rng)
        first, second = (sorted(layer) for layer in ordering.layers)
        adjusted = first + second if adjust_second else first
        single = RecordingEngine(GaussianEngine(data))
        want = {
            (k, j)
            for j in second
            for k in first
            if not single.query(k, j, [v for v in adjusted if v not in (k, j)]).independent
        }
        assert 0 < len(want) < len(first) * len(second)
        factorizations = counting_factorizations(monkeypatch, "_factor_spd")
        block = RecordingEngine(GaussianEngine(data))
        estimator = estimate_h_minus_j if adjust_second else estimate_h0
        res = estimator(block, ordering)
        assert res.pdag.directed_edges == want
        assert block.records == single.records
        assert res.diagnostics.ci_tests == single.n_queries
        assert len(factorizations) == len(second)

    @pytest.mark.parametrize("estimator", [estimate_h0, estimate_h_minus_j])
    def test_dependent_union_names_its_columns(self, estimator):
        # V2 = V0 + V1: target V2's union holds the three columns under both
        # estimators; its tests would read rounding noise
        data, ordering = dependent_four_columns()
        engine = GaussianEngine(data)
        with pytest.raises(DegenerateDataError, match="^columns V0, V1 and V2 are linearly dependent"):
            estimator(engine, ordering, data.labels)
        assert engine.n_queries == 0


class TestPc:
    def test_diamond_collider_recovered(self):
        res = pc(OracleEngine(toy_diamond()), 4)
        assert res.pdag.directed_edges == {(1, 3), (2, 3)}
        assert res.pdag.undirected_edges == {(0, 1), (0, 2)}

    def test_edgeless_uses_exactly_level_zero_tests(self):
        res = pc(OracleEngine(Dag(4, [])), 4)
        assert res.pdag.adjacency_pairs() == frozenset()
        assert res.diagnostics.ci_tests == 6

    def test_toy_graph_matches_equivalence_class(self):
        sem, _ = toy_two_layer_sem()
        res = pc(OracleEngine(sem.dag), 4)
        assert res.pdag == enumeration_maximal_pdag(sem.dag, ())

    def test_random_oracle_instances_recover_cpdag(self):
        rng = rng_from_seed(11)
        for _ in range(25):
            dag, _ = random_layered_instance(rng, n_lo=4, n_hi=8, epn_hi=1.8)
            res = pc(OracleEngine(dag), dag.n_nodes)
            expected = enumeration_maximal_pdag(dag, ())
            # CPDAG comparison ignores node labels
            assert res.pdag.directed_edges == expected.directed_edges
            assert res.pdag.undirected_edges == expected.undirected_edges

    def test_stable_variant_runs(self):
        dag = toy_diamond()
        res = pc(OracleEngine(dag), 4, stable=True)
        assert res.pdag.directed_edges == {(1, 3), (2, 3)}


class TestPcPlus:
    def test_diamond_with_three_layers_fully_oriented(self):
        ordering = PartialOrdering([{0}, {1, 2}, {3}], n_nodes=4)
        res = pc_plus(OracleEngine(toy_diamond()), ordering)
        assert res.pdag.directed_edges == {(0, 1), (0, 2), (1, 3), (2, 3)}
        assert res.pdag.undirected_edges == frozenset()

    def test_two_layer_cross_results_match_pc(self):
        rng = rng_from_seed(12)
        for _ in range(15):
            dag, ordering = random_bipartite_instance(rng)
            base = pc(OracleEngine(dag), dag.n_nodes)
            plus = pc_plus(OracleEngine(dag), ordering)
            assert base.pdag.adjacency_pairs() == plus.pdag.adjacency_pairs()

    def test_five_layer_chain_needs_fewer_tests(self):
        edges = [(i, i + 1) for i in range(9)]
        dag = Dag(10, edges)
        ordering = PartialOrdering(
            [{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}], n_nodes=10
        )
        plain = pc(OracleEngine(dag), 10)
        plus = pc_plus(OracleEngine(dag), ordering)
        assert plus.diagnostics.ci_tests < plain.diagnostics.ci_tests
        assert plus.pdag.adjacency_pairs() == plain.pdag.adjacency_pairs()

    def test_more_oriented_than_pc_and_never_wrong(self):
        rng = rng_from_seed(13)
        for _ in range(20):
            dag, ordering = random_layered_instance(rng, n_lo=4, n_hi=9)
            base = pc(OracleEngine(dag), dag.n_nodes)
            plus = pc_plus(OracleEngine(dag), ordering)
            assert plus.diagnostics.ci_tests <= base.diagnostics.ci_tests
            assert plus.pdag.adjacency_pairs() == base.pdag.adjacency_pairs()
            assert base.pdag.directed_edges <= plus.pdag.directed_edges
            for u, v in plus.pdag.directed_edges:
                assert (u, v) in dag.edges

    def test_unlayered_nodes_never_excluded(self):
        rng = rng_from_seed(14)
        dag, base_ordering = random_layered_instance(rng, n_lo=5, n_hi=7, layers_hi=3)
        free = sorted(base_ordering.layers[-1])[-1]
        layers = [l - {free} for l in base_ordering.layers]
        layers = [l for l in layers if l]
        ordering = PartialOrdering(layers, n_nodes=dag.n_nodes, unordered={free})
        res = pc_plus(OracleEngine(dag), ordering)
        base = pc(OracleEngine(dag), dag.n_nodes)
        assert res.pdag.adjacency_pairs() == base.pdag.adjacency_pairs()


class TestSerialization:
    def test_baseline_json(self):
        sem, ordering = toy_two_layer_sem()
        res = estimate_h0(OracleEngine(sem.dag), ordering, labels=sem.dag.labels)
        text = res.to_json()
        assert '"X1"' in text and '"ci_tests"' in text
        assert res.to_edgelist().count("\n") == 3
