import numpy as np
import pytest

from podag import (
    Dag,
    GenConfig,
    Sem,
    generate_layered_dag,
    partial_correlation,
    population_covariance,
    random_weights,
    sample,
)
from podag.errors import PodagError
from podag.sem import rng_from_seed, spawn_rngs, toy_two_layer_sem

from helpers import random_faithful_sem


class TestGenerateLayeredDag:
    def test_zero_expected_edges_gives_empty_graph(self):
        cfg = GenConfig(n_nodes=10, expected_edges_per_node=0.0, layers=2)
        dag, _ = generate_layered_dag(cfg, rng_from_seed(0))
        assert dag.edges == frozenset()

    def test_single_layer_all_within(self):
        cfg = GenConfig(n_nodes=8, expected_edges_per_node=1.5, layers=1)
        dag, ordering = generate_layered_dag(cfg, rng_from_seed(1))
        assert ordering.n_layers == 1
        assert dag.cross_edges(ordering) == frozenset()

    def test_edges_respect_ordering(self):
        rng = rng_from_seed(2)
        for _ in range(20):
            cfg = GenConfig(n_nodes=12, expected_edges_per_node=2.0, layers=3)
            dag, ordering = generate_layered_dag(cfg, rng)
            for u, v in dag.edges:
                assert not ordering.orders_before(v, u)

    def test_mean_edge_count_matches_expectation(self):
        cfg = GenConfig(n_nodes=20, expected_edges_per_node=2.0, layers=2)
        rng = rng_from_seed(3)
        replicates = 10_000
        total = sum(len(generate_layered_dag(cfg, rng)[0].edges) for _ in range(replicates))
        mean = total / replicates
        assert mean == pytest.approx(20.0, rel=0.02)

    def test_infeasible_bias_raises(self):
        cfg = GenConfig(n_nodes=4, expected_edges_per_node=2.8, layers=2, cross_edge_bias=5.0)
        with pytest.raises(PodagError):
            generate_layered_dag(cfg, rng_from_seed(0))

    def test_layer_count_respected(self):
        cfg = GenConfig(n_nodes=10, expected_edges_per_node=1.0, layers=5)
        _, ordering = generate_layered_dag(cfg, rng_from_seed(4))
        assert ordering.n_layers == 5
        assert sorted(len(l) for l in ordering.layers) == [2, 2, 2, 2, 2]


class TestRandomWeights:
    def test_magnitudes_in_range(self):
        rng = rng_from_seed(5)
        cfg = GenConfig(n_nodes=15, expected_edges_per_node=2.0, layers=2)
        dag, _ = generate_layered_dag(cfg, rng)
        sem = random_weights(dag, rng)
        for k, j in dag.edges:
            assert 0.1 <= abs(sem.weights[j, k]) < 1.0

    def test_empty_dag(self):
        sem = random_weights(Dag(3, []), rng_from_seed(0))
        assert np.all(sem.weights == 0)

    def test_seed_determinism(self):
        cfg = GenConfig(n_nodes=10, expected_edges_per_node=2.0, layers=2)
        dag, _ = generate_layered_dag(cfg, rng_from_seed(6))
        w1 = random_weights(dag, rng_from_seed(7)).weights
        w2 = random_weights(dag, rng_from_seed(7)).weights
        np.testing.assert_array_equal(w1, w2)

    def test_weights_must_match_edges(self):
        dag = Dag(2, [(0, 1)])
        bad = np.zeros((2, 2))
        with pytest.raises(ValueError):
            Sem(dag, bad, np.ones(2))


class TestSample:
    def test_zero_weights_give_uncorrelated_columns(self):
        sem = Sem(Dag(3, []), np.zeros((3, 3)), np.ones(3))
        data = sample(sem, 10_000, rng_from_seed(8))
        corr = np.corrcoef(data.data, rowvar=False)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off)) < 0.1

    def test_single_edge_variance(self):
        dag = Dag(2, [(0, 1)])
        weights = np.zeros((2, 2))
        weights[1, 0] = 1.0
        sem = Sem(dag, weights, np.ones(2))
        data = sample(sem, 100_000, rng_from_seed(9))
        assert np.var(data.data[:, 1]) == pytest.approx(2.0, rel=0.05)

    def test_seed_reproducibility(self):
        sem, _ = toy_two_layer_sem()
        d1 = sample(sem, 50, rng_from_seed(10))
        d2 = sample(sem, 50, rng_from_seed(10))
        np.testing.assert_array_equal(d1.data, d2.data)
        assert d1.to_csv() == d2.to_csv()


class TestPopulationCovariance:
    def test_empty_graph_identity(self):
        sem = Sem(Dag(3, []), np.zeros((3, 3)), np.ones(3))
        np.testing.assert_allclose(population_covariance(sem).values, np.eye(3))

    def test_single_edge_closed_form(self):
        beta = 0.7
        dag = Dag(2, [(0, 1)])
        weights = np.zeros((2, 2))
        weights[1, 0] = beta
        sem = Sem(dag, weights, np.ones(2))
        np.testing.assert_allclose(
            population_covariance(sem).values,
            [[1.0, beta], [beta, beta**2 + 1.0]],
            atol=1e-12,
        )

    def test_sample_covariance_converges(self):
        sem, _ = toy_two_layer_sem()
        data = sample(sem, 1_000_000, rng_from_seed(11))
        emp = np.cov(data.data, rowvar=False, bias=True)
        pop = population_covariance(sem).values
        np.testing.assert_allclose(emp, pop, rtol=0.01)

    def test_partial_correlations_converge_with_n(self):
        sem, _ = toy_two_layer_sem()
        pop = population_covariance(sem)
        target = partial_correlation(pop, 0, 2, {3})
        errors = {}
        for n in (100, 10_000):
            errs = []
            for seed in range(5):
                data = sample(sem, n, rng_from_seed(1000 + seed))
                emp = np.cov(data.data, rowvar=False, bias=True)
                from podag import CovMatrix

                errs.append(abs(partial_correlation(CovMatrix(emp, n=n), 0, 2, {3}) - target))
            errors[n] = np.mean(errs)
        assert errors[10_000] < errors[100]


class TestFaithfulSem:
    def test_redraw_count_reported(self):
        rng = rng_from_seed(12)
        dag = Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        sem, redraws = random_faithful_sem(dag, rng)
        assert redraws >= 0
        assert set(map(tuple, np.argwhere(sem.weights != 0))) == {(j, k) for k, j in dag.edges}

    def test_rejects_large_graphs(self):
        rng = rng_from_seed(0)
        with pytest.raises(ValueError):
            random_faithful_sem(Dag(20, []), rng)


class TestSemJson:
    def test_round_trip(self):
        sem, ordering = toy_two_layer_sem()
        text = sem.to_json(ordering)
        back, back_ordering = Sem.from_json(text)
        assert back.dag == sem.dag
        np.testing.assert_array_equal(back.weights, sem.weights)
        assert back_ordering.layers == ordering.layers

    def test_rng_algorithm_stamped(self):
        sem, ordering = toy_two_layer_sem()
        assert '"rng": "philox4x64"' in sem.to_json(ordering)


class TestSpawn:
    def test_spawned_streams_differ_and_reproduce(self):
        a1, b1 = spawn_rngs(42, 2)
        a2, b2 = spawn_rngs(42, 2)
        x1, y1 = a1.random(4), b1.random(4)
        x2, y2 = a2.random(4), b2.random(4)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)
        assert not np.allclose(x1, y1)
