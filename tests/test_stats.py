import dataclasses
import functools
import gc
import itertools
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpocon, dpotrf, dpotri, dpotrs
from scipy.stats import norm

import podag
from podag import (
    BenchmarkSpec,
    CiEngine,
    CiVerdict,
    CovMatrix,
    Dag,
    Dataset,
    GaussianEngine,
    OracleEngine,
    PartialOrdering,
    PodagConfig,
    RecordingEngine,
    fisher_z_test,
    learn,
    partial_correlation,
    pc,
    sample_covariance,
    screen_all,
)
from podag.errors import (
    DegenerateDataError,
    InsufficientDataError,
    LabelMismatchError,
    PodagError,
    SingularityError,
)
from podag.sem import (
    GenConfig,
    generate_layered_dag,
    population_covariance,
    random_weights,
    rng_from_seed,
    sample,
    toy_two_layer_sem,
)
from podag.cli import build_parser
from podag.screening import BACKENDS
from podag.stats import _bordered_rhos, _factor_spd, _fisher_z_statistics, _read_stage, fisher_z_threshold

from helpers import (
    counting_factorizations,
    dependent_four_columns,
    random_faithful_sem,
    random_layered_instance,
    toy_diamond,
)


def run_python(code):
    """Stripped stdout of ``python -c code`` in a fresh interpreter that imports this checkout's podag."""
    src = Path(podag.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return done.stdout.strip()


def random_pd(rng, m):
    a = rng.normal(size=(m + 2, m))
    return a.T @ a / (m + 2)


def precision_pcor(sigma, i, j, s):
    """Oracle: -Omega_ij / sqrt(Omega_ii Omega_jj) on the submatrix."""
    idx = sorted(s) + [i, j]
    omega = np.linalg.inv(sigma[np.ix_(idx, idx)])
    a, b = idx.index(i), idx.index(j)
    return -omega[a, b] / np.sqrt(omega[a, a] * omega[b, b])


def residual_corr(sigma, i, j, s):
    """Oracle: correlate the residuals of regressing i and j on s."""
    s = sorted(s)
    if not s:
        return sigma[i, j] / np.sqrt(sigma[i, i] * sigma[j, j])
    sss = sigma[np.ix_(s, s)]
    beta_i = np.linalg.solve(sss, sigma[np.ix_(s, [i])])[:, 0]
    beta_j = np.linalg.solve(sss, sigma[np.ix_(s, [j])])[:, 0]

    def residual_cov(a, b, beta_a, beta_b):
        return (
            sigma[a, b]
            - beta_a @ sigma[np.ix_(s, [b])][:, 0]
            - beta_b @ sigma[np.ix_(s, [a])][:, 0]
            + beta_a @ sss @ beta_b
        )

    cij = residual_cov(i, j, beta_i, beta_j)
    cii = residual_cov(i, i, beta_i, beta_i)
    cjj = residual_cov(j, j, beta_j, beta_j)
    return cij / np.sqrt(cii * cjj)


def reference_fisher_z(cov, n, i, j, s, alpha):
    """Oracle: the Fisher z test on cho_factor/cho_solve and scipy.stats.norm."""
    s = sorted(set(int(v) for v in s))
    i, j = min(i, j), max(i, j)
    sigma = cov.values
    d, vii, vjj = sigma[i, j], sigma[i, i], sigma[j, j]
    if s:
        factor = cho_factor(sigma[np.ix_(s, s)], lower=True, check_finite=False)
        solved = cho_solve(factor, sigma[np.ix_(s, [i, j])], check_finite=False)
        d = float(d - sigma[i, s] @ solved[:, 1])
        vii = float(vii - sigma[i, s] @ solved[:, 0])
        vjj = float(vjj - sigma[j, s] @ solved[:, 1])
    rho = float(np.clip(d / np.sqrt(vii * vjj), -1.0, 1.0))
    z = np.sqrt(n - len(s) - 3) * np.arctanh(rho)
    return CiVerdict(independent=bool(abs(z) <= norm.ppf(1.0 - alpha / 2.0)), statistic=float(z))


def regression_coefficient(sigma, i, j, s):
    """Coefficient of variable i when regressing j on s + {i}."""
    idx = sorted(s) + [i]
    block = sigma[np.ix_(idx, idx)]
    rhs = sigma[np.ix_(idx, [j])][:, 0]
    return np.linalg.solve(block, rhs)[idx.index(i)]


class TestSampleCovariance:
    def test_hand_computed_toy(self):
        d = Dataset([[1, 2], [2, 4], [3, 6]])
        cov = sample_covariance(d)
        np.testing.assert_allclose(
            cov.values, [[2 / 3, 4 / 3], [4 / 3, 8 / 3]], atol=1e-14
        )

    def test_identical_columns(self):
        d = Dataset([[1.0, 1.0], [2.0, 2.0], [4.0, 4.0]])
        cov = sample_covariance(d)
        assert cov.values[0, 1] == pytest.approx(cov.values[0, 0])

    def test_constant_column_degenerate(self):
        d = Dataset([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        with pytest.raises(DegenerateDataError):
            sample_covariance(d)

    def test_single_row_insufficient(self):
        with pytest.raises(InsufficientDataError):
            sample_covariance(Dataset([[1.0, 2.0]]))


class TestCovMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            CovMatrix([[1.0, 0.5], [0.2, 1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        values = [[1.0, bad, 0.2], [bad, 1.0, 0.1], [0.2, 0.1, 1.0]]
        with pytest.raises(ValueError, match="covariance contains non-finite entries"):
            CovMatrix(values, n=50)

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(DegenerateDataError):
            CovMatrix([[0.0, 0.0], [0.0, 1.0]])

    def test_repeated_labels_are_named(self):
        labels = ["A", "B", "A", "C", "B"]
        message = r"duplicate column labels: \['A', 'B'\]"
        with pytest.raises(LabelMismatchError, match=message):
            CovMatrix(np.eye(5), n=10, labels=labels)
        with pytest.raises(LabelMismatchError, match=message):
            Dataset(rng_from_seed(1).normal(size=(10, 5)), labels)


class TestPartialCorrelation:
    def test_identity_gives_zero(self):
        cov = CovMatrix(np.eye(4), n=10)
        for s in [(), (2,), (2, 3)]:
            assert partial_correlation(cov, 0, 1, s) == 0.0

    def test_single_edge_sem_marginal(self):
        cov = CovMatrix([[1.0, 1.0], [1.0, 2.0]], n=10)
        assert partial_correlation(cov, 0, 1, ()) == pytest.approx(1 / np.sqrt(2))

    def test_chain_conditional_zero(self):
        # chain 0 -> 1 -> 2 with unit weights and noise
        m = np.array([[1.0, 0, 0], [1.0, 1.0, 0], [1.0, 1.0, 1.0]])
        cov = CovMatrix(m @ m.T)
        assert partial_correlation(cov, 0, 2, {1}) == pytest.approx(0.0, abs=1e-12)
        assert residual_corr(cov.values, 0, 2, [1]) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        rng = rng_from_seed(8)
        sigma = random_pd(rng, 5)
        cov = CovMatrix(sigma)
        for s in [(), (3,), (3, 4)]:
            assert partial_correlation(cov, 0, 1, s) == partial_correlation(cov, 1, 0, s)

    def test_overlap_rejected(self):
        cov = CovMatrix(np.eye(3))
        with pytest.raises(ValueError):
            partial_correlation(cov, 0, 1, {1})

    def test_singular_conditioning_block(self):
        sigma = np.eye(4)
        sigma[2, 3] = sigma[3, 2] = 1.0  # S block perfectly collinear
        cov = CovMatrix(sigma)
        with pytest.raises(SingularityError) as err:
            partial_correlation(cov, 1, 0, {3, 2})
        assert err.value.context == (0, 1, (2, 3))

    def test_ill_conditioned_block_caught_by_condition_estimate(self):
        sigma = np.eye(4)
        sigma[2, 3] = sigma[3, 2] = 1.0 - 1e-14  # positive definite, rcond near 1e-14
        cov = CovMatrix(sigma)
        with pytest.raises(SingularityError) as err:
            partial_correlation(cov, 0, 1, [2, 3])
        assert err.value.context == (0, 1, (2, 3))

    def test_indefinite_conditioning_block(self):
        sigma = np.eye(4)
        sigma[2, 3] = sigma[3, 2] = 2.0  # S block has a negative eigenvalue
        cov = CovMatrix(sigma)
        with pytest.raises(SingularityError) as err:
            partial_correlation(cov, 0, 1, [2, 3])
        assert err.value.context == (0, 1, (2, 3))
        # in a stage, the block of the pool [2, 3] with target 0 fails the guard alone
        _, read, failed = _read_stage(cov.values, [([0, 1], 1, []), ([2, 3, 0], 2, [])])
        assert failed == [1]
        assert read.tolist() == [True, True, False, False, False]

    def test_matches_precision_and_residual_oracles(self):
        rng = rng_from_seed(2024)
        for _ in range(300):
            m = int(rng.integers(3, 7))
            sigma = random_pd(rng, m)
            cov = CovMatrix(sigma)
            i, j = rng.choice(m, size=2, replace=False)
            rest = [v for v in range(m) if v not in (i, j)]
            size = int(rng.integers(0, len(rest) + 1))
            s = list(rng.choice(rest, size=size, replace=False)) if size else []
            got = partial_correlation(cov, int(i), int(j), s)
            assert got == pytest.approx(precision_pcor(sigma, int(i), int(j), s), abs=1e-9)
            assert got == pytest.approx(residual_corr(sigma, int(i), int(j), s), abs=1e-9)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 9))
    def test_block_equals_per_pair_partial_correlations(self, seed, m):
        rng = np.random.default_rng(seed)
        cov = CovMatrix(random_pd(rng, m))
        j, *pool = (int(v) for v in rng.permutation(m)[: int(rng.integers(2, m + 1))])
        got, read, _ = _read_stage(cov.values, [(pool + [j], len(pool), [])])
        assert read.all()
        for k, rho in zip(pool, got):
            rest = [v for v in pool if v != k]
            assert rho == pytest.approx(partial_correlation(cov, k, j, rest), abs=1e-10), (k, j, pool)

    def test_zero_equivalence_with_regression_coefficient(self):
        # the three formulations share their zero set: regression
        # coefficient, partial correlation, and the conditional covariance
        rng = rng_from_seed(77)
        sems = 0
        while sems < 20:
            dag, _ = random_layered_instance(rng, n_lo=4, n_hi=7)
            sem, _ = random_faithful_sem(dag, rng)
            sigma = population_covariance(sem).values
            cov = CovMatrix(sigma)
            m = dag.n_nodes
            for i, j in itertools.combinations(range(m), 2):
                rest = [v for v in range(m) if v not in (i, j)]
                for size in range(min(len(rest), 3) + 1):
                    for s in itertools.combinations(rest, size):
                        rho = partial_correlation(cov, i, j, s)
                        beta = regression_coefficient(sigma, i, j, s)
                        schur = sigma[i, j] - (
                            sigma[np.ix_(list(s), [i])][:, 0]
                            @ np.linalg.solve(
                                sigma[np.ix_(list(s), list(s))],
                                sigma[np.ix_(list(s), [j])][:, 0],
                            )
                            if s
                            else 0.0
                        )
                        flags = (abs(rho) < 1e-9, abs(beta) < 1e-9, abs(schur) < 1e-9)
                        assert len(set(flags)) == 1, (rho, beta, schur)
            sems += 1

    def test_population_zero_iff_dsep(self):
        rng = rng_from_seed(31)
        for _ in range(8):
            dag, _ = random_layered_instance(rng, n_lo=4, n_hi=7)
            sem, _ = random_faithful_sem(dag, rng)
            cov = population_covariance(sem)
            m = dag.n_nodes
            for i, j in itertools.combinations(range(m), 2):
                rest = [v for v in range(m) if v not in (i, j)]
                for size in range(len(rest) + 1):
                    for s in itertools.combinations(rest, size):
                        rho = partial_correlation(cov, i, j, s)
                        assert (abs(rho) <= 1e-8) == dag.is_dsep(i, j, s)


class TestFisherZ:
    def test_zero_correlation_independent(self):
        cov = CovMatrix(np.eye(2), n=100)
        v = fisher_z_test(cov, 100, 0, 1, (), alpha=0.05)
        assert v.independent
        assert v.statistic == 0.0

    def test_large_sample_detects_small_correlation(self):
        sigma = np.array([[1.0, 0.1], [0.1, 1.0]])
        v = fisher_z_test(CovMatrix(sigma), 1000, 0, 1, (), alpha=0.05)
        assert v.statistic == pytest.approx(3.168, abs=0.01)
        assert not v.independent

    def test_small_sample_misses_small_correlation(self):
        sigma = np.array([[1.0, 0.1], [0.1, 1.0]])
        v = fisher_z_test(CovMatrix(sigma), 20, 0, 1, (), alpha=0.05)
        assert v.statistic == pytest.approx(0.414, abs=0.01)
        assert v.independent

    def test_degrees_of_freedom_guard(self):
        cov = CovMatrix(np.eye(5), n=6)
        with pytest.raises(InsufficientDataError):
            fisher_z_test(cov, 6, 0, 1, (2, 3, 4), alpha=0.05)

    def test_degrees_of_freedom_guard_precedes_factoring(self):
        sigma = np.eye(5)
        sigma[3, 4] = sigma[4, 3] = 1.0  # singular, but the guard fires first
        with pytest.raises(InsufficientDataError):
            fisher_z_test(CovMatrix(sigma), 6, 0, 1, (2, 3, 4, 4), alpha=0.05)

    def test_verdicts_equal_reference_formula(self):
        rng = rng_from_seed(4242)
        dag, _ = random_layered_instance(rng, n_lo=12, n_hi=13)
        sem = random_weights(dag, rng)
        n = 150
        cov = sample_covariance(sample(sem, n, rng))
        verdicts = set()
        for _ in range(400):
            i, j = (int(v) for v in rng.choice(12, size=2, replace=False))
            rest = [v for v in range(12) if v not in (i, j)]
            s = [int(v) for v in rng.choice(rest, size=int(rng.integers(0, 9)), replace=False)]
            alpha = float(rng.choice([0.5, 0.1, 0.05, 0.01, 0.005, 0.001]))
            got = fisher_z_test(cov, n, i, j, s, alpha)
            assert got == reference_fisher_z(cov, n, i, j, s, alpha)
            verdicts.add(got.independent)
        assert verdicts == {True, False}

    def test_import_leaves_scipy_stats_unloaded(self):
        # nor scipy.linalg's or scipy.special's package import: LAPACK is bound from its extension
        code = "import sys, podag; print([m in sys.modules for m in ('scipy.stats', 'scipy.linalg', 'scipy.special')])"
        assert run_python(code) == "[False, False, False]"

    @pytest.mark.parametrize("first", ["podag", "scipy.linalg"])
    def test_lapack_routines_are_scipys(self, first):
        second = "scipy.linalg" if first == "podag" else "podag"
        code = (
            f"import {first}, {second}, podag.stats, scipy.linalg.lapack as lapack; "
            "print(all(getattr(podag.stats, f) is getattr(lapack, f) "
            "for f in ('dpotrf', 'dpotri', 'dpotrs', 'dpocon')))"
        )
        assert run_python(code) == "True"

    def test_lapack_fallback_when_extension_file_missing(self):
        # scipy's linalg folder is not where scipy.__file__ points: the package import binds LAPACK
        sigma = [[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]]
        code = (
            "import sys, scipy; scipy.__file__ = '/no/such/folder/scipy/__init__.py'; "
            "import podag, podag.stats, scipy.linalg.lapack as lapack; "
            "print('scipy.linalg' in sys.modules, podag.stats.dpotrf is lapack.dpotrf, "
            f"podag.fisher_z_test(podag.CovMatrix({sigma}), 100, 0, 1, (2,), 0.05))"
        )
        want = fisher_z_test(CovMatrix(np.array(sigma)), 100, 0, 1, (2,), 0.05)
        assert run_python(code) == f"True True {want}"

    def test_threshold_within_8_ulp_of_ndtri(self):
        from scipy.special import ndtri

        parser_args = ["learn", "--data", "d", "--layering", "l", "-o", "o"]
        cli_args = build_parser().parse_args(parser_args)
        defaults = {cli_args.alpha, cli_args.screen_alpha}
        for config in (PodagConfig(), BenchmarkSpec()):
            defaults |= {getattr(config, f.name) for f in dataclasses.fields(config) if f.name.endswith("alpha")}
        assert {0.05, 0.5, 0.005} <= defaults
        alphas = np.concatenate([np.logspace(-12, np.log10(0.999), 10_000), sorted(defaults)])
        for alpha in alphas.tolist():
            want = float(ndtri(1.0 - alpha / 2.0))
            assert abs(fisher_z_threshold(alpha) - want) <= 8 * math.ulp(want), alpha
        assert fisher_z_threshold(1e-20) == float(ndtri(1.0)) == math.inf

    def test_perfect_correlation_dependent(self):
        sigma = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
        v = fisher_z_test(CovMatrix(sigma), 50, 0, 1, (), alpha=0.05)
        assert not v.independent
        assert v.statistic > 100  # rho = 1 - 4e-16, so z = sqrt(47) atanh(rho) is about 123.6
        exact = fisher_z_test(CovMatrix(np.ones((2, 2))), 50, 0, 1, (), alpha=0.05)
        assert exact == CiVerdict(independent=False, statistic=np.inf)

    @pytest.mark.parametrize("s", [(), (3,)])
    def test_perfect_negative_correlation_dependent(self, s):
        # V1 = -V0, and V2, V3 are independent of both: rho(0, 1 | s) is exactly -1
        sigma = np.eye(4)
        sigma[0, 1] = sigma[1, 0] = -1.0
        cov = CovMatrix(sigma, n=50)
        want = CiVerdict(independent=False, statistic=-np.inf)
        assert fisher_z_test(cov, 50, 0, 1, s, alpha=0.05) == want
        engine = GaussianEngine(cov)
        assert engine.query(1, 0, s) == want
        assert block_verdicts(engine, 1, [0, 2], s) == [want, engine.query(2, 1, s)]


class TestEngines:
    def test_oracle_engine_toy(self):
        sem, _ = toy_two_layer_sem()
        eng = OracleEngine(sem.dag)
        assert eng.query(0, 3, {1, 2}).independent
        assert not eng.query(0, 1, ()).independent

    def test_oracle_engine_diamond_collider(self):
        eng = OracleEngine(toy_diamond())
        assert not eng.query(1, 2, {0, 3}).independent
        assert eng.query(1, 2, {0}).independent

    def test_counter_counts_memoized_repeats(self):
        eng = OracleEngine(toy_diamond())
        for _ in range(5):
            eng.query(1, 2, {0})
        assert eng.n_queries == 5

    def test_counter_exact_under_threads(self):
        eng = OracleEngine(toy_diamond())

        def hammer():
            for _ in range(200):
                eng.query(0, 3, ())

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert eng.n_queries == 1600

    def test_recording_counts_exact_under_threads(self):
        inner = OracleEngine(toy_diamond())
        rec = RecordingEngine(inner)

        def hammer():
            for _ in range(300):
                rec.query(0, 3, ())
                rec._query_first(0, 3, frozenset(), [(1,), (2,), (1, 2)])  # the third separates

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert rec.n_queries == len(rec.records) == inner.n_queries == 2400 * 4

    def test_determinism_within_engine(self):
        sem, _ = toy_two_layer_sem()
        data = sample(sem, 200, rng_from_seed(4))
        eng = GaussianEngine(data, alpha=0.05)
        first = eng.query(0, 2, {1})
        again = eng.query(0, 2, {1})
        assert first == again

    def test_gaussian_engine_constant_column_errors_at_construction(self):
        data = Dataset(np.column_stack([np.arange(10.0), np.ones(10)]))
        with pytest.raises(DegenerateDataError):
            GaussianEngine(data, alpha=0.05)

    def test_gaussian_engine_true_independence_rate(self):
        # X2 and Y1 are d-separated by X1 in the toy SEM: at alpha=0.05 the
        # test should call independence in at least 90% of seeds
        sem, _ = toy_two_layer_sem()
        hits = 0
        dep_hits = 0
        for seed in range(100):
            data = sample(sem, 1000, rng_from_seed(seed))
            eng = GaussianEngine(data, alpha=0.05)
            hits += eng.query(1, 2, {0}).independent
            dep_hits += not eng.query(0, 2, {1}).independent
        assert hits >= 90
        assert dep_hits == 100  # true edge, strong signal

    def test_recording_engine_records_in_call_order(self):
        rec = RecordingEngine(OracleEngine(toy_diamond()))
        rec.query(0, 1, ())
        rec.query(1, 2, {0})
        assert rec.records == [(0, 1, frozenset()), (1, 2, frozenset({0}))]
        assert rec.n_queries == 2

    def test_repeated_query_reaches_decide_every_time(self):
        class Counting(CiEngine):
            def __init__(self):
                super().__init__()
                self.calls = []

            def _decide(self, i, j, s):
                self.calls.append((i, j, s))
                return CiVerdict(independent=True, statistic=0.0)

        eng = Counting()
        for _ in range(3):
            eng.query(2, 0, [1])
        assert eng.calls == [(0, 2, frozenset({1}))] * 3
        assert eng.n_queries == 3

    @pytest.mark.parametrize("kind", ["gaussian", "oracle", "recording"])
    @pytest.mark.parametrize("i, j, s", [(-1, 2, ()), (0, 1, (-2,)), (8, 1, ()), (0, 1, (3, 8))])
    def test_nodes_outside_the_engine_are_refused(self, kind, i, j, s):
        # a negative index once read the node it wraps around to
        data = Dataset(np.random.default_rng(1).standard_normal((40, 8)))
        eng = {
            "gaussian": lambda: GaussianEngine(data),
            "oracle": lambda: OracleEngine(Dag(8, [(0, 1)])),
            "recording": lambda: RecordingEngine(GaussianEngine(data)),
        }[kind]()
        assert eng.n_nodes == 8
        with pytest.raises(ValueError, match=r"node index -?\d+ out of range \[0, 8\)"):
            eng.query(i, j, s)
        assert eng.n_queries == 0

    @pytest.mark.parametrize("i, j, s", [(-1, 2, ()), (0, 1, (-2,)), (4, 1, ()), (0, 1, (4,))])
    def test_partial_correlation_refuses_nodes_outside_the_matrix(self, i, j, s):
        with pytest.raises(ValueError, match=r"out of range \[0, 4\)"):
            partial_correlation(CovMatrix(np.eye(4), n=10), i, j, s)

    @pytest.mark.parametrize("i, j, s", [(1, 1, ()), (1, 2, (1,)), (1, 2, (0, 2))])
    def test_invalid_recording_query_is_neither_counted_nor_recorded(self, i, j, s):
        inner = OracleEngine(toy_diamond())
        rec = RecordingEngine(inner)
        with pytest.raises(ValueError):
            rec.query(i, j, s)
        assert rec.records == []
        assert rec.n_queries == 0
        assert inner.n_queries == 0


def outcome(decide):
    """A verdict, or the type, message and context of the error it raised."""
    try:
        return decide()
    except (SingularityError, InsufficientDataError) as err:
        return type(err), str(err), getattr(err, "context", None)


def same_outcome(got, want):
    """Equal errors, or equal verdicts whose statistics agree within 1e-9."""
    if not isinstance(want, CiVerdict):
        return got == want
    return (
        isinstance(got, CiVerdict)
        and got.independent == want.independent
        and got.statistic == pytest.approx(want.statistic, rel=1e-9, abs=1e-9)
    )


def block_verdicts(engine, b, sources, cond):
    """``engine._query_block(b, sources, cond)`` as a list of :class:`CiVerdict`, in source order."""
    independent, statistics = engine._query_block(b, list(sources), frozenset(cond))
    return [CiVerdict(independent=bool(i), statistic=float(z)) for i, z in zip(independent, statistics)]


class CheckingEngine(CiEngine):
    """Answers through a Gaussian engine and keeps what fisher_z_test says to each query."""

    def __init__(self, inner, n):
        super().__init__()
        self.inner = inner
        self.n = n
        self.replay = []

    def _decide(self, i, j, s):
        got = self.inner.query(i, j, s)
        want = fisher_z_test(self.inner.cov, self.n, i, j, s, self.inner.alpha)
        self.replay.append((s, got, want))
        return got


def learn_p120_fit():
    """Data, ordering and config of a fit of the benchmark's learn-p120 kind: p=120, L=5, n=1000."""
    rng = rng_from_seed(120)
    dag, ordering = generate_layered_dag(
        GenConfig(n_nodes=120, expected_edges_per_node=3.0, layers=5), rng
    )
    data = sample(random_weights(dag, rng), 1000, rng)
    cfg = PodagConfig(alpha=0.005, learn_within_layers=True, max_sepset_size=3, on_conflict="ignore")
    return data, ordering, cfg


class TestUnionPrecision:
    """GaussianEngine reads rho off the precision matrix of each conditioning union."""

    def test_learn_fit_replays_fisher_z_verdicts(self, monkeypatch):
        data, ordering, cfg = learn_p120_fit()
        checking = CheckingEngine(GaussianEngine(data, alpha=cfg.alpha), data.n)
        learn(data, ordering, cfg, engine=checking)
        conditioned = sum(1 for s, _, _ in checking.replay if s)
        assert conditioned > 1000
        assert {got.independent for _, got, _ in checking.replay} == {True, False}
        assert all(same_outcome(got, want) for _, got, want in checking.replay)
        # the checking wrapper asks one query at a time; through the plain
        # engine the same fit asks level-0 blocks, which share their unions
        factorizations = counting_factorizations(monkeypatch)
        learn(data, ordering, cfg, engine=GaussianEngine(data, alpha=cfg.alpha))
        assert 0 < len(factorizations) < conditioned / 2

    def test_factorizations_per_learn_fit_pinned(self, monkeypatch):
        # the 96 targets with a non-empty before set share 4 of them,
        # one stage-0 factorization each
        data, ordering, cfg = learn_p120_fit()
        engine = GaussianEngine(data, alpha=cfg.alpha)
        factorizations = counting_factorizations(monkeypatch, "_factor_spd")
        result = learn(data, ordering, cfg, engine=engine)
        assert len(factorizations) == 243
        assert result.diagnostics.ci_tests == 14915

    def test_condition_estimates_per_learn_fit_pinned(self, monkeypatch):
        # the diagonal bound accepts every block the fit factors, so no
        # guarded factorization falls back to dpocon
        data, ordering, cfg = learn_p120_fit()
        factorizations = counting_factorizations(monkeypatch, "_factor_spd")
        estimates = counting_factorizations(monkeypatch, "dpocon")
        learn(data, ordering, cfg, engine=GaussianEngine(data, alpha=cfg.alpha))
        assert (len(factorizations), len(estimates)) == (243, 0)

    def test_learn_fit_seldom_runs_the_cyclic_collector(self):
        # level 0 keeps one set of removed sources and one separator group
        # per target, not a few tuples per test, so a fit allocates too
        # few long-lived containers to trigger many generation-0 passes
        data, ordering, cfg = learn_p120_fit()
        threshold = gc.get_threshold()
        gc.collect()
        gc.set_threshold(700, 10, 10)
        try:
            before = gc.get_stats()[0]["collections"]
            learn(data, ordering, cfg)
            collections = gc.get_stats()[0]["collections"] - before
        finally:
            gc.set_threshold(*threshold)
        assert collections <= 8  # 6 measured; 20 while level 0 kept a few tuples per test

    def test_engine_is_unchanged_by_a_fit(self):
        data, ordering, cfg = learn_p120_fit()
        engine = GaussianEngine(data, alpha=cfg.alpha)
        built = dict(vars(engine))
        learn(data, ordering, cfg, engine=engine)
        after = dict(vars(engine))
        assert after.pop("_n_queries") > built.pop("_n_queries") == 0
        assert after.keys() == built.keys()
        assert all(after[key] is built[key] for key in built)

    def test_threads_sharing_an_engine_get_the_sequential_verdicts(self):
        rng = rng_from_seed(32)
        data = Dataset(rng.normal(size=(300, 10)) @ rng.normal(size=(10, 10)))
        # each thread cycles through pairs of its own union while the
        # threads interleave; the engine keeps no state between queries
        unions = [(0, 1, 2, 3, 4, 5), (3, 4, 5, 6, 7, 8, 9)]
        work = [
            [(i, j, set(u) - {i, j}) for i, j in itertools.combinations(u, 2)] * 20 for u in unions
        ]
        alone = GaussianEngine(data)
        expected = [[alone.query(*q) for q in queries] for queries in work]
        shared = GaussianEngine(data)
        results = [[], []]

        def run(k):
            results[k].extend(shared.query(*q) for q in work[k])

        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert results == expected

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(4, 9),
        n=st.integers(6, 400),
        alpha=st.sampled_from([0.5, 0.05, 0.001]),
        plan=st.lists(st.tuples(st.integers(0, 2**16), st.integers(1, 4)), min_size=1, max_size=6),
    )
    def test_revisited_unions_give_fisher_z_verdicts(self, seed, m, n, alpha, plan):
        rng = np.random.default_rng(seed)
        cov = CovMatrix(random_pd(rng, m), n=n)
        engine = GaussianEngine(cov, alpha=alpha)
        for pick, repeats in plan + plan:  # the second pass returns to every union
            local = np.random.default_rng(pick)
            union = local.choice(m, size=int(local.integers(2, m + 1)), replace=False)
            pairs = list(itertools.combinations(union.tolist(), 2))
            for k in local.choice(len(pairs), size=min(repeats, len(pairs)), replace=False):
                i, j = pairs[k]
                s = [v for v in union.tolist() if v not in (i, j)]
                got = outcome(lambda: engine.query(j, i, s))
                want = outcome(lambda: fisher_z_test(cov, n, i, j, s, alpha))
                assert same_outcome(got, want), (i, j, s)

    def test_singular_union_falls_back_to_fisher_z(self, monkeypatch):
        data, _ = dependent_four_columns()
        engine = GaussianEngine(data)
        cov = engine.cov
        factorizations = counting_factorizations(monkeypatch)
        queries = [(0, 2, {1}), (0, 1, {2}), (0, 1, {2, 3}), (0, 3, {1, 2}), (3, 2, {0, 1})]
        verdicts = []
        for i, j, s in queries:
            union = sorted(s | {i, j})
            with pytest.raises(SingularityError):
                _factor_spd(cov.values[np.ix_(union, union)], context=None)
            _factor_spd(cov.values[np.ix_(sorted(s), sorted(s))], context=None)  # S itself is fine
            got = outcome(lambda: engine.query(i, j, s))
            assert got == outcome(lambda: fisher_z_test(cov, data.n, i, j, s, 0.05)), (i, j, s)
            assert got == outcome(lambda: engine.query(i, j, s))  # the failure is not kept
            verdicts.append(got.independent)
        assert len(factorizations) == 2 * len(queries)
        # given V1, V0 and V2 move together (rho near 1); given the other two,
        # V0 or V2 keeps only rounding noise, which shows no link to V3
        assert verdicts == [False, False, False, True, True]

    def test_degrees_of_freedom_guard_precedes_the_union(self, monkeypatch):
        factorizations = counting_factorizations(monkeypatch)
        engine = GaussianEngine(CovMatrix(np.eye(5), n=6))
        with pytest.raises(InsufficientDataError, match=r"n=6, \|s\|=3"):
            engine.query(0, 1, (2, 3, 4))
        assert factorizations == []


def conditioned_block(seed, m, exponent, spread):
    """A symmetric positive definite block with eigenvalues from 1 down to ``10**-exponent``.

    Its eigenvectors are random and its diagonal is then rescaled by
    factors whose squares span up to ``10**spread``.
    """
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    eigenvalues = 10.0 ** -np.concatenate(([0.0, exponent], rng.uniform(0, exponent, m)))[:m]
    scale = 10.0 ** (rng.uniform(0, spread, m) / 2)
    block = (q * eigenvalues) @ q.T * np.outer(scale, scale)
    return (block + block.T) / 2


def dependent_unions():
    """The covariance blocks of every set of two or more of ``dependent_four_columns``' columns."""
    data, _ = dependent_four_columns()
    sigma = sample_covariance(data).values
    return [
        sigma[np.ix_(union, union)]
        for size in range(2, 5)
        for union in itertools.combinations(range(4), size)
    ]


def dpocon_verdict(block):
    """``(factor, rcond)`` from ``dpotrf`` and ``dpocon`` alone; rcond is None where either fails."""
    factor, info = dpotrf(block, lower=1, clean=0)
    if info != 0:
        return factor, None
    rcond, info = dpocon(factor, float(np.abs(block).sum(axis=0).max()), uplo=b"L")
    return factor, (rcond if info == 0 else None)


class TestConditionGuard:
    """_factor_spd skips dpocon only where dpocon would accept the block by a wide margin."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        block=st.one_of(
            st.builds(
                conditioned_block,
                seed=st.integers(0, 2**32 - 1),
                m=st.integers(1, 8),
                exponent=st.one_of(st.floats(9, 14), st.floats(0, 9)),
                spread=st.one_of(st.just(0.0), st.floats(0, 8)),
            ),
            st.sampled_from(dependent_unions()),
            st.sampled_from([np.diag([np.inf, np.inf]), np.array([[np.inf]]), np.diag([np.nan, 1.0])]),
        )
    )
    def test_raises_exactly_when_dpocon_rejects(self, block):
        factor, rcond = dpocon_verdict(block)
        rejected = rcond is None or rcond < podag.stats.RCOND_MIN
        with pytest.MonkeyPatch.context() as patch:
            estimates = counting_factorizations(patch, "dpocon")
            try:
                got = _factor_spd(block, context=None)
            except SingularityError:
                got = None
        assert (got is None) == rejected, rcond
        if got is not None:
            assert np.array_equal(got[0], factor)  # the factor is kept for solves
            assert np.array_equal(got[1], dpotri(factor, lower=1)[0])
            if not estimates:  # the bound accepted the block without dpocon
                assert rcond >= podag.stats.RCOND_MIN * podag.stats.RCOND_MARGIN


class TestBlockQueries:
    """_query_block answers a target's level-0 tests as the single queries would."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(4, 9),
        n=st.integers(6, 400),
        alpha=st.sampled_from([0.5, 0.05, 0.001]),
        dependent=st.booleans(),
    )
    def test_block_gives_the_single_query_verdicts(self, seed, m, n, alpha, dependent):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(m + 2, m))
        if dependent:  # one column a combination of two others
            u, v, w = rng.choice(m, size=3, replace=False)
            x[:, w] = x[:, u] + rng.normal() * x[:, v]
        cov = CovMatrix(x.T @ x / (m + 2), n=n)
        b = int(rng.integers(m))
        others = [v for v in range(m) if v != b]
        cond = {v for v in others if rng.random() < 0.6}
        sources = [int(v) for v in rng.permutation(others)[: int(rng.integers(1, m))]]
        single = RecordingEngine(GaussianEngine(cov, alpha=alpha))
        want = []
        for a in sources:
            want.append(outcome(lambda: single.query(a, b, cond - {a})))
            if not isinstance(want[-1], CiVerdict):
                kind, message, context = want[-1]
                want[-1] = kind, f"{message} [candidate ({a}, {b}), T=()]", context  # the block names its source
                break
        block = RecordingEngine(GaussianEngine(cov, alpha=alpha))
        got = outcome(lambda: block_verdicts(block, b, sources, cond))
        if not isinstance(want[-1], CiVerdict):
            assert got == want[-1]  # the first error of the single queries
            return
        assert len(got) == len(want)
        assert all(same_outcome(g, w) for g, w in zip(got, want)), (b, sources, cond)
        assert block.n_queries == block.inner.n_queries == single.n_queries == len(sources)
        assert block.records == single.records

    @pytest.mark.parametrize("empty", [False, True])
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(4, 9),
        n=st.integers(12, 400),
        alpha=st.sampled_from([0.5, 0.05, 0.001]),
    )
    def test_inside_sources_equal_single_queries(self, empty, seed, m, n, alpha):
        # with cond empty (PC's level 0) every source lies outside it, and
        # its rho is read off three covariance entries as the single query's
        rng = np.random.default_rng(seed)
        engine = GaussianEngine(CovMatrix(random_pd(rng, m), n=n), alpha=alpha)
        b = int(rng.integers(m))
        others = [int(v) for v in rng.permutation([v for v in range(m) if v != b])]
        cond = frozenset() if empty else frozenset(others[: int(rng.integers(2, m))])
        sources = others if empty else [a for a in others if a in cond]
        with pytest.MonkeyPatch.context() as patch:
            if empty:  # the block itself answers, not the single-query fallback
                patch.setattr(engine, "_decide", None)
            got = block_verdicts(engine, b, sources, cond)
        # the same rho, bit for bit, so the same statistic
        assert got == [engine.query(a, b, cond - {a}) for a in sources]

    def test_singular_unions_fall_back_to_single_queries(self):
        data, _ = dependent_four_columns()
        engine = GaussianEngine(data)
        cov = engine.cov
        # the union {0, 1, 2, 3} of the first block is singular; in the
        # second, V2 - V1 = V0 makes source 2's union {0, 1, 2} singular
        # while Sigma_cond and source 3's union are not
        for b, sources, cond, batched in [(3, [0, 1, 2], {0, 1, 2}, []), (0, [2, 3], {1}, [3])]:
            got = block_verdicts(engine, b, sources, cond)
            for a, verdict in zip(sources, got):
                i, j, s = min(a, b), max(a, b), cond - {a}
                if a in batched:
                    assert same_outcome(verdict, GaussianEngine(data).query(i, j, s))
                else:
                    assert verdict == fisher_z_test(cov, data.n, i, j, s, 0.05), (a, b)
        assert [v.independent for v in block_verdicts(engine, 0, [2, 3], {1})] == [False, True]

    def test_a_failed_union_leaves_its_sources_to_single_queries(self, monkeypatch):
        # every source lies inside cond, so the block reads none of them off
        # the singular union {0, 1, 2, 3}; each single query factors that
        # union again, fails the guard and falls back to fisher_z_test
        data, _ = dependent_four_columns()
        engine = GaussianEngine(data)
        cond = {0, 1, 2}
        want = [fisher_z_test(engine.cov, data.n, a, 3, cond - {a}, 0.05) for a in (0, 1, 2)]
        factorizations = counting_factorizations(monkeypatch, "_factor_spd")
        assert block_verdicts(engine, 3, [0, 1, 2], cond) == want
        assert len(factorizations) == 7  # the union, then per source the union and one partial_correlation

    def test_degrees_of_freedom_guard_precedes_the_block(self, monkeypatch):
        factorizations = counting_factorizations(monkeypatch, "_factor_spd")
        engine = GaussianEngine(CovMatrix(np.eye(6), n=6))
        with pytest.raises(InsufficientDataError, match=r"n=6, \|s\|=3"):
            block_verdicts(engine, 0, [1, 2, 3, 4], {1, 2, 3, 4})  # sources inside cond
        with pytest.raises(InsufficientDataError, match=r"n=6, \|s\|=3"):
            block_verdicts(engine, 0, [4, 5], {1, 2, 3})  # sources outside cond
        assert factorizations == []
        assert engine.n_queries == 6

    @pytest.mark.parametrize("empty", [False, True])
    def test_mixed_block_factors_its_union_once(self, monkeypatch, empty):
        # sources inside and outside a non-empty cond share one factored
        # union cond + {b}; an empty cond factors nothing
        rng = rng_from_seed(19)
        cov = CovMatrix(random_pd(rng, 9), n=200)
        cond = set() if empty else {1, 3, 5, 7}
        sources = [2, 1, 6, 3, 8, 5]
        want = [GaussianEngine(cov).query(a, 0, cond - {a}) for a in sources]
        factorizations = counting_factorizations(monkeypatch, "_factor_spd")
        got = block_verdicts(GaussianEngine(cov), 0, sources, cond)
        assert len(factorizations) == (0 if empty else 1)
        assert all(same_outcome(g, w) for g, w in zip(got, want))
        assert {v.independent for v in got} == {True, False}

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 10), size=st.integers(1, 8))
    def test_bordered_read_equals_partial_correlation(self, seed, m, size):
        rng = np.random.default_rng(seed)
        cov = CovMatrix(random_pd(rng, m + 1))
        nodes = [int(v) for v in rng.permutation(m + 1)]
        pool, borders = sorted(nodes[: min(size, m - 1)]), nodes[min(size, m - 1) :]
        bordered = _bordered_rhos(cov.values, pool, borders)
        assert sorted(bordered) == sorted(borders)  # every border is kept
        for k, a in itertools.product(range(len(pool)), borders):
            rest = [v for v in pool if v != pool[k]]
            want = partial_correlation(cov, pool[k], a, rest)
            assert abs(bordered[a][k] - want) <= 1e-12, (pool, borders, k, a)

    def test_default_block_loops_over_single_queries(self):
        dag = Dag(4, [(0, 2), (1, 2), (2, 3)])
        engine = OracleEngine(dag)
        got = block_verdicts(engine, 2, [0, 1, 3], {0, 1})
        assert got == [engine.query(a, 2, {0, 1} - {a}) for a in (0, 1, 3)]
        assert engine.n_queries == 6


def factored_block(sigma, pool, t, borders):
    """``(column, bordered, kept)`` of one block, computed by itself; None where the block is not read.

    With ``Omega`` the inverse of the guarded ``pool`` block:
    ``column[k] = -Omega_kt / sqrt(Omega_kk Omega_tt)``, and for each
    border ``a``, with ``W = Sigma_pool^-1 Sigma_pool,a`` and ``s_a =
    Sigma_aa - Sigma_a,pool W``, ``bordered = W_t / sqrt(s_a Omega_tt +
    W_t^2)``, kept where ``s_a >= sqrt(RCOND_MIN) Sigma_aa``.  None where
    the block fails the guard or ``Omega`` has a non-positive diagonal.
    """
    rows = sigma.take(pool, axis=0)
    try:
        factor, omega = _factor_spd(rows.take(pool, axis=1), context=None)
    except SingularityError:
        return None
    diag = omega.diagonal()
    if (diag <= 0).any():
        return None
    column = np.clip(-np.concatenate((omega[t, :t], omega[t:, t])) / np.sqrt(diag * diag[t]), -1, 1)
    if not borders:
        return column, (), ()
    cross = rows.take(borders, axis=1)
    solved, _ = dpotrs(factor, cross, lower=1)
    variances = sigma.diagonal()[borders]
    residual = variances - np.einsum("ij,ij->j", cross, solved)
    with np.errstate(invalid="ignore"):  # a negative s_a is below its floor
        bordered = np.clip(solved[t] / np.sqrt(residual * diag[t] + solved[t] * solved[t]), -1, 1)
    return column, bordered, residual >= np.sqrt(podag.stats.RCOND_MIN) * variances


def per_block_read(engine, b, sources, cond):
    """``_read_blocks``' entry for one block, read a block at a time: ``factored_block``, then ``_fisher_z_statistics``.

    None when no block is read (one source, or no degrees of freedom
    outside ``cond``).  An empty ``cond`` reads three covariance entries
    per source; a union that fails the guard reads none of its sources.
    """
    n, sigma = engine.cov.n, engine.cov.values
    dof = n - len(cond) - 3
    if len(sources) < 2 or dof <= 0:
        return None
    inside = [a in cond for a in sources]
    dofs = np.array([dof + 1 if f else dof for f in inside])
    if not cond:
        rhos = np.clip(sigma[sources, b] / np.sqrt(sigma.diagonal()[sources] * sigma[b, b]), -1, 1)
        z, independent = _fisher_z_statistics(rhos, dofs, engine.alpha)
        return [True] * len(sources), independent.tolist(), z.tolist()
    order = sorted(cond | {b})
    t = order.index(b)
    outside = [a for a, f in zip(sources, inside) if not f]
    block = factored_block(sigma, order, t, outside)
    if block is None:
        return [False] * len(sources), [False] * len(sources), [0.0] * len(sources)
    column, bordered, kept = block
    borders = iter(range(len(outside)))
    rhos, read = [], []
    for a, f in zip(sources, inside):
        c = None if f else next(borders)
        rhos.append(column[order.index(a)] if f else bordered[c])
        read.append(True if f else bool(kept[c]))
    z, independent = _fisher_z_statistics(np.array(rhos), dofs, engine.alpha)
    return read, independent.tolist(), z.tolist()


def assert_reads_equal(entry, want, request):
    """Equal read flags, and equal verdicts and statistics, bit for bit, where a source is read."""
    if want is None:
        assert entry is None, request
        return
    read, independent, z = entry
    assert read == want[0], request
    for k in itertools.compress(range(len(read)), read):
        assert (independent[k], z[k]) == (want[1][k], want[2][k]), (request, k)


def near_singular_cov(seed, m, rows, eps):
    """A covariance of ``rows`` samples of ``m`` columns, and columns ``(u, v, w)``: ``w`` is ``eps`` away from a combination of the other two.

    With ``rows <= m`` the matrix is singular; a small ``eps`` leaves
    ``w`` a residual variance below the bordered read's floor.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, m))
    u, v, w = rng.choice(m, size=3, replace=False)
    x[:, w] = x[:, u] + rng.normal() * x[:, v] + eps * rng.normal(size=rows)
    return x.T @ x / rows, (int(u), int(v), int(w))


class TestStageReads:
    """``GaussianEngine._read_blocks`` reads a stage of blocks as each block's own read would, bit for bit."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(4, 10),
        rows=st.integers(3, 30),
        eps=st.sampled_from([1.0, 1e-3, 1e-5, 1e-8, 0.0]),
        n=st.integers(4, 300),
        alpha=st.sampled_from([0.5, 0.05, 0.001]),
        plan=st.lists(
            st.tuples(st.integers(0, 2**16), st.floats(0.0, 1.0), st.integers(1, 9)), min_size=1, max_size=5
        ),
    )
    def test_stage_reads_equal_per_block_reads(self, seed, m, rows, eps, n, alpha, plan):
        cov = CovMatrix(near_singular_cov(seed, m, rows, eps)[0], n=n)
        engine = GaussianEngine(cov, alpha=alpha)
        requests = []
        for pick, share, size in plan:
            local = np.random.default_rng(pick)
            b = int(local.integers(m))
            others = [int(v) for v in local.permutation([v for v in range(m) if v != b])]
            cond = frozenset(v for v in others if local.random() < share)  # empty for share 0
            requests.append((b, others[: min(size, m - 1)], cond))
        got = list(engine._read_blocks(requests))
        assert len(got) == len(requests)
        for request, entry in zip(requests, got):
            assert_reads_equal(entry, per_block_read(engine, *request), request)

    def test_the_stage_holds_every_kind_of_read(self):
        # one stage with an empty cond, sources inside and outside cond, a
        # border below its floor, a union that fails the guard, and blocks
        # of one source or without degrees of freedom
        values, (u, v, w) = near_singular_cov(4, 8, 40, 1e-7)
        engine = GaussianEngine(CovMatrix(values, n=10), alpha=0.05)
        b = next(t for t in range(8) if t not in (u, v, w))
        rest = [t for t in range(8) if t not in (u, v, w, b)]
        requests = [
            (b, [u, rest[0]], frozenset()),
            (b, [u, v, w, rest[0]], frozenset({u, v})),  # w borders a union holding u and v
            (b, [u, rest[0]], frozenset({u, v, w})),  # a singular union
            (b, [u], frozenset({u, v})),
            (b, [u, v], frozenset(rest) | {u, v, w}),  # 10 - 7 - 3 <= 0
        ]
        got = list(engine._read_blocks(requests))
        assert [entry is None for entry in got] == [False, False, False, True, True]
        assert got[0][0] == [True, True] and got[1][0] == [True, True, False, True]
        assert got[2][0] == [False, False]  # a single query asks each source of the failed union
        for request, entry in zip(requests, got):
            assert_reads_equal(entry, per_block_read(engine, *request), request)


def sequential_first(engine, a, b, base, subsets):
    """The loop a skeleton-search test stands for: single queries until one is independent.

    An error names the candidate and ``T``, as the search reports it.
    """
    for k, t in enumerate(subsets):
        try:
            verdict = engine.query(a, b, base.union(t))
        except PodagError as err:
            err.args = (f"{err.args[0]} [candidate ({a}, {b}), T={t}]",) + err.args[1:]
            raise
        if verdict.independent:
            return k
    return None


class TestFirstSeparator:
    """speculate and _query_first give the index, count and records of the sequential loop."""

    @staticmethod
    def replay(cov, a, b, base, level, alpha=0.05):
        """The outcome on the ``level``-subsets of the nodes outside ``base | {a, b}``.

        The test is walked twice: speculated alone (``_query_first``
        without stops), and speculated in one window with other tests of
        other union sizes, where it shares its stack with its mirror.
        """
        base = frozenset(base)
        pool = sorted(set(range(cov.m)) - base - {a, b})
        subsets = list(itertools.combinations(pool, level))
        single = RecordingEngine(GaussianEngine(cov, alpha=alpha))
        want = outcome(lambda: sequential_first(single, a, b, base, subsets))
        window = [(b, a, base, subsets[::-1]), (a, b, (), [()]), (a, b, base, subsets)]
        for stops in (None, RecordingEngine(GaussianEngine(cov, alpha=alpha)).speculate(window)[-1]):
            first = RecordingEngine(GaussianEngine(cov, alpha=alpha))
            got = outcome(lambda: first._query_first(a, b, base, subsets, stops))
            assert got == want, (a, b, sorted(base), level, stops is None)
            assert first.n_queries == first.inner.n_queries == single.n_queries
            assert first.records == single.records
        return got

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(6, 9),
        rows=st.integers(10, 60),
        n=st.integers(6, 400),
        alpha=st.sampled_from([0.5, 0.05, 0.001]),
        level=st.integers(1, 4),
    )
    def test_random_data(self, seed, m, rows, n, alpha, level):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, m))
        cov = CovMatrix(x.T @ x / rows, n=n)
        a, b, *rest = rng.permutation(m).tolist()
        base = rest[: int(rng.integers(0, 3))]
        self.replay(cov, a, b, base, min(level, m - 2 - len(base)), alpha)

    def test_stacked_kernel_answers_for_most_separators(self, monkeypatch):
        data, _ = random_layered_dataset(seed=3, nodes=12, n=300)
        engine = GaussianEngine(data)
        decided = []
        decide = GaussianEngine._decide
        monkeypatch.setattr(GaussianEngine, "_decide", lambda *args: decided.append(args) or decide(*args))
        found = [
            engine._query_first(a, b, frozenset(), list(itertools.combinations(rest, level)))
            for a, b in itertools.combinations(range(12), 2)
            for rest in [sorted(set(range(12)) - {a, b})]
            for level in (1, 2)
        ]
        assert {k is None for k in found} == {True, False}
        assert engine.n_queries > 500 and decided == []

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    @pytest.mark.parametrize("noise", [0.0, 1e-7, 1e-5])
    def test_collinear_data(self, level, noise):
        # V2 = V0 + V1, and near-copies whose unions pass the single query's
        # singularity guard (1e-5) or fail it (1e-7) while positive definite
        rng = rng_from_seed(7)
        x = rng.normal(size=(200, 7))
        x[:, 2] = x[:, 0] + x[:, 1] + noise * rng.normal(size=200)
        cov = sample_covariance(Dataset(x))
        outcomes = [
            self.replay(cov, a, b, base, level)
            for a, b in itertools.combinations(range(7), 2)
            for base in ((), (3,))
            if level <= 5 - len(base) and 3 not in (a, b)
        ]
        assert not all(isinstance(o, tuple) for o in outcomes)

    def test_indefinite_covariance(self):
        # symmetric with a unit diagonal, but not positive definite
        rng = rng_from_seed(11)
        upper = np.triu(np.sign(rng.normal(size=(7, 7))), 1) * 0.45
        cov = CovMatrix(np.eye(7) + upper + upper.T, n=100)
        assert np.linalg.eigvalsh(cov.values)[0] < 0
        outcomes = [
            self.replay(cov, a, b, (), level)
            for a, b in itertools.combinations(range(7), 2)
            for level in (1, 2, 3, 4)
        ]
        errors = [o for o in outcomes if isinstance(o, tuple)]
        assert 0 < len(errors) < len(outcomes)

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_perfect_correlation(self, level):
        x = rng_from_seed(13).normal(size=(100, 6))
        x[:, 1] = 2.0 * x[:, 0]  # |rho(V0, V1 | S)| = 1 for every S
        cov = sample_covariance(Dataset(x))
        assert self.replay(cov, 0, 1, (), level) is None

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_too_few_degrees_of_freedom(self, level):
        cov = CovMatrix(random_pd(rng_from_seed(17), 7), n=level + 4)
        got = self.replay(cov, 0, 1, (2,), level)  # n - |S| - 3 = 0
        assert got[0] is InsufficientDataError

    def test_default_loop_counts_the_asked_prefix(self):
        dag = Dag(4, [(0, 2), (1, 2), (2, 3)])
        engine = RecordingEngine(OracleEngine(dag))
        assert engine._query_first(0, 3, frozenset(), [(1,), (2,), (1, 2)]) == 1
        assert engine.n_queries == engine.inner.n_queries == 2
        assert engine.records == [(0, 3, frozenset({1})), (0, 3, frozenset({2}))]


def random_layered_dataset(seed, nodes, n):
    """A simulated dataset on a random layered DAG, and its ordering."""
    rng = rng_from_seed(seed)
    dag, ordering = generate_layered_dag(
        GenConfig(n_nodes=nodes, expected_edges_per_node=2.0, layers=3), rng
    )
    return sample(random_weights(dag, rng), n, rng), ordering


def collinear_dataset(sources=(4,)):
    """30 nodes, n=500, column V5 the sum of the ``sources`` columns (a copy of V4)."""
    rng = rng_from_seed(5)
    dag, ordering = generate_layered_dag(
        GenConfig(n_nodes=30, expected_edges_per_node=2.0, layers=3), rng
    )
    data = sample(random_weights(dag, rng), 500, rng).data.copy()
    data[:, 5] = data[:, list(sources)].sum(axis=1)
    return Dataset(data), ordering


class TestCollinearColumns:
    MESSAGE = "columns V4 and V5 are collinear"

    def test_learn_names_both_columns(self):
        data, ordering = collinear_dataset()
        with pytest.raises(DegenerateDataError, match=self.MESSAGE):
            learn(data, ordering, PodagConfig())

    def test_pc_names_both_columns(self):
        data, _ = collinear_dataset()
        with pytest.raises(DegenerateDataError, match=self.MESSAGE):
            pc(GaussianEngine(data, alpha=0.05), data.m)

    def test_near_copy_within_guard_is_caught(self):
        x = rng_from_seed(6).normal(size=(200, 3))
        x[:, 2] = 3.0 * x[:, 0] + 1e-14 * x[:, 1]
        with pytest.raises(DegenerateDataError, match="columns V0 and V2"):
            GaussianEngine(Dataset(x)).query(0, 1, ())

    def test_strong_but_testable_correlation_passes(self):
        x = rng_from_seed(6).normal(size=(200, 3))
        x[:, 2] = x[:, 0] + 1e-5 * x[:, 1]
        assert not GaussianEngine(Dataset(x)).query(0, 2, ()).independent

    def test_dependent_set_in_a_screening_block_is_named(self):
        data, ordering = dependent_four_columns()
        with pytest.raises(DegenerateDataError, match="columns V0, V1 and V2 are linearly dependent"):
            learn(data, ordering, PodagConfig())

    def test_covariance_checked_once_per_learn_fit(self, monkeypatch):
        calls = []
        checked = podag.stats._checked_covariance

        def counted(dataset):
            calls.append(dataset)
            return checked(dataset)

        monkeypatch.setattr(podag.stats, "_checked_covariance", counted)
        rng = rng_from_seed(5)
        dag, ordering = generate_layered_dag(GenConfig(n_nodes=20, layers=3), rng)
        data = sample(random_weights(dag, rng), 300, rng)
        learn(data, ordering, PodagConfig(learn_within_layers=True, on_conflict="ignore"))
        assert calls == [data]

    @pytest.mark.parametrize("wrap", [False, True])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_backend_screens_the_engines_covariance(self, monkeypatch, backend, wrap):
        # one checked covariance per fit, also under a caller's recording engine
        calls = []
        checked = podag.stats._checked_covariance
        monkeypatch.setattr(podag.stats, "_checked_covariance", lambda data: calls.append(data) or checked(data))
        rng = rng_from_seed(5)
        dag, ordering = generate_layered_dag(GenConfig(n_nodes=20, layers=3), rng)
        data = sample(random_weights(dag, rng), 300, rng)
        engine = RecordingEngine(GaussianEngine(data, alpha=0.05)) if wrap else None
        cfg = PodagConfig(backend=backend, learn_within_layers=True, on_conflict="ignore")
        learn(data, ordering, cfg, engine=engine)
        assert calls == [data]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "sources, message",
        [((4,), MESSAGE), ((3, 4), "columns V3, V4 and V5 are linearly dependent")],
        ids=["copy", "sum"],
    )
    def test_every_screening_backend_names_the_columns(self, backend, sources, message):
        # all backends read one checked covariance, so they fail alike
        data, ordering = collinear_dataset(sources)
        with pytest.raises(DegenerateDataError, match=message):
            screen_all(data, ordering, backend)

    @pytest.mark.parametrize("algorithm", ["learn", "pc"])
    def test_dependent_column_set_is_named(self, algorithm):
        data, ordering = collinear_dataset(sources=(3, 4))
        with pytest.raises(DegenerateDataError, match="columns V3, V4 and V5 are linearly dependent"):
            if algorithm == "learn":
                learn(data, ordering, PodagConfig())
            else:
                pc(GaussianEngine(data, alpha=0.05), data.m)


class TestDatasetCsv:
    def test_round_trip(self):
        data = Dataset([[1.5, 2.0], [3.0, -4.25]], labels=["aa", "bb"])
        text = data.to_csv()
        back = Dataset.from_csv(text)
        assert back.labels == ("aa", "bb")
        np.testing.assert_allclose(back.data, data.data)

    def test_tsv_autodetected(self):
        text = "x\ty\n1.0\t2.0\n3.0\t4.0\n"
        d = Dataset.from_csv(text)
        assert d.labels == ("x", "y")
        assert d.data.shape == (2, 2)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset([[1.0, np.nan], [2.0, 3.0]])


class CountChecking:
    """Checks the counting contract on each call to ``_count``, and keeps the queries it lists."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.counted = 0
        self.listed = []

    def _count(self, n, queries):
        listed = list(queries())
        assert len(listed) == n
        assert all(i < j and isinstance(s, frozenset) and not s & {i, j} for i, j, s in listed)
        self.counted += n
        self.listed += listed
        super()._count(n, queries)


class CountCheckingOracle(CountChecking, OracleEngine):
    pass


class CountCheckingGaussian(CountChecking, GaussianEngine):
    pass


COUNTED_FITS = [
    (algorithm, backend, kind)
    for algorithm, backend in [
        ("podag", "pcor"), ("podag", "sis"), ("podag", "lasso"), ("pc", "pcor"), ("pc_plus", "pcor"),
        ("h0", "pcor"), ("h_minus_j", "pcor"),
    ]
    for kind in ("oracle", "gaussian")
    if kind == "gaussian" or backend == "pcor"  # an oracle screens only through the pcor backend
]


class TestCountingPoint:
    """Every counted query passes ``CiEngine._count`` once, listed by its ``queries`` callable."""

    @pytest.mark.parametrize("algorithm, backend, kind", COUNTED_FITS)
    def test_every_counted_query_is_listed_once(self, algorithm, backend, kind):
        rng = rng_from_seed(23)
        layers = 2 if algorithm in ("h0", "h_minus_j") else 3
        dag, ordering = generate_layered_dag(
            GenConfig(n_nodes=16, expected_edges_per_node=2.0, layers=layers), rng
        )
        cfg = PodagConfig(backend=backend, learn_within_layers=True, max_sepset_size=3, on_conflict="ignore")
        if kind == "oracle":
            source, engine = dag, functools.partial(CountCheckingOracle, dag)
        else:
            source = sample(random_weights(dag, rng), 300, rng)
            engine = functools.partial(CountCheckingGaussian, source, alpha=cfg.alpha)
        bare, inner = engine(), engine()
        recorder = RecordingEngine(inner)
        want = podag.evaluation._fit(algorithm, source, ordering, cfg, bare)
        got = podag.evaluation._fit(algorithm, source, ordering, cfg, recorder)
        assert bare.counted == bare.n_queries > 0
        assert inner.counted == inner.n_queries == recorder.n_queries == bare.n_queries
        assert inner.listed == bare.listed == recorder.records
        assert (got.pdag, got.diagnostics.ci_tests) == (want.pdag, want.diagnostics.ci_tests)
