import functools
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import podag.screening
from podag import (
    CovMatrix,
    Dag,
    Dataset,
    OracleEngine,
    PartialOrdering,
    PodagConfig,
    RecordingEngine,
    learn,
    lasso_fit,
    population_covariance,
    sample_covariance,
    screen_all,
)
from podag.errors import DegenerateDataError, InsufficientDataError, PodagError, SelectionError
from podag.screening import (
    LASSO_MAX_SWEEPS,
    LASSO_TIE,
    ScreenEntry,
    ScreenSets,
    _lambda_grid,
    _lasso,
    _moments,
    _select_lambda_aic,
)
from podag.search import _candidates
from podag.stats import _bordered_rhos, _checked_covariance, _correlation, _read_stage
from podag.sem import (
    GenConfig,
    generate_layered_dag,
    random_weights,
    rng_from_seed,
    sample,
    toy_two_layer_sem,
)

from helpers import (
    dependent_four_columns,
    inflate_screen_sets,
    numpy_scalar_lasso,
    random_faithful_sem,
    random_layered_instance,
    residual_lasso,
)


def screen_one(backend, source, ordering, j, **params):
    """The entry of node ``j``, screened alone by :func:`screen_all`."""
    return screen_all(source, ordering, backend, params, targets=[j])[0][j]


def aic_failing_on(sizes, select):
    """An AIC lambda selection that fails on pools of the given ``sizes`` and runs ``select`` on the rest."""

    def selection(gram, xy, yy, n, grid):
        if len(xy) in sizes:
            raise SelectionError("no lasso fit converged on the lambda grid")
        return select(gram, xy, yy, n, grid)

    return selection


def toy_population_cov():
    sem, ordering = toy_two_layer_sem()
    return population_covariance(sem), ordering


def mediated_witness():
    """X -> Y' -> Y, X -> Y'', Y -> Y'': X is a spurious candidate parent of Y.

    Nodes: X=0, Y'=1, Y=2, Y''=3 with layering {X} < {Y', Y, Y''}.
    """
    dag = Dag(4, [(0, 1), (1, 2), (0, 3), (2, 3)])
    ordering = PartialOrdering([{0}, {1, 2, 3}], n_nodes=4)
    return dag, ordering


class TestScreenPcorToy:
    def test_population_sets_for_second_layer(self):
        cov, ordering = toy_population_cov()
        y2 = screen_one("pcor", cov, ordering, 3, threshold=0.01)
        assert y2.s0 == {0, 1}  # the false positive X1 is present
        assert y2.cross == {1}  # the intersection removes it
        assert y2.cmb == {2}
        y1 = screen_one("pcor", cov, ordering, 2, threshold=0.01)
        assert y1.s0 == {0}
        assert y1.cross == {0}
        assert y1.cmb == {3}

    def test_dropped_members_carry_their_verdict_sepsets(self):
        cov, ordering = toy_population_cov()
        y1 = screen_one("pcor", cov, ordering, 2, threshold=0.01)
        y2 = screen_one("pcor", cov, ordering, 3, threshold=0.01)
        assert y1._verdict_pool(1) == {0, 1}  # stage 0: before(Y1), X2 separated given X1
        assert y2._verdict_pool(0) == {0, 1, 2}  # stage 1: s0 + peers(Y2), X1 separated given X2, Y1
        assert y2._verdict_pool(1) is None and y2._verdict_pool(2) is None  # kept
        plain = ScreenEntry(3, y2.s0, y2.s1)
        assert plain == y2 and plain._verdict_pool(0) is None
        assert plain.s0 is y2.s0 and plain.s1 is y2.s1  # a frozenset is kept as given
        assert all(type(v) is int for v in y2.s0 | y2.s1)  # screening hands it Python ints
        listed = ScreenEntry(3, list(np.array(sorted(y2.s0))), np.array(sorted(y2.s1)))
        assert listed == y2 and isinstance(listed.s0, frozenset) and isinstance(listed.s1, frozenset)
        assert all(type(v) is int for v in listed.s0 | listed.s1)  # other inputs are normalized

    def test_empty_graph_screens_empty(self):
        cov = CovMatrix(np.eye(4), n=100)
        ordering = PartialOrdering([{0, 1}, {2, 3}], n_nodes=4)
        e = screen_one("pcor", cov, ordering, 3, threshold=0.01)
        assert e.s0 == frozenset() and e.s1 == frozenset()

    def test_sample_mode_uses_liberal_alpha(self):
        sem, ordering = toy_two_layer_sem()
        data = sample(sem, 1000, rng_from_seed(0))
        e = screen_one("pcor", data, ordering, 3, alpha=0.5)
        assert {1} <= e.s0  # the true parent survives screening

    @pytest.mark.parametrize("threshold", [-1.0, 1.0, 2.0, float("nan")])
    def test_threshold_outside_the_unit_interval_raises(self, threshold):
        # -1 would keep every candidate, 1, 2 and nan none
        cov, ordering = toy_population_cov()
        with pytest.raises(ValueError, match=r"threshold must be in \[0, 1\)"):
            screen_one("pcor", cov, ordering, 3, threshold=threshold)
        assert screen_one("pcor", cov, ordering, 3, threshold=0.0).s0 == {0, 1}  # the whole before set

    def test_pool_outnumbering_samples_fails_before_factoring(self, monkeypatch):
        def no_factoring(*args):
            raise AssertionError("the pool was factored before the sample-size check")

        monkeypatch.setattr(podag.screening, "_read_stage", no_factoring)
        rng = rng_from_seed(5)
        dag, ordering = generate_layered_dag(GenConfig(n_nodes=40, layers=2), rng)
        data = sample(random_weights(dag, rng), 20, rng)
        j = min(ordering.layers[1])
        with pytest.raises(InsufficientDataError) as err:
            screen_one("pcor", data, ordering, j)
        message = str(err.value)
        pool = len(ordering.before_set(j))
        assert f"node {j}" in message and f"pool of {pool} nodes" in message
        assert "--backend lasso" in message and "--backend sis" in message


class TestScreenEngineEquivalence:
    def test_threshold_population_equals_oracle_engine(self):
        rng = rng_from_seed(21)
        done = 0
        while done < 12:
            dag, ordering = random_layered_instance(rng, n_lo=4, n_hi=9)
            sem, _ = random_faithful_sem(dag, rng)
            cov = population_covariance(sem)
            dsep_engine = OracleEngine(dag)
            for j in range(dag.n_nodes):
                a = screen_one("pcor", cov, ordering, j, threshold=1e-6)
                b = screen_one("pcor", dsep_engine, ordering, j)
                assert (a.s0, a.s1) == (b.s0, b.s1)
            done += 1

    def test_oracle_screen_matches_definitions(self):
        rng = rng_from_seed(33)
        for _ in range(10):
            dag, ordering = random_layered_instance(rng, n_lo=4, n_hi=9)
            engine = OracleEngine(dag)
            for j in range(dag.n_nodes):
                entry = screen_one("pcor", engine, ordering, j)
                before = sorted(ordering.before_set(j))
                s0 = {
                    k
                    for k in before
                    if not dag.is_dsep(k, j, [v for v in before if v != k])
                }
                pool = sorted(s0) + sorted(ordering.peer_set(j))
                s1 = {
                    z
                    for z in pool
                    if not dag.is_dsep(z, j, [v for v in pool if v != z])
                }
                assert entry.s0 == s0
                assert entry.s1 == s1


class TestSpuriousCandidateWitness:
    def test_spurious_candidate_with_characteristic_pattern(self):
        dag, ordering = mediated_witness()
        engine = OracleEngine(dag)
        entry = screen_one("pcor", engine, ordering, 2)
        assert 0 in entry.cross  # spurious: 0 -> 2 is not an edge
        # the configuration: a within-layer directed path 0 -> 1 -> 2 and a
        # common child of 0 and 2 (node 3)
        assert dag.has_edge(0, 1) and dag.has_edge(1, 2)
        assert dag.children(0) & dag.children(2) == {3}

    def test_spurious_cross_members_have_forward_paths(self):
        # every spurious screened candidate parent reaches its target by a
        # directed path through the target's own layer
        rng = rng_from_seed(55)
        checked = 0
        while checked < 15:
            dag, ordering = random_layered_instance(rng, n_lo=5, n_hi=9, layers_hi=3)
            engine = OracleEngine(dag)
            for j in range(dag.n_nodes):
                if not ordering.before_set(j):
                    continue
                entry = screen_one("pcor", engine, ordering, j)
                for k in entry.cross - dag.parents(j):
                    assert j in dag.descendants(dag.children(k) - {j}), (
                        sorted(dag.edges),
                        k,
                        j,
                    )
            checked += 1


class TestSis:
    def test_saturated_selection_takes_all(self):
        sem, ordering = toy_two_layer_sem()
        data = sample(sem, 100, rng_from_seed(1))
        e = screen_one("sis", data, ordering, 3, t=0.5)  # ceil(0.5 * 100) = 50 >= pool sizes
        assert e.s0 == {0, 1}

    def test_single_informative_column(self):
        rng = rng_from_seed(2)
        n = 100
        x = rng.standard_normal((n, 3))
        y = x[:, 1].copy()
        data_matrix = np.column_stack([x, y])
        # an exact copy fails the checked covariance; the unchecked one ranks it
        cov = sample_covariance(Dataset(data_matrix))
        ordering = PartialOrdering([{0, 1, 2}, {3}], n_nodes=4)
        e = screen_one("sis", cov, ordering, 3, t=1.0 / n)  # ceil(t n) = 1
        assert e.s0 == {1}

    def test_tie_broken_by_ascending_index(self):
        rng = rng_from_seed(3)
        n = 50
        base = rng.standard_normal(n)
        other = rng.standard_normal(n)
        y = base + 0.1 * rng.standard_normal(n)
        data_matrix = np.column_stack([base, base.copy(), other, y])
        # a copied column fails the checked covariance; the unchecked one ranks it
        cov = sample_covariance(Dataset(data_matrix))
        ordering = PartialOrdering([{0, 1, 2}, {3}], n_nodes=4)
        e = screen_one("sis", cov, ordering, 3, t=1.0 / n)
        assert e.s0 == {0}  # columns 0 and 1 tie exactly; lower index wins

    def test_monotone_in_t(self):
        sem, ordering = toy_two_layer_sem()
        data = sample(sem, 60, rng_from_seed(4))
        prev_s0, prev_s1 = frozenset(), frozenset()
        for t in (0.02, 0.05, 0.2, 0.6):
            e = screen_one("sis", data, ordering, 3, t=t)
            assert prev_s0 <= e.s0
            assert prev_s1 <= e.s1
            prev_s0, prev_s1 = e.s0, e.s1

    def test_pvalue_mode(self):
        sem, ordering = toy_two_layer_sem()
        data = sample(sem, 1000, rng_from_seed(5))
        e = screen_one("sis", data, ordering, 3, mode="pvalue", pvalue_cutoff=0.5)
        assert 1 in e.s0  # the true parent has a tiny marginal p-value

    def test_invalid_t(self):
        sem, ordering = toy_two_layer_sem()
        data = sample(sem, 50, rng_from_seed(6))
        with pytest.raises(ValueError):
            screen_one("sis", data, ordering, 3, t=1.5)

    @pytest.mark.parametrize("n", [2, 3])
    def test_pvalue_mode_needs_positive_dof(self, n, monkeypatch):
        # a covariance that claims n samples: 2 rows of data would fail the collinearity check first
        cov, ordering = toy_population_cov()
        monkeypatch.setattr(podag.screening, "_fisher_z_statistics", None)  # nothing is scored
        with pytest.raises(InsufficientDataError, match=r"n - \|s\| - 3 > 0"):
            screen_one("sis", CovMatrix(cov.values, n=n), ordering, 3, mode="pvalue")

    @pytest.mark.parametrize("cutoff", [1.5, 1.0, 0.0, -0.1])
    def test_pvalue_mode_rejects_cutoff_outside_unit_interval(self, cutoff):
        sem, ordering = toy_two_layer_sem()
        data = sample(sem, 50, rng_from_seed(6))
        with pytest.raises(ValueError, match="pvalue_cutoff"):
            screen_one("sis", data, ordering, 3, mode="pvalue", pvalue_cutoff=cutoff)

    @pytest.mark.parametrize("cutoff", [0.5, 0.05, 0.001])
    def test_pvalue_mode_equals_marginal_p_value_rule(self, cutoff):
        rng = rng_from_seed(21)
        n = 40
        data = rng.standard_normal((n, 12))
        data[:, :8] += 0.3 * data[:, [11]]  # some association with the target
        data[:, 8] = data[:, 11]  # a copy of the target: rho at the clip
        ordering = PartialOrdering([set(range(9)), {9, 10, 11}], n_nodes=12)
        e = screen_one("sis", sample_covariance(Dataset(data)), ordering, 11, mode="pvalue", pvalue_cutoff=cutoff)

        def oracle(pool):
            # the two-sided p-value of the marginal Fisher z test, through scipy.stats
            x = (data - data.mean(axis=0)) / data.std(axis=0)
            scores = np.abs(x[:, pool].T @ x[:, 11])
            z = np.sqrt(n - 3) * np.arctanh(np.clip(scores / n, 0.0, 1.0 - 1e-15))
            return {k for k, zk in zip(pool, z) if 2.0 * norm.sf(zk) < cutoff}

        s0 = oracle(list(range(9)))
        assert e.s0 == s0
        assert e.s1 == oracle(sorted(s0 | {9, 10}))
        assert 8 in e.s0


class TestLassoFit:
    def orthonormal_design(self, rng, n, p):
        q, _ = np.linalg.qr(rng.standard_normal((n, p)))
        return q * np.sqrt(n)  # columns with x_k' x_k = n

    def test_null_threshold_gives_zero(self):
        rng = rng_from_seed(7)
        x = rng.standard_normal((50, 4))
        y = rng.standard_normal(50)
        lam = _lambda_grid(_moments(y, x)[1], size=1)[0]
        fit = lasso_fit(y, x, lam * 1.0001)
        assert fit.active_set == frozenset()
        assert np.all(fit.coefficients == 0)

    def test_lambda_zero_orthonormal_is_ols(self):
        rng = rng_from_seed(8)
        x = self.orthonormal_design(rng, 60, 5)
        beta = np.array([1.0, -2.0, 0.0, 0.5, 0.0])
        y = x @ beta + 0.01 * rng.standard_normal(60)
        fit = lasso_fit(y, x, 0.0)
        ols = x.T @ y / 60
        np.testing.assert_allclose(fit.coefficients, ols, atol=1e-8)

    def test_orthonormal_soft_threshold(self):
        rng = rng_from_seed(9)
        x = self.orthonormal_design(rng, 80, 6)
        beta = np.array([2.0, -1.0, 0.4, 0.0, 0.0, 0.05])
        y = x @ beta + 0.1 * rng.standard_normal(80)
        lam = 0.3
        fit = lasso_fit(y, x, lam)
        z = x.T @ y / 80
        expected = np.sign(z) * np.maximum(np.abs(z) - lam, 0.0)
        np.testing.assert_allclose(fit.coefficients, expected, atol=1e-8)

    def test_kkt_conditions_hold(self):
        rng = rng_from_seed(10)
        for _ in range(20):
            n, p = 60, 8
            x = rng.standard_normal((n, p))
            beta = np.zeros(p)
            beta[:3] = rng.uniform(0.5, 2.0, size=3)
            y = x @ beta + 0.3 * rng.standard_normal(n)
            lam = 0.1
            fit = lasso_fit(y, x, lam)
            assert fit.converged
            grad = x.T @ (y - x @ fit.coefficients) / n
            for k in range(p):
                if k in fit.active_set:
                    assert abs(abs(grad[k]) - lam) < 1e-6
                else:
                    assert abs(grad[k]) <= lam + 1e-6

    def test_objective_decreases_across_sweeps(self):
        rng = rng_from_seed(11)
        n, p = 50, 10
        x = rng.standard_normal((n, p))
        y = x[:, 0] - 2 * x[:, 3] + 0.5 * rng.standard_normal(n)
        trace = []
        lasso_fit(y, x, 0.05, trace=trace)
        assert len(trace) >= 2
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_duplicate_columns_resolved_by_scan_order(self):
        rng = rng_from_seed(12)
        n = 60
        col = rng.standard_normal(n)
        x = np.column_stack([col, col.copy(), rng.standard_normal(n)])
        y = 2 * col + 0.1 * rng.standard_normal(n)
        fit = lasso_fit(y, x, 0.05)
        assert 0 in fit.active_set
        assert 1 not in fit.active_set

    @pytest.mark.parametrize("max_sweeps", [LASSO_MAX_SWEEPS, 2])
    @pytest.mark.parametrize("n, p, copies", [(60, 8, 0), (30, 60, 0), (60, 8, 2), (30, 60, 3)])
    def test_matches_residual_form_reference(self, n, p, copies, max_sweeps):
        # the Gram-form solver against the textbook residual updates, with
        # the trailing ``copies`` columns duplicating the leading ones
        rng = rng_from_seed(30 + n + p + copies)
        for _ in range(10):
            x = rng.standard_normal((n, p))
            x[:, p - copies :] = x[:, :copies]
            beta = np.zeros(p)
            beta[:3] = rng.uniform(0.5, 2.0, size=3) * rng.choice([-1.0, 1.0], size=3)
            y = x @ beta + 0.5 * rng.standard_normal(n)
            lam = rng.uniform(0.05, 0.5) * _lambda_grid(_moments(y, x)[1], size=1)[0]
            fit = lasso_fit(y, x, lam, max_sweeps=max_sweeps)
            coefficients, converged = residual_lasso(y, x, lam, max_sweeps=max_sweeps)
            assert fit.active_set == frozenset(np.flatnonzero(coefficients))
            np.testing.assert_allclose(fit.coefficients, coefficients, rtol=0, atol=1e-8)
            assert fit.converged == converged
            assert fit.converged or max_sweeps == 2

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            lasso_fit(np.zeros(4), np.zeros((4, 2)), -0.1)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 10),
        warm=st.booleans(),
        lam_kind=st.sampled_from(["zero", "tie", "free"]),
        tie=st.floats(0.0, 2.0),
        special=st.sampled_from([None, "zero_column", "zero_xy", "nan_xy"]),
        max_sweeps=st.sampled_from([1, 3, LASSO_MAX_SWEEPS]),
    )
    def test_float_loop_equals_numpy_scalar_reference(self, seed, p, warm, lam_kind, tie, special, max_sweeps):
        # the Python-float coordinate loop against the numpy-scalar one it
        # replaced: coefficients, sweeps, convergence and trace bit for bit
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        x = rng.standard_normal((n, p))
        k = int(rng.integers(p))
        if special == "zero_column":
            x[:, k] = 0.0
        y = x @ rng.standard_normal(p) + rng.standard_normal(n)
        gram, xy, yy = x.T @ x / n, x.T @ y / n, float(y @ y) / n
        start = rng.standard_normal(p) * (rng.random(p) < 0.5) if warm else np.zeros(p)
        if lam_kind == "zero":
            lam = 0.0
        elif lam_kind == "free":
            lam = float(rng.uniform(0.0, 1.2) * np.abs(xy).max())
        else:  # the first coordinate's z lies within LASSO_TIE of lam, on either side of the rounding tie
            z = xy[0] - (gram @ start)[0] + gram[0, 0] * start[0]
            lam = abs(z) * (1.0 - tie * LASSO_TIE)
        if special == "zero_xy":
            xy[k] = 0.0
        elif special == "nan_xy":
            xy[k] = np.nan
        warm_start = start if warm else None
        trace, expected_trace = [], []
        fit = _lasso(gram, xy, lam, warm_start, max_sweeps=max_sweeps, trace=trace, yy=yy)
        coefficients, sweeps, converged = numpy_scalar_lasso(
            gram, xy, lam, warm_start, max_sweeps=max_sweeps, trace=expected_trace, yy=yy
        )
        assert np.array_equal(fit.coefficients, coefficients)
        assert (fit.iterations, fit.converged) == (sweeps, converged)
        assert np.array_equal(trace, expected_trace, equal_nan=True)
        assert fit.active_set == frozenset(np.flatnonzero(coefficients).tolist())


class TestLambdaSelection:
    def test_single_element_grid(self):
        rng = rng_from_seed(13)
        x = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        assert _select_lambda_aic(*_moments(y, x), [0.25]) == 0.25

    def test_pure_noise_prefers_sparse_models(self):
        # AIC keeps occasional noise variables (the best-fitting noise
        # subset can beat the 2-per-variable penalty), so assert the
        # distributional version: mostly empty, never systematically full
        rng = rng_from_seed(14)
        sizes = []
        for _ in range(50):
            x = rng.standard_normal((200, 10))
            y = rng.standard_normal(200)
            lam = _select_lambda_aic(*_moments(y, x), _lambda_grid(_moments(y, x)[1]))
            sizes.append(len(lasso_fit(y, x, lam).active_set))
        assert np.median(sizes) <= 1
        assert np.mean(sizes) < 3.0

    def test_exact_column_drives_lambda_down(self):
        rng = rng_from_seed(15)
        x = rng.standard_normal((80, 4))
        y = x[:, 0].copy()
        grid = _lambda_grid(_moments(y, x)[1], size=20)
        lam = _select_lambda_aic(*_moments(y, x), grid)
        assert lam == min(grid)
        assert 0 in lasso_fit(y, x, lam).active_set

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            _select_lambda_aic(*_moments(np.zeros(4), np.zeros((4, 2))), [])

    def test_all_nonconverged_raises(self):
        rng = rng_from_seed(16)
        x = rng.standard_normal((30, 3))
        y = x @ np.array([1.0, -1.0, 0.5]) + rng.standard_normal(30)
        lam = 1e-4 * _lambda_grid(_moments(y, x)[1], size=1)[0]
        with pytest.raises(SelectionError):
            _select_lambda_aic(*_moments(y, x), [lam], max_sweeps=1)


class TestScreeningNotes:
    """The notes an entry carries are the warnings its screen raised."""

    def test_sis_pvalue_warns_when_the_overlap_exceeds_n(self):
        # 25 candidates from 8 samples: at a cutoff of 0.99 nearly every
        # marginal correlation is kept in both stages
        data = Dataset(np.random.default_rng(5).standard_normal((8, 30)))
        ordering = PartialOrdering([set(range(25)), set(range(25, 30))], n_nodes=30)
        with pytest.warns(UserWarning, match=r"^screening for node 25: \|s0 & s1\| = \d+ exceeds n = 8$"):
            entry = screen_one("sis", data, ordering, 25, mode="pvalue", pvalue_cutoff=0.99)
        overlap = len(entry.s0 & entry.s1)
        assert overlap > 8
        assert entry.warnings == (f"screening for node 25: |s0 & s1| = {overlap} exceeds n = 8",)

    def test_lasso_notes_a_fit_that_did_not_converge(self, monkeypatch):
        # one sweep per fit: no stage can confirm its active set
        monkeypatch.setattr(podag.screening, "_lasso", lambda gram, xy, lam: _lasso(gram, xy, lam, max_sweeps=1))
        sem, ordering = toy_two_layer_sem()
        data = sample(sem, 500, rng_from_seed(17))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a note is not a warning
            entry = screen_one("lasso", data, ordering, 3)
        assert entry.warnings == ("lasso for node 3 (s0) did not converge", "lasso for node 3 (s1) did not converge")
        assert screen_all(data, ordering, "lasso")[0][3].warnings == entry.warnings


class TestScreenLasso:
    def test_toy_recovers_true_parent(self):
        sem, ordering = toy_two_layer_sem()
        hits = 0
        for seed in range(100):
            data = sample(sem, 1000, rng_from_seed(seed))
            e = screen_one("lasso", data, ordering, 3)
            hits += 1 in e.s0
        assert hits >= 95

    def test_large_lambda_empties_s0(self):
        sem, ordering = toy_two_layer_sem()
        data = sample(sem, 500, rng_from_seed(17))
        e = screen_one("lasso", data, ordering, 3, lambda0=10.0)
        assert e.s0 == frozenset()
        assert e.s1 <= {2}  # s1 then draws from the peer pool only

    def test_aic_mode_runs(self):
        sem, ordering = toy_two_layer_sem()
        data = sample(sem, 400, rng_from_seed(18))
        e = screen_one("lasso", data, ordering, 3, aic=True)
        assert 1 in e.s0

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 12))
    def test_pool_blocks_equal_their_own_correlation(self, seed, m):
        # a pool's block taken off the whole correlation matrix, the check's
        # or one computed on first use, equals the correlation of its own
        # covariance block bit for bit
        rng = np.random.default_rng(seed)
        data = Dataset(rng.standard_normal((m + 20, m)) * rng.uniform(0.1, 10.0, size=m))
        checked = _checked_covariance(data)
        lazy = CovMatrix(checked.values, n=checked.n)
        for _ in range(5):
            idx = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False).tolist()
            own = _correlation(checked.values[np.ix_(idx, idx)])
            for cov in (checked, lazy):
                assert np.array_equal(cov._corr.take(idx, axis=0).take(idx, axis=1), own)
        assert lazy._corr is lazy._corr


class TestScreenAll:
    def test_toy_population_candidates_exact(self):
        cov, ordering = toy_population_cov()
        screen, n_tests = screen_all(cov, ordering, backend="pcor", params={"threshold": 0.01})
        assert {j: screen[j].cross for j in screen.nodes()} == {0: set(), 1: set(), 2: {0}, 3: {1}}
        # one test per pool member: 1 + 1 for the first layer, 2 + 2 and 2 + 3 below
        assert n_tests == 11

    def test_single_layer_has_no_cross_candidates(self):
        rng = rng_from_seed(19)
        dag, ordering = random_layered_instance(rng, n_lo=5, n_hi=8, layers_hi=2)
        ordering = PartialOrdering([set(range(dag.n_nodes))], n_nodes=dag.n_nodes)
        screen, _ = screen_all(OracleEngine(dag), ordering, backend="pcor")
        for j in screen.nodes():
            assert screen[j].s0 == frozenset()

    def test_within_candidates_symmetrized(self):
        dag, ordering = mediated_witness()
        screen, _ = screen_all(OracleEngine(dag), ordering, backend="pcor")
        cross = {j: screen[j].cross for j in screen.nodes()}
        cmb = {j: set(screen[j].cmb) for j in screen.nodes()}
        pairs = set(zip(*_candidates(cross, cmb, True)))
        within = {(k, j) for j in screen.nodes() for k in screen[j].cmb}
        assert within and all((j, k) in pairs for k, j in within)

    def test_validate_rejects_bad_sets(self):
        ordering = PartialOrdering([{0}, {1}], n_nodes=2)
        sets = ScreenSets([ScreenEntry(0, s0={1}, s1=set())], n_nodes=2)
        with pytest.raises(ValueError):
            sets.validate(ordering)

    def test_rejects_too_few_labels(self):
        # with one label for three nodes, to_json would fail on node 2
        with pytest.raises(ValueError, match="one entry per column"):
            ScreenSets([ScreenEntry(2, s0={0}, s1={0})], 3, labels=["x"])

    def test_json_text(self):
        # keyed by label, each set as its sorted labels; an unscreened node has no key
        screen = ScreenSets([ScreenEntry(2, {1, 0}, {0}), ScreenEntry(0, (), ())], 3, labels=("b", "a", "c"))
        assert screen.to_json() == textwrap.dedent(
            """\
            {
              "b": {
                "s0": [],
                "s1": []
              },
              "c": {
                "s0": [
                  "a",
                  "b"
                ],
                "s1": [
                  "b"
                ]
              }
            }"""
        )

    def test_unknown_backend(self):
        cov, ordering = toy_population_cov()
        with pytest.raises(ValueError):
            screen_all(cov, ordering, backend="magic")

    @pytest.mark.parametrize(
        "backend, params",
        [
            ("sis", {}),
            ("sis", {"mode": "pvalue"}),
            ("lasso", {}),
            ("lasso", {"aic": True}),
            ("lasso", {"lambda0": 0.1}),  # stage 1 still wants its default
        ],
    )
    def test_population_input_needs_a_sample_size(self, backend, params):
        cov = CovMatrix(np.eye(4) + 0.3)
        ordering = PartialOrdering([{0, 1}, {2, 3}], n_nodes=4)
        with pytest.raises(ValueError, match="needs a sample size"):
            screen_all(cov, ordering, backend, params)

    @pytest.mark.parametrize("backend", ["sis", "lasso"])
    def test_an_engine_source_screens_with_pcor_only(self, backend):
        # an oracle has no data to score or regress: both entry points fail before any query
        dag, ordering = mediated_witness()
        message = "^oracle inputs support only the pcor backend$"
        for engine in (OracleEngine(dag), RecordingEngine(OracleEngine(dag))):
            with pytest.raises(ValueError, match=message):
                screen_all(engine, ordering, backend)
            assert engine.n_queries == 0
        with pytest.raises(ValueError, match=message):
            learn(dag, ordering, PodagConfig(backend=backend))

    def test_an_aic_failure_names_the_node_screening_one_at_a_time_stops_at(self, monkeypatch):
        # the lambda grid fails on the 3-member pools (the s1 of nodes 2 and 3) and on the
        # 4-member ones (the s0 of nodes 4, 5 and 6); every other pool is fitted at lam = 0,
        # which keeps all of it.  Node 2 fails first, at s1, though node 4's s0 is read before it.
        monkeypatch.setattr(podag.screening, "_select_lambda_aic", aic_failing_on({3, 4}, lambda *args: 0.0))
        rng = rng_from_seed(23)
        data = Dataset(rng.standard_normal((200, 7)) @ (np.eye(7) + np.triu(rng.uniform(0.5, 1.0, (7, 7)), 1)))
        ordering = PartialOrdering([{0, 1}, {2, 3}, {4, 5, 6}], n_nodes=7)
        message = r"^lasso for node {} \(s{}\): no lasso fit converged on the lambda grid$"
        with pytest.raises(SelectionError, match=message.format(2, 1)):
            screen_all(data, ordering, "lasso", {"aic": True})
        with pytest.raises(SelectionError, match=message.format(4, 0)):
            screen_all(data, ordering, "lasso", {"aic": True}, targets=[4, 5, 6])
        assert screen_one("lasso", data, ordering, 0, aic=True).s1 == {1}

    def test_population_lasso_with_explicit_penalties(self):
        cov = CovMatrix(np.eye(4) + 0.3)
        ordering = PartialOrdering([{0, 1}, {2, 3}], n_nodes=4)
        params = {"lambda0": 0.01, "lambda1": 0.01}
        screen, n_tests = screen_all(cov, ordering, "lasso", params)
        assert screen[3].s0 == {0, 1}
        assert n_tests == 0


def shared_before_instance(rng, m, weak):
    """A random ordering of ``m`` nodes in which several targets share a before set.

    Layered, or weak: every node is unordered and some take one of a few
    random before sets as an override, so a group's node ids need not be
    contiguous.
    """
    nodes = [int(v) for v in rng.permutation(m)]
    if not weak:
        cuts = sorted(rng.choice(np.arange(1, m), size=int(rng.integers(1, min(4, m - 1) + 1)), replace=False))
        return PartialOrdering([set(part) for part in np.split(nodes, cuts)], n_nodes=m)
    pools = [set(nodes[: int(rng.integers(1, m - 1))]) for _ in range(int(rng.integers(1, 4)))]
    before = {}
    for j in range(m):
        options = [pool for pool in pools if j not in pool]
        if options and rng.random() < 0.8:
            before[j] = options[int(rng.integers(len(options)))]
    return PartialOrdering([], n_nodes=m, unordered=range(m), before=before)


def outcome(call):
    try:
        return call()
    except (PodagError, ValueError) as err:
        return type(err), str(err)


class TestSharedBeforeSets:
    """screen_all reads the stage 0 of the targets sharing a before set off one factorization."""

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(4, 12),
        weak=st.booleans(),
        threshold=st.sampled_from([None, 0.05, 0.2]),
        alpha=st.sampled_from([0.5, 0.05]),
    )
    def test_grouped_reads_equal_per_node_screens(self, seed, m, weak, threshold, alpha):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3 * m, m))
        cov = CovMatrix(x.T @ x / (3 * m), n=int(rng.integers(m + 4, 500)))
        ordering = shared_before_instance(rng, m, weak)
        groups = {}
        for j in range(m):
            if ordering.before_set(j):
                groups.setdefault(ordering.before_set(j), []).append(j)
        shared = [group for group in groups.values() if len(group) > 1]
        for before, group in groups.items():
            pool = sorted(before)
            rhos = _bordered_rhos(cov.values, pool, group)
            assert sorted(rhos) == group  # a well-conditioned pool serves every target
            for t in group:
                own, read, _ = _read_stage(cov.values, [(pool + [t], len(pool), [])])  # the target's own block
                assert read.all()
                np.testing.assert_allclose(rhos[t], own[:-1], rtol=0, atol=1e-12)

        reads = []
        params = {"alpha": alpha} if threshold is None else {"threshold": threshold}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(podag.screening, "_bordered_rhos", lambda *args: reads.append(args) or _bordered_rhos(*args))
            screen, n_tests = screen_all(cov, ordering, "pcor", params)
        assert sorted(tuple(group) for _, _, group in reads) == sorted(tuple(group) for group in shared)
        single = [screen_one("pcor", cov, ordering, j, **params) for j in range(m)]
        assert [screen[j] for j in range(m)] == single
        assert [screen[j].pools for j in range(m)] == [entry.pools for entry in single]
        assert n_tests == sum(len(pool) for entry in single for pool in entry.pools)

    def test_dependent_target_falls_back_and_is_named(self, monkeypatch):
        # V2 = V0 + V1 shares before = {V0, V1} with V3: V2 leaves no
        # residual variance, so it reads its own block, which names the set
        data, ordering = dependent_four_columns()
        reads = []
        monkeypatch.setattr(podag.screening, "_bordered_rhos", lambda *args: reads.append(args) or _bordered_rhos(*args))
        with pytest.raises(DegenerateDataError, match="columns V0, V1 and V2 are linearly dependent"):
            screen_all(data, ordering, "pcor", {"alpha": 0.5}, targets=[2, 3])
        assert [group for _, _, group in reads] == [[2, 3]]
        cov = sample_covariance(data)
        assert sorted(_bordered_rhos(cov.values, [0, 1], [2, 3])) == [3]

    def test_singular_earlier_layer_raises_the_per_node_error(self):
        x = rng_from_seed(8).normal(size=(500, 5))
        x[:, 2] = x[:, 0] - 2.0 * x[:, 1]
        cov = CovMatrix(np.cov(x, rowvar=False, bias=True))  # a population input
        ordering = PartialOrdering([{0, 1, 2}, {3, 4}], n_nodes=5)
        assert _bordered_rhos(cov.values, [0, 1, 2], [3, 4]) == {}  # the shared block fails the guard
        got = outcome(lambda: screen_all(cov, ordering, "pcor", {"threshold": 0.01}, targets=[3, 4]))
        assert got == outcome(lambda: screen_one("pcor", cov, ordering, 3, threshold=0.01))
        assert got[0] is DegenerateDataError and "columns V0, V1 and V2" in got[1]

    def test_pool_outnumbering_samples_names_the_same_node(self, monkeypatch):
        rng = rng_from_seed(5)
        dag, ordering = generate_layered_dag(GenConfig(n_nodes=40, layers=2), rng)
        data = sample(random_weights(dag, rng), 20, rng)
        targets = sorted(ordering.layers[1])
        want = outcome(lambda: screen_one("pcor", data, ordering, targets[0]))

        def no_read(*args):
            raise AssertionError("a pool was read before the sample-size check")

        monkeypatch.setattr(podag.screening, "_bordered_rhos", no_read)
        monkeypatch.setattr(podag.screening, "_read_stage", no_read)
        got = outcome(lambda: screen_all(data, ordering, "pcor", {"alpha": 0.5}, targets=targets))
        assert got == want and got[0] is InsufficientDataError
        assert f"node {targets[0]}" in got[1]


BATCH_CASES = [
    ("pcor", {"threshold": 0.05}),
    ("pcor", {"alpha": 0.5}),
    ("pcor", {"alpha": 0.05}),
    ("oracle", {}),
    ("sis", {"t": 0.3}),
    ("sis", {"mode": "pvalue", "pvalue_cutoff": 0.5}),
    ("sis", {"mode": "pvalue", "pvalue_cutoff": 0.99}),
    ("lasso", {}),
    ("lasso", {"aic": True}),
]


def screen_outcome(source, ordering, backend, params, targets):
    """What a :func:`screen_all` call shows: entries, pools, n_tests, error, warnings and queries asked."""
    asked = source.n_queries if isinstance(source, OracleEngine) else 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            screen, n_tests = screen_all(source, ordering, backend, params, targets)
            entries, error = [screen[j] for j in targets], None
        except (PodagError, ValueError) as err:
            entries, n_tests, error = [], 0, (type(err), str(err))
    asked = (source.n_queries if isinstance(source, OracleEngine) else 0) - asked
    return entries, [e.pools for e in entries], n_tests, error, [str(w.message) for w in caught], asked


class TestStagingAcrossTargets:
    """Staging every target at once shows nothing that screening one node at a time would not."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(6, 12),
        weak=st.booleans(),
        case=st.sampled_from(BATCH_CASES),
        n=st.sampled_from([2, 4, 6, 9, 500]),
        dependent=st.booleans(),
        capped=st.booleans(),
    )
    def test_all_targets_at_once_equal_each_target_alone(self, seed, m, weak, case, n, dependent, capped):
        # small n fails pcor's sample-size check at some targets and lets the rest keep more than n,
        # a column that sums two others fails pcor's guard at the pools that hold all three,
        # and a lasso capped at one sweep leaves notes, its AIC grid failing on pools of 2 or 3
        rng = np.random.default_rng(seed)
        ordering = shared_before_instance(rng, m, weak)
        backend, params = case
        if backend == "oracle":
            order = rng.permutation(m).tolist()
            edges = [(order[a], order[b]) for a in range(m) for b in range(a + 1, m) if rng.random() < 0.35]
            source, backend = OracleEngine(Dag(m, edges)), "pcor"
        else:
            x = rng.standard_normal((3 * m, m)) @ (np.eye(m) + np.triu(rng.uniform(-0.8, 0.8, (m, m)), 1))
            if dependent:
                x[:, m - 1] = x[:, 0] + x[:, 1]
            source = CovMatrix(x.T @ x / (3 * m), n=n)
        targets = sorted(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False).tolist())
        with pytest.MonkeyPatch.context() as patch:
            if capped:
                patch.setattr(podag.screening, "_lasso", functools.partial(_lasso, max_sweeps=1))
                patch.setattr(podag.screening, "_select_lambda_aic", aic_failing_on({2, 3}, _select_lambda_aic))
            entries, pools, n_tests, error, warned, asked = screen_outcome(source, ordering, backend, params, targets)
            alone = [screen_outcome(source, ordering, backend, params, [j]) for j in targets]
        failed = next((k for k, got in enumerate(alone) if got[3] is not None), len(alone))
        assert error == (alone[failed][3] if failed < len(alone) else None)
        assert warned == [w for got in alone[:failed] for w in got[4]]
        if error is None:
            assert entries == [got[0][0] for got in alone]
            assert [e.warnings for e in entries] == [got[0][0].warnings for got in alone]
            assert pools == [got[1][0] for got in alone]
            assert n_tests == sum(got[2] for got in alone)
            assert asked == sum(got[5] for got in alone)


class TestInflation:
    def test_inflated_sets_are_supersets(self):
        rng = rng_from_seed(20)
        dag, ordering = random_layered_instance(rng, n_lo=6, n_hi=10)
        screen, _ = screen_all(OracleEngine(dag), ordering, backend="pcor")
        fat = inflate_screen_sets(screen, ordering, rng, extra=3)
        fat.validate(ordering)
        for j in screen.nodes():
            assert screen[j].s0 <= fat[j].s0
            assert screen[j].s1 <= fat[j].s1
