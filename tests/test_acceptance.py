"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the line per
criterion.  Every tolerance is pinned here; nothing is deferred to later
calibration.  The Monte Carlo criteria use fixed seeds, so the outcomes
are deterministic on a given platform.
"""

import itertools
import json
import math
import statistics
import time

import numpy as np
import pytest

from podag import (
    BenchmarkSpec,
    CovMatrix,
    Dag,
    GaussianEngine,
    OracleEngine,
    PartialOrdering,
    PodagConfig,
    estimate_h0,
    estimate_h_minus_j,
    lasso_fit,
    learn,
    partial_correlation,
    podag_multi_layer,
    population_covariance,
    run_benchmark,
    sample_covariance,
    screen_all,
)
from podag.cli import EXIT_OK, main
from podag.evaluation import faithfulness_report
from podag.screening import ScreenSets
from podag.sem import rng_from_seed, sample, spawn_rngs, toy_two_layer_sem

from helpers import (
    inflate_screen_sets,
    oracle_maximal_pdag,
    random_bipartite_instance,
    random_layered_instance,
)


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def oracle_screen(dag, ordering):
    screen, _ = screen_all(OracleEngine(dag), ordering, backend="pcor")
    return ScreenSets(
        [screen[j] for j in screen.nodes()], n_nodes=dag.n_nodes, labels=dag.labels
    )


def test_criterion_1_toy_reproduction():
    """Naive estimators show their artifacts; the estimator returns exactly H."""
    started = time.perf_counter()
    sem, ordering = toy_two_layer_sem()
    h0_hits = hj_hits = exact = 0
    for seed in range(100):
        data = sample(sem, 1000, rng_from_seed(seed))
        h0 = estimate_h0(GaussianEngine(data, alpha=0.05), ordering)
        hj = estimate_h_minus_j(GaussianEngine(data, alpha=0.05), ordering)
        h0_hits += (0, 3) in h0.pdag.directed_edges  # X1 -> Y2 through the mediating path
        hj_hits += (1, 2) in hj.pdag.directed_edges  # X2 -> Y1 through the open collider
        res = learn(data, ordering, PodagConfig(alpha=0.05))
        exact += res.cross_edges == {(0, 2), (1, 3)}
    elapsed = time.perf_counter() - started
    assert h0_hits >= 80, h0_hits
    assert hj_hits >= 80, hj_hits
    assert exact >= 90, exact
    assert elapsed < 10.0, elapsed
    report(1, f"h0={h0_hits}/100 h-minus-j={hj_hits}/100 exact={exact}/100 in {elapsed:.1f}s")


def test_criterion_2_population_correctness():
    """Oracle runs recover H exactly and the maximal PDAG matches brute force."""
    started = time.perf_counter()
    rng = rng_from_seed(2202)
    failures = 0
    modes = {"two_layer": 0, "multi_layer": 0, "weak": 0}

    def check(result, dag, ordering):
        ok_cross = result.cross_edges == dag.cross_edges(ordering)
        ok_pdag = result.as_pdag() == oracle_maximal_pdag(dag, ordering)
        return ok_cross and ok_pdag

    for trial in range(200):
        mode = ("two_layer", "multi_layer", "weak")[trial % 3]
        modes[mode] += 1
        if mode == "two_layer":
            dag, ordering = random_layered_instance(rng, layers_hi=3)
            ordering = PartialOrdering(
                [set().union(*ordering.layers[:1]), set().union(*ordering.layers[1:])]
                if ordering.n_layers > 1
                else ordering.layers,
                n_nodes=dag.n_nodes,
            )
            result = learn(dag, ordering, PodagConfig(learn_within_layers=True))
            failures += not check(result, dag, ordering)
        elif mode == "multi_layer":
            dag, ordering = random_layered_instance(rng, layers_hi=6)
            result = learn(dag, ordering, PodagConfig(learn_within_layers=True))
            failures += not check(result, dag, ordering)
        else:
            dag, base = random_layered_instance(rng, n_lo=5, layers_hi=4)
            # demote one node to "no ordering information"
            free = sorted(base.layers[0])[0]
            layers = [l - {free} for l in base.layers]
            ordering = PartialOrdering(
                [l for l in layers if l], n_nodes=dag.n_nodes, unordered={free}
            )
            ba = ordering.to_before_after()
            weak = PartialOrdering(
                [],
                n_nodes=dag.n_nodes,
                unordered=range(dag.n_nodes),
                before={j: b for j, (b, a) in ba.items()},
                after={j: a for j, (b, a) in ba.items()},
            )
            screen = oracle_screen(dag, ordering)
            result = podag_multi_layer(
                OracleEngine(dag), weak, screen, PodagConfig(learn_within_layers=True)
            )
            failures += not check(result, dag, ordering)
    elapsed = time.perf_counter() - started
    assert failures == 0, failures
    assert elapsed < 60.0, elapsed
    report(2, f"200 instances ({modes}), 0 failures in {elapsed:.1f}s")


def test_criterion_3_superset_robustness():
    """Inflating every screened set never changes the final graph."""
    rng = rng_from_seed(3303)
    changed = 0
    for _ in range(50):
        dag, ordering = random_layered_instance(rng, n_lo=5, n_hi=10)
        screen = oracle_screen(dag, ordering)
        cfg = PodagConfig(learn_within_layers=True)
        base = podag_multi_layer(OracleEngine(dag), ordering, screen, cfg)
        fat = inflate_screen_sets(screen, ordering, rng, extra=3)
        inflated = podag_multi_layer(OracleEngine(dag), ordering, fat, cfg)
        if (
            base.cross_edges != inflated.cross_edges
            or base.as_pdag() != inflated.as_pdag()
        ):
            changed += 1
    assert changed == 0, changed
    report(3, "50 inflated oracle runs, edge sets identical in every run")


def test_criterion_4_faithfulness_reproduction():
    """Faithfulness strength orders PODAG >= PC+ >= PC; PODAG tests fewest."""
    started = time.perf_counter()
    rows = faithfulness_report(
        replicates=100,
        n_nodes=20,
        expected_edges_per_node=2.0,
        layers=2,
        seed=61,
        weight_range=(0.1, 1.0),
        threads=2,
    )
    elapsed = time.perf_counter() - started

    def series(algo, field):
        return [r[field] for r in rows if r["algorithm"] == algo]

    medians = {}
    for field in ("rho_min_skeleton", "rho_min_full"):
        meds = {a: statistics.median(series(a, field)) for a in ("pc", "pc_plus", "podag")}
        assert meds["podag"] >= meds["pc_plus"] >= meds["pc"], (field, meds)
        medians[field] = meds
    pc_counts = series("pc", "ci_tests")
    podag_counts = series("podag", "ci_tests")
    wins = sum(1 for a, b in zip(podag_counts, pc_counts) if a < b)
    assert wins >= 95, wins
    assert elapsed < 300.0, elapsed
    report(
        4,
        "median rho*min skeleton pc=%.4f pc+=%.4f podag=%.4f; count wins %d/100 in %.0fs"
        % (
            medians["rho_min_skeleton"]["pc"],
            medians["rho_min_skeleton"]["pc_plus"],
            medians["rho_min_skeleton"]["podag"],
            wins,
            elapsed,
        ),
    )


def test_criterion_5_benchmark_ordering():
    """At 50 nodes the estimator beats PC and PC+ on TPR at lower FPR."""
    started = time.perf_counter()
    spec = BenchmarkSpec(
        n_nodes=(50,),
        layers=(2, 5),
        n=(500,),
        replicates=20,
        seed=2026,
        expected_edges_per_node=3.0,
        algorithms=("pc", "pc_plus", "podag"),
        backends=("pcor",),
        max_sepset_size=3,
    )
    rows, failures = run_benchmark(spec, threads=4)
    elapsed = time.perf_counter() - started
    assert not failures, failures

    def mean(algo, layers, field, scope="all_edges"):
        sel = [
            r[field]
            for r in rows
            if r["algorithm"] == algo and r["layers"] == layers and r["scope"] == scope
        ]
        assert len(sel) == 20
        return float(np.mean(sel))

    summary = []
    for layers in (2, 5):
        podag_tpr = mean("podag", layers, "tpr")
        podag_fpr = mean("podag", layers, "fpr")
        for rival in ("pc", "pc_plus"):
            assert podag_tpr > mean(rival, layers, "tpr"), (layers, rival)
            assert podag_fpr <= mean(rival, layers, "fpr"), (layers, rival)
        summary.append((layers, podag_tpr, podag_fpr))
    # more layers help: recall rises and the overall structural error falls
    assert mean("podag", 5, "tpr") > mean("podag", 2, "tpr")
    assert mean("podag", 5, "shd") < mean("podag", 2, "shd")
    assert elapsed < 600.0, elapsed
    report(
        5,
        "all-edges means "
        + " ".join(f"L={l}: tpr={t:.3f} fpr={f:.4f}" for l, t, f in summary)
        + f" in {elapsed:.0f}s",
    )


def test_criterion_6_numerical_oracles():
    """Partial correlations, lasso optimality, and simulator consistency."""
    # (a) partial correlations vs residual-regression and the zero-equivalence
    rng = rng_from_seed(6001)
    for _ in range(1000):
        m = int(rng.integers(3, 7))
        a = rng.normal(size=(m + 2, m))
        sigma = a.T @ a / (m + 2)
        cov = CovMatrix(sigma)
        i, j = (int(v) for v in rng.choice(m, size=2, replace=False))
        rest = [v for v in range(m) if v not in (i, j)]
        size = int(rng.integers(0, len(rest) + 1))
        s = sorted(int(v) for v in rng.choice(rest, size=size, replace=False)) if size else []
        rho = partial_correlation(cov, i, j, s)

        if s:
            sss = sigma[np.ix_(s, s)]
            beta_i = np.linalg.solve(sss, sigma[np.ix_(s, [i])])[:, 0]
            beta_j = np.linalg.solve(sss, sigma[np.ix_(s, [j])])[:, 0]
            cij = sigma[i, j] - beta_i @ sigma[np.ix_(s, [j])][:, 0] - beta_j @ sigma[
                np.ix_(s, [i])
            ][:, 0] + beta_i @ sss @ beta_j
            cii = sigma[i, i] - 2 * beta_i @ sigma[np.ix_(s, [i])][:, 0] + beta_i @ sss @ beta_i
            cjj = sigma[j, j] - 2 * beta_j @ sigma[np.ix_(s, [j])][:, 0] + beta_j @ sss @ beta_j
            resid = cij / math.sqrt(cii * cjj)
            schur = cij
            idx = s + [i]
            beta_full = np.linalg.solve(sigma[np.ix_(idx, idx)], sigma[np.ix_(idx, [j])])[:, 0]
            coeff = beta_full[-1]
        else:
            resid = sigma[i, j] / math.sqrt(sigma[i, i] * sigma[j, j])
            schur = sigma[i, j]
            coeff = sigma[i, j] / sigma[i, i]
        assert abs(rho - resid) < 1e-9
        flags = (abs(rho) < 1e-9, abs(coeff) < 1e-9, abs(schur) < 1e-9)
        assert len(set(flags)) == 1, (rho, coeff, schur)

    # (b) lasso: KKT residuals and the orthonormal closed form
    rng = rng_from_seed(6002)
    for _ in range(25):
        n, p = 60, 8
        x = rng.standard_normal((n, p))
        beta = np.zeros(p)
        beta[:3] = rng.uniform(0.5, 2.0, size=3)
        y = x @ beta + 0.3 * rng.standard_normal(n)
        lam = 0.1
        fit = lasso_fit(y, x, lam)
        grad = x.T @ (y - x @ fit.coefficients) / n
        for k in range(p):
            if k in fit.active_set:
                assert abs(abs(grad[k]) - lam) < 1e-6
            else:
                assert abs(grad[k]) <= lam + 1e-6
    q, _ = np.linalg.qr(rng.standard_normal((100, 7)))
    x = q * np.sqrt(100)
    y = x @ np.array([2.0, -1.0, 0.4, 0.0, 0.0, 0.05, -0.3]) + 0.1 * rng.standard_normal(100)
    z = x.T @ y / 100
    for lam in (0.05, 0.3, 0.8):
        fit = lasso_fit(y, x, lam)
        expected = np.sign(z) * np.maximum(np.abs(z) - lam, 0.0)
        np.testing.assert_allclose(fit.coefficients, expected, atol=1e-8)

    # (c) simulator: a million draws match the population covariance to 1%
    sem, _ = toy_two_layer_sem()
    data = sample(sem, 1_000_000, rng_from_seed(6003))
    emp = sample_covariance(data).values
    pop = population_covariance(sem).values
    np.testing.assert_allclose(emp, pop, rtol=0.01)
    report(6, "1000 matrices, 25 lasso fits + closed forms, 1e6-draw covariance")


def test_criterion_7_failure_mode_patterns():
    """Every naive-estimator false positive shows its characteristic pattern."""
    rng = rng_from_seed(7007)
    fp0 = fpj = 0
    for _ in range(100):
        dag, ordering = random_bipartite_instance(rng)
        engine = OracleEngine(dag)
        h0 = estimate_h0(engine, ordering)
        hj = estimate_h_minus_j(engine, ordering)
        assert dag.cross_edges(ordering) <= h0.pdag.directed_edges
        assert dag.cross_edges(ordering) <= hj.pdag.directed_edges
        second = ordering.layers[1]
        for k, j in h0.pdag.directed_edges - dag.edges:
            fp0 += 1
            hops = dag.children(k) & second
            assert j in dag.descendants(hops - {j}), (sorted(dag.edges), k, j)
        for k, j in hj.pdag.directed_edges - dag.edges:
            fpj += 1
            assert dag.children(k) & dag.children(j), (sorted(dag.edges), k, j)
        # with no within-layer edges both estimators are exact
        pruned = Dag(
            dag.n_nodes,
            [e for e in dag.edges if not (e[0] in second and e[1] in second)],
        )
        truth = pruned.cross_edges(ordering)
        assert estimate_h0(OracleEngine(pruned), ordering).pdag.directed_edges == truth
        assert estimate_h_minus_j(OracleEngine(pruned), ordering).pdag.directed_edges == truth
    report(7, f"100 instances; {fp0} path-pattern and {fpj} collider-pattern false positives checked")


def test_criterion_8_cli_determinism(tmp_path):
    """Every subcommand is byte-identical across two seeded runs."""

    def run(args):
        assert main([str(a) for a in args]) == EXIT_OK

    outputs = {}
    for tag in ("one", "two"):
        root = tmp_path / tag
        sim = root / "sim"
        run(["simulate", "--nodes", 10, "--layers", 2, "--epn", 2, "--n", 200,
             "--seed", 88, "--threads", 1, "-o", sim])
        fit = root / "fit"
        run(["learn", "--data", sim / "dataset.csv", "--layering", sim / "layering.txt",
             "--within-layers", "--max-sepset-size", 2, "--on-conflict", "ignore",
             "--seed", 88, "--threads", 1, "-o", fit])
        bench = root / "bench.csv"
        run(["benchmark", "--nodes", "8", "--layers", "2", "--n", "150",
             "--replicates", 2, "--epn", 1.5, "--max-sepset-size", 2,
             "--seed", 88, "--threads", 1, "-o", bench])
        faith = root / "faith.csv"
        run(["faithfulness", "--replicates", 3, "--nodes", 8, "--epn", 1.5,
             "--seed", 88, "--threads", 1, "-o", faith])
        outputs[tag] = {
            "dataset.csv": (sim / "dataset.csv").read_bytes(),
            "graph.tsv": (sim / "graph.tsv").read_bytes(),
            "sem.json": (sim / "sem.json").read_bytes(),
            "layering.txt": (sim / "layering.txt").read_bytes(),
            "result.json": (fit / "result.json").read_bytes(),
            "edges.tsv": (fit / "edges.tsv").read_bytes(),
            "bench.csv": bench.read_bytes(),
            "faith.csv": faith.read_bytes(),
        }
    mismatched = [k for k in outputs["one"] if outputs["one"][k] != outputs["two"][k]]
    assert not mismatched, mismatched
    report(8, f"{len(outputs['one'])} output files byte-identical across reruns")
