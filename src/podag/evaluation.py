"""Metrics, faithfulness-strength analysis, and the benchmark harness."""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .baselines import estimate_h0, estimate_h_minus_j, pc, pc_plus
from .errors import SingularityError
from .graph import Pdag, _ordered_edges
from .screening import BACKENDS
from .search import STAGES, PodagConfig, learn
from .sem import GenConfig, generate_layered_dag, population_covariance, random_weights, sample, spawn_rngs
from .stats import GaussianEngine, OracleEngine, RecordingEngine, partial_correlation

__all__ = [
    "EdgeMetrics",
    "edge_metrics",
    "rho_min_star",
    "faithfulness_report",
    "FAITHFULNESS_FIELDS",
    "BenchmarkSpec",
    "run_benchmark",
    "BENCHMARK_FIELDS",
    "rows_to_csv",
]

ZERO_RHO_TOL = 1e-10
ALGORITHMS = ("pc", "pc_plus", "podag")
SCOPES = ("cross_only", "all_edges", "skeleton")
# a scalar BenchmarkSpec field's annotation -> the JSON values it takes, and their rule
SPEC_SCALARS = {
    "int": (int, "be an integer"),
    "float": ((int, float), "be a number"),
    "int | None": ((int, type(None)), "be an integer or null"),
}
# a numeric tuple field -> the JSON values its entries take, and their rule
SPEC_ELEMENTS = dict.fromkeys(("n_nodes", "layers", "n"), (int, "hold integers"))
SPEC_ELEMENTS["weight_range"] = ((int, float), "hold numbers")


@dataclass(frozen=True)
class EdgeMetrics:
    """Confusion counts over an eligible pair universe.

    ``tpr`` is tp/(tp+fn) with 0/0 read as 1; ``fpr`` is fp/(fp+tn) with
    0/0 read as 0.  ``shd`` counts unordered pairs whose relation
    (->, <-, -, none) differs between the estimate and the truth,
    restricted to the scope's universe.
    """

    scope: str
    tp: int
    fp: int
    tn: int
    fn: int
    shd: int

    @property
    def tpr(self):
        return 1.0 if self.tp + self.fn == 0 else self.tp / (self.tp + self.fn)

    @property
    def fpr(self):
        return 0.0 if self.fp + self.tn == 0 else self.fp / (self.fp + self.tn)

    @property
    def universe_size(self):
        return self.tp + self.fp + self.tn + self.fn


def _estimated_relations(estimated, ordering):
    """Normalize an estimate into pairwise relations.

    Returns (directed set, adjacency set).  Undirected edges whose
    endpoints are ordered count as directed the forward way; undirected
    edges between unordered peers contribute adjacency only.
    """
    if isinstance(estimated, Pdag):
        orientable = () if ordering is None else estimated.undirected_edges
        directed = _ordered_edges(estimated.directed_edges, orientable, ordering)[0]
        return directed, set(estimated.adjacency_pairs())  # orienting keeps every adjacency
    directed = {(int(u), int(v)) for u, v in estimated}
    return directed, {(min(u, v), max(u, v)) for u, v in directed}


def edge_metrics(estimated, truth, scope="all_edges", ordering=None):
    """Confusion counts of an estimate against the true DAG.

    ``scope`` selects the eligible universe: ``cross_only`` counts
    ordered pairs whose endpoints are ordered by the layering,
    ``all_edges`` all ordered pairs, ``skeleton`` unordered pairs.

    ``estimated`` may be a directed edge set or a :class:`Pdag`; for
    directed scopes an undirected edge counts as directed only when the
    ordering orients it (same-layer undirected edges count as misses of
    the true direction, never as extra directed edges).
    """
    if isinstance(estimated, Pdag) and estimated.n_nodes != truth.n_nodes:
        raise ValueError("estimate and truth disagree on the node count")
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}")
    if scope == "cross_only" and ordering is None:
        raise ValueError("cross_only scope needs an ordering")
    n = truth.n_nodes
    directed, adjacency = _estimated_relations(estimated, ordering)
    for u, v in directed | adjacency:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"estimated edge ({u}, {v}) outside the node universe")

    # a self-loop lies in no universe
    directed = {(u, v) for u, v in directed if u != v}
    adjacency = {(u, v) for u, v in adjacency if u != v}
    truth_dir = set(truth.edges)
    truth_adj = {(min(u, v), max(u, v)) for u, v in truth_dir}
    if scope == "skeleton":
        size = n * (n - 1) // 2
        est_set, truth_set = adjacency, truth_adj
    elif scope == "all_edges":
        size = n * (n - 1)
        est_set, truth_set = directed, truth_dir
    else:
        # earlier[v]: every u that ordering.orders_before(u, v) accepts, but a node the truth
        # lacks; (u, v) is in the universe
        earlier = [{u for u in ordering.before_set(v) if u < n} for v in range(n)]
        size = sum(map(len, earlier))
        est_set = {(u, v) for u, v in directed if u in earlier[v]}
        truth_set = {(u, v) for u, v in truth_dir if u in earlier[v]}
    tp = len(est_set & truth_set)
    fp = len(est_set) - tp
    fn = len(truth_set) - tp

    if scope == "skeleton":
        shd = len(est_set ^ truth_set)
    else:
        # only pairs adjacent on some side can differ: the rest read "none" twice
        pairs = adjacency | truth_adj
        if scope == "cross_only":
            pairs = {(u, v) for u, v in pairs if u in earlier[v] or v in earlier[u]}

        def relation(u, v, directed_set, adj_set):
            if (u, v) in directed_set:
                return ">"
            if (v, u) in directed_set:
                return "<"
            if (u, v) in adj_set:
                return "-"
            return "."

        shd = sum(
            1
            for u, v in pairs
            if relation(u, v, directed, adjacency) != relation(u, v, truth_dir, truth_adj)
        )
    return EdgeMetrics(scope=scope, tp=tp, fp=fp, tn=size - tp - fp - fn, fn=fn, shd=shd)


def _fit(algorithm, source, ordering, cfg, engine=None):
    """Fit one algorithm on a :class:`Dataset` or :class:`Dag`; returns its result.

    The one estimator dispatch of ``podag learn``, the benchmark grid
    and the faithfulness report.  ``engine``
    overrides the CI-test engine, as in :func:`learn`; without it the
    other estimators test a :class:`Dataset` at ``cfg.alpha``.  pc and
    pc_plus also take ``max_sepset_size``, ``stable`` and ``on_conflict``
    from ``cfg``.  A result's ``pdag`` and ``diagnostics`` read the same
    for every algorithm.
    """
    if algorithm == "podag":
        return learn(source, ordering, cfg=cfg, engine=engine)
    if algorithm not in ("pc", "pc_plus", "h0", "h_minus_j"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if engine is None:
        engine = GaussianEngine(source, alpha=cfg.alpha)
    if algorithm in ("h0", "h_minus_j"):
        estimator = estimate_h0 if algorithm == "h0" else estimate_h_minus_j
        return estimator(engine, ordering, labels=source.labels)
    estimator, nodes = (pc, len(source.labels)) if algorithm == "pc" else (pc_plus, ordering)
    return estimator(
        engine,
        nodes,
        labels=source.labels,
        max_level=cfg.max_sepset_size,
        stable=cfg.stable,
        on_conflict=cfg.on_conflict,
    )


def _recorded_stages(algorithm, dag, ordering, cfg=None):
    """Fit against a recording d-separation oracle of ``dag``; its queries ``(i, j, S)``, cut into stages.

    The cut follows the fit's own ``queries_per_stage`` (PC, PC+, h0 and
    h-minus-j ask all in ``search``).  ``cfg`` defaults to a
    within-layers PODAG configuration.  For the screen-then-search
    estimator the constraint-based tests are the ``search`` and
    ``orient`` stages: screening is set inference (a regression problem
    in the sample version), and every search tuple conditions on
    ``cross(j) - {k}`` plus a blanket subset.
    """
    recorder = RecordingEngine(OracleEngine(dag))
    result = _fit(algorithm, dag, ordering, cfg or PodagConfig(learn_within_layers=True), recorder)
    return result.diagnostics.stage_records(recorder.records)


def _draw_replicate(rng, n_nodes, expected_edges_per_node, layers, weight_range):
    """One replicate's DAG, ordering and SEM, drawn from ``rng`` in that order."""
    gen = GenConfig(
        n_nodes=n_nodes,
        expected_edges_per_node=expected_edges_per_node,
        layers=layers,
        weight_range=weight_range,
    )
    dag, ordering = generate_layered_dag(gen, rng)
    return dag, ordering, random_weights(dag, rng, weight_range=weight_range)


def rho_min_star(sem, tuples, zero_tol=ZERO_RHO_TOL):
    """Minimum nonzero absolute population partial correlation over tuples.

    Returns ``math.inf`` when every tuple's partial correlation is zero.
    Duplicated or reordered tuples do not change the value; each distinct
    tuple is evaluated once.
    """
    cov = population_covariance(sem)
    best = math.inf
    for i, j, s in dict.fromkeys((min(i, j), max(i, j), frozenset(s)) for i, j, s in tuples):
        try:
            rho = abs(partial_correlation(cov, i, j, s))
        except SingularityError as err:
            warnings.warn(f"skipping tuple ({i}, {j}, {sorted(s)}): {err}")
            continue
        if rho > zero_tol:
            best = min(best, rho)
    return best


FAITHFULNESS_FIELDS = [
    "replicate",
    "algorithm",
    "rho_min_skeleton",
    "rho_min_full",
    "ci_tests",
]


def faithfulness_report(
    replicates=100,
    n_nodes=20,
    expected_edges_per_node=2.0,
    layers=2,
    seed=0,
    weight_range=(0.1, 1.0),
    threads=1,
):
    """Faithfulness-strength comparison of PC, PC+, and PODAG.

    For each random SEM, runs every algorithm against the d-separation
    oracle, collects the tuples its constraint-based part tested (for the
    screen-then-search estimator the searching loop and orientation
    queries; screening is regression-style set inference), cut from the
    recorded queries by the fit's own ``queries_per_stage``, and
    evaluates the minimum nonzero population partial correlation over
    (a) the search stage's tuples and (b) the full run including the
    orientation stage's, together with the number of CI tests.
    PODAG orients most pairs from its screening verdicts, which are
    independences and so cannot lower (b); its orientation queries are
    only the post-hoc searches for the pairs that neither the search nor
    a screening verdict separated.  Returns one row per (replicate,
    algorithm).
    """
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    rngs = spawn_rngs(seed, replicates)

    def one(rep):
        dag, ordering, sem = _draw_replicate(
            rngs[rep], n_nodes, expected_edges_per_node, layers, weight_range
        )
        rows = []
        for algo in ("pc", "pc_plus", "podag"):
            stages = _recorded_stages(algo, dag, ordering)
            skeleton_tuples, orient_tuples = stages["search"], stages["orient"]
            rho_skeleton = rho_min_star(sem, skeleton_tuples)
            # the full run's minimum only needs the tuples the skeleton lacks
            seen = set(skeleton_tuples)
            rho_rest = rho_min_star(sem, [t for t in orient_tuples if t not in seen])
            rows.append(
                {
                    "replicate": rep,
                    "algorithm": algo,
                    "rho_min_skeleton": rho_skeleton,
                    "rho_min_full": min(rho_skeleton, rho_rest),
                    "ci_tests": len(skeleton_tuples) + len(orient_tuples),
                }
            )
        return rows

    results = _map_replicates(one, range(replicates), threads)
    return [row for rows in results for row in rows]


@dataclass(frozen=True)
class BenchmarkSpec:
    """Grid specification for the simulation benchmark.

    ``alpha`` is the test level for PC and PC+.  The searching loop of
    the screen-then-search estimator runs at its own ``podag_alpha``,
    stricter by default: its per-candidate test count is small and its
    consistency theory wants a level that shrinks with n, whereas PC's
    effective per-edge error is already deflated by its much larger
    number of (diverse) tests.
    """

    n_nodes: tuple = (50,)
    layers: tuple = (2, 5)
    n: tuple = (500,)
    backends: tuple = ("pcor",)
    algorithms: tuple = ALGORITHMS
    replicates: int = 20
    seed: int = 0
    expected_edges_per_node: float = 3.0
    alpha: float = 0.05
    podag_alpha: float = 0.005
    screen_alpha: float = 0.5
    max_sepset_size: int | None = 3
    weight_range: tuple = (0.1, 1.0)
    scopes: tuple = SCOPES

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        for axis in ("n_nodes", "layers", "n", "backends", "algorithms", "scopes"):
            if not getattr(self, axis):
                raise ValueError(f"benchmark axis {axis!r} is empty; give it at least one value")
        for axis, values, valid in (
            ("algorithm", self.algorithms, ALGORITHMS),
            ("backend", self.backends, BACKENDS),
            ("scope", self.scopes, SCOPES),
        ):
            for value in values:
                if value not in valid:
                    raise ValueError(f"unknown {axis} {value!r}; choose from {', '.join(valid)}")
        if not isinstance(self.weight_range, (tuple, list)) or len(self.weight_range) != 2:
            raise ValueError("weight_range must be a (low, high) pair")
        self.fit_config("podag")  # PodagConfig checks the levels and the cap before any fit
        self.fit_config("pc")

    def fit_config(self, algorithm, backend="pcor"):
        """The :class:`PodagConfig` of one fit in the grid.

        PODAG searches within layers at ``podag_alpha``, capped at
        ``max_sepset_size``; PC and PC+ test at ``alpha``, uncapped.
        """
        if algorithm == "podag":
            return PodagConfig(
                backend=backend,
                alpha=self.podag_alpha,
                screen_alpha=self.screen_alpha,
                max_sepset_size=self.max_sepset_size,
                learn_within_layers=True,
                on_conflict="ignore",
            )
        return PodagConfig(alpha=self.alpha, on_conflict="ignore")

    @classmethod
    def from_json(cls, doc):
        """Spec from a JSON object with the field names as keys.

        A grid axis given as a single value becomes a one-value axis;
        ``weight_range`` is one (low, high) pair.
        """
        if isinstance(doc, str):
            doc = json.loads(doc)
        if not isinstance(doc, dict):
            raise ValueError("a benchmark spec must be a JSON object")
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = sorted(set(doc) - set(types))
        if unknown:
            raise ValueError(f"unknown benchmark spec keys: {', '.join(unknown)}")
        kwargs = dict(doc)
        for key, value in doc.items():
            if types[key] == "tuple" and isinstance(value, list):
                kwargs[key] = tuple(value)
            elif types[key] == "tuple" and key != "weight_range":
                kwargs[key] = (value,)
            if types[key] in SPEC_SCALARS or key in SPEC_ELEMENTS:
                accepted, rule = SPEC_SCALARS.get(types[key]) or SPEC_ELEMENTS[key]
                for entry in kwargs[key] if isinstance(kwargs[key], tuple) else (value,):
                    if isinstance(entry, bool) or not isinstance(entry, accepted):
                        raise ValueError(f"benchmark spec key {key!r} must {rule}, got {entry!r}")
        return cls(**kwargs)


BENCHMARK_FIELDS = [
    "n_nodes",
    "layers",
    "n",
    "algorithm",
    "backend",
    "replicate",
    "seed",
    "scope",
    "tp",
    "fp",
    "tn",
    "fn",
    "tpr",
    "fpr",
    "shd",
    "ci_tests",
    "elapsed_ms",
]


def run_benchmark(spec, threads=1, progress=None):
    """Run the benchmark grid; returns (rows, failures).

    Per-replicate failures are recorded as ``(cell, replicate, algorithm,
    error)`` tuples and excluded from the rows, never silently dropped.
    Rows are deterministic given the spec (replicate seeds derive from
    the root seed) and sorted independently of completion order.

    A replicate's dataset is checked once: the first fit's engine
    computes its checked covariance, and every later fit's engine reads
    that one.  Data the check rejects fails every fit with the check's
    error, as fitting each on the dataset would.  A row's ``ci_tests``
    and ``elapsed_ms`` are its fit's ``diagnostics``: the time of the
    fit on its ready engine, which leaves the check out.
    """
    cells = itertools.product(spec.n_nodes, spec.layers, spec.n)
    jobs = [(cell, rep) for cell in cells for rep in range(spec.replicates)]
    streams = {job: rng for job, rng in zip(jobs, spawn_rngs(spec.seed, len(jobs)))}

    def one(job):
        cell, rep = job
        p, layers, n = cell
        rng = streams[job]
        rows = []
        failures = []
        dag, ordering, sem = _draw_replicate(rng, p, spec.expected_edges_per_node, layers, spec.weight_range)
        dataset = sample(sem, n, rng)
        checked = dataset  # until an engine has checked it; then that engine's covariance
        for algo in spec.algorithms:
            backends = spec.backends if algo == "podag" else ("",)
            for backend in backends:
                cfg = spec.fit_config(algo, backend)
                try:
                    engine = GaussianEngine(checked, alpha=cfg.alpha)
                    checked = engine.cov
                    result = _fit(algo, dataset, ordering, cfg, engine=engine)
                    pdag, diagnostics = result.pdag, result.diagnostics
                    del result  # a PODAG result holds its screening sets; the next fit runs without them
                except Exception as err:  # noqa: BLE001 - recorded per contract
                    label = f"{algo}/{backend}" if backend else algo
                    failures.append((cell, rep, label, repr(err)))
                    continue
                fields = dict(
                    n_nodes=p,
                    layers=layers,
                    n=n,
                    algorithm=algo,
                    backend=backend,
                    replicate=rep,
                    seed=spec.seed,
                    ci_tests=diagnostics.ci_tests,
                    elapsed_ms=diagnostics.elapsed_ms,
                )
                for scope in spec.scopes:
                    # the scope and the confusion counts come from the metrics
                    m = edge_metrics(pdag, dag, scope=scope, ordering=ordering)
                    rows.append({f: fields[f] if f in fields else getattr(m, f) for f in BENCHMARK_FIELDS})
        if progress is not None:
            progress(job)
        return rows, failures

    results = _map_replicates(one, jobs, threads)
    rows = [row for r, _ in results for row in r]
    failures = [f for _, fs in results for f in fs]
    order = ("n_nodes", "layers", "n", "algorithm", "backend", "replicate", "scope")
    rows.sort(key=lambda r: tuple(r[k] for k in order))
    return rows, failures


def _map_replicates(fn, jobs, threads):
    if threads is None or threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    jobs = list(jobs)
    if threads == 1:
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, jobs))


def rows_to_csv(rows, fields):
    """Render result rows as CSV text with a fixed column order."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _format_cell(row.get(k)) for k in fields})
    return buf.getvalue()


def _format_cell(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return format(value, ".10g")
    return value
