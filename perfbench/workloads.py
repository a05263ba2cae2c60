"""The three benchmark workloads: inputs, one timed unit, and output checks.

A workload turns the workload seed into a long list of *chunks*,
inputs of a few seconds of work each, all drawn from the seed.  The
timed loop (``run.timed_stream``) runs chunk 0 twice, to check that the
output repeats, and then further chunks until ``--seconds`` are used
up, so a run averages over as many distinct random inputs as fit in
it.  All podag calls go through module attributes, so the traced run
sees them.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field

import podag

from bench_util import Metric

# The DAG that learn-p120 draws its datasets on.  A fixed structure keeps
# the spread of fit time between seeds small: across random 120-node
# structures one fit takes from 2.3 s to 5.7 s, across weight and sample
# draws on one structure far less.  The workload seed draws the weights
# and the samples of each dataset.
LEARN_STRUCTURE_SEED = 120
# Chunks generated per run: more than a run at the seed commit uses
# (about 11, 5 and 13), so a program several times faster still finds
# fresh inputs until the time is up.
LEARN_DATASETS = 32
SIMGRID_CHUNKS = 32  # one replicate per layer count each
ORACLE_CHUNKS = 64
ORACLE_REPLICATES = 8  # per chunk
CHUNK_STRIDE = 1000  # chunk k of seed s runs podag with seed s * 1000 + k
# Every run processes at least this many chunks; the output digest covers
# exactly these, so that it compares across commits of any speed.
DIGEST_CHUNKS = 2

# Sanity floors on all-edges accuracy of the sample-mode podag fits.  At
# the seed commit the means are about 0.95 (learn-p120) and 0.85
# (simgrid-p50) for TPR, and below 0.005 for FPR; the floors catch an
# empty or flooded graph, not small accuracy changes.
TPR_FLOOR = 0.75
FPR_CEILING = 0.02


@dataclass
class Fit:
    """Outcome of one estimator fit inside a unit."""

    key: object  # which input it ran on
    seconds: float | None  # wall time of the fit alone, when known
    output: tuple | None  # canonical output; None when the fit failed
    error: str | None = None


@dataclass
class Unit:
    """One chunk, run once."""

    seconds: float
    fits: list = field(default_factory=list)
    output: object = None  # rows or edges, compared across repeats
    expected: int = 0  # fits the unit attempted; each must be in ``fits``
    chunk: int = 0  # index of the chunk it ran

    @property
    def failed(self):
        return sum(1 for f in self.fits if f.output is None)


def chunk_seed(seed, index):
    """Distinct integer seed for chunk ``index`` of a workload seed."""
    if not 0 <= index < CHUNK_STRIDE:
        raise ValueError("chunk index out of range")
    return seed * CHUNK_STRIDE + index


def canonical_edges(pdag):
    """Sorted directed and undirected edge lists of a Pdag."""
    return (tuple(sorted(pdag.directed_edges)), tuple(sorted(pdag.undirected_edges)))


def digest(obj):
    """Short sha256 of a JSON rendering, stable across runs and commits."""
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def distinct_units(name, units):
    """First unit of each chunk, in chunk order, and repeat mismatches."""
    first = {}
    problems = []
    for unit in units:
        if first.setdefault(unit.chunk, unit).output != unit.output:
            problems.append(f"{name}: chunk {unit.chunk} gave a different output when run again")
    return [first[k] for k in sorted(first)], problems


def _accuracy_problems(name, tpr, fpr):
    problems = []
    if tpr < TPR_FLOOR:
        problems.append(f"{name}: mean podag TPR {tpr:.4f} below the floor {TPR_FLOOR}")
    if fpr > FPR_CEILING:
        problems.append(f"{name}: mean podag FPR {fpr:.5f} above the ceiling {FPR_CEILING}")
    return problems


class LearnP120:
    """``learn`` on 120-node, 5-layer data with n = 1000; a chunk is one fit."""

    name = "learn-p120"
    threads = 1

    def chunks(self, seed):
        gen = podag.GenConfig(n_nodes=120, expected_edges_per_node=3.0, layers=5)
        dag, ordering = podag.generate_layered_dag(gen, podag.rng_from_seed(LEARN_STRUCTURE_SEED))
        chunks = []
        for rng in podag.spawn_rngs(seed, LEARN_DATASETS):
            sem = podag.random_weights(dag, rng)
            chunks.append((dag, ordering, podag.sample(sem, 1000, rng)))
        return chunks

    def unit(self, chunk):
        _, ordering, data = chunk
        cfg = podag.PodagConfig(
            backend="pcor",
            alpha=0.005,
            max_sepset_size=3,
            learn_within_layers=True,
            on_conflict="ignore",
        )
        started = time.perf_counter()
        try:
            result = podag.learn(data, ordering, cfg=cfg)
        except Exception as err:  # noqa: BLE001 - counted as a failed fit
            return Unit(time.perf_counter() - started, [Fit(None, None, None, repr(err))], None, 1)
        seconds = time.perf_counter() - started
        edges = canonical_edges(result.as_pdag())
        return Unit(seconds, [Fit(None, seconds, edges)], edges, 1)

    def check(self, chunks, units):
        units, problems = distinct_units(self.name, units)
        dag, ordering, _ = chunks[0]
        outputs = [u.output for u in units]
        scores = [
            podag.edge_metrics(
                podag.Pdag(dag.n_nodes, directed_edges=d, undirected_edges=u),
                dag,
                scope="all_edges",
                ordering=ordering,
            )
            for d, u in (o for o in outputs if o is not None)
        ]
        tpr = _mean([m.tpr for m in scores])
        fpr = _mean([m.fpr for m in scores])
        problems += _accuracy_problems(self.name, tpr, fpr)
        base = f"{len(scores)} datasets"
        quality = {
            "tpr": Metric(tpr, "ratio", "higher", base),
            "fpr": Metric(fpr, "ratio", "lower", base),
            "shd": Metric(_mean([m.shd for m in scores]), "count", "lower", base),
        }
        return problems, quality, digest(outputs[:DIGEST_CHUNKS])


SIMGRID_ALGOS = (("pc", ""), ("pc_plus", ""), ("podag", "pcor"), ("podag", "sis"), ("podag", "lasso"))
SCOPES = ("cross_only", "all_edges", "skeleton")


class SimgridP50:
    """The paper's simulation grid on 50-node data; a chunk is one grid call."""

    name = "simgrid-p50"
    # One thread, so the replicate pool is bypassed.  With threads=2 the
    # GIL passes between the two workers thousands of times a second, and
    # fits_per_s swung by up to a factor of 1.8 between runs while the
    # single-threaded set-up probes of the same runs held steady.
    # oracle-p20 still runs the pool with two threads.
    threads = 1

    def chunks(self, seed):
        return [
            podag.BenchmarkSpec(
                n_nodes=(50,),
                layers=(2, 5),
                n=(500,),
                algorithms=("pc", "pc_plus", "podag"),
                backends=("pcor", "sis", "lasso"),
                expected_edges_per_node=3.0,
                max_sepset_size=3,
                replicates=1,
                seed=chunk_seed(seed, k),
            )
            for k in range(SIMGRID_CHUNKS)
        ]

    def unit(self, spec):
        cells = len(spec.n_nodes) * len(spec.layers) * len(spec.n)
        attempted = cells * spec.replicates * len(SIMGRID_ALGOS)
        started = time.perf_counter()
        try:
            rows, failures = podag.run_benchmark(spec, threads=self.threads)
        except Exception as err:  # noqa: BLE001 - every fit of the unit counts as failed
            failed = [Fit(i, None, None, repr(err)) for i in range(attempted)]
            return Unit(time.perf_counter() - started, failed, [], attempted)
        seconds = time.perf_counter() - started
        fits = [
            Fit((r["layers"], r["replicate"], r["algorithm"], r["backend"]), None, (r["tp"], r["fp"], r["shd"]))
            for r in rows
            if r["scope"] == "all_edges"
        ]
        fits += [Fit((cell[1], rep, label), None, None, error) for cell, rep, label, error in failures]
        stable = [{k: v for k, v in row.items() if k != "elapsed_ms"} for row in rows]
        return Unit(seconds, fits, stable, attempted)

    def check(self, chunks, units):
        units, problems = distinct_units(self.name, units)
        for k, (spec, unit) in enumerate(zip(chunks, units)):
            expected = {
                (layers, rep, algo, backend, scope)
                for layers in spec.layers
                for rep in range(spec.replicates)
                for algo, backend in SIMGRID_ALGOS
                for scope in SCOPES
            }
            got = [(r["layers"], r["replicate"], r["algorithm"], r["backend"], r["scope"]) for r in unit.output]
            if set(got) != expected or len(got) != len(expected):
                problems.append(
                    f"{self.name}: chunk {k} returned {len(got)} of {len(expected)} rows, "
                    f"missing {sorted(expected - set(got))[:5]}"
                )
        rows = [r for unit in units for r in unit.output if r["scope"] == "all_edges"]
        podag_rows = [r for r in rows if r["algorithm"] == "podag"]
        base_rows = [r for r in rows if r["algorithm"] != "podag"]
        tpr = _mean([r["tpr"] for r in podag_rows])
        fpr = _mean([r["fpr"] for r in podag_rows])
        problems += _accuracy_problems(self.name, tpr, fpr)
        base = f"{len(podag_rows)} podag fits"
        quality = {
            "tpr": Metric(tpr, "ratio", "higher", base),
            "fpr": Metric(fpr, "ratio", "lower", base),
            "shd": Metric(_mean([r["shd"] for r in podag_rows]), "count", "lower", base),
            "shd_baselines": Metric(
                _mean([r["shd"] for r in base_rows]), "count", "lower", f"{len(base_rows)} PC/PC+ fits"
            ),
        }
        return problems, quality, digest([u.output for u in units[:DIGEST_CHUNKS]])


class OracleP20:
    """Population mode: the faithfulness report on 20-node, 2-layer DAGs."""

    name = "oracle-p20"
    threads = 2
    gen = dict(n_nodes=20, expected_edges_per_node=2.0, layers=2, weight_range=(0.1, 1.0))

    def chunks(self, seed):
        return [
            dict(
                self.gen,
                replicates=ORACLE_REPLICATES,
                seed=chunk_seed(seed, k),
                threads=self.threads,
            )
            for k in range(ORACLE_CHUNKS)
        ]

    def unit(self, kwargs):
        attempted = 3 * kwargs["replicates"]
        started = time.perf_counter()
        try:
            rows = podag.faithfulness_report(**kwargs)
        except Exception as err:  # noqa: BLE001 - every fit of the unit counts as failed
            failed = [Fit(i, None, None, repr(err)) for i in range(attempted)]
            return Unit(time.perf_counter() - started, failed, [], attempted)
        seconds = time.perf_counter() - started
        fits = [Fit((r["replicate"], r["algorithm"]), None, (r["ci_tests"],)) for r in rows]
        fits += [Fit(None, None, None, "missing row") for _ in range(attempted - len(rows))]
        return Unit(seconds, fits, rows, attempted)

    def check(self, chunks, units):
        units, problems = distinct_units(self.name, units)
        gen = podag.GenConfig(**self.gen)
        scores = []
        edges = []
        for kwargs in chunks[: len(units)]:
            # Regenerate each replicate's DAG from the report's own seed
            # streams; the oracle fit must recover the true skeleton.
            for rep, rng in enumerate(podag.spawn_rngs(kwargs["seed"], kwargs["replicates"])):
                dag, ordering = podag.generate_layered_dag(gen, rng)
                pdag = podag.learn(dag, ordering, cfg=podag.PodagConfig(learn_within_layers=True)).as_pdag()
                truth = {(min(u, v), max(u, v)) for u, v in dag.edges}
                if set(pdag.adjacency_pairs()) != truth:
                    problems.append(
                        f"{self.name}: seed {kwargs['seed']} replicate {rep}: oracle skeleton differs from the truth"
                    )
                scores.append(podag.edge_metrics(pdag, dag, scope="all_edges", ordering=ordering))
                edges.append(canonical_edges(pdag))
        for kwargs, unit in zip(chunks, units):
            if len(unit.output) != 3 * kwargs["replicates"]:
                problems.append(f"{self.name}: seed {kwargs['seed']} returned {len(unit.output)} rows")
        rho = [r["rho_min_full"] for unit in units for r in unit.output if r["algorithm"] == "podag"]
        base = f"{len(scores)} replicates"
        quality = {
            "tpr": Metric(_mean([m.tpr for m in scores]), "ratio", "higher", base),
            "shd": Metric(_mean([m.shd for m in scores]), "count", "lower", base),
            "rho_min_p50": Metric(statistics.median(rho) if rho else 0.0, "ratio", "higher", base),
        }
        first = DIGEST_CHUNKS * ORACLE_REPLICATES
        return problems, quality, digest([edges[:first], [u.output for u in units[:DIGEST_CHUNKS]]])


WORKLOADS = {w.name: w for w in (LearnP120(), SimgridP50(), OracleP20())}
