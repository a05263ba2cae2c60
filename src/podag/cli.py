"""Command-line interface: simulate, learn, benchmark, faithfulness.

stdout stays empty unless ``--stdout`` is given; progress and warnings go
to stderr, so outputs are pipe-safe.  Exit codes: 0 success, 2 usage
error, 3 label mismatch between inputs, 4 numerical failure.

With a fixed ``--seed`` every subcommand writes byte-identical files
across runs, whatever ``--threads``; wall-clock fields are reported as 0
unless ``--timing`` is given, since real timings would break that
guarantee.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import sys
from pathlib import Path

from .errors import (
    DegenerateDataError,
    InconsistencyError,
    InsufficientDataError,
    LabelMismatchError,
    PodagError,
    SelectionError,
    SingularityError,
)
from .evaluation import (
    BENCHMARK_FIELDS,
    FAITHFULNESS_FIELDS,
    BenchmarkSpec,
    _fit,
    faithfulness_report,
    rows_to_csv,
    run_benchmark,
)
from .graph import apply_meek_rules, orient_by_ordering, read_layering, write_edgelist, write_layering
from .screening import BACKENDS, screen_all
from .search import PodagConfig
from .sem import GenConfig, generate_layered_dag, random_weights, rng_from_seed, sample
from .stats import Dataset

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_LABELS = 3
EXIT_NUMERIC = 4

# learn's --algorithm values, each mapped to its name in evaluation._fit
ALGORITHMS = {"podag": "podag", "pc": "pc", "pc+": "pc_plus", "h0": "h0", "h-minus-j": "h_minus_j"}

DEFAULTS = PodagConfig()  # learn's defaults are the library's
SEARCHES = ("algorithm", {"podag", "pc", "pc+"}, "podag, pc and pc+")

# learn flags that not every run reads: each flag's default, then the
# rules of the runs that read it, as (argument, values, scope named)
PODAG_FLAGS = {
    "--backend": (DEFAULTS.backend, [("algorithm", {"podag"}, "podag")]),
    "--screen-alpha": (
        DEFAULTS.screen_alpha,
        [("algorithm", {"podag"}, "podag"), ("backend", {"pcor"}, "the pcor backend"),
         ("threshold", {None}, "alpha screening")],
    ),
    "--threshold": (
        None,
        [("algorithm", {"podag"}, "podag's pcor screening"), ("backend", {"pcor"}, "the pcor backend")],
    ),
    "--within-layers": (DEFAULTS.learn_within_layers, [("algorithm", {"podag"}, "podag")]),
    "--screen-only": (False, [("algorithm", {"podag"}, "podag")]),
    "--orient-by-ordering": (False, [("algorithm", {"pc", "pc+"}, "pc and pc+")]),
    "--max-sepset-size": (DEFAULTS.max_sepset_size, [SEARCHES]),
    "--stable": (DEFAULTS.stable, [SEARCHES]),
    "--on-conflict": (DEFAULTS.on_conflict, [SEARCHES]),
}

NUMERIC_ERRORS = (
    SingularityError,
    InsufficientDataError,
    DegenerateDataError,
    InconsistencyError,
    SelectionError,
)


def _progress(message):
    print(message, file=sys.stderr)


def _int_list(text):
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers, got {text!r}") from None


def _str_list(text):
    return tuple(x.strip() for x in text.split(",") if x.strip())


def _thread_count(text):
    try:
        threads = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if threads < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {threads}")
    return threads


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=0, help="root RNG seed")
    parser.add_argument(
        "--threads",
        type=_thread_count,
        default=1,
        help="worker threads for benchmark and faithfulness (outputs do not depend on it)",
    )
    parser.add_argument(
        "--timing",
        action="store_true",
        help="write real elapsed_ms values (breaks byte-identical reruns)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="podag",
        description="Learn DAG structure from data plus a partial causal ordering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "simulate",
        help="draw a random layered SEM and write dataset, graph, SEM, layering",
        description=(
            "Writes dataset.csv (header row of labels, one observation per row), "
            "graph.tsv (parent<TAB>child per line), sem.json, and layering.txt "
            "(one comma-separated layer per line, causally first at the top)."
        ),
    )
    p_sim.add_argument("--nodes", type=int, required=True)
    p_sim.add_argument("--layers", type=int, default=2)
    p_sim.add_argument("--epn", type=float, default=3.0, help="expected edges per node")
    p_sim.add_argument("--n", type=int, required=True, help="sample size")
    p_sim.add_argument("--cross-bias", type=float, default=2.0)
    p_sim.add_argument("--wmin", type=float, default=0.1)
    p_sim.add_argument("--wmax", type=float, default=1.0)
    p_sim.add_argument("--noise-sd", type=float, default=1.0)
    p_sim.add_argument("-o", "--output", required=True, help="output directory")
    _add_common(p_sim)

    p_learn = sub.add_parser(
        "learn",
        help="estimate graph structure from a dataset and a layering file",
        description=(
            "Reads a CSV dataset (header row of node labels) and a layering file "
            "(one comma-separated layer per line, top layer first, optional final "
            "'unordered:' line); writes result.json and edges.tsv "
            "(parent<TAB>child, plus 'a<TAB>b<TAB>u' for undirected edges)."
        ),
    )
    p_learn.add_argument("--data", required=True, help="dataset CSV path")
    p_learn.add_argument("--layering", required=True, help="layering file path")
    p_learn.add_argument("--algorithm", default="podag", choices=ALGORITHMS)
    p_learn.add_argument("--backend", default=DEFAULTS.backend, choices=BACKENDS)
    p_learn.add_argument("--alpha", type=float, default=DEFAULTS.alpha)
    p_learn.add_argument("--screen-alpha", type=float, default=DEFAULTS.screen_alpha)
    p_learn.add_argument(
        "--threshold",
        type=float,
        help="absolute partial-correlation screening threshold (pcor backend)",
    )
    p_learn.add_argument("--within-layers", action="store_true")
    p_learn.add_argument("--max-sepset-size", type=int, default=DEFAULTS.max_sepset_size)
    p_learn.add_argument("--stable", action="store_true", help="batch removals per level")
    p_learn.add_argument(
        "--screen-only",
        action="store_true",
        help="stop after screening and write screen.json",
    )
    p_learn.add_argument(
        "--orient-by-ordering",
        action="store_true",
        help="orient undirected cross-layer edges of pc/pc+ output by the ordering, "
        "then close the result under Meek's rules",
    )
    p_learn.add_argument(
        "--on-conflict",
        default=DEFAULTS.on_conflict,
        choices=["error", "ignore"],
        help="policy for conflicting edge orientations",
    )
    p_learn.add_argument("--stdout", action="store_true", help="also print result JSON")
    p_learn.add_argument("-o", "--output", required=True, help="output directory")
    _add_common(p_learn)

    p_bench = sub.add_parser(
        "benchmark",
        help="run the simulation benchmark grid and write a CSV",
        description=(
            "Grid cells come from --nodes x --layers x --n (or a JSON spec file "
            "with the same keys); every algorithm runs on every replicate. "
            "CSV columns: " + ",".join(BENCHMARK_FIELDS)
        ),
    )
    # each grid flag sets the BenchmarkSpec field of its dest; one not given leaves the field's default
    p_bench.add_argument("--spec", help="JSON spec file; overrides the inline flags")
    p_bench.add_argument("--nodes", dest="n_nodes", metavar="NODES", type=_int_list)
    p_bench.add_argument("--layers", type=_int_list)
    p_bench.add_argument("--n", type=_int_list)
    p_bench.add_argument("--epn", dest="expected_edges_per_node", metavar="EPN", type=float)
    p_bench.add_argument("--replicates", type=int)
    p_bench.add_argument("--backends", type=_str_list)
    p_bench.add_argument("--algorithms", type=_str_list)
    p_bench.add_argument("--alpha", type=float, help="test level for pc/pc+")
    p_bench.add_argument("--podag-alpha", type=float, help="searching-loop test level")
    p_bench.add_argument("--screen-alpha", type=float)
    p_bench.add_argument("--max-sepset-size", type=int)
    p_bench.add_argument("-o", "--output", required=True, help="output CSV path")
    _add_common(p_bench)

    p_faith = sub.add_parser(
        "faithfulness",
        help="compare faithfulness strength and CI-test counts of PC, PC+, PODAG",
        description=(
            "Replicates the population analysis: random layered SEMs, each "
            "algorithm run against a d-separation oracle, reporting the minimum "
            "nonzero population partial correlation over its tested tuples. "
            "CSV columns: " + ",".join(FAITHFULNESS_FIELDS)
        ),
    )
    p_faith.add_argument("--replicates", type=int, default=100)
    p_faith.add_argument("--nodes", type=int, default=20)
    p_faith.add_argument("--epn", type=float, default=2.0)
    p_faith.add_argument("--layers", type=int, default=2)
    p_faith.add_argument("--wmin", type=float, default=0.1)
    p_faith.add_argument("--wmax", type=float, default=1.0)
    p_faith.add_argument("-o", "--output", required=True, help="output CSV path")
    _add_common(p_faith)

    return parser


def cmd_simulate(args):
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    rng = rng_from_seed(args.seed)
    cfg = GenConfig(
        n_nodes=args.nodes,
        expected_edges_per_node=args.epn,
        layers=args.layers,
        cross_edge_bias=args.cross_bias,
        weight_range=(args.wmin, args.wmax),
    )
    dag, ordering = generate_layered_dag(cfg, rng)
    sem = random_weights(dag, rng, weight_range=(args.wmin, args.wmax), noise_sd=args.noise_sd)
    dataset = sample(sem, args.n, rng)
    (out / "dataset.csv").write_text(dataset.to_csv())
    (out / "graph.tsv").write_text(write_edgelist(sorted(dag.edges), dag.labels))
    (out / "sem.json").write_text(sem.to_json(ordering) + "\n")
    (out / "layering.txt").write_text(write_layering(ordering, dag.labels))
    _progress(f"simulate: wrote 4 files to {out}")
    return EXIT_OK


def _read_input(path):
    """The text of an input file; one that cannot be read is a usage error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ValueError(f"cannot read {path}: {err.strerror or err}") from None


def cmd_learn(args):
    dataset = Dataset.from_csv(io.StringIO(_read_input(args.data)))
    ordering = read_layering(_read_input(args.layering), dataset.labels)
    for flag, (default, rules) in PODAG_FLAGS.items():
        if getattr(args, flag[2:].replace("-", "_")) == default:
            continue
        for name, values, scope in rules:
            value = getattr(args, name)
            if value not in values:
                named = value if isinstance(value, str) else f"--{name}"
                raise ValueError(f"{flag} applies to {scope} only, not {named}")
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    cfg = PodagConfig(
        backend=args.backend,
        backend_params={} if args.threshold is None else {"threshold": args.threshold},
        alpha=args.alpha,
        screen_alpha=args.screen_alpha,
        max_sepset_size=args.max_sepset_size,
        learn_within_layers=args.within_layers,
        stable=args.stable,
        on_conflict=args.on_conflict,
    )
    if args.screen_only:
        screen, _ = screen_all(dataset, ordering, backend=cfg.backend, params=cfg.screen_params())
        (out / "screen.json").write_text(screen.to_json() + "\n")
        if args.stdout:
            print(screen.to_json())
        _progress(f"learn: wrote screening sets to {out / 'screen.json'}")
        return EXIT_OK
    result = _fit(ALGORITHMS[args.algorithm], dataset, ordering, cfg)
    if args.orient_by_ordering:
        oriented = orient_by_ordering(result.pdag, ordering)
        result = dataclasses.replace(result, pdag=apply_meek_rules(oriented, on_conflict=cfg.on_conflict))
    if not args.timing:
        result = dataclasses.replace(result, diagnostics=dataclasses.replace(result.diagnostics, elapsed_ms=0))
    (out / "result.json").write_text(result.to_json() + "\n")
    (out / "edges.tsv").write_text(result.to_edgelist())
    if args.algorithm == "podag":
        _progress(f"learn: podag kept {len(result.cross_edges)} cross edges, {result.diagnostics.ci_tests} CI tests")
    else:
        _progress(f"learn: {args.algorithm} finished, {result.diagnostics.ci_tests} CI tests")
    if args.stdout:
        print(result.to_json())
    return EXIT_OK


def _check_output_file(path):
    """Fail before long computations if the output location is unusable."""
    parent = Path(path).resolve().parent
    if not parent.is_dir():
        raise ValueError(f"output directory does not exist: {parent}")


def cmd_benchmark(args):
    _check_output_file(args.output)
    if args.spec:
        spec = BenchmarkSpec.from_json(_read_input(args.spec))
    else:
        fields = {field.name for field in dataclasses.fields(BenchmarkSpec)}
        spec = BenchmarkSpec(**{k: v for k, v in vars(args).items() if k in fields and v is not None})
    rows, failures = run_benchmark(
        spec,
        threads=args.threads,
        progress=lambda job: _progress(f"benchmark: finished {job}"),
    )
    if not args.timing:
        for row in rows:
            row["elapsed_ms"] = 0
    Path(args.output).write_text(rows_to_csv(rows, BENCHMARK_FIELDS))
    for cell, rep, algo, err in failures:
        _progress(f"benchmark: FAILED {algo} on cell={cell} replicate={rep}: {err}")
    if failures and not rows:
        _progress("benchmark: all replicates failed")
        return EXIT_NUMERIC
    _progress(f"benchmark: wrote {len(rows)} rows to {args.output}")
    return EXIT_OK


def cmd_faithfulness(args):
    _check_output_file(args.output)
    rows = faithfulness_report(
        replicates=args.replicates,
        n_nodes=args.nodes,
        expected_edges_per_node=args.epn,
        layers=args.layers,
        seed=args.seed,
        weight_range=(args.wmin, args.wmax),
        threads=args.threads,
    )
    Path(args.output).write_text(rows_to_csv(rows, FAITHFULNESS_FIELDS))
    _progress(f"faithfulness: wrote {len(rows)} rows to {args.output}")
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "simulate": cmd_simulate,
        "learn": cmd_learn,
        "benchmark": cmd_benchmark,
        "faithfulness": cmd_faithfulness,
    }[args.command]
    try:
        return handler(args)
    except LabelMismatchError as err:
        _progress(f"error: {err}")
        return EXIT_LABELS
    except NUMERIC_ERRORS as err:
        hint = ""
        if isinstance(err, InconsistencyError):
            hint = "; rerun with --on-conflict ignore to keep the earlier orientation"
        _progress(f"error: {err}{hint}")
        return EXIT_NUMERIC
    except (ValueError, PodagError) as err:
        # remaining package errors are configuration problems
        _progress(f"error: {err}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
