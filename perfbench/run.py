"""Run one podag benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload learn-p120 --seed 1 --seconds 44 --trace 0

The workloads are ``learn-p120``, ``simgrid-p50`` and ``oracle-p20`` (see
``perfbench/README.md``).  ``--trace 0`` measures the end-to-end metrics
with nothing wrapped; ``--trace 1`` is a separate run that wraps podag's
functions and methods and reports the per-layer metrics.  Both print one
line per metric, provenance and an output digest, check the outputs, and
end with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 when every check passed, 1 when a check failed and 2
when the benchmark could not run (for example without ``src/podag``).

Load is one process in a closed loop: the next unit of work starts when
the previous one has finished.  BLAS libraries are held to one thread,
so a workload uses at most as many threads as its ``threads`` setting.
"""

from __future__ import annotations

import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:  # before numpy is imported anywhere in this process
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A seed not used while tuning the benchmark; a claimed gain must also
# hold there (choosing-metrics, section 6.3).
HELD_OUT_SEED = 424242
# Set-up is measured in this many fresh processes, half before and half
# after the timed loop, alternating CPUs; setup_s is the median.  Most of
# a set-up is the import of scipy.stats, whose time moves with the load on
# the machine as much as the timed loop does, so the probes are spread
# over the same stretch of time.
SETUP_PROBES = 8


class BenchError(Exception):
    """The benchmark cannot run here (exit code 2, no result line)."""


def load_podag():
    """Import podag from ``src/`` of this checkout, never from elsewhere."""
    sys.path[:0] = [str(SRC), str(HERE)]
    spec = importlib.util.find_spec("podag")
    if spec is None or spec.origin is None or not Path(spec.origin).resolve().is_relative_to(SRC):
        raise BenchError(f"podag sources not found under {SRC}")
    import podag

    return podag


def declared_metrics():
    path = ROOT / "BENCHMARK.json"
    try:
        doc = json.loads(path.read_text())
        return [m["name"] for m in doc["end_to_end"]], [m["name"] for m in doc["per_layer"]]
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise BenchError(f"cannot read the metric list from {path}: {err}") from None


def git_commit():
    """Commit id from ``.git`` of this checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "podag").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(workload, seed):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": " ".join(f"{v}={os.environ[v]}" for v in BLAS_VARS),
        "python_threads": workload.threads,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def setup_probe(name, seed):
    """Child process: time the import of podag plus input generation."""
    started = time.perf_counter()
    load_podag()
    from workloads import WORKLOADS

    WORKLOADS[name].chunks(seed)
    print(json.dumps({"setup_s": time.perf_counter() - started}))


def measure_setup(name, seed, count):
    """Set-up times of ``count`` fresh processes, alternating CPUs.

    Each probe inherits this process's CPU affinity, which moves to the
    next usable CPU at every probe, for the reason given in
    ``timed_stream``.
    """
    cpus = sorted(os.sched_getaffinity(0))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name, "--seed", str(seed)]
    samples = []
    try:
        for index in range(count):
            os.sched_setaffinity(0, {cpus[index % len(cpus)]})
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
            if done.returncode != 0:
                raise BenchError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
            samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    finally:
        os.sched_setaffinity(0, cpus)
    return samples


def timed_stream(workload, chunks, seconds):
    """Run chunk 0 twice, then chunks 1, 2, ... until ``seconds`` are used.

    Stops before a chunk that would, at the mean chunk time so far, end
    after ``seconds`` (after at least ``DIGEST_CHUNKS`` distinct chunks),
    or when the chunk list is used up.  The second run of chunk 0 is
    timed like any other and lets the checks compare repeated outputs.

    A single-threaded workload moves to the next usable CPU at every
    chunk, so that each run spends equal time on each CPU: on the
    virtual machine this was built on, one CPU ran a fixed loop up to
    45 % slower than the other, and the scheduler may keep a process on
    either for a whole run.
    """
    from workloads import DIGEST_CHUNKS

    cpus = sorted(os.sched_getaffinity(0))
    units = []
    elapsed = 0.0
    try:
        for index, k in enumerate([0] + list(range(len(chunks)))):
            if workload.threads == 1:
                os.sched_setaffinity(0, {cpus[index % len(cpus)]})
            units.append(workload.unit(chunks[k]))
            units[-1].chunk = k
            elapsed += units[-1].seconds
            distinct = len(units) - 1
            if distinct >= DIGEST_CHUNKS and elapsed * (len(units) + 1) / len(units) > seconds:
                break
    finally:
        os.sched_setaffinity(0, cpus)
    return units


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def run(args):
    end_to_end, per_layer = declared_metrics()
    load_podag()
    from bench_util import Metric, check_name, tail_percentile
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    for key, value in provenance(workload, args.seed).items():
        print(f"provenance {key}: {value}")

    metrics = {}
    if args.trace:
        import layers
        import spans

        tracer = spans.Tracer()
        layers.podag_targets(tracer)
        started = time.perf_counter()
        with tracer:
            chunks = workload.chunks(args.seed)
        wall = time.perf_counter() - started
        untraced = workload.unit(chunks[0])
        started = time.perf_counter()
        with tracer:
            units = timed_stream(workload, chunks, args.seconds)
        wall += time.perf_counter() - started
        for name, (value, unit) in layers.per_layer_metrics(tracer.snapshot(), wall, workload.threads).items():
            metrics[name] = Metric(value, unit, "")
        traced = statistics.fmean(u.seconds for u in units[:2])
        metrics["trace.overhead_s"] = Metric(traced - untraced.seconds, "s", "lower", "chunk 0, traced minus untraced")
        metrics["trace.overhead_share"] = Metric((traced - untraced.seconds) / untraced.seconds, "ratio", "lower")
        print(f"trace: {len(tracer.names)} attributes wrapped and restored; chunk 0 wall "
              f"untraced {untraced.seconds:.3f} s, traced {traced:.3f} s; {len(units)} chunks traced")
        units = [untraced] + units  # checked like the traced units
        wanted = per_layer
    else:
        setup_samples = measure_setup(args.workload, args.seed, SETUP_PROBES // 2)
        chunks = workload.chunks(args.seed)
        units = timed_stream(workload, chunks, args.seconds)
        setup_samples += measure_setup(args.workload, args.seed, SETUP_PROBES - SETUP_PROBES // 2)
        wanted = end_to_end

    problems, quality, output_digest = workload.check(chunks, units)
    if units[-1].chunk == len(chunks) - 1:
        print(f"note: all {len(chunks)} chunks ran before the time was up")
    for unit in units:
        if len(unit.fits) != unit.expected:
            problems.append(f"a unit counted {len(unit.fits)} fits of {unit.expected} attempted")
        for fit in unit.fits:
            if fit.error is not None:
                print(f"failed fit {fit.key}: {fit.error}")
    attempted = sum(len(u.fits) for u in units)
    failed = sum(u.failed for u in units)
    fit_times = [f.seconds for u in units for f in u.fits if f.seconds is not None and f.output is not None]

    if not args.trace:
        completed = sum(len(u.fits) - u.failed for u in units)
        timed_s = sum(u.seconds for u in units)
        metrics["setup_s"] = Metric(
            statistics.median(setup_samples), "s", "lower", f"median of {len(setup_samples)} set-ups"
        )
        metrics["fits_per_s"] = Metric(
            completed / timed_s, "1/s", "higher", f"{completed} fits in {len(units)} chunk runs, {timed_s:.3f} s"
        )
        if fit_times:
            metrics["fit_s_p50"] = Metric(statistics.median(fit_times), "s", "lower", f"{len(fit_times)} timed fits")
    metrics["fail_ratio"] = Metric(failed / attempted, "ratio", "lower", f"{failed} of {attempted} fits")
    metrics["peak_rss_mb"] = Metric(peak_rss_mb(), "MB", "lower", "this process and its children")
    metrics.update(quality)

    for name in sorted(metrics):
        m = metrics[name]
        better = f" [{m.better}]" if m.better else ""
        base = f" ({m.base})" if m.base else ""
        print(f"metric {name} = {m.value:.6g} {m.unit}{better}{base}")
    if fit_times:
        tail = tail_percentile(fit_times)
        if tail is None:
            print(f"fit time tail: none reported, {len(fit_times)} timed fits leave fewer than 10 beyond p90")
        else:
            print(f"fit time tail: p{tail[0]:g} = {tail[1]:.6g} s over {len(fit_times)} timed fits")
    print(f"output digest: {output_digest}")

    for name in list(metrics) + wanted:
        try:
            check_name(name)
        except ValueError as err:
            problems.append(str(err))
    result = {}
    for name in wanted:
        if name not in metrics:
            problems.append(f"declared metric {name} was not measured")
            continue
        value = float(metrics[name].value)
        if not math.isfinite(value):
            problems.append(f"metric {name} is not finite: {value}")
            continue
        result[name] = {"value": value, "unit": metrics[name].unit}
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
        print(f"check failed: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": result}))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise BenchError("--seed must be a non-negative integer")
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        return run(args)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
