"""Time two checkouts against each other on one benchmark workload, in alternating pairs.

    python tools/ab_pairs.py PARENT CHANGE --workload W [--pairs N] [--seconds S] [--seeds ...]

Pair ``p`` runs ``perfbench/run.py --workload W --seed SEED_p --seconds S
--trace 0`` in each checkout, each from its own root and with its own
``src``: the parent first in even pairs, the change first in odd ones, so
drift in the machine's load falls on both sides alike.  Nothing under
``perfbench/`` is edited.  The seeds default to 1, 424242, 2, 3, ...

Prints every pair, then for each end-to-end metric of the change's
``BENCHMARK.json`` each side's median and quartiles and the number of
pairs in which the change is better, worse or equal, and whether a gain
may be claimed: the change wins at least nine tenths of the pairs, and
its median beats the parent's by more than the parent's interquartile
range.  Exits with code 1 when a run fails or reports incorrect outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def _run(checkout, workload, seed, seconds):
    """The result line of one ``--trace 0`` run in ``checkout``, or None when it fails."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"{checkout} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    return json.loads(lines[-1])


def _quartiles(values):
    """``(q1, median, q3)`` of ``values``; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _declared(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return [(m["name"], m["better"]) for m in json.load(f)["end_to_end"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seeds = args.seeds or [1, 424242, *range(2, args.pairs)]
    if len(seeds) < args.pairs:
        parser.error(f"--seeds gives {len(seeds)} seeds for {args.pairs} pairs")
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    metrics = _declared(sides["change"])
    values = {side: {name: [] for name, _ in metrics} for side in sides}
    ok = True
    for p, seed in enumerate(seeds[: args.pairs]):
        order = ("parent", "change") if p % 2 == 0 else ("change", "parent")
        got = {side: _run(sides[side], args.workload, seed, args.seconds) for side in order}
        if any(doc is None or not doc["correct"] or doc["failed"] for doc in got.values()):
            ok = False
            print(f"pair {p + 1} seed {seed}: a run failed or was incorrect")
            continue
        cells = []
        for name, _ in metrics:
            for side in sides:
                values[side][name].append(got[side]["metrics"][name]["value"])
            cells.append(f"{name} {values['parent'][name][-1]:.4g} -> {values['change'][name][-1]:.4g}")
        print(f"pair {p + 1} seed {seed} ({order[0]} first): " + ", ".join(cells))
    for name, better in metrics:
        before, after = values["parent"][name], values["change"][name]
        if not before:
            continue
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (a - b) > 0 for b, a in zip(before, after))
        losses = sum(sign * (a - b) < 0 for b, a in zip(before, after))
        q = {side: _quartiles(values[side][name]) for side in sides}
        # a gain counts with wins in nine tenths of the pairs and a median
        # gap wider than the parent's interquartile range
        gain = wins >= 0.9 * len(before) and sign * (q["change"][1] - q["parent"][1]) > q["parent"][2] - q["parent"][0]
        print(
            f"{name} ({better} is better): parent median {q['parent'][1]:.4g} "
            f"(quartiles {q['parent'][0]:.4g}-{q['parent'][2]:.4g}), change median {q['change'][1]:.4g} "
            f"(quartiles {q['change'][0]:.4g}-{q['change'][2]:.4g}); change better in {wins} of "
            f"{len(before)} pairs, worse in {losses}, equal in {len(before) - wins - losses}; "
            f"gain rule {'met' if gain else 'not met'}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
