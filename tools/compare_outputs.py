"""Compare the full outputs of two checkouts on the gated benchmark workloads.

    python tools/compare_outputs.py PARENT CHANGE [--seeds 1 424242]

For each checkout and seed a fresh interpreter imports podag from
``CHECKOUT/src`` and the workloads from ``CHECKOUT/perfbench/workloads.py``
(which it does not edit), runs every chunk of ``learn-p120`` and of
``simgrid-p50`` through the workload's own unit, and takes one sha256 per
chunk: of the full ``result.json`` of the learn fit, sepsets and
``ci_tests`` included, and of the grid rows.  ``elapsed_ms`` is left out of
both.  BLAS runs on one thread.  Prints one line per workload and seed
and exits with code 1 when any chunk differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("learn-p120", "simgrid-p50")


def _sha(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def dump(checkout, seed):
    """Per workload, the sha256 of each chunk's output in ``checkout`` at ``seed``."""
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    import podag
    import workloads

    fits = []
    learn = podag.learn

    def recording_learn(*args, **kwargs):
        fits.append(learn(*args, **kwargs))
        return fits[-1]

    podag.learn = recording_learn  # the workloads call podag through module attributes
    digests = {}
    for name in WORKLOADS:
        workload = workloads.WORKLOADS[name]
        digests[name] = []
        for chunk in workload.chunks(seed):
            fits.clear()
            unit = workload.unit(chunk)
            if name == "learn-p120":
                docs = [json.loads(fit.to_json()) for fit in fits]
                for doc in docs:
                    del doc["diagnostics"]["elapsed_ms"]
                output = docs or [fit.error for fit in unit.fits]
            else:
                output = unit.output if unit.output else [fit.error for fit in unit.fits]
            digests[name].append(_sha(output))
    return digests


def _digests(checkout, seed):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, __file__, "--dump", checkout, str(seed)],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return json.loads(out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 424242])
    args = parser.parse_args(argv)
    differ = False
    for seed in args.seeds:
        before, after = (_digests(os.path.abspath(c), seed) for c in (args.parent, args.change))
        for name in WORKLOADS:
            pairs = list(zip(before[name], after[name]))
            changed = [k for k, (x, y) in enumerate(pairs) if x != y]
            if len(before[name]) != len(after[name]):
                changed.append("count")
            differ |= bool(changed)
            verdict = "all equal" if not changed else f"differ at chunks {changed}"
            print(f"{name} seed {seed}: {len(pairs)} chunks, {verdict}")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--dump"]:  # the child: --dump CHECKOUT SEED
        print(json.dumps(dump(sys.argv[2], int(sys.argv[3]))))
    else:
        sys.exit(main())
