"""Compare the three screening backends on one simulated problem.

Screening builds, per target node, a candidate parent set (s0) and a
conditional Markov blanket (s1 minus s0).  The searching loop only ever
removes edges, so screening must avoid false negatives; false positives
just cost extra tests later.  This script shows how the exact
partial-correlation screen, sure-independence screening, and the lasso
(at its default penalty and tuned by AIC) trade those off.  Every backend
runs through ``screen_all``, which stages all targets the same way.
"""

from podag import GenConfig, generate_layered_dag, random_weights, sample, screen_all
from podag.sem import rng_from_seed

BACKENDS = {
    "pcor": ("pcor", {"alpha": 0.5}),
    "sis": ("sis", {"mode": "pvalue", "pvalue_cutoff": 0.5}),
    "lasso": ("lasso", {}),
    "lasso-aic": ("lasso", {"aic": True}),
}


def main():
    rng = rng_from_seed(5)
    cfg = GenConfig(n_nodes=20, expected_edges_per_node=2.0, layers=2)
    dag, ordering = generate_layered_dag(cfg, rng)
    sem = random_weights(dag, rng)
    data = sample(sem, 500, rng)

    second_layer = sorted(ordering.layers[1])
    print(f"20 nodes in two layers; screening the {len(second_layer)} second-layer nodes\n")
    screens = {
        name: screen_all(data, ordering, backend, params, targets=second_layer)[0]
        for name, (backend, params) in BACKENDS.items()
    }

    print(f"{'node':>5} {'true parents':>14}" + "".join(f" {name:>9}" for name in screens))
    missed = dict.fromkeys(screens, 0)
    for j in second_layer:
        truth = dag.parents(j) & ordering.before_set(j)
        for name, screen in screens.items():
            missed[name] += len(truth - screen[j].s0)
        print(f"{j:>5} {len(truth):>14}" + "".join(f" {len(screen[j].s0):>9}" for screen in screens.values()))
    print("\nTrue parents missed across all nodes:", missed)
    print("(liberal thresholds keep the sets large on purpose; the searching")
    print(" loop prunes them, and it can only recover from false positives;")
    print(" lasso-aic picks each stage's penalty by AIC over a log-spaced grid)")


if __name__ == "__main__":
    main()
