"""Walk through the two-layer toy problem.

A four-node network with layers {X1, X2} before {Y1, Y2} and edges
X1 -> X2, X1 -> Y1, Y1 -> Y2, X2 -> Y2.  The goal is the bipartite graph
of cross-layer effects, H = {X1 -> Y1, X2 -> Y2}.  Two naive estimators
bracket the truth from opposite sides; the screen-then-search estimator
lands exactly on it.
"""

from podag import (
    GaussianEngine,
    OracleEngine,
    PodagConfig,
    estimate_h0,
    estimate_h_minus_j,
    learn,
)
from podag.sem import rng_from_seed, sample, toy_two_layer_sem


def show(title, edges, labels):
    names = ", ".join(f"{labels[k]}->{labels[j]}" for k, j in sorted(edges))
    print(f"  {title}: {names or '(none)'}")


def main():
    sem, ordering = toy_two_layer_sem()
    labels = sem.dag.labels
    print("True cross-layer edges: X1->Y1, X2->Y2\n")

    print("Population behaviour (d-separation oracle):")
    oracle = OracleEngine(sem.dag)
    h0 = estimate_h0(oracle, ordering, labels=labels)
    show("testing against the other first-layer node only", h0.pdag.directed_edges, labels)
    print("    -> the mediated path X1 -> Y1 -> Y2 shows up as a false edge X1->Y2")
    hj = estimate_h_minus_j(OracleEngine(sem.dag), ordering, labels=labels)
    show("testing against everything else", hj.pdag.directed_edges, labels)
    print("    -> conditioning on the shared child Y2 opens X2 -- Y1")

    res = learn(sem.dag, ordering, PodagConfig())
    show("screen-then-search", res.cross_edges, labels)
    print(f"    -> exact, using {res.diagnostics.ci_tests} oracle queries\n")

    print("Sample behaviour (n = 1000, alpha = 0.05, 20 seeds):")
    h0_fp = hj_fp = exact = 0
    for seed in range(20):
        data = sample(sem, 1000, rng_from_seed(seed))
        h0_fp += (0, 3) in estimate_h0(GaussianEngine(data, 0.05), ordering).pdag.directed_edges
        hj_fp += (1, 2) in estimate_h_minus_j(GaussianEngine(data, 0.05), ordering).pdag.directed_edges
        exact += learn(data, ordering, PodagConfig()).cross_edges == {(0, 2), (1, 3)}
    print(f"  false edge X1->Y2 under the first naive estimator: {h0_fp}/20 seeds")
    print(f"  false edge X2->Y1 under the second naive estimator: {hj_fp}/20 seeds")
    print(f"  exact recovery by screen-then-search: {exact}/20 seeds")


if __name__ == "__main__":
    main()
