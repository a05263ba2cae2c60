"""``Dag.is_dsep`` against networkx's independent d-separation test."""

import itertools

import pytest

nx = pytest.importorskip("networkx")

from podag.sem import rng_from_seed

from helpers import random_layered_instance


def test_is_dsep_matches_networkx():
    rng = rng_from_seed(4404)
    checked = separated = 0
    for _ in range(60):
        dag, _ = random_layered_instance(rng, n_lo=3, n_hi=10)
        graph = nx.DiGraph()
        graph.add_nodes_from(range(dag.n_nodes))
        graph.add_edges_from(dag.edges)
        for i, j in itertools.combinations(range(dag.n_nodes), 2):
            rest = [v for v in range(dag.n_nodes) if v not in (i, j)]
            for _ in range(4):
                s = {v for v in rest if rng.random() < 0.4}
                want = nx.is_d_separator(graph, {i}, {j}, s)
                assert dag.is_dsep(i, j, s) == want, (sorted(dag.edges), i, j, s)
                checked += 1
                separated += want
    # both verdicts must be well represented for the check to mean anything
    assert checked > 2000
    assert 0.1 < separated / checked < 0.9
