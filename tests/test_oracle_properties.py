"""Property-based oracle checks over random small DAGs and partial orderings.

Each instance is a DAG of 4-8 nodes whose topological order is cut into
contiguous layers, with some nodes demoted to "no ordering information".
Under the d-separation oracle, ``learn`` must return the maximal PDAG that
``helpers.oracle_maximal_pdag`` builds from first principles, whether the
ordering is given as layers or as the equivalent weak before/after
tables, and the ``stable`` mode must return the same graph.  The search
must also return the same graph when the oracle screen is replaced by an
inflated superset, whose entries carry no screening verdicts, so the
orientation's verdict separators are checked against its post-hoc
separator search.  On sparser
instances ``learn``, PC and PC+ are also checked, in both modes, against
``helpers.enumeration_maximal_pdag``, which enumerates the equivalence
class and shares no orientation code with the library, so a defect in
Meek's rules shows there.  Under the oracle ``learn``, PC and PC+ must
also commute with a permutation of the node indices and ignore the node
labels; on sample data PC's output depends on its query order, so this
is an oracle property only.  Examples are derandomized, so the suite is
deterministic.
"""

import itertools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from podag import (
    Dag,
    OracleEngine,
    PartialOrdering,
    Pdag,
    PodagConfig,
    learn,
    pc,
    pc_plus,
    podag_multi_layer,
    screen_all,
)
from podag.sem import rng_from_seed

from helpers import enumeration_maximal_pdag, inflate_screen_sets, oracle_maximal_pdag

EXAMPLES = settings(derandomize=True, database=None, max_examples=300, deadline=None)

# the enumeration oracle orients every edge both ways (2^|E| candidates)
SPARSE = 10


@st.composite
def ordered_instances(draw, max_edges=None):
    """A ``(dag, ordering)`` pair whose layering the DAG respects."""
    n = draw(st.integers(4, 8))
    order = draw(st.permutations(range(n)))
    forward = [(order[a], order[b]) for a, b in itertools.combinations(range(n), 2)]
    edges = draw(st.sets(st.sampled_from(forward), max_size=max_edges))
    starts = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    layer_of = list(itertools.accumulate([0] + starts))
    unordered = draw(st.sets(st.sampled_from(order), max_size=n // 2))
    layers = [
        {v for v, idx in zip(order, layer_of) if idx == k and v not in unordered}
        for k in range(layer_of[-1] + 1)
    ]
    ordering = PartialOrdering([l for l in layers if l], n_nodes=n, unordered=unordered)
    return Dag(n, edges), ordering


def weak_form(ordering):
    """The same partial ordering as per-node before/after tables only."""
    table = ordering.to_before_after()
    return PartialOrdering(
        [],
        n_nodes=ordering.n_nodes,
        unordered=range(ordering.n_nodes),
        before={j: b for j, (b, a) in table.items()},
        after={j: a for j, (b, a) in table.items()},
    )


def check_against_oracle(dag, ordering, target):
    result = learn(dag, ordering, PodagConfig(learn_within_layers=True))
    assert result.as_pdag() == target
    stable = learn(dag, ordering, PodagConfig(learn_within_layers=True, stable=True))
    assert stable.as_pdag() == result.as_pdag()


@EXAMPLES
@given(ordered_instances())
def test_layered_oracle_learn_is_maximal_pdag(instance):
    dag, ordering = instance
    check_against_oracle(dag, ordering, oracle_maximal_pdag(dag, ordering))


@EXAMPLES
@given(ordered_instances())
def test_weak_oracle_learn_is_maximal_pdag(instance):
    dag, ordering = instance
    check_against_oracle(dag, weak_form(ordering), oracle_maximal_pdag(dag, ordering))


@EXAMPLES
@given(ordered_instances(), st.integers(0, 2**32 - 1))
def test_oracle_search_is_robust_to_inflated_screens(instance, seed):
    dag, ordering = instance
    screen, _ = screen_all(OracleEngine(dag), ordering, backend="pcor")
    fat = inflate_screen_sets(screen, ordering, rng_from_seed(seed))
    cfg = PodagConfig(learn_within_layers=True)
    base = podag_multi_layer(OracleEngine(dag), ordering, screen, cfg)
    assert podag_multi_layer(OracleEngine(dag), ordering, fat, cfg).as_pdag() == base.as_pdag()


@EXAMPLES
@given(ordered_instances(max_edges=SPARSE))
def test_oracle_learn_is_enumerated_maximal_pdag(instance):
    dag, ordering = instance
    background = {(u, v) for u, v in dag.edges if ordering.orders_before(u, v)}
    target = enumeration_maximal_pdag(dag, background)
    check_against_oracle(dag, ordering, target)
    check_against_oracle(dag, weak_form(ordering), target)


@EXAMPLES
@given(ordered_instances(max_edges=SPARSE))
def test_pc_and_pc_plus_equal_independent_oracles(instance):
    dag, ordering = instance
    cpdag = enumeration_maximal_pdag(dag)
    background = {(u, v) for u, v in dag.edges if ordering.orders_before(u, v)}
    with_background = enumeration_maximal_pdag(dag, background)
    assert oracle_maximal_pdag(dag, ordering) == with_background
    for stable in (False, True):
        assert pc(OracleEngine(dag), dag.n_nodes, stable=stable).pdag == cpdag
        assert pc_plus(OracleEngine(dag), ordering, stable=stable).pdag == with_background


def oracle_fits(dag, ordering):
    """Within-layers ``learn``, PC and PC+ against the d-separation oracle of ``dag``."""
    return {
        "learn": learn(dag, ordering, PodagConfig(learn_within_layers=True)).as_pdag(),
        "pc": pc(OracleEngine(dag), dag.n_nodes, labels=dag.labels).pdag,
        "pc_plus": pc_plus(OracleEngine(dag), ordering, labels=dag.labels).pdag,
    }


@EXAMPLES
@given(ordered_instances(), st.data())
def test_oracle_fits_commute_with_node_permutation(instance, data):
    dag, ordering = instance
    perm = data.draw(st.permutations(range(dag.n_nodes)))
    moved = Dag(dag.n_nodes, [(perm[u], perm[v]) for u, v in dag.edges])
    moved_ordering = PartialOrdering(
        [{perm[v] for v in layer} for layer in ordering.layers],
        n_nodes=ordering.n_nodes,
        unordered={perm[v] for v in ordering.unordered},
    )
    fits = oracle_fits(moved, moved_ordering)
    for name, pdag in oracle_fits(dag, ordering).items():
        expected = Pdag(
            pdag.n_nodes,
            directed_edges=[(perm[u], perm[v]) for u, v in pdag.directed_edges],
            undirected_edges=[(perm[u], perm[v]) for u, v in pdag.undirected_edges],
        )
        assert fits[name] == expected, name


@EXAMPLES
@given(ordered_instances())
def test_oracle_fits_ignore_labels(instance):
    dag, ordering = instance
    labels = [f"node{dag.n_nodes - v}" for v in range(dag.n_nodes)]
    fits = oracle_fits(Dag(dag.n_nodes, dag.edges, labels=labels), ordering)
    for name, pdag in oracle_fits(dag, ordering).items():
        assert fits[name] == pdag, name
        assert fits[name].labels == tuple(labels), name
