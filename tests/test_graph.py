import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podag import (
    Dag,
    PartialOrdering,
    Pdag,
    SepsetMap,
    apply_meek_rules,
    read_layering,
    write_edgelist,
    write_layering,
)
from podag.errors import CycleError, InconsistencyError, LabelMismatchError
from podag.graph import _separators
from podag.sem import rng_from_seed, toy_two_layer_sem

from helpers import (
    brute_force_dsep,
    enumeration_maximal_pdag,
    orient_pdag,
    random_layered_instance,
    toy_diamond,
)


def toy_graph():
    return toy_two_layer_sem()[0].dag


class TestDagConstruction:
    def test_rejects_cycle(self):
        with pytest.raises(CycleError):
            Dag(3, [(0, 1), (1, 2), (2, 0)])

    def test_rejects_two_cycle(self):
        with pytest.raises(CycleError):
            Dag(2, [(0, 1), (1, 0)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Dag(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Dag(2, [(0, 2)])

    def test_rejects_repeated_labels(self):
        # a repeated label would write the edge as A\tA
        with pytest.raises(LabelMismatchError, match=r"duplicate column labels: \['A'\]"):
            Dag(2, [(0, 1)], labels=["A", "A"])

    def test_duplicate_edges_collapse(self):
        g = Dag(2, [(0, 1), (0, 1)])
        assert g.edges == frozenset({(0, 1)})

    def test_random_generated_dags_validate(self):
        rng = rng_from_seed(0)
        for _ in range(25):
            dag, ordering = random_layered_instance(rng)
            Dag(dag.n_nodes, dag.edges)  # re-validate: must not raise
            for u, v in dag.edges:
                assert not ordering.orders_before(v, u)


class TestDsep:
    def test_diamond_parents_separated_by_root(self):
        g = toy_diamond()
        assert g.is_dsep(1, 2, {0})

    def test_diamond_collider_opens(self):
        g = toy_diamond()
        assert not g.is_dsep(1, 2, {0, 3})

    def test_edgeless_graph_marginally_independent(self):
        g = Dag(3, [])
        assert g.is_dsep(0, 1, set())

    def test_toy_two_layer_separation(self):
        g = toy_graph()
        # both paths from X1 to Y2 pass through a conditioned non-collider
        assert g.is_dsep(0, 3, {1, 2})

    def test_argument_errors(self):
        g = toy_diamond()
        with pytest.raises(ValueError):
            g.is_dsep(0, 0, set())
        with pytest.raises(ValueError):
            g.is_dsep(0, 1, {0})
        with pytest.raises(ValueError):
            g.is_dsep(0, 9, set())

    def test_agrees_with_path_enumeration_exhaustively(self):
        rng = rng_from_seed(123)
        for _ in range(12):
            dag, _ = random_layered_instance(rng, n_lo=4, n_hi=8)
            nodes = range(dag.n_nodes)
            for i, j in itertools.combinations(nodes, 2):
                rest = [v for v in nodes if v not in (i, j)]
                for size in range(len(rest) + 1):
                    for s in itertools.combinations(rest, size):
                        assert dag.is_dsep(i, j, s) == brute_force_dsep(dag, i, j, s), (
                            sorted(dag.edges),
                            i,
                            j,
                            s,
                        )


class TestAncestors:
    def test_diamond_sink_ancestors(self):
        g = toy_diamond()
        assert g.ancestors({3}) == {0, 1, 2, 3}

    def test_empty_set(self):
        g = toy_diamond()
        assert g.ancestors(set()) == frozenset()

    def test_toy_mid_node(self):
        g = toy_graph()
        assert g.ancestors({2}) == {0, 2}

    def test_monotone_and_fixed_point(self):
        rng = rng_from_seed(5)
        for _ in range(10):
            dag, _ = random_layered_instance(rng)
            nodes = list(range(dag.n_nodes))
            small = set(nodes[:1])
            large = set(nodes[:2])
            assert dag.ancestors(small) <= dag.ancestors(large)
            once = dag.ancestors(large)
            assert dag.ancestors(once) == once


class TestVStructures:
    def test_diamond(self):
        assert toy_diamond().v_structures() == {(1, 3, 2)}

    def test_toy_two_layer(self):
        # parents of Y2 are X2 and Y1, which are nonadjacent
        assert toy_graph().v_structures() == {(1, 3, 2)}

    def test_shielded_triangle(self):
        g = Dag(3, [(0, 1), (0, 2), (1, 2)])
        assert g.v_structures() == frozenset()


class TestOrientVStructures:
    """V-structures through the estimators' orientation stage, whose Meek closure adds nothing here."""

    def test_empty_sepset_creates_collider(self):
        skel = Pdag(3, undirected_edges=[(0, 2), (1, 2)])
        seps = SepsetMap()
        seps.record(0, 1, frozenset())
        out = orient_pdag(skel, seps)
        assert out.directed_edges == {(0, 2), (1, 2)}

    def test_middle_in_sepset_blocks_collider(self):
        skel = Pdag(3, undirected_edges=[(0, 2), (1, 2)])
        seps = SepsetMap()
        seps.record(0, 1, frozenset({2}))
        out = orient_pdag(skel, seps)
        assert out.directed_edges == frozenset()
        assert out.undirected_edges == {(0, 2), (1, 2)}

    def test_complete_skeleton_unchanged(self):
        skel = Pdag(3, undirected_edges=[(0, 1), (0, 2), (1, 2)])
        out = orient_pdag(skel, SepsetMap())
        assert out == skel

    def test_conflict_raises(self):
        # two triples force 1-2 in both directions
        skel = Pdag(4, undirected_edges=[(0, 1), (1, 2), (2, 3)])
        seps = SepsetMap()
        seps.record(0, 2, frozenset())  # 0 -> 1 <- 2
        seps.record(1, 3, frozenset())  # 1 -> 2 <- 3, conflicts on (1, 2)
        with pytest.raises(InconsistencyError):
            orient_pdag(skel, seps)
        out = orient_pdag(skel, seps, on_conflict="ignore")
        assert (2, 1) in out.directed_edges  # first triple wins


class TestMeekRules:
    def test_background_chain_orients_tail(self):
        # skeleton i-j, j-k with background i->j and no collider at j
        skel = Pdag(3, directed_edges=[(0, 1)], undirected_edges=[(1, 2)])
        out = apply_meek_rules(skel)
        assert out.directed_edges == {(0, 1), (1, 2)}

    def test_fully_oriented_is_fixed_point(self):
        p = Pdag(3, directed_edges=[(0, 1), (1, 2)])
        assert apply_meek_rules(p) == p

    def test_collider_plus_pendant_applies_rule_one(self):
        # a->c<-b with c-d: orient c->d, otherwise d->c makes a new collider
        p = Pdag(4, directed_edges=[(0, 2), (1, 2)], undirected_edges=[(2, 3)])
        out = apply_meek_rules(p)
        assert (2, 3) in out.directed_edges

    def test_idempotent_and_skeleton_preserving(self):
        rng = rng_from_seed(17)
        for _ in range(20):
            dag, ordering = random_layered_instance(rng, n_lo=4, n_hi=8)
            background = dag.cross_edges(ordering)
            skel_pairs = dag.skeleton().undirected_edges
            bg_pairs = {(min(u, v), max(u, v)) for u, v in background}
            start = Pdag(dag.n_nodes, background, skel_pairs - bg_pairs)
            once = apply_meek_rules(start)
            twice = apply_meek_rules(once)
            assert once == twice
            assert once.adjacency_pairs() == skel_pairs

    def test_matches_enumeration_oracle(self):
        # closure of (skeleton + true v-structures + background) must equal
        # the intersection of all background-consistent equivalent DAGs
        rng = rng_from_seed(99)
        for _ in range(60):
            dag, ordering = random_layered_instance(rng, n_lo=4, n_hi=8, epn_lo=0.8, epn_hi=1.8)
            background = sorted(dag.cross_edges(ordering))
            skel_pairs = {(min(u, v), max(u, v)) for u, v in dag.edges}
            bg_pairs = {(min(u, v), max(u, v)) for u, v in background}
            start = Pdag(dag.n_nodes, background, skel_pairs - bg_pairs)
            seps = SepsetMap()
            for i in range(dag.n_nodes):
                for j in range(i + 1, dag.n_nodes):
                    if dag.is_adjacent(i, j):
                        continue
                    rest = [v for v in range(dag.n_nodes) if v not in (i, j)]
                    found = None
                    for size in range(len(rest) + 1):
                        for s in itertools.combinations(rest, size):
                            if dag.is_dsep(i, j, s):
                                found = frozenset(s)
                                break
                        if found is not None:
                            break
                    seps.record(i, j, found)
            got = orient_pdag(start, seps)
            assert got == enumeration_maximal_pdag(dag, background), sorted(dag.edges)


class TestPdag:
    def test_rejects_pair_both_directed_and_undirected(self):
        with pytest.raises(ValueError):
            Pdag(2, directed_edges=[(0, 1)], undirected_edges=[(0, 1)])

    def test_rejects_two_way_directed(self):
        with pytest.raises(InconsistencyError):
            Pdag(2, directed_edges=[(0, 1), (1, 0)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Pdag(2, undirected_edges=[(1, 1)])

    def test_rejects_too_few_labels(self):
        # with one label for three nodes, write_edgelist would fail on the edge (0, 2)
        with pytest.raises(ValueError, match="one entry per column"):
            Pdag(3, undirected_edges=[(0, 2)], labels=["a"])


class TestPartialOrdering:
    def test_partition_enforced(self):
        with pytest.raises(ValueError):
            PartialOrdering([{0, 1}], n_nodes=3)
        with pytest.raises(ValueError):
            PartialOrdering([{0, 1}, {1, 2}], n_nodes=3)

    def test_layer_queries(self):
        o = PartialOrdering([{0, 1}, {2}], n_nodes=4, unordered={3})
        assert o.layer_of(0) == 0
        assert o.layer_of(2) == 1
        assert o.layer_of(3) is None
        assert o.before_set(2) == {0, 1}
        assert o.after_set(0) == {2}
        assert o.peer_set(0) == {1, 3}
        assert o.peer_set(3) == {0, 1, 2}
        assert o.orders_before(0, 2)
        assert not o.orders_before(0, 3)

    def test_overrides_must_be_consistent(self):
        with pytest.raises(ValueError):
            PartialOrdering([{0}, {1}], n_nodes=2, before={1: {1}})
        with pytest.raises(ValueError):
            # before set of a layered node may not exceed earlier layers
            PartialOrdering([{0}, {1}, {2}], n_nodes=3, before={1: {2}})
        o = PartialOrdering([{0}, {1}, {2}], n_nodes=3, before={2: {0}}, after={0: set()})
        assert o.before_set(2) == {0}
        assert o.before_set(1) == frozenset()  # overrides replace derived info

    def test_one_sided_overrides_are_mirrored(self):
        # 2's before set names 0 and 1, whose own tables say nothing
        o = PartialOrdering([], n_nodes=3, unordered=[0, 1, 2], before={2: {0, 1}}, after={})
        assert o.after_set(0) == o.after_set(1) == {2}
        assert o.peer_set(0) == {1} and o.peer_set(2) == frozenset()
        for u in range(3):
            for v in range(3):
                assert o.orders_before(u, v) == (v in o.after_set(u)) == (u in o.before_set(v))

    @pytest.mark.parametrize(
        "before, after", [({1: {0}, 0: {1}}, {}), ({}, {0: {1}, 1: {0}}), ({1: {0}}, {1: {0}})]
    )
    def test_overrides_ordering_a_pair_both_ways_are_refused(self, before, after):
        with pytest.raises(ValueError, match="overlap"):
            PartialOrdering([], n_nodes=2, unordered=[0, 1], before=before, after=after)

    def test_override_members_are_nodes(self):
        with pytest.raises(ValueError, match="out of range"):
            PartialOrdering([], n_nodes=2, unordered=[0, 1], before={1: {5}})

    def test_weak_ordering_round_trip(self):
        o = PartialOrdering([{0}, {1, 2}], n_nodes=4, unordered={3})
        ba = o.to_before_after()
        o2 = PartialOrdering(
            [],
            n_nodes=4,
            unordered=range(4),
            before={j: b for j, (b, a) in ba.items()},
            after={j: a for j, (b, a) in ba.items()},
        )
        for j in range(4):
            assert o2.before_set(j) == o.before_set(j)
            assert o2.peer_set(j) == o.peer_set(j)


class TestSepsetMap:
    def test_records_once(self):
        m = SepsetMap()
        m.record(2, 1, {0})
        assert m.get(1, 2) == {0}
        m.record(1, 2, {0})  # same value is fine
        with pytest.raises(ValueError):
            m.record(1, 2, {3})

    def test_rejects_endpoint_in_set(self):
        m = SepsetMap()
        with pytest.raises(ValueError):
            m.record(1, 2, {1})

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.data())
    def test_deferred_entries_read_as_eager_ones(self, data):
        # the search records a level-0 block's separators as one group on
        # its target, its shared cond plus the excluded sources, orientation
        # a screening verdict as a group of its pool; other entries are sets
        n = 8
        node = st.integers(0, n - 1)
        steps, eager = [], SepsetMap()
        for _ in range(data.draw(st.integers(1, 6))):
            b = data.draw(node)
            shared = frozenset(data.draw(st.sets(node))) - {b}
            sources = [a for a in data.draw(st.lists(node, unique=True)) if a != b and (a, b) not in eager]
            how = data.draw(st.sampled_from(["block", "one at a time", "record"]))
            steps.append((how, b, shared, sources))
            for a in sources:
                eager.record(a, b, shared - {a})

        def deferred():
            m = SepsetMap()
            for how, b, shared, sources in steps:
                if how == "block":
                    m._record_excluding(b, shared, frozenset(sources))
                for a in sources:
                    if how == "one at a time":
                        m._record_excluding(b, shared, {a})
                    elif how == "record":
                        m.record(a, b, shared - {a})
            return m

        assert_reads_as(deferred, eager, n)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.data())
    def test_groups_on_one_target_read_as_pair_records(self, data):
        # one target holds the groups of the search, of the post-hoc search
        # and of screening verdicts, and its partners hold groups naming it
        n = 9
        target = data.draw(st.integers(0, n - 1))
        others = [v for v in range(n) if v != target]
        free = list(others)  # partners not yet separated from the target
        groups = []
        for _ in range(data.draw(st.integers(2, 4))):
            excluded = data.draw(st.sets(st.sampled_from(free), max_size=3)) if free else set()
            free = [v for v in free if v not in excluded]
            groups.append((target, frozenset(data.draw(st.sets(st.sampled_from(others)))), excluded))
        for a in data.draw(st.lists(st.sampled_from(others), unique=True, max_size=3)):
            if a in free:  # the pair seen from the partner's side
                free.remove(a)
                shared = frozenset(data.draw(st.sets(st.integers(0, n - 1)))) - {a, target}
                groups.append((a, shared, {target}))
        eager = SepsetMap()
        for b, shared, excluded in data.draw(st.permutations(groups)):
            for a in excluded:
                eager.record(a, b, shared - {a})

        def grouped():
            m = SepsetMap()
            for b, shared, excluded in groups:
                m._record_excluding(b, shared, excluded)
            return m

        assert_reads_as(grouped, eager, n)


def assert_reads_as(build, eager, n):
    """The map ``build()`` returns reads as ``eager`` through every reader, and its ``record`` checks conflicts."""
    labels = [f"V{v}" for v in range(n)]
    m = build()
    assert m == eager and eager == m
    assert m.items() == eager.items() and len(m) == len(eager)
    assert m._by_label(labels) == eager._by_label(labels)
    for i, j in itertools.permutations(range(n), 2):
        assert ((i, j) in m) == ((i, j) in eager)
        assert m.get(i, j) == eager.get(i, j)
    for i, k in itertools.combinations(range(n), 2):
        shared = _separators(m, [i * n + k], n)[i * n + k]  # what orientation reads, for a middle node
        want = eager.get(i, k)
        assert (shared is None) == (want is None)
        for v in set(range(n)) - {i, k}:
            assert want is None or (v in shared) == (v in want)
    for (i, j), sep in eager.items():
        m = build()
        m.record(j, i, set(sep))  # the same set is fine
        assert m == eager and len(m) == len(eager)
        other = sep ^ {min(set(range(n)) - {i, j})}
        with pytest.raises(ValueError, match="already has a different separating set"):
            build().record(i, j, other)


class TestTextFormats:
    def test_edgelist_text(self):
        # directed edges sorted, then undirected ones as sorted (low, high) pairs
        labels = ("a", "b", "c", "d")
        text = write_edgelist([(2, 0), (0, 1)], labels, undirected_edges=[(3, 1), (2, 1)])
        assert text == "a\tb\nc\ta\nb\tc\tu\nb\td\tu\n"
        assert write_edgelist([], labels) == ""

    def test_layering_round_trip(self):
        labels = ("a", "b", "c", "d")
        o = PartialOrdering([{0, 1}, {2}], n_nodes=4, unordered={3})
        text = write_layering(o, labels)
        assert text == "a,b\nc\nunordered:d\n"
        back = read_layering(text, labels)
        assert back.layers == o.layers
        assert back.unordered == o.unordered

    def test_layering_label_mismatch(self):
        labels = ("a", "b")
        with pytest.raises(LabelMismatchError):
            read_layering("a,zz\n", labels)
        with pytest.raises(LabelMismatchError):
            read_layering("a\n", labels)  # b missing
