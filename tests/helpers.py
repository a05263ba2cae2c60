"""Independent oracles shared across the test suite.

Everything here recomputes ground truth from first principles (path
enumeration, exhaustive DAG enumeration) so the library's own graph
machinery is never trusted to check itself.
"""

import itertools

import numpy as np

import podag.stats
from podag import (
    Dag,
    Dataset,
    PartialOrdering,
    Pdag,
    SepsetMap,
    partial_correlation,
)
from podag.errors import PodagError
from podag.graph import _OrientationState, orient_by_ordering
from podag.screening import LASSO_MAX_SWEEPS, LASSO_TIE, LASSO_TOL, ScreenEntry, ScreenSets
from podag.search import _orient
from podag.sem import GenConfig, generate_layered_dag, population_covariance, random_weights, rng_from_seed


def brute_force_dsep(dag, i, j, s):
    """d-separation by enumerating all simple paths with the blocking rule.

    A path is active given S iff every collider on it (both path edges
    pointing in) is in S or has a descendant in S, and every non-collider
    is outside S.
    """
    s = set(s)
    neighbors = {v: sorted(dag.parents(v) | dag.children(v)) for v in range(dag.n_nodes)}
    descendants = {v: dag.descendants({v}) for v in range(dag.n_nodes)}

    def active(path):
        for a, b, c in zip(path, path[1:], path[2:]):
            collider = dag.has_edge(a, b) and dag.has_edge(c, b)
            if collider:
                if not (descendants[b] & s):
                    return False
            elif b in s:
                return False
        return True

    stack = [[i]]
    while stack:
        path = stack.pop()
        last = path[-1]
        for nxt in neighbors[last]:
            if nxt in path:
                continue
            new = path + [nxt]
            if nxt == j:
                if active(new):
                    return False  # d-connected
            else:
                stack.append(new)
    return True


def equivalence_class(dag):
    """All DAGs with the same skeleton and the same unshielded colliders."""
    skel = sorted({(min(u, v), max(u, v)) for u, v in dag.edges})
    want = dag.v_structures()
    members = []
    for bits in itertools.product((0, 1), repeat=len(skel)):
        edges = [(u, v) if b == 0 else (v, u) for (u, v), b in zip(skel, bits)]
        try:
            cand = Dag(dag.n_nodes, edges)
        except PodagError:
            continue
        if cand.v_structures() == want:
            members.append(cand)
    return members


def enumeration_maximal_pdag(dag, background=()):
    """Maximal PDAG by enumerating the background-consistent class members.

    An edge is directed in the maximal PDAG iff it takes the same
    direction in every equivalent DAG that contains every background
    edge; otherwise it stays undirected.
    """
    background = set(background)
    members = [
        m
        for m in equivalence_class(dag)
        if all((u, v) in m.edges for u, v in background)
    ]
    assert members, "background inconsistent with the equivalence class"
    skel = sorted({(min(u, v), max(u, v)) for u, v in dag.edges})
    directed, undirected = set(), set()
    for u, v in skel:
        if all((u, v) in m.edges for m in members):
            directed.add((u, v))
        elif all((v, u) in m.edges for m in members):
            directed.add((v, u))
        else:
            undirected.add((u, v))
    return Pdag(dag.n_nodes, directed, undirected, labels=dag.labels)


def orient_pdag(pdag, sepsets, on_conflict="error"):
    """``pdag`` through the estimators' orientation stage: v-structures from ``sepsets``, then Meek's rules."""
    state = _OrientationState(pdag.n_nodes, pdag.directed_edges, pdag.undirected_edges, pdag.labels)
    return _orient(state, sepsets, on_conflict)


def oracle_maximal_pdag(dag, ordering):
    """Target graph: true skeleton + ordering background + v-structures + Meek."""
    skel = {(min(u, v), max(u, v)) for u, v in dag.edges}
    background = {(u, v) for u, v in dag.edges if ordering.orders_before(u, v)}
    bg_pairs = {(min(u, v), max(u, v)) for u, v in background}
    start = Pdag(dag.n_nodes, background, skel - bg_pairs, labels=dag.labels)
    seps = SepsetMap()
    for i in range(dag.n_nodes):
        for j in range(i + 1, dag.n_nodes):
            if dag.is_adjacent(i, j):
                continue
            found = None
            for target, other in ((j, i), (i, j)):
                pa = sorted(dag.parents(target) - {other})
                if dag.is_dsep(other, target, pa):
                    found = frozenset(pa)
                    break
            if found is None:
                rest = [v for v in range(dag.n_nodes) if v not in (i, j)]
                for size in range(len(rest) + 1):
                    for sub in itertools.combinations(rest, size):
                        if dag.is_dsep(i, j, sub):
                            found = frozenset(sub)
                            break
                    if found is not None:
                        break
            seps.record(i, j, found)
    return orient_pdag(start, seps)


def reference_edge_metrics(estimated, truth, scope, ordering=None):
    """``(tp, fp, tn, fn, shd)`` by classifying every pair of the scope's universe.

    The per-pair reference for :func:`podag.edge_metrics`: a :class:`Pdag`
    is first oriented by the ordering, a raw edge set is read as directed
    edges (a self-loop lies in no universe), and SHD compares each
    unordered universe pair's relation (->, <-, -, none).
    """
    n = truth.n_nodes
    if isinstance(estimated, Pdag):
        if ordering is not None:
            estimated = orient_by_ordering(estimated, ordering)
        directed, adjacency = set(estimated.directed_edges), set(estimated.adjacency_pairs())
    else:
        directed = {(int(u), int(v)) for u, v in estimated}
        adjacency = {(min(u, v), max(u, v)) for u, v in directed}
    truth_dir = set(truth.edges)
    truth_adj = {(min(u, v), max(u, v)) for u, v in truth.edges}
    if scope == "skeleton":
        universe = [(i, j) for i in range(n) for j in range(i + 1, n)]
        est_set, truth_set = adjacency, truth_adj
    else:
        universe = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and (scope == "all_edges" or ordering.orders_before(u, v))
        ]
        est_set, truth_set = directed, truth_dir

    tp = fp = tn = fn = 0
    for pair in universe:
        est = pair in est_set
        tru = pair in truth_set
        tp += est and tru
        fp += est and not tru
        fn += tru and not est
        tn += not est and not tru

    if scope == "skeleton":
        shd = sum(1 for pair in universe if (pair in est_set) != (pair in truth_set))
    else:

        def relation(u, v, directed_set, adj_set):
            if (u, v) in directed_set:
                return ">"
            if (v, u) in directed_set:
                return "<"
            if (u, v) in adj_set:
                return "-"
            return "."

        unordered = {(min(u, v), max(u, v)) for u, v in universe}
        shd = sum(
            1
            for u, v in unordered
            if relation(u, v, directed, adjacency) != relation(u, v, truth_dir, truth_adj)
        )
    return tp, fp, tn, fn, shd


def random_layered_instance(rng, n_lo=4, n_hi=11, layers_hi=6, epn_lo=0.8, epn_hi=2.2):
    """A feasible random (dag, ordering) pair; retries infeasible configs."""
    while True:
        n = int(rng.integers(n_lo, n_hi))
        layers = min(int(rng.integers(1, layers_hi)), n)
        cfg = GenConfig(
            n_nodes=n,
            expected_edges_per_node=float(rng.uniform(epn_lo, epn_hi)),
            layers=layers,
        )
        try:
            return generate_layered_dag(cfg, rng)
        except PodagError:
            continue


def random_bipartite_instance(rng, p_lo=2, p_hi=5, q_lo=2, q_hi=5, edge_prob=0.35):
    """Random two-layer DAG with explicit first/second layer sizes."""
    p = int(rng.integers(p_lo, p_hi))
    q = int(rng.integers(q_lo, q_hi))
    n = p + q
    edges = []
    for u in range(n):
        for v in range(max(u + 1, p), n):
            if u != v and rng.random() < edge_prob:
                edges.append((u, v))
    dag = Dag(n, edges)
    ordering = PartialOrdering([set(range(p)), set(range(p, n))], n_nodes=n)
    return dag, ordering


def random_faithful_sem(dag, rng, weight_range=(0.1, 1.0), tol=1e-8, max_tries=50):
    """Random SEM whose population distribution is faithful to ``dag``.

    Checks every partial correlation against d-separation exhaustively
    (feasible for small graphs) and re-draws the weights on violation,
    which only occurs on a measure-zero set.  Returns ``(sem, redraws)``.
    """
    if dag.n_nodes > 12:
        raise ValueError("exhaustive faithfulness checking is limited to small graphs")
    for attempt in range(max_tries):
        sem = random_weights(dag, rng, weight_range=weight_range)
        if faithful(dag, population_covariance(sem), tol):
            return sem, attempt
    raise PodagError(f"no faithful weight draw found in {max_tries} attempts")


def faithful(dag, cov, tol):
    """Whether ``|rho(i, j | s)| <= tol`` exactly when ``dag`` d-separates i and j given s."""
    nodes = range(dag.n_nodes)
    for i, j in itertools.combinations(nodes, 2):
        rest = [v for v in nodes if v not in (i, j)]
        for size in range(len(rest) + 1):
            for s in itertools.combinations(rest, size):
                if (abs(partial_correlation(cov, i, j, s)) <= tol) != dag.is_dsep(i, j, s):
                    return False
    return True


def toy_diamond():
    """Four-node graph 0->1, 0->2, 1->3, 2->3 (a diamond with one collider)."""
    return Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def dependent_four_columns():
    """n=200 data with V2 = V0 + V1, layered {V0, V1} < {V2, V3}."""
    x = rng_from_seed(7).normal(size=(200, 4))
    x[:, 2] = x[:, 0] + x[:, 1]
    return Dataset(x), PartialOrdering([{0, 1}, {2, 3}], n_nodes=4)


def counting_factorizations(monkeypatch, name="_read_stage"):
    """Arguments of each call to ``podag.stats.<name>``, in call order.

    ``_factor_spd`` counts every guarded factorization; ``_read_stage``
    the engine's block reads, a stage of level-0 blocks or a single
    query's union (screening holds its own reference, which is not
    counted).
    """
    calls = []
    factor = getattr(podag.stats, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return factor(*args, **kwargs)

    monkeypatch.setattr(podag.stats, name, counted)
    return calls


def residual_lasso(y, x, lam, tol=LASSO_TOL, max_sweeps=LASSO_MAX_SWEEPS):
    """Residual-form coordinate descent for ||y - x b||^2 / (2n) + lam ||b||_1.

    The textbook form: keep the residual ``r = y - x b`` and move
    coordinate k to ``S(z, lam) / (x_k'x_k/n)`` with ``z = x_k'r/n + b_k
    x_k'x_k/n``, at O(n) per coordinate.  The stopping rule, the
    active-set sweeps and the rounding-tie rule are the package's.
    Returns ``(coefficients, converged)``.
    """
    n, p = x.shape
    beta = np.zeros(p)
    resid = np.asarray(y, dtype=float).copy()
    col_sq = (x**2).sum(axis=0) / n
    sweeps = 0

    def sweep(indices):
        nonlocal sweeps, resid
        sweeps += 1
        max_delta = 0.0
        for k in indices:
            if col_sq[k] == 0.0:
                continue
            old = beta[k]
            z = x[:, k] @ resid / n + col_sq[k] * old
            excess = abs(z) - lam
            new = np.sign(z) * excess / col_sq[k] if excess > LASSO_TIE * abs(z) else 0.0
            if new != old:
                beta[k] = new
                resid += x[:, k] * (old - new)
                max_delta = max(max_delta, abs(new - old))
        return max_delta

    while sweeps < max_sweeps:
        if sweep(range(p)) < tol:
            return beta, True
        active = np.nonzero(beta)[0]
        while sweeps < max_sweeps and sweep(active) >= tol:
            pass
    return beta, False


def numpy_scalar_lasso(gram, xy, lam, warm_start=None, tol=LASSO_TOL, max_sweeps=LASSO_MAX_SWEEPS, trace=None, yy=0.0):
    """Gram-form coordinate descent on numpy scalars: the package's solver as first written.

    The reference for :func:`podag.screening._lasso`, whose loop runs on
    Python floats: the same IEEE operations in the same order, so the two
    must agree bit for bit.  Returns ``(coefficients, sweeps, converged)``.
    """
    beta = np.zeros(len(xy)) if warm_start is None else np.asarray(warm_start, dtype=float).copy()
    diag = np.diag(gram)
    fitted = gram @ beta
    sweeps = 0

    def sweep(indices):
        nonlocal sweeps, fitted
        sweeps += 1
        max_delta = 0.0
        for k in indices:
            if diag[k] == 0.0:
                continue
            old = beta[k]
            z = xy[k] - fitted[k] + diag[k] * old
            excess = abs(z) - lam
            new = np.sign(z) * excess / diag[k] if excess > LASSO_TIE * abs(z) else 0.0
            if new != old:
                beta[k] = new
                fitted += gram[k] * (new - old)
                max_delta = max(max_delta, abs(new - old))
        if trace is not None:
            trace.append(float(yy / 2 - xy @ beta + beta @ fitted / 2 + lam * np.abs(beta).sum()))
        return max_delta

    converged = False
    while sweeps < max_sweeps:
        if sweep(range(len(xy))) < tol:
            converged = True
            break
        active = np.nonzero(beta)[0]
        while sweeps < max_sweeps and sweep(active) >= tol:
            pass
    return beta, sweeps, converged


def inflate_screen_sets(screen, ordering, rng, extra=3):
    """Inflate every s0 and s1 with up to ``extra`` random eligible nodes.

    Used to exercise superset robustness: the searching loop must return
    the same graph when screening sets are replaced by supersets.
    """
    entries = []
    for j in screen.nodes():
        e = screen[j]
        before = sorted(ordering.before_set(j) - e.s0)
        pick0 = set(rng.choice(before, size=min(extra, len(before)), replace=False)) if before else set()
        s0 = e.s0 | {int(v) for v in pick0}
        pool1 = sorted((s0 | ordering.peer_set(j)) - e.s1)
        pick1 = set(rng.choice(pool1, size=min(extra, len(pool1)), replace=False)) if pool1 else set()
        s1 = e.s1 | {int(v) for v in pick1}
        entries.append(ScreenEntry(j, s0, s1))
    return ScreenSets(entries, n_nodes=screen.n_nodes, labels=screen.labels)
