"""Two-stage screening: candidate parent sets and conditional Markov blankets.

For each target node j, screening estimates two sets using one of three
backends (exact partial correlation, sure-independence screening, lasso):

* ``s0``: nodes ordered strictly before j that remain associated with j
  after adjusting for the rest of the earlier nodes.
* ``s1``: members of ``s0`` plus j's unordered peers that remain
  associated with j after adjusting for all of ``s0`` and the peers.

:func:`screen_all` is the one screening entry point: it stages every
target the same way, stage 0 of all targets, then stage 1, and a backend
is only a rule that decides which members of each target's pool stay
associated with it.  Every backend reads one input, the checked
covariance (a :class:`Dataset` is reduced to it, so collinear columns
fail alike): pcor its block precision matrices, sis the marginal
correlations, and the lasso, Gram-form coordinate descent, the
correlation block of each pool.  Under pcor the targets that share a
before set (every target of a layer) share one factorization of it at
stage 0, and :func:`screen_all` counts the tests pcor performs.

The derived sets drive the searching loop: ``cross = s0 & s1`` holds the
candidate incoming cross edges and ``cmb = s1 - s0`` is the conditional
Markov blanket of j within its own layer.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, PodagError, SelectionError, SingularityError
from .graph import _column_labels
from .stats import (
    CiEngine,
    _bordered_rhos,
    _check_node_count,
    _covariance,
    _dependence_error,
    _fisher_z_dof,
    _fisher_z_statistics,
    _read_stage,
)

__all__ = [
    "ScreenEntry",
    "ScreenSets",
    "LassoFit",
    "screen_all",
    "lasso_fit",
]

LASSO_TOL = 1e-7
LASSO_MAX_SWEEPS = 100_000
LASSO_TIE = 1e-9  # |z| this close to lam, relative to |z|, is a rounding tie: the coefficient stays 0


@dataclass(frozen=True)
class ScreenEntry:
    """Screening output for one target node.

    ``pools`` holds the two pools that pcor screening conditioned its
    verdicts on, ``(before(j), s0 + peers(j))``: every member it dropped
    was found independent of j given the rest of its stage's pool, and
    orientation reads that pool back.  Entries built without CI verdicts
    (sis, lasso) carry no pools.  The pools take no part in equality or
    serialization.  A frozenset ``s0`` or ``s1`` is kept as given; any
    other becomes one of ints.
    """

    node: int
    s0: frozenset
    s1: frozenset
    warnings: tuple = ()
    pools: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        for name in ("s0", "s1"):
            if not isinstance(value := getattr(self, name), frozenset):
                object.__setattr__(self, name, frozenset(map(int, value)))
        if self.node in self.s0 or self.node in self.s1:
            raise ValueError("a node cannot screen itself")

    @property
    def cross(self):
        """Candidate cross-edge parents: s0 & s1."""
        return self.s0 & self.s1

    @property
    def cmb(self):
        """Conditional Markov blanket among unordered peers: s1 - s0."""
        return self.s1 - self.s0

    def _verdict_pool(self, k):
        """The pool a screening verdict dropped ``k`` from, ``k`` still in it.

        ``pool - {k}`` separates ``k`` from the node.  None for a kept
        member, a node outside both pools, or an entry without pools.
        """
        for pool, kept in zip(self.pools, (self.s0, self.s1)):
            if k in pool and k not in kept:
                return pool
        return None


class ScreenSets:
    """Screening entries for a collection of target nodes."""

    def __init__(self, entries, n_nodes, labels=None):
        self.n_nodes = int(n_nodes)
        self.entries = {int(e.node): e for e in entries}
        self.labels = _column_labels(labels, self.n_nodes)

    def __getitem__(self, j):
        return self.entries[j]

    def __contains__(self, j):
        return j in self.entries

    def nodes(self):
        return sorted(self.entries)

    def validate(self, ordering):
        """Check set-membership invariants against an ordering."""
        for j, e in self.entries.items():
            before = ordering.before_set(j)
            peers = ordering.peer_set(j)
            if not e.s0 <= before:
                raise ValueError(f"s0 of node {j} contains non-earlier nodes")
            if not e.s1 <= (e.s0 | peers):
                raise ValueError(f"s1 of node {j} leaves its eligible pool")

    def to_json(self):
        doc = {
            self.labels[j]: {
                "s0": sorted(self.labels[v] for v in e.s0),
                "s1": sorted(self.labels[v] for v in e.s1),
            }
            for j, e in self.entries.items()
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def _success_warnings(j, s0, s1, n):
    """Warn when the screening-success size condition |s0 & s1| <= n fails."""
    if n is not None and len(s0 & s1) > n:
        msg = f"screening for node {j}: |s0 & s1| = {len(s0 & s1)} exceeds n = {n}"
        warnings.warn(msg)
        return (msg,)
    return ()


def _each_target(targets, select, stage, pools, notes):
    """A stage that selects from each target's pool alone: ``(kept, error)`` as :func:`_pcor_stage`'s.

    ``select(j, pool, stage, notes)`` returns the members of a non-empty
    ``pool`` that stay associated with target ``j``, and may append to
    ``notes[j]``; an empty pool keeps none.  The first target whose
    selection raises ends the stage.
    """
    kept = []
    for j, pool in zip(targets, pools):
        try:
            kept.append(frozenset(select(j, pool, stage, notes) if pool else ()))
        except (PodagError, ValueError) as error:
            return kept, error
    return kept, None


def _pcor_rule(source, ordering, targets, threshold=None, alpha=0.5):
    """Partial-correlation screening: k stays when it depends on j given the rest of the pool.

    A :class:`CiEngine` source answers one block of queries per target
    and stage, counted once per member (the oracle path).  A
    :class:`CovMatrix` source reads every verdict of a stage off
    precision matrices: with ``threshold`` set, k is kept when its
    absolute partial correlation exceeds the threshold (population
    mode); otherwise the Fisher z test at the deliberately liberal
    ``alpha`` (default 0.5, to avoid false negatives) decides.  The
    targets that share a before set share their stage-0 reads: one
    factorization of the pool serves them all (:func:`_bordered_rhos`,
    whose rhos may differ from the per-target block's in the last bits).

    Every drop is a verdict given the rest of its stage's pool, so the
    entries record both pools and orientation reads the separators.
    Under Fisher z that verdict is made at ``alpha``, not at the
    searching loop's significance: a drop needs ``|z| <= Phi^-1(1 -
    alpha/2)``, so whenever ``alpha`` is at least the search's (0.5
    against 0.05 by default) it is the more conservative independence
    claim.  A ``threshold`` outside ``[0, 1)`` raises :class:`ValueError`.
    """
    if threshold is not None and not 0 <= threshold < 1:
        raise ValueError(f"threshold must be in [0, 1), got {threshold}")
    if isinstance(source, CiEngine):

        def answer(j, pool, stage, notes):
            return [k for k, ind in zip(pool, source._query_block(j, pool, frozenset(pool))[0]) if not ind]

        return functools.partial(_each_target, targets, answer)

    if threshold is None and source.n is None:
        raise ValueError("Fisher-z screening needs a sample size; population input wants threshold mode")
    groups, shared = {}, {}  # before set -> its targets, and -> their stage-0 rhos once read
    for j in targets:
        groups.setdefault(ordering.before_set(j), []).append(j)

    def group_rhos(j, pool):
        before = ordering.before_set(j)
        if len(groups[before]) < 2:
            return None
        if before not in shared:
            shared[before] = _bordered_rhos(source.values, pool, groups[before])
        return shared[before].get(j)

    def stage(index, pools, notes):  # only stage 0 pools are shared before sets
        return _pcor_stage(source, targets, pools, threshold, alpha, (group_rhos, None)[index])

    return stage


def _pcor_stage(cov, targets, pools, threshold, alpha, shared=None):
    """The members each of a stage's ``targets`` keeps of its pool in ``pools``, in order.

    Returns ``(kept, error)``: the kept sets of the targets before the
    first one that fails, and its error (None when none fails).  A target
    fails its sample-size check before any read, and a ``pool + [j]``
    block that fails the guard raises :class:`DegenerateDataError`
    naming a linearly dependent column set (or
    :class:`SingularityError`).  ``shared(j, pool)``, when given, returns
    rhos read elsewhere, or None; every other non-empty pool is read by one
    :func:`_read_stage` call, and the whole stage is decided in one pass.
    """
    n, error = cov.n, None
    for stop, pool in enumerate(pools):
        if threshold is None and pool and n - len(pool) - 2 <= 0:
            error = InsufficientDataError(
                f"pcor screening of node {targets[stop]} conditions on a pool of {len(pool)} nodes, "
                f"which needs n > {len(pool) + 2} samples (n={n}); "
                "use --backend lasso or --backend sis when nodes outnumber samples"
            )
            pools = pools[:stop]
            break
    rhos = [shared(j, pool) if shared and pool else None for j, pool in zip(targets, pools)]
    own = [k for k, pool in enumerate(pools) if pool and rhos[k] is None]
    if own:
        read, _, failed = _read_stage(cov.values, ((pools[k] + [targets[k]], len(pools[k]), ()) for k in own))
        start = 0
        for k in own:
            rhos[k] = read[start : start + len(pools[k])]  # the pool's positions, then the target's
            start += len(pools[k]) + 1
        if failed:
            stop = own[failed[0]]
            j, pool = targets[stop], pools[stop]
            error = _dependence_error(cov, pool + [j], spare=0)
            error = error or SingularityError(context=(j, "pool", tuple(pool)))
            pools = pools[:stop]
    sizes = [len(pool) for pool in pools]
    keep = []
    if any(sizes):
        values = np.concatenate([r for r in rhos[: len(pools)] if r is not None])
        if threshold is not None:
            keep = (np.abs(values) > threshold).tolist()
        else:
            dofs = np.repeat([n - size - 2 for size in sizes], sizes)
            keep = (~_fisher_z_statistics(values, dofs, alpha)[1]).tolist()
    kept, start = [], 0
    for pool in pools:
        kept.append(frozenset(itertools.compress(pool, keep[start : start + len(pool)])))
        start += len(pool)
    return kept, error


def _sis_rule(cov, ordering, targets, t=0.5, mode="top", pvalue_cutoff=0.5):
    """Sure-independence screening (Fan & Lv 2008) on the marginal correlations of ``cov``.

    Candidates are scored by their absolute marginal correlation with j,
    ``|Sigma_kj| / sqrt(Sigma_kk Sigma_jj)``.  ``mode="top"`` keeps the
    ceil(t*n) highest-scoring candidates, ties resolved by node index
    (all of them, unscored, when no more are available).
    ``mode="pvalue"`` instead keeps candidates whose marginal correlation
    the Fisher z test at level ``pvalue_cutoff`` rejects: two-sided
    p-value below the cutoff.  Both modes read n, so a population
    ``cov`` raises :class:`ValueError`; in ``"pvalue"`` mode an ``n - 3``
    that is not positive raises :class:`InsufficientDataError`, before
    any read.
    """
    if mode == "top" and not 0 < t < 1:
        raise ValueError("t must be in (0, 1)")
    if mode not in ("top", "pvalue"):
        raise ValueError("mode must be 'top' or 'pvalue'")
    n = cov.n
    if n is None:
        raise ValueError("sis screening needs a sample size; a population CovMatrix has none")
    if mode == "pvalue":
        if not 0 < pvalue_cutoff < 1:
            raise ValueError("pvalue_cutoff must be in (0, 1)")
        dof = _fisher_z_dof(n, 0)
    sigma = cov.values
    quota = math.ceil(t * n) if mode == "top" else None

    def select(j, candidates, stage, notes):
        if quota is not None and quota >= len(candidates):
            return candidates  # all are kept, so none is scored
        scores = np.abs(sigma[candidates, j]) / np.sqrt(np.diag(sigma)[candidates] * sigma[j, j])
        if quota is not None:
            order = sorted(range(len(candidates)), key=lambda idx: (-scores[idx], candidates[idx]))
            return [candidates[idx] for idx in order[:quota]]
        _, independent = _fisher_z_statistics(np.clip(scores, 0.0, 1.0 - 1e-15), dof, pvalue_cutoff)
        return [k for k, ind in zip(candidates, independent) if not ind]

    return functools.partial(_each_target, targets, select)


@dataclass(frozen=True)
class LassoFit:
    """Solution of one lasso problem."""

    coefficients: np.ndarray
    lam: float
    active_set: frozenset
    iterations: int
    converged: bool


def _moments(y, x):
    """``(x'x/n, x'y/n, y'y/n, n)``: all that the lasso reads of ``(y, x)``."""
    y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
    return x.T @ x / len(x), x.T @ y / len(x), float(y @ y) / len(x), len(x)


def _lasso(gram, xy, lam, warm_start=None, tol=LASSO_TOL, max_sweeps=LASSO_MAX_SWEEPS, trace=None, yy=0.0):
    """Gram-form coordinate descent, the one lasso solver.

    Minimizes ``||y - x b||^2 / (2n) + lam ||b||_1`` given only ``G =
    x'x/n``, ``xy = x'y/n`` and ``yy = y'y/n``: coordinate k moves to
    ``S(z, lam) / G_kk`` with ``z = xy_k - G_k b + G_kk b_k`` (covariance
    updates, Friedman, Hastie & Tibshirani 2010), at O(p) per changed
    coefficient.  Sweeps the active set until it stabilizes, then all
    coordinates to confirm optimality; ``converged`` is False when the
    sweep cap is hit.  A ``trace`` list gets the objective after every sweep.
    The coordinate updates run on Python floats, the IEEE operations of
    numpy scalars: only ``G b`` is kept as an array.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    lam = float(lam)
    start = np.zeros(len(xy)) if warm_start is None else np.asarray(warm_start, dtype=float)
    fitted = gram @ start
    beta, diag, xys = start.tolist(), np.diag(gram).tolist(), xy.tolist()
    sweeps = 0

    def sweep(indices):
        nonlocal sweeps, fitted
        sweeps += 1
        max_delta = 0.0
        for k in indices:
            d = diag[k]
            if d == 0.0:
                continue
            old = beta[k]
            z = xys[k] - fitted.item(k) + d * old
            excess = abs(z) - lam
            # excess > 0 here, so copysign is np.sign(z) * excess; a zero or NaN z moves to 0
            new = math.copysign(excess, z) / d if excess > LASSO_TIE * abs(z) else 0.0
            if new != old:
                beta[k] = new
                fitted += gram[k] * (new - old)
                max_delta = max(max_delta, abs(new - old))
        if trace is not None:
            b = np.array(beta)
            trace.append(float(yy / 2 - xy @ b + b @ fitted / 2 + lam * np.abs(b).sum()))
        return max_delta

    converged = False
    while sweeps < max_sweeps:
        if sweep(range(len(beta))) < tol:
            converged = True
            break
        active = [k for k, b in enumerate(beta) if b]
        while sweeps < max_sweeps and sweep(active) >= tol:
            pass
    return LassoFit(np.array(beta), lam, frozenset(k for k, b in enumerate(beta) if b), sweeps, converged)


def _lambda_grid(xy, size=50, ratio=0.01):
    """Log-spaced grid from the null threshold ``max |xy|`` down to ``ratio`` times it."""
    lam_max = float(np.max(np.abs(xy))) if len(xy) else 0.0
    return [0.0] if lam_max <= 0 else list(np.geomspace(lam_max, ratio * lam_max, size))


def _select_lambda_aic(gram, xy, yy, n, grid, max_sweeps=LASSO_MAX_SWEEPS):
    """The grid value minimizing n log(RSS/n) + 2 |active set|.

    Fits are warm-started along the grid in decreasing order, and RSS is
    ``n (yy - 2 b'xy + b'G b)``.  Fits that fail to converge are skipped;
    if none converge a :class:`SelectionError` is raised.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("lambda grid is empty")
    aic = [None] * len(grid)
    warm = None
    for idx in sorted(range(len(grid)), key=lambda idx: -grid[idx]):
        fit = _lasso(gram, xy, grid[idx], warm_start=warm, max_sweeps=max_sweeps)
        if fit.converged:
            b = warm = fit.coefficients
            rss = n * (yy - 2 * xy @ b + b @ gram @ b)
            aic[idx] = n * np.log(max(rss, 1e-300) / n) + 2 * len(fit.active_set)
    if all(a is None for a in aic):
        raise SelectionError("no lasso fit converged on the lambda grid")
    return grid[min((a, idx) for idx, a in enumerate(aic) if a is not None)[1]]


def lasso_fit(y, x, lam, warm_start=None, tol=LASSO_TOL, max_sweeps=LASSO_MAX_SWEEPS, trace=None):
    """Minimizer of ||y - x b||^2 / (2n) + lam ||b||_1: :func:`_lasso` on the moments of ``(y, x)``."""
    gram, xy, yy, _ = _moments(y, x)
    return _lasso(gram, xy, lam, warm_start, tol, max_sweeps, trace, yy)


def _lasso_rule(cov, ordering, targets, lambda0=None, lambda1=None, aic=False):
    """Lasso screening: a pool's members with a non-zero coefficient in the lasso of j on it.

    Stage 0 fits at ``lambda0`` and stage 1 at ``lambda1``.  Default
    penalties follow the sqrt(2 log p / n) rate; ``aic=True`` instead
    selects each penalty by AIC over a log-spaced grid.  Both read n:
    population input needs ``lambda0`` and ``lambda1``.  Columns are
    standardized (the active set is what matters downstream):
    :func:`_lasso` reads the pool's block of the covariance's correlation
    matrix, taken from the one that :func:`_checked_covariance` computed
    (a :class:`CovMatrix` from elsewhere computes it once, on first use).
    A fit that does not converge leaves a note on its target's entry, and
    an AIC grid on which no fit converges raises :class:`SelectionError`
    naming the node and the stage.
    """
    n = cov.n

    def active(j, pool, stage, notes):
        idx = pool + [j]
        block = cov._corr.take(idx, axis=0).take(idx, axis=1)
        gram, xy, yy = block[:-1, :-1], block[:-1, -1], block[-1, -1]
        lam = (lambda0, lambda1)[stage]
        if n is None and (aic or lam is None):
            raise ValueError("lasso screening needs a sample size unless lambda0 and lambda1 are given")
        if aic:
            try:
                lam = _select_lambda_aic(gram, xy, yy, n, _lambda_grid(xy))
            except SelectionError as error:
                raise SelectionError(f"lasso for node {j} (s{stage}): {error}") from None
        elif lam is None:
            lam = np.sqrt(2.0 * np.log(max(len(pool) if stage == 0 else cov.m, 2)) / n)
        fit = _lasso(gram, xy, lam)
        if not fit.converged:
            notes[j].append(f"lasso for node {j} (s{stage}) did not converge")
        return [pool[k] for k in fit.active_set]

    return functools.partial(_each_target, targets, active)


_RULES = {"pcor": _pcor_rule, "sis": _sis_rule, "lasso": _lasso_rule}
BACKENDS = tuple(_RULES)


def screen_all(source, ordering, backend="pcor", params=None, targets=None):
    """Screen every target node in two stages, with the chosen backend's rule.

    ``targets`` defaults to all nodes (first-layer nodes get ``s0 = {}``
    and are screened only for within-layer structure).  ``params`` are
    keyword arguments of the backend's rule (``_pcor_rule``,
    ``_sis_rule`` or ``_lasso_rule``).  A :class:`Dataset` source is
    reduced once to its checked covariance, which every backend reads; a
    :class:`CiEngine` source (an oracle) screens with pcor only.  Stage 0
    selects each target's ``s0`` from ``before(j)``, stage 1 its ``s1``
    from ``s0 + peers(j)``; a rule decides a whole stage, every target at
    once.  The entries, warnings and warning order, and the error
    raised, are those of screening one node at a time: a stage stops at
    the first target that fails, and the first target that fails either
    stage raises, after the warnings of the targets before it.

    Returns ``(screen_sets, n_tests)``: ``n_tests`` counts one logical
    test per pool member screened by pcor (the queries an engine source
    answered are also on its own counter), and 0 for sis and lasso.
    """
    rule = _RULES.get(backend)
    if rule is None:
        raise ValueError(f"unknown screening backend {backend!r}")
    _check_node_count(ordering.n_nodes, source)
    targets = sorted(range(ordering.n_nodes) if targets is None else targets)
    labels = getattr(source, "labels", None)
    if isinstance(source, CiEngine):
        if backend != "pcor":
            raise ValueError("oracle inputs support only the pcor backend")
        n = None
    else:
        source = _covariance(source)
        n = source.n
    stage = rule(source, ordering, targets, **(params or {}))
    notes = {j: [] for j in targets}
    pool0 = [sorted(ordering.before_set(j)) for j in targets]
    s0, error = stage(0, pool0, notes)
    pool1 = [sorted(kept) + sorted(ordering.peer_set(j)) for j, kept in zip(targets, s0)]
    s1, error1 = stage(1, pool1, notes)
    entries = []
    for j, pool, kept0, kept1 in zip(targets, pool1, s0, s1):
        pools = (ordering.before_set(j), frozenset(pool)) if backend == "pcor" else ()
        warned = tuple(notes[j]) + _success_warnings(j, kept0, kept1, n)
        entries.append(ScreenEntry(j, kept0, kept1, warnings=warned, pools=pools))
    if error1 or error:
        raise error1 or error
    n_tests = sum(len(pool) for e in entries for pool in e.pools)
    return ScreenSets(entries, n_nodes=ordering.n_nodes, labels=labels), n_tests
