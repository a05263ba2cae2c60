"""Datasets, covariance, partial correlations, and conditional-independence tests.

Two interchangeable test engines implement the same contract
(:class:`CiEngine`): a Gaussian sample test (Fisher z on partial
correlations) and a population d-separation oracle.  Engines are
deterministic and keep an exact count of queries.  Every query is decided
afresh: a fit rarely asks the same question twice, so verdicts are not
kept.  A covariance block is factored and inverted by
:func:`_factor_spd`, which rejects it when its reciprocal condition
number falls below ``RCOND_MIN``: a bound read off the diagonals of the
block and its inverse decides, and a ``dpocon`` estimate where the bound
is not conclusive.  LAPACK comes from scipy's extension module
(:func:`_flapack`) and the critical value from :mod:`statistics`, so
``import podag`` loads neither ``scipy.linalg`` nor ``scipy.special``.
The README's architecture section describes the kernel.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import io
import itertools
import math
import os
import statistics
import sys
import threading
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import DegenerateDataError, InsufficientDataError, PodagError, SingularityError
from .graph import _check_node, _column_labels

__all__ = [
    "Dataset",
    "CovMatrix",
    "CiVerdict",
    "CiEngine",
    "OracleEngine",
    "GaussianEngine",
    "RecordingEngine",
    "sample_covariance",
    "partial_correlation",
    "fisher_z_test",
    "fisher_z_threshold",
]

RCOND_MIN = 1e-12  # reciprocal condition number below this raises SingularityError
RCOND_MARGIN = 1e3  # a stacked union needs an exact reciprocal condition number this far above it
STACK_ENTRIES = 2**14  # covariance entries per stacked kernel call, unless one test holds more


def _flapack():
    """scipy's LAPACK extension ``scipy.linalg._flapack``, from ``sys.modules`` or else from its file.

    ``scipy.linalg.lapack`` re-exports the same routines, but its package import (and the
    ``numpy.f2py`` import behind it) is most of podag's start-up.  ImportError if there is no file.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    folder = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    spec = importlib.machinery.PathFinder.find_spec(name, [folder])
    if spec is None:
        raise ImportError(f"no {name} in {folder}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


try:
    _lapack = _flapack()
except ImportError:  # a scipy laid out otherwise: the package import finds the module
    from scipy.linalg import lapack as _lapack
dpocon, dpotrf, dpotri, dpotrs = _lapack.dpocon, _lapack.dpotrf, _lapack.dpotri, _lapack.dpotrs


class Dataset:
    """An n x m observation matrix with per-column node labels."""

    def __init__(self, data, labels=None):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ValueError("data must be a 2-d array")
        n, m = data.shape
        if m < 2:
            raise ValueError("need at least two columns")
        if n < 1:
            raise ValueError("need at least one observation")
        if not np.all(np.isfinite(data)):
            raise ValueError("data contains non-finite entries")
        self.data = data
        self.data.setflags(write=False)
        self.labels = _column_labels(labels, m)

    @property
    def n(self):
        return self.data.shape[0]

    @property
    def m(self):
        return self.data.shape[1]

    @classmethod
    def from_csv(cls, source):
        """Read a dataset from CSV text, a path, or a file object.

        The header row carries node labels.  A tab-separated file is
        autodetected by sniffing the header line.
        """
        if hasattr(source, "read"):
            text = source.read()
        elif isinstance(source, str) and "\n" in source:
            text = source
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) < 2:
            raise ValueError("CSV must contain a header and at least one row")
        header = lines[0]
        delim = "\t" if header.count("\t") > header.count(",") else ","
        labels = [x.strip() for x in header.split(delim)]
        data = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=delim, ndmin=2)
        return cls(data, labels)

    def to_csv(self):
        """Render as CSV text with the header row of labels."""
        buf = io.StringIO()
        buf.write(",".join(self.labels) + "\n")
        np.savetxt(buf, self.data, delimiter=",", fmt="%.17g")
        return buf.getvalue()


class CovMatrix:
    """Symmetric covariance matrix with its sample size (None for a population).

    ``labels`` name the columns, as in :class:`Dataset`.  ``_corr``, the
    correlation matrix, is computed once, on first use, unless
    :func:`_checked_covariance` already set it.
    """

    def __init__(self, values, n=None, labels=None):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError("covariance must be square")
        if not np.all(np.isfinite(values)):
            raise ValueError("covariance contains non-finite entries")
        scale = max(np.abs(values).max(), 1.0)
        if np.abs(values - values.T).max() > 1e-12 * scale:
            raise ValueError("covariance must be symmetric")
        if np.any(np.diag(values) <= 0):
            raise DegenerateDataError("covariance has a non-positive diagonal entry")
        self.values = 0.5 * (values + values.T)
        self.values.setflags(write=False)
        self.n = None if n is None else int(n)
        self.labels = _column_labels(labels, len(values))

    @property
    def m(self):
        return self.values.shape[0]

    @functools.cached_property
    def _corr(self):
        return _correlation(self.values)


def sample_covariance(dataset):
    """Centered empirical covariance with divisor n.

    Raises
    ------
    InsufficientDataError
        If fewer than two observations are available.
    DegenerateDataError
        If some column is constant.
    """
    if dataset.n < 2:
        raise InsufficientDataError("sample covariance needs n >= 2")
    x = dataset.data - dataset.data.mean(axis=0)
    cov = (x.T @ x) / dataset.n
    variances = np.diag(cov)
    if np.any(variances <= 0):
        bad = [dataset.labels[i] for i in np.nonzero(variances <= 0)[0]]
        raise DegenerateDataError(f"constant column(s): {bad}")
    return CovMatrix(cov, n=dataset.n, labels=dataset.labels)


def _correlation(values):
    sd = np.sqrt(np.diag(values))
    return values / np.outer(sd, sd)


def _checked_covariance(dataset):
    """The sample covariance that CI tests on ``dataset`` read.

    Raises :class:`DegenerateDataError` naming two columns when their own
    2 x 2 correlation block, with reciprocal condition number
    ``(1 - |r|) / (1 + |r|)``, already fails the kernel's ``RCOND_MIN``
    guard: every conditioning set holding both columns is singular, and
    one column leaves the other no residual variance.  When n > p, where
    the sample covariance can have full rank, it also raises naming a
    larger linearly dependent column set (see :func:`_dependent_columns`).
    The returned matrix keeps the correlation matrix the check computed
    as its ``_corr``, which lasso screening reads.
    """
    cov = sample_covariance(dataset)
    cov._corr = _correlation(cov.values)
    r = np.abs(np.triu(cov._corr, k=1))
    pairs = np.argwhere(1.0 - r < RCOND_MIN * (1.0 + r))
    if len(pairs):
        a, b = (dataset.labels[v] for v in pairs[0])
        raise DegenerateDataError(f"columns {a} and {b} are collinear; drop one of them")
    error = _dependence_error(cov, range(dataset.m), spare=2) if dataset.n > dataset.m else None
    if error is not None:
        raise error
    return cov


def _covariance(source):
    """What tests and screens read: a :class:`Dataset`'s checked covariance, a :class:`CovMatrix` as given."""
    if not isinstance(source, (Dataset, CovMatrix)):
        raise TypeError("source must be a Dataset or CovMatrix")
    return _checked_covariance(source) if isinstance(source, Dataset) else source


def _dependence_error(cov, idx, spare):
    """A :class:`DegenerateDataError` naming dependent columns among ``idx``, or None.

    The set is found by :func:`_dependent_columns` on the correlation
    block of the ``idx`` columns and must leave at least ``spare`` of
    them out; the message names it by the labels of ``cov``.
    """
    idx = list(idx)
    dependent = _dependent_columns(_correlation(cov.values[np.ix_(idx, idx)]), spare)
    if dependent is None:
        return None
    *rest, last = (cov.labels[v] for v in sorted(idx[k] for k in dependent))
    return DegenerateDataError(
        f"columns {', '.join(rest)} and {last} are linearly dependent; drop one of them"
    )


def _dependent_columns(corr, spare):
    """Sorted indices of a linearly dependent column set, or None.

    One Cholesky factorization of the correlation matrix: the squared
    k-th pivot is the residual variance of column k given the columns
    before it.  The first pivot below ``RCOND_MIN`` (or the one where the
    factorization stops) marks a column that is a combination of earlier
    ones; the set is that column plus the earlier columns its regression
    on them uses.  A set with fewer than ``spare`` columns outside it is
    skipped: its last column leaves the matrix, which is factored again.
    The whole covariance matrix asks for two spare columns, because no
    test ``(i, j | S)`` can condition on all of a set that leaves fewer
    out; a screening block (pool plus target) asks for none.
    """
    keep = list(range(len(corr)))
    block = corr
    while True:
        factor, info = dpotrf(block, lower=1, clean=0)
        if info > 0:
            k = info - 1
        else:
            small = np.flatnonzero(np.diag(factor) ** 2 < RCOND_MIN)
            if not small.size:
                return None
            k = int(small[0])
        coef = np.linalg.solve(block[:k, :k], block[:k, k])
        dependent = [keep[i] for i in np.flatnonzero(np.abs(coef) > np.sqrt(RCOND_MIN))]
        if len(corr) - len(dependent) - 1 >= spare:
            return dependent + [keep[k]]
        del keep[k]
        block = corr[np.ix_(keep, keep)]


def _factor_spd(block, context):
    """Cholesky-factor and invert a conditioning block, guarding its conditioning.

    Returns ``(factor, omega)``: the lower factor as LAPACK leaves it (the
    strict upper triangle is not cleared) and the lower triangle of the
    inverse ``Omega`` (``dpotri`` on a copy, so the factor stays for
    solves).  Raises :class:`SingularityError` when the block is not
    positive definite or its reciprocal condition number (LAPACK 1-norm
    estimate, ``dpocon``) falls below ``RCOND_MIN``.

    The estimate is needed only when a cheaper bound leaves the verdict
    open.  For a symmetric positive definite block of order ``m`` every
    entry is at most the largest diagonal entry, so ``||A||_1 <= m max
    diag(A)``, and likewise for ``Omega``; the exact reciprocal
    condition number is therefore at least ``1 / (m^2 max diag(A) max
    diag(Omega))``.  When that bound reaches ``RCOND_MIN`` with a margin
    of ``RCOND_MARGIN``, which covers the rounding in the computed
    ``Omega``, the block is accepted: ``dpocon`` estimates
    ``||A^-1||_1`` from below, so its reciprocal condition number is
    never below the exact one and would pass too.  Otherwise (a NaN
    fails the bound) ``dpocon`` decides as the only guard.
    """
    factor, info = dpotrf(block, lower=1, clean=0)
    if info != 0:
        raise SingularityError(context=context)
    omega, info = dpotri(factor, lower=1, overwrite_c=0)
    if info != 0:  # a zero pivot, which dpotrf has already excluded
        raise SingularityError(context=context)
    bound = len(block) ** 2 * float(block.diagonal().max()) * float(omega.diagonal().max())
    if not bound * (RCOND_MIN * RCOND_MARGIN) <= 1.0:  # python floats: inf * 0 is a NaN, with no warning
        anorm = float(np.abs(block).sum(axis=0).max())
        rcond, info = dpocon(factor, anorm, uplo=b"L")
        if info != 0 or rcond < RCOND_MIN:
            raise SingularityError(context=context)
    return factor, omega


def _clip_unit(values):
    """``values`` clipped to [-1, 1] in place (NaN stays NaN), as ``np.clip`` would."""
    np.maximum(values, -1.0, out=values)
    return np.minimum(values, 1.0, out=values)


def _read_stage(sigma, blocks):
    """The partial correlations of a stage of blocks, each factored by itself: the kernel's one block reader.

    ``blocks`` is an iterable, consumed once, of blocks ``(pool, t,
    borders)``, lists of nodes but for the position ``t``; a single
    query's union is a stage of one block.  With ``Omega`` the inverse of
    the ``pool`` block (:func:`_factor_spd`), a block reads, clipped to
    [-1, 1]:

    - ``rho(pool[k], pool[t] | the rest) = -Omega_kt / sqrt(Omega_kk
      Omega_tt)`` at each position ``k`` (-1 at ``t``);
    - ``rho(pool[t], a | the rest) = w / sqrt(s_a Omega_tt + w^2)`` for
      each node ``a`` of ``borders``, with ``w`` entry ``t`` of
      ``Sigma_pool^-1 Sigma_pool,a`` (one ``dpotrs`` per block) and ``s_a
      = Sigma_aa - Sigma_a,pool Sigma_pool^-1 Sigma_pool,a``.  Below ``s_a
      = sqrt(RCOND_MIN) Sigma_aa``, ``pool + [a]`` may be near singular.

    The rhos of the whole stage are computed at once on concatenated
    arrays, elementwise, so a block reads the same bits alone as in any
    stage.  Returns ``(rhos, read, failed)``.  ``rhos`` and ``read`` are
    flat arrays: every block's positions, block after block, then every
    block's borders, block after block.  ``read`` is False for a border
    below its floor and for every read of a block in the sorted list
    ``failed``, whose pool fails the guard or whose ``Omega`` has a
    non-positive diagonal.  Never raises.
    """
    # per block, copied out so that its factor and inverse are freed: Omega's column t, then its diagonal
    pieces, omega_tt, sizes, counts = [], [], [], []
    rows_t, products, border_nodes, failed = [], [], [], []
    for index, (pool, t, borders) in enumerate(blocks):
        sizes.append(len(pool))
        counts.append(len(borders))
        border_nodes += borders
        rows = sigma.take(pool, axis=0)
        try:
            factor, omega = _factor_spd(rows.take(pool, axis=1), None)
        except SingularityError:  # placeholders, not read
            failed.append(index)
            pieces.append(np.repeat((0.0, 1.0), len(pool)))
            omega_tt.append(1.0)
            rows_t.append(np.zeros(len(borders)))
            products.append(np.zeros(len(borders)))
            continue
        pieces.append(np.concatenate((omega[t, :t], omega[t:, t], omega.diagonal())))  # column t: entries (k, t)
        omega_tt.append(omega[t, t])
        if borders:
            cross = rows.take(borders, axis=1)
            solved, _ = dpotrs(factor, cross, lower=1)
            rows_t.append(solved[t].copy())
            products.append(np.einsum("ij,ij->j", cross, solved))
    if not sizes:
        return np.zeros(0), np.zeros(0, dtype=bool), []
    starts = np.cumsum(sizes) - sizes
    at = np.arange(starts[-1] + sizes[-1]) + np.repeat(starts, sizes)  # block b's k-th entry of its column
    flat, tt = np.concatenate(pieces), np.array(omega_tt)
    column, diag = flat[at], flat[at + np.repeat(sizes, sizes)]
    ok = ~np.logical_or.reduceat(diag <= 0, starts)
    ok[failed] = False
    outside, kept = np.zeros(0), np.zeros(0, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):  # a negative residual is below its floor
        inside = _clip_unit(-column / np.sqrt(diag * np.repeat(tt, sizes)))
        if border_nodes:
            w, variances = np.concatenate(rows_t), sigma.diagonal()[border_nodes]
            residual = variances - np.concatenate(products)
            outside = _clip_unit(w / np.sqrt(residual * np.repeat(tt, counts) + w * w))
            kept = residual >= math.sqrt(RCOND_MIN) * variances
    read = np.concatenate((np.repeat(ok, sizes), kept & np.repeat(ok, counts)))
    return np.concatenate((inside, outside)), read, np.flatnonzero(~ok).tolist()


def _bordered_rhos(sigma, pool, targets):
    """rho(k, t | pool - {k}) for every k in the sorted ``pool``, for each t of ``targets``: the shared-pool read.

    The pool block is factored once and every target borders it, as in
    :func:`_read_stage`, but is read at every position ``k``: ``W_k /
    sqrt(s_t Omega_kk + W_k^2)``.  Returns ``{t: rhos}`` in pool order,
    without the targets below the residual floor; empty when the pool
    block fails the guard or ``Omega`` has a non-positive diagonal.  The
    values equal the target's own block read up to rounding.
    """
    rows = sigma.take(pool, axis=0)
    try:
        factor, omega = _factor_spd(rows.take(pool, axis=1), None)
    except SingularityError:
        return {}
    diag = omega.diagonal()
    if (diag <= 0).any():
        return {}
    cross = rows.take(targets, axis=1)
    solved, _ = dpotrs(factor, cross, lower=1)
    variances = sigma.diagonal()[targets]
    residual = variances - np.einsum("ij,ij->j", cross, solved)
    with np.errstate(invalid="ignore"):  # a negative s_t is below its floor
        rhos = _clip_unit(solved / np.sqrt(residual * diag[:, None] + solved * solved))
    kept = residual >= math.sqrt(RCOND_MIN) * variances
    return {t: rhos[:, c] for c, t in enumerate(targets) if kept[c]}


def partial_correlation(cov, i, j, s):
    """Partial correlation rho(i, j | s) from a covariance matrix.

    Computed from the Schur complement on the ``s + {i, j}`` submatrix:
    the conditional covariance ``Sij - Ssi' Sss^-1 Ssj`` normalized by the
    conditional standard deviations.  Equals ``-Omega_ij /
    sqrt(Omega_ii Omega_jj)`` on the precision matrix of the submatrix.

    Raises
    ------
    SingularityError
        If the conditioning block is numerically singular (reciprocal
        condition number below 1e-12).
    """
    s = sorted(set(map(int, s)))
    i, j = int(i), int(j)
    for v in (i, j, *s):
        _check_node(cov.m, v)
    if i == j or i in s or j in s:
        raise ValueError("i, j and s must be disjoint")
    i, j = min(i, j), max(i, j)  # the value is symmetric; make it exactly so
    sigma = cov.values
    if not s:
        d = sigma[i, j]
        vii = sigma[i, i]
        vjj = sigma[j, j]
    else:
        idx = np.array(s)
        rows = sigma.take(idx, axis=0)
        factor, _ = _factor_spd(rows.take(idx, axis=1), context=(i, j, tuple(s)))
        solved, _ = dpotrs(factor, rows[:, [i, j]], lower=1)
        row_i = sigma[i].take(idx)
        row_j = sigma[j].take(idx)
        d = float(sigma[i, j] - row_i @ solved[:, 1])
        vii = float(sigma[i, i] - row_i @ solved[:, 0])
        vjj = float(sigma[j, j] - row_j @ solved[:, 1])
    if vii <= 0 or vjj <= 0:
        raise SingularityError(
            context=(i, j, tuple(s)),
            message="non-positive conditional variance",
        )
    rho = float(d / np.sqrt(vii * vjj))
    return min(max(rho, -1.0), 1.0)


@dataclass(frozen=True)
class CiVerdict:
    """Outcome of one conditional-independence query: the verdict and its test statistic."""

    independent: bool
    statistic: float


@functools.lru_cache(maxsize=64)
def fisher_z_threshold(alpha):
    """Two-sided standard-normal critical value ``Phi^-1(1 - alpha/2)``, a few ulp from ``ndtri``'s."""
    p = 1.0 - alpha / 2.0
    return statistics.NormalDist().inv_cdf(p) if p < 1.0 else math.inf  # 1 - alpha/2 rounded to 1: inf, as ndtri(1)


def _fisher_z_dof(n, size):
    """Degrees of freedom ``n - size - 3`` of a test conditioning on ``size`` nodes."""
    dof = n - size - 3
    if dof <= 0:
        raise InsufficientDataError(f"fisher z needs n - |s| - 3 > 0 (n={n}, |s|={size})")
    return dof


def _fisher_z_statistics(rhos, dof, alpha):
    """Fisher z statistics of partial correlations ``rhos`` in [-1, 1] and their verdicts.

    ``z = sqrt(dof) * atanh(rho)``, infinite at ``|rho| = 1``, and
    independent iff ``|z| <= Phi^-1(1 - alpha/2)``.  ``dof`` is an int,
    or an array of them.  Returns ``(z, independent)``.
    """
    root = math.sqrt(dof) if isinstance(dof, int) else np.sqrt(dof)
    with np.errstate(divide="ignore"):
        z = root * np.arctanh(np.asarray(rhos, dtype=float))
    return z, np.abs(z) <= fisher_z_threshold(alpha)


def _fisher_z_verdict(rho, dof, alpha):
    """The Fisher z verdict on one partial correlation ``rho``: :func:`_fisher_z_statistics` of one."""
    z, independent = _fisher_z_statistics(rho, dof, alpha)
    return CiVerdict(independent=bool(independent), statistic=float(z))


def fisher_z_test(cov, n, i, j, s, alpha):
    """Fisher z test of zero partial correlation.

    ``z = sqrt(n - |s| - 3) * atanh(rho)``; the verdict is independent iff
    ``|z| <= Phi^-1(1 - alpha/2)``.

    Raises
    ------
    InsufficientDataError
        If the effective degrees of freedom ``n - |s| - 3`` are not positive.
    """
    s = sorted(set(map(int, s)))
    dof = _fisher_z_dof(n, len(s))
    return _fisher_z_verdict(partial_correlation(cov, i, j, s), dof, alpha)


def _check_node_count(n_nodes, source):
    """Raise a ValueError naming both counts unless ``source`` (data, a DAG or an engine) has ``n_nodes`` nodes.

    An engine whose ``n_nodes`` is None passes.
    """
    m = source.m if isinstance(source, (Dataset, CovMatrix)) else source.n_nodes
    if m is not None and m != n_nodes:
        raise ValueError(f"the estimator was given {n_nodes} nodes, but the data has {m}")


class CiEngine:
    """Contract for pluggable conditional-independence tests.

    Subclasses implement ``_decide(i, j, s)``, which receives ``i < j``
    and a frozenset ``s``.  ``query`` normalizes and validates its
    arguments, counts the query, and asks ``_decide``; the counter
    measures the logical tests performed by the algorithms driving the
    engine, repeats included.  Engines are safe to share across threads.

    Every counted query passes ``_count(n, queries)`` before it is
    decided, whichever method asks it: ``queries()`` lists the ``n``
    queries as ``(i, j, s)`` with ``i < j`` and is valid only until
    ``_count`` returns.  This engine never calls it, so an unrecorded
    fit builds no extra sets; :class:`RecordingEngine` hooks ``_count``.

    A fit asks every query through one of two batched entry points,
    which skip the argument checks because the caller builds the
    arguments.  ``_query_block(b, sources, cond)`` asks ``a _||_ b |
    cond - {a}`` for every ``a`` in ``sources`` at once: the level-0
    tests of one target in the skeleton search, and the tests of a
    screening stage or of h0 and h-minus-j.  It counts one query per
    source and returns the verdicts as two lists in source order,
    ``(independent, statistics)``, as the per-source queries would
    answer.  ``_read_blocks``, the level-0 counterpart of ``speculate``,
    reads many such blocks without counting; ``_query_block`` takes the
    verdicts read there and asks the other sources one ``_decide`` at a
    time.  This engine reads nothing, so it decides every source alone.

    At levels 1 and up a skeleton-search test asks the separators ``base
    | T`` of a pair in order until one is independent.  ``speculate``
    looks ahead over many tests without counting; ``_query_first`` walks
    one test from that look-ahead, counting as the loop would.

    ``n_nodes``, the number of nodes tested, bounds the indices ``query``
    accepts and is checked against an estimator's; None checks neither.
    """

    def __init__(self, n_nodes=None):
        self.n_nodes = n_nodes
        self._count_lock = threading.Lock()
        self._n_queries = 0

    @property
    def n_queries(self):
        return self._n_queries

    def _count(self, n, queries):
        with self._count_lock:
            self._n_queries += n

    def query(self, i, j, s=()):
        i, j = int(i), int(j)
        s = frozenset(map(int, s))
        if self.n_nodes is not None:
            for v in (i, j, *s):
                _check_node(self.n_nodes, v)
        if i == j or i in s or j in s:
            raise ValueError("i, j and s must be disjoint")
        i, j = min(i, j), max(i, j)
        self._count(1, lambda: [(i, j, s)])
        return self._decide(i, j, s)

    def _query_block(self, b, sources, cond, got=None):
        """``(independent, statistics)`` of ``a _||_ b | cond - {a}`` for each ``a`` in ``sources``, in order.

        The same verdicts and count as ``[query(a, b, cond - {a}) for a
        in sources]``, except that a raised error leaves every source
        counted.  ``got`` is the block's entry from :meth:`_read_blocks`
        with these sources (read here when None); a lone source is asked
        as a single query, read or not.  Unchecked: ``b`` is an int
        outside ``sources`` and ``cond``, ``sources`` a list of ints and
        ``cond`` a frozenset.
        """
        self._count(len(sources), lambda: [(min(a, b), max(a, b), cond - {a}) for a in sources])
        if len(sources) < 2:
            got = None
        elif got is None:
            (got,) = self._read_blocks([(b, sources, cond)])
        unread = [False] * len(sources)
        read, independent, statistics = got or (unread, list(unread), [0.0] * len(sources))
        if not all(read):
            for k, a in enumerate(sources):
                if not read[k]:
                    verdict = self._decide(min(a, b), max(a, b), cond - {a})
                    independent[k], statistics[k] = verdict.independent, verdict.statistic
        return independent, statistics

    def _read_blocks(self, requests):
        """What the engine reads of each block ``(b, sources, cond)`` in ``requests`` without single queries.

        An iterable with, per block, None (nothing read) or three lists
        over its sources, ``(read, independent, statistics)``: where
        ``read`` holds, the other two are the source's verdict, that of
        its single query; elsewhere they are meaningless.  A read
        depends on its source alone, so the block of a sub-list of the
        sources may keep their reads (its statistics may then differ
        from the sub-list's own read in the last bit).  Counts nothing
        and never raises; this engine reads nothing.
        """
        return [None] * len(requests)

    def speculate(self, requests):
        """The stops of each skeleton-search test ``(a, b, base, subsets)`` in ``requests``.

        Per test, an iterable of ``(k, known)`` pairs in increasing ``k``:
        the loop over ``base | subsets[k]`` stops there (``known``
        independent) or must ask a single query; every other position is
        known dependent.  Counts nothing and never raises; this engine
        knows nothing.
        """
        return [zip(range(len(subsets)), itertools.repeat(False)) for _, _, _, subsets in requests]

    def _query_first(self, a, b, base, subsets, stops=None):
        """Index of the first ``T`` in ``subsets`` for which ``base | T`` separates ``a`` and ``b``.

        None when none does.  ``stops`` come from :meth:`speculate`
        (asked when None).  The same answer, count, records and errors as
        asking ``query(a, b, base | T)`` for each ``T`` in order until
        the first independent verdict; an error names the candidate and
        ``T``.  Unchecked: ``a`` and ``b`` are ints, ``base`` a frozenset
        and ``subsets`` a list of tuples, all disjoint.
        """
        if stops is None:
            stops = self.speculate([(a, b, base, subsets)])[0]
        i, j = min(a, b), max(a, b)
        asked = 0
        for k, known in stops:
            self._count(k + 1 - asked, lambda: [(i, j, base.union(t)) for t in subsets[asked : k + 1]])
            asked = k + 1
            if known:
                return k
            try:
                if self._decide(i, j, base.union(subsets[k])).independent:
                    return k
            except PodagError as err:
                err.args = (f"{err.args[0]} [candidate ({a}, {b}), T={subsets[k]}]",) + err.args[1:]
                raise
        self._count(len(subsets) - asked, lambda: [(i, j, base.union(t)) for t in subsets[asked:]])
        return None

    def _decide(self, i, j, s):
        raise NotImplementedError


class OracleEngine(CiEngine):
    """Population oracle: independent iff d-separated in the given DAG."""

    def __init__(self, dag):
        super().__init__(dag.n_nodes)
        self.dag = dag

    def _decide(self, i, j, s):
        dsep = self.dag.is_dsep(i, j, s)
        return CiVerdict(independent=dsep, statistic=0.0 if dsep else 1.0)


class GaussianEngine(CiEngine):
    """Fisher z test on the partial correlations of one covariance matrix.

    Accepts a :class:`Dataset`, whose checked covariance is computed
    once, at construction (so degenerate data raises there), or a ready
    :class:`CovMatrix` with a sample size.  Apart from the query counter
    the engine never changes after construction, so it is safe to share
    across threads.

    Every partial correlation the engine reads off a factored block comes
    from :func:`_read_stage`.  A query ``(i, j | S)`` with S non-empty is
    a stage of one block, the sorted union ``U = S + {i, j}`` read at
    ``j``.  With S empty it is :func:`fisher_z_test`'s.

    ``_read_blocks`` reads a whole stage of blocks ``(b, sources, cond)``
    (the level-0 tests of every target) with one :func:`_read_stage`
    call and one Fisher z pass.  A block needs at most one
    factorization, of the sorted union ``U = cond + {b}``, and none when
    ``cond`` is empty: then each rho is read off three covariance
    entries, the bits of an empty-S query.  Sources inside ``cond``
    (cross candidates) read their rhos off the precision matrix of
    ``U``, the bits of their single queries.  Sources outside it (within
    candidates) border ``U``; one whose residual variance given ``U``
    falls below ``sqrt(RCOND_MIN)`` of its variance, where its union may
    be near singular, is not read, and neither is any source of a block
    that holds one source, of a block whose sources outside ``cond``
    would have no degrees of freedom (``n - |cond| - 3 <= 0``), or of a
    ``U`` that fails the guard.  ``_query_block`` asks the sources left
    unread as single queries.

    ``speculate`` groups the unions ``base + T + {a, b}`` of its tests
    by size and stacks whole tests, up to ``STACK_ENTRIES`` covariance
    entries, into one kernel call (:meth:`_stacked_verdicts`).  A union
    that is not provably a block the single query accepts, positive
    definite with a reciprocal condition number ``RCOND_MARGIN`` times
    above ``RCOND_MIN``, is a single ask in its place in the order; a
    stack with a union that is not positive definite is factored again
    test by test.  A test whose degrees-of-freedom guard fails is all
    single asks.

    Everything else is :func:`fisher_z_test`'s: its degrees-of-freedom
    guard fires before any factoring, and a union block that fails the
    singularity guard falls back to it exactly, so errors (with their
    ``(i, j, S)`` context) and verdicts on rank-deficient data are its
    own.  Statistics may differ from it in the last bits.
    """

    def __init__(self, source, alpha=0.05):
        self.alpha = float(alpha)
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if isinstance(source, Dataset) and source.n < 4:
            raise InsufficientDataError("gaussian engine needs n >= 4")
        if isinstance(source, CovMatrix) and source.n is None:
            raise ValueError("a CovMatrix source needs a sample size n")
        self.cov = _covariance(source)
        super().__init__(self.cov.m)
        self._n = source.n

    def _decide(self, i, j, s):
        if s:
            dof = _fisher_z_dof(self._n, len(s))
            order = sorted(s.union((i, j)))
            rhos, read, _ = _read_stage(self.cov.values, [(order, order.index(j), [])])
            k = order.index(i)
            if read[k]:  # otherwise fisher_z_test's own solve decides, or raises
                return _fisher_z_verdict(rhos[k], dof, self.alpha)
        return fisher_z_test(self.cov, self._n, i, j, s, self.alpha)

    def speculate(self, requests):
        stops = [[] for _ in requests]
        groups = {}  # union size m -> flat rows of m nodes, and (request, first row) per test
        for r, (a, b, base, subsets) in enumerate(requests):
            m = len(base) + len(subsets[0]) + 2 if subsets else 0
            if not subsets or self._n - m - 1 <= 0 or len(set(map(len, subsets))) > 1:
                # the degrees-of-freedom guard raises at once, or no one union size
                stops[r] = zip(range(len(subsets)), itertools.repeat(False))
                continue
            rows, tests = groups.setdefault(m, ([], []))
            tests.append((r, len(rows) // m))
            base, ends = sorted(base), ((a, b) if a < b else (b, a))
            for t in subsets:
                rows += base
                rows += t
                rows += ends
        for m, (rows, tests) in groups.items():
            order = np.array(rows, dtype=np.intp).reshape(-1, m)
            flags = np.zeros((2, len(order)), dtype=bool)  # batched, independent
            bounds = [start for _, start in tests] + [len(order)]
            first = 0  # tests first, first + 1, ... share one kernel call
            for p in range(1, len(bounds)):
                if p == len(tests) or (bounds[p + 1] - bounds[first]) * m * m > STACK_ENTRIES:
                    self._speculate_stack(order, bounds[first : p + 1], flags)
                    first = p
            batched, independent = flags
            hits = np.flatnonzero(independent | ~batched)
            at = np.searchsorted(bounds, hits, side="right") - 1
            for hit, p, known in zip(hits.tolist(), at.tolist(), independent[hits].tolist()):
                stops[tests[p][0]].append((hit - bounds[p], known))
        return stops

    def _speculate_stack(self, order, bounds, flags):
        """Set the flags of the whole tests between consecutive ``bounds`` from one kernel call.

        When some union is not positive definite, each test is tried
        alone; one that still fails keeps its zero flags: all single asks.
        """
        got = self._stacked_verdicts(order[bounds[0] : bounds[-1]])
        if got is not None:
            flags[:, bounds[0] : bounds[-1]] = got
        elif len(bounds) > 2:
            for lo, hi in zip(bounds, bounds[1:]):
                self._speculate_stack(order, [lo, hi], flags)

    def _stacked_verdicts(self, order):
        """``(batched, independent)`` flags of the unions in the rows of ``order``, or None.

        ``order`` is a ``(K, m)`` array of node indices, each row a
        union ordered ``base + T + [i, j]`` with ``i < j``.  One stacked
        Cholesky factorization ``L`` of the ``(K, m, m)`` union blocks;
        None when some union is not positive definite.  A union is
        batched when a rigorous lower bound on its 1-norm reciprocal
        condition number reaches ``RCOND_MIN`` with a margin of
        ``RCOND_MARGIN``: then the single query's factorization succeeds
        and its condition estimate, never below the exact value, passes
        the guard.  The bound is ``det(R) min(d) / (e m^2
        max(d))``, with ``d`` the union's diagonal and ``R`` its
        correlation matrix: the 2-norm condition number is at most
        ``max(d) / min(d)`` times that of ``R``, which is below ``e m /
        det(R)`` because the eigenvalues of ``R`` sum to ``m``, and the
        1-norm one is at most ``m`` times the 2-norm one.  A NaN fails
        the bound.  The last two rows of ``L`` end in the factor ``[[p,
        0], [q, r]]`` of the covariance of ``i`` and ``j`` given the
        rest, so ``rho = q / hypot(q, r)``.
        """
        sigma = self.cov.values
        m = order.shape[1]
        blocks = sigma[order[:, :, None], order[:, None, :]]
        try:
            factor = np.linalg.cholesky(blocks)
        except np.linalg.LinAlgError:  # some union is not positive definite
            return None
        d = np.diagonal(blocks, axis1=1, axis2=2)
        det_r = np.multiply.reduce(np.diagonal(factor, axis1=1, axis2=2) ** 2 / d, axis=1)
        spread = np.maximum.reduce(d, axis=1) / np.minimum.reduce(d, axis=1)
        batched = spread * (math.e * m * m * RCOND_MIN * RCOND_MARGIN) <= det_r
        q = factor[:, -1, -2]
        rhos = q / np.hypot(q, factor[:, -1, -1])  # hypot >= |q|, so |rho| <= 1
        _, independent = _fisher_z_statistics(rhos, self._n - m - 1, self.alpha)
        return batched, independent & batched

    def _read_blocks(self, requests):
        n, sigma = self._n, self.cov.values

        def read(sources, cond):  # one source gains nothing; the dof guard raises in _decide
            return len(sources) > 1 and n - len(cond) - 3 > 0

        # per source its part of the stage (0 a union position, 1 a border, 2 a read of an empty cond)
        # and its place in that part; the parts' offsets are known once the stage is read
        parts, places, dofs, counts, marginal_a, marginal_b = [], [], [], [], [], []
        at = [0, 0, 0]  # the next place in each part

        def blocks():
            for b, sources, cond in requests:
                if not read(sources, cond):
                    continue
                dofs.append(n - len(cond) - 3)  # a source outside cond
                counts.append(len(sources))
                if not cond:  # fisher_z_test's read of three covariance entries
                    parts.extend([2] * len(sources))
                    places.extend(range(at[2], at[2] + len(sources)))
                    at[2] += len(sources)
                    marginal_a.extend(sources)
                    marginal_b.extend([b] * len(sources))
                    continue
                order = sorted(cond.union((b,)))
                position = {v: k for k, v in enumerate(order)}
                outside = [a for a in sources if a not in position]
                ranks = itertools.count(at[1])
                parts.extend([0 if a in position else 1 for a in sources])
                places.extend([at[0] + position[a] if a in position else next(ranks) for a in sources])
                at[0] += len(order)
                at[1] += len(outside)
                yield order, position[b], outside

        rhos, flags, _ = _read_stage(sigma, blocks())
        if not parts:
            return [None] * len(requests)
        if marginal_a:
            diagonal = sigma.diagonal()
            ratio = sigma[marginal_a, marginal_b] / np.sqrt(diagonal[marginal_a] * diagonal[marginal_b])
            rhos = np.concatenate((rhos, _clip_unit(ratio)))
            flags = np.concatenate((flags, np.ones(len(marginal_a), dtype=bool)))
        parts = np.array(parts)
        perm = np.array(places) + np.array([0, at[0], at[0] + at[1]])[parts]
        inside = parts == 0  # a source inside cond leaves S one smaller
        z, independent = _fisher_z_statistics(rhos[perm], np.repeat(dofs, counts) + inside, self.alpha)
        flags, independent, z = flags[perm].tolist(), independent.tolist(), z.tolist()

        def entries():  # one request at a time, so that a stage holds no per-request lists
            lo = 0
            for _, sources, cond in requests:
                if not read(sources, cond):
                    yield None
                    continue
                hi = lo + len(sources)
                yield flags[lo:hi], independent[lo:hi], z[lo:hi]
                lo = hi

        return entries()


class RecordingEngine(CiEngine):
    """Wrapper that records every query issued to an inner engine.

    ``records`` lists the queries as ``(i, j, s)`` tuples in call order;
    a fit's ``diagnostics.stage_records`` cuts its own, the last ones,
    into its stages.  Recording hooks :meth:`CiEngine._count`, the one
    point every counted query passes: it records the queries, counts
    them here and in the inner engine, and the inner engine decides
    them.
    """

    def __init__(self, inner):
        super().__init__(inner.n_nodes)
        self.inner = inner
        self.records = []

    @property
    def cov(self):
        """The inner engine's covariance; AttributeError when it has none."""
        return self.inner.cov

    def _count(self, n, queries):
        with self._count_lock:
            self.records.extend(queries())
            self._n_queries += n
            self.inner._count(n, queries)

    def _decide(self, i, j, s):
        return self.inner._decide(i, j, s)

    def _read_blocks(self, requests):
        return self.inner._read_blocks(requests)

    def speculate(self, requests):
        return self.inner.speculate(requests)
