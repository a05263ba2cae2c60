"""Datasets, covariance, partial correlations, and conditional-independence tests.

Two interchangeable test engines implement the same contract: a Gaussian
sample test (Fisher z on partial correlations) and a population
d-separation oracle.  Engines are deterministic and keep an exact count
of queries.  Every query is decided afresh: a fit rarely asks the same
question twice, so verdicts are not kept.

The CI-test kernel is kept lean because a fit makes thousands of tests.
A covariance block is factored with one LAPACK ``dpotrf`` call and
rejected when ``dpocon`` estimates its reciprocal condition number below
``RCOND_MIN``.  :func:`partial_correlation` solves the conditioning
block with ``dpotrs``; a block precision matrix (``dpotri``) serves
every partial correlation of one block at once: all of a screening pool
in :func:`block_partial_correlations`, and the Gaussian engine's query
on its conditioning union ``S + {i, j}``.  A block of queries
(:meth:`CiEngine.query_block`, the level-0 tests of one search target)
takes at most two factorizations in the Gaussian engine, with an exact
fallback to single queries (see :class:`GaussianEngine`).  A test of
the search at level 1 and up asks its separators in one call
(:meth:`CiEngine.query_first`), which returns the first that separates
and counts the prefix a one-at-a-time loop would ask; the Gaussian
engine answers it from one stacked Cholesky factorization of all the
unions, and asks a union that is not provably well conditioned as a
single query.
The Fisher z test reads its threshold
``Phi^-1(1 - alpha/2)`` from a per-alpha cache and its two-sided p-value
from ``2 Phi(-|z|)``, both straight from the ``scipy.special`` ufuncs
``ndtri`` and ``ndtr``.  These are the values a frozen normal
distribution object returns, bit for bit, without its per-call argument
handling or its import cost.
"""

from __future__ import annotations

import functools
import io
import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpocon, dpotrf, dpotri, dpotrs
from scipy.special import ndtr, ndtri

from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    LabelMismatchError,
    SingularityError,
)

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
    "block_partial_correlations",
    "fisher_z_test",
    "fisher_z_threshold",
]

RCOND_MIN = 1e-12  # reciprocal condition number below this raises SingularityError
RCOND_MARGIN = 1e3  # a stacked union needs an exact reciprocal condition number this far above it
STACK_SIZE = 256  # unions per stacked kernel call in GaussianEngine.query_first


def _column_labels(labels, m):
    """The labels of ``m`` columns as strings, ``V0, V1, ...`` by default.

    Raises :class:`LabelMismatchError` naming the labels that repeat.
    """
    if labels is None:
        labels = [f"V{i}" for i in range(m)]
    if len(labels) != m:
        raise ValueError("labels must have one entry per column")
    labels = tuple(str(x) for x in labels)
    if len(set(labels)) != m:
        raise LabelMismatchError({x for x in labels if labels.count(x) > 1}, "duplicate column labels")
    return labels


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

    ``labels`` name the columns, as in :class:`Dataset`.
    """

    def __init__(self, values, n=None, labels=None):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError("covariance must be square")
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
    """
    cov = sample_covariance(dataset)
    r = np.abs(np.triu(_correlation(cov.values), k=1))
    pairs = np.argwhere(1.0 - r < RCOND_MIN * (1.0 + r))
    if len(pairs):
        a, b = (dataset.labels[v] for v in pairs[0])
        raise DegenerateDataError(f"columns {a} and {b} are collinear; drop one of them")
    error = _dependence_error(cov, range(dataset.m), spare=2) if dataset.n > dataset.m else None
    if error is not None:
        raise error
    return cov


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
    """Cholesky-factor a conditioning block, guarding its conditioning.

    Returns the lower factor as LAPACK leaves it (the strict upper
    triangle is not cleared).  Raises :class:`SingularityError` when the
    block is not positive definite or its reciprocal condition number
    (LAPACK 1-norm estimate) falls below ``RCOND_MIN``.
    """
    factor, info = dpotrf(block, lower=1, clean=0)
    if info != 0:
        raise SingularityError(context=context)
    anorm = float(np.abs(block).sum(axis=0).max())
    rcond, info = dpocon(factor, anorm, uplo=b"L")
    if info != 0 or rcond < RCOND_MIN:
        raise SingularityError(context=context)
    return factor


def _block_precision(sigma, idx, context):
    """Precision matrix of the ``idx`` block of ``sigma``, lower triangle only.

    One guarded factorization (:func:`_factor_spd`, which raises
    :class:`SingularityError` with ``context``) and its LAPACK ``dpotri``
    inverse.  The strict upper triangle holds no part of the result.
    """
    factor = _factor_spd(sigma.take(idx, axis=0).take(idx, axis=1), context)
    omega, info = dpotri(factor, lower=1, overwrite_c=1)
    if info != 0:
        raise SingularityError(context=context)
    return omega


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
        factor = _factor_spd(rows.take(idx, axis=1), context=(i, j, tuple(s)))
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


def block_partial_correlations(cov, j, pool):
    """rho(k, j | pool - {k}) for every k in ``pool``, via one factorization.

    The partial correlation of k and j given the rest of the block equals
    ``-Omega_kj / sqrt(Omega_kk Omega_jj)`` on the precision matrix of the
    ``pool + [j]`` block, so a single inversion serves all k.  The values
    equal per-pair :func:`partial_correlation` calls up to rounding.
    """
    pool = [int(v) for v in pool]
    if j in pool:
        raise ValueError("pool must not contain j")
    if not pool:
        return np.zeros(0)
    context = (j, "pool", tuple(pool))
    omega = _block_precision(cov.values, pool + [int(j)], context)
    diag = np.diag(omega)
    if np.any(diag <= 0):
        raise SingularityError(context=context)
    rhos = -omega[-1, :-1] / np.sqrt(diag[:-1] * diag[-1])
    return np.clip(rhos, -1.0, 1.0)


@dataclass(frozen=True)
class CiVerdict:
    """Outcome of one conditional-independence query."""

    independent: bool
    statistic: float
    p_value: float | None = None


@functools.lru_cache(maxsize=64)
def fisher_z_threshold(alpha):
    """Two-sided standard-normal critical value ``Phi^-1(1 - alpha/2)``."""
    return float(ndtri(1.0 - alpha / 2.0))


def _fisher_z_dof(n, size):
    """Degrees of freedom ``n - size - 3`` of a test conditioning on ``size`` nodes."""
    dof = n - size - 3
    if dof <= 0:
        raise InsufficientDataError(f"fisher z needs n - |s| - 3 > 0 (n={n}, |s|={size})")
    return dof


def _fisher_z_verdict(rho, dof, alpha):
    """The Fisher z verdict on one partial correlation ``rho`` in [-1, 1]."""
    if abs(rho) >= 1.0:
        return CiVerdict(independent=False, statistic=np.inf if rho > 0 else -np.inf, p_value=0.0)
    z = float(np.sqrt(dof) * np.arctanh(rho))
    return CiVerdict(
        independent=abs(z) <= fisher_z_threshold(alpha),
        statistic=z,
        p_value=float(2.0 * ndtr(-abs(z))),
    )


def _fisher_z_statistics(rhos, dof, alpha):
    """Fisher z statistics of partial correlations ``rhos`` in [-1, 1] and their verdicts.

    The array form of :func:`_fisher_z_verdict`: ``z = sqrt(dof) *
    atanh(rho)``, infinite at ``|rho| = 1``, and independent iff ``|z| <=
    Phi^-1(1 - alpha/2)``.  Returns ``(z, independent)``.
    """
    with np.errstate(divide="ignore"):
        z = np.sqrt(dof) * np.arctanh(np.asarray(rhos, dtype=float))
    return z, np.abs(z) <= fisher_z_threshold(alpha)


def fisher_z_test(cov, n, i, j, s, alpha):
    """Fisher z test of zero partial correlation.

    ``z = sqrt(n - |s| - 3) * atanh(rho)``; the verdict is independent iff
    ``|z| <= Phi^-1(1 - alpha/2)``.  The p-value is two-sided.

    Raises
    ------
    InsufficientDataError
        If the effective degrees of freedom ``n - |s| - 3`` are not positive.
    """
    s = sorted(set(map(int, s)))
    dof = _fisher_z_dof(n, len(s))
    return _fisher_z_verdict(partial_correlation(cov, i, j, s), dof, alpha)


class CiEngine:
    """Contract for pluggable conditional-independence tests.

    Subclasses implement ``_decide(i, j, s)``, which receives ``i < j``
    and a frozenset ``s``.  ``query`` normalizes and validates its
    arguments, counts the query, and asks ``_decide``; the counter
    measures the logical tests performed by the algorithms driving the
    engine, repeats included.  Engines are safe to share across threads.

    ``query_block(b, sources, cond)`` asks ``a _||_ b | cond - {a}`` for
    every ``a`` in ``sources`` at once: the level-0 tests of one target
    in the skeleton search.  It counts one query per source and answers
    as the per-source queries would; ``_decide_block`` loops over
    ``_decide`` unless an engine shares work across the block.

    ``query_first(a, b, base, subsets)`` asks the separators ``base | T``
    of one skeleton-search test in order and stops at the first
    independent one: it counts index + 1 queries, or all of them, as the
    sequential loop would.  ``_decide_first`` is that loop over
    ``_decide`` unless an engine decides several separators at once.
    """

    def __init__(self):
        self._count_lock = threading.Lock()
        self._n_queries = 0

    @property
    def n_queries(self):
        return self._n_queries

    def _count(self, n):
        with self._count_lock:
            self._n_queries += n

    def query(self, i, j, s=()):
        i, j = int(i), int(j)
        s = frozenset(map(int, s))
        if i == j or i in s or j in s:
            raise ValueError("i, j and s must be disjoint")
        self._count(1)
        return self._decide(min(i, j), max(i, j), s)

    def query_block(self, b, sources, cond):
        """Verdicts of ``a _||_ b | cond - {a}`` for each ``a`` in ``sources``, in order.

        The same verdicts and count as ``[query(a, b, cond - {a}) for a
        in sources]``, except that a raised error leaves every source
        counted.
        """
        b = int(b)
        sources = [int(a) for a in sources]
        cond = frozenset(map(int, cond))
        if b in cond or b in sources:
            raise ValueError("b must lie outside sources and cond")
        self._count(len(sources))
        return self._decide_block(b, sources, cond)

    def query_first(self, a, b, base, subsets):
        """Index of the first ``T`` in ``subsets`` for which ``base | T`` separates ``a`` and ``b``.

        None when none does.  The same answer, count and errors as asking
        ``query(a, b, base | T)`` for each ``T`` in order until the first
        independent verdict.  ``subsets`` are tuples of distinct nodes
        outside ``base`` and ``{a, b}``.
        """
        a, b = int(a), int(b)
        base = frozenset(map(int, base))
        subsets = list(subsets)
        members = set().union(*subsets)
        if a == b or not {a, b}.isdisjoint(base.union(members)) or not base.isdisjoint(members):
            raise ValueError("a, b, base and each T must be disjoint")
        return self._decide_first(min(a, b), max(a, b), base, subsets, self._count)

    def _decide(self, i, j, s):
        raise NotImplementedError

    def _decide_block(self, b, sources, cond):
        return [self._decide(min(a, b), max(a, b), cond - {a}) for a in sources]

    def _decide_first(self, i, j, base, subsets, count):
        # count(n) counts the next n separators, before any of them is decided
        for k, t in enumerate(subsets):
            count(1)
            if self._decide(i, j, base.union(t)).independent:
                return k
        return None


class OracleEngine(CiEngine):
    """Population oracle: independent iff d-separated in the given DAG."""

    def __init__(self, dag):
        super().__init__()
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

    A query ``(i, j | S)`` with S non-empty reads its partial correlation
    off the precision matrix of the union block ``U = S + {i, j}``:
    ``rho = -Omega_ij / sqrt(Omega_ii Omega_jj)``.  With S empty it reads
    the correlation off three covariance entries, with
    :func:`partial_correlation`'s formula and operation order, so the
    same bits.

    A block ``query_block(b, sources, cond)`` (the level-0 tests of one
    target) needs at most two factorizations.  Sources inside ``cond``
    (cross candidates) share the union ``cond + {b}`` and read their rho
    off its precision matrix, exactly as single queries do.  Sources
    outside it (within candidates, each conditioning on ``cond`` itself)
    take :func:`partial_correlation`'s Schur complement on one factored
    ``Sigma_cond``, batched; a source whose residual variance given the
    rest of its union falls below ``sqrt(RCOND_MIN)`` of its variance,
    where its union may be near singular, is asked as a single query.

    A test ``query_first(a, b, base, subsets)`` (one test of the search
    at level 1 and up) takes one stacked Cholesky factorization of the
    unions ``base + T + {a, b}``, up to ``STACK_SIZE`` at a time (see
    :meth:`_stacked_verdicts`).  A union that is not provably a block
    the single query accepts, positive definite with a reciprocal
    condition number ``RCOND_MARGIN`` times above ``RCOND_MIN``, is asked
    as a single query in its place in the order.  A test with fewer than
    two separators, or whose degrees-of-freedom guard fails, is asked
    one separator at a time.

    Everything else is :func:`fisher_z_test`'s: its degrees-of-freedom
    guard fires before any factoring, and a union block that fails the
    singularity guard falls back to it exactly, so errors (with their
    ``(i, j, S)`` context) and verdicts on rank-deficient data are its
    own.  Statistics may differ from it in the last bits.
    """

    def __init__(self, source, alpha=0.05):
        super().__init__()
        self.alpha = float(alpha)
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if isinstance(source, Dataset):
            if source.n < 4:
                raise InsufficientDataError("gaussian engine needs n >= 4")
            self.cov = _checked_covariance(source)
        elif isinstance(source, CovMatrix):
            if source.n is None:
                raise ValueError("a CovMatrix source needs a sample size n")
            self.cov = source
        else:
            raise TypeError("source must be a Dataset or CovMatrix")
        self._n = source.n

    def _union_precision(self, union):
        """``(positions, Omega)`` of a union's precision matrix, or None when it is singular."""
        idx = sorted(union)
        try:
            omega = _block_precision(self.cov.values, idx, context=None)
        except SingularityError:
            return None
        return {v: pos for pos, v in enumerate(idx)}, omega

    def _decide(self, i, j, s):
        dof = _fisher_z_dof(self._n, len(s))
        if not s:
            # partial_correlation's formula and operation order, so the same
            # bits; a CovMatrix has a positive diagonal
            sigma = self.cov.values
            rho = sigma.item(i, j) / math.sqrt(sigma.item(i, i) * sigma.item(j, j))
            return _fisher_z_verdict(min(max(rho, -1.0), 1.0), dof, self.alpha)
        union = self._union_precision(s.union((i, j)))
        if union is None:
            return fisher_z_test(self.cov, self._n, i, j, s, self.alpha)
        positions, omega = union
        a, b = positions[i], positions[j]  # a < b: Omega's lower triangle holds (b, a)
        rho = -omega.item(b, a) / math.sqrt(omega.item(a, a) * omega.item(b, b))
        return _fisher_z_verdict(min(max(rho, -1.0), 1.0), dof, self.alpha)

    def _decide_first(self, i, j, base, subsets, count):
        level = len(subsets[0]) if subsets else 0
        dof = self._n - len(base) - level - 3
        if len(subsets) < 2 or dof <= 0 or len(set(map(len, subsets))) > 1:
            # nothing to share, or the degrees-of-freedom guard raises at once
            return super()._decide_first(i, j, base, subsets, count)
        base_order = sorted(base)
        asked = 0
        for start in range(0, len(subsets), STACK_SIZE):
            chunk = subsets[start : start + STACK_SIZE]
            batched, independent = self._stacked_verdicts(i, j, base_order, chunk, dof)
            # the unions that are independent or must be asked alone, in order
            for k in np.flatnonzero(independent | ~batched).tolist():
                count(start + k + 1 - asked)
                asked = start + k + 1
                if batched[k] or self._decide(i, j, base.union(chunk[k])).independent:
                    return start + k
        count(len(subsets) - asked)
        return None

    def _stacked_verdicts(self, i, j, base, subsets, dof):
        """``(batched, independent)`` flags of the unions ``base + T + [i, j]`` of ``subsets``.

        One stacked Cholesky factorization ``L`` of the ``(K, m, m)``
        union blocks, each ordered ``base + T + [i, j]``; when some union
        is not positive definite, none is batched.  A union is batched
        when a rigorous lower bound on its 1-norm reciprocal condition
        number reaches ``RCOND_MIN`` with a margin of ``RCOND_MARGIN``:
        then the single query's factorization succeeds and its condition
        estimate, never below the exact value, passes the guard.  The
        bound is ``det(R) min(d) / (e m^2 max(d))``, with ``d`` the
        union's diagonal and ``R`` its correlation matrix: the 2-norm
        condition number is at most ``max(d) / min(d)`` times that of
        ``R``, which is below ``e m / det(R)`` because the eigenvalues of
        ``R`` sum to ``m``, and the 1-norm one is at most ``m`` times the
        2-norm one.  A NaN fails the bound.  The last two rows of ``L``
        end in the factor ``[[p, 0], [q, r]]`` of the covariance of ``i``
        and ``j`` given the rest, so ``rho = q / hypot(q, r)``.
        """
        order = np.array([(*base, *t, i, j) for t in subsets], dtype=np.intp)
        blocks = self.cov.values[order[:, :, None], order[:, None, :]]
        try:
            factor = np.linalg.cholesky(blocks)
        except np.linalg.LinAlgError:  # some union is not positive definite
            nothing = np.zeros(len(subsets), dtype=bool)
            return nothing, nothing
        m = order.shape[1]
        d = np.diagonal(blocks, axis1=1, axis2=2)
        det_r = np.multiply.reduce(np.diagonal(factor, axis1=1, axis2=2) ** 2 / d, axis=1)
        spread = np.maximum.reduce(d, axis=1) / np.minimum.reduce(d, axis=1)
        batched = spread * (math.e * m * m * RCOND_MIN * RCOND_MARGIN) <= det_r
        q = factor[:, -1, -2]
        rhos = q / np.hypot(q, factor[:, -1, -1])  # hypot >= |q|, so |rho| <= 1
        _, independent = _fisher_z_statistics(rhos, dof, self.alpha)
        return batched, independent & batched

    def _decide_block(self, b, sources, cond):
        inside = [a for a in sources if a in cond]
        outside = [a for a in sources if a not in cond]
        verdicts = {}
        dof = self._n - len(cond) - 3  # outside cond; a source inside leaves S one smaller
        # a single source, or S empty, gains nothing from the block; a
        # failed degrees-of-freedom guard raises in _decide
        if len(inside) > 1 and dof + 1 > 0:
            verdicts.update(self._inside_block(b, inside, cond, dof + 1))
        if len(outside) > 1 and cond and dof > 0:
            verdicts.update(self._outside_block(b, outside, cond, dof))
        return [
            verdicts[a] if a in verdicts else self._decide(min(a, b), max(a, b), cond - {a})
            for a in sources
        ]

    def _inside_block(self, b, sources, cond, dof):
        """Verdicts for sources in ``cond``, off the precision matrix of ``cond + {b}``."""
        union = self._union_precision(cond.union((b,)))
        if union is None:
            return {}
        positions, omega = union
        at = np.array([positions[a] for a in sources])
        bt = positions[b]
        # Omega's lower triangle holds (max, min); the rho of each pair is
        # computed as in _decide, so it is bit-identical
        off = omega[np.maximum(at, bt), np.minimum(at, bt)]
        diag = np.diagonal(omega)
        rhos = np.clip(-off / np.sqrt(diag[at] * diag[bt]), -1.0, 1.0)
        return self._verdicts(sources, rhos, dof)

    def _outside_block(self, b, sources, cond, dof):
        """Verdicts for sources outside ``cond``, from one factorization of ``Sigma_cond``."""
        sigma = self.cov.values
        idx = sorted(cond)
        rows = sigma.take(idx, axis=0)
        try:
            factor = _factor_spd(rows.take(idx, axis=1), context=None)
        except SingularityError:
            return {}
        members = sources + [b]
        cross = rows.take(members, axis=1)
        solved, _ = dpotrs(factor, cross, lower=1)
        # residual variances and covariances given cond, as partial_correlation
        variances = np.diagonal(sigma)[members]
        residual = variances - np.einsum("ij,ij->j", cross, solved)
        d = sigma[sources, b] - cross[:, :-1].T @ solved[:, -1]
        with np.errstate(invalid="ignore", divide="ignore"):
            rhos = d / np.sqrt(residual[:-1] * residual[-1])
            # a small residual variance given the rest of the union (of a
            # source or of b) means the union may fail the singularity guard
            shrink = 1.0 - rhos * rhos
            floor = math.sqrt(RCOND_MIN) * variances
            ok = (residual[:-1] * shrink >= floor[:-1]) & (residual[-1] * shrink >= floor[-1])
        kept = [a for a, flag in zip(sources, ok) if flag]
        return self._verdicts(kept, np.clip(rhos[ok], -1.0, 1.0), dof)

    def _verdicts(self, sources, rhos, dof):
        z, independent = _fisher_z_statistics(rhos, dof, self.alpha)
        p_values = 2.0 * ndtr(-np.abs(z))
        return {
            a: CiVerdict(independent=bool(ind), statistic=float(stat), p_value=float(p))
            for a, ind, stat, p in zip(sources, independent, z, p_values)
        }


class RecordingEngine(CiEngine):
    """Wrapper that records every query issued to an inner engine.

    Records ``(i, j, s, phase)`` tuples in call order; ``phase`` is a
    caller-controlled tag (e.g. "screen", "search", "orient").
    """

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.records = []
        self.phase = "search"
        self._records_lock = threading.Lock()

    def _decide(self, i, j, s):
        with self._records_lock:
            self.records.append((i, j, s, self.phase))
        return self.inner.query(i, j, s)

    def _decide_block(self, b, sources, cond):
        with self._records_lock:
            self.records.extend((min(a, b), max(a, b), cond - {a}, self.phase) for a in sources)
        return self.inner.query_block(b, sources, cond)

    def _decide_first(self, i, j, base, subsets, count):
        asked = 0

        def count_and_record(n):
            nonlocal asked
            count(n)
            self.inner._count(n)
            with self._records_lock:
                self.records.extend((i, j, base.union(t), self.phase) for t in subsets[asked : asked + n])
            asked += n

        return self.inner._decide_first(i, j, base, subsets, count_and_record)

    def tuples(self, phases=None):
        """Recorded (i, j, s) tuples, optionally filtered by phase tags."""
        if phases is None:
            return [(i, j, s) for i, j, s, _ in self.records]
        phases = set(phases)
        return [(i, j, s) for i, j, s, ph in self.records if ph in phases]

