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
is not conclusive.  The README's architecture section describes the
kernel.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpocon, dpotrf, dpotri, dpotrs
from scipy.special import ndtri

from .errors import DegenerateDataError, InsufficientDataError, PodagError, SingularityError
from .graph import _column_labels

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
STACK_ENTRIES = 2**14  # covariance entries per stacked kernel call, unless one test holds more


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


def _factored_pool(sigma, pool, t=None, borders=(), context=None):
    """Partial correlations read off one guarded factorization of the ``pool`` block of ``sigma``.

    The block is factored and inverted to ``Omega`` by
    :func:`_factor_spd`.  Returns ``(inside, outside, kept)``, clipped to
    [-1, 1]:

    - ``inside[k] = rho(pool[k], pool[t] | the rest of the pool) =
      -Omega_kt / sqrt(Omega_kk Omega_tt)`` (None without ``t``; position
      ``t`` reads -1);
    - ``outside[k, c] = rho(pool[k], a | pool - {pool[k]})`` for each
      column ``a = borders[c]`` outside the pool, which borders it: with
      ``W = Sigma_pool^-1 Sigma_pool,a`` (one multi-column ``dpotrs``) and
      ``s_a = Sigma_aa - Sigma_a,pool W``, it is ``W_k / sqrt(s_a
      Omega_kk + W_k^2)``;
    - ``kept[c]``, whether ``s_a`` reaches ``sqrt(RCOND_MIN) Sigma_aa``:
      below it ``pool + [a]`` may be near singular, so the caller asks
      column ``a`` another way.

    Raises :class:`SingularityError` with ``context`` when the block
    fails the guard or ``Omega`` has a non-positive diagonal.
    """
    rows = sigma.take(pool, axis=0)
    factor, omega = _factor_spd(rows.take(pool, axis=1), context)
    if borders:
        cross = rows.take(borders, axis=1)
        solved, _ = dpotrs(factor, cross, lower=1)
        variances = sigma.diagonal()[borders]
        residual = variances - np.einsum("ij,ij->j", cross, solved)
    diag = omega.diagonal()
    if (diag <= 0).any():
        raise SingularityError(context=context)
    inside = outside = kept = None
    if t is not None:
        column = np.concatenate((omega[t, :t], omega[t:, t]))  # the lower triangle's entries (k, t)
        inside = _clip_unit(-column / np.sqrt(diag * diag[t]))
    if borders:
        with np.errstate(invalid="ignore"):  # a negative s_a is below its floor
            outside = _clip_unit(solved / np.sqrt(residual * diag[:, None] + solved * solved))
        kept = residual >= math.sqrt(RCOND_MIN) * variances
    return inside, outside, kept


def _clip_unit(values):
    """``values`` clipped to [-1, 1] in place (NaN stays NaN), as ``np.clip`` would."""
    np.maximum(values, -1.0, out=values)
    return np.minimum(values, 1.0, out=values)


def _bordered_rhos(sigma, pool, targets):
    """rho(k, t | pool - {k}) for every k in the sorted ``pool``, for each t of ``targets``.

    The pool block is factored once and each target borders it
    (:func:`_factored_pool`).  Returns ``{t: rhos}`` in pool order,
    leaving out each target that is not kept; empty when the pool block
    fails the guard.  The values equal :func:`block_partial_correlations`
    up to rounding.
    """
    try:
        _, rhos, kept = _factored_pool(sigma, pool, borders=targets)
    except SingularityError:
        return {}
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


def block_partial_correlations(cov, j, pool):
    """rho(k, j | pool - {k}) for every k in ``pool``, via one factorization.

    The partial correlations of k and j given the rest of the ``pool +
    [j]`` block, read off its precision matrix by :func:`_factored_pool`,
    so a single inversion serves all k.  The values equal per-pair
    :func:`partial_correlation` calls up to rounding.
    """
    pool = [int(v) for v in pool]
    if j in pool:
        raise ValueError("pool must not contain j")
    if not pool:
        return np.zeros(0)
    inside, _, _ = _factored_pool(cov.values, pool + [int(j)], len(pool), context=(j, "pool", tuple(pool)))
    return inside[:-1]


@dataclass(frozen=True)
class CiVerdict:
    """Outcome of one conditional-independence query: the verdict and its test statistic."""

    independent: bool
    statistic: float


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


def _fisher_z_statistics(rhos, dof, alpha):
    """Fisher z statistics of partial correlations ``rhos`` in [-1, 1] and their verdicts.

    ``z = sqrt(dof) * atanh(rho)``, infinite at ``|rho| = 1``, and
    independent iff ``|z| <= Phi^-1(1 - alpha/2)``.  Returns ``(z,
    independent)``.
    """
    with np.errstate(divide="ignore"):
        z = np.sqrt(dof) * np.arctanh(np.asarray(rhos, dtype=float))
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
    source and returns the verdicts as two sequences in source order,
    ``(independent, statistics)``, as the per-source queries would
    answer.  ``_decide_block`` computes them, looping over ``_decide``
    unless an engine shares work across the block.

    At levels 1 and up a skeleton-search test asks the separators ``base
    | T`` of a pair in order until one is independent.  ``speculate``
    looks ahead over many tests without counting; ``_query_first`` walks
    one test from that look-ahead, counting as the loop would.
    """

    def __init__(self):
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
        if i == j or i in s or j in s:
            raise ValueError("i, j and s must be disjoint")
        i, j = min(i, j), max(i, j)
        self._count(1, lambda: [(i, j, s)])
        return self._decide(i, j, s)

    def _query_block(self, b, sources, cond):
        """``(independent, statistics)`` of ``a _||_ b | cond - {a}`` for each ``a`` in ``sources``, in order.

        The same verdicts and count as ``[query(a, b, cond - {a}) for a
        in sources]``, except that a raised error leaves every source
        counted.  Unchecked: ``b`` is an int outside ``sources`` and
        ``cond``, ``sources`` a list of ints and ``cond`` a frozenset.
        """
        self._count(len(sources), lambda: [(min(a, b), max(a, b), cond - {a}) for a in sources])
        return self._decide_block(b, sources, cond)

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

    def _decide_block(self, b, sources, cond):
        verdicts = [self._decide(min(a, b), max(a, b), cond - {a}) for a in sources]
        return [v.independent for v in verdicts], [v.statistic for v in verdicts]


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
    off the precision matrix of the sorted union block ``U = S + {i,
    j}`` (:func:`_factored_pool`).  With S empty it is
    :func:`fisher_z_test`'s.

    A block ``_query_block(b, sources, cond)`` (the level-0 tests of one
    target) needs at most one factorization, of the sorted union ``U =
    cond + {b}`` (:func:`_factored_pool`), and none when ``cond`` is
    empty: then each rho is read off three covariance entries, the bits
    of an empty-S query.  Sources inside ``cond`` (cross candidates) read
    their rhos off the precision matrix of ``U``, the bits of their
    single queries.  Sources outside it (within candidates) border ``U``;
    one whose residual variance given ``U`` falls below
    ``sqrt(RCOND_MIN)`` of its variance, where its union may be near
    singular, is asked as a single query, and so is every source when
    the block holds one source, a source outside ``cond`` would have no
    degrees of freedom (``n - |cond| - 3 <= 0``) or ``U`` fails the
    guard.  In the last case a source inside ``cond``, whose single
    query would factor ``U`` again, goes straight to
    :func:`fisher_z_test`.  The block's verdicts and statistics are
    read as arrays in source order (:meth:`_block_verdicts`), and the
    single queries fill in the sources it did not read.

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
        super().__init__()
        self.alpha = float(alpha)
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if isinstance(source, Dataset) and source.n < 4:
            raise InsufficientDataError("gaussian engine needs n >= 4")
        if isinstance(source, CovMatrix) and source.n is None:
            raise ValueError("a CovMatrix source needs a sample size n")
        self.cov = _covariance(source)
        self._n = source.n

    def _decide(self, i, j, s):
        if s:
            dof = _fisher_z_dof(self._n, len(s))
            order = sorted(s.union((i, j)))
            try:
                rhos, _, _ = _factored_pool(self.cov.values, order, order.index(j))
            except SingularityError:  # fisher_z_test's own solve decides, or raises
                pass
            else:
                return _fisher_z_verdict(rhos[order.index(i)], dof, self.alpha)
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

    def _decide_block(self, b, sources, cond):
        dof = self._n - len(cond) - 3  # outside cond; a source inside leaves S one smaller
        # a failed dof guard raises in _decide; one source gains nothing from a block
        # False: no block was read; None: cond + {b} failed the guard
        got = self._block_verdicts(b, sources, cond, dof) if dof > 0 and len(sources) > 1 else False
        read, independent, statistics = got or (*np.zeros((2, len(sources)), dtype=bool), np.zeros(len(sources)))
        for k in np.flatnonzero(~read).tolist():
            a = sources[k]
            i, j, s = min(a, b), max(a, b), cond - {a}
            if got is None and a in cond:  # its union is cond + {b}, which just failed the guard
                verdict = fisher_z_test(self.cov, self._n, i, j, s, self.alpha)
            else:
                verdict = self._decide(i, j, s)
            independent[k], statistics[k] = verdict.independent, verdict.statistic
        return independent, statistics

    def _block_verdicts(self, b, sources, cond, dof):
        """``(read, independent, z)`` arrays over ``sources``, in order, from at most one factorization.

        ``read`` is False where a source was not read (its union with
        ``cond + {b}`` may be near singular); its other entries are then
        meaningless.  None when ``cond + {b}`` fails the guard.
        """
        sigma = self.cov.values
        nodes = np.array(sources)
        if not cond:  # fisher_z_test's read of three covariance entries
            rhos = _clip_unit(sigma[nodes, b] / np.sqrt(sigma.diagonal()[nodes] * sigma[b, b]))
            read, dofs = np.ones(len(nodes), dtype=bool), dof
        else:
            order = np.array(sorted(cond.union((b,))))
            t = int(np.searchsorted(order, b))
            at = np.searchsorted(order, nodes)
            inside = order[np.minimum(at, len(order) - 1)] == nodes
            outside = ~inside
            try:
                column, bordered, kept = _factored_pool(sigma, order, t, nodes[outside].tolist())
            except SingularityError:
                return None
            rhos, read = np.empty(len(nodes)), inside.copy()
            rhos[inside] = column[at[inside]]
            if kept is not None:
                rhos[outside], read[outside] = bordered[t], kept
            dofs = np.where(inside, dof + 1, dof)
        z, independent = _fisher_z_statistics(rhos, dofs, self.alpha)
        return read, independent, z


class RecordingEngine(CiEngine):
    """Wrapper that records every query issued to an inner engine.

    Records ``(i, j, s, phase)`` tuples in call order; ``phase`` is a
    caller-controlled tag (e.g. "screen", "search", "orient").  Recording
    hooks :meth:`CiEngine._count`, the one point every counted query
    passes: it records the queries, counts them here and in the inner
    engine, and the inner engine decides them.
    """

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.records = []
        self.phase = "search"

    @property
    def cov(self):
        """The inner engine's covariance; AttributeError when it has none."""
        return self.inner.cov

    def _count(self, n, queries):
        with self._count_lock:
            self.records.extend((i, j, s, self.phase) for i, j, s in queries())
            self._n_queries += n
            self.inner._count(n, queries)

    def _decide(self, i, j, s):
        return self.inner._decide(i, j, s)

    def _decide_block(self, b, sources, cond):
        return self.inner._decide_block(b, sources, cond)

    def speculate(self, requests):
        return self.inner.speculate(requests)

    def tuples(self, phases=None):
        """Recorded (i, j, s) tuples, optionally filtered by phase tags."""
        if phases is None:
            return [(i, j, s) for i, j, s, _ in self.records]
        phases = set(phases)
        return [(i, j, s) for i, j, s, ph in self.records if ph in phases]

