"""Pearson correlation, Monte Carlo exact permutation tests, classification.

Determinism contract: every stochastic routine is a pure function of its
inputs and an explicit integer seed. Resample ``i`` is row ``i`` of a single
counter-based (Philox) stream keyed by the seed, drawn in fixed chunks of
rows; a p-value table applies the same rows to every pair (no seed is
derived per pair), so its entries are dependent across pairs. Statistics
are cross products of scale-centred columns c = n*x - sum(x), and a
chunk's null statistics are one batched matrix product. When the shifted
columns y = x - min(x) are integers that give c = n*y - sum(y), and the
squares of c sum below 2**53, that product goes to BLAS over y: the null
is n*(n*T - sum(y_i)*sum(y_j)) with T = y_i'y_j[pi], rebuilt in int64.
Every product and partial sum of T is an integer no larger than T, and
T <= sqrt(sum(y_i**2) * sum(y_j**2)) (Cauchy-Schwarz). That is at most
n*max(y)**2, so float32 holds T exactly while that stays below 2**24,
and float64 does always, since sum(y**2) <= sum(c**2) < 2**53. So T is
exact whatever order, blocking or thread split BLAS uses, and observed
and permuted values tie where integers do; n*T and sum(y_i)*sum(y_j)
stay below 2**54, so int64 holds the rebuild. Profiles of 0-6 scores
qualify for n < 100,000, since sum(c**2) <= 9*n**3 < 2**53, and there
always use float32, since 36*n < 2**24. Other input is reduced over c
by einsum, whose order does not depend on BLAS/OpenMP thread settings,
and carries a relative tie tolerance of 100 eps. So results are
bit-identical across runs and thread settings.

The exceedance counts cover every column, constant ones too; a p-value
table masks each pair that touches a constant column as undefined (NaN).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Sequence

import numpy as np

from .errors import DatasetError, UndefinedCorrelationError
from .profiles import ProfileDataset
from .taxonomy import CapabilityId

__all__ = [
    "CorrelationMatrix",
    "PermutationTestResult",
    "CorrelationStrength",
    "pearson",
    "profile_matrix",
    "correlation_matrix",
    "permutation_test",
    "pairwise_permutation_pvalues",
    "classify_correlation",
]

_CHUNK = 32  # resample rows drawn, argsorted and applied at a time


def _as_vector(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected 1-d vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("vector holds a non-finite value")
    return arr


def _check_pair(x: np.ndarray, y: np.ndarray) -> None:
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("need at least 2 observations")
    if np.ptp(x) == 0:
        raise UndefinedCorrelationError("first vector is constant")
    if np.ptp(y) == 0:
        raise UndefinedCorrelationError("second vector is constant")


def pearson(x, y) -> float:
    """Product-moment correlation of two equal-length vectors.

    Raises UndefinedCorrelationError when either vector is constant.
    """
    x, y = _as_vector(x), _as_vector(y)
    _check_pair(x, y)
    return float(_correlations(np.column_stack((x, y)))[0, 1])


def _centred_products(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale-centred columns c = n*x - sum(x) and their cross-product matrix c'c.

    A constant column centres to exactly 0, which n*x - sum(x) in floats need not give (x = 0.1, n = 70).
    """
    centred = len(data) * data - data.sum(axis=0)
    centred[:, np.ptp(data, axis=0) == 0] = 0.0
    return centred, np.einsum("ki,kj->ij", centred, centred, optimize=False)


def _correlations(data: np.ndarray) -> np.ndarray:
    """Pearson matrix of the columns; cells touching a constant column are NaN."""
    products = _centred_products(data)[1]
    sums = np.diag(products)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.clip(products / np.sqrt(np.outer(sums, sums)), -1.0, 1.0)
    r = np.triu(r) + np.triu(r, 1).T
    constant = np.ptp(data, axis=0) == 0
    r[constant] = r[:, constant] = np.nan
    return r


@dataclass(frozen=True)
class CorrelationMatrix:
    """Square symmetric correlation matrix over an ordered id list.

    Cells touching a constant column are undefined and stored as NaN. The
    diagonal is 1 exactly where the column is non-constant.
    """

    ids: tuple[CapabilityId, ...]
    r: np.ndarray

    def __post_init__(self):
        if self.r.shape != (len(self.ids), len(self.ids)):
            raise ValueError("matrix shape does not match id list")

    def undefined_ids(self) -> list[CapabilityId]:
        return [cap for i, cap in enumerate(self.ids) if np.isnan(self.r[i, i])]

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["id"] + [str(c) for c in self.ids])
        for cap, row in zip(self.ids, self.r):
            writer.writerow([str(cap)] + ["" if np.isnan(value) else f"{value:.6f}" for value in row])
        return buffer.getvalue()


def profile_matrix(dataset: ProfileDataset, ids: Sequence[CapabilityId]) -> np.ndarray:
    """Profiles x ids float matrix; every profile must be complete over ``ids``.

    Both table functions below accept this matrix in place of the dataset,
    so a caller that needs both builds it once.
    """
    wanted = set(ids)
    for profile in dataset:
        if not profile.values.keys() >= wanted:
            names = ", ".join(str(m) for m in profile.missing_from(ids))
            raise DatasetError(f"profile {profile.agent_id}/{profile.phase.value} incomplete over ids: {names}")
    return np.array([[profile.values[cap] for cap in ids] for profile in dataset], dtype=float)


def _data_matrix(dataset: ProfileDataset | np.ndarray, ids: tuple[CapabilityId, ...]) -> np.ndarray:
    """The dataset's ``profile_matrix``; either must hold at least 2 profiles, finite, one column per id.

    A dataset without profiles gives a matrix of shape (0,), so the row
    count is checked before the shape; a 0-d array fails the shape check.
    """
    data = dataset if isinstance(dataset, np.ndarray) else profile_matrix(dataset, ids)
    if data.ndim and len(data) < 2:
        raise DatasetError(f"need at least 2 profiles, got {len(data)}")
    if data.ndim != 2 or data.shape[1] != len(ids):
        raise ValueError(f"profile matrix of shape {data.shape} does not have one column per id ({len(ids)})")
    if not np.isfinite(data).all():
        raise ValueError("profile matrix holds a non-finite value")
    return data


def correlation_matrix(dataset: ProfileDataset | np.ndarray, ids: Sequence[CapabilityId]) -> CorrelationMatrix:
    """Pairwise Pearson matrix over profile columns.

    The dataset must already be filtered: every profile complete over
    ``ids``; it may also be given as its ``profile_matrix``. Constant
    columns yield recorded-undefined (NaN) cells rather than propagating
    through. Symmetric by construction (upper triangle mirrored).
    """
    ids = tuple(ids)
    data = _data_matrix(dataset, ids)
    return CorrelationMatrix(ids=ids, r=_correlations(data))


@dataclass(frozen=True)
class PermutationTestResult:
    statistic: float
    p_value: float

    def __post_init__(self):
        if not 0.0 < self.p_value <= 1.0:
            raise ValueError(f"p_value {self.p_value} outside (0, 1]")


def _exceedances(data: np.ndarray, n_resamples: int, seed: int) -> np.ndarray:
    """Resamples b[i, j], i < j, whose statistic reaches pair (i, j)'s observed one.

    The statistic is |sum(c_i * c_j)| over scale-centred columns; the null
    permutes column j. Every pair sees the same rows: row r is the stable
    argsort of row r of the Philox stream keyed by ``seed``, so it depends
    on (seed, r) only. A null within scipy's relative tolerance of 100 eps
    below the observed value counts as reaching it. Every column is
    counted: a constant one's nulls and observed value are all 0, so its
    count is n_resamples, and the p-value table masks it as undefined.

    On integer scores the product gathers the shifted scores y = x - min(x),
    in float32 when max(y)**2 * n < 2**24 and in float64 otherwise, and
    the nulls are rebuilt from y exactly (see the module docstring); the
    counts equal those of the product over c. Other input multiplies c.
    """
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be >= 1, got {n_resamples}")
    centred, products = _centred_products(data)
    observed = np.abs(products)
    reach = observed - 100 * np.finfo(float).eps * observed  # scipy's tie tolerance
    n, width = centred.shape
    shifted = data - data.min(axis=0)
    sums = shifted.sum(axis=0)
    exact = (
        np.array_equal(shifted, np.rint(shifted))
        and np.array_equal(centred, n * shifted - sums)
        and observed.diagonal().max(initial=0) < 2.0**53
    )
    # columns are stored column-major (order="F"): at 430 x 22 one call took 15.0 ms on 1,000 integer
    # resamples and 16.3 ms on 200 float ones, against 15.9 and 35.2 ms on row-major columns
    if exact:
        # y reproduces c exactly, so the rebuilt null of the identity row is the observed value;
        # every partial sum of T = y'y[pi] is an integer of at most n * max(y)**2, and below 2**53
        columns = shifted.astype(np.float32 if shifted.max(initial=0) ** 2 * n < 2**24 else np.float64, order="F")
        cross = np.outer(sums.astype(np.int64), sums.astype(np.int64))
        null = lambda permuted: n * (n * np.matmul(columns.T, permuted).astype(np.int64) - cross)
    else:
        columns = centred.astype(float, order="F")
        null = partial(np.einsum, "in,rnj->rij", columns.T, optimize=False)
    counts = np.zeros((width, width), dtype=np.int64)
    # every chunk gathers into one buffer, since a fresh array per chunk raises peak RSS; take fills
    # it in place only in mode "clip" (the default mode buffers), and argsort's indices are in range
    buffer = np.empty((min(_CHUNK, n_resamples), n, width), dtype=columns.dtype)
    bits = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    for start in range(0, n_resamples if width > 1 else 0, _CHUNK):  # no pair: draw nothing
        keys = bits.random((min(_CHUNK, n_resamples - start), n))
        perms = np.argsort(keys, axis=1)  # the stable order in every row without a tied key
        # a stable sort of every row costs 3x this tie check (430 against 141 µs per chunk at n = 430)
        ordered = np.take_along_axis(keys, perms, axis=1)
        tied = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        perms[tied] = np.argsort(keys[tied], axis=1, kind="stable")
        permuted = np.take(columns, perms, axis=0, out=buffer[: len(perms)], mode="clip")
        nulls = null(permuted)  # [r, i, j]: pair (i, j) under row r
        counts += np.count_nonzero(np.abs(nulls) >= reach, axis=0)
    return np.triu(counts, 1)


def permutation_test(x, y, n_resamples: int = 10_000, seed: int = 0) -> PermutationTestResult:
    """Two-sided Monte Carlo exact test of association via Pearson r.

    The observed statistic is pearson(x, y); the null distribution permutes
    y. The p-value uses the add-one rule p = (b + 1) / (m + 1) with
    b = #{resamples with |r| >= |observed|}, so p is never exactly zero.
    Ties count: exactly on integer scores, and on float input within
    scipy's relative tolerance of 100 eps below |observed|.
    """
    x, y = _as_vector(x), _as_vector(y)
    statistic = pearson(x, y)
    b = int(_exceedances(np.column_stack((x, y)), n_resamples, seed)[0, 1])
    return PermutationTestResult(statistic, (b + 1) / (n_resamples + 1))


def pairwise_permutation_pvalues(
    dataset: ProfileDataset | np.ndarray,
    ids: Sequence[CapabilityId],
    n_resamples: int = 10_000,
    seed: int = 0,
) -> CorrelationMatrix:
    """Permutation p-values for every id pair, in correlation-matrix shape.

    All pairs share the run's resample rows (no seed is derived per pair),
    so entry (i, j) equals ``permutation_test(column i, column j,
    n_resamples, seed)`` exactly, and entries are dependent across pairs.
    Pairs touching a constant column are undefined (NaN). The dataset may
    also be given as its ``profile_matrix``.
    """
    ids = tuple(ids)
    data = _data_matrix(dataset, ids)
    exceed = _exceedances(data, n_resamples, seed)
    live = np.ptp(data, axis=0) > 0
    defined = np.outer(live, live) & ~np.eye(len(ids), dtype=bool)
    p = np.where(defined, (exceed + exceed.T + 1) / (n_resamples + 1), np.nan)
    return CorrelationMatrix(ids=ids, r=p)


class CorrelationStrength(str, Enum):
    WEAK = "weak"
    MODERATE = "moderate"
    STRONG = "strong"


def classify_correlation(r: float) -> CorrelationStrength:
    """weak: |r| < 0.4; moderate: 0.4 <= |r| < 0.8; strong: |r| >= 0.8."""
    if not abs(r) <= 1.0:
        raise ValueError(f"|r| must be <= 1, got {r}")
    magnitude = abs(r)
    if magnitude < 0.4:
        return CorrelationStrength.WEAK
    if magnitude < 0.8:
        return CorrelationStrength.MODERATE
    return CorrelationStrength.STRONG
