"""Dense symmetric-matrix algebra: sample covariance, the Cholesky factor and
Gaussian NLL of a model, the convex blend, the Frobenius norm, and the CSV carriers.

Everything here is immutable after construction and every operation is pure,
so concurrent callers need no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

# Relative pivot below which a Cholesky factor is treated as rank deficient.
PIVOT_RTOL = 1e-12


class CenteringError(ValueError):
    """Operation requires mean-centered data."""


class DimensionMismatchError(ValueError):
    """Incompatible matrix or dataset dimensions."""


@dataclass(frozen=True)
class SymmetricMatrix:
    """Dense M x M real symmetric matrix.

    Symmetry is enforced at construction by replacing the input with
    (A + A.T)/2, which removes a class of accumulation-drift bugs in long
    projection/blend chains. A non-finite entry raises ValueError. The
    backing array is read-only.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise DimensionMismatchError("matrix dimension must be >= 1")
        a = (a + a.T) / 2.0
        if not np.isfinite(a).all():
            raise ValueError("matrix contains a non-finite value")
        a.flags.writeable = False
        object.__setattr__(self, "values", a)

    @classmethod
    def of_symmetric(cls, a: np.ndarray) -> "SymmetricMatrix":
        """Wrap a square float array that its caller built exactly symmetric
        and finite, without the constructor's (A + A.T)/2 copy and checks.
        The array becomes read-only."""
        a.flags.writeable = False
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "values", a)
        return matrix

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.values))

    @classmethod
    def identity(cls, m: int) -> "SymmetricMatrix":
        return cls(np.eye(m))


@dataclass(frozen=True)
class Dataset:
    """N x M observation matrix with a mean-centering flag.

    Every value must be finite. When ``centered`` is set and there are at
    least two rows, every column mean must vanish to within 1e-10 times the
    column standard deviation, so a column with no spread must be zero; the
    constructor checks both.
    """

    rows: np.ndarray
    centered: bool = False

    def __post_init__(self) -> None:
        r = np.asarray(self.rows, dtype=float)
        if r.ndim != 2:
            raise DimensionMismatchError(f"dataset rows must be 2-D, got shape {r.shape}")
        if r.shape[0] < 1 or r.shape[1] < 1:
            raise DimensionMismatchError("dataset needs at least one row and one column")
        if not np.isfinite(r).all():
            raise ValueError("dataset contains a non-finite value")
        # A single row carries no empirical centering evidence: there the flag
        # records the caller's mean-zero modelling assumption.
        if self.centered and r.shape[0] >= 2 and np.any(np.abs(r.mean(axis=0))
                                                        > 1e-10 * r.std(axis=0)):
            raise CenteringError("centered flag set but column means are not zero")
        r = r.copy()
        r.flags.writeable = False
        object.__setattr__(self, "rows", r)

    @property
    def n_obs(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def center(self) -> "Dataset":
        """Return a column-mean-centered copy with the centered flag set; a
        column with no spread centers to exactly zero."""
        rows = self.rows - self.rows.mean(axis=0)
        rows[:, (self.rows == self.rows[0]).all(axis=0)] = 0.0
        return Dataset(rows, centered=True)


def second_moment(rows: np.ndarray) -> SymmetricMatrix:
    """(1/N) X^T X of raw rows, with no centering contract attached.

    Internal building block for per-fold covariances, where the rows are a
    slice of an already-centered dataset and do not themselves satisfy the
    Dataset centering invariant.
    """
    rows = np.asarray(rows, dtype=float)
    return SymmetricMatrix(rows.T @ rows / rows.shape[0])


def sample_covariance(data: Dataset) -> SymmetricMatrix:
    """Sample covariance (1/N) sum_n x_n x_n^T of a centered dataset."""
    if not data.centered:
        raise CenteringError("sample_covariance requires centered data; call Dataset.center()")
    return second_moment(data.rows)


@dataclass(frozen=True)
class Factor:
    """L^-1, logdet A and ||L^-1||_F^2 of a positive definite A = L L^T."""
    inv_ell: np.ndarray
    logdet: float
    inv_norm_sq: float

    def nll(self, r_test: SymmetricMatrix) -> float:
        """(1/2) (logdet A + tr(A^-1 R_test)): sum (L^-1 R_test) * L^-1, one dtrmm."""
        left = blas.dtrmm(1.0, self.inv_ell, r_test.values, lower=1)
        return 0.5 * (self.logdet + float(np.einsum("ij,ij->", left, self.inv_ell)))


def cholesky(a: SymmetricMatrix) -> Factor | None:
    """A's ``Factor`` by dpotrf and dtrtri, the one factorization of a model, or
    None when A is not positive definite or a pivot is <= PIVOT_RTOL * the largest.
    ||L^-1||_F^2 is +inf past the float range, with no overflow warning: a square
    that overflows puts the sum past it too. Its largest square is at least
    (L^-1)_11^2 = 1 / A_11, a normal number unless A_11 is within a factor 4 of
    the float maximum, so the sum needs no power-of-two scaling pass (12-17 us
    of a 120-150 us factor at M = 100)."""
    ell, info = lapack.dpotrf(a.values, lower=1, clean=1)
    pivots = np.diag(ell)
    if info != 0 or pivots.min() <= PIVOT_RTOL * pivots.max():
        return None
    inv_ell = lapack.dtrtri(ell, lower=1)[0]
    with np.errstate(over="ignore"):   # past the float range: +inf, which nothing certifies
        inv_norm_sq = float(np.sum(inv_ell**2))
    return Factor(inv_ell, 2.0 * float(np.sum(np.log(pivots))), inv_norm_sq)


def whiten(inv_ell: np.ndarray, x: np.ndarray) -> np.ndarray:
    """X L^-T for the lower-triangular L^-1, by one dtrmm: half a GEMM's work."""
    return blas.dtrmm(1.0, inv_ell, x, side=1, lower=1, trans_a=1)


def gaussian_nll_per_sample(sigma: SymmetricMatrix, r_test: SymmetricMatrix) -> float:
    """Per-sample Gaussian NLL (1/2) logdet(sigma) + (1/2) tr(sigma^-1 r_test)
    of ``cholesky(sigma)``, or +inf, which sweeps tabulate as a losing entry,
    when that is None. The pivot rule is the test only where no structure is
    known (a user's estimator): a matrix singular by structure can pass it by
    rounding, so a caller that knows one scores +inf without calling this."""
    if sigma.dim != r_test.dim:
        raise DimensionMismatchError(f"model dim {sigma.dim} != test dim {r_test.dim}")
    factor = cholesky(sigma)
    return float("inf") if factor is None else factor.nll(r_test)


def blend(a: SymmetricMatrix, b: SymmetricMatrix, alpha: float) -> SymmetricMatrix:
    """The convex blend (1 - alpha) a + alpha b: ``a`` itself at alpha = 0 and
    ``b`` itself at alpha = 1, so both ends are bitwise exact."""
    if alpha == 0.0 or alpha == 1.0:
        return b if alpha else a
    return SymmetricMatrix((1.0 - alpha) * a.values + alpha * b.values)


def frobenius_norm(a: SymmetricMatrix) -> float:
    """||a||_F, taken of the entries scaled by a power of two to a largest
    entry in [1/2, 1) and scaled back: the scaling is exact, so the squares
    neither overflow nor underflow at any scale of ``a`` and the result at
    ordinary scales is unchanged bitwise."""
    peak = np.abs(a.values).max()
    if peak == 0.0:
        return 0.0
    shift = int(np.frexp(peak)[1])
    return float(np.ldexp(np.linalg.norm(np.ldexp(a.values, -shift), "fro"), shift))


# ---------------------------------------------------------------------------
# CSV carriers.
#
# Every file symcov writes goes through format_field: one number format for
# all of them.
# Matrix CSV: first line M, then M lines of M comma-separated decimals.
# Dataset CSV: first line N,M then N rows.
# ---------------------------------------------------------------------------

def format_field(value) -> str:
    """A value as CSV text: None is empty, a bool is 1 or 0, a float (numpy
    scalars included) is its shortest round-trip decimal (``inf``, ``nan``),
    anything else is ``str``."""
    if type(value) is float:
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def format_row(fields) -> str:
    """One CSV line, without its newline."""
    return ",".join(map(format_field, fields))


def write_csv(path, rows) -> None:
    """Write each row, a sequence of fields, as one CSV line."""
    with open(path, "w") as fh:
        for row in rows:
            fh.write(format_row(row) + "\n")


def read_csv_lines(path) -> list[tuple[int, str]]:
    """Non-blank lines of a CSV file, stripped, with their 1-based line numbers."""
    with open(path) as fh:
        return [(no, ln.strip()) for no, ln in enumerate(fh, 1) if ln.strip()]


def parse_header(path, line: tuple[int, str], width: int) -> list[int]:
    """The ``width`` comma-separated positive integers (counts and
    dimensions) of a header line. A malformed token, a value below 1 or a
    wrong count raises ValueError naming the file and line."""
    no, text = line
    try:
        values = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"{path}:{no}: {exc}") from None
    if len(values) != width:
        raise ValueError(f"{path}:{no}: expected {width} header values, found {len(values)}")
    if min(values) < 1:
        raise ValueError(f"{path}:{no}: expected positive integers, found {text!r}")
    return values


def parse_rows(path, lines: list[tuple[int, str]], width: int) -> np.ndarray:
    """Rows of ``width`` comma-separated finite decimals. A malformed token,
    a non-finite value or a row of the wrong length raises ValueError naming
    the file and line."""
    rows = []
    for no, line in lines:
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise ValueError(f"{path}:{no}: {exc}") from None
        if len(row) != width:
            raise ValueError(f"{path}:{no}: expected {width} values, found {len(row)}")
        if not all(math.isfinite(v) for v in row):
            raise ValueError(f"{path}:{no}: non-finite value")
        rows.append(row)
    return np.array(rows, dtype=float)


def write_matrix_csv(path, a: SymmetricMatrix) -> None:
    write_csv(path, [(a.dim,), *a.values.tolist()])


def read_matrix_csv(path) -> SymmetricMatrix:
    return parse_matrix(path, read_csv_lines(path))


def parse_matrix(path, lines: list[tuple[int, str]]) -> SymmetricMatrix:
    """A matrix CSV body: the dimension line M, then exactly M rows of a
    symmetric matrix. An entry that differs from its transpose by more than
    1e-12 of the largest entry raises ValueError naming the file and the
    line of the first row holding one."""
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    (m,) = parse_header(path, lines[0], 1)
    if len(lines) != m + 1:
        raise ValueError(f"{path}: expected {m} rows, found {len(lines) - 1}")
    a = parse_rows(path, lines[1:], m)
    apart = np.abs(a - a.T) > 1e-12 * np.abs(a).max()
    if apart.any():
        i, j = np.argwhere(apart)[0].tolist()
        raise ValueError(f"{path}:{lines[1 + i][0]}: matrix is not symmetric: entry "
                         f"({i + 1}, {j + 1}) is {format_field(a[i, j])}, its transpose "
                         f"{format_field(a[j, i])}")
    return SymmetricMatrix(a)


def write_dataset_csv(path, data: Dataset) -> None:
    write_csv(path, [(data.n_obs, data.dim), *data.rows.tolist()])


def read_dataset_csv(path) -> Dataset:
    """A centered dataset: the header line N,M, then N column-centered rows.
    Rows that are not centered, a single row that is not zero included,
    raise ValueError naming the header line."""
    lines = read_csv_lines(path)
    if not lines:
        raise ValueError(f"{path}: empty dataset file")
    n, m = parse_header(path, lines[0], 2)
    if len(lines) != n + 1:
        raise ValueError(f"{path}: expected {n} rows, found {len(lines) - 1}")
    rows = parse_rows(path, lines[1:], m)
    try:
        # Dataset takes a single row as centered by assumption; in a file, a
        # column with no spread must be zero however many rows it has
        if n == 1 and rows.any():
            raise CenteringError
        return Dataset(rows, centered=True)
    except CenteringError:
        raise ValueError(f"{path}:{lines[0][0]}: column means are not zero; "
                         "dataset CSVs must be column-centered") from None
