"""The 2^{n+1} x (3n+1) real matrix whose kernel is the isotropy algebra.

Columns, through the C^N <-> R^{2N} identification, are
(A_1|psi>, B_1|psi>, C_1|psi>, ..., A_n|psi>, B_n|psi>, C_n|psi>, -i|psi>),
so a kernel vector (t_1, r_1, s_1, ..., t_n, r_n, s_n, theta) is exactly an
algebra element and eigenphase with X.|psi> = i theta |psi>.  The rank gives
the orbit dimension: dim O = rank - 1.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
import scipy.linalg

from .lie_action import (
    LocalAlgebraElement,
    Su2Coordinates,
    apply_algebra,
)
from .states import PureState, ratio_to_float

DEFAULT_TOL = 1e-10
# Relative slack of the float Gram check; rounding in R^T R is ~1e-15.
GRAM_RTOL = 1e-10


class ExactPathError(TypeError):
    """Raised when an exact-only operation meets float entries."""


@dataclass(frozen=True)
class OrbitMatrix:
    """The real matrix M for a state.

    On the float path `data` holds M in float64.  On the exact path it holds
    the integer matrix den * M (int64 or object ints), built from the state's
    Gaussian-integer numerators; rank and kernel do not see the scale.
    """

    n: int
    data: np.ndarray  # shape (2^{n+1}, 3n+1)
    exact: bool
    den: int = 1

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def as_float(self) -> np.ndarray:
        if self.exact:
            return ratio_to_float(self.data.ravel(), self.den).reshape(self.shape)
        return self.data

    @cached_property
    def gram(self) -> np.ndarray:
        """(den M)^T (den M) over the integers, exact path only.

        int64 when rows * max|entry|^2 < 2**62 bounds every entry, object ints
        otherwise.  rank(M^T M) = rank(M) and ker(M^T M) = ker(M) for real M,
        and the Gram matrix is only (3n+1) x (3n+1).
        """
        m = self.data
        maxabs = int(np.abs(m).max())
        if m.shape[0] * maxabs * maxabs >= 2**62:
            m = m.astype(object)
        return np.einsum("ij,ik->jk", m, m)

    def column_labels(self) -> list[str]:
        labels = []
        for k in range(1, self.n + 1):
            labels += [f"t{k}", f"r{k}", f"s{k}"]
        labels.append("theta")
        return labels

    def row_labels(self) -> list[str]:
        labels = []
        for i in range(1 << self.n):
            bits = format(i, f"0{self.n}b")
            labels += [f"{bits}:re", f"{bits}:im"]
        return labels


@dataclass(frozen=True)
class IsotropyElement:
    """An algebra element X with X.|psi> = i theta |psi>."""

    x: LocalAlgebraElement
    theta: float | Fraction


def _build_real(re: np.ndarray, im: np.ndarray, n: int) -> np.ndarray:
    """M from the bit formulas, on real arrays of any dtype (float or integer).

    Row 2i holds the real and row 2i+1 the imaginary part of component I of
    the columns A_k psi = i (-1)^{i_k} c_I, B_k psi = (-1)^{i_k} c_{I_k},
    C_k psi = i c_{I_k} for k = 1..n, and -i psi.  Column 3(k-1) + j of M is
    column j of triple k, so each formula fills every third column at once.
    """
    dim = 1 << n
    dtype = np.result_type(re, im)
    idx = np.arange(dim)[:, None]
    bit = 1 << np.arange(n - 1, -1, -1)  # qubit k is bit n - k of the index
    sign = np.where(idx & bit, -1, 1).astype(dtype)  # (-1)^{i_k}, shape (dim, n)
    re_f, im_f = re[idx ^ bit], im[idx ^ bit]  # c_{I_k}
    m = np.empty((dim, 2, 3 * n + 1), dtype=dtype)
    m[:, 0, 0 : 3 * n : 3] = -sign * im[:, None]
    m[:, 1, 0 : 3 * n : 3] = sign * re[:, None]
    m[:, 0, 1 : 3 * n : 3] = sign * re_f
    m[:, 1, 1 : 3 * n : 3] = sign * im_f
    m[:, 0, 2 : 3 * n : 3] = -im_f
    m[:, 1, 2 : 3 * n : 3] = re_f
    m[:, 0, 3 * n] = im
    m[:, 1, 3 * n] = -re
    return m.reshape(2 * dim, 3 * n + 1)


def build_matrix(psi: PureState) -> OrbitMatrix:
    """Assemble M from the bit formulas: the integer den * M for an exact
    state, float M otherwise."""
    if psi.is_exact:
        return OrbitMatrix(n=psi.n, data=_build_real(*psi.num, psi.n), exact=True, den=psi.den)
    return OrbitMatrix(n=psi.n, data=_build_real(psi.amps.real, psi.amps.imag, psi.n), exact=False)


def _check_gram(g: np.ndarray, rtol: float) -> None:
    """Two facts of the inner-product table, checked on a Gram matrix of M:
    every column has the squared norm of the theta column, |psi|^2, and the
    columns of each triple T_k are mutually orthogonal.  With rtol = 0 the
    check is exact (integer Gram matrices)."""
    norm2 = g[-1, -1]
    bound = rtol * norm2 if rtol else 0
    a = np.arange(0, g.shape[0] - 1, 3)
    entries = (np.diagonal(g) - norm2, g[a, a + 1], g[a, a + 2], g[a + 1, a + 2])
    if not all(np.all(np.abs(e) <= bound) for e in entries):
        raise AssertionError("Gram matrix breaks the inner-product table")


def _pivot_rank(r: np.ndarray, tol: float) -> int:
    """Rank from a column-pivoted R: a pivot counts iff its magnitude exceeds
    tol times the largest pivot magnitude."""
    pivots = np.abs(np.diag(r))
    if pivots.size == 0 or pivots[0] == 0:
        return 0
    return int(np.count_nonzero(pivots > tol * pivots[0]))


def numerical_rank(a: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Rank via QR with column pivoting (see `_pivot_rank`)."""
    a = np.asarray(a, dtype=float)
    if a.size == 0 or not np.any(a):
        return 0
    return _pivot_rank(scipy.linalg.qr(a, mode="r", pivoting=True)[0], tol)


def rank_float(m: OrbitMatrix, tol: float = DEFAULT_TOL) -> int:
    return numerical_rank(m.as_float(), tol)


def _factorize_float(a: np.ndarray, tol: float) -> tuple[int, np.ndarray]:
    """Rank and an orthonormal kernel basis (rows) of a float M from one
    column-pivoted QR, M[:, perm] = Q R.

    The rank is the pivot count of R; the kernel is spanned by the trailing
    right singular vectors of the (3n+1)^2 factor R, which has the right
    singular vectors of M[:, perm].  R^T R is the Gram matrix of M[:, perm],
    so the inner-product table is checked on it without touching M again.
    """
    cols = a.shape[1]
    r, perm = scipy.linalg.qr(a, mode="r", pivoting=True)
    r = r[:cols]
    g = np.empty((cols, cols))
    g[np.ix_(perm, perm)] = r.T @ r
    _check_gram(g, GRAM_RTOL)
    rank = _pivot_rank(r, tol)
    kernel = np.zeros((cols - rank, cols))
    if rank < cols:
        kernel[:, perm] = np.linalg.svd(r)[2][rank:]
    return rank, kernel


def factorize(m: OrbitMatrix, tol: float = DEFAULT_TOL) -> tuple[int, list | np.ndarray]:
    """Rank of M and a basis of ker M, from one factorization, after the Gram
    matrix is checked against the inner-product table.

    Float M: one pivoted QR, tol deciding the rank (`_factorize_float`); the
    kernel is an orthonormal array of row vectors.  Exact M: Gauss-Jordan
    elimination of the integer Gram matrix, fraction-free, with no tolerance:
    each updated row is divided by the gcd of its entries, so everything
    stays a small Python int.  Kernel vectors, Fraction tuples, are read off
    the reduced rows; they are the ones the reduced row echelon form gives,
    one per free column.
    """
    if not m.exact:
        return _factorize_float(m.data, tol)
    _check_gram(m.gram, 0)
    rows = m.gram.tolist()
    size = len(rows)
    pivots: list[int] = []
    for col in range(size):
        r = len(pivots)
        pivot_row = next((i for i in range(r, size) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        p = prow[col]
        for i in range(size):
            f = rows[i][col]
            if i != r and f:
                new = [p * v - f * w for v, w in zip(rows[i], prow)]
                g = math.gcd(*new)
                rows[i] = [v // g for v in new] if g else new
        pivots.append(col)
    basis = []
    for fc in (c for c in range(size) if c not in pivots):
        v = [Fraction(0)] * size
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = Fraction(-rows[r][fc], rows[r][pc])
        basis.append(tuple(v))
    return len(pivots), basis


def rank_exact(m: OrbitMatrix) -> int:
    """Rank over the rationals, no tolerance involved."""
    if not m.exact:
        raise ExactPathError("exact rank requires exact rational entries")
    return factorize(m)[0]


def exact_nullspace(m: OrbitMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of ker M over the rationals, via the RREF of the Gram matrix."""
    if not m.exact:
        raise ExactPathError("exact kernel requires exact rational entries")
    return factorize(m)[1]


def float_nullspace(m: OrbitMatrix, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Kernel basis on the float path; dimension pinned to cols - rank so the
    reported rank and kernel always agree."""
    return list(_factorize_float(m.as_float(), tol)[1])


def _unpack_kernel_vector(v, n: int) -> IsotropyElement:
    coords = tuple(
        Su2Coordinates(v[3 * k], v[3 * k + 1], v[3 * k + 2]) for k in range(n)
    )
    return IsotropyElement(x=LocalAlgebraElement(coords), theta=v[3 * n])


def isotropy_basis(
    psi: PureState, tol: float = DEFAULT_TOL
) -> list[IsotropyElement]:
    """Basis of the isotropy Lie algebra, each element with its eigenphase.

    Kernel dimension equals the algebra dimension: theta is determined by X,
    so (X, theta) pairs and algebra elements are in bijection.
    """
    kernel = factorize(build_matrix(psi), tol)[1]
    return [_unpack_kernel_vector(v, psi.n) for v in kernel]


def verify_isotropy(
    psi: PureState, elem: IsotropyElement, tol: float = DEFAULT_TOL
) -> bool:
    """Check ||X.psi - i theta psi|| <= tol * ||psi|| (exactly, when possible)."""
    if elem.x.n != psi.n:
        raise ValueError("algebra element and state act on different qubit counts")
    if psi.is_exact and elem.x.is_exact and isinstance(elem.theta, Fraction):
        # M v is X.psi - i theta psi, realified and scaled by den
        v = [c for co in elem.x.coords for c in (co.t, co.r, co.s)] + [elem.theta]
        return not any(build_matrix(psi).data.astype(object) @ np.array(v, dtype=object))
    residual = apply_algebra(elem.x, psi) - 1j * float(elem.theta) * psi.amps
    return bool(np.linalg.norm(residual) <= tol * psi.norm())


def min_orbit_bound(n: int) -> int:
    """The minimum orbit dimension: 3n/2 for even n, (3n+1)/2 for odd n."""
    if n < 1:
        raise ValueError("need at least one qubit")
    return (3 * n) // 2 if n % 2 == 0 else (3 * n + 1) // 2


def orbit_dimension(psi: PureState, tol: float = DEFAULT_TOL) -> int:
    """dim O = rank M - 1, via the exact path when the state is exact."""
    return factorize(build_matrix(psi), tol)[0] - 1


def dump_csv(m: OrbitMatrix, path: str) -> None:
    """Write M as CSV with labeled header row and row labels; exact entries
    are written as the rationals they stand for, not as scaled integers."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row"] + m.column_labels())
        for label, row in zip(m.row_labels(), m.data):
            if m.exact:
                row = [Fraction(int(v), m.den) for v in row]
            writer.writerow([label] + [str(v) for v in row])
