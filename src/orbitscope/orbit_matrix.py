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
# Amplitudes per row block of M (twice as many rows).  A block and the
# folded R stay in L2 cache; blocks of 256 to 2048 rows ran within 15% of
# each other at n = 10..14.
BLOCK_AMPS = 512


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
        """(den M)^T (den M) over the integers, exact path only (`_gram`)."""
        return _gram(_row_slices(self.data), self.shape[0], int(np.abs(self.data).max()))

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


def _build_real(re: np.ndarray, im: np.ndarray, n: int, lo: int, hi: int) -> np.ndarray:
    """Rows 2 lo .. 2 hi - 1 of M, those of amplitude indices lo .. hi - 1,
    from the bit formulas, on real arrays of any dtype (float or integer).

    Row 2i holds the real and row 2i+1 the imaginary part of component I of
    the columns A_k psi = i (-1)^{i_k} c_I, B_k psi = (-1)^{i_k} c_{I_k},
    C_k psi = i c_{I_k} for k = 1..n, and -i psi.  Column 3(k-1) + j of M is
    column j of triple k, so each formula fills every third column at once.
    The flipped amplitudes c_{I_k} are gathered from the whole of re and im.
    """
    dtype = np.result_type(re, im)
    idx = np.arange(lo, hi)[:, None]
    bit = 1 << np.arange(n - 1, -1, -1)  # qubit k is bit n - k of the index
    sign = np.where(idx & bit, -1, 1).astype(dtype)  # (-1)^{i_k}, shape (hi - lo, n)
    re_f, im_f = re[idx ^ bit], im[idx ^ bit]  # c_{I_k}
    re, im = re[lo:hi], im[lo:hi]
    m = np.empty((hi - lo, 2, 3 * n + 1), dtype=dtype)
    m[:, 0, 0 : 3 * n : 3] = -sign * im[:, None]
    m[:, 1, 0 : 3 * n : 3] = sign * re[:, None]
    m[:, 0, 1 : 3 * n : 3] = sign * re_f
    m[:, 1, 1 : 3 * n : 3] = sign * im_f
    m[:, 0, 2 : 3 * n : 3] = -im_f
    m[:, 1, 2 : 3 * n : 3] = re_f
    m[:, 0, 3 * n] = im
    m[:, 1, 3 * n] = -re
    return m.reshape(2 * (hi - lo), 3 * n + 1)


def _parts(psi: PureState) -> tuple[np.ndarray, np.ndarray]:
    """The real arrays M is built from: the Gaussian-integer numerators of an
    exact state, the real and imaginary parts of a float one."""
    return psi.num if psi.is_exact else (psi.amps.real, psi.amps.imag)


def _row_blocks(psi: PureState):
    """M (den * M for an exact state) as consecutive blocks of rows, each
    for BLOCK_AMPS amplitudes, so that M is never held whole."""
    re, im = _parts(psi)
    dim = 1 << psi.n
    for lo in range(0, dim, BLOCK_AMPS):
        yield _build_real(re, im, psi.n, lo, min(lo + BLOCK_AMPS, dim))


def _row_slices(a: np.ndarray):
    """A whole M cut into the row blocks `_row_blocks` yields."""
    return (a[lo : lo + 2 * BLOCK_AMPS] for lo in range(0, a.shape[0], 2 * BLOCK_AMPS))


def build_matrix(psi: PureState) -> OrbitMatrix:
    """All of M at once: the integer den * M for an exact state, float M
    otherwise.  Analyses stream M in row blocks instead (`factorize`)."""
    re, im = _parts(psi)
    data = _build_real(re, im, psi.n, 0, 1 << psi.n)
    return OrbitMatrix(n=psi.n, data=data, exact=psi.is_exact, den=psi.den)


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


def _factorize_float(blocks, tol: float) -> tuple[int, np.ndarray]:
    """Rank and an orthonormal kernel basis (rows) of a float M given as
    row blocks.

    Sequential TSQR: each block after the first is folded into the
    triangular factor of the rows before it, R <- R of [R; block], so that
    R^T R = M^T M and no more than R and one block are factorized at once.
    One column-pivoted QR of R (of M itself when M is one block),
    R[:, perm] = Q R', then gives both answers.  Pivoting depends only on
    R^T R, so in exact arithmetic it makes the decisions a pivoted QR of M
    would.  The rank is the pivot count of R'; the kernel is spanned by the
    trailing right singular vectors of the (3n+1)^2 factor R', which are
    those of M[:, perm].  R'^T R' is the Gram matrix of M[:, perm], so the
    inner-product table is checked on it without touching M again.
    """
    blocks = iter(blocks)
    r = next(blocks)
    cols = r.shape[1]
    for block in blocks:
        qr, _, _, info = scipy.linalg.lapack.dgeqrf(np.vstack((r, block)))
        if info:
            raise np.linalg.LinAlgError(f"dgeqrf failed with info={info}")
        r = np.triu(qr[:cols])
    # M is finite: PureState rejects non-finite amplitudes
    r, perm = scipy.linalg.qr(r, mode="r", pivoting=True, check_finite=False)
    r = r[:cols]
    g = np.empty((cols, cols))
    g[np.ix_(perm, perm)] = r.T @ r
    _check_gram(g, GRAM_RTOL)
    rank = _pivot_rank(r, tol)
    kernel = np.zeros((cols - rank, cols))
    if rank < cols:
        kernel[:, perm] = np.linalg.svd(r)[2][rank:]
    return rank, kernel


def _gram(blocks, rows: int, maxabs: int) -> np.ndarray:
    """(den M)^T (den M) over the integers, summed over row blocks of den M
    with `rows` rows in all and entries of magnitude at most `maxabs`.

    int64 when rows * maxabs^2 < 2**62 bounds every entry and partial sum,
    object ints otherwise.  rank(M^T M) = rank(M) and ker(M^T M) = ker(M)
    for real M, and the Gram matrix is only (3n+1) x (3n+1).
    """
    wide = rows * maxabs * maxabs >= 2**62
    g = 0
    for block in blocks:
        if wide:
            block = block.astype(object)
        g = g + np.einsum("ij,ik->jk", block, block)
    return g


def _factorize_exact(gram: np.ndarray) -> tuple[int, list[tuple[Fraction, ...]]]:
    """Rank and kernel basis of M from its integer Gram matrix, after the
    exact table check.

    Gauss-Jordan elimination, fraction-free, with no tolerance: each updated
    row is divided by the gcd of its entries, so everything stays a small
    Python int.  Kernel vectors, Fraction tuples, are read off the reduced
    rows; they are the ones the reduced row echelon form gives, one per free
    column.
    """
    _check_gram(gram, 0)
    rows = gram.tolist()
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


def factorize(psi: PureState, tol: float = DEFAULT_TOL) -> tuple[int, list | np.ndarray]:
    """Rank of M and a basis of ker M for the state psi, from one
    factorization that consumes M block by block, after the Gram matrix is
    checked against the inner-product table.

    Float state: TSQR and one pivoted QR, tol deciding the rank
    (`_factorize_float`); the kernel is an orthonormal array of row vectors.
    Exact state: the integer Gram matrix summed over the blocks (`_gram`)
    and eliminated with no tolerance (`_factorize_exact`); the kernel is a
    list of Fraction tuples.
    """
    if psi.is_exact:
        return _factorize_exact(_gram(_row_blocks(psi), 2 << psi.n, int(np.abs(psi.num).max())))
    return _factorize_float(_row_blocks(psi), tol)


def rank_float(m: OrbitMatrix, tol: float = DEFAULT_TOL) -> int:
    return _factorize_float(_row_slices(m.as_float()), tol)[0]


def rank_exact(m: OrbitMatrix) -> int:
    """Rank over the rationals, no tolerance involved."""
    if not m.exact:
        raise ExactPathError("exact rank requires exact rational entries")
    return _factorize_exact(m.gram)[0]


def exact_nullspace(m: OrbitMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of ker M over the rationals, via the RREF of the Gram matrix."""
    if not m.exact:
        raise ExactPathError("exact kernel requires exact rational entries")
    return _factorize_exact(m.gram)[1]


def float_nullspace(m: OrbitMatrix, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Kernel basis on the float path; dimension pinned to cols - rank so the
    reported rank and kernel always agree."""
    return list(_factorize_float(_row_slices(m.as_float()), tol)[1])


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
    kernel = factorize(psi, tol)[1]
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
    return factorize(psi, tol)[0] - 1


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
