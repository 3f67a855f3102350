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
from functools import cached_property, lru_cache

import numpy as np
from numpy.linalg import lapack_lite

from .lie_action import (
    _BASIS_PQ,
    LocalAlgebraElement,
    Su2Coordinates,
    apply_algebra,
    on_qubit,
)
from .states import PureState, max_abs, ratio_to_float

DEFAULT_TOL = 1e-10
# Relative slack of the float Gram check; rounding in R^T R is ~1e-15.
GRAM_RTOL = 1e-10
# Amplitudes per row block of M (twice as many rows).  A block and the
# folded R stay in L2 cache; blocks of 256 to 2048 rows ran within 15% of
# each other at n = 10..14.  A power of two, so blocks tile the 2^n
# amplitudes exactly.
BLOCK_AMPS = 512
# Amplitudes per sub-block of the row sample that certifies full rank
# before the full Gram pass (`_sample_tables`); a power of two.  8 gives
# 16 (n - 2) rows, about five per column of M.  The certificate's margin,
# lambda_min of the sample's Gram matrix over its shift, reads about 4e7,
# 1.5e6, 7e4 and 1e3 for Haar states at n = 10, 13, 16 and 20, and at
# least 25 for |0...0> plus a small Haar part; 4 thins that to 7, and 2
# refuses it.
SAMPLE_AMPS = 8


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
        return _gram(_matrix_fill(self.data), self.n, max_abs(self.data))


@dataclass(frozen=True)
class IsotropyElement:
    """An algebra element X with X.|psi> = i theta |psi>."""

    x: LocalAlgebraElement
    theta: float | Fraction


def _sign_flip(idx: np.ndarray, n: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """The sign table (-1)^{i_k}, of `dtype` (int64 for object), and the
    flip table I -> I_k, each of shape (n, len(idx)), for the amplitude
    indices `idx`."""
    bit = 1 << np.arange(n - 1, -1, -1)[:, None]  # qubit k is bit n - k of the index
    one = dtype.type(1)
    return np.where(idx & bit, -one, one), idx ^ bit


@lru_cache(maxsize=None)
def _whole_state_tables(n: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """`_sign_flip` over all 2^n amplitude indices, for a state of one row
    block (2^n <= BLOCK_AMPS).

    Both tables are read-only and depend on (n, dtype) alone, never on a
    state.  One entry holds at most 16 n 2^n bytes: 74 KB at n = 9.
    """
    tables = _sign_flip(np.arange(1 << n), n, dtype)
    for table in tables:
        table.setflags(write=False)
    return tables


def _build_real(re: np.ndarray, im: np.ndarray, n: int, rows, out: np.ndarray, tables=None) -> None:
    """The rows of M for the amplitude indices `rows` (a slice lo:hi or an
    index array), from the bit formulas, written transposed into `out` of
    shape (3n+1, 2, len(rows)) and any dtype (float or integer): out[col, 0,
    j] and out[col, 1, j] are column col of the real and imaginary rows of
    amplitude I = rows[j], rows 2I and 2I + 1 of M.

    Those rows hold component I of the columns A_k psi = i (-1)^{i_k} c_I,
    B_k psi = (-1)^{i_k} c_{I_k}, C_k psi = i c_{I_k} for k = 1..n, and
    -i psi.  Column 3(k-1) + j of M is column j of triple k, so each formula
    fills every third column at once, with stores contiguous along the
    amplitudes.  The flipped amplitudes c_{I_k} are gathered from the whole
    of re and im.

    These are the same columns `lie_action.triple_columns` gets from the
    basis matrices, kept as bit formulas on purpose: this is the streamed
    hot path of M, and it writes any dtype in place, row block by row block.
    `tables`, when given, are the sign and flip tables of `rows`
    (`_sign_flip`).  A block that covers a whole state of one row block
    takes them from `_whole_state_tables`; any other block computes them.
    """
    if tables is not None:
        sign, flip = tables
    elif isinstance(rows, slice) and rows == slice(0, 1 << n) and 1 << n <= BLOCK_AMPS:
        sign, flip = _whole_state_tables(n, out.dtype)
    else:
        idx = np.arange(rows.start, rows.stop) if isinstance(rows, slice) else rows
        sign, flip = _sign_flip(idx, n, out.dtype)
    re_f, im_f = re[flip], im[flip]  # c_{I_k}
    re, im = re[rows], im[rows]
    t, r, s = out[0 : 3 * n : 3], out[1 : 3 * n : 3], out[2 : 3 * n : 3]
    np.multiply(sign, -im, out=t[:, 0])
    np.multiply(sign, re, out=t[:, 1])
    np.multiply(sign, re_f, out=r[:, 0])
    np.multiply(sign, im_f, out=r[:, 1])
    np.negative(im_f, out=s[:, 0])
    s[:, 1] = re_f
    out[3 * n, 0] = im
    np.negative(re, out=out[3 * n, 1])


def _parts(psi: PureState) -> tuple[np.ndarray, np.ndarray]:
    """The real arrays M is built from: the Gaussian-integer numerators of an
    exact state, the real and imaginary parts of a float one."""
    return psi.num if psi.is_exact else (psi.amps.real, psi.amps.imag)


def _state_fill(psi: PureState):
    """Fill function (rows, out) that builds the rows of M (den * M for an
    exact state) for the amplitude indices `rows` into `out` (`_build_real`)."""
    re, im = _parts(psi)
    return lambda rows, out: _build_real(re, im, psi.n, rows, out)


def _matrix_fill(data: np.ndarray):
    """Fill function that copies the rows of a given M for the amplitude
    indices `rows` into `out`, transposed as `_build_real` writes them."""
    by_amp = data.reshape(-1, 2, data.shape[1])
    return lambda rows, out: np.copyto(out, by_amp[rows].transpose(2, 1, 0))


def build_matrix(psi: PureState) -> OrbitMatrix:
    """All of M at once: the integer den * M for an exact state, float M
    otherwise.  Analyses stream M in row blocks instead (`factorize`)."""
    re, im = _parts(psi)
    n, dim = psi.n, 1 << psi.n
    out = np.empty((3 * n + 1, 2, dim), dtype=np.result_type(re, im))
    _build_real(re, im, n, slice(0, dim), out)
    data = out.transpose(2, 1, 0).reshape(2 * dim, 3 * n + 1)
    return OrbitMatrix(n=n, data=data, exact=psi.is_exact, den=psi.den)


@lru_cache(maxsize=None)
def _triple_block_index(cols: int) -> np.ndarray:
    """Flat indices into a cols x cols matrix of the entries of the 3 x 3
    diagonal blocks of its first cols - 1 rows and columns: the cols - 1
    diagonal entries first, then the six others of each block.  Read-only;
    one entry per matrix size."""
    k = cols - 1
    start = 3 * np.arange(k // 3)[:, None]  # first row and column of each block
    i, j = np.array([0, 0, 1, 1, 2, 2]), np.array([1, 2, 0, 2, 0, 1])
    index = np.concatenate([np.arange(k) * (cols + 1), ((start + i) * cols + start + j).ravel()])
    index.setflags(write=False)
    return index


def _check_gram(g: np.ndarray, rtol: float) -> None:
    """Two facts of the inner-product table, checked on a Gram matrix of M:
    every column has the squared norm of the theta column, |psi|^2, and the
    columns of each triple T_k are mutually orthogonal; that is, the 3 x 3
    diagonal block of each triple is |psi|^2 I.  One comparison of the
    largest deviation, in the Gram matrix's own dtype; with rtol = 0 the
    check is exact (integer Gram matrices)."""
    norm2, k = g[-1, -1], g.shape[0] - 1
    bound = rtol * norm2 if rtol else 0
    blocks = g.take(_triple_block_index(k + 1))
    blocks[:k] -= norm2  # the diagonal entries
    if not np.abs(blocks).max() <= bound:
        raise AssertionError("Gram matrix breaks the inner-product table")


def _sigma_rank(s: np.ndarray, tol: float) -> int:
    """Rank from singular values in descending order: a value counts iff it
    exceeds tol times the largest one."""
    return int(np.count_nonzero(s > tol * s[0])) if s.size else 0


def numerical_rank(a: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Rank via the singular values of a (see `_sigma_rank`)."""
    return _sigma_rank(np.linalg.svd(a, compute_uv=False), tol)


def _qr_in_place(w: np.ndarray) -> None:
    """LAPACK dgeqrf of the Fortran-ordered w, in place, by numpy's own
    LAPACK: R on and above the diagonal, Householder vectors below.
    lapack_lite takes the C-ordered view w.T and checks no size, so every
    size is read off w."""
    if not w.flags.f_contiguous:
        raise ValueError("dgeqrf needs a Fortran-ordered workspace")
    rows, cols = w.shape
    tau, work = np.empty(cols), np.empty(cols)
    info = lapack_lite.dgeqrf(rows, cols, w.T, rows, tau, work, cols, 0)["info"]
    if info:
        raise np.linalg.LinAlgError(f"dgeqrf failed with info={info}")


def _certifies_full_rank(g: np.ndarray, rows: int, tol: float, total: float) -> bool:
    """Whether the float Gram matrix g = fl(M_S^T M_S) of `rows` rows M_S of
    a real M proves that every singular value of M exceeds tol times the
    largest.  M_S is all of M or a subset of its rows; `total` is T, either
    a bound T >= trace(M^T M) known in advance, or trace(g) when M_S = M.

    With u = 2**-53, gamma_k = k u / (1 - k u) and c = cols, each entry of g
    is an inner product of length m = rows (2^{n+1} for all of M, 16 (n - 2)
    for the row sample of `_sample_tables`), so |g - M_S^T M_S| <= gamma_m
    |M_S|^T |M_S| entrywise, whatever the order of summation (Higham,
    Accuracy and Stability of Numerical Algorithms, sec. 3.5), and
    ||g - M_S^T M_S||_2 <= gamma_m trace(M_S^T M_S) <= gamma_m T, up to the
    gamma_m^2 T between trace(g) and trace(M^T M) when T = trace(g).  Let
        delta = (gamma_m + c^2 u) T,  s = 2 delta + tol^2 (T + delta).

    The proof is one Cholesky factorization of a = fl(g - s I) (Rump,
    Verification of positive definiteness, BIT 46, 2006).  If it completes
    with a finite factor L, then L L^T = a + E with |E| <= gamma_{c+1}
    |L| |L^T| (Higham, Thm 10.3), so ||E||_2 <= gamma_{c+1} ||L||_F^2 <=
    gamma_{c+1} trace(a) / (1 - gamma_{c+1}); and L L^T is positive
    definite, so lambda_min(a) > -||E||_2.  Every pivot was positive, so
    s < g_ii <= trace(g) / c for the smallest g_ii, and the shift, rounded
    on the diagonal alone, moves each eigenvalue by at most u max_i g_ii.
    Both errors are below (c + 2) u trace(g) <= (c + 2) u (1 + gamma_m) T,
    within half the c^2 u T term of delta: for c = 3n + 1 >= 4 when
    T = trace(g), and for c >= 31 when M_S is the row sample of n >= 10
    qubits.  The other half absorbs the rounding of T and of s and the
    gamma_m^2 T above.  So
        lambda_min(M_S^T M_S) > s - delta = delta + tol^2 (T + delta).
    The rows left out of M_S add a positive semidefinite term to M^T M, so
    lambda_min(M^T M) >= lambda_min(M_S^T M_S) > delta + tol^2 sigma_1^2,
    as sigma_1^2 <= trace(M^T M) <= T + delta: full rank.  A LinAlgError (a
    non-positive pivot) means only that g cannot decide; LAPACK lets a NaN
    pivot through, so a factor that is not finite decides nothing either.
    Numpy's Cholesky reads the lower triangle of the symmetric g.

    The test only ever says yes: g resolves sigma to about sqrt(u) sigma_1,
    much coarser than tol, so a rank deficiency or a near-tolerance state is
    left to the TSQR.  Where it says yes, sigma_min^2 > delta >= c^2 u T >=
    c^2 u sigma_1^2 (up to a relative gamma_m), so sigma_min > c sqrt(u)
    sigma_1, at least 400 tol sigma_1 (4e3 at n = 12): a theorem about all
    of M, far beyond the TSQR's own rounding, so the TSQR would have found
    full rank too.
    """
    u = 2.0**-53
    cols, mu = g.shape[0], rows * u
    if mu >= 0.5:  # gamma_m is no bound at all this close to m u = 1
        return False
    delta = (mu / (1 - mu) + cols * cols * u) * total
    a = g.copy()
    a.reshape(-1)[:: cols + 1] -= 2 * delta + tol * tol * (total + delta)  # the diagonal
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(factor).all())


def _factorize_float(fill, n: int, tol: float) -> tuple[int, np.ndarray]:
    """Rank and an orthonormal kernel basis (rows) of a float M whose row
    blocks `fill` writes (see `_state_fill`).

    One pass over the row blocks, first to last, writes each block once
    into the one Fortran-ordered workspace W, adds its BLAS T T^T to the
    Gram matrix g = M^T M and, once the next block is due, folds it into
    sequential TSQR: W's top 3n+1 rows hold the triangular factor R of the
    rows folded so far (zero at first), and an in-place QR of W leaves R of
    [R; block] on top, whose Householder vectors are zero below the
    diagonal of R, so W's top rows stay exactly triangular.  A block's rows
    are ordered (part, amplitude), not interleaved; a row permutation
    leaves R^T R unchanged.

    When g, checked against the inner-product table, proves full rank
    (`_certifies_full_rank`), as for almost every float state, that is the
    answer, with an empty kernel and the last block never folded.
    Otherwise the last fold completes R, R^T R = M^T M, and one SVD of R
    gives both answers: the rank counts the singular values above tol times
    the largest (`_sigma_rank`), and the trailing right singular vectors
    span the kernel.
    """
    cols, amps = 3 * n + 1, min(1 << n, BLOCK_AMPS)
    w = np.empty((cols + 2 * amps, cols), order="F")
    w[:cols] = 0  # R; `fill` writes every block below it
    t = w.T[:, cols:]  # a view: W.T is C-ordered
    block = t.reshape(cols, 2, amps)
    fill(slice(0, amps), block)
    g = t @ t.T
    for lo in range(amps, 1 << n, amps):
        _qr_in_place(w)
        fill(slice(lo, lo + amps), block)
        g += t @ t.T
    _check_gram(g, GRAM_RTOL)
    if _certifies_full_rank(g, 2 << n, tol, g.trace()):
        return cols, np.zeros((0, cols))
    _qr_in_place(w)
    _, s, vt = np.linalg.svd(w[:cols])
    rank = _sigma_rank(s, tol)
    return rank, vt[rank:]


@lru_cache(maxsize=None)
def _sample_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The amplitude indices S of the row sample of M (`_sample_certifies`)
    and their float64 sign and flip tables (`_sign_flip`).  S is the base
    block [0, b), b = SAMPLE_AMPS, and its image under the flip of each
    qubit whose bit is >= b, ascending: (n - log2 b + 1) b = 8 (n - 2)
    indices, twice as many rows.

    A block of consecutive indices would not do: on rows where qubit k's bit
    is fixed, A_k psi = +-i psi = -+(the theta column), so those rows of M
    have rank at most 3n.  In S every qubit's bit takes both values: a low
    qubit's within each sub-block, a high qubit's between the base block and
    its image.  The three arrays are read-only and depend on n alone; one
    entry holds 8 (2n + 1) |S| bytes, 47 KB at n = 20.
    """
    base = np.arange(SAMPLE_AMPS)
    high = 1 << np.arange(SAMPLE_AMPS.bit_length() - 1, n)
    rows = np.concatenate([base, (high[:, None] + base).ravel()])
    tables = (rows, *_sign_flip(rows, n, np.dtype(np.float64)))
    for table in tables:
        table.setflags(write=False)
    return tables


def _sample_gram(re: np.ndarray, im: np.ndarray, n: int, e: int) -> np.ndarray:
    """The Gram matrix of the rows of M for the amplitudes S of
    `_sample_tables`, M built from re and im times 2^-e.  The rows are built
    from the unscaled parts and scaled in place: the same numbers, since the
    builder only negates and copies parts."""
    rows, *tables = _sample_tables(n)
    t = np.empty((3 * n + 1, 2, rows.size))
    _build_real(re, im, n, rows, t, tables)
    t = np.ldexp(t, -e, out=t).reshape(3 * n + 1, -1)
    return t @ t.T


def _check_sample_gram(g: np.ndarray, amps: np.ndarray, n: int, e: int) -> None:
    """The inner-product table on the rows of M for the amplitudes S of
    `_sample_tables`: their Gram matrix g (`_sample_gram`), against closed
    forms computed from the amplitudes `amps` themselves, gathered and
    signed here and not from the builder's tables.

    With c_I = 2^-e psi_I, s_I = (-1)^{i_k} and every sum over I in S, the
    3 x 3 block of triple k and its entries in the theta row are
        AA = theta theta = N = sum |c_I|^2,  BB = CC = sum |c_{I_k}|^2,
        BC = 0,  AB = Im z,  AC = Re w,
        A theta = -sum s_I |c_I|^2,  B theta = -Im w,  C theta = -Re z,
    for z = sum conj(c_I) c_{I_k} and w = sum s_I conj(c_I) c_{I_k}.  Over
    all amplitudes the terms of I and I_k pair up, which makes z real and w
    imaginary: AB = AC = 0 and BB = CC = N = |psi|^2, the facts
    `_check_gram` checks.  The theta row catches a sign error in the theta
    column, which no squared norm sees.  One comparison of the largest
    deviation against GRAM_RTOL times the largest column norm.
    """
    rows = _sample_tables(n)[0]
    # qubit k is bit n - k of the index; the last row flips no bit
    flip = rows ^ (1 << np.arange(n, -1, -1)[:, None] >> 1)
    c = amps[flip]  # c_{I_k} in row k - 1, c_I in row n
    parts = c.view(np.float64)
    np.ldexp(parts, -e, out=parts)
    sq = np.einsum("ki,ki->k", parts, parts)  # sum |c_{I_k}|^2 for each k, then N
    # q[k, j] = sum s_I conj(c_I) c_{I_k} with s_I = (-1)^{i_j}, -1 where the
    # flip of qubit j clears its bit, and 1 for j = n
    conj = c[-1].conj()
    q = c @ np.where(flip < rows, -conj, conj).T
    z, w, flip2, zero = q[:-1, -1], q.diagonal()[:-1], sq[:-1], np.zeros(n)
    expected = np.array([  # the 3 x 3 block of triple k, by rows, then its theta-row entries negated
        np.full(n, sq[-1]), z.imag, w.real,
        z.imag, flip2, zero,
        w.real, zero, flip2,
        q[-1, :-1].real, w.imag, z.real,
    ]).T
    block = np.einsum("kikj->kij", g[:-1, :-1].reshape(n, 3, n, 3)).reshape(n, 9)
    got = np.concatenate([block, -g[-1, :-1].reshape(n, 3)], axis=1)
    bound = GRAM_RTOL * sq.max()
    if not (np.abs(got - expected).max() <= bound and abs(g[-1, -1] - sq[-1]) <= bound):
        raise AssertionError("Gram matrix breaks the inner-product table on the row sample")


def _sample_certifies(psi: PureState, e: int, tol: float) -> bool:
    """Whether the rows of M for the amplitudes S of `_sample_tables` alone
    prove that M has full rank, for a float state; only a yes is an answer.

    M_S^T M_S <= M^T M, so `_certifies_full_rank` decides from the Gram
    matrix g of M_S (`_sample_gram`) with a bound T on trace(M^T M) =
    (3n+1) |psi|^2, every column of M having the norm of psi.  A yes rests
    on g, which is then checked against the inner-product table on S
    (`_check_sample_gram`); a no draws nothing from g, and the full path
    decides, checking all of M.

    Nothing of the size of psi is copied.  The power of two 2^-e brings
    the largest real or imaginary part to [1/2, 1) (`factorize`), and
    scales only the rows of S.  T is c fl(|2^-e psi|^2) (1 + 4 N u),
    N = 2^n, from a sum of the 2N rounded nonnegative squares of the parts,
    within gamma_{2N+1} of the exact sum in any order of summation (Higham,
    sec. 3.1).  While e >= -500 the sum is one `vdot` of psi, times 2^-e
    twice: underflow loses at most 2N 2^-1075 in all, below N 2^-74 of
    |psi|^2 >= 2^(2e - 2).  Below that |psi|^2 itself may underflow, so the
    parts are first scaled by 2^-e, exactly, in chunks of 2^14 amplitudes,
    and the chunks' `vdot`s added: the same squares summed in another
    order, where underflow loses below N 2^-1074 of |2^-e psi|^2 >= 1/4.
    Scaled parts that round to subnormals (e > 0) add below 2^-1070 N; and
    the factor covers these and the three roundings of T for N >= 2^10.
    """
    n, amps = psi.n, psi.amps
    if e >= -500:
        norm2 = np.vdot(amps, amps).real * 2.0**-e * 2.0**-e
    else:
        parts, step = amps.view(np.float64), 2 << 14  # 2^14 amplitudes
        # 2^n amplitudes: every chunk fills the one buffer exactly
        chunk, norm2 = np.empty(min(step, parts.size)), 0.0
        for lo in range(0, parts.size, step):
            x = np.ldexp(parts[lo : lo + step], -e, out=chunk)
            norm2 += np.vdot(x, x)
    total = (3 * n + 1) * norm2 * (1 + 4 * (1 << n) * 2.0**-53)
    g = _sample_gram(amps.real, amps.imag, n, e)
    if not _certifies_full_rank(g, 2 * _sample_tables(n)[0].size, tol, total):
        return False
    _check_sample_gram(g, amps, n, e)
    return True


def _live_rows(num: np.ndarray, n: int) -> np.ndarray | None:
    """The amplitude indices L = supp psi + {I ^ e_k : I in supp psi} of the
    rows of M that can be nonzero, ascending, for Gaussian-integer numerators
    `num`; None when L need not be smaller than all 2^n indices.

    Row I of M holds only c_I and its single flips c_{I_k} (`_build_real`),
    so it is zero unless I or some I_k lies in the support.  L is marked in
    one boolean array over the indices, which costs less memory than sorting
    the flips into a unique list.
    """
    mark = num[0] != 0
    mark |= num[1] != 0
    support = np.flatnonzero(mark)
    if support.size * (n + 1) >= mark.size:
        return None
    mark[support ^ (1 << np.arange(n)[:, None])] = True
    return np.flatnonzero(mark)


def _gram(fill, n: int, maxabs: int, live: np.ndarray | None = None) -> np.ndarray:
    """(den M)^T (den M) over the integers, summed over the row blocks of
    den M that `fill` writes, for entries of magnitude at most `maxabs`:
    the rows of the amplitude indices `live` in chunks of BLOCK_AMPS, or of
    all 2^n amplitudes when `live` is None.  Rows left out must be zero.

    Each block T, filled transposed, adds T T^T.  While rows * maxabs^2 <
    2**53, with rows = 2 |live| (2^{n+1} for all amplitudes), every product
    and partial sum is an integer that float64 holds exactly, so the sum
    runs in float64 through BLAS and is converted once; int64 while rows *
    maxabs^2 < 2**62; object ints otherwise.  rank(M^T M) = rank(M) and
    ker(M^T M) = ker(M) for real M, and the Gram matrix is only (3n+1) x
    (3n+1).
    """
    amps = 1 << n if live is None else live.size
    cols, step = 3 * n + 1, min(amps, BLOCK_AMPS)
    bound = 2 * amps * maxabs * maxabs
    dtype = np.float64 if bound < 2**53 else np.int64 if bound < 2**62 else object
    buf = np.empty((cols, 2, step), dtype=dtype)
    g = 0
    for lo in range(0, amps, step):
        block = buf[:, :, : amps - lo]  # all of buf but for a last, short chunk
        fill(slice(lo, lo + step) if live is None else live[lo : lo + step], block)
        t = block.reshape(cols, -1)
        g = g + (t @ t.T if dtype is np.float64 else np.einsum("ij,kj->ik", t, t))
    return g.astype(np.int64) if dtype is np.float64 else g


def exact_rank_kernel(gram: np.ndarray) -> tuple[int, list[tuple[Fraction, ...]]]:
    """Rank and kernel basis of an integer matrix (a Gram matrix here).

    Gauss-Jordan elimination, fraction-free, with no tolerance: each updated
    row is divided by the gcd of its entries, so everything stays a small
    Python int.  Kernel vectors, Fraction tuples, are read off the reduced
    rows; they are the ones the reduced row echelon form gives, one per free
    column.
    """
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
    # Fraction(a, b) costs a gcd: build one only for a nonzero entry, and
    # share one zero and one 1
    zero, one = Fraction(0), Fraction(1)
    basis = []
    for fc in (c for c in range(size) if c not in pivots):
        v = [zero] * size
        v[fc] = one
        for r, pc in enumerate(pivots):
            if rows[r][fc]:
                v[pc] = Fraction(-rows[r][fc], rows[r][pc])
        basis.append(tuple(v))
    return len(pivots), basis


def _factorize_exact(gram: np.ndarray) -> tuple[int, list[tuple[Fraction, ...]]]:
    """Rank and kernel basis of M from its integer Gram matrix, after the
    exact table check (`exact_rank_kernel`)."""
    _check_gram(gram, 0)
    return exact_rank_kernel(gram)


def factorize(psi: PureState, tol: float = DEFAULT_TOL) -> tuple[int, list | np.ndarray]:
    """Rank of M and a basis of ker M for the state psi, from M consumed
    block by block, after the Gram matrix is checked against the
    inner-product table.

    Float state of more than one row block: first the Gram matrix of the
    rows of a sample S of amplitudes, which proves full rank for almost
    every state (`_sample_certifies`).  Otherwise (`_factorize_float`) one
    pass over the row blocks sums the float Gram matrix of all of M, whose
    shifted Cholesky factorization proves full rank for almost every
    one-block state, and folds them into a TSQR; when g cannot decide, one
    SVD of the (3n+1)^2 factor R, tol deciding the rank from its singular
    values.  The kernel is an orthonormal array of row vectors.
    Exact state: the integer Gram matrix summed over the rows that can be
    nonzero (`_live_rows`, `_gram`) and eliminated with no tolerance
    (`_factorize_exact`); the kernel is a list of Fraction tuples.
    """
    if psi.is_exact:
        return _factorize_exact(_gram(_state_fill(psi), psi.n, max_abs(psi.num), _live_rows(psi.num, psi.n)))
    # rank and kernel ignore scale: 2^-e brings the largest real or imaginary
    # part to [1/2, 1) exactly, so the Gram check cannot underflow before its
    # rounding error does (ldexp, as 2.0**-e overflows for a subnormal maximum)
    parts = psi.amps.view(np.float64)
    e = math.frexp(max(parts.max(), -parts.min()))[1]
    if 1 << psi.n > BLOCK_AMPS and _sample_certifies(psi, e, tol):
        return 3 * psi.n + 1, np.zeros((0, 3 * psi.n + 1))
    re, im = np.ldexp(psi.amps.real, -e), np.ldexp(psi.amps.imag, -e)
    return _factorize_float(lambda rows, out: _build_real(re, im, psi.n, rows, out), psi.n, tol)


def rank_float(m: OrbitMatrix, tol: float = DEFAULT_TOL) -> int:
    return _factorize_float(_matrix_fill(m.as_float()), m.n, tol)[0]


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
    return list(_factorize_float(_matrix_fill(m.as_float()), m.n, tol)[1])


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


def _is_exact_isotropy(psi: PureState, elem: IsotropyElement) -> bool:
    """X.psi == i theta psi exactly, for an exact state and rational X, theta.

    Scaled by den and by the lcm L of the coordinates' denominators, the
    residual is sum_k X'_k (re + i im) - i theta' (re + i im) on the
    Gaussian-integer numerators, with integer X'_k = L X_k = P_k + i Q_k
    summed from the basis matrices' (P, Q) and applied with `on_qubit`:
    (P + iQ)(re + i im) = (P re - Q im) + i (Q re + P im).  Python ints
    throughout, and no M is built.
    """
    coeffs = [c for co in elem.x.coords for c in (co.t, co.r, co.s)]
    scale = math.lcm(*(c.denominator for c in coeffs), elem.theta.denominator)
    ints = [int(c * scale) for c in coeffs]
    theta = int(elem.theta * scale)
    re, im = psi.num.astype(object)
    res_re, res_im = theta * im, -theta * re
    for k in range(1, psi.n + 1):
        w = ints[3 * k - 3 : 3 * k]
        if any(w):
            pq = sum(c * basis for c, basis in zip(w, _BASIS_PQ.transpose(1, 0, 2, 3)))
            (p_re, q_re), (p_im, q_im) = on_qubit(pq, re, k), on_qubit(pq, im, k)
            res_re = res_re + p_re - q_im
            res_im = res_im + q_re + p_im
    return not (res_re.any() or res_im.any())


def verify_isotropy(
    psi: PureState, elem: IsotropyElement, tol: float = DEFAULT_TOL
) -> bool:
    """Check ||X.psi - i theta psi|| <= tol * ||psi|| (exactly, when possible)."""
    if elem.x.n != psi.n:
        raise ValueError("algebra element and state act on different qubit counts")
    if psi.is_exact and elem.x.is_exact and isinstance(elem.theta, Fraction):
        return _is_exact_isotropy(psi, elem)
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


def dump_csv(psi: PureState, path: str) -> None:
    """Write M as CSV with labeled header row and row labels, streamed one
    row block at a time; exact entries are written as the rationals they
    stand for, not as scaled integers."""
    re, im = _parts(psi)
    n, cols, amps = psi.n, 3 * psi.n + 1, min(1 << psi.n, BLOCK_AMPS)
    # a block of rows of M in order; `_build_real` writes its transposed view
    rows = np.empty((amps, 2, cols), dtype=np.result_type(re, im))
    entry = (lambda v: str(Fraction(v, psi.den))) if psi.is_exact else str
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["row"] + [f"{c}{k}" for k in range(1, n + 1) for c in "trs"] + ["theta"]
        )
        for lo in range(0, 1 << n, amps):
            _build_real(re, im, n, slice(lo, lo + amps), rows.transpose(2, 1, 0))
            for i, row in enumerate(rows.reshape(2 * amps, cols)):
                label = f"{lo + i // 2:0{n}b}:{'im' if i % 2 else 're'}"
                writer.writerow([label] + [entry(v) for v in row.tolist()])
