"""GF(2) sign-matrix machinery: kernel/ones-preimage witnesses, zero rows of
the diagonal sign-sum matrix, parity sets, and parity-class partitions.

Given reals xi_1..xi_m, the sign patterns r whose sums
sum_i (-1)^{r_i} xi_i vanish are found by meeting in the middle (Horowitz and
Sahni, 1974): the 2^{m/2} sign sums of each half of xi are listed, and one
list, sorted, is bisected for the negation of each sum in the other.  That
takes O(2^{m/2} m) time and O(2^{m/2}) memory, plus the output of up to
C(m, m/2) rows; neither the 2^m sums nor the 2^m x 2^m diagonal matrix is
ever formed.  Stacking the zero rows r into a 0/1 matrix L, the
corresponding +-1 matrix E kills xi, so L either has a nontrivial GF(2)
kernel or maps some v to the all-ones vector; the support of v is the
parity set.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational, Real
from typing import Optional, Sequence

import numpy as np

from .orbit_matrix import exact_rank_kernel
from .states import MultiIndex

ENUMERATION_CAP = 24
DEFAULT_ZERO_TOL = 1e-9


class NoWitnessError(ValueError):
    """The +-1 matrix E is injective, so the lemma's hypothesis fails."""


class InternalContradictionError(RuntimeError):
    """Neither witness kind exists; would falsify the kernel lemma."""


class CapacityError(ValueError):
    """More coefficients than the 2^m enumeration cap allows."""


@dataclass(frozen=True)
class Z2Matrix:
    """A 0/1 matrix over GF(2); rows stored as bitmasks (bit j = column j+1)."""

    rows: tuple[int, ...]
    ncols: int

    def __post_init__(self):
        if self.ncols < 1:
            raise ValueError("need at least one column")
        if any(r >> self.ncols for r in self.rows):
            raise ValueError("row has bits beyond ncols")

    @classmethod
    def from_bit_rows(cls, bit_rows: Sequence[Sequence[int]]) -> "Z2Matrix":
        ncols = len(bit_rows[0])
        masks = []
        for row in bit_rows:
            if len(row) != ncols or any(b not in (0, 1) for b in row):
                raise ValueError("rows must be equal-length 0/1 sequences")
            masks.append(sum(b << j for j, b in enumerate(row)))
        return cls(rows=tuple(masks), ncols=ncols)

    def bit_rows(self) -> list[tuple[int, ...]]:
        return [
            tuple((r >> j) & 1 for j in range(self.ncols)) for r in self.rows
        ]

    def apply(self, v_mask: int) -> tuple[int, ...]:
        """L v over GF(2), for v given as a bitmask."""
        return tuple(bin(r & v_mask).count("1") & 1 for r in self.rows)


@dataclass(frozen=True)
class Z2Witness:
    """Outcome of the sign-matrix lemma for a concrete L."""

    kind: str  # "kernel" or "ones-preimage"
    v: tuple[int, ...]
    parity_set: frozenset[int]  # support of v, 1-based
    parity: int  # 0 for kernel, 1 for ones-preimage

    def __post_init__(self):
        if self.kind not in ("kernel", "ones-preimage"):
            raise ValueError(f"unknown witness kind {self.kind!r}")


def _mask_to_bits(mask: int, m: int) -> tuple[int, ...]:
    return tuple([mask >> j & 1 for j in range(m)])


def _gf2_eliminate(rows: list[int], ncols: int) -> tuple[list[int], list[int]]:
    """Row-reduce bitmask rows; returns (reduced pivot rows, pivot columns).

    Each pivot row is added to every other row with a bit in its column,
    the pivot rows before it included, so the form is fully reduced.
    """
    work = list(rows)
    pivots: list[int] = []
    reduced: list[int] = []
    for col in range(ncols):
        pivot = next((i for i, r in enumerate(work) if (r >> col) & 1), None)
        if pivot is None:
            continue
        prow = work.pop(pivot)
        reduced = [r ^ prow if (r >> col) & 1 else r for r in reduced]
        work = [r ^ prow if (r >> col) & 1 else r for r in work]
        reduced.append(prow)
        pivots.append(col)
    return reduced, pivots


def _kernel_and_ones(matrix: Z2Matrix) -> tuple[list[int], Optional[int]]:
    """A basis of ker L, one bitmask per free column, and a v with
    L v = (1,...,1) over GF(2) or None, from one reduction of [L | 1].

    The ones column, bit ncols, is reduced last: its pivot, if any, is the
    row (0,...,0 | 1), which leaves L's reduced columns as L alone gives
    them and makes the system inconsistent.
    """
    m = matrix.ncols
    reduced, pivots = _gf2_eliminate([r | (1 << m) for r in matrix.rows], m + 1)
    # the v on the pivot columns with L v = column c of [L | 1]; with its
    # own bit added, that of a free column c < m is a kernel vector
    def solve(c: int) -> int:
        return sum(1 << pc for row, pc in zip(reduced, pivots) if (row >> c) & 1)

    basis = [solve(fc) | 1 << fc for fc in range(m) if fc not in pivots]
    return basis, None if pivots and pivots[-1] == m else solve(m)


def gf2_kernel_basis(matrix: Z2Matrix) -> list[int]:
    """Basis of ker L over GF(2), one bitmask per free column."""
    return _kernel_and_ones(matrix)[0]


def gf2_solve_ones(matrix: Z2Matrix) -> Optional[int]:
    """A v with L v = (1,...,1) over GF(2), or None if inconsistent."""
    return _kernel_and_ones(matrix)[1]


def solve_sign_kernel(matrix: Z2Matrix) -> Z2Witness:
    """The lemma's witness: a GF(2) kernel vector of L, else a preimage of
    the all-ones vector.  Requires the +-1 matrix E to be singular.

    Determinism: the kernel is tried first, and among kernel basis vectors
    the lexicographically smallest bit pattern (v_1, v_2, ...) wins.
    """
    m = matrix.ncols
    # rank E <= its row count, so E with fewer rows than columns is singular
    # without an elimination; else E = ((-1)^{L_jk}) from the masks, as
    # Python ints for any ncols, and E^T E has E's rank over Q
    if len(matrix.rows) >= m:
        e = np.array([[1 - 2 * (r >> j & 1) for j in range(m)] for r in matrix.rows], dtype=np.int64)
        if exact_rank_kernel(e.T @ e)[0] == m:
            raise NoWitnessError("the +-1 matrix E has trivial kernel")
    kernel, ones = _kernel_and_ones(matrix)
    if kernel:
        v, parity = min(kernel, key=lambda v: _mask_to_bits(v, m)), 0
    elif ones is not None:
        v, parity = ones, 1
    else:
        raise InternalContradictionError("E singular but L has trivial kernel and no ones-preimage")
    bits = _mask_to_bits(v, m)
    support = frozenset(j + 1 for j, b in enumerate(bits) if b)
    return Z2Witness(("kernel", "ones-preimage")[parity], bits, support, parity)


def _scaled(xi: Sequence, tol: float) -> tuple[list, float]:
    """xi as the Python numbers whose sign sums are tested, and the bound on
    a zero sum: integers and 0 for rational xi, else floats and tol * ||xi||_1.

    Rationals are scaled to integers by the lcm of their denominators, and
    floats by 2^-e, which brings the largest |xi_i| to [1/2, 1) exactly, so
    no sign sum, nor ||xi||_1, can overflow.  Only a coefficient below about
    2^-1021 times the largest loses bits, to the subnormal range.  Next to a
    float, a rational beyond the float range raises ValueError.
    """
    exact = True
    for j, v in enumerate(xi):
        kind = type(v)
        if kind is Fraction or kind is int:  # before the slower ABC tests
            continue
        if kind is bool or not isinstance(v, Real):
            raise ValueError(f"xi[{j}] = {v!r} is not a real number")
        if not isinstance(v, Rational):
            if not math.isfinite(v):
                raise ValueError(f"xi[{j}] = {v!r} is not finite")
            exact = False
    if exact:
        pairs = [(int(v.numerator), int(v.denominator)) for v in xi]
        scale = math.lcm(*(d for _, d in pairs))
        return [p * (scale // d) for p, d in pairs], 0
    floats = []
    for j, v in enumerate(xi):
        try:
            floats.append(float(v))
        except OverflowError:
            raise ValueError(f"xi[{j}] is too large for a float, and xi has float entries") from None
    e = math.frexp(max(map(abs, floats)))[1]
    floats = [math.ldexp(v, -e) for v in floats]
    return floats, tol * math.fsum(map(abs, floats))


def _signed_sums(values: Sequence) -> list:
    """sum_j (-1)^{bit j of a} values[j] for every a < 2^len(values), by
    doubling: the sums with the last sign bit set follow those without."""
    sums = [0]
    for v in values:
        sums = [s + v for s in sums] + [s - v for s in sums]
    return sums


def _zero_masks(xi: Sequence, tol: float) -> list[int]:
    """The zero rows of `zero_rows` as ascending bitmasks: bit j-1 is the
    sign bit r_j.

    Meet in the middle: a sign pattern is a pattern a of the first h = m // 2
    signs and b of the rest, and it is a zero row when low[a] + high[b] is.
    The high sums are sorted once, and each low sum bisects them for the
    window around -low[a].  For floats the window is widened by a few ulps,
    more than -low[a] +- bound can lose to rounding, and each candidate is
    tested again as low[a] + high[b].
    """
    m = len(xi)
    if m > ENUMERATION_CAP:
        raise CapacityError(f"m={m} exceeds enumeration cap {ENUMERATION_CAP}")
    values, bound = _scaled(xi, tol)
    if not any(values):
        raise ValueError("xi must be nonempty and not all zero")
    h = m // 2
    low, high = _signed_sums(values[:h]), _signed_sums(values[h:])
    order = sorted(range(len(high)), key=high.__getitem__)
    keys = [high[b] for b in order]
    # scaled sign sums are below m in magnitude, so 4 ulps of m + bound
    # exceed what rounding takes from -s +- pad and adds to |s + t| near the
    # bound; a zero bound (the exact path, or tol = 0) needs none, as a float
    # sum s + t is 0 only for t = -s
    pad = bound + 4 * math.ulp(m + bound) if bound else bound
    masks = []
    for a, s in enumerate(low):
        for i in range(bisect_left(keys, -s - pad), bisect_right(keys, -s + pad)):
            if abs(s + keys[i]) <= bound:
                masks.append(a | order[i] << h)
    masks.sort()
    return masks


def zero_rows(xi: Sequence, tol: float = DEFAULT_ZERO_TOL) -> list[tuple[int, ...]]:
    """All sign patterns r in {0,1}^m with sum_i (-1)^{r_i} xi_i = 0, in
    ascending order of the bitmask sum_i r_i 2^{i-1}.

    The zero test is exact for rational xi, else |sum| <= tol * ||xi||_1.
    A str, a bool, a non-finite entry or, next to a float, a rational beyond
    the float range raises ValueError naming its index.
    The search meets in the middle: it holds the 2^{m/2} sign sums of each
    half of xi, in O(2^{m/2}) memory and O(2^{m/2} m) time, plus the output
    of up to C(m, m/2) rows (xi = (1, ..., 1) has that many for even m).
    """
    return [_mask_to_bits(r, len(xi)) for r in _zero_masks(xi, tol)]


def find_parity_set(xi: Sequence, tol: float = DEFAULT_ZERO_TOL) -> Z2Witness:
    """Stack the zero rows into L and extract the parity set K.

    Postconditions re-checked here, independently of the solver: |K| is even
    and sum_{k in K} r_k mod 2, L applied to the mask of K, is the same for
    every zero row.
    """
    masks = _zero_masks(xi, tol)
    if not masks:
        raise ValueError("no zero rows: the diagonal sign matrix is invertible")
    matrix = Z2Matrix(rows=tuple(masks), ncols=len(xi))
    witness = solve_sign_kernel(matrix)
    support = witness.parity_set
    if len(support) % 2 != 0:
        raise InternalContradictionError("parity set has odd size")
    parities = set(matrix.apply(sum(1 << (k - 1) for k in support)))
    if parities != {witness.parity}:
        raise InternalContradictionError(
            f"parity not constant over zero rows: {parities}"
        )
    return witness


def partition_parity_classes(
    n: int, slots: Sequence[int], parity: int
) -> tuple[list[MultiIndex], list[MultiIndex]]:
    """Split all n-bit multi-indices by the parity of their bits in `slots`.

    Returns (P, P') with P the class matching `parity`; both halves have
    exactly 2^{n-1} members.
    """
    slots = sorted(set(slots))
    if not slots:
        raise ValueError("slot subset must be nonempty")
    if slots[0] < 1 or slots[-1] > n:
        raise ValueError(f"slots must lie in 1..{n}")
    in_class: list[MultiIndex] = []
    out_class: list[MultiIndex] = []
    for idx in range(1 << n):
        index = MultiIndex.from_int(idx, n)
        p = sum(index.bits[k - 1] for k in slots) % 2
        (in_class if p == parity else out_class).append(index)
    return in_class, out_class
