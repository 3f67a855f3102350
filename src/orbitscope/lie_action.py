"""The su(2)^n action on n-qubit state vectors.

Basis convention for su(2), fixed once and used everywhere:

    A = [[i, 0], [0, -i]]   (= i sigma_z)
    B = [[0, 1], [-1, 0]]   (= i sigma_y)
    C = [[0, i], [i, 0]]    (= i sigma_x)

so X = t*A + r*B + s*C = [[i t, u], [-conj(u), -i t]] with u = r + i s.

X = (X_1, ..., X_n) acts as sum_k X_k on the k-th tensor factor: the
algebra action and the triple columns apply 2x2 matrices to qubit k with
`on_qubit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from typing import Sequence

import numpy as np

from .states import PureState

A_MATRIX = np.array([[1j, 0], [0, -1j]])
B_MATRIX = np.array([[0, 1], [-1, 0]], dtype=complex)
C_MATRIX = np.array([[0, 1j], [1j, 0]])
SU2_BASIS = np.stack([A_MATRIX, B_MATRIX, C_MATRIX])
# SU2_BASIS = P + iQ as the stack (P, Q) of Python-int matrices
_BASIS_PQ = np.stack([SU2_BASIS.real, SU2_BASIS.imag]).astype(int).astype(object)


@dataclass(frozen=True)
class Su2Coordinates:
    """Coordinates (t, r, s) of t*A + r*B + s*C; entries real or Fraction."""

    t: Real
    r: Real
    s: Real

    def matrix(self) -> np.ndarray:
        t, r, s = float(self.t), float(self.r), float(self.s)
        return np.array([[1j * t, r + 1j * s], [-r + 1j * s, -1j * t]])

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, Fraction) for v in (self.t, self.r, self.s))


@dataclass(frozen=True)
class LocalAlgebraElement:
    """An element (X_1, ..., X_n) of su(2)^n."""

    coords: tuple[Su2Coordinates, ...]

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def is_exact(self) -> bool:
        return all(c.is_exact for c in self.coords)

    @classmethod
    def from_triples(cls, triples: Sequence[tuple]) -> "LocalAlgebraElement":
        return cls(tuple(Su2Coordinates(*trip) for trip in triples))


def within_atol(x: np.ndarray, b: np.ndarray, atol: float) -> bool:
    """Whether |x - b| <= atol in every entry: np.isclose's bound
    |x - b| <= atol + rtol |b| with rtol = 0, which for a finite b makes the
    same decisions as np.allclose(x, b, rtol=0, atol=atol).  A NaN or
    infinite entry of x fails it."""
    return bool(np.abs(x - b).max() <= atol)


_EYE2 = np.eye(2)


@dataclass(frozen=True)
class SU2GroupElement:
    """A 2x2 special unitary matrix: |U^dag U - I| <= 1e-12 in every entry
    and |det U - 1| <= 1e-12."""

    matrix: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.matrix, dtype=complex)
        if u.shape != (2, 2):
            raise ValueError("SU(2) element must be a 2x2 matrix")
        if not within_atol(u.conj().T @ u, _EYE2, 1e-12):
            raise ValueError("matrix is not unitary")
        if abs(np.linalg.det(u) - 1) > 1e-12:
            raise ValueError("matrix must have determinant 1")
        u.setflags(write=False)
        object.__setattr__(self, "matrix", u)

    @classmethod
    def identity(cls) -> "SU2GroupElement":
        return _SU2_IDENTITY


_SU2_IDENTITY = SU2GroupElement(np.eye(2, dtype=complex))  # validated once


@dataclass(frozen=True)
class LocalUnitary:
    """An element (g_1, ..., g_n) of SU(2)^n."""

    factors: tuple[SU2GroupElement, ...]

    @property
    def n(self) -> int:
        return len(self.factors)


def random_su2(rng: np.random.Generator) -> SU2GroupElement:
    """Haar-uniform SU(2) element via a normalized Gaussian quaternion."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return SU2GroupElement(
        np.array([[w + 1j * x, y + 1j * z], [-y + 1j * z, w - 1j * x]])
    )


def random_local_unitary(n: int, rng: np.random.Generator) -> LocalUnitary:
    return LocalUnitary(tuple(random_su2(rng) for _ in range(n)))


def _qubit_first(n: int, k: int, u: np.ndarray, amps: np.ndarray) -> bool:
    """Whether `on_qubit` moves qubit k to the front.  The stacked matmul
    costs about 0.3 us for each of its 2^{k-1} tiny products; the qubit-first
    one copies the amplitudes twice instead, and those copies cost more page
    faults as n grows.  From both timed at n = 1..16, single matrices and
    the basis stack, one BLAS thread: the qubit-first layout is picked only
    where it was faster, and it is slower for no n <= 8.  A Python-int
    matmul costs the same per element either way, so object arrays keep the
    stacked view (the qubit-first one was 10-20% slower at n = 8..12).  The
    dtype is resolved only after the n and k tests pass."""
    return n >= 8 and k >= max(6, n - 3) and np.result_type(u, amps) != object


def on_qubit(u: np.ndarray, amps: np.ndarray, k: int) -> np.ndarray:
    """A 2x2 matrix u, or a stack of them of shape (..., 2, 2), applied to
    qubit k (1-based) of the amplitudes; the result has shape (..., 2^n).

    Qubit k is the middle axis of the (2^{k-1}, 2, 2^{n-k}) view of the
    amplitudes, so the action is one matmul on that view: a stack of 2^{k-1}
    products.  For large k (`_qubit_first`) that axis is moved to the front
    instead, one matmul on (2, 2^{n-1}) acts on it, and the axes are swapped
    back.  A single matrix broadcasts over the view as it is; only a stack
    needs the extra axis that lines it up against the 2^{k-1} products.
    """
    n = amps.size.bit_length() - 1
    if not 1 <= k <= n:
        raise ValueError(f"slot k={k} out of range 1..{n}")
    view = amps.reshape(1 << (k - 1), 2, 1 << (n - k))
    if _qubit_first(n, k, u, amps):
        lead = u.shape[:-2]
        front = view.swapaxes(0, 1)  # (2, 2^{k-1}, 2^{n-k})
        out = np.matmul(u, front.reshape(2, -1)).reshape(lead + front.shape)
        return out.swapaxes(-3, -2).reshape(lead + (1 << n,))
    if u.ndim == 2:
        return np.matmul(u, view).reshape(1 << n)
    return np.matmul(u[..., None, :, :], view).reshape(u.shape[:-2] + (1 << n,))


def apply_algebra(x: LocalAlgebraElement, psi: PureState) -> np.ndarray:
    """Amplitudes of X . |psi> = sum_k X_k|psi>, X_k acting on qubit k;
    cost O(n 2^n), no 2^n x 2^n operator is formed."""
    if x.n != psi.n:
        raise ValueError(f"algebra element acts on {x.n} qubits, state has {psi.n}")
    return sum(on_qubit(c.matrix(), psi.amps, k) for k, c in enumerate(x.coords, 1))


def triple_columns(psi: PureState, k: int) -> np.ndarray:
    """The complex column vectors A_k|psi>, B_k|psi>, C_k|psi> of the triple
    T_k, as the rows of one 3 x 2^n array.

    Computed afresh on every call, unlike the oracle's triples
    (`inner_products._slot_columns`), which are memoised on the state:
    `verify --suite triples` walks every slot of states up to its `--n-max`,
    and a memo would hold all 3n * 2^n numbers of each state at once (about
    4.2 GB at n = 22) where one triple at a time needs about 200 MB."""
    return on_qubit(SU2_BASIS, psi.amps, k)


def triple_columns_exact(psi: PureState, k: int) -> tuple[tuple, tuple, tuple]:
    """Exact-rational triple columns, as (re, im) Fraction pairs.

    With the basis written P + iQ (integer P, Q), the columns are
    (P re - Q im) + i (Q re + P im) on the Gaussian-integer numerators (as
    Python ints), divided by the state's denominator only on return.
    """
    if not psi.is_exact:
        raise ValueError("exact path requires an exact state")
    re, im = psi.num.astype(object)
    (p_re, q_re), (p_im, q_im) = on_qubit(_BASIS_PQ, re, k), on_qubit(_BASIS_PQ, im, k)
    return tuple(
        tuple((Fraction(a, psi.den), Fraction(b, psi.den)) for a, b in zip(x.tolist(), y.tolist()))
        for x, y in zip(p_re - q_im, q_re + p_im)
    )


def apply_group(u: LocalUnitary, psi: PureState) -> PureState:
    """The state (g_1 x ... x g_n)|psi>, applied one tensor factor at a time
    with `on_qubit`; the shared identity factor is skipped."""
    if u.n != psi.n:
        raise ValueError(f"unitary acts on {u.n} qubits, state has {psi.n}")
    amps = psi.amps
    for k, g in enumerate(u.factors, 1):
        if g is not _SU2_IDENTITY:
            amps = on_qubit(g.matrix, amps, k)
    return PureState(n=psi.n, amps=amps)
