"""SO(3) frame rotations on su(2), their SU(2) lifts, and the local-unitary
adjustments that turn general triple-span dependencies into A-column form.

The lift uses the quaternion picture: under (A, B, C) <-> (i, j, k) a unit
quaternion q acts on pure quaternions by x -> q x q~ with rotation matrix
Rot(q), and the matrix U corresponding to q~ then satisfies
U^dag X U = Rot(q)(X).

Objects of at most four entries (frame vectors, quaternions, the lift's
sign rule and U) are computed on Python floats, each in the order of
operations numpy would use, so their values are numpy's to the bit; a
numpy call on a 3-vector costs several microseconds, its float
expression a fraction of one.  Numpy keeps the work the size of psi and
the validators' matrix checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inner_products import HypothesisViolationError, _slot_columns
from .lie_action import (
    A_MATRIX,
    SU2_BASIS,
    LocalUnitary,
    SU2GroupElement,
    apply_group,
    on_qubit,
    within_atol,
)
from .orbit_matrix import DEFAULT_TOL, _sigma_rank, numerical_rank
from .states import PureState

INTERSECTION_TOL = 1e-8
# the bound on |R^T R - I| entrywise that a rotation, and a frame, must meet
ORTHONORMAL_ATOL = 1e-12
_EYE3 = np.eye(3)
# the basis stack as rows of four entries: c @ _BASIS_ROWS is the flattened
# t A + r B + s C for coordinates c = (t, r, s), and R^T @ _BASIS_ROWS the
# flattened images of A, B and C under the rotation R
_BASIS_ROWS = SU2_BASIS.reshape(3, 4)


class DegenerateIntersectionError(ValueError):
    """Triple-span intersection too thin to pick two orthogonal vectors."""


@dataclass(frozen=True)
class SO3Rotation:
    """A rotation of su(2) coordinates in the basis (A, B, C):
    |R^T R - I| <= ORTHONORMAL_ATOL in every entry and |det R - 1| <= 1e-12."""

    matrix: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.matrix, dtype=float)
        if r.shape != (3, 3):
            raise ValueError("rotation must be a 3x3 matrix")
        if not within_atol(r.T @ r, _EYE3, ORTHONORMAL_ATOL):
            raise ValueError("matrix is not orthogonal")
        if not abs(np.linalg.det(r) - 1) <= 1e-12:
            raise ValueError("matrix must have determinant +1")
        r.setflags(write=False)
        object.__setattr__(self, "matrix", r)

    def apply_su2(self, x: np.ndarray) -> np.ndarray:
        """Image of a 2x2 su(2) matrix under the rotation of coordinates."""
        return ((self.matrix @ su2_coordinates(x)) @ _BASIS_ROWS).reshape(2, 2)


def su2_coordinates(x: np.ndarray) -> np.ndarray:
    """(t, r, s) with x = t A + r B + s C."""
    return np.array([x[0, 0].imag, x[0, 1].real, x[0, 1].imag])


def so3_from_frame(first, second=None) -> SO3Rotation:
    """Rotation sending e_A to `first` and, when given, e_C to `second`.

    The remaining column(s) are completed by cross products with the sign
    fixed so det = +1.  R is checked once, by `SO3Rotation`.  Only a refused
    R has its Gram matrix R^T R read again, to name the frame term off by
    more than ORTHONORMAL_ATOL: the first squared length, the second, then
    any entry, which is the bound the rotation applied.
    """
    first = np.asarray(first, dtype=float).tolist()
    f0, f1, f2 = first
    if second is None:
        # any unit vector orthogonal to `first` works for the middle column:
        # the axis e_i of first's first smallest entry, less its projection
        size = [abs(f0), abs(f1), abs(f2)]
        i = size.index(min(size))
        middle = [float(j == i) - first[i] * f for j, f in enumerate(first)]
        norm = float(np.linalg.norm(middle))
        m0, m1, m2 = (m / norm for m in middle)
        # first x middle, as np.cross orders it
        r = np.array([
            [f0, m0, f1 * m2 - f2 * m1],
            [f1, m1, f2 * m0 - f0 * m2],
            [f2, m2, f0 * m1 - f1 * m0],
        ])
    else:
        s0, s1, s2 = np.asarray(second, dtype=float).tolist()
        # second x first, as np.cross orders it
        r = np.array([
            [f0, s1 * f2 - s2 * f1, s0],
            [f1, s2 * f0 - s0 * f2, s1],
            [f2, s0 * f1 - s1 * f0, s2],
        ])
    try:
        return SO3Rotation(r)
    except ValueError:
        # the rotation's R^T R check failed, or its determinant one: say
        # which frame term is off, else give the rotation's own refusal
        g = (r.T @ r).tolist()
        # `not <=` so that a NaN fails too
        if not abs(g[0][0] - 1) <= ORTHONORMAL_ATOL:
            raise ValueError("first image vector must be unit length") from None
        if second is not None and not abs(g[2][2] - 1) <= ORTHONORMAL_ATOL:
            raise ValueError("second image vector must be unit length") from None
        # within_atol(gram, I, ORTHONORMAL_ATOL), entry by entry
        if not all(
            abs(v - (a == b)) <= ORTHONORMAL_ATOL
            for a, row in enumerate(g)
            for b, v in enumerate(row)
        ):
            raise ValueError("image vectors must be orthogonal") from None
        raise


def _quaternion_from_rotation(r: np.ndarray) -> list[float]:
    """Unit quaternion q = (w, x, y, z) with Rot(q) = r (Shepperd's method)."""
    m = r.tolist()
    diag = [m[0][0], m[1][1], m[2][2]]
    trace = diag[0] + diag[1] + diag[2]
    if trace > 0:
        w = 0.5 * math.sqrt(1.0 + trace)
        q = [
            w,
            (m[2][1] - m[1][2]) / (4 * w),
            (m[0][2] - m[2][0]) / (4 * w),
            (m[1][0] - m[0][1]) / (4 * w),
        ]
    else:
        # the first largest diagonal entry, as np.argmax picks it
        i = diag.index(max(diag))
        j, k = (i + 1) % 3, (i + 2) % 3
        q = [0.0] * 4
        q[i + 1] = 0.5 * math.sqrt(1.0 + m[i][i] - m[j][j] - m[k][k])
        q[0] = (m[k][j] - m[j][k]) / (4 * q[i + 1])
        q[j + 1] = (m[j][i] + m[i][j]) / (4 * q[i + 1])
        q[k + 1] = (m[k][i] + m[i][k]) / (4 * q[i + 1])
    norm = float(np.linalg.norm(q))
    return [v / norm for v in q]


def su2_lift(rotation: SO3Rotation) -> SU2GroupElement:
    """U in SU(2) with U^dag X U = R(X) for all X in su(2).

    The +-U ambiguity is resolved by making the first nonzero component of
    (Re U11, Im U11, Re U12, Im U12) positive.
    """
    w, x, y, z = _quaternion_from_rotation(rotation.matrix)
    # U corresponds to the conjugate quaternion (w, -x, -y, -z)
    comps = [w, -x, -y, -z]
    if next(v for v in comps if abs(v) > 1e-12) < 0:
        comps = [-v for v in comps]
    w, x, y, z = comps
    u = np.array([[w + 1j * x, y + 1j * z], [-y + 1j * z, w - 1j * x]])
    # U^dag (A, B, C) U against the rotated basis, all three at once:
    # image m is sum_i R[i, m] (A, B, C)_i
    lifted = (u.conj().T @ SU2_BASIS @ u).reshape(3, 4)
    if not within_atol(lifted, rotation.matrix.T @ _BASIS_ROWS, 1e-10):
        raise RuntimeError("adjoint lift verification failed")
    return SU2GroupElement(u)


def _lift_slots(
    psi: PureState, rotations: list[tuple[int, SO3Rotation]]
) -> tuple[LocalUnitary, PureState]:
    """U with each (slot, rotation) lifted to SU(2) in its slot and the
    identity elsewhere, and U psi."""
    factors = [SU2GroupElement.identity()] * psi.n
    for j, rotation in rotations:
        factors[j - 1] = su2_lift(rotation)
    u = LocalUnitary(tuple(factors))
    return u, apply_group(u, psi)


def _real_triple_matrix(psi: PureState, k: int) -> np.ndarray:
    """2^{n+1} x 3 real matrix of the triple T_k's column identifications,
    from the state's memoised triple (`inner_products._slot_columns`)."""
    return np.column_stack([vec.view(float) for vec in _slot_columns(psi, k)])


def _stacked_triples(psi: PureState, slots) -> np.ndarray:
    """The triples T_k, k in slots, as one row per column identification:
    the transpose of the parts' column-stacked matrix, with the same
    singular values.  The triples are the state's memoised ones, so a
    report or an adjustment on the same state computes each of them once."""
    slots = sorted(set(slots))
    if not slots:
        raise ValueError("slot subset must be nonempty")
    return np.concatenate([_slot_columns(psi, k) for k in slots]).view(float)


def triple_span_dim(psi: PureState, slots, tol: float = DEFAULT_TOL) -> int:
    """Real dimension of the span of the triples T_k for k in slots."""
    return numerical_rank(_stacked_triples(psi, slots), tol)


def adjust_dependency(
    psi: PureState, slots, phi_coeffs, xi
) -> tuple[LocalUnitary, PureState]:
    """Rotate each listed slot so a triple-span dependency becomes an
    A-column dependency: sum_i xi_i A_{j_i} |U psi> = 0.

    phi_coeffs[i] = (alpha, beta, gamma) are the T_{j_i} coordinates of
    phi_i.  Direction vectors are normalized to unit length here and xi is
    rescaled to compensate, which leaves the dependency unchanged.
    """
    slots = list(slots)
    if len(slots) != len(phi_coeffs) or len(slots) != len(xi):
        raise ValueError("slots, phi_coeffs and xi must have equal length")
    if len(set(slots)) != len(slots):
        raise ValueError(f"slots must be distinct, got {slots}")
    xi = [float(x) for x in xi]
    if not all(map(math.isfinite, xi)):
        raise ValueError(f"xi must be finite, got {xi}")
    vecs = [np.asarray(coeffs, dtype=float) for coeffs in phi_coeffs]
    if not all(np.isfinite(vec).all() for vec in vecs):
        raise ValueError("phi_coeffs must be finite")
    directions = []
    xi_scaled = []
    for vec, x in zip(vecs, xi):
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise ValueError("phi coefficient vector must be nonzero")
        directions.append(vec / norm)
        xi_scaled.append(x * norm)

    # hypothesis: sum xi_i phi_i = 0 with phi_i in <T_{j_i}>
    phi_sum = sum(
        on_qubit(x * (direction @ _BASIS_ROWS).reshape(2, 2), psi.amps, j)
        for j, direction, x in zip(slots, directions, xi_scaled)
    )
    scale = psi.norm() * max(1.0, sum(abs(x) for x in xi_scaled))
    residual = float(np.linalg.norm(phi_sum))
    # `not <=` so that a NaN fails too
    if not residual <= 1e-10 * scale:
        raise HypothesisViolationError("sum xi_i phi_i does not vanish", residual)

    u, psi_adj = _lift_slots(psi, [(j, so3_from_frame(d)) for j, d in zip(slots, directions)])

    post = sum(
        x * on_qubit(A_MATRIX, psi_adj.amps, j) for j, x in zip(slots, xi_scaled)
    )
    post_residual = float(np.linalg.norm(post))
    if not post_residual <= 1e-10 * scale:
        raise RuntimeError(
            f"adjusted A-column dependency residual too large: {post_residual:.3e}"
        )
    return u, psi_adj


def adjust_two_common(
    psi: PureState, l: int, lp: int
) -> tuple[LocalUnitary, PureState]:
    """Rotate slots l and lp so their A and C columns coincide.

    Requires dim<T_l, T_lp> <= 4, which forces the intersection of the two
    triple spans to be at least two dimensional; two orthogonal intersection
    vectors become the common A and C images.
    """
    if l == lp:
        raise ValueError(f"slots l and lp must differ, got {l} twice")
    if triple_span_dim(psi, [l, lp]) > 4:
        # the dimension, by numerical_rank's rule, and sigma_5 / sigma_1 from
        # one set of singular values
        svals = np.linalg.svd(_stacked_triples(psi, [l, lp]), compute_uv=False)
        raise HypothesisViolationError(
            f"triples span {_sigma_rank(svals, DEFAULT_TOL)} dimensions, more than four",
            float(svals[4] / svals[0]),
        )
    norm = psi.norm()
    # the operands stay 2^{n+1} x 3 and C-ordered: in another layout BLAS
    # sums the product below in another order, and the frames move by ulps
    q_l = _real_triple_matrix(psi, l) / norm
    q_lp = _real_triple_matrix(psi, lp) / norm
    # principal angles between the triple spans: singular values near 1
    # flag common directions
    u_mat, svals, vt = np.linalg.svd(q_l.T @ q_lp)
    common = int(np.count_nonzero(svals > 1 - INTERSECTION_TOL))
    if common < 2:
        raise DegenerateIntersectionError(
            f"intersection dimension {common} < 2 at tolerance {INTERSECTION_TOL}"
        )
    coords_l = (u_mat[:, 0], u_mat[:, 1])  # phi, phi' in T_l coordinates
    coords_lp = (vt[0], vt[1])  # the same vectors in T_lp coordinates

    rotations = [(l, so3_from_frame(*coords_l)), (lp, so3_from_frame(*coords_lp))]
    u, psi_adj = _lift_slots(psi, rotations)

    a_and_c = SU2_BASIS[::2]
    diff = on_qubit(a_and_c, psi_adj.amps, l) - on_qubit(a_and_c, psi_adj.amps, lp)
    residual = float(max(map(np.linalg.norm, diff)))
    if not residual <= 1e-10 * norm:
        raise RuntimeError(
            f"adjusted common-column residual too large: {residual:.3e}"
        )
    return u, psi_adj
