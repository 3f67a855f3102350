"""SO(3) frame rotations on su(2), their SU(2) lifts, and the local-unitary
adjustments that turn general triple-span dependencies into A-column form.

The lift uses the quaternion picture: under (A, B, C) <-> (i, j, k) a unit
quaternion q acts on pure quaternions by x -> q x q~ with rotation matrix
Rot(q), and the matrix U corresponding to q~ then satisfies
U^dag X U = Rot(q)(X).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inner_products import HypothesisViolationError
from .lie_action import (
    A_MATRIX,
    SU2_BASIS,
    LocalUnitary,
    SU2GroupElement,
    apply_group,
    on_qubit,
    triple_columns,
    within_atol,
)
from .orbit_matrix import numerical_rank, DEFAULT_TOL
from .states import PureState

INTERSECTION_TOL = 1e-8
# the bound on |R^T R - I| entrywise that a rotation, and a frame, must meet
ORTHONORMAL_ATOL = 1e-12
_EYE3 = np.eye(3)


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
        if abs(np.linalg.det(r) - 1) > 1e-12:
            raise ValueError("matrix must have determinant +1")
        r.setflags(write=False)
        object.__setattr__(self, "matrix", r)

    def apply_su2(self, x: np.ndarray) -> np.ndarray:
        """Image of a 2x2 su(2) matrix under the rotation of coordinates."""
        return np.tensordot(self.matrix @ su2_coordinates(x), SU2_BASIS, 1)


def su2_coordinates(x: np.ndarray) -> np.ndarray:
    """(t, r, s) with x = t A + r B + s C."""
    return np.array([x[0, 0].imag, x[0, 1].real, x[0, 1].imag])


def so3_from_frame(first, second=None) -> SO3Rotation:
    """Rotation sending e_A to `first` and, when given, e_C to `second`.

    The remaining column(s) are completed by cross products with the sign
    fixed so det = +1.  The frame is held to the bound `SO3Rotation` puts on
    R^T R, computed from the same R, so a frame it would refuse is refused
    here, in the frame's terms: a squared length or a dot product off by
    more than ORTHONORMAL_ATOL.
    """
    first = np.asarray(first, dtype=float)
    if second is None:
        # any unit vector orthogonal to `first` works for the middle column
        probe = np.eye(3)[int(np.argmin(np.abs(first)))]
        middle = probe - np.dot(probe, first) * first
        middle /= np.linalg.norm(middle)
        r = np.column_stack([first, middle, np.cross(first, middle)])
    else:
        second = np.asarray(second, dtype=float)
        r = np.column_stack([first, np.cross(second, first), second])
    gram = r.T @ r
    # `not <=` so that a NaN fails too
    if not abs(gram[0, 0] - 1) <= ORTHONORMAL_ATOL:
        raise ValueError("first image vector must be unit length")
    if second is not None and not abs(gram[2, 2] - 1) <= ORTHONORMAL_ATOL:
        raise ValueError("second image vector must be unit length")
    if not within_atol(gram, _EYE3, ORTHONORMAL_ATOL):
        raise ValueError("image vectors must be orthogonal")
    return SO3Rotation(r)


def _quaternion_from_rotation(r: np.ndarray) -> np.ndarray:
    """Unit quaternion q = (w, x, y, z) with Rot(q) = r (Shepperd's method)."""
    trace = np.trace(r)
    if trace > 0:
        w = 0.5 * np.sqrt(1.0 + trace)
        x = (r[2, 1] - r[1, 2]) / (4 * w)
        y = (r[0, 2] - r[2, 0]) / (4 * w)
        z = (r[1, 0] - r[0, 1]) / (4 * w)
    else:
        i = int(np.argmax(np.diag(r)))
        j, k = (i + 1) % 3, (i + 2) % 3
        q = np.empty(4)
        q[i + 1] = 0.5 * np.sqrt(1.0 + r[i, i] - r[j, j] - r[k, k])
        q[0] = (r[k, j] - r[j, k]) / (4 * q[i + 1])
        q[j + 1] = (r[j, i] + r[i, j]) / (4 * q[i + 1])
        q[k + 1] = (r[k, i] + r[i, k]) / (4 * q[i + 1])
        w, x, y, z = q
    q = np.array([w, x, y, z])
    return q / np.linalg.norm(q)


def su2_lift(rotation: SO3Rotation) -> SU2GroupElement:
    """U in SU(2) with U^dag X U = R(X) for all X in su(2).

    The +-U ambiguity is resolved by making the first nonzero component of
    (Re U11, Im U11, Re U12, Im U12) positive.
    """
    w, x, y, z = _quaternion_from_rotation(rotation.matrix)
    # U corresponds to the conjugate quaternion (w, -x, -y, -z)
    x, y, z = -x, -y, -z
    comps = np.array([w, x, y, z])
    first_nonzero = next(v for v in comps if abs(v) > 1e-12)
    if first_nonzero < 0:
        comps = -comps
    w, x, y, z = comps
    u = np.array([[w + 1j * x, y + 1j * z], [-y + 1j * z, w - 1j * x]])
    # U^dag (A, B, C) U against the rotated basis, all three at once:
    # image m is sum_i R[i, m] (A, B, C)_i
    lifted = u.conj().T @ SU2_BASIS @ u
    if not within_atol(lifted, np.tensordot(rotation.matrix.T, SU2_BASIS, 1), 1e-10):
        raise RuntimeError("adjoint lift verification failed")
    return SU2GroupElement(u)


def _real_triple_matrix(psi: PureState, k: int) -> np.ndarray:
    """2^{n+1} x 3 real matrix of the triple T_k's column identifications."""
    return np.column_stack([vec.view(float) for vec in triple_columns(psi, k)])


def triple_span_dim(psi: PureState, slots, tol: float = DEFAULT_TOL) -> int:
    """Real dimension of the span of the triples T_k for k in slots."""
    slots = sorted(set(slots))
    if not slots:
        raise ValueError("slot subset must be nonempty")
    stacked = np.hstack([_real_triple_matrix(psi, k) for k in slots])
    return numerical_rank(stacked, tol)


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
    directions = []
    xi_scaled = []
    for coeffs, x in zip(phi_coeffs, xi):
        vec = np.asarray(coeffs, dtype=float)
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise ValueError("phi coefficient vector must be nonzero")
        directions.append(vec / norm)
        xi_scaled.append(float(x) * norm)

    # hypothesis: sum xi_i phi_i = 0 with phi_i in <T_{j_i}>
    phi_sum = sum(
        on_qubit(x * np.tensordot(direction, SU2_BASIS, 1), psi.amps, j)
        for j, direction, x in zip(slots, directions, xi_scaled)
    )
    scale = psi.norm() * max(1.0, sum(abs(x) for x in xi_scaled))
    residual = float(np.linalg.norm(phi_sum))
    if residual > 1e-10 * scale:
        raise HypothesisViolationError("sum xi_i phi_i does not vanish", residual)

    factors = [SU2GroupElement.identity() for _ in range(psi.n)]
    for j, direction in zip(slots, directions):
        factors[j - 1] = su2_lift(so3_from_frame(direction))
    u = LocalUnitary(tuple(factors))
    psi_adj = apply_group(u, psi)

    post = sum(
        x * on_qubit(A_MATRIX, psi_adj.amps, j) for j, x in zip(slots, xi_scaled)
    )
    post_residual = float(np.linalg.norm(post))
    if post_residual > 1e-10 * scale:
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
    if triple_span_dim(psi, [l, lp]) > 4:
        raise HypothesisViolationError(
            "triples span more than four dimensions", float("nan")
        )
    norm = psi.norm()
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

    factors = [SU2GroupElement.identity() for _ in range(psi.n)]
    factors[l - 1] = su2_lift(so3_from_frame(coords_l[0], coords_l[1]))
    factors[lp - 1] = su2_lift(so3_from_frame(coords_lp[0], coords_lp[1]))
    u = LocalUnitary(tuple(factors))
    psi_adj = apply_group(u, psi)

    a_and_c = SU2_BASIS[::2]
    diff = on_qubit(a_and_c, psi_adj.amps, l) - on_qubit(a_and_c, psi_adj.amps, lp)
    residual = float(max(map(np.linalg.norm, diff)))
    if residual > 1e-10 * norm:
        raise RuntimeError(
            f"adjusted common-column residual too large: {residual:.3e}"
        )
    return u, psi_adj
