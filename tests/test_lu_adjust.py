import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitscope import inner_products, lu_adjust
from orbitscope.inner_products import HypothesisViolationError, orthogonality_report
from orbitscope.lie_action import (
    A_MATRIX,
    B_MATRIX,
    C_MATRIX,
    SU2_BASIS as SU2_STACK,
    LocalUnitary,
    SU2GroupElement,
    Su2Coordinates,
    apply_group,
    random_su2,
    triple_columns,
    within_atol,
)
from orbitscope.lu_adjust import (
    ORTHONORMAL_ATOL,
    DegenerateIntersectionError,
    SO3Rotation,
    adjust_dependency,
    adjust_two_common,
    so3_from_frame,
    su2_lift,
    triple_span_dim,
)
from orbitscope.orbit_matrix import DEFAULT_TOL, numerical_rank, orbit_dimension
from orbitscope.states import (
    MultiIndex,
    PureState,
    make_basis,
    make_cat,
    make_singlet_product,
    sample_haar_state,
    tensor,
)

from paper_oracles import su2_coordinates, su2_exp

SU2_BASIS = (A_MATRIX, B_MATRIX, C_MATRIX)


def adjoint_rotation(u):
    """The SO(3) matrix of X -> U^dag X U in the (A, B, C) coordinates."""
    cols = [su2_coordinates(u.conj().T @ x @ u) for x in SU2_BASIS]
    return np.column_stack(cols)


def random_rotation(rng):
    return SO3Rotation(adjoint_rotation(random_su2(rng).matrix))


# The numpy formulations of the frame, quaternion, lift and span functions,
# kept as oracles: lu_adjust computes the same quantities on Python floats in
# the same order of operations, and must reproduce these to the bit.


def np_so3_from_frame(first, second=None):
    first = np.asarray(first, dtype=float)
    if second is None:
        probe = np.eye(3)[int(np.argmin(np.abs(first)))]
        middle = probe - np.dot(probe, first) * first
        middle /= np.linalg.norm(middle)
        r = np.column_stack([first, middle, np.cross(first, middle)])
    else:
        second = np.asarray(second, dtype=float)
        r = np.column_stack([first, np.cross(second, first), second])
    gram = r.T @ r
    if not abs(gram[0, 0] - 1) <= ORTHONORMAL_ATOL:
        raise ValueError("first image vector must be unit length")
    if second is not None and not abs(gram[2, 2] - 1) <= ORTHONORMAL_ATOL:
        raise ValueError("second image vector must be unit length")
    if not within_atol(gram, np.eye(3), ORTHONORMAL_ATOL):
        raise ValueError("image vectors must be orthogonal")
    return SO3Rotation(r)


def np_quaternion_from_rotation(r):
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


def np_su2_lift(rotation):
    w, x, y, z = np_quaternion_from_rotation(rotation.matrix)
    x, y, z = -x, -y, -z
    comps = np.array([w, x, y, z])
    first_nonzero = next(v for v in comps if abs(v) > 1e-12)
    if first_nonzero < 0:
        comps = -comps
    w, x, y, z = comps
    u = np.array([[w + 1j * x, y + 1j * z], [-y + 1j * z, w - 1j * x]])
    lifted = u.conj().T @ SU2_STACK @ u
    if not within_atol(lifted, np.tensordot(rotation.matrix.T, SU2_STACK, 1), 1e-10):
        raise RuntimeError("adjoint lift verification failed")
    return SU2GroupElement(u)


def np_triple_span_dim(psi, slots, tol=DEFAULT_TOL):
    stacked = np.hstack([
        np.column_stack([vec.view(float) for vec in triple_columns(psi, k)])
        for k in sorted(set(slots))
    ])
    return numerical_rank(stacked, tol)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def outcome(fn, *args):
    """('ok', bytes of the matrix) or (exception type, message)."""
    try:
        result = fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return "ok", np.asarray(result.matrix).tobytes()


def rotation_about(axis, angle):
    """Rodrigues' rotation by `angle` about the unit `axis`."""
    n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    k = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def quaternion_branch(r):
    """'trace' or the index of the diagonal entry Shepperd's method pivots on."""
    return "trace" if np.trace(r) > 0 else int(np.argmax(np.diag(r)))


def lift_flips(r):
    """Whether the sign rule negates the conjugate quaternion."""
    w, x, y, z = np_quaternion_from_rotation(r)
    return next(v for v in (w, -x, -y, -z) if abs(v) > 1e-12) < 0


class TestSu2Coordinates:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t, r, s = rng.standard_normal(3)
            x = t * A_MATRIX + r * B_MATRIX + s * C_MATRIX
            assert np.allclose(su2_coordinates(x), [t, r, s])

    def test_basis_coordinates(self):
        assert list(su2_coordinates(A_MATRIX)) == [1, 0, 0]
        assert list(su2_coordinates(B_MATRIX)) == [0, 1, 0]
        assert list(su2_coordinates(C_MATRIX)) == [0, 0, 1]


class TestSO3Rotation:
    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            SO3Rotation(np.ones((3, 3)))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            SO3Rotation(np.diag([1.0, 1.0, -1.0]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            SO3Rotation(np.eye(2))


class TestSo3FromFrame:
    def test_first_column(self):
        v = np.array([3.0, 4.0, 0.0]) / 5.0
        rot = so3_from_frame(v)
        assert np.allclose(rot.matrix[:, 0], v)

    def test_second_maps_to_third_column(self):
        first = np.array([1.0, 0.0, 0.0])
        second = np.array([0.0, 1.0, 0.0])
        rot = so3_from_frame(first, second)
        assert np.allclose(rot.matrix[:, 0], first)
        assert np.allclose(rot.matrix[:, 2], second)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            so3_from_frame([1.0, 1.0, 0.0])

    def test_rejects_non_orthogonal_pair(self):
        with pytest.raises(ValueError):
            so3_from_frame([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_always_special_orthogonal(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        rot = so3_from_frame(v)  # constructor validates R^T R = I, det = +1
        assert np.allclose(rot.matrix[:, 0], v)


class TestSu2Lift:
    def test_identity(self):
        u = su2_lift(SO3Rotation(np.eye(3)))
        assert np.allclose(u.matrix, np.eye(2))

    def test_adjoint_property_random(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            rot = random_rotation(rng)
            u = su2_lift(rot).matrix
            for basis, image in zip(SU2_BASIS, rot.matrix.T):
                target = image[0] * A_MATRIX + image[1] * B_MATRIX + image[2] * C_MATRIX
                assert np.allclose(u.conj().T @ basis @ u, target, atol=1e-10)

    def test_half_turn_branches(self):
        # trace <= 0 exercises each branch of the quaternion extraction
        for diag in ([1, -1, -1], [-1, 1, -1], [-1, -1, 1]):
            rot = SO3Rotation(np.diag(np.array(diag, dtype=float)))
            u = su2_lift(rot).matrix
            for basis, image in zip(SU2_BASIS, rot.matrix.T):
                target = image[0] * A_MATRIX + image[1] * B_MATRIX + image[2] * C_MATRIX
                assert np.allclose(u.conj().T @ basis @ u, target, atol=1e-12)

    def test_a_to_b_rotation(self):
        rot = so3_from_frame([0.0, 1.0, 0.0])
        u = su2_lift(rot).matrix
        assert np.allclose(u.conj().T @ A_MATRIX @ u, B_MATRIX, atol=1e-12)

    def test_sign_rule_deterministic(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            rot = random_rotation(rng)
            u1 = su2_lift(rot).matrix
            u2 = su2_lift(SO3Rotation(rot.matrix.copy())).matrix
            assert np.array_equal(u1, u2)
            comps = [u1[0, 0].real, u1[0, 0].imag, u1[0, 1].real, u1[0, 1].imag]
            first = next(v for v in comps if abs(v) > 1e-12)
            assert first > 0


class TestWithinAtol:
    def test_matches_allclose_with_no_relative_term(self):
        rng = np.random.default_rng(41)
        atol = 1e-12
        for shape in ((2, 2), (3, 3), (3, 2, 2)):
            for _ in range(200):
                b = rng.standard_normal(shape)
                x = b + rng.choice([1e-14, 1e-12, 1e-10]) * rng.standard_normal(shape)
                assert within_atol(x, b, atol) == np.allclose(x, b, rtol=0, atol=atol)
                # one entry NaN, infinite, or exactly atol (or one ulp past it)
                # away from a zero entry of b
                i = rng.integers(b.size)
                b.flat[i] = 0.0
                for value in (np.nan, np.inf, -np.inf, atol, -atol, np.nextafter(atol, 1)):
                    x = b.copy()
                    x.flat[i] = value
                    expected = np.allclose(x, b, rtol=0, atol=atol)
                    assert within_atol(x, b, atol) == expected == (abs(value) <= atol), value
        # complex entries are bounded by their modulus, as np.isclose does
        z = np.eye(2) + 0.6e-12 + 0.8e-12j
        assert within_atol(z, np.eye(2), 1e-12) == np.allclose(z, np.eye(2), rtol=0, atol=1e-12)
        assert not within_atol(z, np.eye(2), 0.99e-12)

    def test_entries_exactly_at_atol_pass(self):
        assert within_atol(np.array([1.0 + 2.0**-20]), np.array([1.0]), 2.0**-20)
        assert not within_atol(np.array([1.0 + 2.0**-19]), np.array([1.0]), 2.0**-20)


class TestValidatorBounds:
    """The SU(2), SO(3) and lift checks bound each entry by an absolute
    tolerance alone.  np.allclose's default rtol = 1e-5 let a diagonal off by
    about 1e-5 through; a scaling with det 1 is the case that shows it."""

    def test_su2_refuses_a_det_one_scaling(self):
        a = 1 + 4e-6
        with pytest.raises(ValueError, match="not unitary"):
            SU2GroupElement(np.diag([a, 1 / a]))

    def test_so3_refuses_a_det_one_scaling(self):
        a = 1 + 4e-6
        with pytest.raises(ValueError, match="not orthogonal"):
            SO3Rotation(np.diag([a, 1 / a, 1.0]))

    def test_lift_check_refuses_a_det_one_scaling(self):
        # a matrix that skipped SO3Rotation's own check: the lift's
        # verification must see the 4e-6 scaling on its own
        a = 1 + 4e-6
        rot = object.__new__(SO3Rotation)
        object.__setattr__(rot, "matrix", np.diag([a, 1 / a, 1.0]))
        with pytest.raises(RuntimeError, match="lift verification"):
            su2_lift(rot)

    def test_bounds_at_the_stated_tolerance(self):
        SU2GroupElement(np.diag([np.exp(0.2j), np.exp(-0.2j)]) * (1 + 4e-13))
        with pytest.raises(ValueError, match="not unitary"):
            SU2GroupElement(np.diag([1 + 4e-12, 1 / (1 + 4e-12)]))
        SO3Rotation(np.diag([1 + 4e-13, 1 / (1 + 4e-13), 1.0]))
        with pytest.raises(ValueError, match="not orthogonal"):
            SO3Rotation(np.diag([1 + 4e-12, 1 / (1 + 4e-12), 1.0]))

    def test_every_producer_passes(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            u = random_su2(rng)
            su2_exp(Su2Coordinates(*(rng.standard_normal(3) * rng.choice([1e-3, 1.0, 10.0, 1e3]))))
            su2_lift(SO3Rotation(adjoint_rotation(u.matrix)))
            # SVD frames, as adjust_two_common takes them
            left, _, right = np.linalg.svd(rng.standard_normal((3, 3)))
            su2_lift(so3_from_frame(left[:, 0], left[:, 1]))
            su2_lift(so3_from_frame(right[0], right[1]))
            # normalized directions, as adjust_dependency takes them
            vec = rng.standard_normal(3) * rng.choice([1e-6, 1.0, 1e6])
            su2_lift(so3_from_frame(vec / np.linalg.norm(vec)))
        for direction in np.eye(3):
            su2_lift(so3_from_frame(direction))
            su2_lift(so3_from_frame(-direction))


class TestFrameBoundary:
    """so3_from_frame refuses what SO3Rotation would refuse, first and with
    its own message."""

    def test_nearly_orthogonal_pair_is_refused_as_a_frame(self):
        second = np.array([5e-11, 1.0, 0.0])
        second /= np.linalg.norm(second)
        assert abs(np.dot([1.0, 0.0, 0.0], second) - 5e-11) < 1e-20
        with pytest.raises(ValueError, match="image vectors must be orthogonal"):
            so3_from_frame([1.0, 0.0, 0.0], second)
        close = np.array([5e-13, 1.0, 0.0])
        so3_from_frame([1.0, 0.0, 0.0], close / np.linalg.norm(close))

    def test_lengths_are_held_to_the_rotation_bound(self):
        for first, second, message in (
            ([1 + 5e-11, 0.0, 0.0], None, "first image vector must be unit length"),
            ([1 + 5e-11, 0.0, 0.0], [0.0, 1.0, 0.0], "first image vector must be unit length"),
            ([1.0, 0.0, 0.0], [0.0, 1 + 5e-11, 0.0], "second image vector must be unit length"),
            ([np.nan, 0.0, 0.0], None, "first image vector must be unit length"),
        ):
            with pytest.raises(ValueError, match=message):
                so3_from_frame(first, second)
        so3_from_frame([1 + 2e-13, 0.0, 0.0])

    def test_no_frame_reaches_the_rotation_check(self):
        # frames off by 1e-14 .. 1e-10 either pass or are refused in the
        # frame's terms, never by SO3Rotation's own messages
        rng = np.random.default_rng(47)
        refused = 0
        for _ in range(400):
            left = np.linalg.svd(rng.standard_normal((3, 3)))[0]
            eps = 10.0 ** rng.uniform(-14, -10)
            first = left[:, 0] + eps * rng.standard_normal(3)
            second = left[:, 1] + eps * rng.standard_normal(3)
            for args in ((first,), (first, second)):
                try:
                    so3_from_frame(*args)
                except ValueError as exc:
                    assert "image vector" in str(exc), exc
                    refused += 1
        assert 0 < refused < 800


class TestFrameRefusals:
    """so3_from_frame builds its rotation first; a refused one is explained
    by the frame terms in their old order, each refusal a plain ValueError
    with its old message."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (([1 + 5e-11, 0.0, 0.0],), "first image vector must be unit length"),
            (([1 + 5e-11, 0.0, 0.0], [0.0, 1.0, 0.0]), "first image vector must be unit length"),
            (([1.0, 0.0, 0.0], [0.0, 1 + 5e-11, 0.0]), "second image vector must be unit length"),
            (([1.0, 0.0, 0.0], [5e-11 / math.hypot(5e-11, 1.0), 1 / math.hypot(5e-11, 1.0), 0.0]),
             "image vectors must be orthogonal"),
            (([np.nan, 0.0, 0.0],), "first image vector must be unit length"),
            (([1.0, 0.0, 0.0], [0.0, np.nan, 1.0]), "second image vector must be unit length"),
        ],
        ids=["non-unit first", "non-unit first of a pair", "non-unit second", "non-orthogonal", "nan first", "nan second"],
    )
    def test_type_and_message(self, args, message):
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError) as info:
                so3_from_frame(*args)
        assert type(info.value) is ValueError and str(info.value) == message

    def test_each_frame_is_checked_once_and_the_rotation_refusal_kept(self, monkeypatch):
        built = []

        class Counting(SO3Rotation):
            def __post_init__(self):
                built.append(1)
                super().__post_init__()

        monkeypatch.setattr(lu_adjust, "SO3Rotation", Counting)
        so3_from_frame([0.0, 0.6, 0.8])
        so3_from_frame([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        assert len(built) == 2

        # a frame whose terms all pass gets the rotation's own refusal
        class Refusing(SO3Rotation):
            def __post_init__(self):
                raise ValueError("matrix must have determinant +1")

        monkeypatch.setattr(lu_adjust, "SO3Rotation", Refusing)
        with pytest.raises(ValueError, match=r"^matrix must have determinant \+1$"):
            so3_from_frame([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])


class TestTripleSpanDim:
    def test_single_triple(self):
        assert triple_span_dim(make_singlet_product(1), [1]) == 3
        assert triple_span_dim(sample_haar_state(3, 5), [2]) == 3

    def test_singlet_pair_overlap(self):
        # the two triples of a singlet coincide as subspaces
        psi = make_singlet_product(1)
        assert triple_span_dim(psi, [1, 2]) == np_triple_span_dim(psi, [1, 2]) == 3

    def test_cat2_overlap(self):
        psi = make_cat(2)
        assert triple_span_dim(psi, [1, 2]) == np_triple_span_dim(psi, [1, 2]) == 3

    def test_generic_state(self):
        psi = sample_haar_state(2, 8)
        assert triple_span_dim(psi, [1, 2]) == np_triple_span_dim(psi, [1, 2]) == 5
        psi = sample_haar_state(3, 8)
        assert triple_span_dim(psi, [1, 2]) == np_triple_span_dim(psi, [1, 2]) == 6
        # repeated and unordered slots name the same set
        assert triple_span_dim(psi, [3, 1, 3]) == np_triple_span_dim(psi, [3, 1, 3]) == 6
        psi = make_singlet_product(2)
        assert triple_span_dim(psi, [1, 2, 3, 4]) == np_triple_span_dim(psi, [1, 2, 3, 4]) == 6

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            triple_span_dim(make_cat(2), [])


class TestAdjustDependency:
    def test_singlet_b_direction(self):
        psi = make_singlet_product(1)
        u, psi_adj = adjust_dependency(
            psi, [1, 2], [(0.0, 1.0, 0.0), (0.0, 1.0, 0.0)], [1.0, 1.0]
        )
        post = triple_columns(psi_adj, 1)[0] + triple_columns(psi_adj, 2)[0]
        assert np.linalg.norm(post) <= 1e-10 * psi.norm()
        assert abs(psi_adj.norm() - psi.norm()) <= 1e-12
        assert orbit_dimension(psi_adj) == orbit_dimension(psi)
        assert triple_span_dim(psi_adj, [1, 2]) == triple_span_dim(psi, [1, 2])

    def test_unnormalized_directions(self):
        psi = make_singlet_product(1)
        # scaling the direction by 5 and xi by 1/5 is the same dependency
        u, psi_adj = adjust_dependency(
            psi, [1, 2], [(0.0, 5.0, 0.0), (0.0, 1.0, 0.0)], [0.2, 1.0]
        )
        post = triple_columns(psi_adj, 1)[0] + triple_columns(psi_adj, 2)[0]
        assert np.linalg.norm(post) <= 1e-10 * psi.norm()

    def test_mixed_directions(self):
        # C_1 + C_2 also annihilates the singlet
        psi = make_singlet_product(1)
        u, psi_adj = adjust_dependency(
            psi, [1, 2], [(0.0, 0.0, 1.0), (0.0, 0.0, 1.0)], [1.0, 1.0]
        )
        post = triple_columns(psi_adj, 1)[0] + triple_columns(psi_adj, 2)[0]
        assert np.linalg.norm(post) <= 1e-10 * psi.norm()

    def test_untouched_slots_identity(self):
        psi = make_singlet_product(2)
        u, _ = adjust_dependency(
            psi, [3, 4], [(0.0, 1.0, 0.0), (0.0, 1.0, 0.0)], [1.0, 1.0]
        )
        assert np.allclose(u.factors[0].matrix, np.eye(2))
        assert np.allclose(u.factors[1].matrix, np.eye(2))

    def test_rejects_false_hypothesis(self):
        psi = sample_haar_state(2, 77)
        with pytest.raises(HypothesisViolationError):
            adjust_dependency(
                psi, [1, 2], [(0.0, 1.0, 0.0), (0.0, 1.0, 0.0)], [1.0, 1.0]
            )

    def test_rejects_mismatched_lengths(self):
        psi = make_singlet_product(1)
        with pytest.raises(ValueError):
            adjust_dependency(psi, [1, 2], [(0.0, 1.0, 0.0)], [1.0, 1.0])

    def test_rejects_zero_direction(self):
        psi = make_singlet_product(1)
        with pytest.raises(ValueError):
            adjust_dependency(
                psi, [1, 2], [(0.0, 0.0, 0.0), (0.0, 1.0, 0.0)], [1.0, 1.0]
            )


class TestAdjustTwoCommon:
    @pytest.mark.parametrize(
        "psi", [make_singlet_product(1), make_cat(2)], ids=["singlet", "cat2"]
    )
    def test_columns_coincide(self, psi):
        u, psi_adj = adjust_two_common(psi, 1, 2)
        cols_1 = triple_columns(psi_adj, 1)
        cols_2 = triple_columns(psi_adj, 2)
        assert np.linalg.norm(cols_1[0] - cols_2[0]) <= 1e-10 * psi.norm()
        assert np.linalg.norm(cols_1[2] - cols_2[2]) <= 1e-10 * psi.norm()
        assert abs(psi_adj.norm() - psi.norm()) <= 1e-12
        assert orbit_dimension(psi_adj) == orbit_dimension(psi)

    def test_three_qubit_instance(self):
        psi = tensor(make_cat(2), make_basis(MultiIndex((0,))))
        u, psi_adj = adjust_two_common(psi, 1, 2)
        cols_1 = triple_columns(psi_adj, 1)
        cols_2 = triple_columns(psi_adj, 2)
        assert np.linalg.norm(cols_1[0] - cols_2[0]) <= 1e-10 * psi.norm()
        assert np.linalg.norm(cols_1[2] - cols_2[2]) <= 1e-10 * psi.norm()

    def test_cat3_rejected(self):
        # all cat:3 triple pairs span five dimensions, violating the
        # four-dimension ceiling the construction needs; the refusal names
        # the dimension, with sigma_5 / sigma_1 of the stacked triples as
        # its finite residual
        psi = make_cat(3)
        with pytest.raises(HypothesisViolationError) as info:
            adjust_two_common(psi, 1, 3)
        message = str(info.value)
        assert message.startswith("triples span 5 dimensions, more than four (residual "), message
        stacked = np.hstack([np.column_stack([v.view(float) for v in triple_columns(psi, k)]) for k in (1, 3)])
        svals = np.linalg.svd(stacked, compute_uv=False)
        assert math.isfinite(info.value.residual) and info.value.residual > DEFAULT_TOL
        assert abs(info.value.residual - svals[4] / svals[0]) <= 1e-12
        assert np_triple_span_dim(psi, [1, 3]) == 5

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_fresh_and_full_memo_agree_bitwise(self, k):
        # the adjustment and the span check read the state's triple memo:
        # a state whose memo is full gives the bits of a fresh one
        rng = np.random.default_rng(70 + k)
        factors = [random_su2(rng) for _ in range(2 * k)]
        slots = [2 * k - 1, 2 * k]
        for j in slots:
            factors[j - 1] = SU2GroupElement.identity()
        dressed = apply_group(LocalUnitary(tuple(factors)), make_singlet_product(k))
        fresh, full = (PureState(n=2 * k, amps=dressed.amps) for _ in range(2))
        for j in range(1, 2 * k + 1):
            orthogonality_report(full, "triple", k=j)
        assert sorted(vars(full)[inner_products._MEMO]) == list(range(1, 2 * k + 1))
        assert triple_span_dim(fresh, slots) == triple_span_dim(full, slots) == np_triple_span_dim(dressed, slots)
        fresh = PureState(n=2 * k, amps=dressed.amps)
        (u_fresh, psi_fresh), (u_full, psi_full) = adjust_two_common(fresh, *slots), adjust_two_common(full, *slots)
        for a, b in zip(u_fresh.factors, u_full.factors):
            assert same_bits(a.matrix, b.matrix)
        assert same_bits(psi_fresh.amps, psi_full.amps)
        assert triple_span_dim(psi_fresh, slots) == triple_span_dim(psi_full, slots)

    def test_rejects_wide_span(self):
        with pytest.raises(HypothesisViolationError):
            adjust_two_common(sample_haar_state(2, 8), 1, 2)


class TestInputBoundary:
    """Non-finite coefficients and repeated slots are refused before any
    work is done, each with a ValueError that names the argument."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_xi(self, bad):
        psi = make_singlet_product(1)
        for xi in ([bad, 1.0], [1.0, bad]):
            with pytest.raises(ValueError, match="xi must be finite"):
                adjust_dependency(psi, [1, 2], [(0, 1, 0)] * 2, xi)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_phi_coeffs(self, bad):
        psi = make_singlet_product(1)
        for coeffs in ([(0, bad, 0), (0, 1, 0)], [(0, 1, 0), (bad, 1, 0)]):
            with pytest.raises(ValueError, match="phi_coeffs must be finite"):
                adjust_dependency(psi, [1, 2], coeffs, [1.0, 1.0])

    def test_nan_xi_fails_the_main_report_hypothesis(self):
        # a NaN residual is no residual within the bound
        psi = make_singlet_product(1)
        with pytest.raises(HypothesisViolationError):
            orthogonality_report(psi, "main", slots=[1, 2], xi=[math.nan, 1.0])

    def test_repeated_slots(self):
        psi = make_singlet_product(2)
        with pytest.raises(ValueError, match="slots l and lp must differ"):
            adjust_two_common(psi, 1, 1)
        with pytest.raises(ValueError, match="slots must be distinct"):
            adjust_dependency(psi, [1, 1], [(0, 1, 0)] * 2, [1.0, 1.0])
        with pytest.raises(ValueError, match="slots must be distinct"):
            adjust_dependency(psi, [3, 4, 3], [(0, 1, 0)] * 3, [1.0, 1.0, 1.0])


class TestFloatFormulationBits:
    """so3_from_frame, _quaternion_from_rotation and su2_lift against the
    numpy oracles above, bit for bit (triple_span_dim: TestTripleSpanDim)."""

    def test_directions(self):
        rng = np.random.default_rng(101)
        directions = [np.eye(3)[i] * sign for i in range(3) for sign in (1.0, -1.0)]
        directions += [np.array([0.0, -0.0, 1.0]), np.array([-0.0, 1.0, 0.0]), np.full(3, 3**-0.5)]
        for _ in range(300):
            vec = rng.standard_normal(3) * rng.choice([1e-6, 1.0, 1e6])
            vec[rng.integers(3)] *= rng.choice([1.0, 0.0, -0.0])
            directions.append(vec / np.linalg.norm(vec))
        for d in directions:
            new, old = so3_from_frame(d), np_so3_from_frame(d)
            assert same_bits(new.matrix, old.matrix), d
            assert same_bits(su2_lift(new).matrix, np_su2_lift(old).matrix), d
            # plain lists are taken as arrays are
            assert same_bits(so3_from_frame(list(d)).matrix, old.matrix)

    def test_frames(self):
        rng = np.random.default_rng(103)
        frames = [(np.eye(3)[i], np.eye(3)[j]) for i in range(3) for j in range(3) if i != j]
        for _ in range(300):
            left, _, right = np.linalg.svd(rng.standard_normal((3, 3)))
            frames += [(left[:, 0], left[:, 1]), (right[0], right[1])]
        for first, second in frames:
            new, old = so3_from_frame(first, second), np_so3_from_frame(first, second)
            assert same_bits(new.matrix, old.matrix)
            assert same_bits(su2_lift(new).matrix, np_su2_lift(old).matrix)

    def test_quaternion_branches(self):
        rng = np.random.default_rng(107)
        rotations = [SO3Rotation(np.eye(3))]
        rotations += [SO3Rotation(np.diag(d)) for d in ([1.0, -1, -1], [-1.0, 1, -1], [-1.0, -1, 1])]
        # diagonal ties: two-way (a half-turn about (1, 1, 0)) and three-way
        rotations += [SO3Rotation(np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, -1]]))]
        rotations += [SO3Rotation(np.full((3, 3), 2 / 3) - np.eye(3))]
        for _ in range(400):
            axis = rng.standard_normal(3)
            angle = rng.uniform(0, np.pi) if rng.random() < 0.3 else rng.uniform(2 * np.pi / 3, np.pi)
            rotations.append(SO3Rotation(rotation_about(axis, angle)))
        branches, ties, flips = set(), 0, 0
        for rot in rotations:
            r = rot.matrix
            branches.add(quaternion_branch(r))
            diag = np.diag(r)
            ties += quaternion_branch(r) != "trace" and int(np.sum(diag == diag.max())) > 1
            flips += lift_flips(r)
            new = lu_adjust._quaternion_from_rotation(r)
            assert same_bits(np.array(new), np_quaternion_from_rotation(r)), r
            assert same_bits(su2_lift(rot).matrix, np_su2_lift(rot).matrix), r
        assert branches == {"trace", 0, 1, 2}
        assert ties >= 2
        assert 0 < flips < len(rotations)

    def test_refusals_keep_their_messages(self):
        bad_frames = [
            ([1 + 5e-11, 0.0, 0.0],),
            ([0.0, 0.0, 0.0],),
            ([1 + 5e-11, 0.0, 0.0], [0.0, 1.0, 0.0]),
            ([1.0, 0.0, 0.0], [0.0, 1 + 5e-11, 0.0]),
            ([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
            ([1.0, 0.0, 0.0], [5e-11, 1.0, 0.0]),
        ]
        for bad in (np.nan, np.inf, -np.inf):
            for i in range(3):
                vec = [0.0, 0.0, 1.0]
                vec[i] = bad
                bad_frames += [(vec,), (vec, [0.0, 1.0, 0.0]), ([0.0, 1.0, 0.0], vec)]
        rng = np.random.default_rng(109)
        for _ in range(200):
            left = np.linalg.svd(rng.standard_normal((3, 3)))[0]
            eps = 10.0 ** rng.uniform(-14, -9)
            bad_frames += [(left[:, 0] + eps * rng.standard_normal(3),),
                           (left[:, 0], left[:, 1] + eps * rng.standard_normal(3))]
        refused = set()
        for args in bad_frames:
            with np.errstate(invalid="ignore", over="ignore"):  # matmul and np.cross on NaN
                new, old = outcome(so3_from_frame, *args), outcome(np_so3_from_frame, *args)
            assert new == old, args
            if new[0] != "ok":
                refused.add(new[1])
        assert refused == {
            "first image vector must be unit length",
            "second image vector must be unit length",
            "image vectors must be orthogonal",
        }
        for matrix, message in (
            (np.ones((3, 3)), "matrix is not orthogonal"),
            (np.diag([1.0, 1.0, -1.0]), "matrix must have determinant \\+1"),
            (np.eye(2), "rotation must be a 3x3 matrix"),
            (np.diag([np.nan, 1.0, 1.0]), "matrix is not orthogonal"),
        ):
            with pytest.raises(ValueError, match=message):
                SO3Rotation(matrix)
        for matrix, message in (
            (np.diag([1 + 4e-12, 1 / (1 + 4e-12)]), "matrix is not unitary"),
            (np.diag([1.0, -1.0]), "matrix must have determinant 1"),
            (np.eye(3), "SU\\(2\\) element must be a 2x2 matrix"),
        ):
            with pytest.raises(ValueError, match=message):
                SU2GroupElement(matrix)
        # rotations that skipped SO3Rotation's checks reach the lift check
        for matrix in (np.diag([1 + 4e-6, 1 / (1 + 4e-6), 1.0]), np.diag([1.0, 1.0, -1.0])):
            rot = object.__new__(SO3Rotation)
            object.__setattr__(rot, "matrix", matrix)
            with pytest.raises(RuntimeError, match="adjoint lift verification failed"):
                su2_lift(rot)
            assert outcome(su2_lift, rot) == outcome(np_su2_lift, rot)

    def test_adjustments_match_the_oracles(self, monkeypatch):
        # both adjustments run on the oracles give the same bits: the float
        # formulations change nothing downstream of the lift
        runs = []
        for patch in (False, True):
            with monkeypatch.context() as m:
                if patch:
                    m.setattr(lu_adjust, "so3_from_frame", np_so3_from_frame)
                    m.setattr(lu_adjust, "su2_lift", np_su2_lift)
                rng = np.random.default_rng(113)
                out = []
                for k in (1, 2, 3):
                    psi = make_singlet_product(k)
                    slots = [2 * k - 1, 2 * k]
                    coeffs = rng.standard_normal(3)
                    _, dep = adjust_dependency(psi, slots, [coeffs, coeffs], [1.0, 1.0])
                    _, two = adjust_two_common(psi, *slots)
                    out.append(dep.amps.tobytes() + two.amps.tobytes())
                runs.append(out)
        assert runs[0] == runs[1]
