from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitscope.inner_products import direct_inner_product
from orbitscope import lie_action
from orbitscope.lie_action import (
    _BASIS_PQ,
    A_MATRIX,
    B_MATRIX,
    C_MATRIX,
    LocalAlgebraElement,
    LocalUnitary,
    SU2GroupElement,
    Su2Coordinates,
    apply_algebra,
    apply_group,
    on_qubit,
    random_local_unitary,
    random_su2,
    su2_exp,
    triple_columns,
    triple_columns_exact,
)
from orbitscope.orbit_matrix import build_matrix
from orbitscope.states import (
    MultiIndex,
    PureState,
    make_basis,
    make_cat,
    make_singlet_product,
    make_singlet_product_plus_zero,
    sample_haar_state,
)

real = st.floats(-2, 2, allow_nan=False)


def kron_action_oracle(x: LocalAlgebraElement, psi):
    """Brute-force oracle: materialize sum_k I x ... x X_k x ... x I."""
    n = psi.n
    op = np.zeros((1 << n, 1 << n), dtype=complex)
    for k in range(n):
        factors = [np.eye(2, dtype=complex)] * n
        factors[k] = x.coords[k].matrix()
        term = factors[0]
        for f in factors[1:]:
            term = np.kron(term, f)
        op += term
    return op @ psi.amps


def exact_to_complex(pairs):
    return np.array([float(re) + 1j * float(im) for re, im in pairs])


class TestBasisMatrices:
    def test_pauli_identification(self):
        sigma_z = np.array([[1, 0], [0, -1]])
        sigma_y = np.array([[0, -1j], [1j, 0]])
        sigma_x = np.array([[0, 1], [1, 0]])
        assert np.array_equal(A_MATRIX, 1j * sigma_z)
        assert np.array_equal(B_MATRIX, 1j * sigma_y)
        assert np.array_equal(C_MATRIX, 1j * sigma_x)

    @given(real, real, real)
    def test_coordinates_give_traceless_skew_hermitian(self, t, r, s):
        x = Su2Coordinates(t, r, s).matrix()
        assert abs(np.trace(x)) < 1e-14
        assert np.allclose(x, -x.conj().T)


class TestApplyAlgebra:
    def test_singlet_diagonal_action_vanishes(self):
        # (X, X) annihilates the singlet, for every X in su(2)
        psi = make_singlet_product(1)
        rng = np.random.default_rng(0)
        for _ in range(10):
            t, r, s = rng.standard_normal(3)
            x = LocalAlgebraElement.from_triples([(t, r, s), (t, r, s)])
            assert np.linalg.norm(apply_algebra(x, psi)) < 1e-14

    def test_a_slot1_on_00(self):
        psi = make_basis(MultiIndex((0, 0)))
        x = LocalAlgebraElement.from_triples([(1.0, 0.0, 0.0), (0.0, 0.0, 0.0)])
        assert np.allclose(apply_algebra(x, psi), 1j * psi.amps)

    def test_b_slot1_on_0_matches_2x2_oracle(self):
        psi = make_basis(MultiIndex((0,)))
        x = LocalAlgebraElement.from_triples([(0.0, 1.0, 0.0)])
        expected = B_MATRIX @ np.array([1, 0])  # = -|1>
        assert np.allclose(apply_algebra(x, psi), expected)
        assert np.allclose(expected, [0, -1])

    def test_length_mismatch(self):
        psi = make_basis(MultiIndex((0, 0)))
        with pytest.raises(ValueError):
            apply_algebra(LocalAlgebraElement.from_triples([(1.0, 0.0, 0.0)] * 3), psi)

    @given(real, real)
    @settings(max_examples=25)
    def test_linearity(self, alpha, beta):
        psi = sample_haar_state(3, 77)
        rng = np.random.default_rng(5)
        x = LocalAlgebraElement.from_triples(rng.standard_normal((3, 3)))
        y = LocalAlgebraElement.from_triples(rng.standard_normal((3, 3)))
        combo = LocalAlgebraElement.from_triples(
            [
                (alpha * cx.t + beta * cy.t, alpha * cx.r + beta * cy.r, alpha * cx.s + beta * cy.s)
                for cx, cy in zip(x.coords, y.coords)
            ]
        )
        lhs = apply_algebra(combo, psi)
        rhs = alpha * apply_algebra(x, psi) + beta * apply_algebra(y, psi)
        assert np.allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize(
        "n, zero_slots",
        [pytest.param(n, (), id=str(n)) for n in range(1, 9)]
        + [pytest.param(n, slots, id=f"{n}-zero{''.join(map(str, slots))}")
           for n, slots in [(1, (1,)), (3, (2,)), (5, (1, 3, 5)), (8, (1, 2, 7, 8))]],
    )
    def test_matches_kron_oracle(self, n, zero_slots):
        rng = np.random.default_rng(n)
        psi = sample_haar_state(n, 100 + n)
        for _ in range(5):
            triples = rng.standard_normal((n, 3))
            triples[[k - 1 for k in zero_slots]] = 0
            x = LocalAlgebraElement.from_triples(triples)
            assert np.allclose(apply_algebra(x, psi), kron_action_oracle(x, psi), atol=1e-12)


class TestTripleColumns:
    def test_singlet_k1(self):
        psi = make_singlet_product(1)
        vec_a, vec_b, vec_c = triple_columns(psi, 1)
        assert np.array_equal(vec_a, [0, 1j, 1j, 0])

    def test_singlet_k2_negates_k1(self):
        psi = make_singlet_product(1)
        t1 = triple_columns(psi, 1)
        t2 = triple_columns(psi, 2)
        for v1, v2 in zip(t1, t2):
            assert np.array_equal(v2, -v1)

    def test_column_norms_equal_state_norm(self):
        for n, seed in [(1, 1), (3, 2), (4, 3)]:
            psi = sample_haar_state(n, seed)
            for k in range(1, n + 1):
                for vec in triple_columns(psi, k):
                    assert np.linalg.norm(vec) == pytest.approx(psi.norm(), rel=1e-12)

    def test_matches_apply_algebra_unit_elements(self):
        psi = sample_haar_state(3, 9)
        for k in range(1, 4):
            vec_a, vec_b, vec_c = triple_columns(psi, k)
            for unit, vec in zip(np.eye(3).tolist(), (vec_a, vec_b, vec_c)):
                triples = [(0.0, 0.0, 0.0)] * 3
                triples[k - 1] = unit
                x = LocalAlgebraElement.from_triples(triples)
                assert np.max(np.abs(apply_algebra(x, psi) - vec)) <= 1e-14

    def test_float_matches_the_orbit_matrix_bitwise(self):
        # triple T_k is columns 3k-3 .. 3k-1 of M and -i psi its last column,
        # each complexified from its interleaved real and imaginary rows
        rng = np.random.default_rng(12)
        rotated = [
            apply_group(random_local_unitary(psi.n, rng), psi)
            for psi in [make_singlet_product(1), make_singlet_product(3), make_singlet_product_plus_zero(2),
                        make_cat(3), make_cat(5), make_basis(MultiIndex((0, 1, 1, 0)))]
        ]
        haar = [sample_haar_state(n, 40 + n) for n in range(1, 11)]
        for psi in haar + rotated:
            columns = np.ascontiguousarray(build_matrix(psi).data.T).view(complex)
            for k in range(1, psi.n + 1):
                assert triple_columns(psi, k).tobytes() == columns[3 * k - 3 : 3 * k].tobytes()
            if psi.n <= 4:
                vectors = {"identity": psi.amps, "minus_i_psi": columns[3 * psi.n]}
                vectors.update(
                    ((op, k), columns[3 * k - 3 + j]) for k in range(1, psi.n + 1) for j, op in enumerate("ABC")
                )
                for left, u in vectors.items():
                    for right, v in vectors.items():
                        assert direct_inner_product(psi, left, right) == np.vdot(u, v)

    def test_exact_matches_float(self):
        psi = make_singlet_product(2)
        for k in range(1, 5):
            for exact, flt in zip(triple_columns_exact(psi, k), triple_columns(psi, k)):
                assert np.array_equal(exact_to_complex(exact), flt)

    def test_exact_matches_the_orbit_matrix(self):
        # column 3(k-1) + j of den * M, real and imaginary rows, over den:
        # an int64 state and an object-int one, both over a denominator
        rng = np.random.default_rng(6)
        for scale in (1, 11**20):
            nums = rng.integers(-99, 100, size=(2, 8)).astype(object) * scale
            psi = PureState.from_exact(
                [(Fraction(int(a), 6), Fraction(int(b), 35)) for a, b in zip(*nums)]
            )
            assert psi.num.dtype == (np.int64 if scale == 1 else object) and psi.den == 210
            m = build_matrix(psi).data.tolist()
            for k in range(1, 4):
                for j, column in enumerate(triple_columns_exact(psi, k)):
                    c = 3 * (k - 1) + j
                    assert column == tuple(
                        (Fraction(re[c], psi.den), Fraction(im[c], psi.den))
                        for re, im in zip(m[0::2], m[1::2])
                    )

    def test_exact_rejects_float_states(self):
        with pytest.raises(ValueError, match="exact"):
            triple_columns_exact(sample_haar_state(2, 0), 1)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            triple_columns(make_singlet_product(1), 3)
        with pytest.raises(ValueError):
            triple_columns_exact(make_singlet_product(1), 0)


def both_layouts(monkeypatch, u, amps, k):
    """on_qubit(u, amps, k) with the stacked view and with the qubit first."""
    results = []
    for front in (False, True):
        monkeypatch.setattr(lie_action, "_qubit_first", lambda n, k, u, amps, front=front: front)
        results.append(on_qubit(u, amps, k))
    return results


class TestOnQubit:
    def test_layouts_agree_on_floats(self, monkeypatch):
        # one matrix and stacks of shape (3, 2, 2) and (2, 3, 2, 2), every
        # slot, n = 1..14: equal up to the rounding of a 2-term sum
        rng = np.random.default_rng(21)
        for n in range(1, 15):
            amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
            for shape in ((2, 2), (3, 2, 2), (2, 3, 2, 2)):
                u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                for k in range(1, n + 1):
                    stacked, front = both_layouts(monkeypatch, u, amps, k)
                    assert stacked.shape == front.shape == shape[:-2] + (1 << n,)
                    assert np.abs(front - stacked).max() <= 1e-15 * np.abs(stacked).max()

    def test_layouts_agree_exactly_on_python_ints(self, monkeypatch):
        rng = np.random.default_rng(22)
        for n in range(1, 11):
            amps = np.array([int(v) << 50 for v in rng.integers(-(2**20), 2**20, 1 << n)], dtype=object)
            for u in (_BASIS_PQ, np.array([[3, -(2**70)], [5, 7]], dtype=object)):
                for k in range(1, n + 1):
                    stacked, front = both_layouts(monkeypatch, u, amps, k)
                    assert front.dtype == object and np.array_equal(front, stacked)

    def test_single_matrix_equals_stacked_form(self, monkeypatch):
        # one 2x2 matrix is applied by a plain matmul on the view; it must
        # give the bits of the stacked form u[..., None, :, :] @ view, and of
        # a one-matrix stack, in both layouts and under the real layout rule
        rng = np.random.default_rng(23)
        draws = {
            float: lambda size: rng.standard_normal(size),
            complex: lambda size: rng.standard_normal(size) + 1j * rng.standard_normal(size),
            object: lambda size: np.array([int(v) << 40 for v in rng.integers(-999, 1000, size)], dtype=object),
        }
        for n in range(1, 11):
            for dtype, draw in draws.items():
                amps, u = draw(1 << n), draw(4).reshape(2, 2)
                for k in range(1, n + 1):
                    one = on_qubit(u, amps, k)
                    assert np.array_equal(one, on_qubit(u[None], amps, k)[0])
                    view = amps.reshape(1 << (k - 1), 2, 1 << (n - k))
                    stacked = np.matmul(u[..., None, :, :], view).reshape(1 << n)
                    single, front = both_layouts(monkeypatch, u, amps, k)
                    assert single.dtype == stacked.dtype and np.array_equal(single, stacked)
                    assert np.array_equal(front, both_layouts(monkeypatch, u[None], amps, k)[1][0])
                    monkeypatch.undo()

    def test_dtype_is_resolved_only_where_qubit_first_can_apply(self, monkeypatch):
        calls = []
        result_type = np.result_type
        monkeypatch.setattr(np, "result_type", lambda *args: calls.append(args) or result_type(*args))
        rng = np.random.default_rng(24)
        for n in (3, 6):
            amps = rng.standard_normal(1 << n) + 0j
            for k in (1, n):
                on_qubit(A_MATRIX, amps, k)
                on_qubit(lie_action.SU2_BASIS, amps, k)
        assert calls == []
        amps = rng.standard_normal(1 << 8) + 0j
        on_qubit(A_MATRIX, amps, 8)
        assert len(calls) == 1
        assert lie_action._qubit_first(8, 8, A_MATRIX, amps)
        assert not lie_action._qubit_first(8, 8, _BASIS_PQ, amps.real.astype(int).astype(object))
        assert not lie_action._qubit_first(8, 5, A_MATRIX, amps)


class TestApplyGroup:
    def test_identity(self):
        psi = sample_haar_state(3, 4)
        out = apply_group(LocalUnitary.identity(3), psi)
        assert np.array_equal(out.amps, psi.amps)

    def test_norm_preserved(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 4):
            psi = sample_haar_state(n, 50 + n)
            u = random_local_unitary(n, rng)
            assert apply_group(u, psi).norm() == pytest.approx(psi.norm(), abs=1e-12)

    def test_diagonal_phase(self):
        # exp(t A) on |00> multiplies the amplitude by e^{it}
        t = 0.37
        u = LocalUnitary((su2_exp(Su2Coordinates(t, 0, 0)), SU2GroupElement.identity()))
        psi = make_basis(MultiIndex((0, 0)))
        out = apply_group(u, psi)
        assert np.allclose(out.amps, np.exp(1j * t) * psi.amps)

    def test_matches_kron_of_factors(self):
        # the factors applied slot by slot (identity slots skipped) against
        # the full 2^n x 2^n operator g_1 x ... x g_n
        rng = np.random.default_rng(31)
        for n in range(1, 7):
            psi = sample_haar_state(n, 60 + n)
            factors = list(random_local_unitary(n, rng).factors)
            factors[rng.integers(n)] = SU2GroupElement.identity()
            op = np.ones((1, 1))
            for g in factors:
                op = np.kron(op, g.matrix)
            out = apply_group(LocalUnitary(tuple(factors)), psi)
            assert np.allclose(out.amps, op @ psi.amps, rtol=0, atol=1e-12 * psi.norm())

    def test_identity_factor_is_one_read_only_instance(self):
        u = SU2GroupElement.identity()
        assert u is SU2GroupElement.identity() and not u.matrix.flags.writeable
        assert np.array_equal(u.matrix, np.eye(2))

    def test_su2_exp_special_unitary(self):
        u = su2_exp(Su2Coordinates(0.3, -1.2, 0.8))
        assert isinstance(u, SU2GroupElement)  # constructor validates U(2)/det


class TestInfinitesimalConsistency:
    def test_exponential_first_order(self):
        # ||exp(eps X) psi - psi - eps X psi|| must shrink quadratically
        rng = np.random.default_rng(21)
        psi = sample_haar_state(3, 13)
        triples = rng.standard_normal((3, 3))
        x = LocalAlgebraElement.from_triples(triples)
        x_psi = apply_algebra(x, psi)

        def remainder(eps):
            u = LocalUnitary(
                tuple(su2_exp(Su2Coordinates(*(eps * trip))) for trip in triples)
            )
            return np.linalg.norm(apply_group(u, psi).amps - psi.amps - eps * x_psi)

        r4, r5 = remainder(1e-4), remainder(1e-5)
        assert r4 / r5 == pytest.approx(100, rel=0.05)


class TestRandomSU2:
    def test_members_are_special_unitary(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = random_su2(rng).matrix
            assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
            assert np.linalg.det(u) == pytest.approx(1, abs=1e-12)
