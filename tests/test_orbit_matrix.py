import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from orbitscope.lie_action import (
    LocalAlgebraElement,
    apply_algebra,
    random_local_unitary,
    apply_group,
)
from orbitscope import orbit_matrix
from orbitscope.orbit_matrix import (
    BLOCK_AMPS,
    DEFAULT_TOL,
    ExactPathError,
    IsotropyElement,
    OrbitMatrix,
    build_matrix,
    dump_csv,
    exact_nullspace,
    exact_rank_kernel,
    factorize,
    isotropy_basis,
    min_orbit_bound,
    numerical_rank,
    orbit_dimension,
    rank_exact,
    rank_float,
    verify_isotropy,
)
from orbitscope.states import (
    MultiIndex,
    PureState,
    load_state,
    make_basis,
    make_cat,
    make_singlet_product,
    make_singlet_product_plus_zero,
    multi_index_complement,
    sample_haar_state,
    state_to_json,
    tensor,
)


def exact_pairs(psi: PureState) -> tuple:
    """The amplitudes of an exact state as (Fraction, Fraction) pairs."""
    return tuple((Fraction(a, psi.den), Fraction(b, psi.den)) for a, b in zip(*psi.num.tolist()))


def _build_from_equations(psi: PureState) -> np.ndarray:
    """Oracle builder: the real/imaginary isotropy equations, entrywise.

    Row 2i is the real-part equation for multi-index I, row 2i+1 the
    imaginary-part equation, with the theta terms moved to the left side.
    """
    n = psi.n
    dim = 1 << n
    exact = psi.is_exact
    zero = Fraction(0) if exact else 0.0
    m = np.full((2 * dim, 3 * n + 1), zero, dtype=object if exact else float)
    amps = exact_pairs(psi) if exact else [(c.real, c.imag) for c in psi.amps]
    for i in range(dim):
        a_i, b_i = amps[i]
        for k in range(1, n + 1):
            a_f, b_f = amps[i ^ (1 << (n - k))]  # the amplitude of I_k
            sign = 1 - 2 * ((i >> (n - k)) & 1)
            base = 3 * (k - 1)
            m[2 * i, base] = sign * -b_i  # t_k in Re equation
            m[2 * i, base + 1] = sign * a_f  # r_k
            m[2 * i, base + 2] = -b_f  # s_k
            m[2 * i + 1, base] = sign * a_i  # t_k in Im equation
            m[2 * i + 1, base + 1] = sign * b_f  # r_k
            m[2 * i + 1, base + 2] = a_f  # s_k
        m[2 * i, 3 * n] = b_i  # +theta coefficient, Re equation
        m[2 * i + 1, 3 * n] = -a_i
    return m


def exact_matvec(matrix, vec):
    """M v with Fraction arithmetic."""
    return [sum(row[i] * vec[i] for i in range(len(vec))) for row in matrix.data]


def exact_families(n_max):
    for k in range(1, n_max // 2 + 1):
        yield make_singlet_product(k)
    for k in range(1, (n_max - 1) // 2 + 1):
        yield make_singlet_product_plus_zero(k)
    for n in range(1, n_max + 1):
        yield make_cat(n)
        yield make_basis(MultiIndex((0,) * n))


def float_copies(n_max, seed=0):
    """Float copies and LU-rotated float copies of the exact families: the
    rotated ones keep the exact isotropy dimension but lose every zero entry."""
    rng = np.random.default_rng(seed)
    for psi in exact_families(n_max):
        yield psi, PureState(n=psi.n, amps=psi.amps), apply_group(random_local_unitary(psi.n, rng), psi)


def object_gram(data):
    """M^T M of an integer M in Python ints, which never overflow."""
    data = data.astype(object)
    return data.T @ data


def assert_exact_matrix_matches(psi):
    m = build_matrix(psi)
    assert m.exact and m.data.dtype in (np.int64, object)
    rational = [[Fraction(int(v), m.den) for v in row] for row in m.data]
    assert rational == _build_from_equations(psi).tolist()


class TestBuildMatrix:
    def test_shape(self):
        for n in (1, 2, 4):
            m = build_matrix(sample_haar_state(n, n))
            assert m.shape == (2 ** (n + 1), 3 * n + 1)

    def test_ket0_columns(self):
        m = build_matrix(make_basis(MultiIndex((0,))))
        cols = m.data.astype(float).T
        assert list(cols[0]) == [0, 1, 0, 0]
        assert list(cols[1]) == [0, 0, -1, 0]
        assert list(cols[2]) == [0, 0, 0, 1]
        assert list(cols[3]) == [0, -1, 0, 0]

    def test_builders_agree_on_random_states(self):
        # two independent code paths: column formulas vs isotropy equations
        states = [sample_haar_state(1 + i % 6, 300 + i) for i in range(50)]
        states += [rotated for _, _, rotated in float_copies(6, seed=4)]
        for psi in states:
            primary = build_matrix(psi).data
            secondary = _build_from_equations(psi).astype(float)
            assert np.array_equal(primary, secondary)

    def test_exact_matrix_matches_equation_builder(self):
        # the integer M over its denominator equals the Fraction builder entrywise
        for psi in exact_families(8):
            assert_exact_matrix_matches(psi)

    def test_exact_matrix_matches_on_random_rationals(self):
        rng = np.random.default_rng(11)
        for i in range(24):
            n = 1 + i % 4
            bits = 8 if i % 3 == 0 else (41 if i % 3 == 1 else 60)  # int64, object Gram, object state
            nums = rng.integers(-(2**bits), 2**bits, size=(2, 1 << n))
            dens = rng.choice([1, 2, 3, 5, 12, 49], size=(2, 1 << n))
            exact = [
                (Fraction(int(a), int(c)), Fraction(int(b), int(d)))
                for a, b, c, d in zip(*nums, *dens)
            ]
            psi = PureState.from_exact(exact)
            assert exact_pairs(psi) == tuple(exact)
            assert_exact_matrix_matches(psi)
            gram = build_matrix(psi).gram
            assert gram.dtype == (np.int64 if bits == 8 else object)
            assert np.array_equal(gram, object_gram(build_matrix(psi).data))

    def test_gram_check_rejects_a_wrong_matrix(self, monkeypatch):
        # one changed entry of M, whole or in the rows of one amplitude as
        # the analysis builds them, breaks a Gram fact that is checked: the
        # live rows of the sparse cat:10; a row of the sample S that
        # certifies the Haar n = 12 state (the first of the image of the
        # base block under qubit 1's flip); and, on a rotated state that
        # falls back to the full path, a row of a middle row block that S
        # leaves out
        build = orbit_matrix._build_real
        rotated = apply_group(random_local_unitary(11, np.random.default_rng(2)), make_singlet_product_plus_zero(5))
        cases = [(make_cat(3), 0), (make_cat(10), 0), (sample_haar_state(12, 5), 1 << 11),
                 (rotated, 2 * BLOCK_AMPS + 100)]
        for psi, bad in cases:
            good = build_matrix(psi)
            data = good.data.copy()
            data[0, 0] = data[0, 0] + 1 if good.exact else -data[0, 0]
            factorize(psi)
            rank = rank_exact if good.exact else rank_float
            with pytest.raises(AssertionError, match="inner-product table"):
                rank(OrbitMatrix(n=psi.n, data=data, exact=good.exact, den=good.den))

            built = []

            def corrupted(re, im, n, rows, out, *tables):
                build(re, im, n, rows, out, *tables)
                hit = np.flatnonzero(np.arange(1 << n)[rows] == bad)
                built.append((isinstance(rows, slice), hit.size))
                if hit.size:
                    out[0, 0, hit[0]] = out[0, 0, hit[0]] + 1 if good.exact else -out[0, 0, hit[0]]

            monkeypatch.setattr(orbit_matrix, "_build_real", corrupted)
            with pytest.raises(AssertionError, match="inner-product table"):
                factorize(psi)
            monkeypatch.setattr(orbit_matrix, "_build_real", build)
            assert sum(hits for _, hits in built) == 1
            if psi is rotated:
                # S was built first and left the bad row out; a row block held it
                assert built[0] == (False, 0) and (True, 1) in built
        assert orbit_matrix._sample_tables(11)[0].tolist().count(2 * BLOCK_AMPS + 100) == 0
        assert (1 << 11) in orbit_matrix._sample_tables(12)[0]

    @pytest.mark.parametrize("dtype, norm2, rtol, off", [
        (np.float64, 4.0, orbit_matrix.GRAM_RTOL, 1e-8),
        (np.int64, 4, 0, 1),
        (object, 2**70, 0, 1),  # a float check would lose the 1
        (object, 2**70, 0, 2**64),  # an int64 check would wrap it to 0
    ])
    def test_gram_check_sees_every_table_fact(self, dtype, norm2, rtol, off):
        # |psi|^2 I on each triple's 3 x 3 block passes, whatever lies between
        # triples or in the theta row; any diagonal entry or in-triple entry
        # off by `off` fails, exactly (rtol = 0) on integer Gram matrices
        n = 3
        cols = 3 * n + 1
        good = np.zeros((cols, cols), dtype=dtype)
        good[np.diag_indices(cols)] = norm2
        good[0, 3] = good[3, 0] = good[2, -1] = good[-1, 2] = 7
        orbit_matrix._check_gram(good, rtol)
        spots = [(i, i) for i in range(cols - 1)]
        spots += [(a + i, a + j) for a in range(0, 3 * n, 3) for i, j in itertools.permutations(range(3), 2)]
        for (i, j), sign in itertools.product(spots, (1, -1)):
            bad = good.copy()
            bad[i, j] = bad[i, j] + sign * off
            with pytest.raises(AssertionError, match="inner-product table"):
                orbit_matrix._check_gram(bad, rtol)
        if dtype is np.float64:
            near = good.copy()
            near[0, 0] += 1e-10
            orbit_matrix._check_gram(near, rtol)
            near[0, 1] = np.nan
            with pytest.raises(AssertionError, match="inner-product table"):
                orbit_matrix._check_gram(near, rtol)

    def test_transposed_block_matches_matrix_rows(self):
        # a middle block, or scattered amplitude indices, built or copied
        # from M, holds the matching rows of the whole M transposed, real and
        # imaginary rows apart
        rng = np.random.default_rng(9)
        for psi, dtype in ((sample_haar_state(12, 9), np.float64), (make_cat(10), np.int64)):
            m = build_matrix(psi).data
            cols, lo = m.shape[1], 1 << (psi.n - 1)
            scattered = np.sort(rng.choice(1 << psi.n, size=37, replace=False))
            assert m.dtype == dtype
            for amps in (slice(lo, lo + BLOCK_AMPS), scattered):
                rows = m.reshape(-1, 2, cols)[amps]
                for fill in (orbit_matrix._state_fill(psi), orbit_matrix._matrix_fill(m)):
                    out = np.empty((cols, 2, len(rows)), dtype=dtype)
                    fill(amps, out)
                    assert np.array_equal(out[:, 0].T, rows[:, 0])
                    assert np.array_equal(out[:, 1].T, rows[:, 1])

    def test_entries_come_from_amplitudes(self):
        psi = sample_haar_state(3, 17)
        m = build_matrix(psi)
        parts = set(np.round(np.abs(m.data[np.abs(m.data) > 0]), 12))
        amp_parts = set(np.round(np.abs(psi.amps.real), 12)) | set(
            np.round(np.abs(psi.amps.imag), 12)
        )
        assert parts <= amp_parts

    def test_labels(self, tmp_path):
        path = tmp_path / "m.csv"
        dump_csv(make_singlet_product(1), str(path))
        header, *rows = path.read_text().splitlines()
        assert header == "row,t1,r1,s1,t2,r2,s2,theta"
        assert [row.split(",")[0] for row in rows] == [
            f"{bits}:{part}" for bits in ("00", "01", "10", "11") for part in ("re", "im")
        ]


def sign_flip_oracle(n, dtype):
    """(-1)^{i_k} and I -> I_k over all 2^n indices, one row per slot k,
    read off each multi-index's bits and its complement in bit k."""
    indices = [MultiIndex.from_int(i, n) for i in range(1 << n)]
    signs = [[1 - 2 * index.bits[k - 1] for index in indices] for k in range(1, n + 1)]
    flips = [[multi_index_complement(index, k).to_int() for index in indices] for k in range(1, n + 1)]
    return np.array(signs, dtype=np.int64 if dtype == object else dtype), np.array(flips)


def one_block_states(n):
    """A float, an int64 and an object-int state of n qubits, whose rows
    of M have dtype float64, int64 and object."""
    rng = np.random.default_rng(n)
    small = rng.integers(-50, 50, size=(2, 1 << n))
    big = [[int(v) << 60 for v in part] for part in small]
    return [sample_haar_state(n, n), PureState(n=n, num=small, den=3), PureState(n=n, num=big)]


class TestWholeStateTables:
    @pytest.mark.parametrize("dtype", [np.float64, np.int64, object])
    def test_tables_are_read_only_and_fresh(self, dtype):
        for n in range(1, 10):
            sign, flip = orbit_matrix._whole_state_tables(n, np.dtype(dtype))
            assert not sign.flags.writeable and not flip.flags.writeable
            with pytest.raises(ValueError):
                sign[0, 0] = 0
            expected_sign, expected_flip = sign_flip_oracle(n, dtype)
            assert sign.dtype == expected_sign.dtype
            assert np.array_equal(sign, expected_sign) and np.array_equal(flip, expected_flip)

    def test_whole_state_slice_equals_the_index_path(self):
        # the cached tables (a slice over the whole one-block state) give
        # the rows the per-call tables of an index array give; so does a
        # slice over half of it, which computes its own
        cache = orbit_matrix._whole_state_tables
        calls = cache.cache_info().hits + cache.cache_info().misses
        for n in range(1, 10):
            assert 1 << n <= BLOCK_AMPS
            half = (1 << n) // 2
            for psi, dtype in zip(one_block_states(n), (np.float64, np.int64, object)):
                re, im = orbit_matrix._parts(psi)
                assert np.result_type(re, im) == dtype
                for lo in (0, half):
                    blocks = []
                    for rows in (slice(lo, 1 << n), np.arange(lo, 1 << n)):
                        out = np.empty((3 * n + 1, 2, (1 << n) - lo), dtype=dtype)
                        orbit_matrix._build_real(re, im, n, rows, out)
                        blocks.append(out)
                    assert np.array_equal(*blocks)
        assert cache.cache_info().hits + cache.cache_info().misses == calls + 27  # one per whole slice

    def test_only_one_block_states_are_cached(self):
        # a multi-block float analysis, the live rows of a sparse exact one
        # and a multi-block exact one add no entry; a one-block analysis adds
        # at most its (n, dtype) pair, once
        cache = orbit_matrix._whole_state_tables
        size = cache.cache_info().currsize
        factorize(sample_haar_state(12, 1))
        factorize(make_cat(12))
        factorize(make_singlet_product(6))
        assert cache.cache_info().currsize == size
        factorize(sample_haar_state(8, 1))
        size = cache.cache_info().currsize
        for seed in range(5):
            factorize(sample_haar_state(8, seed))
        assert cache.cache_info().currsize == size


class TestRankFloat:
    @pytest.mark.parametrize("r", range(1, 11))
    def test_padded_identity_rank(self, r):
        a = np.zeros((16, 12))
        a[:r, :r] = np.eye(r)
        assert numerical_rank(a) == r

    def test_singlet_rank(self):
        psi = make_singlet_product(1)
        m = build_matrix(PureState(n=2, amps=psi.amps))  # float copy
        assert rank_float(m) == 4

    def test_agrees_with_exact_on_families(self):
        for psi in exact_families(8):
            exact_m = build_matrix(psi)
            float_m = build_matrix(PureState(n=psi.n, amps=psi.amps))
            assert rank_float(float_m) == rank_exact(exact_m)

    def test_kahan_rank_follows_the_singular_values(self):
        # the Kahan matrix K(60, c = 0.4) lies within 3.7e-12 sigma_1 of a
        # rank-59 matrix; its column-pivoted QR keeps every pivot above
        # 5.8e-3 times the first, so pivots would say 60
        n, c = 60, 0.4
        k = np.sqrt(1 - c * c) ** np.arange(n)[:, None] * (np.eye(n) - c * np.triu(np.ones((n, n)), 1))
        pivots = np.abs(np.diag(scipy.linalg.qr(k, mode="r", pivoting=True)[0]))
        assert np.all(pivots > DEFAULT_TOL * pivots[0])
        assert numerical_rank(k) == 59

    def test_singular_values_across_the_tolerance(self):
        rng = np.random.default_rng(11)
        u, v = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2))
        assert numerical_rank(u @ np.diag([1, 1e-9, 1e-11]) @ v.T) == 2

    def test_tolerance_plateau(self):
        for psi in exact_families(6):
            float_m = build_matrix(PureState(n=psi.n, amps=psi.amps))
            ranks = {rank_float(float_m, tol) for tol in (1e-12, 1e-10, 1e-8)}
            assert len(ranks) == 1


class TestRankExact:
    def test_basis_state_n3(self):
        assert rank_exact(build_matrix(make_basis(MultiIndex((0, 0, 0))))) == 7

    def test_two_singlets(self):
        assert rank_exact(build_matrix(make_singlet_product(2))) == 7

    def test_cat3(self):
        assert rank_exact(build_matrix(make_cat(3))) == 8

    def test_rejects_float(self):
        m = build_matrix(sample_haar_state(2, 0))
        with pytest.raises(ExactPathError):
            rank_exact(m)


def reference_rank_kernel(gram):
    """The fraction-free Gauss-Jordan elimination of `exact_rank_kernel`,
    with a kernel read-off that builds Fraction(-a, b) for every pivot entry,
    zero or not."""
    rows = gram.tolist()
    size = len(rows)
    pivots = []
    for col in range(size):
        r = len(pivots)
        pivot_row = next((i for i in range(r, size) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        for i in range(size):
            f = rows[i][col]
            if i != r and f:
                new = [rows[r][col] * v - f * w for v, w in zip(rows[i], rows[r])]
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


def theorem_family_states():
    """The theorem families with exact amplitudes, n = 2..11: singlet
    products, singlet products with |0>, cat states and two basis states per n."""
    states = [make_singlet_product(k) for k in range(1, 6)]
    states += [make_singlet_product_plus_zero(k) for k in range(1, 6)]
    states += [make_cat(n) for n in range(3, 9)]
    for n in range(2, 9):
        for bits in (("01" * n)[:n], ("110" * n)[:n]):
            states.append(make_basis(MultiIndex(tuple(map(int, bits)))))
    return states


def random_integer_grams(seed):
    """A^T A for sparse random integer A with fewer rows than columns, so the
    kernel is nontrivial: int64 Grams from small entries and object Grams,
    entries beyond 2**63, from entries near 2**40."""
    rng = np.random.default_rng(seed)
    for trial in range(40):
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(2, 12))
        bound = 2**40 if trial % 2 else 30
        a = rng.integers(-bound, bound, (rows, cols)) * (rng.random((rows, cols)) < 0.6)
        yield object_gram(a) if trial % 2 else a.T @ a


class TestExactReadOff:
    def assert_same_read_off(self, gram):
        rank, kernel = exact_rank_kernel(gram)
        assert (rank, kernel) == reference_rank_kernel(gram)
        for vec in kernel:
            assert all(type(x) is Fraction and math.gcd(x.numerator, x.denominator) == 1 for x in vec)
            assert all(x == Fraction(0) for x in vec if not x)
        return kernel

    def test_theorem_family_grams(self):
        entries = []
        for psi in theorem_family_states():
            entries += [x for vec in self.assert_same_read_off(build_matrix(psi).gram) for x in vec]
        # pivot entries of both signs and zeros all occur
        assert {-1, 0, 1} <= set(entries)

    def test_random_integer_grams(self):
        tiers, entries = set(), []
        for gram in random_integer_grams(seed=11):
            tiers.add(gram.dtype)
            if gram.dtype == object:
                assert max(abs(v) for v in gram.ravel()) >= 2**63
            entries += [x for vec in self.assert_same_read_off(gram) for x in vec]
        assert tiers == {np.dtype(np.int64), np.dtype(object)}
        assert any(x.denominator > 1 for x in entries) and any(x < 0 for x in entries)


class TestOrbitDimension:
    def test_singlet(self):
        assert orbit_dimension(make_singlet_product(1)) == 3

    def test_singlet_plus_zero(self):
        assert orbit_dimension(make_singlet_product_plus_zero(1)) == 5

    @pytest.mark.parametrize("n", range(1, 7))
    def test_all_zeros_basis(self, n):
        # kernel dimension is n: (t_1 A, ..., t_n A) with theta = sum t_k
        psi = make_basis(MultiIndex((0,) * n))
        m = build_matrix(psi)
        kernel = exact_nullspace(m)
        assert len(kernel) == n
        assert orbit_dimension(psi) == 2 * n

    def test_scale_invariance(self):
        psi = sample_haar_state(3, 23)
        rng = np.random.default_rng(1)
        base = orbit_dimension(psi)
        for _ in range(5):
            lam = complex(*rng.standard_normal(2))
            scaled = PureState(n=3, amps=lam * psi.amps)
            assert orbit_dimension(scaled) == base

    def test_lu_invariance(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 4):
            psi = sample_haar_state(n, 60 + n)
            u = random_local_unitary(n, rng)
            assert orbit_dimension(apply_group(u, psi)) == orbit_dimension(psi)

    def test_bounds(self):
        for psi in exact_families(6):
            dim = orbit_dimension(psi)
            assert min_orbit_bound(psi.n) <= dim <= 3 * psi.n


class TestIsotropy:
    def test_singlet_basis(self):
        psi = make_singlet_product(1)
        basis = isotropy_basis(psi)
        assert len(basis) == 3
        m = build_matrix(psi)
        # the diagonal elements (A,A), (B,B), (C,C) with theta=0 lie in ker M
        one, zero = Fraction(1), Fraction(0)
        for offset in range(3):
            vec = [zero] * 7
            vec[offset] = one
            vec[3 + offset] = one
            assert all(v == 0 for v in exact_matvec(m, vec))
        for elem in basis:
            assert elem.theta == 0
            assert verify_isotropy(psi, elem)

    def test_haar_trivial_isotropy(self):
        assert isotropy_basis(sample_haar_state(3, 31)) == []

    def test_kernel_vectors_annihilated_exactly(self):
        for psi in [make_cat(3), make_basis(MultiIndex((0, 1, 0)))]:
            m = build_matrix(psi)
            for vec in exact_nullspace(m):
                assert all(v == 0 for v in exact_matvec(m, list(vec)))

    def test_kernel_dim_matches_rank(self):
        for psi in exact_families(6):
            m = build_matrix(psi)
            assert len(exact_nullspace(m)) == 3 * psi.n + 1 - rank_exact(m)

    def test_float_kernel_matches_exact_nullity(self):
        # one QR and an SVD of R give the kernel a full SVD of M gives
        for exact_psi, *copies in float_copies(8):
            nullity = len(exact_nullspace(build_matrix(exact_psi)))
            for psi in copies:
                basis = isotropy_basis(psi)
                assert len(basis) == nullity
                assert all(verify_isotropy(psi, elem) for elem in basis)
                k = np.array([[c for co in e.x.coords for c in (co.t, co.r, co.s)] + [e.theta] for e in basis])
                k = k.reshape(nullity, 3 * psi.n + 1)
                assert np.allclose(k @ k.T, np.eye(nullity), atol=1e-12)
                ref = np.linalg.svd(build_matrix(psi).data)[2][3 * psi.n + 1 - nullity :]
                assert np.abs(k.T @ k - ref.T @ ref).max() <= 1e-8

    def test_one_factorization_per_float_analysis(self, monkeypatch):
        # a state of more than one row block first builds the rows of the
        # sample S, once, and one Cholesky factorization of their Gram
        # matrix, shifted, decides a full rank with nothing else built.
        # Otherwise, and for a one-block state, one pass of the row blocks,
        # first to last, builds each block once into the block region of
        # one F-ordered workspace, sums the Gram matrix and folds every
        # block but the last by one in-place dgeqrf of numpy's LAPACK on
        # that same workspace; one Cholesky factorization of the Gram
        # matrix decides a full rank with no last fold and no SVD.
        # Otherwise the last fold and one full SVD of the (3n+1)^2 factor
        # R, with no block built again; no QR copy or stacked copy
        calls = []
        build = orbit_matrix._build_real
        original_dgeqrf = np.linalg.lapack_lite.dgeqrf

        def fill(re, im, n, rows, out, *tables):
            if isinstance(rows, slice):
                calls.append(("fill", out.base, rows.start))
            else:
                calls.append(("sample", out.shape, rows))
            build(re, im, n, rows, out, *tables)

        def dgeqrf(rows, cols, a, lda, *args):
            result = original_dgeqrf(rows, cols, a, lda, *args)
            w = a.base  # a is the C-ordered view W.T of the workspace W
            # the fold leaves R exactly triangular, with no Householder
            # entries below its diagonal for the next fold to pick up
            calls.append(("dgeqrf", w, (rows, cols, lda), not np.tril(w[:cols], -1).any()))
            return result

        def record(module, name, pick):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, **kw: calls.append((name, pick(*a, **kw))) or original(*a, **kw))

        monkeypatch.setattr(orbit_matrix, "_build_real", fill)
        monkeypatch.setattr(np.linalg.lapack_lite, "dgeqrf", dgeqrf)
        record(np.linalg, "cholesky", lambda a, *args, **kw: a.shape)
        record(np.linalg, "svd", lambda a, *args, compute_uv=True, **kw: (a.shape, compute_uv))
        record(np.linalg, "qr", lambda a, *args, **kw: a.shape)
        record(np, "vstack", lambda arrays, *args, **kw: len(arrays))
        rng = np.random.default_rng(3)
        # (state, nullity, what decides: the sample, the whole Gram matrix or the TSQR)
        cases = [(sample_haar_state(9, 49), 0, "gram"), (sample_haar_state(10, 50), 0, "sample"),
                 (sample_haar_state(13, 53), 0, "sample")]
        cases += [(apply_group(random_local_unitary(2 * k, rng), make_singlet_product(k)), 3 * k, "tsqr") for k in (3, 6)]
        # a one-qubit state has a one-dimensional isotropy algebra
        cases += [(sample_haar_state(1, 41), 1, "tsqr")]
        for psi, nullity, decider in cases:
            n, cols = psi.n, 3 * psi.n + 1
            amps = min(1 << n, BLOCK_AMPS)
            starts = list(range(0, 1 << n, amps))
            calls.clear()
            assert len(isotropy_basis(psi)) == nullity
            if 1 << n > BLOCK_AMPS:
                rows = orbit_matrix._sample_tables(n)[0]
                assert calls[:2] == [("sample", (cols, 2, rows.size), rows), ("cholesky", (cols, cols))]
                assert calls[0][2] is rows
                del calls[:2]
            if decider == "sample":
                assert calls == []
                continue
            w = calls[0][1]
            assert w.shape == (cols + 2 * amps, cols) and w.flags.f_contiguous
            fills = [call for call in calls if call[0] == "fill"]
            assert all(call[1] is w for call in fills)
            folds = [call for call in calls if call[0] == "dgeqrf"]
            assert all(call[1] is w and call[2] == (*w.shape, w.shape[0]) and call[3] for call in folds)
            names = [call[0] for call in calls]
            one_pass = ["fill"] + ["dgeqrf", "fill"] * (len(starts) - 1) + ["cholesky"]
            if decider == "gram":
                assert names == one_pass
            else:
                assert names == one_pass + ["dgeqrf", "svd"]
                assert calls[-1] == ("svd", ((cols, cols), True))
            assert [call[2] for call in fills] == starts
            assert calls[len(one_pass) - 1] == ("cholesky", (cols, cols))

    def test_round_trip_verification(self):
        for psi in [make_cat(4), make_singlet_product(2)]:
            for elem in isotropy_basis(psi):
                assert verify_isotropy(psi, elem, tol=1e-10)


def reference_factorization(psi, tol=DEFAULT_TOL):
    """Rank and kernel projector from one pivoted QR of the whole float M, a
    test-only oracle (SciPy) for the singular-value rule of `factorize`."""
    a = build_matrix(psi).as_float()
    cols = a.shape[1]
    r, perm = scipy.linalg.qr(a, mode="r", pivoting=True)
    r = r[:cols]
    pivots = np.abs(np.diag(r))
    rank = int(np.count_nonzero(pivots > tol * pivots[0]))
    kernel = np.zeros((cols - rank, cols))
    kernel[:, perm] = np.linalg.svd(r)[2][rank:]
    return rank, kernel.T @ kernel


class TestStreamedFactorization:
    def test_float_matches_a_qr_of_the_whole_matrix(self):
        # pivots tie (every column has norm |psi|), so rank and kernel span
        # are compared, not pivot order
        # n = 1 and 2 are single blocks with few rows (4 x 4 at n = 1)
        states = [sample_haar_state(n, 500 + n) for n in (1, 2, *range(10, 15))]
        states += [psi for _, *copies in float_copies(10, seed=8) for psi in copies]
        for psi in states:
            rank, kernel = factorize(psi)
            ref_rank, ref_projector = reference_factorization(psi)
            assert rank == ref_rank
            assert np.abs(kernel.T @ kernel - ref_projector).max() <= 1e-8

    def test_exact_gram_summed_over_blocks(self):
        # the block-summed Gram matrix (float64 tier) is that of the whole M
        # in Python ints, and the streamed exact analysis matches the one of
        # the whole M
        for psi in exact_families(11):
            m = build_matrix(psi)
            assert m.data.dtype == np.int64
            assert np.array_equal(m.gram, object_gram(m.data))
            assert factorize(psi) == (rank_exact(m), exact_nullspace(m))

    def test_exact_gram_tiers_at_2_pow_53(self):
        # rows * max|m|^2 just below 2**53 sums in float64; just past it the
        # Gram matrix has odd entries above 2**53, which float64 cannot hold,
        # so only the int64 sum gets them right
        for top, past in ((47453132, False), (47453134, True)):
            m = build_matrix(PureState(n=1, num=np.array([[top, top], [top, top - 1]])))
            assert (4 * top * top >= 2**53) == past
            expected = object_gram(m.data)
            assert m.gram.dtype == np.int64 and np.array_equal(m.gram, expected)
            assert any(int(float(v)) != v for v in expected.ravel()) == past

    def test_memory_stays_below_an_eighth_of_m(self):
        n = 16
        psi = sample_haar_state(n, 1)
        matrix_bytes = (2 << n) * (3 * n + 1) * 8
        tracemalloc.start()
        try:
            rank, _ = factorize(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rank == 3 * n + 1
        assert peak < matrix_bytes / 8


def sparse_exact_states(seed, count=48):
    """Random exact states with few nonzero amplitudes, n = 1..12, and
    numerators of 20, 27, 60 and 70 bits (the last two stored as Python
    ints), some over a denominator: their Gram sums fall in every tier."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n, bits = 1 + i % 12, (20, 27, 60, 70)[i // 12 % 4]
        size = int(rng.integers(1, max(1, (1 << n) // (2 * n + 2)) + 1))
        num = np.zeros((2, 1 << n), dtype=object)
        for part in range(2):
            chosen = rng.choice(1 << n, size=size, replace=False)
            low = [int(v) for v in rng.integers(1, 2**20, size=size)]
            num[part, chosen] = [(1 - 2 * (v & 1)) * (v << (bits - 20)) for v in low]
        yield PureState(n=n, num=num, den=int(rng.choice([1, 3, 2**61 - 1])))


def nonzero_rows(psi):
    """The amplitude indices of the rows of M that hold a nonzero entry."""
    data = build_matrix(psi).data
    return np.flatnonzero((data != 0).reshape(1 << psi.n, -1).any(axis=1))


def without_top_flips(num, n):
    """`_live_rows` with the flips of the highest bit (qubit 1) left out."""
    mark = num[0] != 0
    mark |= num[1] != 0
    support = np.flatnonzero(mark)
    mark[support ^ (1 << np.arange(n - 1)[:, None])] = True
    return np.flatnonzero(mark)


class TestLiveRows:
    def test_live_rows_are_the_nonzero_rows(self):
        # every row outside L is zero, and every row of L holds c_I or some
        # c_{I_k} of a support amplitude, so L is exactly the nonzero rows
        live_count = 0
        for psi in itertools.chain(sparse_exact_states(3), exact_families(12)):
            live = orbit_matrix._live_rows(psi.num, psi.n)
            support = np.count_nonzero((psi.num != 0).any(axis=0))
            assert (live is None) == (support * (psi.n + 1) >= 1 << psi.n)
            if live is not None:
                live_count += 1
                assert np.array_equal(live, nonzero_rows(psi))
        assert live_count >= 40

    def test_gram_over_the_live_rows_is_the_whole_gram(self):
        tiers = set()
        for psi in sparse_exact_states(4):
            live = orbit_matrix._live_rows(psi.num, psi.n)
            if live is None:
                continue
            maxabs = int(np.abs(psi.num).max())
            gram = orbit_matrix._gram(orbit_matrix._state_fill(psi), psi.n, maxabs, live)
            m = build_matrix(psi)
            assert np.array_equal(gram, m.gram)
            if psi.n <= 8:  # Python-int products are slow
                assert np.array_equal(gram, object_gram(m.data))
            bound = 2 * live.size * maxabs * maxabs
            tiers.add(0 if bound < 2**53 else 1 if bound < 2**62 else 2)
        assert tiers == {0, 1, 2}

    def test_a_flip_left_out_of_the_live_rows_is_caught(self, monkeypatch):
        # the mutant drops nonzero rows: the rows differ, and the C_1 column
        # loses norm, so the exact Gram check refuses the analysis
        states = [make_cat(10), make_basis(MultiIndex((0, 1) * 6))]
        states += [psi for psi in sparse_exact_states(5) if psi.n >= 8]
        monkeypatch.setattr(orbit_matrix, "_live_rows", without_top_flips)
        for psi in states:
            assert not np.array_equal(without_top_flips(psi.num, psi.n), nonzero_rows(psi))
            with pytest.raises(AssertionError, match="inner-product table"):
                factorize(psi)

    def test_exact_analysis_copies_no_numerators(self):
        # the magnitude bound of the Gram tiers is read without a copy of
        # the (2, 2^n) numerators (16 MiB at n = 20); the live-row marks
        # take 1 MiB
        psi = make_cat(20)
        tracemalloc.start()
        try:
            rank, _ = factorize(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rank - 1 == 2 * 20 + 1  # the orbit dimension 2n + 1 of a cat state
        assert peak < psi.num.nbytes / 4

    def test_factorize_matches_the_dense_path(self, monkeypatch, tmp_path):
        # rank and Fraction kernel from the live rows equal those from all
        # 2^n amplitudes: every exact family to n = 16, more basis states,
        # and sparse exact states with 70-bit numerators read from files
        states = list(exact_families(16))
        states += [make_basis(MultiIndex(tuple(int(b) for b in ("110" * n)[:n]))) for n in (9, 13, 16)]
        for i, psi in enumerate(sparse_exact_states(6)):
            if int(np.abs(psi.num).max()).bit_length() == 70:
                path = tmp_path / f"state{i}.json"
                path.write_text(json.dumps(state_to_json(psi)))
                states.append(load_state(str(path)))
        assert sum(orbit_matrix._live_rows(psi.num, psi.n) is not None for psi in states) >= 40
        live = [factorize(psi) for psi in states]
        monkeypatch.setattr(orbit_matrix, "_live_rows", lambda num, n: None)
        assert [factorize(psi) for psi in states] == live


def table_consistent_matrix(n, sigma_min, seed):
    """A float M of shape (2^{n+1}, 3n+1), U diag(sigma) V^T, whose Gram
    matrix keeps the facts the table check tests, with singular values
    sqrt(2 - s^2), s and 1 (3n - 1 times) for s = sigma_min.

    Its Gram matrix is I + (1 - s^2)(b e^T + e b^T) for a random unit b with
    no theta entry and e the theta axis: a unit diagonal, and every nonzero
    off-diagonal entry in the theta row and column, outside every triple.
    Its eigenvectors are (b + e)/sqrt 2 and (b - e)/sqrt 2, eigenvalues
    2 - s^2 and s^2, and anything orthogonal to both, eigenvalue 1."""
    rng = np.random.default_rng(seed)
    rows, cols = 2 << n, 3 * n + 1
    b = np.append(rng.standard_normal(cols - 1), 0.0)
    b /= np.linalg.norm(b)
    e = np.eye(cols)[-1]
    v = np.linalg.qr(np.column_stack([b + e, b - e, rng.standard_normal((cols, cols - 2))]))[0]
    u = np.linalg.qr(rng.standard_normal((rows, cols)))[0]
    sigma = np.concatenate([[np.sqrt(2 - sigma_min**2), sigma_min], np.ones(cols - 2)])
    return OrbitMatrix(n=n, data=(u * sigma) @ v.T, exact=False)


def certificate_delta(g, rows, total=None):
    """delta = (gamma_m + cols^2 u) T, m = rows, of `_certifies_full_rank`,
    with T = trace(g) unless a total is given."""
    mu = rows * 2.0**-53
    return (mu / (1 - mu) + len(g) ** 2 * 2.0**-53) * (np.trace(g) if total is None else total)


def eigenvalue_rule(g, rows, tol, total):
    """The certificate's earlier decision, a test-only oracle: every
    eigenvalue of M_S^T M_S lies within delta of the one eigvalsh computes,
    and lambda_min - delta > tol^2 (lambda_max + delta) proves full rank
    (lambda_max <= T, since M_S^T M_S <= M^T M)."""
    if rows * 2.0**-53 >= 0.5:
        return False
    lam, delta = np.linalg.eigvalsh(g), certificate_delta(g, rows, total)
    return bool(lam[0] - delta > tol * tol * (lam[-1] + delta))


def certificate_shift(g, rows, tol, total=None):
    """The shift s = 2 delta + tol^2 (T + delta) of `_certifies_full_rank`,
    with T = trace(g) unless a total is given."""
    delta = certificate_delta(g, rows, total)
    return 2 * delta + tol * tol * ((np.trace(g) if total is None else total) + delta)


def factorizes(a) -> bool:
    try:
        return bool(np.isfinite(np.linalg.cholesky(a)).all())
    except np.linalg.LinAlgError:
        return False


class TestRankCertificate:
    def spy(self, monkeypatch):
        """Records each certificate as ("certificate", g, rows, tol, total,
        answer), each Cholesky factorization as ("cholesky", completed) and
        each dgeqrf fold as ("dgeqrf",)."""
        calls = []
        certify, cholesky = orbit_matrix._certifies_full_rank, np.linalg.cholesky
        dgeqrf = np.linalg.lapack_lite.dgeqrf

        def recorded_certify(g, rows, tol, total):
            call = ["certificate", g.copy(), rows, tol, total]
            calls.append(call)
            call.append(certify(g, rows, tol, total))
            return call[-1]

        def recorded_cholesky(a):
            try:
                factor = cholesky(a)
            except np.linalg.LinAlgError:
                calls.append(("cholesky", False))
                raise
            calls.append(("cholesky", True))
            return factor

        monkeypatch.setattr(orbit_matrix, "_certifies_full_rank", recorded_certify)
        monkeypatch.setattr(np.linalg, "cholesky", recorded_cholesky)
        monkeypatch.setattr(np.linalg.lapack_lite, "dgeqrf", lambda *a: calls.append(("dgeqrf",)) or dgeqrf(*a))
        return calls

    def whole_gram_certificate(self, calls, m):
        """The one certificate of `calls`, asserted to see the Gram matrix
        of every row of M, with T = trace(g), after all but the last of
        the one pass's dgeqrf folds: one per row block but the last."""
        folds = max(1, m.shape[0] // (2 * BLOCK_AMPS)) - 1
        assert [call[0] for call in calls[: folds + 1]] == ["dgeqrf"] * folds + ["certificate"]
        assert [call[0] for call in calls].count("certificate") == 1
        _, g, rows, tol, total, answer = calls[folds]
        assert rows == m.shape[0] and total == np.trace(g)
        assert np.abs(g - m.data.T @ m.data).max() <= 1e-13 * total
        return calls[folds]

    @pytest.mark.parametrize("n", [3, 10])
    def test_well_conditioned_matrix_takes_the_gram_exit(self, monkeypatch, n):
        # the last block is never folded, nor R factorized
        calls = self.spy(monkeypatch)
        m = table_consistent_matrix(n, 1e-3, 0)
        assert rank_float(m) == 3 * n + 1
        assert self.whole_gram_certificate(calls, m)[-1] is True
        assert calls[-2][0] == "certificate" and calls[-1] == ("cholesky", True)

    @pytest.mark.parametrize("n", [3, 10])
    def test_full_rank_below_the_gram_resolution_falls_back(self, monkeypatch, n):
        # sigma_min^2 = 1e-18 is below the Gram matrix's rounding, so the
        # certificate cannot decide, and the TSQR finds sigma_min = 1e-9,
        # above tol sigma_1 = 1.4e-10
        calls = self.spy(monkeypatch)
        assert rank_float(table_consistent_matrix(n, 1e-9, 0)) == 3 * n + 1
        assert ("cholesky", False) in calls and ("dgeqrf",) in calls

    @pytest.mark.parametrize("n, seed", [(3, 0), (10, 1)])
    def test_rank_deficiency_falls_back(self, monkeypatch, n, seed):
        # sigma_min = 1e-12 is below tol sigma_1; the refusal folds the last
        # block, and nothing else
        calls = self.spy(monkeypatch)
        m = table_consistent_matrix(n, 1e-12, seed)
        assert rank_float(m) == 3 * n
        assert self.whole_gram_certificate(calls, m)[-1] is False
        assert calls[-3][0] == "certificate" and calls[-2:] == [("cholesky", False), ("dgeqrf",)]

    @pytest.mark.parametrize("n, seed", [(3, 9), (10, 1)])
    def test_refusal_rests_on_the_error_bound(self, monkeypatch, n, seed):
        # sigma_min = 1e-12 again, at seeds where the Gram matrix shifted by
        # tol^2 trace(g) alone still has a Cholesky factorization: the
        # certificate refuses only because of its error bound delta, and
        # with delta = 0 it would claim full rank
        calls = self.spy(monkeypatch)
        m = table_consistent_matrix(n, 1e-12, seed)
        assert rank_float(m) == 3 * n
        _, g, rows, tol, total, answer = self.whole_gram_certificate(calls, m)
        assert not answer and total == np.trace(g)
        assert factorizes(g - tol * tol * np.trace(g) * np.eye(len(g)))

    def test_no_certificate_once_rows_times_u_reaches_a_half(self, monkeypatch):
        # gamma_m = m u / (1 - m u) is no bound once m u >= 1/2: the guard
        # refuses before anything is factorized
        calls = self.spy(monkeypatch)
        assert orbit_matrix._certifies_full_rank(np.eye(4), 2**40, DEFAULT_TOL, 4.0)
        assert not orbit_matrix._certifies_full_rank(np.eye(4), 2**52, DEFAULT_TOL, 4.0)
        assert [call for call in calls if call[0] == "cholesky"] == [("cholesky", True)]

    def test_nan_never_certifies(self):
        # LAPACK's Cholesky lets a NaN pivot through without an error
        assert not orbit_matrix._certifies_full_rank(np.full((4, 4), np.nan), 8, DEFAULT_TOL, 4.0)
        assert not orbit_matrix._certifies_full_rank(np.eye(4), 8, DEFAULT_TOL, np.nan)
        for entry in ((0, 0), (3, 3), (2, 0)):
            g = np.eye(4)
            g[entry] = g[entry[::-1]] = np.nan
            assert not orbit_matrix._certifies_full_rank(g, 8, DEFAULT_TOL, 4.0), entry

    @pytest.mark.parametrize("above", [True, False])
    def test_smallest_eigenvalue_just_above_or_below_the_shift(self, above):
        # g = Q diag(lam) Q^T with its smallest eigenvalue, on the all-ones
        # direction, at 1.01 s or at 0.99 s.  A large row count and tol make
        # 2 delta and tol^2 (trace(g) + delta) each about half of s, so
        # either term decides.  s is a fixed multiple alpha of trace(g) =
        # rest + lam_min, so lam_min = f alpha (rest + lam_min), f = 1.01 or
        # 0.99
        cols, rows, tol = 10, 2**43, 0.04
        rng = np.random.default_rng(4)
        q = np.linalg.qr(np.column_stack([np.ones(cols), rng.standard_normal((cols, cols - 1))]))[0]
        rest = rng.uniform(1, 2, cols - 1)
        f = 1.01 if above else 0.99
        alpha = certificate_shift(np.eye(cols), rows, tol) / cols
        lam = np.append(f * alpha * rest.sum() / (1 - f * alpha), rest)
        g = (q * lam) @ q.T
        g = (g + g.T) / 2
        assert (np.linalg.eigvalsh(g)[0] > certificate_shift(g, rows, tol)) == above
        assert orbit_matrix._certifies_full_rank(g, rows, tol, np.trace(g)) == above

    def test_same_decisions_as_the_eigenvalue_rule(self, monkeypatch):
        # every exact family to n = 8 as floats and LU-rotated, and Haar
        # states n = 1..12, those from n = 10 on decided by the sample S:
        # the Cholesky certificate decides as the eigenvalue rule did on the
        # same Gram matrix and bound T
        calls = self.spy(monkeypatch)
        states = [psi for _, *copies in float_copies(8, seed=5) for psi in copies]
        states += [sample_haar_state(n, 900 + n) for n in range(1, 13)]
        for psi in states:
            factorize(psi)
        decisions = [call for call in calls if call[0] == "certificate"]
        assert len(decisions) == len(states)
        for _, g, rows, tol, total, answer in decisions:
            assert answer == eigenvalue_rule(g, rows, tol, total)
        assert sum(call[-1] for call in decisions) >= 10
        # the sample's three decisions: fewer rows, and T above trace(g)
        assert [(rows, total > np.trace(g)) for _, g, rows, _, total, _ in decisions[-3:]] == [
            (2 * orbit_matrix._sample_tables(n)[0].size, True) for n in (10, 11, 12)]

    def test_same_answers_as_the_tsqr_alone(self, monkeypatch):
        # every exact family to n = 8 as floats and LU-rotated, and Haar
        # states n = 1..10: the rank and the kernel projector of factorize
        # equal those of the TSQR path with the certificate switched off
        states = [psi for _, *copies in float_copies(8, seed=5) for psi in copies]
        states += [sample_haar_state(n, 900 + n) for n in range(1, 11)]
        answers = [factorize(psi) for psi in states]
        monkeypatch.setattr(orbit_matrix, "_certifies_full_rank", lambda *args: False)
        for psi, (rank, kernel) in zip(states, answers):
            tsqr_rank, tsqr_kernel = factorize(psi)
            assert rank == tsqr_rank
            assert np.abs(kernel.T @ kernel - tsqr_kernel.T @ tsqr_kernel).max() <= 1e-12
        assert sum(rank == 3 * psi.n + 1 for psi, (rank, _) in zip(states, answers)) >= 8


def sample_gram(psi):
    """The Gram matrix of the rows of M for the sample S, taken from the
    whole M, with the certificate's scale 2^-e, and e."""
    e = math.frexp(max(np.abs(psi.amps.real).max(), np.abs(psi.amps.imag).max()))[1]
    rows = orbit_matrix._sample_tables(psi.n)[0]
    m_s = build_matrix(PureState(n=psi.n, amps=psi.amps * 2.0**-e)).data.reshape(1 << psi.n, 2, -1)[rows]
    m_s = m_s.reshape(2 * rows.size, -1)
    return m_s.T @ m_s, e


def sample_decisions(monkeypatch):
    """Records each `_sample_certifies` answer."""
    answers = []
    decide = orbit_matrix._sample_certifies
    monkeypatch.setattr(orbit_matrix, "_sample_certifies", lambda *a: answers.append(decide(*a)) or answers[-1])
    return answers


class TestSampleCertificate:
    @pytest.mark.parametrize("n", [6, 10, 13, 16])
    def test_sample_rows(self, n):
        # the base block [0, b) and its image under each flip of a bit >= b,
        # ascending, with read-only sign and flip tables equal to the
        # per-call ones; every qubit's bit takes both values on S
        b = orbit_matrix.SAMPLE_AMPS
        rows, sign, flip = orbit_matrix._sample_tables(n)
        expected = [i for i in range(b)] + [i ^ bit for bit in (1 << np.arange(b.bit_length() - 1, n)) for i in range(b)]
        assert rows.tolist() == expected == sorted(expected)
        assert rows.size == (n - b.bit_length() + 2) * b
        expected_sign, expected_flip = orbit_matrix._sign_flip(rows, n, np.dtype(np.float64))
        assert np.array_equal(sign, expected_sign) and np.array_equal(flip, expected_flip)
        assert not any(table.flags.writeable for table in (rows, sign, flip))
        assert (sign == 1).any(axis=1).all() and (sign == -1).any(axis=1).all()
        assert orbit_matrix._sample_tables(n)[0] is rows

    def test_consecutive_rows_cannot_certify(self):
        # on the first |S| amplitudes every qubit whose bit is >= |S| has
        # bit 0, so A_k psi = i psi = -theta there and those rows have rank
        # below 3n + 1; the rows of S have full rank
        for n in (10, 12):
            psi = sample_haar_state(n, 70 + n)
            by_amp = build_matrix(psi).data.reshape(1 << n, 2, -1)
            rows = orbit_matrix._sample_tables(n)[0]
            block = by_amp[: rows.size].reshape(2 * rows.size, -1)
            assert numerical_rank(block) <= 3 * n
            assert numerical_rank(by_amp[rows].reshape(2 * rows.size, -1)) == 3 * n + 1

    @pytest.mark.parametrize("below", [True, False])
    def test_bound_t_decides_on_a_synthetic_gram(self, below):
        # g = I passes the certificate with T = trace(g); with a bound T far
        # above trace(g) the shift s = 2 delta + tol^2 (T + delta), linear in
        # T, decides alone: s = 0.99 certifies and s = 1.01 does not.  A
        # certificate that ignored T would certify both
        cols, rows, tol = 10, 64, DEFAULT_TOL
        g = np.eye(cols)
        assert orbit_matrix._certifies_full_rank(g, rows, tol, np.trace(g))
        per_t = certificate_shift(g, rows, tol, 1.0)
        total = (0.99 if below else 1.01) / per_t
        assert total > 1e12 * np.trace(g)
        assert np.isclose(certificate_shift(g, rows, tol, total), 0.99 if below else 1.01)
        assert orbit_matrix._certifies_full_rank(g, rows, tol, total) == below
        assert not orbit_matrix._certifies_full_rank(g, rows, tol, 1e16 * cols)

    def test_bound_t_is_above_the_trace_of_the_whole_gram(self, monkeypatch):
        # T = c fl(|2^-e psi|^2) (1 + 4 N u) >= c |2^-e psi|^2, summed
        # exactly in Fractions, from tiny (e just above -500, and below it,
        # where the parts are scaled before they are squared) to huge scales
        totals = []
        certify = orbit_matrix._certifies_full_rank
        monkeypatch.setattr(orbit_matrix, "_certifies_full_rank", lambda g, rows, tol, total: totals.append(total) or certify(g, rows, tol, total))
        for scale in (1.0, 2.0**-480, 1e-140, 1e-160, 1e-300, 1e150, 2.0**500):
            psi = PureState(n=10, amps=sample_haar_state(10, 3).amps * scale)
            totals.clear()
            assert factorize(psi)[0] == 31
            e = math.frexp(max(np.abs(psi.amps.real).max(), np.abs(psi.amps.imag).max()))[1]
            parts = np.concatenate([np.ldexp(psi.amps.real, -e), np.ldexp(psi.amps.imag, -e)])
            exact = 31 * sum(Fraction(x) ** 2 for x in parts.tolist())
            assert len(totals) == 1 and exact <= Fraction(totals[0]) <= exact * (1 + Fraction(1, 10**9))

    def test_sample_check_passes_the_table(self):
        # the closed forms match the Gram matrix of the rows of S taken from
        # the whole M, Haar and rotated states, n = 10..13
        rng = np.random.default_rng(6)
        states = [sample_haar_state(n, 80 + n) for n in range(10, 14)]
        states += [apply_group(random_local_unitary(2 * k, rng), make_singlet_product(k)) for k in (5, 6)]
        for psi in states:
            g, e = sample_gram(psi)
            orbit_matrix._check_sample_gram(g, psi.amps, psi.n, e)

    def test_sample_check_on_every_row_is_the_table(self, monkeypatch):
        # with S = every amplitude the closed forms reduce to the table
        # facts `_check_gram` checks, on the whole Gram matrix: each change
        # of a diagonal or in-triple entry that `_check_gram` rejects, the
        # sample check rejects too, and so it does a change in the theta row
        for n in (3, 5):
            psi = sample_haar_state(n, 60 + n)
            rows = np.arange(1 << n)
            monkeypatch.setattr(orbit_matrix, "_sample_tables", lambda n: (rows, *orbit_matrix._sign_flip(rows, n, np.dtype(np.float64))))
            data = build_matrix(psi).data
            good = data.T @ data
            cols = 3 * n + 1
            orbit_matrix._check_sample_gram(good, psi.amps, n, 0)
            orbit_matrix._check_gram(good, orbit_matrix.GRAM_RTOL)
            spots = [(i, i) for i in range(cols)] + [(cols - 1, j) for j in range(cols)]
            spots += [(a + i, a + j) for a in range(0, 3 * n, 3) for i, j in itertools.permutations(range(3), 2)]
            for i, j in spots:
                bad = good.copy()
                bad[i, j] += 1e-8 * good[-1, -1]
                with pytest.raises(AssertionError, match="inner-product table"):
                    orbit_matrix._check_sample_gram(bad, psi.amps, n, 0)

    @pytest.mark.parametrize("n", [10, 12])
    @pytest.mark.parametrize("col", ["B high", "C high", "A low", "C low", "theta"])
    def test_sample_check_catches_a_sign_flip(self, monkeypatch, n, col):
        # a column of the sample's real rows built with the wrong sign: B or
        # C of qubit 1, whose bit is >= b; A or C of qubit n, whose bit is
        # < b; or theta, which only the theta row of the check sees.  The
        # rows still have full rank, so the check is what refuses them
        index = {"B high": 1, "C high": 2, "A low": 3 * n - 3, "C low": 3 * n - 1, "theta": 3 * n}[col]
        build = orbit_matrix._build_real
        psi = sample_haar_state(n, 90 + n)
        assert factorize(psi)[0] == 3 * n + 1

        def flipped(re, im, n, rows, out, *tables):
            build(re, im, n, rows, out, *tables)
            if not isinstance(rows, slice):
                out[index, 0] *= -1

        monkeypatch.setattr(orbit_matrix, "_build_real", flipped)
        with pytest.raises(AssertionError, match="inner-product table on the row sample"):
            factorize(psi)

    def test_same_rank_and_kernel_bytes_without_the_sample(self, monkeypatch):
        # Haar states n = 10..14 (each decided by S), every exact family to
        # n = 12 as floats and LU-rotated, a state that is zero on S and its
        # flips, and tiny and huge copies: rank and kernel bytes equal those
        # of the full path alone
        rng = np.random.default_rng(12)
        states = [sample_haar_state(n, 100 + n) for n in range(10, 15)]
        states += [psi for _, *copies in float_copies(12, seed=7) for psi in copies]
        amps = sample_haar_state(12, 5).amps.copy()
        rows, _, flip = orbit_matrix._sample_tables(12)
        amps[rows], amps[flip.ravel()] = 0, 0
        rotated = apply_group(random_local_unitary(11, rng), make_singlet_product_plus_zero(5))
        states += [PureState(n=12, amps=amps)]
        states += [PureState(n=psi.n, amps=psi.amps * scale) for psi in (states[0], rotated) for scale in (1e-300, 1e150)]
        answers = sample_decisions(monkeypatch)
        with_sample = [factorize(psi) for psi in states]
        assert sum(answers) >= 6
        monkeypatch.setattr(orbit_matrix, "_sample_certifies", lambda *args: False)
        for psi, (rank, kernel) in zip(states, with_sample):
            full_rank, full_kernel = factorize(psi)
            assert rank == full_rank and kernel.shape == full_kernel.shape
            assert kernel.tobytes() == full_kernel.tobytes()

    def test_only_multi_block_float_states_try_the_sample(self, monkeypatch):
        # one-block float states, exact states and the whole-matrix route of
        # rank_float never build S; a state below 2^-500 tries it too
        answers = sample_decisions(monkeypatch)
        factorize(sample_haar_state(9, 1))
        factorize(make_cat(12))
        rank_float(build_matrix(sample_haar_state(11, 1)))
        assert answers == []
        tiny = PureState(n=10, amps=sample_haar_state(10, 1).amps * 1e-300)
        assert factorize(tiny)[0] == 31 and answers == [True]

    @pytest.mark.parametrize("n, eps", [(10, 1e-5), (12, 1e-4), (16, 1e-3)])
    def test_skewed_full_rank_states_are_certified_by_the_sample(self, monkeypatch, n, eps):
        # |0...0> plus a small Haar part: T must follow |2^-e psi|^2, about
        # (3n+1)/4 here; the bound (3n+1) 2^(n+1) that holds for every scale
        # is too loose for these states, and they fall to the full path
        answers = sample_decisions(monkeypatch)
        amps = sample_haar_state(n, 1).amps * eps
        amps[0] += 1.0
        assert factorize(PureState(n=n, amps=amps))[0] == 3 * n + 1
        assert answers == [True]

    def test_haar_states_are_decided_by_the_sample(self, monkeypatch):
        # 20 Haar states at each n = 10..16, the bench's n = 12 and 13
        # among them: the sample of 16 (n - 2) rows says yes to every one
        answers = sample_decisions(monkeypatch)
        for n in range(10, 17):
            for seed in range(1, 21):
                assert factorize(sample_haar_state(n, seed))[0] == 3 * n + 1
        assert answers == [True] * 140

    def test_sample_certificate_margin(self, monkeypatch):
        # lambda_min of the sample's Gram matrix is at least 10 times the
        # certificate's shift for the skewed states above and a Haar state
        # at n = 20; a sample of b = 4 amplitudes per sub-block leaves the
        # n = 10 skewed state about 7, so a thinner sample shows here
        seen = []
        certify = orbit_matrix._certifies_full_rank
        monkeypatch.setattr(orbit_matrix, "_certifies_full_rank", lambda *args: seen.append(args) or certify(*args))
        states = [sample_haar_state(20, 1)]
        for n, eps in ((10, 1e-5), (12, 1e-4), (16, 1e-3)):
            amps = sample_haar_state(n, 1).amps * eps
            amps[0] += 1.0
            states.append(PureState(n=n, amps=amps))
        for psi in states:
            seen.clear()
            assert factorize(psi)[0] == 3 * psi.n + 1 and len(seen) == 1
            g, rows, tol, total = seen[0]
            assert np.linalg.eigvalsh(g)[0] >= 10 * certificate_shift(g, rows, tol, total)

    def test_sample_check_gathers_its_own_flips(self, monkeypatch):
        # the builder given the flips of the next qubit builds rows that
        # still have full rank; the check, which gathers the flips from the
        # amplitudes itself, refuses them
        rows, sign, flip = orbit_matrix._sample_tables(12)
        monkeypatch.setattr(orbit_matrix, "_sample_tables", lambda n: (rows, sign, np.roll(flip, -1, axis=0)))
        certify = orbit_matrix._certifies_full_rank
        said = []
        monkeypatch.setattr(orbit_matrix, "_certifies_full_rank", lambda *args: said.append(certify(*args)) or said[-1])
        with pytest.raises(AssertionError, match="inner-product table on the row sample"):
            factorize(sample_haar_state(12, 1))
        assert said == [True]

    def test_strided_input_is_stored_contiguous(self):
        # the scale reads the amplitudes as one float64 view, which needs
        # C-contiguous storage: a strided input is copied once, on
        # construction, and analyzes to the bytes of its copy, whether the
        # sample, the Gram matrix or the TSQR decides
        rng = np.random.default_rng(9)
        cases = [(sample_haar_state(n, 7), 3 * n + 1) for n in (6, 12)]
        cases += [(apply_group(random_local_unitary(2 * k, rng), make_singlet_product(k)), 3 * k + 1) for k in (3, 6)]
        for psi, expected_rank in cases:
            x = np.zeros(2 << psi.n, dtype=complex)
            x[::2] = psi.amps
            strided = PureState(n=psi.n, amps=x[::2])
            assert strided.amps.flags.c_contiguous
            (rank, kernel), (copy_rank, copy_kernel) = factorize(strided), factorize(PureState(n=psi.n, amps=x[::2].copy()))
            assert rank == copy_rank == expected_rank
            assert kernel.tobytes() == copy_kernel.tobytes()

    def test_certified_analysis_copies_nothing_of_psi(self):
        # tracing from after psi is built: the scale, T, the rows of S, their
        # Gram matrix and the check stay below psi's 128 KiB at n = 13, and
        # far below its 16 MiB at n = 20
        for n, bound in ((13, 128 << 10), (20, 320 << 10)):
            psi = sample_haar_state(n, 1)
            tracemalloc.start()
            try:
                rank, kernel = factorize(psi)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rank == 3 * n + 1 and kernel.shape == (0, 3 * n + 1)
            assert peak < bound, (n, peak)


class TestVerifyIsotropy:
    def test_singlet_diagonal(self):
        psi = make_singlet_product(1)
        x = LocalAlgebraElement.from_triples([(1.0, 0.5, -2.0), (1.0, 0.5, -2.0)])
        assert verify_isotropy(psi, IsotropyElement(x=x, theta=0.0))

    def test_a_phase_on_ket0(self):
        psi = make_basis(MultiIndex((0,)))
        x = LocalAlgebraElement.from_triples([(1.0, 0.0, 0.0)])
        assert verify_isotropy(psi, IsotropyElement(x=x, theta=1.0))

    def test_b_not_isotropy_on_ket0(self):
        psi = make_basis(MultiIndex((0,)))
        x = LocalAlgebraElement.from_triples([(0.0, 1.0, 0.0)])
        assert not verify_isotropy(psi, IsotropyElement(x=x, theta=0.0))

    def test_exact_singlet_diagonal(self):
        # (X, X) annihilates the singlet exactly, for a rational X
        psi = make_singlet_product(1)
        trip = (Fraction(2, 3), Fraction(-1, 7), Fraction(5))
        x = LocalAlgebraElement.from_triples([trip, trip])
        assert verify_isotropy(psi, IsotropyElement(x=x, theta=Fraction(0)))
        off = LocalAlgebraElement.from_triples([trip, (Fraction(2, 3), Fraction(-1, 7), Fraction(4))])
        assert not verify_isotropy(psi, IsotropyElement(x=off, theta=Fraction(0)))

    def test_exact_b_not_isotropy_on_ket0(self):
        psi = make_basis(MultiIndex((0,)))
        one, zero = Fraction(1), Fraction(0)
        assert verify_isotropy(psi, IsotropyElement(LocalAlgebraElement.from_triples([(one, zero, zero)]), one))
        x = LocalAlgebraElement.from_triples([(zero, one, zero)])
        assert not verify_isotropy(psi, IsotropyElement(x=x, theta=zero))

    def test_exact_matrix_action_matches_float(self):
        # M v over den, read as complex amplitudes, is X.psi - i theta psi
        psi = make_singlet_product(2)
        trips = [
            (Fraction(1), Fraction(2), Fraction(-1)),
            (Fraction(0), Fraction(1, 2), Fraction(3)),
            (Fraction(-2), Fraction(0), Fraction(1)),
            (Fraction(1, 3), Fraction(-1), Fraction(0)),
        ]
        theta = Fraction(3, 4)
        m = build_matrix(psi)
        v = np.array([c for trip in trips for c in trip] + [theta], dtype=object)
        real = [float(e / m.den) for e in m.data.astype(object) @ v]
        x = LocalAlgebraElement.from_triples(trips)
        expected = apply_algebra(x, psi) - 1j * float(theta) * psi.amps
        assert np.allclose(np.array(real[0::2]) + 1j * np.array(real[1::2]), expected, atol=1e-12)


    def test_matches_the_object_product_on_every_family_element(self):
        # every isotropy element of the exact families accepted, as the whole
        # integer M times v accepts it; one perturbed copy of each, with the
        # oracle deciding
        rejected = 0
        for psi in [*exact_families(8), *complex_exact_states()]:
            m = build_matrix(psi).data.astype(object)
            for elem in isotropy_basis(psi):
                assert verify_isotropy(psi, elem) and not any(object_residual(m, elem))
                for bent in perturbed(elem):
                    expected = not any(object_residual(m, bent))
                    assert verify_isotropy(psi, bent) == expected
                    rejected += not expected
        assert rejected > 0

    def test_large_numerators_over_a_denominator(self):
        # numerators >= 2**53 (object ints) over den > 1: the rotated singlet
        # times a large integer, alone and with a |0> factor
        rotated = complex_exact_states()[1]
        big = PureState(n=2, num=rotated.num.astype(object) * (2**60 + 1), den=7 * rotated.den)
        assert big.num.dtype == object
        for psi in (big, tensor(big, make_basis(MultiIndex((0,))))):
            m = build_matrix(psi).data.astype(object)
            basis = isotropy_basis(psi)
            assert len(basis) == 3 * psi.n + 1 - (min_orbit_bound(psi.n) + 1)
            for elem in basis:
                assert verify_isotropy(psi, elem) and not any(object_residual(m, elem))
                for bent in perturbed(elem):
                    assert verify_isotropy(psi, bent) == (not any(object_residual(m, bent)))
                    assert not verify_isotropy(psi, bent)


def object_residual(m, elem):
    """M v, for the whole integer M of a state as Python ints and the
    element's vector v scaled to integers: the residual X.psi - i theta psi,
    realified and scaled (the oracle for the exact `verify_isotropy`)."""
    v = [c for co in elem.x.coords for c in (co.t, co.r, co.s)] + [elem.theta]
    scale = math.lcm(*(c.denominator for c in v))
    return m @ np.array([int(c * scale) for c in v], dtype=object)


def complex_exact_states():
    """Exact states whose real and imaginary parts are not proportional:
    |0> + i|1>, the singlet with the Gaussian-rational SU(2) element
    [[1+2i, -2+4i], [2+4i, 1-2i]] / 5 on qubit 1, and products of them."""
    phase = PureState(n=1, num=np.array([[1, 0], [0, 1]]))
    rotated = PureState(n=2, num=np.array([[2, 1, -1, 2], [-4, 2, 2, 4]]), den=5)
    return [phase, rotated, tensor(phase, make_singlet_product(1)), tensor(rotated, phase),
            tensor(make_cat(2), rotated)]


def perturbed(elem):
    """The element with theta moved by 1, and with its last slot's t moved
    by 1/3."""
    coords = list(elem.x.coords)
    last = coords[-1]
    coords[-1] = type(last)(last.t + Fraction(1, 3), last.r, last.s)
    return [
        IsotropyElement(x=elem.x, theta=elem.theta + 1),
        IsotropyElement(x=LocalAlgebraElement(tuple(coords)), theta=elem.theta),
    ]


class TestExactNumeratorDtypes:
    @pytest.mark.parametrize("num", [
        np.array([[1, 0], [0, 0]], dtype=object),
        np.array([[200, 0], [0, 3]], dtype=np.uint8),
        np.array([[3, 0, 0, 200], [0, 0, 0, 0]], dtype=np.uint8),
    ])
    def test_analysed_as_their_int64_copy(self, num):
        # the object array once failed in the Gram sum, and uint8 negation
        # wrapped around and broke the table check
        psi = PureState(n=num.shape[1].bit_length() - 1, num=num)
        ref = PureState(n=psi.n, num=np.array(num.tolist(), dtype=np.int64))
        assert factorize(psi) == factorize(ref)


class TestMinOrbitBound:
    def test_values(self):
        assert min_orbit_bound(2) == 3
        assert min_orbit_bound(3) == 5
        assert min_orbit_bound(10) == 15

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            min_orbit_bound(0)


def test_csv_dump(tmp_path):
    path = tmp_path / "m.csv"
    dump_csv(make_singlet_product(1), str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "row,t1,r1,s1,t2,r2,s2,theta"
    assert len(lines) == 9
    assert lines[1].startswith("00:re,")


def test_streamed_csv_dump_matches_the_whole_matrix(tmp_path):
    # several row blocks each: a float state and an object-int state over a
    # denominator, whose entries are written as the rationals they stand for
    rng = np.random.default_rng(8)
    nums = rng.integers(-(2**62), 2**62, size=(2, 1 << 10)).astype(object) * 2**8
    exact = [(Fraction(int(a), 15), Fraction(int(b), 15)) for a, b in zip(*nums)]
    for psi in (sample_haar_state(11, 1), PureState.from_exact(exact)):
        assert (1 << psi.n) > BLOCK_AMPS
        path = tmp_path / "m.csv"
        dump_csv(psi, str(path))
        m = build_matrix(psi)
        if psi.is_exact:
            assert m.data.dtype == object and m.den == 15
            expected = [[str(Fraction(v, m.den)) for v in row] for row in m.data.tolist()]
        else:
            expected = [[str(v) for v in row] for row in m.data]
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + m.shape[0]
        assert [line.split(",")[1:] for line in lines[1:]] == expected
