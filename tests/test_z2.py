import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitscope import z2
from orbitscope.cli import engineered_sign_instance
from orbitscope.orbit_matrix import exact_rank_kernel
from orbitscope.z2 import (
    CapacityError,
    InternalContradictionError,
    NoWitnessError,
    Z2Matrix,
    Z2Witness,
    find_parity_set,
    gf2_kernel_basis,
    gf2_solve_ones,
    partition_parity_classes,
    solve_sign_kernel,
    zero_rows,
)


def brute_kernel(matrix):
    """All GF(2) kernel vectors by enumeration (oracle)."""
    zero = (0,) * len(matrix.rows)
    return {v for v in range(1 << matrix.ncols) if matrix.apply(v) == zero}


def brute_ones_preimages(matrix):
    ones = (1,) * len(matrix.rows)
    return {v for v in range(1 << matrix.ncols) if matrix.apply(v) == ones}


def brute_zero_rows(xi):
    """Oracle: enumerate all sign patterns directly."""
    m = len(xi)
    exact = [Fraction(v) for v in xi]
    out = []
    for r in range(1 << m):
        total = sum(-v if (r >> j) & 1 else v for j, v in enumerate(exact))
        if total == 0:
            out.append(tuple((r >> j) & 1 for j in range(m)))
    return out


def random_matrix(rng, nrows, ncols):
    return Z2Matrix(
        rows=tuple(int(rng.integers(0, 1 << ncols)) for _ in range(nrows)),
        ncols=ncols,
    )


class TestZ2Matrix:
    def test_bit_rows_round_trip(self):
        rows = [(1, 0, 1), (0, 1, 1)]
        m = Z2Matrix.from_bit_rows(rows)
        assert m.bit_rows() == rows
        assert m.ncols == 3

    def test_apply(self):
        m = Z2Matrix.from_bit_rows([(1, 1, 0), (0, 1, 1)])
        assert m.apply(0b011) == (0, 1)  # v = (1,1,0)
        assert m.apply(0b101) == (1, 1)  # v = (1,0,1)

    def test_rejects_bits_beyond_ncols(self):
        with pytest.raises(ValueError):
            Z2Matrix(rows=(0b100,), ncols=2)

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            Z2Matrix.from_bit_rows([(1, 0), (1, 0, 1)])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            Z2Matrix.from_bit_rows([(1, 2)])


class TestKernelAndOnes:
    def test_kernel_against_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            nrows = int(rng.integers(1, 7))
            ncols = int(rng.integers(1, 8))
            m = random_matrix(rng, nrows, ncols)
            basis = gf2_kernel_basis(m)
            # basis vectors are independent and span exactly the brute kernel
            spanned = {0}
            for b in basis:
                spanned |= {s ^ b for s in spanned}
            assert spanned == brute_kernel(m)
            assert len(spanned) == 1 << len(basis)

    def test_ones_preimage_against_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            nrows = int(rng.integers(1, 7))
            ncols = int(rng.integers(1, 8))
            m = random_matrix(rng, nrows, ncols)
            preimages = brute_ones_preimages(m)
            got = gf2_solve_ones(m)
            if preimages:
                assert got in preimages
            else:
                assert got is None


class TestSolveSignKernel:
    def test_kernel_witness(self):
        # rows (0,0,1) and (1,1,0): GF(2) kernel contains (1,1,0)
        m = Z2Matrix.from_bit_rows([(0, 0, 1), (1, 1, 0)])
        w = solve_sign_kernel(m)
        assert w.kind == "kernel"
        assert w.v == (1, 1, 0)
        assert w.parity_set == frozenset({1, 2})
        assert w.parity == 0
        assert m.apply(0b011) == (0, 0)

    def test_ones_preimage_witness(self):
        # rows (0,1),(1,0): trivial kernel, but E is singular
        m = Z2Matrix.from_bit_rows([(0, 1), (1, 0)])
        w = solve_sign_kernel(m)
        assert w.kind == "ones-preimage"
        assert w.v == (1, 1)
        assert w.parity == 1
        assert m.apply(0b11) == (1, 1)

    def test_no_witness_when_e_invertible(self):
        # L = [[0]] gives E = [1], which is invertible
        with pytest.raises(NoWitnessError):
            solve_sign_kernel(Z2Matrix(rows=(0,), ncols=1))
        # L = [[0,0],[0,1]] has a GF(2) kernel, but E = [[1,1],[1,-1]]
        # is invertible, so the lemma's hypothesis fails
        with pytest.raises(NoWitnessError):
            solve_sign_kernel(Z2Matrix.from_bit_rows([(0, 0), (0, 1)]))

    def test_no_witness_iff_e_has_full_column_rank(self):
        rng = np.random.default_rng(31)
        outcomes = set()
        for i in range(300):
            m = int(rng.integers(1, 9))
            bits = rng.integers(0, 2, size=(int(rng.integers(1, 41)), m))
            if i % 3 == 0:  # equal or opposite columns of E make it singular
                bits[:, -1] = bits[:, 0] ^ int(rng.integers(0, 2))
            full = bool(np.linalg.matrix_rank(1 - 2 * bits) == m)
            outcomes.add(full)
            matrix = Z2Matrix.from_bit_rows(bits.tolist())
            if full:
                with pytest.raises(NoWitnessError):
                    solve_sign_kernel(matrix)
            else:
                solve_sign_kernel(matrix)
        assert outcomes == {True, False}

    def test_no_witness_for_an_injective_e_with_rows_equal_to_or_above_m(self):
        cases = [
            [(0, 0), (0, 1)],  # rows = m = 2: E = [[1, 1], [1, -1]]
            [(0, 0), (0, 1), (1, 1)],  # rows > m
            [(0, 0, 0), (0, 0, 1), (0, 1, 0)],  # rows = m = 3
            [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)],  # rows > m
        ]
        for bit_rows in cases:
            m = len(bit_rows[0])
            assert len(bit_rows) >= m and np.linalg.matrix_rank(1 - 2 * np.array(bit_rows)) == m
            with pytest.raises(NoWitnessError, match="trivial kernel"):
                solve_sign_kernel(Z2Matrix.from_bit_rows(bit_rows))

    def test_fewer_rows_than_columns_skip_the_elimination(self, monkeypatch):
        # rank E <= rows < m, so E is singular without eliminating E^T E,
        # and the witness is the two eliminations' one
        monkeypatch.setattr(z2, "exact_rank_kernel", lambda gram: pytest.fail("E^T E was eliminated"))
        rng = np.random.default_rng(37)
        for _ in range(300):
            m = int(rng.integers(2, 12))
            matrix = Z2Matrix.from_bit_rows(rng.integers(0, 2, size=(int(rng.integers(1, m)), m)).tolist())
            assert same_outcome(witness_or_refusal(matrix), two_elimination_witness(matrix)[0])

    def test_deterministic_lex_min(self):
        m = Z2Matrix(rows=(0,) * 3, ncols=3)  # kernel is everything
        w = solve_sign_kernel(m)
        assert w.v == (0, 0, 1)  # smallest (v_1, v_2, v_3) tuple in the basis

    def test_witness_kind_validation(self):
        with pytest.raises(ValueError):
            Z2Witness(kind="other", v=(1,), parity_set=frozenset({1}), parity=0)


def two_elimination_witness(matrix):
    """The sign lemma solved with two GF(2) eliminations, one of L for the
    kernel and one of [L | 1] for the ones-preimage only when the kernel is
    trivial, each with an explicit back-substitution pass: an independent
    copy of the solver, returning (witness, kernel basis, ones-preimage)."""

    def eliminate(rows, ncols):
        work, pivots, reduced = list(rows), [], []
        for col in range(ncols):
            pivot = next((i for i, r in enumerate(work) if (r >> col) & 1), None)
            if pivot is None:
                continue
            prow = work.pop(pivot)
            reduced = [r ^ prow if (r >> col) & 1 else r for r in reduced]
            work = [r ^ prow if (r >> col) & 1 else r for r in work]
            reduced.append(prow)
            pivots.append(col)
        for i in range(len(reduced) - 1, -1, -1):
            for j in range(i):
                if (reduced[j] >> pivots[i]) & 1:
                    reduced[j] ^= reduced[i]
        return reduced, pivots

    m = matrix.ncols
    reduced, pivots = eliminate(matrix.rows, m)
    kernel = []
    for fc in range(m):
        if fc not in pivots:
            v = 1 << fc
            for row, pc in zip(reduced, pivots):
                if (row >> fc) & 1:
                    v |= 1 << pc
            kernel.append(v)
    reduced, pivots = eliminate([r | (1 << m) for r in matrix.rows], m + 1)
    ones = None
    if not (pivots and pivots[-1] == m):
        ones = 0
        for row, pc in zip(reduced, pivots):
            if (row >> m) & 1:
                ones |= 1 << pc

    def bits(v):
        return tuple((v >> j) & 1 for j in range(m))

    e = 1 - 2 * np.array(matrix.bit_rows(), dtype=np.int64).reshape(-1, m)
    if exact_rank_kernel(e.T @ e)[0] == m:
        witness = NoWitnessError("the +-1 matrix E has trivial kernel")
    elif kernel:
        v = bits(min(kernel, key=bits))
        witness = Z2Witness("kernel", v, frozenset(j + 1 for j, b in enumerate(v) if b), 0)
    elif ones is not None:
        v = bits(ones)
        witness = Z2Witness("ones-preimage", v, frozenset(j + 1 for j, b in enumerate(v) if b), 1)
    else:
        witness = InternalContradictionError("E singular but L has trivial kernel and no ones-preimage")
    return witness, kernel, ones


def witness_or_refusal(matrix):
    try:
        return solve_sign_kernel(matrix)
    except (NoWitnessError, InternalContradictionError) as exc:
        return exc


def same_outcome(got, expected):
    if isinstance(expected, Exception):
        return type(got) is type(expected) and str(got) == str(expected)
    return type(got) is Z2Witness and got == expected


class TestAgainstTwoEliminations:
    """One reduction of [L | 1] gives what two eliminations give, exactly."""

    def test_every_small_matrix(self):
        count = 0
        kinds = set()
        for ncols in range(1, 4):
            for nrows in range(5):
                for rows in itertools.product(range(1 << ncols), repeat=nrows):
                    matrix = Z2Matrix(rows=rows, ncols=ncols)
                    witness, kernel, ones = two_elimination_witness(matrix)
                    assert gf2_kernel_basis(matrix) == kernel, matrix
                    assert gf2_solve_ones(matrix) == ones, matrix
                    got = witness_or_refusal(matrix)
                    assert same_outcome(got, witness), (matrix, got, witness)
                    kinds.add(type(got).__name__ if isinstance(got, Exception) else got.kind)
                    count += 1
        assert count == 5053
        assert kinds == {"kernel", "ones-preimage", "NoWitnessError"}

    def test_engineered_instances(self):
        rng = np.random.default_rng(2026)
        kinds = set()
        for _ in range(500):
            xi = engineered_sign_instance(rng, int(rng.integers(2, 9)))
            witness, _, _ = two_elimination_witness(Z2Matrix.from_bit_rows(zero_rows(xi)))
            got = find_parity_set(xi)
            assert got == witness, xi
            kinds.add(got.kind)
        assert kinds == {"kernel", "ones-preimage"}


class TestZeroRows:
    def test_against_oracle_exact(self):
        cases = [
            (1, 2, 3),
            (1, 1),
            (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
            (1, 1, 1, 1),
            (2, 5, 9),
        ]
        for xi in cases:
            assert sorted(zero_rows(xi)) == sorted(brute_zero_rows(xi))

    def test_float_matches_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            m = int(rng.integers(2, 7))
            ints = [int(v) for v in rng.integers(-5, 6, size=m)]
            if all(v == 0 for v in ints):
                ints[0] = 1
            exact = zero_rows(ints)
            floats = zero_rows([float(v) for v in ints])
            assert sorted(exact) == sorted(floats)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            zero_rows([])
        with pytest.raises(ValueError):
            zero_rows([0, 0, 0])

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            zero_rows([1] * 25)

    def test_exact_zero_test_has_no_tolerance(self):
        # no sign sum of 2^60 and 2^60 + 1 is zero, but two are within the
        # float tolerance of zero
        assert zero_rows((2**60, -(2**60) - 1)) == []
        assert len(zero_rows((float(2**60), float(-(2**60) - 1)))) == 2

    def test_sums_beyond_int64(self):
        for xi in ((2**70, 2**70), (2**62, 2**62, -(2**63)), (Fraction(2**62, 3), 2**62, 1)):
            assert sorted(zero_rows(xi)) == sorted(brute_zero_rows(xi))

    def test_sign_bit_orientation(self):
        # bit j-1 of the mask is r_j: for xi=(1,-1) the row (0,0) is a zero row
        assert (0, 0) in zero_rows((1, -1))

    def test_every_m_against_oracle_in_ascending_order(self):
        # odd m puts one more coefficient in the high half than the low one
        rng = np.random.default_rng(41)
        for m in range(1, 13):
            for _ in range(3):
                ints = [int(v) for v in rng.integers(-6, 7, size=m)]
                ints[0] = ints[0] or 1
                fracs = [Fraction(int(p), int(q)) for p, q in zip(rng.integers(-30, 31, size=m), rng.integers(1, 7, size=m))]
                if m > 1:
                    eps = rng.choice([-1, 1], size=m - 1)
                    fracs[-1] = sum(int(e) * v for e, v in zip(eps, fracs[:-1])) or Fraction(1, 3)
                for xi, exact in ((ints, ints), ([float(v) for v in ints], ints), (fracs, fracs)):
                    if any(exact):
                        assert zero_rows(xi) == brute_zero_rows(exact), xi

    def test_single_coefficient(self):
        assert zero_rows([3]) == zero_rows([Fraction(-2, 7)]) == zero_rows([0.5]) == []

    def test_all_ones_has_the_central_binomial_count(self):
        for m in range(1, 17):
            count = math.comb(m, m // 2) if m % 2 == 0 else 0
            assert len(zero_rows([1] * m)) == len(zero_rows([1.0] * m)) == count

    def test_rows_ascend_as_masks(self):
        masks = [sum(b << j for j, b in enumerate(r)) for r in zero_rows([1, 2, 3, 1, 2, 3, 4, 2, 2, 2])]
        assert len(masks) > 10 and masks == sorted(set(masks))

    def test_float_sum_on_the_bound_and_rounding_past_it(self):
        # sign sums delta +- 2^-90 and delta, with a bound of exactly delta:
        # rows (0,0,1,0) and (0,0,0,1) sum to delta, on the bound, and row
        # (0,0,0,0) to delta + 2^-90, which the zero test's sum rounds to
        # delta; -s + bound = 0 itself is below the high-half sum 2^-90, so
        # only a window widened past it finds that row
        delta = 2.0**-30
        xi = [0.5, -(0.5 - delta), 2.0**-91, 2.0**-91]
        tol = delta / (1 - delta)
        assert tol * math.fsum(map(abs, xi)) == delta
        rows = zero_rows(xi, tol)
        assert {(0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0), (1, 1, 1, 1)} <= set(rows) and len(rows) == 8
        assert zero_rows(xi, math.nextafter(tol, 0)) == []

    @pytest.mark.parametrize(
        "xi, index",
        [
            (["1", "-1"], 0),
            ([1, b"1"], 1),
            ([True, True], 0),
            ([2, False], 1),
            ([math.inf, -math.inf], 0),
            ([1.0, math.nan], 1),
            ([Fraction(1), np.float64(-math.inf)], 1),
        ],
    )
    def test_refuses_non_real_or_non_finite_coefficients(self, xi, index):
        with pytest.raises(ValueError, match=rf"^xi\[{index}\] = "):
            zero_rows(xi)

    @pytest.mark.parametrize(
        "call, xi, index",
        [
            (zero_rows, [10**400, 1.0], 0),
            (zero_rows, [1.0, 10**400], 1),
            (zero_rows, [Fraction(10**400, 3), 1.0], 0),
            (zero_rows, [2, 0.5, -(2**1024)], 2),
            (find_parity_set, [10**400, 1.0], 0),
        ],
    )
    def test_refuses_a_rational_beyond_the_float_range_next_to_a_float(self, call, xi, index):
        # float(v) would raise OverflowError; the boundary names the index
        with pytest.raises(ValueError, match=rf"^xi\[{index}\] is too large for a float"):
            call(xi)

    def test_huge_floats_are_scaled_before_summing(self):
        # ||xi||_1 = 3e308 overflows unscaled, and the bound with it
        assert zero_rows([1e308, 1e308, -1e308]) == []
        assert zero_rows([1e308, -1e308, 5e-324]) == [(0, 0, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1)]
        assert find_parity_set([1e308, 1e308]).parity_set == frozenset({1, 2})

    def test_cap_instance_in_half_lists(self):
        # 23 random 40-bit integers and one forced zero sum: the doubling
        # search held all 2^24 sums (320 MiB); the halves hold 2^12 each
        rng = np.random.default_rng(24)
        values = [int(v) for v in rng.integers(1, 2**40, size=23)]
        eps = [int(e) for e in rng.choice([-1, 1], size=23)]
        xi = values + [sum(e * v for e, v in zip(eps, values))]
        forced = tuple(int(e < 0) for e in eps) + (1,)
        tracemalloc.start()
        try:
            rows = zero_rows(xi)
            witness = find_parity_set(xi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert forced in rows and rows == sorted(rows, key=lambda r: r[::-1])
        assert peak < 4 << 20, peak
        assert len(witness.parity_set) % 2 == 0
        assert {sum(r[k - 1] for k in witness.parity_set) % 2 for r in rows} == {witness.parity}


class TestFindParitySet:
    def test_engineered_kernel_instance(self):
        w = find_parity_set((1, 2, 3))
        assert w.kind == "kernel"
        assert w.parity_set == frozenset({1, 2})
        assert w.parity == 0

    def test_engineered_ones_instance(self):
        w = find_parity_set((1, 1))
        assert w.kind == "ones-preimage"
        assert w.parity_set == frozenset({1, 2})
        assert w.parity == 1

    def test_no_zero_rows(self):
        with pytest.raises(ValueError):
            find_parity_set((1, 10, 100))

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_postconditions_on_random_instances(self, seed):
        # build xi whose last entry is a signed sum of the others, so at
        # least one zero row exists
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 9))
        xi = [int(v) for v in rng.integers(1, 50, size=m - 1)]
        eps = rng.integers(0, 2, size=m - 1)
        xi.append(int(sum((-1) ** e * v for e, v in zip(eps, xi))))
        if xi[-1] == 0:
            xi[-1] = xi[0] + sum(v for v in xi[1:-1])
        w = find_parity_set(xi)
        assert len(w.parity_set) % 2 == 0
        assert len(w.parity_set) > 0
        for row in zero_rows(xi):
            assert sum(row[k - 1] for k in w.parity_set) % 2 == w.parity


class TestPartitionParityClasses:
    def test_halves(self):
        for n in range(1, 6):
            p, p_prime = partition_parity_classes(n, [1], 0)
            assert len(p) == len(p_prime) == 1 << (n - 1)
            assert all(idx.bits[0] == 0 for idx in p)
            assert all(idx.bits[0] == 1 for idx in p_prime)

    def test_parity_membership(self):
        slots = [1, 3]
        p, p_prime = partition_parity_classes(3, slots, 1)
        for idx in p:
            assert (idx.bits[0] + idx.bits[2]) % 2 == 1
        for idx in p_prime:
            assert (idx.bits[0] + idx.bits[2]) % 2 == 0

    def test_slot_validation(self):
        with pytest.raises(ValueError):
            partition_parity_classes(3, [], 0)
        with pytest.raises(ValueError):
            partition_parity_classes(3, [4], 0)
