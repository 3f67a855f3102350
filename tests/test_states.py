import json
import tracemalloc
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, strategies as st

from orbitscope.states import (
    MultiIndex,
    PureState,
    ZeroStateError,
    make_basis,
    make_cat,
    make_singlet_product,
    make_singlet_product_plus_zero,
    max_abs,
    multi_index_complement,
    ratio_to_float,
    multi_index_double_complement,
    sample_haar_state,
    state_from_json,
    state_to_json,
    tensor,
)

def exact_pairs(psi):
    """The amplitudes of an exact state as (Fraction, Fraction) pairs."""
    return tuple((Fraction(a, psi.den), Fraction(b, psi.den)) for a, b in zip(*psi.num.tolist()))


bits_strategy = st.lists(st.integers(0, 1), min_size=1, max_size=10).map(tuple)


def brute_force_singlet_product(k):
    """Independent tensor-expansion oracle: expand k singlets term by term."""
    terms = {(): 1}
    for _ in range(k):
        new = {}
        for bits, coeff in terms.items():
            new[bits + (0, 1)] = coeff
            new[bits + (1, 0)] = -coeff
        terms = new
    return terms


class TestMultiIndex:
    def test_complement_examples(self):
        assert multi_index_complement(MultiIndex((0, 1, 1, 0)), 1).bits == (1, 1, 1, 0)
        assert multi_index_complement(MultiIndex((0, 0)), 2).bits == (0, 1)

    @given(bits_strategy, st.data())
    def test_complement_involution(self, bits, data):
        k = data.draw(st.integers(1, len(bits)))
        index = MultiIndex(bits)
        assert multi_index_complement(multi_index_complement(index, k), k) == index

    def test_complement_out_of_range(self):
        with pytest.raises(ValueError):
            multi_index_complement(MultiIndex((0, 1)), 3)
        with pytest.raises(ValueError):
            multi_index_complement(MultiIndex((0, 1)), 0)

    def test_double_complement_examples(self):
        assert multi_index_double_complement(MultiIndex((0, 0, 0)), 1, 3).bits == (1, 0, 1)
        assert multi_index_double_complement(MultiIndex((1, 1)), 1, 2).bits == (0, 0)

    @given(bits_strategy.filter(lambda b: len(b) >= 2), st.data())
    def test_double_complement_is_composition(self, bits, data):
        k = data.draw(st.integers(1, len(bits) - 1))
        l = data.draw(st.integers(k + 1, len(bits)))
        index = MultiIndex(bits)
        expected = multi_index_complement(multi_index_complement(index, k), l)
        assert multi_index_double_complement(index, k, l) == expected

    def test_double_complement_ordering(self):
        with pytest.raises(ValueError):
            multi_index_double_complement(MultiIndex((0, 0)), 2, 1)
        with pytest.raises(ValueError):
            multi_index_double_complement(MultiIndex((0, 0)), 1, 1)

    def test_storage_index_roundtrip(self):
        for n in range(1, 13):
            for idx in range(1 << n):
                index = MultiIndex.from_int(idx, n)
                assert index.to_int() == idx
                assert sum(b << (n - k) for k, b in enumerate(index.bits, start=1)) == idx


class TestGenerators:
    def test_singlet(self):
        psi = make_singlet_product(1)
        assert psi.n == 2
        assert list(psi.amps) == [0, 1, -1, 0]
        assert psi.is_exact

    def test_two_singlets_frozen(self):
        psi = make_singlet_product(2)
        nonzero = {
            format(i, "04b"): int(a.real)
            for i, a in enumerate(psi.amps)
            if a != 0
        }
        assert nonzero == {"0101": 1, "0110": -1, "1001": -1, "1010": 1}

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_singlet_product_matches_expansion_oracle(self, k):
        psi = make_singlet_product(k)
        expected = brute_force_singlet_product(k)
        for bits, coeff in expected.items():
            assert psi.amplitude(MultiIndex(bits)) == coeff
        assert np.count_nonzero(psi.amps) == len(expected) == 2**k
        assert set(np.unique(psi.amps[psi.amps != 0].real)) <= {1.0, -1.0}

    @pytest.mark.parametrize("k", range(1, 9))
    def test_singlet_products_equal_the_tensor_chain(self, k):
        # one Kronecker chain builds what k - 1 calls of `tensor` build
        singlet = PureState(n=2, num=[[0, 1, -1, 0], [0, 0, 0, 0]])
        zero = make_basis(MultiIndex((0,)))
        for psi, factors in (
            (make_singlet_product(k), [singlet] * k),
            (make_singlet_product_plus_zero(k), [singlet] * k + [zero]),
        ):
            expected = reduce(tensor, factors)
            assert psi.n == expected.n and psi.den == expected.den
            assert psi.num.dtype == expected.num.dtype and np.array_equal(psi.num, expected.num)
            assert psi.amps.tobytes() == expected.amps.tobytes()

    def test_singlet_product_rejects_zero_copies(self):
        with pytest.raises(ValueError):
            make_singlet_product(0)
        with pytest.raises(ValueError):
            make_singlet_product_plus_zero(0)

    def test_singlet_plus_zero(self):
        psi = make_singlet_product_plus_zero(1)
        assert psi.n == 3
        assert psi.amplitude(MultiIndex((0, 1, 0))) == 1
        assert psi.amplitude(MultiIndex((1, 0, 0))) == -1
        assert np.count_nonzero(psi.amps) == 2

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_singlet_plus_zero_last_bit(self, k):
        psi = make_singlet_product_plus_zero(k)
        for i in np.flatnonzero(psi.amps):
            assert i % 2 == 0  # last bit of every populated multi-index is 0
        assert np.count_nonzero(psi.amps) == 2**k

    def test_cat(self):
        psi = make_cat(3)
        assert psi.amplitude(MultiIndex((0, 0, 0))) == 1
        assert psi.amplitude(MultiIndex((1, 1, 1))) == 1
        assert np.count_nonzero(psi.amps) == 2
        single = make_cat(1)
        assert list(single.amps) == [1, 1]
        for n in range(1, 9):
            assert np.count_nonzero(make_cat(n).amps) == 2

    def test_basis(self):
        assert list(make_basis(MultiIndex((0,))).amps) == [1, 0]
        psi = make_basis(MultiIndex((0, 1)))
        assert list(psi.amps) == [0, 1, 0, 0]
        assert np.count_nonzero(psi.amps) == 1

    def test_generators_are_exact(self):
        assert make_singlet_product(2).is_exact
        assert make_cat(4).is_exact
        assert make_basis(MultiIndex((1, 0))).is_exact
        assert not sample_haar_state(3, 0).is_exact


class TestHaarSampling:
    def test_deterministic(self):
        a = sample_haar_state(3, 11)
        b = sample_haar_state(3, 11)
        assert np.array_equal(a.amps, b.amps)

    def test_seed_sensitivity(self):
        a = sample_haar_state(3, 11)
        b = sample_haar_state(3, 12)
        assert not np.array_equal(a.amps, b.amps)

    def test_no_zero_amplitudes(self):
        psi = sample_haar_state(4, 5)
        assert len(psi.amps) == 16
        assert np.all(np.abs(psi.amps) > 0)

    @pytest.mark.parametrize("n, seed", [(1, 0), (5, 3), (13, 943177187)])
    def test_draws_real_parts_then_imaginary_parts(self, n, seed):
        rng = np.random.default_rng(seed)
        expected = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        assert sample_haar_state(n, seed).amps.tobytes() == expected.tobytes()

    def test_no_complex_temporaries(self):
        n = 13
        tracemalloc.start()
        try:
            psi = sample_haar_state(n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the state and one part at a time; re + 1j * im peaked at 3x the state
        assert peak < psi.amps.nbytes * 1.6


class TestTensor:
    def test_basis_tensor(self):
        psi = tensor(make_basis(MultiIndex((0,))), make_basis(MultiIndex((1,))))
        assert np.array_equal(psi.amps, make_basis(MultiIndex((0, 1))).amps)

    def test_singlet_squared(self):
        psi = tensor(make_singlet_product(1), make_singlet_product(1))
        assert exact_pairs(psi) == exact_pairs(make_singlet_product(2))

    def test_exact_matches_fraction_product(self):
        # numerators near 2**40 push the products past int64: Python-int fallback
        rng = np.random.default_rng(4)
        pairs = [
            [(Fraction(int(a), int(d)), Fraction(int(b), int(d))) for a, b, d in rows]
            for rows in (
                zip(rng.integers(-2**40, 2**40, 4), rng.integers(-2**40, 2**40, 4), [1, 3, 4, 9]),
                zip(rng.integers(-2**40, 2**40, 2), rng.integers(-9, 9, 2), [5, 7]),
            )
        ]
        psi = tensor(PureState.from_exact(pairs[0]), PureState.from_exact(pairs[1]))
        expected = tuple(
            (a1 * a2 - b1 * b2, a1 * b2 + b1 * a2)
            for a1, b1 in pairs[0]
            for a2, b2 in pairs[1]
        )
        assert psi.num.dtype == object
        assert exact_pairs(psi) == expected
        assert np.array_equal(psi.amps, [complex(float(a), float(b)) for a, b in expected])

    def test_float_equals_kron(self):
        for n1, n2 in ((1, 2), (2, 3), (3, 1), (2, 2)):
            a, b = sample_haar_state(n1, 10 * n1 + n2), sample_haar_state(n2, 20 * n1 + n2)
            assert np.array_equal(tensor(a, b).amps, np.kron(a.amps, b.amps))

    @pytest.mark.parametrize("bound1, bound2", [
        (50, 9),  # int64 throughout
        (2**26, 2**25),  # products below 2**53 whatever the signs: int64
        (2**26 + 1, 2**26),  # products may cross 2**53: Python ints, stored by value
        (2**30, 2**30),  # products beyond 2**53: object
        (2**60, 5),  # an object factor
    ])
    def test_exact_equals_kron(self, bound1, bound2):
        rng = np.random.default_rng(bound1 % 1000 + bound2)
        factors = []
        for n, bound in ((2, bound1), (1, bound2)):
            num = np.array([[int(v) for v in rng.integers(-bound, bound + 1, 1 << n)] for _ in range(2)], dtype=object)
            num[:, 0] = bound  # the bound is reached
            factors.append(PureState(n=n, num=num, den=int(rng.integers(1, 50))))
        psi = tensor(*factors)
        (a1, b1), (a2, b2) = (f.num.astype(object) for f in factors)
        expected = np.stack([np.kron(a1, a2) - np.kron(b1, b2), np.kron(a1, b2) + np.kron(b1, a2)])
        assert psi.num.tolist() == expected.tolist()
        assert psi.den == factors[0].den * factors[1].den
        small = max(abs(v) for v in expected.ravel()) < 2**53
        assert psi.num.dtype == (np.int64 if small else object)

    def test_exact_storage_switch_at_2_53(self):
        # |0> + k|1> on each side: the largest product is exactly k1 * k2
        for k1, k2, dtype in ((2**26, 2**27 - 1, np.int64), (2**26, 2**27, object)):
            left = PureState(n=1, num=[[1, k1], [0, 0]])
            right = PureState(n=1, num=[[2, k2], [0, 0]])
            psi = tensor(left, right)
            assert psi.num.dtype == dtype
            assert psi.num.tolist() == [[2, k2, 2 * k1, k1 * k2], [0, 0, 0, 0]]

    def test_norm_multiplicative(self):
        a = sample_haar_state(2, 1)
        b = sample_haar_state(3, 2)
        assert tensor(a, b).norm() ** 2 == pytest.approx(a.norm() ** 2 * b.norm() ** 2)

    def test_associative(self):
        a = sample_haar_state(1, 3)
        b = sample_haar_state(2, 4)
        c = sample_haar_state(1, 5)
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert np.allclose(left.amps, right.amps, atol=1e-15)


class TestMaxAbs:
    @pytest.mark.parametrize("num", [
        np.array([[3, -7], [5, 2]]),  # a negative extreme
        np.array([[-(2**53) + 1, 0], [2**53 - 1, 1]]),  # both extremes of int64 storage
        np.array([[0, 0], [0, 0]]),
        np.array([[2**69, 5], [-(2**70), 1]], dtype=object),  # a negative extreme beyond int64
        np.array([[2**70, -3], [-(2**70), 4]], dtype=object),
        np.array([[-(2**64)], [2**63]], dtype=object),
    ])
    def test_bound_equals_the_abs_maximum(self, num):
        bound = max_abs(num)
        assert type(bound) is int
        assert bound == max(abs(int(v)) for v in num.ravel()) == int(np.abs(num).max())

    def test_bound_of_random_numerators(self):
        rng = np.random.default_rng(12)
        for bits in (10, 52, 70):
            for _ in range(20):
                num = PureState(n=3, num=[[int(v) << (bits - 10) for v in rng.integers(-2**10, 2**10, 8)]
                                          for _ in range(2)]).num
                assert max_abs(num) == int(np.abs(num).max())


class TestStateValidation:
    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroStateError):
            PureState.from_amplitudes([0, 0])
        with pytest.raises(ZeroStateError):
            PureState.from_exact([(Fraction(0), Fraction(0))] * 2)

    def test_exact_flag_requires_fractions(self):
        with pytest.raises(TypeError):
            PureState.from_exact([(0.5, 0.0), (Fraction(1), Fraction(0))])

    def test_bad_length(self):
        with pytest.raises(ValueError):
            PureState.from_amplitudes([1, 0, 0])

    def test_empty_amplitude_lists_rejected(self):
        for build in (PureState.from_amplitudes, PureState.from_exact):
            with pytest.raises(ValueError, match="power of two"):
                build([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PureState.from_amplitudes([1, bad])

    @pytest.mark.parametrize("amp", [1e154, complex(0, 1e154), 1e200])
    def test_overflowing_squared_norm_rejected(self, amp):
        # each amplitude is finite, but |psi|^2 is not
        with pytest.raises(ValueError, match="squared norm must be finite"):
            PureState.from_amplitudes([amp, amp])

    def test_tiny_amplitudes_accepted(self):
        # |psi|^2 underflows to 0 here, which is not the zero state
        psi = PureState(n=2, amps=make_cat(2).amps * 1e-200)
        assert psi.amps[0] == 1e-200


class TestExactNumerators:
    """`PureState` stores exact numerators as int64 when every |v| < 2**53
    and as object Python ints otherwise, and refuses non-integers."""

    def test_object_small_ints_stored_as_int64(self):
        psi = PureState(n=1, num=np.array([[1, 0], [0, 0]], dtype=object))
        assert psi.num.dtype == np.int64
        assert exact_pairs(psi) == ((1, 0), (0, 0))

    def test_float_numerators_refused(self):
        with pytest.raises(ValueError, match="integers"):
            PureState(n=1, num=np.array([[1.5, 0], [0, 0]]))
        with pytest.raises(ValueError, match="integers"):
            PureState(n=1, num=np.array([[1.0, 0], [0, 0]]))

    def test_bool_numerators_refused(self):
        with pytest.raises(ValueError, match="integers"):
            PureState(n=1, num=np.array([[True, False], [False, False]]))
        with pytest.raises(ValueError, match="integers"):
            PureState(n=1, num=np.array([[True, 0], [0, 0]], dtype=object))

    def test_unsigned_numerators_widened(self):
        psi = PureState(n=1, num=np.array([[200, 0], [0, 3]], dtype=np.uint8))
        assert psi.num.dtype == np.int64
        assert psi.num.tolist() == [[200, 0], [0, 3]]

    @pytest.mark.parametrize("den", [0, -1, 1.0, True, Fraction(1)])
    def test_denominator_must_be_a_positive_int(self, den):
        with pytest.raises(ValueError, match="denominator"):
            PureState(n=1, num=np.array([[1, 0], [0, 0]]), den=den)

    @pytest.mark.parametrize("value", [Fraction(1, 2), 0.5, "1", None])
    def test_non_int_objects_refused(self, value):
        with pytest.raises(ValueError, match="integers"):
            PureState(n=1, num=np.array([[1, value], [0, 0]], dtype=object))

    @pytest.mark.parametrize("top, dtype", [(2**53 - 1, np.int64), (2**53, object)])
    def test_storage_switches_at_2_pow_53(self, top, dtype):
        for num in (np.array([[top, 0], [0, -top]]), np.array([[top, 0], [0, -top]], dtype=object)):
            psi = PureState(n=1, num=num, den=np.int64(3))
            assert psi.num.dtype == dtype and type(psi.den) is int
            assert all(type(v) is int for v in psi.num.ravel().tolist())
            assert exact_pairs(psi) == ((Fraction(top, 3), 0), (0, Fraction(-top, 3)))

    def test_numpy_ints_in_an_object_array_become_python_ints(self):
        psi = PureState(n=1, num=np.array([[np.int64(3), 2**70], [0, np.int32(-1)]], dtype=object))
        assert psi.num.dtype == object
        assert [type(v) for v in psi.num.ravel()] == [int] * 4
        assert psi.num.tolist() == [[3, 2**70], [0, -1]]

    def test_from_exact_leaves_the_choice_to_the_state(self):
        small = PureState.from_exact([(Fraction(1, 3), Fraction(0)), (Fraction(0), Fraction(-1, 2))])
        assert small.num.dtype == np.int64 and small.den == 6
        big = PureState.from_exact([(Fraction(2**60), Fraction(0)), (Fraction(0), Fraction(1))])
        assert big.num.dtype == object


class TestExactAmplitudes:
    """An exact state's float `amps` are num / den written straight into the
    real and imaginary halves of one complex array."""

    @staticmethod
    def summed(num, den):
        """The amplitudes as a real part plus 1j times an imaginary part."""
        if num.dtype == object or den >= 2**53:
            re, im = (np.array([v / den for v in part.tolist()], dtype=float) for part in num)
        else:
            re, im = num[0] / den, num[1] / den
        return re + 1j * im

    def test_bits_equal_the_summed_form_on_both_tiers(self):
        rng = np.random.default_rng(61)
        for n in (1, 2, 5, 9):
            for den in (1, 3, 7 * 2**40, 2**53 + 5, 3**80):
                for bits, scale in ((20, 1), (52, 1), (40, 2**70)):
                    num = rng.integers(-(2**bits), 2**bits, size=(2, 1 << n)).astype(object) * scale
                    num[:, rng.integers(1 << n)] = 0
                    psi = PureState(n=n, num=num, den=den)
                    assert psi.num.dtype == (object if scale > 1 else np.int64)
                    expected = self.summed(psi.num, psi.den)
                    assert psi.amps.tobytes() == expected.tobytes()
                    assert not psi.amps.flags.writeable

    def test_ratio_to_float_into_a_strided_half(self):
        num = np.array([3, -7, 0, 2**60], dtype=object)
        for den in (1, 9, 2**61 + 1):
            out = np.zeros(4, dtype=complex)
            half = out.imag
            assert ratio_to_float(num, den, out=half) is half
            assert out.imag.tolist() == ratio_to_float(num, den).tolist() and not out.real.any()
        small = np.array([5, -1, 0, 12], dtype=np.int64)
        out = np.zeros(4, dtype=complex)
        ratio_to_float(small, 7, out=out.real)
        assert out.real.tolist() == (small / 7).tolist()

    def test_construction_adds_only_the_amplitudes_at_n_20(self):
        n = 20
        num = np.zeros((2, 1 << n), dtype=np.int64)
        num[0, 0] = num[1, -1] = 3
        tracemalloc.start()
        try:
            psi = PureState(n=n, num=num, den=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        amps_bytes = 16 << n  # 16 MiB; summing two float halves peaked at 32 MiB
        assert psi.amps.nbytes == amps_bytes
        assert peak < amps_bytes * 1.1


class TestJsonFormat:
    def test_float_roundtrip(self):
        psi = sample_haar_state(2, 9)
        again = state_from_json(state_to_json(psi))
        assert np.allclose(psi.amps, again.amps)

    def test_exact_roundtrip(self):
        psi = make_singlet_product(1)
        again = state_from_json(state_to_json(psi))
        assert again.is_exact
        assert exact_pairs(again) == exact_pairs(psi)

    def test_exact_strings_are_the_rationals(self):
        # object-int numerators over the common denominator 42
        pairs = [(Fraction(2**70 + 1, 6), Fraction(-5, 7)), (Fraction(3, 14), Fraction(0))]
        psi = PureState.from_exact(pairs)
        assert psi.num.dtype == object and psi.den == 42
        assert state_to_json(psi)["amplitudes_exact"] == [[str(a), str(b)] for a, b in pairs]

    def test_rational_strings(self):
        doc = {"n": 1, "amplitudes_exact": [["1/2", "0"], ["-1/3", "2"]]}
        psi = state_from_json(doc)
        assert exact_pairs(psi) == ((Fraction(1, 2), Fraction(0)), (Fraction(-1, 3), Fraction(2)))

    def test_decimal_strings_rejected(self):
        doc = {"n": 1, "amplitudes_exact": [["0.5", "0"], ["1", "0"]]}
        with pytest.raises(ValueError):
            state_from_json(doc)

    @pytest.mark.parametrize("n", [True, False, 1.0, "1", None, 0])
    def test_bad_n_rejected(self, n):
        with pytest.raises(ValueError, match="positive integer"):
            state_from_json({"n": n, "amplitudes": [[1, 0], [0, 0]]})

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            state_from_json({"n": 2, "amplitudes": [[1, 0]]})

    @pytest.mark.parametrize("key, pair", [("amplitudes", [1, 0]), ("amplitudes_exact", ["1", "0"])])
    @pytest.mark.parametrize("n", [10**8, 2**40])
    def test_huge_n_refused_by_the_list_length(self, key, pair, n):
        # 2**n is never formed: the message spells it, and nothing is allocated
        with pytest.raises(ValueError, match=rf"^expected 2\*\*{n} amplitudes, got 2$"):
            state_from_json({"n": n, key: [pair, pair]})

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroStateError):
            state_from_json({"n": 1, "amplitudes": [[0, 0], [0, 0]]})

    @pytest.mark.parametrize("amps", [
        [[1, 0], [0, True]],  # bool is an int, and refused
        [[1, 0], [0, "1"]],
        [[1, 0], [0, None]],
        [[1, 0], [0, np.int64(1)]],  # not a Python int
        [[1, 0], (0, 1)],  # a tuple pair
        [[1, 0], [0]],  # ragged pairs
        [[1, 0], [0, 1, 0]],
        [[1, 0], 0],
        ([1, 0], [0, 1]),  # not a list
        {"0": [1, 0]},
    ])
    def test_malformed_float_pairs_refused(self, amps):
        with pytest.raises(ValueError, match=r"^'amplitudes' must be a list of \[re, im\] pairs of numbers$"):
            state_from_json({"n": 1, "amplitudes": amps})

    @pytest.mark.parametrize("amps", [
        [["1", "0"], ["0", 1]],
        [["1", "0"], ["0", True]],
        [["1", "0"], ("0", "1")],
        [["1", "0"], ["0"]],
    ])
    def test_malformed_exact_pairs_refused(self, amps):
        with pytest.raises(ValueError, match=r"^'amplitudes_exact' must be a list of \[re, im\] pairs of strings$"):
            state_from_json({"n": 1, "amplitudes_exact": amps})

    @pytest.mark.parametrize("count", [1, 3, 8])
    def test_wrong_counts_refused(self, count):
        for key, pair in (("amplitudes", [1, 0]), ("amplitudes_exact", ["1", "0"])):
            with pytest.raises(ValueError, match=rf"^expected 2\*\*2 amplitudes, got {count}$"):
                state_from_json({"n": 2, key: [pair] * count})
        # the pair structure is checked before the count
        with pytest.raises(ValueError, match="pairs of numbers"):
            state_from_json({"n": 2, "amplitudes": [[1, 0]] * (count - 1) + [[True, 0]]})

    def test_numpy_floats_and_mixed_numbers_accepted(self):
        amps = [[np.float64(0.6), 0], [0.0, np.float64(-0.8)]]
        psi = state_from_json({"n": 1, "amplitudes": amps})
        assert psi.amps.tolist() == [0.6 + 0j, -0.8j]
