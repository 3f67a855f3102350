import dataclasses
import functools
import gc
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitscope import inner_products, lie_action
from orbitscope.inner_products import (
    ALL_KINDS,
    PAIR_KINDS,
    SINGLE_KINDS,
    HypothesisViolationError,
    InnerProductKind,
    direct_inner_product,
    orthogonality_report,
    real_dot,
    table_inner_product,
    table_kind_as_labels,
)
from orbitscope.lie_action import (
    SU2_BASIS,
    LocalUnitary,
    SU2GroupElement,
    apply_group,
    on_qubit,
    random_local_unitary,
    triple_columns,
)
from orbitscope.lu_adjust import adjust_dependency, adjust_two_common
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

from paper_oracles import multi_index_complement, multi_index_from_int


def lu_rotated_singlets(k, seed):
    """singlet*k with random local unitaries on every slot but 1 and 2."""
    rng = np.random.default_rng(seed)
    factors = list(random_local_unitary(2 * k, rng).factors)
    factors[0] = factors[1] = SU2GroupElement.identity()
    return apply_group(LocalUnitary(tuple(factors)), make_singlet_product(k))


def all_kind_instances(n):
    for tag in SINGLE_KINDS:
        for k in range(1, n + 1):
            yield InnerProductKind(tag, k)
    for tag in PAIR_KINDS:
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                yield InnerProductKind(tag, k, j)


class TestKindValidation:
    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            InnerProductKind("AD", 1, 1)

    def test_single_with_two_slots(self):
        with pytest.raises(ValueError):
            InnerProductKind("A", 1, 2)

    def test_pair_with_one_slot(self):
        with pytest.raises(ValueError):
            InnerProductKind("BB", 1)

    def test_slot_out_of_range(self):
        psi = make_cat(2)
        with pytest.raises(ValueError):
            table_inner_product(psi, InnerProductKind("A", 3))

    def test_tag_count(self):
        assert len(ALL_KINDS) == 12


class TestTableAgainstDirect:
    def test_random_states(self):
        for i in range(30):
            n = 1 + i % 5
            psi = sample_haar_state(n, 700 + i)
            scale = psi.norm() ** 2
            for kind in all_kind_instances(n):
                table = table_inner_product(psi, kind)
                direct = direct_inner_product(psi, *table_kind_as_labels(kind))
                assert abs(table - direct) <= 1e-12 * scale, kind

    def test_exact_states_bitwise(self):
        states = [
            make_singlet_product(1),
            make_singlet_product(2),
            make_cat(2),
            make_cat(3),
            make_basis(MultiIndex((0, 1, 0))),
            make_singlet_product_plus_zero(1),
        ]
        for psi in states:
            for kind in all_kind_instances(psi.n):
                table = table_inner_product(psi, kind)
                direct = direct_inner_product(psi, *table_kind_as_labels(kind))
                assert table == direct, kind

    def test_frozen_cb_instance(self):
        # distinguishes the two candidate sign exponents in the C.B row:
        # with (-1)^{i_j} this value would come out as -2, not +2
        psi = PureState(n=2, amps=np.array([1, 0, 0, 1j], dtype=complex))
        kind = InnerProductKind("CB", k=2, j=1)
        assert table_inner_product(psi, kind) == 2 + 0j
        assert direct_inner_product(psi, *table_kind_as_labels(kind)) == 2 + 0j

    @given(st.integers(0, 10_000), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_agreement(self, seed, n):
        psi = sample_haar_state(n, seed)
        scale = psi.norm() ** 2
        for kind in all_kind_instances(n):
            table = table_inner_product(psi, kind)
            direct = direct_inner_product(psi, *table_kind_as_labels(kind))
            assert abs(table - direct) <= 1e-12 * scale

    def test_conjugate_symmetry(self):
        # <X_j psi | Y_k psi> = conj(<Y_k psi | X_j psi>)
        psi = sample_haar_state(3, 42)
        for j in range(1, 4):
            for k in range(1, 4):
                ab = table_inner_product(psi, InnerProductKind("AB", k, j))
                ba = table_inner_product(psi, InnerProductKind("BA", j, k))
                assert abs(ab - np.conj(ba)) <= 1e-12 * psi.norm() ** 2


@functools.lru_cache(maxsize=None)
def slot_signs_and_flips(n, k):
    """(-1)^{i_k} as int8 and the flip I -> I_k as indices over all 2^n
    indices, read off each multi-index's bits and its complement in bit k."""
    indices = [multi_index_from_int(i, n) for i in range(1 << n)]
    signs = np.array([1 - 2 * index.bits[k - 1] for index in indices], dtype=np.int8)
    flip = np.array([multi_index_complement(index, k).to_int() for index in indices])
    return signs, flip


def branch_formula(psi, kind):
    """The closed forms written as one branch per tag: an independent copy
    of the twelve formulas that the table rows encode, with int8 signs
    multiplied into freshly gathered amplitudes."""
    c = psi.amps
    sk, fk = slot_signs_and_flips(psi.n, kind.k)
    tag = kind.tag
    if tag == "A":
        return complex(1j * np.vdot(c, sk * c))
    if tag == "B":
        return complex(np.vdot(c, sk * c[fk]))
    if tag == "C":
        return complex(1j * np.vdot(c, c[fk]))
    sj, fj = slot_signs_and_flips(psi.n, kind.j)
    if tag == "AA":
        return complex(np.vdot(c, sj * sk * c))
    if tag == "BA":
        return complex(1j * np.vdot(c[fj], sj * sk * c))
    if tag == "CA":
        return complex(np.vdot(c[fj], sk * c))
    if tag == "AB":
        return complex(-1j * np.vdot(c, sj * sk * c[fk]))
    if tag == "BB":
        return complex(np.vdot(c[fj], sj * sk * c[fk]))
    if tag == "CB":
        return complex(-1j * np.vdot(c[fj], sk * c[fk]))
    if tag == "AC":
        return complex(np.vdot(c, sj * c[fk]))
    if tag == "BC":
        return complex(1j * np.vdot(c[fj], sj * c[fk]))
    assert tag == "CC"
    return complex(np.vdot(c[fj], c[fk]))


def bits_of(value):
    """The bit patterns of a complex number's two parts, so that -0.0 and
    0.0 differ."""
    return np.array([value]).view(np.int64).tolist()


def signed_zero_states():
    """States with -0.0 real or imaginary parts next to zeros and nonzeros."""
    yield PureState(n=1, amps=np.array([complex(-0.0, 1.0), complex(0.5, -0.0)]))
    yield PureState(n=2, amps=np.array([complex(-0.0, -0.0), complex(1.0, 0.0), complex(0.0, -0.0), complex(-0.0, -2.0)]))
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 4
        parts = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=(2, 1 << n))
        parts[0, 0] = 1.0  # not the zero vector
        yield PureState(n=n, amps=parts[0] + 1j * parts[1])


class TestTableAgainstBranchFormulas:
    """The data rows evaluate to the branch formulas' values, bit for bit."""

    def assert_bitwise(self, states):
        rows = 0
        for psi in states:
            for kind in all_kind_instances(psi.n):
                table = table_inner_product(psi, kind)
                assert bits_of(table) == bits_of(branch_formula(psi, kind)), (psi.amps, kind)
                rows += 1
        return rows

    def test_haar_states(self):
        states = [sample_haar_state(n, 100 * n + i) for n in range(1, 7) for i in range(20)]
        assert self.assert_bitwise(states) == 20 * sum(3 * n + 9 * n * n for n in range(1, 7))

    def test_exact_families_rotated_copies_and_signed_zeros(self):
        families = [
            make_singlet_product(1),
            make_singlet_product(2),
            make_singlet_product(3),
            make_cat(2),
            make_cat(3),
            make_cat(5),
            make_basis(MultiIndex((0, 1, 0))),
            make_basis(MultiIndex((1, 1, 0, 1))),
            make_singlet_product_plus_zero(1),
            make_singlet_product_plus_zero(2),
        ]
        rng = np.random.default_rng(3)
        rotated = [apply_group(random_local_unitary(psi.n, rng), psi) for psi in families]
        signed = list(signed_zero_states())
        assert any((np.signbit(psi.amps.real) & (psi.amps.real == 0)).any() for psi in signed)
        assert self.assert_bitwise(families + rotated + signed) > 3000


def branch_formula_state_sets():
    """The two state sets of TestTableAgainstBranchFormulas: Haar states,
    and the exact families with rotated copies and signed zeros."""
    haar = [sample_haar_state(n, 100 * n + i) for n in range(1, 7) for i in range(20)]
    families = [
        make_singlet_product(1),
        make_singlet_product(2),
        make_singlet_product(3),
        make_cat(2),
        make_cat(3),
        make_cat(5),
        make_basis(MultiIndex((0, 1, 0))),
        make_basis(MultiIndex((1, 1, 0, 1))),
        make_singlet_product_plus_zero(1),
        make_singlet_product_plus_zero(2),
    ]
    rng = np.random.default_rng(3)
    rotated = [apply_group(random_local_unitary(psi.n, rng), psi) for psi in families]
    return haar, families + rotated + list(signed_zero_states())


def kinds_in_order(n, order):
    """Every table row of an n-qubit state, tags outermost ("tag-major") or
    slots outermost ("slot-major")."""
    kinds = list(all_kind_instances(n))
    if order == "slot-major":
        kinds.sort(key=lambda kind: (kind.k, kind.j or 0))  # stable: tags stay in order
    return kinds


class TestTableMemo:
    """The signed and flipped amplitudes memoised on each state give the
    branch formulas' bits on a cold memo, on a warm one, and right after
    the rows of another state of the same n."""

    @pytest.mark.parametrize("order", ["tag-major", "slot-major"])
    def test_cold_warm_and_interleaved_rows_bitwise(self, order):
        for states in branch_formula_state_sets():
            for n in sorted({psi.n for psi in states}):
                group = [psi for psi in states if psi.n == n]
                kinds = kinds_in_order(n, order)
                expected = [[bits_of(branch_formula(psi, kind)) for kind in kinds] for psi in group]
                # fresh objects over the same amplitudes: no memo yet
                fresh = [PureState(n=n, amps=psi.amps) for psi in group]
                assert not any(inner_products._VECTORS in vars(psi) for psi in fresh)
                for want, psi in zip(expected, fresh):  # cold, then after the previous state
                    assert [bits_of(table_inner_product(psi, kind)) for kind in kinds] == want
                for want, psi in zip(expected, fresh):  # warm
                    assert [bits_of(table_inner_product(psi, kind)) for kind in kinds] == want
                for i, kind in enumerate(kinds):  # row by row across the states
                    assert [bits_of(table_inner_product(psi, kind)) for psi in fresh] == [w[i] for w in expected]

    def test_a_flips_memo_for_the_wrong_slot_is_seen(self):
        # slot 1's memo filled with slot 2's vectors: every row evaluates
        # to the branch formula with slot 1 read as slot 2, so the rows that
        # name slot 1 change and no other row does
        psi = sample_haar_state(3, 21)
        s2, f2 = slot_signs_and_flips(3, 2)
        c = psi.amps
        vars(psi)[inner_products._VECTORS] = {1: (c, s2 * c, c[f2], s2 * c[f2])}
        changed = 0
        for kind in all_kind_instances(3):
            as_2 = dataclasses.replace(kind, k=2 if kind.k == 1 else kind.k, j=2 if kind.j == 1 else kind.j)
            value = bits_of(table_inner_product(psi, kind))
            assert value == bits_of(branch_formula(psi, as_2)), kind
            changed += value != bits_of(branch_formula(psi, kind))
        assert changed >= 40

    def test_each_slot_is_made_once_per_state(self):
        # every row of a 4-qubit state, in both orders: one memo entry per
        # slot, made by the first row that reads the slot and kept after
        psi = sample_haar_state(4, 23)
        made = {}
        for order in ("tag-major", "slot-major", "tag-major"):
            for kind in kinds_in_order(4, order):
                table_inner_product(psi, kind)
                memo = vars(psi)[inner_products._VECTORS]
                for k in (kind.j, kind.k):
                    if k is not None:
                        assert memo[k] is made.setdefault(k, memo[k])
        assert sorted(vars(psi)[inner_products._VECTORS]) == [1, 2, 3, 4] == sorted(made)

    def test_flips_are_read_only_private_and_freed(self):
        psi = sample_haar_state(3, 22)
        twin = PureState(n=3, amps=psi.amps)
        before = (repr(psi), dataclasses.fields(psi), psi == twin)
        table_inner_product(psi, InnerProductKind("BB", 3, 1))
        memo = vars(psi)[inner_products._VECTORS]
        assert sorted(memo) == [1, 3] and inner_products._VECTORS not in vars(twin)
        c = psi.amps
        for k, (amps, signed, flipped, signed_flipped) in memo.items():
            s, f = slot_signs_and_flips(3, k)
            assert amps is c
            assert bits_of_array(signed) == bits_of_array(s * c)
            assert bits_of_array(flipped) == bits_of_array(c[f])
            assert bits_of_array(signed_flipped) == bits_of_array(s * c[f])
            for vector in (signed, flipped, signed_flipped):
                assert vector.shape == (8,) and vector.flags.c_contiguous
                with pytest.raises(ValueError, match="read-only"):
                    vector[0] = 1
        assert (repr(psi), dataclasses.fields(psi), psi == twin) == before
        state, flipped = weakref.ref(psi), weakref.ref(memo[3][2])
        del psi, memo
        gc.collect()
        assert state() is None and flipped() is None


def bits_of_array(values):
    return np.asarray(values).view(np.int64).tolist()


class TestTableAgainstMatrix:
    """Re of every table row is an entry of M^T M: column 3(k-1) + (0, 1, 2)
    of M is A_k, B_k, C_k and column 3n is -i|psi>, so a pair row XY(j, k)
    is G[X_j, Y_k] and a single row X(k), <psi|X_k psi>, is G[-i psi, X_k]
    after the factor conj(-i) = i."""

    @pytest.mark.parametrize(
        "psi",
        [sample_haar_state(n, 1300 + n) for n in range(1, 6)]
        + [lu_rotated_singlets(k, 40 + k) for k in (1, 2)]
        + [apply_group(random_local_unitary(5, np.random.default_rng(47)), make_cat(5))],
    )
    def test_real_part_is_gram_entry(self, psi):
        n = psi.n
        m = build_matrix(psi).data
        gram = m.T @ m
        col = {op: 3 * np.arange(n) + i for i, op in enumerate("ABC")}
        tol = 1e-12 * psi.norm() ** 2
        for kind in all_kind_instances(n):
            value = table_inner_product(psi, kind)
            if kind.tag in SINGLE_KINDS:
                expected = gram[3 * n, col[kind.tag][kind.k - 1]]
                value = 1j * value
            else:
                expected = gram[col[kind.tag[0]][kind.j - 1], col[kind.tag[1]][kind.k - 1]]
            assert abs(value.real - expected) <= tol, kind


class TestNoAnswerMemo:
    def test_alternating_states_of_one_size(self):
        # two states with the same n, called in turn: each answer is its own
        # state's, so nothing is remembered across states
        psi, phi = sample_haar_state(4, 11), sample_haar_state(4, 12)
        for kind in all_kind_instances(4):
            for state in (psi, phi, psi, phi):
                expected = direct_inner_product(state, *table_kind_as_labels(kind))
                assert abs(table_inner_product(state, kind) - expected) <= 1e-12 * state.norm() ** 2
        # the two states do give different rows, so the check above has teeth
        kind = InnerProductKind("BB", 2, 1)
        assert abs(table_inner_product(psi, kind) - table_inner_product(phi, kind)) > 1e-3


def per_call_column(psi, label):
    """A label's column as the oracle once computed it on every call: one
    single-matrix `on_qubit` per slot label, nothing remembered."""
    if label == "identity":
        return psi.amps
    if label == "minus_i_psi":
        return -1j * psi.amps
    op, slot = label
    return on_qubit(SU2_BASIS["ABC".index(op)], psi.amps, slot)


def oracle_labels(n):
    return ["identity", "minus_i_psi"] + [(op, k) for k in range(1, n + 1) for op in "ABC"]


def memo_of(psi):
    return vars(psi).get(inner_products._MEMO, {})


class TestOracleMemo:
    """The oracle computes slot k's triple once per state, keeps it read-only
    in the state's own __dict__, and gives the per-call oracle's bits."""

    @pytest.mark.parametrize("front", [None, False, True])
    def test_bitwise_equal_to_the_per_call_oracle(self, monkeypatch, front):
        # front=None keeps the real layout rule; False and True force the
        # stacked view and the qubit-first layout, as `both_layouts` in
        # test_lie_action.py does, for the memo and the per-call side alike
        if front is not None:
            monkeypatch.setattr(lie_action, "_qubit_first", lambda n, k, u, amps: front)
        rng = np.random.default_rng(31)
        for n in range(1, 8):
            exact = PureState(n=n, num=rng.integers(-9, 10, (2, 1 << n)), den=7)
            for psi in (sample_haar_state(n, 3100 + n), sample_haar_state(n, 3200 + n), exact, make_cat(n)):
                labels = oracle_labels(n)
                for left in labels:
                    for right in labels:
                        got = direct_inner_product(psi, left, right)
                        want = complex(np.vdot(per_call_column(psi, left), per_call_column(psi, right)))
                        # repr: the same floats bit for bit, signed zeros included
                        assert repr(got) == repr(want), (n, left, right)
                assert sorted(memo_of(psi)) == list(range(1, n + 1))

    def test_each_slot_applied_once_per_state(self, monkeypatch):
        calls = []
        real = inner_products.on_qubit
        monkeypatch.setattr(inner_products, "on_qubit", lambda u, amps, k: calls.append(k) or real(u, amps, k))
        psi = sample_haar_state(4, 5)
        for kind in all_kind_instances(4):
            direct_inner_product(psi, *table_kind_as_labels(kind))
        orthogonality_report(psi, "triple", k=3)
        assert sorted(calls) == [1, 2, 3, 4]

    def test_columns_are_read_only(self):
        psi = sample_haar_state(3, 8)
        column = inner_products._column_vector(psi, ("B", 2))
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1
        for triple in memo_of(psi).values():
            with pytest.raises(ValueError, match="read-only"):
                triple[...] = 0
        assert direct_inner_product(psi, ("B", 2), ("B", 2)) == np.vdot(column, column)

    def test_freed_with_the_state(self):
        psi = sample_haar_state(3, 9)
        direct_inner_product(psi, ("A", 1), ("C", 3))
        state, triple = weakref.ref(psi), weakref.ref(memo_of(psi)[3])
        del psi
        gc.collect()
        assert state() is None and triple() is None

    def test_not_seen_by_eq_repr_or_fields(self):
        psi = sample_haar_state(2, 10)
        twin = PureState(n=2, amps=psi.amps)
        before = (repr(psi), dataclasses.fields(psi), psi == twin, twin == psi)
        orthogonality_report(psi, "triple", k=1)
        direct_inner_product(psi, ("C", 2), "minus_i_psi")
        assert sorted(memo_of(psi)) == [1, 2] and not memo_of(twin)
        assert (repr(psi), dataclasses.fields(psi), psi == twin, twin == psi) == before
        assert before[2] is True and inner_products._MEMO not in vars(dataclasses.replace(psi))

    def test_triple_columns_is_not_memoised(self):
        psi = sample_haar_state(3, 12)
        first = triple_columns(psi, 2)
        assert first is not triple_columns(psi, 2) and first.flags.writeable
        assert inner_products._MEMO not in vars(psi)

    @pytest.mark.parametrize(
        "label",
        [("D", 1), ("A", 0), ("A", 4), "psi", ("B", True), ("C", 1.0), ("AB", 1), ("A", 1, 2), ["A", 1], 0],
    )
    def test_bad_labels_refused_before_anything_is_memoised(self, label):
        psi = sample_haar_state(3, 13)
        for left, right in ((label, "identity"), ("identity", label), (label, ("A", 1))):
            with pytest.raises(ValueError, match=re.escape(f"bad operator label {label!r}")):
                direct_inner_product(psi, left, right)
            assert not memo_of(psi)


def vdot_oracle(psi, name):
    """Column of a check's label ("-i|psi>" or op + slot) from the basis matrices."""
    if name == "-i|psi>":
        return -1j * psi.amps
    return triple_columns(psi, int(name[1:]))["ABC".index(name[0])]


def scenario_cases():
    """(state, scenario, params) on plain and LU-dressed states."""
    dressed = lu_rotated_singlets(3, 5)
    _, dep = adjust_dependency(dressed, [1, 2], [(0.0, 1.0, 0.0)] * 2, [1.0, 1.0])
    _, two = adjust_two_common(dressed, 1, 2)
    return [
        (sample_haar_state(3, 17), "triple", {"k": 2}),
        (make_singlet_product(2), "main", {"slots": [3, 4], "xi": [1.0, 1.0]}),
        (dep, "main", {"slots": [1, 2], "xi": [1.0, 1.0]}),
        (make_cat(2), "two-common", {"l": 1, "lp": 2}),
        (two, "two-common", {"l": 1, "lp": 2}),
    ]


def scenario_reports():
    """(state, report) for each scenario on plain and LU-dressed states."""
    return [(psi, orthogonality_report(psi, scenario, **params)) for psi, scenario, params in scenario_cases()]


def entries(report):
    """(i, j, row, col) for every entry of the block, row-major."""
    return [(i, j, row, col) for i, row in enumerate(report.rows) for j, col in enumerate(report.cols)]


class TestReportValues:
    def test_values_match_per_pair_vdot(self):
        for psi, report in scenario_reports():
            tol = 1e-12 * psi.norm() ** 2
            assert report.values.shape == (len(report.rows), len(report.cols)) and report.values.size
            for i, j, row, col in entries(report):
                value = np.vdot(vdot_oracle(psi, row), vdot_oracle(psi, col))
                assert abs(report.values[i, j].real - value.real) <= tol, (report.scenario, row, col)
                assert abs(report.values[i, j].imag - value.imag) <= tol, (report.scenario, row, col)

    def test_passed_is_a_python_bool(self):
        for _, report in scenario_reports():
            assert report.all_pass is True
            assert report.values.dtype == complex and not report.values.flags.writeable
            fields = dataclasses.asdict(report)
            assert list(fields) == [
                "scenario", "hypothesis_residual", "rows", "cols", "values", "tolerance", "parity_slots",
            ]
            assert np.array_equal(fields["values"], report.values)

    def test_a_nan_entry_fails_all_pass(self):
        for _, report in scenario_reports():
            for i, j, row, col in entries(report):
                if row == col:
                    continue
                values = report.values.copy()
                values[i, j] = complex(np.nan, 0.0)
                assert not dataclasses.replace(report, values=values).all_pass, (report.scenario, row, col)


def label_name(label):
    """A label's column name in a report: "-i|psi>" or op + slot."""
    return "-i|psi>" if label == "minus_i_psi" else f"{label[0]}{label[1]}"


def whole_gram(psi, names):
    """Every entry of the whole complex Gram matrix of the triples of each
    slot the names mention, ascending, then -i|psi>, keyed by name pair."""
    slots = sorted({int(name[1:]) for name in names if name != "-i|psi>"})
    labels = [f"{op}{k}" for k in slots for op in "ABC"] + ["-i|psi>"]
    cols = np.concatenate([triple_columns(psi, k) for k in slots] + [-1j * psi.amps[None]])
    gram = cols.conj() @ cols.T
    return {(a, b): gram[i, j] for i, a in enumerate(labels) for j, b in enumerate(labels)}


class TestRunChecksAgainstPerPairLoop:
    def test_reports_equal_the_loop(self):
        for psi, report in scenario_reports():
            gram = whole_gram(psi, report.rows + report.cols)
            for i, j, row, col in entries(report):
                # the same floats bit for bit, signed zeros included
                assert report.values[i, j].tobytes() == gram[row, col].tobytes(), (report.scenario, row, col)
            tested = [gram[row, col] for _, _, row, col in entries(report) if row != col]
            assert report.all_pass == all(abs(value.real) <= report.tolerance for value in tested)

    def test_a_block_of_the_triple_alone_fails_the_bit_test(self):
        # without the -i|psi> column the product is 2 x 3, not 2 x 4, and
        # sums its entries in another order: the bit test above tells
        psi = sample_haar_state(1, 1)
        report = orthogonality_report(psi, "triple", k=1)
        gram = whole_gram(psi, report.rows + report.cols)
        triple = triple_columns(psi, 1)
        alone = (triple[:2].conj() @ triple.T)[:, 1:]
        expected = [gram[row, col].tobytes() for _, _, row, col in entries(report)]
        assert [report.values[i, j].tobytes() for i, j, _, _ in entries(report)] == expected
        assert [alone[i, j].tobytes() for i, j, _, _ in entries(report)] != expected

    def test_tolerance_edge_and_empty_pairs(self):
        psi = sample_haar_state(4, 29)
        # rows A1, B2, C3 against A4, B2 and -i|psi>, from the triples of all four slots
        rows, cols = ("A1", "B2", "C3"), ("A4", "B2", "-i|psi>")
        values = inner_products._run_checks(psi, [1, 2, 3, 4], [0, 4, 8], [9, 4, 12])
        gram = whole_gram(psi, rows + cols)
        block = dataclasses.replace(orthogonality_report(psi, "triple", k=1), rows=rows, cols=cols, values=values)
        for i, j, row, col in entries(block):
            assert values[i, j].tobytes() == gram[row, col].tobytes()
            if row == col:
                continue
            # a tolerance exactly at |Re v| passes, one ulp below fails
            tol = abs(values[i, j].real)
            one = dataclasses.replace(block, rows=(row,), cols=(col,), values=values[i : i + 1, j : j + 1])
            assert dataclasses.replace(one, tolerance=tol).all_pass
            assert not dataclasses.replace(one, tolerance=np.nextafter(tol, 0)).all_pass
        # the whole block passes at its largest tested |Re v|; the self-pair
        # (B2, B2), ||B2 psi||^2, is larger and not tested
        edge = max(abs(values[i, j].real) for i, j, row, col in entries(block) if row != col)
        assert abs(values[1, 1].real) > edge
        assert dataclasses.replace(block, tolerance=edge).all_pass
        assert not dataclasses.replace(block, tolerance=np.nextafter(edge, 0)).all_pass
        empty = inner_products._run_checks(psi, [1, 2, 3, 4], [], [9, 4, 12])
        assert empty.shape == (0, 3)
        assert dataclasses.replace(block, rows=(), values=empty, tolerance=0.0).all_pass


def nested_loop_pairs(n, big_k, ops):
    """The scenario's label pairs from the nested loop each scenario once
    wrote out for itself: the order the reports have always listed."""
    pairs = []
    for k in sorted(big_k):
        for op in ops:
            pairs.append(((op, k), "minus_i_psi"))
            for j in range(1, n + 1):
                if j in big_k:
                    continue
                for op_j in "ABC":
                    pairs.append(((op, k), (op_j, j)))
    return pairs


class TestScenarioPairs:
    @pytest.mark.parametrize("k, seed, pair", [(1, 1, 0), (2, 2, 0), (2, 3, 1), (3, 4, 2), (4, 5, 1)])
    def test_json_unchanged_on_adjusted_states(self, k, seed, pair):
        # LU-dressed singlet products, every slot but the chosen pair rotated,
        # run through both adjustments as the paper checks run them
        slots = [2 * pair + 1, 2 * pair + 2]
        rng = np.random.default_rng(seed)
        factors = list(random_local_unitary(2 * k, rng).factors)
        factors[slots[0] - 1] = factors[slots[1] - 1] = SU2GroupElement.identity()
        psi = apply_group(LocalUnitary(tuple(factors)), make_singlet_product(k))
        _, dep = adjust_dependency(psi, slots, [(0.0, 1.0, 0.0)] * 2, [1.0, 1.0])
        _, two = adjust_two_common(psi, *slots)
        main = orthogonality_report(dep, "main", slots=slots, xi=[1.0, 1.0])
        common = orthogonality_report(two, "two-common", l=slots[0], lp=slots[1])
        for state, report, ops in ((dep, main, "BC"), (two, common, "ABC")):
            loop = nested_loop_pairs(2 * k, frozenset(slots), ops)
            pairs = [(label_name(left), label_name(right)) for left, right in loop]
            # row-major, the block is the nested loop's pairs, in its order
            assert [(row, col) for _, _, row, col in entries(report)] == pairs
            gram = whole_gram(state, report.rows + report.cols)
            assert report.values.tobytes() == np.array([gram[pair] for pair in pairs]).tobytes()
            assert report.values.size == 2 * len(ops) * (1 + 3 * (2 * k - 2))
            assert report.tolerance == inner_products.CONCLUSION_RTOL * state.norm() ** 2


class TestRealDot:
    def test_matches_real_part(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            assert abs(real_dot(u, v) - np.vdot(u, v).real) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            real_dot(np.ones(2), np.ones(3))


class TestTripleScenario:
    def test_random_states(self):
        for i in range(20):
            n = 1 + i % 5
            psi = sample_haar_state(n, 900 + i)
            for k in range(1, n + 1):
                report = orthogonality_report(psi, "triple", k=k)
                assert report.all_pass
                assert report.hypothesis_residual == 0.0
                assert (report.rows, report.cols) == ((f"A{k}", f"B{k}"), (f"B{k}", f"C{k}"))

    def test_self_pair_is_never_tested(self):
        psi = sample_haar_state(3, 17)
        for k in range(1, 4):
            report = orthogonality_report(psi, "triple", k=k)
            # <B_k|B_k> = ||B_k psi||^2 = ||psi||^2, far above the tolerance
            assert report.values[1, 0].real > 1e6 * report.tolerance and report.all_pass
            for i, j in ((1, 0), (0, 0), (0, 1), (1, 1)):
                values = report.values.copy()
                values[i, j] = complex(np.nan, 0.0)
                # only the self-pair (1, 0) is left out
                assert dataclasses.replace(report, values=values).all_pass == ((i, j) == (1, 0))


class TestMainScenario:
    def test_singlet_dependency(self):
        psi = make_singlet_product(1)
        report = orthogonality_report(psi, "main", slots=[1, 2], xi=[1.0, 1.0])
        assert report.all_pass
        assert report.parity_slots == frozenset({1, 2})
        assert report.hypothesis_residual <= 1e-12 * psi.norm()

    def test_two_singlets_dependency(self):
        psi = make_singlet_product(2)
        report = orthogonality_report(psi, "main", slots=[3, 4], xi=[1.0, 1.0])
        assert report.all_pass
        # off-parity-set triples of the first singlet are columns of the block
        assert report.rows == ("B3", "C3", "B4", "C4")
        assert report.cols == ("-i|psi>", "A1", "B1", "C1", "A2", "B2", "C2")

    def test_rejects_false_hypothesis(self):
        psi = sample_haar_state(2, 3)
        with pytest.raises(HypothesisViolationError) as info:
            orthogonality_report(psi, "main", slots=[1, 2], xi=[1.0, 1.0])
        assert info.value.residual > 0

    def test_rejects_repeated_slots(self):
        # xi = (1, -1) on one slot makes the hypothesis vanish trivially
        psi = sample_haar_state(3, 1)
        with pytest.raises(ValueError, match=r"slots must be distinct, got \[1, 1\]"):
            orthogonality_report(psi, "main", slots=[1, 1], xi=[1.0, -1.0])
        assert memo_of(psi) == {}

    def test_rejects_more_slots_than_coefficients(self):
        # zip would drop slot 3 and report K = {1, 2}
        psi = make_singlet_product(2)
        with pytest.raises(ValueError, match="slots and xi must have equal length, got 3 and 2"):
            orthogonality_report(psi, "main", slots=[1, 2, 3], xi=[1.0, 1.0])
        assert memo_of(psi) == {}

    def test_rejects_fewer_slots_than_coefficients(self):
        # the parity set would name coefficients 3 and 4, which have no slot
        psi = make_singlet_product(2)
        with pytest.raises(ValueError, match="slots and xi must have equal length, got 2 and 4"):
            orthogonality_report(psi, "main", slots=[1, 2], xi=[1.0, 1.0, 1.0, 1.0])
        assert memo_of(psi) == {}


class TestTwoCommonScenario:
    def test_cat_state(self):
        report = orthogonality_report(make_cat(2), "two-common", l=1, lp=2)
        assert report.all_pass
        assert report.scenario == "two-common"

    def test_underscore_alias(self):
        report = orthogonality_report(make_cat(2), "two_common", l=1, lp=2)
        assert report.scenario == "two-common"

    def test_rejects_singlet(self):
        with pytest.raises(HypothesisViolationError):
            orthogonality_report(make_singlet_product(1), "two-common", l=1, lp=2)

    def test_rejects_a_repeated_slot(self):
        # A_l = A_lp and C_l = C_lp hold trivially for l = lp
        psi = sample_haar_state(3, 1)
        with pytest.raises(ValueError, match="slots l and lp must differ, got 1 twice"):
            orthogonality_report(psi, "two-common", l=1, lp=1)
        assert memo_of(psi) == {}

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            orthogonality_report(make_cat(2), "bogus")
