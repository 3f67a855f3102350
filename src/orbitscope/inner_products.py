"""Closed-form column inner products and the orthogonality propositions.

Convention: <u|v> is conjugate-linear in the LEFT argument, and under the
interleaved real identification Re<u|v> = u'.v'.

The twelve closed forms are the operator inner products <psi|L^dag R|psi>
for L, R in {identity, A_j, B_j, C_j}, one data row each in `_FORMS`.  One
departure from the printed table is noted on the CB row.  The
single-operator forms omit a factor -i relative to the matrix column
-i|psi>; their vanishing is equivalent either way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .lie_action import SU2_BASIS, on_qubit
from .states import PureState
from .z2 import find_parity_set

PAIR_KINDS = ("AA", "BA", "CA", "AB", "BB", "CB", "AC", "BC", "CC")
SINGLE_KINDS = ("A", "B", "C")
ALL_KINDS = SINGLE_KINDS + PAIR_KINDS

HYPOTHESIS_RTOL = 1e-12
CONCLUSION_RTOL = 1e-10


class HypothesisViolationError(ValueError):
    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class InnerProductKind:
    """A Table-of-inner-products row instance: tag plus slot(s)."""

    tag: str
    k: int
    j: Optional[int] = None

    def __post_init__(self):
        if self.tag not in ALL_KINDS:
            raise ValueError(f"unknown kind tag {self.tag!r}")
        if self.tag in SINGLE_KINDS and self.j is not None:
            raise ValueError(f"kind {self.tag} takes only slot k")
        if self.tag in PAIR_KINDS and self.j is None:
            raise ValueError(f"kind {self.tag} needs both slots j and k")


@lru_cache(maxsize=32)
def _slot_table(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(-1)^{i_k} as int8 and the flip I -> I_k as indices, for slot k of an
    n-qubit state; qubit k is bit n - k of the index.

    Both arrays are read-only and depend on (n, k) alone, never on a state.
    One entry holds 9 * 2^n bytes, so the 32 entries kept hold at most
    288 * 2^n bytes for the largest n in use: 18 KB at n = 6, 295 KB at n = 10.
    The CLI's capacity rule does not count them.
    """
    idx = np.arange(1 << n)
    signs = (1 - 2 * ((idx >> (n - k)) & 1)).astype(np.int8)
    flip = idx ^ (1 << (n - k))
    signs.setflags(write=False)
    flip.setflags(write=False)
    return signs, flip


# Entries kept by the two sign caches below.  Each entry is a complex
# +-1 table of 16 * 2^n bytes, so together they hold at most
# SIGN_CACHE_BYTES_PER_AMP * 2^n bytes for the largest n in use, which the
# CLI's capacity rule counts for `verify --suite table1`.
SIGN_CACHE_ENTRIES = 32
PAIR_SIGN_CACHE_ENTRIES = 64
SIGN_CACHE_BYTES_PER_AMP = 16 * (SIGN_CACHE_ENTRIES + PAIR_SIGN_CACHE_ENTRIES)


@lru_cache(maxsize=SIGN_CACHE_ENTRIES)
def _signs(n: int, k: int) -> np.ndarray:
    """(-1)^{i_k} as a read-only complex +-1 table: `_slot_table`'s int8
    signs cast as numpy casts them before it multiplies them into complex
    amplitudes, so a product with this table is bitwise the product with
    the int8 signs.  It depends on (n, k) alone; the 32 entries kept hold at
    most 512 * 2^n bytes for the largest n in use: 32 KB at n = 6."""
    signs = _slot_table(n, k)[0].astype(complex)
    signs.setflags(write=False)
    return signs


@lru_cache(maxsize=PAIR_SIGN_CACHE_ENTRIES)
def _pair_signs(n: int, j: int, k: int) -> np.ndarray:
    """(-1)^{i_j} * (-1)^{i_k} for j <= k, the int8 product of `_slot_table`'s
    signs cast to a read-only complex +-1 table, as `_signs` casts one
    slot's.  The n(n + 1)/2 pairs of every n <= 10 fit the 64 entries kept,
    which hold at most 1024 * 2^n bytes for the largest n in use: 64 KB at
    n = 6, 256 KB at n = 8."""
    signs = (_slot_table(n, j)[0] * _slot_table(n, k)[0]).astype(complex)
    signs.setflags(write=False)
    return signs


# The memos below are dicts kept in a PureState's own __dict__, as
# `functools.cached_property` keeps a value on a frozen dataclass: each is
# freed with its state, never shared between states, and not a field, so
# `==`, `repr` and `dataclasses.fields` do not see it.  These are their keys:
# the table's flipped amplitudes, the oracle's triples, and the rows of
# those triples by label, as views made once.
_FLIPS = "_table_flips"
_MEMO = "_oracle_columns"
_ROWS = "_oracle_rows"


def _flipped(psi: PureState, k: int) -> np.ndarray:
    """c_{I_k}: the amplitudes read through slot k's flip I -> I_k, kept
    read-only in the state's memo.  A state holds at most n of them,
    16n * 2^n bytes."""
    memo = psi.__dict__.get(_FLIPS)
    flipped = memo.get(k) if memo else None
    if flipped is None:
        flipped = psi.amps[_slot_table(psi.n, k)[1]]
        flipped.setflags(write=False)
        psi.__dict__.setdefault(_FLIPS, {})[k] = flipped
    return flipped


# One row per closed form: (phase, carries (-1)^{i_j}, carries (-1)^{i_k},
# left amplitude is c_{I_j}, right amplitude is c_{I_k}).  The value is
# phase * sum_I conj(left_I) * sign_I * right_I.
_FORMS = {
    "A": (1j, False, True, False, False),
    "B": (1, False, True, False, True),
    "C": (1j, False, False, False, True),
    "AA": (1, True, True, False, False),
    "BA": (1j, True, True, True, False),
    "CA": (1, False, True, True, False),
    "AB": (-1j, True, True, False, True),
    "BB": (1, True, True, True, True),
    # the printed table has (-1)^{i_j} here; direct evaluation on e.g.
    # |00> + i|11> shows that (-1)^{i_k} matches the column dot products
    "CB": (-1j, False, True, True, True),
    "AC": (1, True, False, False, True),
    "BC": (1j, True, False, True, True),
    "CC": (1, False, False, True, True),
}


def table_inner_product(psi: PureState, kind: InnerProductKind) -> complex:
    """Evaluate the closed-form sum for one table row.

    The sums keep the paper's bit formulas, in (-1)^{i_k} and c_{I_k}, on
    purpose: the direct side (`direct_inner_product`) applies the basis
    matrices instead, so the two sides share no derivation.  Each form is
    one complex multiply and one `np.vdot` of its `_FORMS` row: the sign
    s_j = (-1)^{i_j}, s_k = (-1)^{i_k} or s_j * s_k comes whole from a
    complex table (`_signs`, `_pair_signs`), the flipped amplitudes from the
    state's memo (`_flipped`), and a phase of 1 is not multiplied in, so
    signed zeros stay.  The values are bitwise those of the int8 signs
    multiplied into freshly gathered amplitudes.
    """
    n, j, k = psi.n, kind.j, kind.k
    if not 1 <= k <= n or (j is not None and not 1 <= j <= n):
        raise ValueError(f"slots out of range 1..{n}: {kind}")
    phase, sign_j, sign_k, flip_j, flip_k = _FORMS[kind.tag]
    c = psi.amps
    right = _flipped(psi, k) if flip_k else c
    if sign_j and sign_k:
        right = _pair_signs(n, min(j, k), max(j, k)) * right
    elif sign_j or sign_k:
        right = _signs(n, j if sign_j else k) * right
    value = np.vdot(_flipped(psi, j) if flip_j else c, right)
    return complex(value if phase == 1 else phase * value)


# the row of each op's column in a slot's triple
_ROW = {"A": 0, "B": 1, "C": 2}


def _slot_columns(psi: PureState, k: int) -> np.ndarray:
    """A_k|psi>, B_k|psi>, C_k|psi> as the rows of one read-only 3 x 2^n
    array, from one `on_qubit` of the basis stack.

    The triple is memoised in the state's own __dict__.  A state holds at
    most n triples, 3n * 2^n complex numbers: the size of M.  Each row is
    bitwise the single-matrix `on_qubit` of its basis matrix, and the whole
    triple bitwise `lie_action.triple_columns`.
    """
    memo = psi.__dict__.get(_MEMO)
    cols = memo.get(k) if memo else None
    if cols is None:
        cols = on_qubit(SU2_BASIS, psi.amps, k)
        cols.setflags(write=False)
        psi.__dict__.setdefault(_MEMO, {})[k] = cols
    return cols


def _column_vector(psi: PureState, label) -> np.ndarray:
    """Resolve an operator label to its column vector.

    Labels: "identity", "minus_i_psi", or ("A"|"B"|"C", slot) with an
    integer slot in 1..n; anything else is a ValueError naming the label,
    raised before a column is computed or memoised.  A valid slot label
    reads its row of the slot's triple from the state's memo, a view made
    on the label's first use.
    """
    if type(label) is tuple and len(label) == 2:
        op, slot = label
        row = _ROW.get(op) if type(op) is str else None
        integer = type(slot) is int or (isinstance(slot, (int, np.integer)) and type(slot) is not bool)
        if row is not None and integer and 1 <= slot <= psi.n:
            memo = psi.__dict__.get(_ROWS)
            column = memo.get(label) if memo else None
            if column is None:
                column = _slot_columns(psi, slot)[row]
                psi.__dict__.setdefault(_ROWS, {})[label] = column
            return column
    elif label == "identity":
        return psi.amps
    elif label == "minus_i_psi":
        return -1j * psi.amps
    raise ValueError(
        f"bad operator label {label!r}: expected 'identity', 'minus_i_psi' "
        f"or (op, slot) with op in A, B, C and slot in 1..{psi.n}"
    )


def direct_inner_product(psi: PureState, left, right) -> complex:
    """<left.psi | right.psi> from the actual column vectors (the oracle):
    the basis matrices applied to psi, one stack per slot and state
    (`_slot_columns`), never the closed forms."""
    return complex(np.vdot(_column_vector(psi, left), _column_vector(psi, right)))


def table_kind_as_labels(kind: InnerProductKind):
    """The (left, right) operator labels whose direct product a table row equals."""
    if kind.tag in SINGLE_KINDS:
        return "identity", (kind.tag, kind.k)
    return (kind.tag[0], kind.j), (kind.tag[1], kind.k)


def real_dot(u: np.ndarray, v: np.ndarray) -> float:
    """Dot product of the interleaved real identifications; equals Re<u|v>."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise ValueError("vectors must have equal length")
    return float(np.dot(u.real, v.real) + np.dot(u.imag, v.imag))


@dataclass(frozen=True)
class OrthogonalityCheck:
    pair: str
    value_re: float
    value_im: float
    passed: bool


@dataclass(frozen=True)
class OrthogonalityReport:
    scenario: str
    hypothesis_residual: float
    checks: tuple[OrthogonalityCheck, ...]
    parity_slots: Optional[frozenset[int]] = field(default=None)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        return json.dumps(
            {
                "scenario": self.scenario,
                "hypothesis_residual": self.hypothesis_residual,
                "checks": [
                    {
                        "pair": c.pair,
                        "value_re": c.value_re,
                        "value_im": c.value_im,
                        "pass": c.passed,
                    }
                    for c in self.checks
                ],
            }
        )


def _label_name(label) -> str:
    if label == "minus_i_psi":
        return "-i|psi>"
    op, slot = label
    return f"{op}{slot}"


def _run_checks(psi, pairs, tol_abs) -> tuple[OrthogonalityCheck, ...]:
    """One check per (left, right) label pair, read off one complex Gram
    block: the rows of the left labels against every column, the triple of
    each slot the pairs name, then -i|psi>.  Its real part is the real dot
    product of the columns.

    The block's entries are the whole Gram matrix's, bit for bit: both are
    matrix products, and BLAS sums each entry in the same order whatever
    the row count (a test holds the reports to the whole matrix).  A single
    left row would take numpy's vector product, which sums in another
    order, but every scenario names at least two left labels."""
    slots = sorted({label[1] for pair in pairs for label in pair if label != "minus_i_psi"})
    index = {(op, k): 3 * i + j for i, k in enumerate(slots) for j, op in enumerate("ABC")}
    index["minus_i_psi"] = 3 * len(slots)
    cols = np.concatenate([_slot_columns(psi, k) for k in slots] + [-1j * psi.amps[None]])
    lefts = sorted({index[left] for left, _ in pairs})
    block = cols[lefts].conj() @ cols.T
    row = {col: i for i, col in enumerate(lefts)}
    values = block[[row[index[left]] for left, _ in pairs], [index[right] for _, right in pairs]]
    passed = (np.abs(values.real) <= tol_abs).tolist()
    names = {label: _label_name(label) for label in index}
    return tuple(
        OrthogonalityCheck(f"{names[left]}.{names[right]}", re, im, ok)
        for (left, right), re, im, ok in zip(
            pairs, values.real.tolist(), values.imag.tolist(), passed
        )
    )


def _off_k_pairs(n: int, big_k: frozenset, ops: str) -> list:
    """The label pairs a scenario checks, in report order: for each slot k
    in K and each op in `ops`, op_k against -i|psi>, then against the
    A, B and C columns of every slot outside K."""
    pairs = []
    for k in sorted(big_k):
        for op in ops:
            pairs.append(((op, k), "minus_i_psi"))
            pairs += [((op, k), (op_j, j)) for j in range(1, n + 1) if j not in big_k for op_j in "ABC"]
    return pairs


def orthogonality_report(psi: PureState, scenario: str, **params) -> OrthogonalityReport:
    """Executable checks for the orthogonality propositions.

    Scenarios:
      "triple"      params: k.  The three intra-triple real dot products.
      "main"        params: slots, xi.  Hypothesis sum_i xi_i A_{j_i}|psi> = 0;
                    lists B_k, C_k against -i|psi> and the off-K triples.
      "two-common"  params: l, lp.  Hypothesis A_l|psi> = A_lp|psi> and
                    C_l|psi> = C_lp|psi>; additionally lists the A_k products.
    """
    scenario = scenario.replace("_", "-")
    norm_sq = psi.norm() ** 2
    tol_abs = CONCLUSION_RTOL * norm_sq
    if scenario == "triple":
        k = params["k"]
        pairs = [(("A", k), ("B", k)), (("A", k), ("C", k)), (("B", k), ("C", k))]
        checks = _run_checks(psi, pairs, HYPOTHESIS_RTOL * norm_sq)
        return OrthogonalityReport("triple", 0.0, checks)

    if scenario == "main":
        slots = list(params["slots"])
        xi = list(params["xi"])
        if len(xi) != len(slots):
            raise ValueError(f"slots and xi must have equal length, got {len(slots)} and {len(xi)}")
        if len(set(slots)) != len(slots):
            raise ValueError(f"slots must be distinct, got {slots}")
        residual_vec = sum(float(x) * _slot_columns(psi, j)[0] for x, j in zip(xi, slots))
        residual = float(np.linalg.norm(residual_vec))
        scale = psi.norm() * sum(abs(float(x)) for x in xi)
        # `not <=` so that a NaN fails too
        if not residual <= HYPOTHESIS_RTOL * scale:
            raise HypothesisViolationError(
                "sum xi_i A_{j_i}|psi> does not vanish", residual
            )
        witness = find_parity_set(xi)
        big_k = frozenset(slots[i - 1] for i in witness.parity_set)
        checks = _run_checks(psi, _off_k_pairs(psi.n, big_k, "BC"), tol_abs)
        return OrthogonalityReport("main", residual, checks, parity_slots=big_k)

    if scenario == "two-common":
        l, lp = params["l"], params["lp"]
        if l == lp:
            raise ValueError(f"slots l and lp must differ, got {l} twice")
        diff = _slot_columns(psi, l)[::2] - _slot_columns(psi, lp)[::2]
        residual = float(max(map(np.linalg.norm, diff)))
        if not residual <= HYPOTHESIS_RTOL * psi.norm():
            raise HypothesisViolationError(
                "A and C columns of the two slots do not coincide", residual
            )
        big_k = frozenset((l, lp))
        checks = _run_checks(psi, _off_k_pairs(psi.n, big_k, "ABC"), tol_abs)
        return OrthogonalityReport("two-common", residual, checks, parity_slots=big_k)

    raise ValueError(f"unknown scenario {scenario!r}")
