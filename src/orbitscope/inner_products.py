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


# The memos below are dicts kept in a PureState's own __dict__, as
# `functools.cached_property` keeps a value on a frozen dataclass: each is
# freed with its state, never shared between states, and not a field, so
# `==`, `repr` and `dataclasses.fields` do not see it.  These are their keys:
# the table's signed and flipped amplitudes, the oracle's triples, and the
# rows of those triples by label, as views made once.
_VECTORS = "_table_vectors"
_MEMO = "_oracle_columns"
_ROWS = "_oracle_rows"

# (-1)^{i_k} on the middle axis of the (2^{k-1}, 2, 2^{n-k}) view: +1 where
# qubit k is 0, -1 where it is 1
_SIGN = np.array([1, -1], dtype=complex)[:, None]


def _slot_vectors(psi: PureState, k: int) -> tuple[np.ndarray, ...]:
    """(c, s c, f, s f) for slot k: the amplitudes c, their signs
    s = (-1)^{i_k}, and the flipped amplitudes f = c_{I_k}, read off the
    (2^{k-1}, 2, 2^{n-k}) view of c whose middle axis is qubit k.

    The last three are read-only, C-contiguous and kept in the state's
    memo: a state holds at most n triples of them, 48n * 2^n bytes.  The
    flip is copied contiguous, since a reversed view may flatten to a
    negative stride, over which `np.vdot` sums in another order.
    """
    vectors = psi.__dict__.get(_VECTORS, {}).get(k)
    if vectors is None:
        view = psi.amps.reshape(1 << (k - 1), 2, -1)
        f = np.ascontiguousarray(view[:, ::-1])
        vectors = (psi.amps, *(v.reshape(-1) for v in (_SIGN * view, f, _SIGN * f)))
        for v in vectors[1:]:
            v.setflags(write=False)
        psi.__dict__.setdefault(_VECTORS, {})[k] = vectors
    return vectors


# Indices into `_slot_vectors`
_C, _SC, _F, _SF = range(4)

# One row per closed form: (phase, left vector of slot j, right vector of
# slot k); the value is phase * sum_I conj(left_I) * right_I.  A single-slot
# form reads c on the left.
_FORMS = {
    "A": (1j, _C, _SC),
    "B": (1, _C, _SF),
    "C": (1j, _C, _F),
    "AA": (1, _SC, _SC),
    "BA": (1j, _SF, _SC),
    "CA": (1, _F, _SC),
    "AB": (-1j, _SC, _SF),
    "BB": (1, _SF, _SF),
    # the printed table has (-1)^{i_j} here; direct evaluation on e.g.
    # |00> + i|11> shows that (-1)^{i_k} matches the column dot products
    "CB": (-1j, _F, _SF),
    "AC": (1, _SC, _F),
    "BC": (1j, _SF, _F),
    "CC": (1, _F, _F),
}


def table_inner_product(psi: PureState, kind: InnerProductKind) -> complex:
    """Evaluate the closed-form sum for one table row.

    The sums keep the paper's bit formulas, in (-1)^{i_k} and c_{I_k}, on
    purpose: the direct side (`direct_inner_product`) applies the basis
    matrices instead, so the two sides share no derivation.  Each form is
    one `np.vdot` of the two vectors its `_FORMS` row names, from the
    state's memo (`_slot_vectors`); a phase of 1 is not multiplied in, so
    signed zeros stay.
    """
    n, j, k = psi.n, kind.j, kind.k
    if not 1 <= k <= n or (j is not None and not 1 <= j <= n):
        raise ValueError(f"slots out of range 1..{n}: {kind}")
    phase, left, right = _FORMS[kind.tag]
    value = np.vdot(_slot_vectors(psi, j or k)[left], _slot_vectors(psi, k)[right])
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
    cols = psi.__dict__.get(_MEMO, {}).get(k)
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
