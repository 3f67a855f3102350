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

from dataclasses import dataclass
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


@dataclass(frozen=True, eq=False)
class OrthogonalityReport:
    """One block of the column Gram matrix: `values[i, j]` is
    <rows[i]|cols[j]>, read-only, for columns named like "B3" or "-i|psi>".
    Row-major, its entries are the report's checks; check (i, j), named
    f"{rows[i]}.{cols[j]}", passes when |Re values[i, j]| <= tolerance."""

    scenario: str
    hypothesis_residual: float
    rows: tuple[str, ...]
    cols: tuple[str, ...]
    values: np.ndarray
    tolerance: float
    parity_slots: Optional[frozenset[int]] = None

    @property
    def all_pass(self) -> bool:
        """Every check passes but a self-pair, which is not tested; a NaN fails."""
        self_pairs = np.array(self.rows, dtype=str)[:, None] == np.array(self.cols, dtype=str)
        return bool(np.all(self_pairs | (np.abs(self.values.real) <= self.tolerance)))


def _run_checks(psi, slots, rows, cols) -> np.ndarray:
    """Rows `rows` and columns `cols` of the complex Gram matrix of the
    triples of `slots`, then -i|psi>, read-only: one product of the rows
    against every column, then a slice of its columns.

    Its entries are the whole Gram matrix's, bit for bit: BLAS sums each
    entry of a matrix product in the same order whatever the row count (a
    test holds the reports to the whole matrix).  One row, or fewer
    columns, would take another kernel and change bits."""
    columns = np.concatenate([_slot_columns(psi, k) for k in slots] + [-1j * psi.amps[None]])
    values = (columns[rows].conj() @ columns.T)[:, cols]
    values.setflags(write=False)
    return values


def orthogonality_report(psi: PureState, scenario: str, **params) -> OrthogonalityReport:
    """Executable checks for the orthogonality propositions.

    Scenarios:
      "triple"      params: k.  Rows A_k, B_k against columns B_k, C_k: the
                    three intra-triple real dot products and a self-pair.
      "main"        params: slots, xi.  Hypothesis sum_i xi_i A_{j_i}|psi> = 0;
                    rows B_k, C_k for k in K against -i|psi> and the off-K triples.
      "two-common"  params: l, lp.  Hypothesis A_l|psi> = A_lp|psi> and
                    C_l|psi> = C_lp|psi>; rows A_k, B_k, C_k.
    """
    scenario = scenario.replace("_", "-")
    norm_sq = psi.norm() ** 2
    if scenario == "triple":
        k = params["k"]
        values = _run_checks(psi, [k], [0, 1], [1, 2])
        rows, cols = (f"A{k}", f"B{k}"), (f"B{k}", f"C{k}")
        return OrthogonalityReport("triple", 0.0, rows, cols, values, HYPOTHESIS_RTOL * norm_sq)

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
        big_k, ops = frozenset(slots[i - 1] for i in witness.parity_set), "BC"
    elif scenario == "two-common":
        l, lp = params["l"], params["lp"]
        if l == lp:
            raise ValueError(f"slots l and lp must differ, got {l} twice")
        diff = _slot_columns(psi, l)[::2] - _slot_columns(psi, lp)[::2]
        residual = float(max(map(np.linalg.norm, diff)))
        if not residual <= HYPOTHESIS_RTOL * psi.norm():
            raise HypothesisViolationError(
                "A and C columns of the two slots do not coincide", residual
            )
        big_k, ops = frozenset((l, lp)), "ABC"
    else:
        raise ValueError(f"unknown scenario {scenario!r}")

    n = psi.n
    rows = [(op, k) for k in sorted(big_k) for op in ops]
    cols = [(op, j) for j in range(1, n + 1) if j not in big_k for op in "ABC"]
    # the triples of all n slots, then -i|psi>: (op, j) is column 3(j - 1) + _ROW[op]
    at = [[3 * j - 3 + _ROW[op] for op, j in labels] for labels in (rows, cols)]
    values = _run_checks(psi, range(1, n + 1), at[0], [3 * n] + at[1])
    rows, cols = [tuple(f"{op}{j}" for op, j in labels) for labels in (rows, cols)]
    tolerance = CONCLUSION_RTOL * norm_sq
    return OrthogonalityReport(scenario, residual, rows, ("-i|psi>",) + cols, values, tolerance, big_k)
