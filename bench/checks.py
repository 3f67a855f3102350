"""Correctness checkers, run outside the timed region on every item.

Each checker takes an item from the manifest and what the program returned
for it, and returns a list of problems; an empty list means the answer is
right.  Reference values come from the theorems (orbit dimensions of the
families, 3n for Haar states, the minimum bound for LU-rotated minimum
states) and from independent numpy evaluation; the program is asked only to
apply an algebra element (`apply_algebra`) when an isotropy vector is
re-verified.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

import numpy as np

from inputs import family_amplitudes, min_bound

# ||X.psi - i theta psi|| <= ISOTROPY_RTOL * ||psi|| * ||(X, theta)||
ISOTROPY_RTOL = 1e-8
# |table - direct| <= TABLE_RTOL * ||psi||^2, as in `verify --suite table1`
TABLE_RTOL = 1e-12
# adjusted-column residuals <= ADJUST_RTOL * ||psi||
ADJUST_RTOL = 1e-10


def reference_amplitudes(item: dict):
    """Amplitudes for re-verifying isotropy vectors, or None (Haar items,
    whose isotropy is trivial)."""
    if "family" in item:
        return family_amplitudes(item["family"])
    if "state_file" in item:
        with open(item["state_file"]) as fh:
            raw = json.load(fh)["amplitudes"]
        return np.array([complex(re, im) for re, im in raw])
    return None


def expected_report(item: dict) -> dict:
    n, orbit = item["n"], item["orbit"]
    return {
        "n": n,
        "orbit_dimension": orbit,
        "rank": orbit + 1,
        "matrix_shape": [2 ** (n + 1), 3 * n + 1],
        "min_bound": min_bound(n),
        "achieves_min": orbit == min_bound(n),
        "isotropy_dimension": 3 * n - orbit,
    }


def check_isotropy_vectors(amps: np.ndarray, basis: list) -> list[str]:
    """Each (X, theta) must satisfy X.psi = i theta psi, and together they
    must be linearly independent."""
    from orbitscope import LocalAlgebraElement, PureState, apply_algebra

    n = int(amps.size).bit_length() - 1
    psi = PureState(n=n, amps=amps)
    problems, vectors = [], []
    for index, element in enumerate(basis):
        coords, theta = element["coords"], element["theta"]
        vector = np.array([c for triple in coords for c in triple] + [theta], dtype=float)
        x = LocalAlgebraElement.from_triples([tuple(t) for t in coords])
        residual = float(np.linalg.norm(apply_algebra(x, psi) - 1j * theta * psi.amps))
        limit = ISOTROPY_RTOL * psi.norm() * float(np.linalg.norm(vector))
        if not residual <= limit:
            problems.append(f"isotropy vector {index}: residual {residual:.3e} > {limit:.3e}")
        vectors.append(vector)
    if vectors and np.linalg.matrix_rank(np.array(vectors)) != len(vectors):
        problems.append("isotropy vectors are linearly dependent")
    return problems


def check_analyze(item: dict, rc, text: str) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        report = json.loads(text)
    except ValueError:
        return ["output is not one JSON object"]
    expected = expected_report(item)
    problems = [
        f"{key} = {report.get(key)!r}, expected {want!r}"
        for key, want in expected.items()
        if report.get(key) != want
    ]
    basis = report.get("isotropy_basis")
    if not isinstance(basis, list) or len(basis) != expected["isotropy_dimension"]:
        problems.append(f"isotropy basis has {len(basis or [])} vectors, expected {expected['isotropy_dimension']}")
    elif basis:
        problems += check_isotropy_vectors(reference_amplitudes(item), basis)
    return problems


def check_sweep(item: dict, rc, text: str) -> tuple[list[list[str]], list[int]]:
    """Problems per sample, and the per-sample seeds the sweep reported.

    A wrong exit code or aggregate is a wrong answer for every sample."""
    n, samples = item["n"], item["samples"]
    lines = text.splitlines()
    records = []
    for line in lines:
        try:
            records.append(json.loads(line))
        except ValueError:
            records.append(None)
    per_sample: list[list[str]] = []
    seeds = []
    for i in range(samples):
        record = records[i] if i < len(records) else None
        if not isinstance(record, dict):
            per_sample.append([f"sample {i}: no record"])
            continue
        seeds.append(record.get("seed"))
        want = {"sample": i, "n": n, "orbit_dimension": 3 * n, "rank": 3 * n + 1,
                "min_bound": min_bound(n), "achieves_min": False}
        per_sample.append([
            f"sample {i}: {key} = {record.get(key)!r}, expected {value!r}"
            for key, value in want.items() if record.get(key) != value
        ])
    shared = []
    if rc != 0:
        shared.append(f"exit code {rc}")
    aggregate = records[samples] if len(records) == samples + 1 else None
    want_aggregate = {"aggregate": {"min": 3 * n, "max": 3 * n, "histogram": {str(3 * n): samples},
                                    "bound_violations": 0}}
    if aggregate != want_aggregate:
        shared.append(f"aggregate {aggregate!r}, expected {want_aggregate!r}")
    return [problems + shared for problems in per_sample], seeds


def check_table(amps: np.ndarray, values: list) -> list[str]:
    """values: (table, direct) pairs for every table row of the state."""
    scale = float(np.vdot(amps, amps).real)
    worst = max(abs(table - direct) for table, direct in values) / scale
    if not worst <= TABLE_RTOL:
        return [f"table vs direct: worst relative error {worst:.3e} > {TABLE_RTOL}"]
    return []


def zero_patterns(xi: list) -> set:
    """The sign patterns r with sum_i (-1)^{r_i} xi_i = 0, by brute force in
    exact arithmetic."""
    exact = [Fraction(v) for v in xi]
    return {
        bits for bits in itertools.product((0, 1), repeat=len(exact))
        if sum(-v if b else v for b, v in zip(bits, exact)) == 0
    }


def check_lemma(truth: set, witness, rows: list) -> list[str]:
    """zero_rows must list exactly the vanishing sign patterns (`truth`, from
    zero_patterns), and the parity set must be nonempty, even, and of
    constant parity over them."""
    problems = []
    if {tuple(r) for r in rows} != truth or len(rows) != len(truth):
        problems.append(f"zero_rows gave {len(rows)} patterns, expected {len(truth)}")
    support = witness.parity_set
    if not support or len(support) % 2:
        problems.append(f"parity set {sorted(support)} is empty or odd")
    parities = {sum(bits[k - 1] for k in support) % 2 for bits in truth}
    if parities != {witness.parity}:
        problems.append(f"parities {parities} over zero rows, witness says {witness.parity}")
    return problems


def _column_a(amps: np.ndarray, k: int) -> np.ndarray:
    """A_k|psi> = i (-1)^{i_k} c_I, with qubit 1 the most significant bit."""
    n = int(amps.size).bit_length() - 1
    bit = (np.arange(amps.size) >> (n - k)) & 1
    return 1j * (1 - 2 * bit) * amps


def _column_c(amps: np.ndarray, k: int) -> np.ndarray:
    """C_k|psi> = i c_{I_k}, I_k being I with bit k flipped."""
    n = int(amps.size).bit_length() - 1
    return 1j * amps[np.arange(amps.size) ^ (1 << (n - k))]


def check_adjust(amps: np.ndarray, slots: list, result: dict) -> list[str]:
    """result: psi_dep and psi_two (adjusted amplitudes), main and two
    (orthogonality reports), span_dims (before and after both adjustments)."""
    norm = float(np.linalg.norm(amps))
    l, lp = slots
    dep, two = np.asarray(result["psi_dep"]), np.asarray(result["psi_two"])
    dep_residual = float(np.linalg.norm(_column_a(dep, l) + _column_a(dep, lp)))
    two_residual = max(
        float(np.linalg.norm(_column_a(two, l) - _column_a(two, lp))),
        float(np.linalg.norm(_column_c(two, l) - _column_c(two, lp))),
    )
    problems = []
    for name, residual in (("dependency", dep_residual), ("two-common", two_residual)):
        if not residual <= ADJUST_RTOL * norm:
            problems.append(f"{name} residual {residual:.3e} > {ADJUST_RTOL} * |psi|")
    for name in ("main", "two"):
        if not result[name].all_pass:
            problems.append(f"{name} orthogonality report fails")
    if len(set(result["span_dims"])) != 1:
        problems.append(f"triple span dimension changed: {result['span_dims']}")
    for name, state in (("dependency", dep), ("two-common", two)):
        if abs(float(np.linalg.norm(state)) - norm) > 1e-12 * norm:
            problems.append(f"{name} adjustment changed the norm")
    return problems
