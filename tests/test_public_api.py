"""The package's public names, and its library calls without SciPy."""

import subprocess
import sys

import orbitscope

# Adding or removing a public name is an edit to this set.
PUBLIC_NAMES = {
    # states
    "MultiIndex", "PureState", "ZeroStateError", "load_state", "make_basis", "make_cat",
    "make_singlet_product", "make_singlet_product_plus_zero", "sample_haar_state",
    "state_from_json", "state_to_json", "tensor",
    # lie_action
    "LocalAlgebraElement", "LocalUnitary", "SU2GroupElement", "Su2Coordinates", "apply_algebra",
    "apply_group", "random_local_unitary", "random_su2", "triple_columns",
    # orbit_matrix
    "IsotropyElement", "OrbitMatrix", "build_matrix", "factorize", "isotropy_basis",
    "min_orbit_bound", "orbit_dimension", "rank_exact", "rank_float", "verify_isotropy",
    # inner_products
    "InnerProductKind", "direct_inner_product", "orthogonality_report", "real_dot",
    "table_inner_product",
    # z2
    "Z2Matrix", "Z2Witness", "find_parity_set", "solve_sign_kernel", "zero_rows",
    # lu_adjust
    "SO3Rotation", "adjust_dependency", "adjust_two_common", "so3_from_frame", "su2_lift",
    "triple_span_dim",
}


def test_public_names_are_pinned():
    assert sorted(orbitscope.__all__) == sorted(PUBLIC_NAMES)


def test_library_calls_import_no_scipy():
    # a fresh process, as the test session imports SciPy for its oracles; the
    # finder makes any SciPy import fail, so the check does not depend on
    # whether SciPy is installed
    script = """
import sys

class BlockSciPy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"{name} is blocked")

sys.meta_path.insert(0, BlockSciPy())

import numpy as np
import orbitscope
from orbitscope import (
    InnerProductKind, adjust_two_common, apply_group, direct_inner_product, find_parity_set,
    make_singlet_product, orthogonality_report, random_local_unitary, table_inner_product,
)
from orbitscope.cli import analyze_state
from orbitscope.inner_products import table_kind_as_labels

exact = make_singlet_product(2)
assert analyze_state(exact, 1e-10)["orbit_dimension"] == 6
rotated = apply_group(random_local_unitary(6, np.random.default_rng(1)), make_singlet_product(3))
report = analyze_state(rotated, 1e-10)
assert report["rank_path"] == "float" and report["orbit_dimension"] == report["isotropy_dimension"] == 9, report
kind = InnerProductKind("CB", 1, 2)
got, expected = table_inner_product(rotated, kind), direct_inner_product(rotated, *table_kind_as_labels(kind))
assert abs(got - expected) <= 1e-12 * rotated.norm() ** 2, (got, expected)
_, adjusted = adjust_two_common(exact, 1, 2)
assert orthogonality_report(adjusted, "two-common", l=1, lp=2).all_pass
witness = find_parity_set([1.0, 1.0])
assert witness.parity_set == {1, 2}, witness
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
