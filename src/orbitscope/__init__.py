"""Local-unitary orbit dimensions and isotropy algebras for n-qubit states."""

from types import ModuleType as _ModuleType

from .states import (
    MultiIndex,
    PureState,
    ZeroStateError,
    load_state,
    make_basis,
    make_cat,
    make_singlet_product,
    make_singlet_product_plus_zero,
    sample_haar_state,
    state_from_json,
    state_to_json,
    tensor,
)
from .lie_action import (
    LocalAlgebraElement,
    LocalUnitary,
    SU2GroupElement,
    Su2Coordinates,
    apply_algebra,
    apply_group,
    random_local_unitary,
    random_su2,
    triple_columns,
)
from .orbit_matrix import (
    IsotropyElement,
    OrbitMatrix,
    build_matrix,
    factorize,
    isotropy_basis,
    min_orbit_bound,
    orbit_dimension,
    rank_exact,
    rank_float,
    verify_isotropy,
)
from .inner_products import (
    InnerProductKind,
    direct_inner_product,
    orthogonality_report,
    real_dot,
    table_inner_product,
)
from .z2 import (
    Z2Matrix,
    Z2Witness,
    find_parity_set,
    solve_sign_kernel,
    zero_rows,
)
from .lu_adjust import (
    SO3Rotation,
    adjust_dependency,
    adjust_two_common,
    so3_from_frame,
    su2_lift,
    triple_span_dim,
)

# the imported names, not the submodules that importing them binds here
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
__version__ = "0.1.0"
