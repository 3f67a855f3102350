"""The paper's proof notation as independent oracles for the tests.

The package works on storage indices and coordinate arrays directly; these
helpers restate the paper's objects one at a time, so that a test can
compare the package's vectorised results against them:

- the multi-index of a storage index, and the bit rows of a GF(2) matrix;
- I_k and I_{kl}, the complements of a multi-index in one or two bits;
- exp of an su(2) element, in closed form;
- the coordinates (t, r, s) of an su(2) matrix in the basis (A, B, C).
"""

import numpy as np

from orbitscope.lie_action import SU2GroupElement, Su2Coordinates
from orbitscope.states import MultiIndex
from orbitscope.z2 import Z2Matrix


def multi_index_from_int(idx: int, n: int) -> MultiIndex:
    if not 0 <= idx < (1 << n):
        raise ValueError(f"index {idx} out of range for n={n}")
    return MultiIndex(tuple((idx >> (n - k)) & 1 for k in range(1, n + 1)))


def bit_rows(matrix: Z2Matrix) -> list[tuple[int, ...]]:
    return [
        tuple((r >> j) & 1 for j in range(matrix.ncols)) for r in matrix.rows
    ]


def multi_index_complement(index: MultiIndex, k: int) -> MultiIndex:
    """Flip bit k (1-based) of the multi-index."""
    if not 1 <= k <= index.n:
        raise ValueError(f"bit position k={k} out of range 1..{index.n}")
    bits = list(index.bits)
    bits[k - 1] ^= 1
    return MultiIndex(tuple(bits))


def multi_index_double_complement(index: MultiIndex, k: int, l: int) -> MultiIndex:
    """Flip bits k and l (1-based, k < l) of the multi-index."""
    if not 1 <= k < l <= index.n:
        raise ValueError(f"need 1 <= k < l <= n, got k={k}, l={l}, n={index.n}")
    return multi_index_complement(multi_index_complement(index, k), l)


def su2_exp(coords: Su2Coordinates) -> SU2GroupElement:
    """exp(t*A + r*B + s*C) in closed form: cos(theta) I + sinc(theta) X."""
    t, r, s = float(coords.t), float(coords.r), float(coords.s)
    theta = np.sqrt(t * t + r * r + s * s)
    if theta == 0:
        return SU2GroupElement.identity()
    x = coords.matrix()
    return SU2GroupElement(np.cos(theta) * np.eye(2) + (np.sin(theta) / theta) * x)


def su2_coordinates(x: np.ndarray) -> np.ndarray:
    """(t, r, s) with x = t A + r B + s C."""
    return np.array([x[0, 0].imag, x[0, 1].real, x[0, 1].imag])
