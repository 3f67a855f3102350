"""The paper's proof notation as independent oracles for the tests.

The package works on storage indices and coordinate arrays directly; these
helpers restate the paper's objects one at a time, so that a test can
compare the package's vectorised results against them:

- I_k and I_{kl}, the complements of a multi-index in one or two bits;
- exp of an su(2) element, in closed form;
- the coordinates (t, r, s) of an su(2) matrix in the basis (A, B, C).
"""

import numpy as np

from orbitscope.lie_action import SU2GroupElement, Su2Coordinates
from orbitscope.states import MultiIndex


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
