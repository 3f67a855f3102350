"""Multi-index bit machinery, n-qubit state vectors, and named state families.

Bit-order contract: for a multi-index I = (i_1, ..., i_n), bit 1 is the most
significant bit of the storage index, so the amplitude of |i_1 i_2 ... i_n>
lives at storage position sum_k i_k * 2**(n-k).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import reduce
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np


class ZeroStateError(ValueError):
    """Raised when an all-zero amplitude vector is supplied."""


@dataclass(frozen=True)
class MultiIndex:
    """An n-tuple of bits labeling a computational basis vector."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) == 0:
            raise ValueError("multi-index must have at least one bit")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"bits must be 0 or 1, got {self.bits}")

    @property
    def n(self) -> int:
        return len(self.bits)

    def to_int(self) -> int:
        """Storage index: bit 1 is the most significant bit."""
        v = 0
        for b in self.bits:
            v = (v << 1) | b
        return v

    @classmethod
    def from_int(cls, idx: int, n: int) -> "MultiIndex":
        if not 0 <= idx < (1 << n):
            raise ValueError(f"index {idx} out of range for n={n}")
        return cls(tuple((idx >> (n - k)) & 1 for k in range(1, n + 1)))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


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


# Exact numerators are held as int64 only below this magnitude, so that they
# convert to float exactly and the products in `tensor` can be bounded.
_INT64_MAX = 2**53


def _exact_numerators(num) -> np.ndarray:
    """Integer numerators in their storage dtype: int64 when every |v| <
    2**53, object Python ints otherwise.  Float, complex and bool arrays, and
    object arrays holding anything but integers, are refused."""
    num = np.asarray(num)
    if num.dtype.kind in "iu":
        if num.size and -_INT64_MAX < num.min() and num.max() < _INT64_MAX:
            return num.astype(np.int64, copy=False)
        return num.astype(object)
    values = num.ravel().tolist() if num.dtype == object else None
    # bool is a subclass of int, but not of this type test
    if values is None or not all(t is int or issubclass(t, np.integer) for t in set(map(type, values))):
        raise ValueError(f"exact numerators must be integers, got dtype {num.dtype}")
    values = list(map(int, values))
    small = max(map(abs, values), default=0) < _INT64_MAX
    return np.array(values, dtype=np.int64 if small else object).reshape(num.shape)


def max_abs(num: np.ndarray) -> int:
    """max |v| over an int64 or object-int array, as a Python int, from its
    maximum and minimum: no copy of the array, as np.abs would make."""
    return max(int(num.max()), -int(num.min()))


def ratio_to_float(num: np.ndarray, den: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """num / den as correctly rounded floats, for int64 or object-int `num`;
    written into the float array `out` when one is given."""
    if num.dtype == object or den >= _INT64_MAX:
        # Python ints divide with one correct rounding at any size; x / 1 is x
        num, den = np.array([v / den for v in num.tolist()], dtype=float), 1
    return np.divide(num, den, out=out)


def _qubit_count(count: int) -> int:
    """n with 2**n == count, in integer arithmetic, so that no count (zero
    included) overflows."""
    n = count.bit_length() - 1
    if n < 0 or 1 << n != count:
        raise ValueError("amplitude count must be a power of two")
    return n


@dataclass(frozen=True)
class PureState:
    """An unnormalized n-qubit state vector.

    `amps` is always present as a C-contiguous complex float array in
    storage order.  An exact state also holds Gaussian-integer numerators
    `num` over one denominator `den`, an int >= 1: the amplitude vector is
    (num[0] + i num[1]) / den.  The numerators are stored as int64 when
    every one is below 2**53 in magnitude and as object Python ints
    otherwise, whatever integer dtype they came in; any other dtype is
    refused.  A float state's amplitudes and its squared norm must be finite.
    Normalization is never required: everything computed from a state here is
    invariant under nonzero rescaling.
    """

    n: int
    amps: Optional[np.ndarray] = field(default=None, repr=False)
    num: Optional[np.ndarray] = field(default=None, repr=False)
    den: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        dim = 1 << self.n
        if self.num is not None:
            if isinstance(self.den, bool) or not isinstance(self.den, (int, np.integer)) or self.den < 1:
                raise ValueError(f"the denominator must be an int >= 1, got {self.den!r}")
            num = _exact_numerators(self.num)
            if num.shape != (2, dim):
                raise ValueError("exact amplitude count mismatch")
            if not np.any(num):
                raise ZeroStateError("zero vector is not a state")
            num.setflags(write=False)
            object.__setattr__(self, "num", num)
            object.__setattr__(self, "den", int(self.den))
            # each part divided straight into its half of the complex array
            amps = np.empty(dim, dtype=complex)
            ratio_to_float(num[0], self.den, out=amps.real)
            ratio_to_float(num[1], self.den, out=amps.imag)
        else:
            amps = np.asarray(self.amps, dtype=complex, order="C")
            if amps.shape != (dim,):
                raise ValueError(f"expected {dim} amplitudes, got shape {amps.shape}")
            # NaN or inf in any amplitude makes the sum NaN or inf too
            if not np.isfinite(np.vdot(amps, amps).real):
                raise ValueError("amplitudes and their squared norm must be finite")
            if not np.any(amps):
                raise ZeroStateError("zero vector is not a state")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def is_exact(self) -> bool:
        return self.num is not None

    @classmethod
    def from_amplitudes(cls, amps: Sequence[complex]) -> "PureState":
        amps = np.asarray(amps, dtype=complex)
        return cls(n=_qubit_count(len(amps)), amps=amps)

    @classmethod
    def from_exact(cls, exact: Sequence[tuple[Fraction, Fraction]]) -> "PureState":
        """An exact state from (Fraction, Fraction) pairs, rescaled to integers."""
        n = _qubit_count(len(exact))
        if not all(isinstance(v, Fraction) for pair in exact for v in pair):
            raise TypeError("exact amplitudes must be Fraction pairs")
        den = math.lcm(*(v.denominator for pair in exact for v in pair))
        num = np.array([[v.numerator * (den // v.denominator) for v in part]
                        for part in zip(*exact)], dtype=object)
        return cls(n=n, num=num, den=den)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def amplitude(self, index: MultiIndex) -> complex:
        return complex(self.amps[index.to_int()])


def _sparse_state(n: int, entries: dict[int, int]) -> PureState:
    """An exact state with integer real amplitudes at the given storage positions."""
    num = np.zeros((2, 1 << n), dtype=np.int64)
    num[0, list(entries)] = list(entries.values())
    return PureState(n=n, num=num)


def make_basis(index: MultiIndex) -> PureState:
    """The computational basis state |I>."""
    return _sparse_state(index.n, {index.to_int(): 1})


# The singlet |01> - |10> and |0>, unnormalized, as real integer amplitudes
_SINGLET = np.array([0, 1, -1, 0], dtype=np.int64)
_ZERO = np.array([1, 0], dtype=np.int64)


def _real_product(factors: list[np.ndarray]) -> PureState:
    """The exact state of the tensor product of real integer factors, in one
    Kronecker chain: the numerators `tensor` would build, with no
    intermediate state."""
    re = reduce(_kron, factors)
    return PureState(n=re.size.bit_length() - 1, num=np.stack([re, np.zeros_like(re)]))


def make_singlet_product(k: int) -> PureState:
    """k tensored copies of the singlet |01> - |10>, on n = 2k qubits."""
    if k < 1:
        raise ValueError("need at least one singlet copy")
    return _real_product([_SINGLET] * k)


def make_singlet_product_plus_zero(k: int) -> PureState:
    """k singlets tensored with |0>, on n = 2k + 1 qubits."""
    if k < 1:
        raise ValueError("need at least one singlet copy")
    return _real_product([_SINGLET] * k + [_ZERO])


def make_cat(n: int) -> PureState:
    """The n-cat state |0...0> + |1...1>, stored with unit amplitudes.

    The 1/sqrt(2) normalization is dropped: rank results downstream are
    scale-invariant.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    return _sparse_state(n, {0: 1, (1 << n) - 1: 1})


def sample_haar_state(n: int, seed: int) -> PureState:
    """Haar-like random state: i.i.d. standard Gaussian real/imag parts.

    The induced projective distribution is unitarily invariant, which is all
    the "almost all states" checks require.  Deterministic given the seed.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    rng = np.random.default_rng(seed)
    amps = np.empty(1 << n, dtype=complex)  # re + 1j * im, without its two complex temporaries
    amps.real = rng.standard_normal(amps.size)
    amps.imag = rng.standard_normal(amps.size)
    return PureState(n=n, amps=amps)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two vectors, as their raveled outer product."""
    return np.multiply.outer(a, b).ravel()


def tensor(psi1: PureState, psi2: PureState) -> PureState:
    """Kronecker product; exact iff both inputs are exact."""
    n = psi1.n + psi2.n
    if not (psi1.is_exact and psi2.is_exact):
        return PureState(n=n, amps=_kron(psi1.amps, psi2.amps))
    (a1, b1), (a2, b2) = psi1.num, psi2.num
    if 2 * max_abs(psi1.num) * max_abs(psi2.num) >= _INT64_MAX:
        # products could reach 2**53, the int64 storage limit: multiply Python ints
        a1, b1, a2, b2 = (x.astype(object) for x in (a1, b1, a2, b2))
    num = np.stack([_kron(a1, a2) - _kron(b1, b2), _kron(a1, b2) + _kron(b1, a2)])
    return PureState(n=n, num=num, den=psi1.den * psi2.den)


def _parse_rational(text: str) -> Fraction:
    if "." in text or "e" in text.lower():
        raise ValueError(f"rational string must be decimal-free: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"rational string has a zero denominator: {text!r}") from None


def _amplitude_pairs(doc: dict, key: str, kind, n: int) -> list:
    """doc[key], checked to be a list of 2**n [re, im] pairs of `kind`."""
    raw = doc[key]
    # the pair structure first, then each element type once, not each value
    if not isinstance(raw, list) or not all(
        isinstance(pair, list) and len(pair) == 2 for pair in raw
    ) or not all(
        issubclass(t, kind) and not issubclass(t, bool)
        for t in set(map(type, itertools.chain.from_iterable(raw)))
    ):
        what = "strings" if kind is str else "numbers"
        raise ValueError(f"{key!r} must be a list of [re, im] pairs of {what}")
    # the bit length bounds n by the list's own size before 2**n is formed
    if len(raw).bit_length() != n + 1 or len(raw) != 1 << n:
        raise ValueError(f"expected 2**{n} amplitudes, got {len(raw)}")
    return raw


def state_from_json(doc: dict) -> PureState:
    """Parse the state file schema.

    {"n": int, "amplitudes": [[re, im], ...]} or, for exact states,
    {"n": int, "amplitudes_exact": [["p/q", "r/s"], ...]}.
    """
    if not isinstance(doc, dict):
        raise ValueError("state file must hold a JSON object")
    n = doc.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("state file needs a positive integer 'n'")
    if "amplitudes_exact" in doc:
        raw = _amplitude_pairs(doc, "amplitudes_exact", str, n)
        exact = [(_parse_rational(re), _parse_rational(im)) for re, im in raw]
        return PureState.from_exact(exact)
    if "amplitudes" in doc:
        raw = _amplitude_pairs(doc, "amplitudes", (int, float), n)
        amps = np.array([complex(re, im) for re, im in raw])
        return PureState(n=n, amps=amps)
    raise ValueError("state file needs 'amplitudes' or 'amplitudes_exact'")


def load_state(path: str) -> PureState:
    with open(path) as fh:
        return state_from_json(json.load(fh))


def state_to_json(psi: PureState) -> dict:
    if psi.is_exact:
        return {
            "n": psi.n,
            "amplitudes_exact": [
                [str(Fraction(re, psi.den)), str(Fraction(im, psi.den))]
                for re, im in zip(*psi.num.tolist())
            ],
        }
    return {
        "n": psi.n,
        "amplitudes": [[float(a.real), float(a.imag)] for a in psi.amps],
    }
