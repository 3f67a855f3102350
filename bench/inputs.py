"""Workload inputs, generated from the workload seed with numpy alone.

Each generator returns a manifest: a JSON-serializable dict with the
workload name and its item list.  Float states that the program reads from
disk are written as state files under `out_dir`.  Each item carries what
the checker needs to judge the program's answer (the reference orbit
dimension, and for states with nontrivial isotropy, where to find the
amplitudes), so the checker never asks the program under test for a
reference.
"""

from __future__ import annotations

import json
import os

import numpy as np

WORKLOADS = ("exact_families", "float_analyze", "float_sweep", "paper_checks")

# One stream per workload, so two workloads run with the same seed draw
# unrelated inputs.
_STREAM = {name: index for index, name in enumerate(WORKLOADS)}


def min_bound(n: int) -> int:
    return (3 * n) // 2 if n % 2 == 0 else (3 * n + 1) // 2


def singlet_product(k: int, plus_zero: bool = False) -> np.ndarray:
    """Amplitudes of k singlets |01> - |10> (tensored with |0> if asked)."""
    amps = np.ones(1, dtype=complex)
    for _ in range(k):
        amps = np.kron(amps, np.array([0, 1, -1, 0], dtype=complex))
    if plus_zero:
        amps = np.kron(amps, np.array([1, 0], dtype=complex))
    return amps


def family_amplitudes(family: list) -> np.ndarray:
    """Float amplitudes of a named exact family, built independently of the
    program: ["singlet", k], ["singlet0", k], ["cat", n] or ["basis", bits]."""
    kind, arg = family
    if kind == "singlet":
        return singlet_product(arg)
    if kind == "singlet0":
        return singlet_product(arg, plus_zero=True)
    if kind == "cat":
        amps = np.zeros(1 << arg, dtype=complex)
        amps[0] = amps[-1] = 1
        return amps
    if kind == "basis":
        amps = np.zeros(1 << len(arg), dtype=complex)
        amps[int(arg, 2)] = 1
        return amps
    raise ValueError(f"unknown family {kind!r}")


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform SU(2) matrix from a normalized Gaussian quaternion."""
    q = rng.standard_normal(4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([[w + 1j * x, y + 1j * z], [-y + 1j * z, w - 1j * x]])


def apply_local(amps: np.ndarray, factors: dict[int, np.ndarray]) -> np.ndarray:
    """Apply 2x2 matrices to the given qubits (0-based, qubit 0 = most
    significant bit of the storage index)."""
    n = int(amps.size).bit_length() - 1
    tensor = amps.reshape((2,) * n)
    for qubit, u in factors.items():
        tensor = np.moveaxis(np.tensordot(u, tensor, axes=([1], [qubit])), 0, qubit)
    return tensor.reshape(-1)


def pairs(amps: np.ndarray) -> list[list[float]]:
    return [[float(a.real), float(a.imag)] for a in amps]


def _analyze_item(spec: str, n: int, orbit: int, **extra) -> dict:
    return {"kind": "analyze", "id": spec, "spec": spec, "n": n, "orbit": orbit, **extra}


def exact_families(seed: int, out_dir: str) -> dict:
    """The theorem families with exact amplitudes; fixed, seed-independent."""
    items = []
    for k in range(1, 6):
        n = 2 * k
        items.append(_analyze_item(f"singlet*{k}", n, 3 * n // 2, family=["singlet", k]))
    for k in range(1, 6):
        n = 2 * k + 1
        items.append(_analyze_item(f"singlet*{k}+0", n, (3 * n + 1) // 2, family=["singlet0", k]))
    for n in range(3, 9):
        items.append(_analyze_item(f"cat:{n}", n, 2 * n + 1, family=["cat", n]))
    for n in range(2, 9):
        patterns = [("01" * n)[:n], ("110" * n)[:n]]
        for bits in patterns:
            items.append(_analyze_item(f"basis:{bits}", n, 2 * n, family=["basis", bits]))
    return {"workload": "exact_families", "items": items}


# Rotated minimum states: (singlet count, plus |0>, how many LU draws).
# Rotated states stop at n = 10 and Haar states at n = 13 (README.md).
# The counts put the median and the tail item in the middle of the eleven
# Haar n = 12 analyses, away from the n = 9 rotated states, the least steady
# items, and from the edges of the group.
ROTATED = ((4, False, 4), (4, True, 4), (5, False, 2))
# Haar states: (n, how many seeds).  Isotropy is trivial; M is large.
HAAR = ((12, 11), (13, 3))


def float_analyze(seed: int, out_dir: str) -> dict:
    rng = np.random.default_rng([seed, _STREAM["float_analyze"]])
    items = []
    for k, plus_zero, draws in ROTATED:
        for draw in range(draws):
            amps = singlet_product(k, plus_zero)
            n = int(amps.size).bit_length() - 1
            amps = apply_local(amps, {q: random_su2(rng) for q in range(n)})
            path = os.path.join(out_dir, f"rotated-{k}{'+0' if plus_zero else ''}-{draw}.json")
            with open(path, "w") as fh:
                json.dump({"n": n, "amplitudes": pairs(amps)}, fh)
            label = f"lu(singlet*{k}{'+0' if plus_zero else ''})#{draw}"
            items.append({**_analyze_item(f"file:{path}", n, min_bound(n), state_file=path), "id": label})
    for n, count in HAAR:
        for _ in range(count):
            spec = f"random:{n}:{int(rng.integers(0, 2**31))}"
            items.append(_analyze_item(spec, n, 3 * n))
    return {"workload": "float_analyze", "items": items}


SWEEP_N = 8
SWEEP_SAMPLES = 200


def float_sweep(seed: int, out_dir: str) -> dict:
    """One `sweep` call per round; the CLI seed is the workload seed itself."""
    return {
        "workload": "float_sweep",
        "items": [{"kind": "sweep", "id": "sweep", "n": SWEEP_N, "samples": SWEEP_SAMPLES, "seed": seed}],
    }


TABLE_STATES = {n: 4 for n in range(2, 7)}  # Haar states per qubit count
LEMMA_INSTANCES = 60
ADJUST_STATES = {k: 4 for k in range(1, 5)}  # LU-dressed singlet products per k


def paper_checks(seed: int, out_dir: str) -> dict:
    rng = np.random.default_rng([seed, _STREAM["paper_checks"]])
    items = []
    for n, count in TABLE_STATES.items():
        for i in range(count):
            amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
            items.append({"kind": "table", "id": f"table n={n} #{i}", "n": n, "amps": pairs(amps)})
    for i in range(LEMMA_INSTANCES):
        m = 2 + i % 7  # sizes fixed, so the seed changes values, not cost
        items.append({"kind": "lemma", "id": f"lemma m={m} #{i}", "m": m,
                      "instance_seed": int(rng.integers(0, 2**31))})
    for k, count in ADJUST_STATES.items():
        n = 2 * k
        for i in range(count):
            pair = int(rng.integers(0, k))
            slots = [2 * pair + 1, 2 * pair + 2]
            others = {q: random_su2(rng) for q in range(n) if q + 1 not in slots}
            amps = apply_local(singlet_product(k), others)
            items.append({"kind": "adjust", "id": f"adjust singlet*{k} #{i}", "n": n,
                          "slots": slots, "amps": pairs(amps)})
    return {"workload": "paper_checks", "items": items}


GENERATORS = {
    "exact_families": exact_families,
    "float_analyze": float_analyze,
    "float_sweep": float_sweep,
    "paper_checks": paper_checks,
}
