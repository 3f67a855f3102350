"""Command-line front end: analyze states, sweep random families, and run
the verification suites.  All output is machine-readable: reports are JSON
written by Python's `json` module.  Exit codes are 0 = success,
1 = verification failure, 2 = usage or input error, 141 = stdout closed
early (128 + SIGPIPE, as `sweep | head` does).  Every usage or input
error is raised as a `UsageError` and reported by `main` alone, as one
`error: <message>` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction

import numpy as np

from . import z2
from .inner_products import (
    ALL_KINDS,
    SINGLE_KINDS,
    InnerProductKind,
    direct_inner_product,
    real_dot,
    table_inner_product,
    table_kind_as_labels,
)
from .lie_action import triple_columns
from .orbit_matrix import (
    BLOCK_AMPS,
    DEFAULT_TOL,
    dump_csv,
    factorize,
    min_orbit_bound,
)
from .states import (
    MultiIndex,
    PureState,
    load_state,
    make_basis,
    make_cat,
    make_singlet_product,
    make_singlet_product_plus_zero,
    sample_haar_state,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141

# Peak bytes per amplitude while a state is built, measured with tracemalloc
# at n = 16: 34 (Haar), 50 (cat, basis), 58 (singlet*8), 68 (singlet*7+0).
STATE_BYTES_PER_AMP = 80
# Float64 row blocks' worth of memory that `factorize` holds at once, by
# tracemalloc peak: 2.1 (Haar, n = 16), 2.6 (exact, n = 16), 6.2 (exact with
# a Python-int Gram sum, n = 11).
BLOCK_BUFFERS = 8
# Bytes per amplitude and qubit of the table's memos on a state: the three
# complex columns of every slot (`_slot_columns`, 48) and its signed and
# flipped amplitudes (`_slot_vectors`, 48).
MEMO_BYTES_PER_AMP_QUBIT = 96


class UsageError(ValueError):
    """Input the command line refuses; `main` reports it and exits 2."""


class SpecParseError(UsageError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals are `UsageError`s, so that `main`
    reports them like every other input error (argparse's own `error`
    prints a usage block and exits)."""

    def error(self, message):
        raise UsageError(message)


def physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_capacity(n: int, bytes_per_amp: int = STATE_BYTES_PER_AMP) -> None:
    """Raise a UsageError unless an n-qubit state, at `bytes_per_amp` bytes
    per amplitude, and the float64 row blocks of M fit in physical memory."""
    memory = physical_memory()
    # 2**n bytes alone exceed memory from n = memory.bit_length() on;
    # testing that first keeps a huge n from making a huge integer
    if n < memory.bit_length():
        need = (bytes_per_amp << n) + BLOCK_BUFFERS * 2 * BLOCK_AMPS * (3 * n + 1) * 8
        if need <= memory:
            return
    raise UsageError(
        f"n={n} exceeds capacity: the state and the row blocks of M would not fit "
        f"in the {memory / 2**30:.1f} GiB of physical memory"
    )


# (pattern, qubit count read off the match, builder).  A file: state has no
# count to read ahead; the file's own size bounds it.
_SPEC_PATTERNS = [
    (re.compile(r"^singlet\*(\d+)\+0$"), lambda m: 2 * int(m[1]) + 1,
     lambda m: make_singlet_product_plus_zero(int(m[1]))),
    (re.compile(r"^singlet\*(\d+)$"), lambda m: 2 * int(m[1]), lambda m: make_singlet_product(int(m[1]))),
    (re.compile(r"^cat:(\d+)$"), lambda m: int(m[1]), lambda m: make_cat(int(m[1]))),
    (re.compile(r"^basis:([01]+)$"), lambda m: len(m[1]),
     lambda m: make_basis(MultiIndex(tuple(int(b) for b in m[1])))),
    (re.compile(r"^random:(\d+):(\d+)$"), lambda m: int(m[1]), lambda m: sample_haar_state(int(m[1]), int(m[2]))),
    (re.compile(r"^file:(.+)$"), None, lambda m: load_state(m[1])),
]


def parse_state_spec(spec: str) -> PureState:
    """Parse a state spec string into a state.

    Grammar: singlet*<k> | singlet*<k>+0 | cat:<n> | basis:<bits> |
    random:<n>:<seed> | file:<path>.  A state too large for memory is
    refused before anything is allocated for it.
    """
    for pattern, qubits, builder in _SPEC_PATTERNS:
        match = pattern.match(spec)
        if match:
            try:
                if qubits:
                    check_capacity(qubits(match))
                return builder(match)
            # RecursionError: json.load of a deeply nested file
            except (ValueError, OverflowError, OSError, RecursionError) as exc:
                raise SpecParseError(f"bad state spec {spec!r}: {exc}") from exc
    head = spec.split(":")[0].split("*")[0]
    raise SpecParseError(
        f"unrecognized state spec {spec!r} (family {head!r} at position 0); "
        "expected singlet*<k>, singlet*<k>+0, cat:<n>, basis:<bits>, "
        "random:<n>:<seed>, or file:<path>"
    )


# The bench's span recorder wraps this name, so serialization stays one layer.
dumps = json.dumps


def parse_tolerance(text: str, source: str = "--tol") -> float:
    """A float rank tolerance: a number with 0 <= tol < 1, so never NaN or inf."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 <= tol < 1:
        raise UsageError(f"{source} must be a number with 0 <= tol < 1, got {text!r}")
    return tol


def default_tolerance() -> float:
    env = os.environ.get("ORBITSCOPE_TOL")
    return parse_tolerance(env, "ORBITSCOPE_TOL") if env else DEFAULT_TOL


# |x| from which int / int overflows: the midpoint between the largest float
# and 2**1024, which rounds (to even) up to 2**1024
_FLOAT_OVERFLOW = 2**1024 - 2**970


def _report_floats(kernel: list, n: int) -> list[list[float]]:
    """Exact kernel vectors as floats: numerator / denominator is Python's
    correctly rounded integer division, the value float(Fraction) gives.  A
    coordinate beyond the float range is refused, by its place in the report."""
    try:
        return [[x.numerator / x.denominator for x in vec] for vec in kernel]
    except OverflowError:
        i, j, x = next((i, j, x) for i, vec in enumerate(kernel) for j, x in enumerate(vec)
                       if abs(x) >= _FLOAT_OVERFLOW)
        place = "theta" if j == 3 * n else f"coords[{j // 3}][{j % 3}]"
        raise UsageError(
            f"isotropy basis vector {i}: {place} is about "
            f"10**{math.log10(abs(x.numerator)) - math.log10(x.denominator):.0f}, "
            "beyond the float range of the JSON report"
        ) from None


def analyze_state(
    psi: PureState,
    tol: float,
    force_exact: bool = False,
    dump_matrix: str | None = None,
) -> dict:
    """The report for one state: rank of M, orbit dimension and isotropy
    basis.  A `--dump-matrix` path is written before the factorization, so an
    unwritable one is refused without the analysis."""
    if force_exact and not psi.is_exact:
        raise UsageError("--exact requires a state with exact amplitudes")
    if dump_matrix:
        try:
            dump_csv(psi, dump_matrix)
        except OSError as exc:
            raise UsageError(f"cannot write --dump-matrix {dump_matrix!r}: {exc.strerror or exc}") from exc
    rank, kernel = factorize(psi, tol)
    n, bound = psi.n, min_orbit_bound(psi.n)
    vectors = _report_floats(kernel, n) if psi.is_exact else kernel.tolist()
    basis = [{"coords": [v[3 * k : 3 * k + 3] for k in range(n)], "theta": v[3 * n]} for v in vectors]
    return {
        "n": n,
        "orbit_dimension": rank - 1,
        "rank": rank,
        "matrix_shape": [2 << n, 3 * n + 1],
        "min_bound": bound,
        "achieves_min": rank - 1 == bound,
        "isotropy_dimension": 3 * n + 1 - rank,
        "isotropy_basis": basis,
        "rank_path": "exact" if psi.is_exact else "float",
        "tolerance": None if psi.is_exact else tol,
    }


def cmd_analyze(args) -> int:
    psi = parse_state_spec(args.state)
    print(dumps(analyze_state(psi, args.tol, force_exact=args.exact, dump_matrix=args.dump_matrix)))
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.n < 1 or args.samples < 1:
        raise UsageError("need n >= 1 and samples >= 1")
    check_capacity(args.n)
    if args.seed < 0:
        raise UsageError("need seed >= 0")
    bound = min_orbit_bound(args.n)
    dims = []
    for i in range(args.samples):
        # each (seed, sample) pair gets its own stream, so --seed s and s + 1
        # do not reuse each other's states (as seed ^ sample did)
        seed = int(np.random.SeedSequence([args.seed, i]).generate_state(1, np.uint64)[0])
        # the rank alone: these fields of the `analyze` report need no kernel
        rank = factorize(sample_haar_state(args.n, seed), args.tol)[0]
        dims.append(rank - 1)
        print(dumps({"sample": i, "seed": seed, "n": args.n, "orbit_dimension": rank - 1, "rank": rank,
                     "min_bound": bound, "achieves_min": rank - 1 == bound}))
    histogram = {str(d): dims.count(d) for d in sorted(set(dims))}
    violations = sum(1 for d in dims if d < bound)
    print(
        dumps(
            {
                "aggregate": {
                    "min": min(dims),
                    "max": max(dims),
                    "histogram": histogram,
                    "bound_violations": violations,
                }
            }
        )
    )
    return EXIT_OK if violations == 0 else EXIT_VERIFY_FAIL


def _verify_theorem(n_max: int):
    """Exact minimum-orbit checks for the singlet families, plus cat states."""
    for n in range(2, n_max + 1, 2):
        psi = make_singlet_product(n // 2)
        dim = factorize(psi)[0] - 1
        yield f"singlet^{n // 2} (n={n}) orbit dim {dim} == {3 * n // 2}", dim == 3 * n // 2
    for n in range(3, n_max + 1, 2):
        psi = make_singlet_product_plus_zero((n - 1) // 2)
        dim = factorize(psi)[0] - 1
        yield f"singlet^{(n - 1) // 2}+|0> (n={n}) orbit dim {dim} == {(3 * n + 1) // 2}", dim == (3 * n + 1) // 2
    for n in range(3, n_max + 1):
        dim = factorize(make_cat(n))[0] - 1
        yield f"cat:{n} orbit dim {dim} > bound {min_orbit_bound(n)}", dim > min_orbit_bound(n)


def _verify_table1(n_max: int):
    """Closed forms against direct column inner products on random states."""
    for n in range(1, n_max + 1):
        # the rows and their labels depend on n alone: built once for the 50 states
        kinds = [
            InnerProductKind(tag=tag, k=k, j=j)
            for tag in ALL_KINDS
            for k in range(1, n + 1)
            for j in ([None] if tag in SINGLE_KINDS else range(1, n + 1))
        ]
        rows = [(kind, table_kind_as_labels(kind)) for kind in kinds]
        worst = 0.0
        for sample in range(50):
            psi = sample_haar_state(n, seed=7000 + 100 * n + sample)
            scale = psi.norm() ** 2
            for kind, labels in rows:
                expected = direct_inner_product(psi, *labels)
                got = table_inner_product(psi, kind)
                worst = max(worst, abs(got - expected) / scale)
        yield f"table-vs-direct n={n}, 50 states, worst rel err {worst:.2e}", worst <= 1e-12


def _verify_triples(n_max: int):
    for n in range(1, n_max + 1):
        worst = 0.0
        for sample in range(50):
            psi = sample_haar_state(n, seed=9000 + 100 * n + sample)
            scale = psi.norm() ** 2
            for k in range(1, n + 1):
                va, vb, vc = triple_columns(psi, k)
                for u, v in ((va, vb), (va, vc), (vb, vc)):
                    worst = max(worst, abs(real_dot(u, v)) / scale)
        yield f"triple orthogonality n={n}, worst |dot| {worst:.2e}", worst <= 1e-12


def engineered_sign_instance(rng: np.random.Generator, m: int):
    """A coefficient vector with a forced zero sign-sum, plus nothing else
    guaranteed: xi_m = sum eps_i xi_i makes the all-(eps)-signs row vanish."""
    values = [Fraction(int(v)) for v in rng.integers(1, 50, size=m - 1)]
    eps = rng.choice([-1, 1], size=m - 1)
    last = sum(int(e) * v for e, v in zip(eps, values))
    if last == 0:
        values[0] += 1
        last = sum(int(e) * v for e, v in zip(eps, values))
    return values + [last]


def _verify_lemma(n_max: int):
    """500 engineered instances through `find_parity_set`, which re-checks
    that each parity set is even and of constant parity over the zero rows
    and raises InternalContradictionError if not.  An instance that raises
    that, or NoWitnessError, fails the count; a contradiction fails the two
    postcondition lines too."""
    rng = np.random.default_rng(2026)
    failed, contradiction = 0, False
    for _ in range(500):
        xi = engineered_sign_instance(rng, int(rng.integers(2, 9)))
        try:
            z2.find_parity_set(xi)
        except z2.NoWitnessError:
            failed += 1
        except z2.InternalContradictionError:
            failed, contradiction = failed + 1, True
    yield f"sign-kernel lemma: {500 - failed}/500 witnesses found", not failed
    yield "all parity sets even", not contradiction
    yield "constant parity over zero rows", not contradiction


_SUITES = {
    "theorem": _verify_theorem,
    "table1": _verify_table1,
    "triples": _verify_triples,
    "lemma": _verify_lemma,
}


def cmd_verify(args) -> int:
    # theorem, table1 and triples build states of every size up to --n-max
    # (none below 1); table1 also memoises each state's columns and signed
    # and flipped amplitudes
    if args.suite in ("theorem", "table1", "triples") and args.n_max > 0:
        memo = MEMO_BYTES_PER_AMP_QUBIT * args.n_max if args.suite == "table1" else 0
        check_capacity(args.n_max, STATE_BYTES_PER_AMP + memo)
    checks, failures = 0, []
    for name, ok in _SUITES[args.suite](args.n_max):
        checks += 1
        status = "pass" if ok else "FAIL"
        print(f"{status}  {name}")
        if not ok:
            failures.append(name)
    if not checks:
        raise UsageError(f"suite {args.suite!r} runs no check at --n-max {args.n_max}")
    if failures:
        print(dumps({"suite": args.suite, "failures": failures}))
        return EXIT_VERIFY_FAIL
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged, and the tolerance default is read per call in `main`."""
    parser = _Parser(
        prog="orbitscope",
        description="Local-unitary orbit dimensions for n-qubit pure states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze one state")
    p_analyze.add_argument("--state", required=True, help="state spec string")
    p_analyze.add_argument("--tol")
    p_analyze.add_argument("--exact", action="store_true", help="require the exact rank path")
    p_analyze.add_argument("--dump-matrix", default=None, metavar="PATH")
    p_analyze.set_defaults(func=cmd_analyze)

    p_sweep = sub.add_parser("sweep", help="sweep Haar-random states")
    p_sweep.add_argument("--n", type=int, required=True)
    p_sweep.add_argument("--samples", type=int, required=True)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--tol")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=sorted(_SUITES))
    p_verify.add_argument("--n-max", type=int, default=6)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run one command; a UsageError from any stage is reported here, as the
    one `error:` line on stderr, and exits 2.  `--help` exits 0 through
    argparse's SystemExit.  A reader that closes stdout early ends the
    command with exit 141 and nothing on stderr; no signal handler is
    installed, so an in-process caller keeps its own."""
    try:
        args = build_parser().parse_args(argv)
        if hasattr(args, "tol"):  # verify has no tolerance
            args.tol = default_tolerance() if args.tol is None else parse_tolerance(args.tol)
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
        return status
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # stdout's fd now writes to devnull, so the flush at shutdown cannot
        # raise again (Python docs, "Note on SIGPIPE")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
