"""One benchmark process: set up, run timed rounds, check every answer.

Run by run.py, never by hand.  The first line on stdout, written once
`orbitscope.cli` is imported and a tiny warm-up analysis is done, is the
set-up mark; the second gives the probe time right after it (probe.py).
With --setup-only the process exits there.  Otherwise it runs
rounds of the manifest's items until the next round would overrun
--seconds of timed work (at least MIN_ROUNDS rounds), checks every answer
after each round, outside the timed region, reports each round and waits
for a line on stdin before the next, and ends with one JSON line of raw
measurements.  With --trace 1 every odd round is traced, so traced and
untraced rounds interleave in one process.
"""

import argparse
import contextlib
import io
import os
import resource
import sys
import time

# Set-up, as every CLI call pays it: import the CLI, run one tiny analysis.
import orbitscope.cli as cli

with contextlib.redirect_stdout(io.StringIO()):
    _warmup_rc = cli.main(["analyze", "--state", "random:3:1"])
if _warmup_rc != 0:
    sys.exit(f"warm-up analysis failed with exit code {_warmup_rc}")
os.write(1, b'{"ready": true}\n')

import json  # noqa: E402

from probe import probe, probe_median  # noqa: E402

# The machine's speed right after set-up, for the parent to scale it by.
os.write(1, json.dumps({"probe_s": probe_median()}).encode() + b"\n")

import hashlib  # noqa: E402
import statistics  # noqa: E402

import numpy as np  # noqa: E402

import orbitscope  # noqa: E402
from orbitscope import inner_products, lu_adjust, z2  # noqa: E402

import checks  # noqa: E402
from spans import ITEM_SPAN, SpanRecorder, aggregate  # noqa: E402

MIN_ROUNDS = 2
PROBLEMS_KEPT = 20


class LineClock(io.TextIOBase):
    """A stdout stand-in that keeps the text and stamps each finished line."""

    def __init__(self):
        self.parts = []
        self.stamps = []

    def writable(self):
        return True

    def write(self, text):
        self.parts.append(text)
        if "\n" in text:
            now = time.perf_counter()
            self.stamps.extend([now] * text.count("\n"))
        return len(text)

    def text(self):
        return "".join(self.parts)


def call_cli(argv):
    """Run cli.main in-process; returns (exit code or exception, clock)."""
    clock, err = LineClock(), io.StringIO()
    with contextlib.redirect_stdout(clock), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an item that raises is a failed item
            rc = f"raised {type(exc).__name__}: {exc}"
    return rc, clock


def state(item):
    return orbitscope.PureState(n=item["n"], amps=np.array([complex(re, im) for re, im in item["amps"]]))


def prepare(item):
    """Untimed per-item preparation: whatever the timed call consumes."""
    kind = item["kind"]
    if kind == "analyze":
        return ["analyze", "--state", item["spec"]]
    if kind == "sweep":
        return ["sweep", "--n", str(item["n"]), "--samples", str(item["samples"]), "--seed", str(item["seed"])]
    if kind == "table":
        rows = []
        for tag in inner_products.ALL_KINDS:
            for k in range(1, item["n"] + 1):
                for j in [None] if tag in inner_products.SINGLE_KINDS else range(1, item["n"] + 1):
                    row = inner_products.InnerProductKind(tag=tag, k=k, j=j)
                    rows.append((row, inner_products.table_kind_as_labels(row)))
        return state(item), rows
    if kind == "lemma":
        xi = cli.engineered_sign_instance(np.random.default_rng(item["instance_seed"]), item["m"])
        return xi, checks.zero_patterns(xi)
    if kind == "adjust":
        return state(item)
    raise ValueError(f"unknown item kind {kind!r}")


def run_check_unit(item, prepared):
    """One timed paper-check unit through public layer functions.  Names are
    looked up on the modules at call time, so traced rounds see wrappers."""
    kind = item["kind"]
    if kind == "table":
        psi, rows = prepared
        return [
            (inner_products.table_inner_product(psi, row), inner_products.direct_inner_product(psi, *labels))
            for row, labels in rows
        ]
    if kind == "lemma":
        xi, _ = prepared
        return z2.find_parity_set(xi), z2.zero_rows(xi)
    psi, slots = prepared, item["slots"]
    _, psi_dep = lu_adjust.adjust_dependency(psi, slots, [(0.0, 1.0, 0.0)] * 2, [1.0, 1.0])
    main = inner_products.orthogonality_report(psi_dep, "main", slots=slots, xi=[1.0, 1.0])
    _, psi_two = lu_adjust.adjust_two_common(psi, *slots)
    two = inner_products.orthogonality_report(psi_two, "two-common", l=slots[0], lp=slots[1])
    span_dims = [lu_adjust.triple_span_dim(s, slots) for s in (psi, psi_dep, psi_two)]
    return {"psi_dep": psi_dep.amps, "psi_two": psi_two.amps, "main": main, "two": two, "span_dims": span_dims}


def check_unit(item, prepared, result):
    if isinstance(result, str):
        return [result]
    kind = item["kind"]
    if kind == "table":
        return checks.check_table(prepared[0].amps, result)
    if kind == "lemma":
        return checks.check_lemma(prepared[1], *result)
    return checks.check_adjust(prepared.amps, item["slots"], result)


class Round:
    def __init__(self, traced):
        self.traced = traced
        self.latencies_ms = []
        self.probe_ms = []  # per latency: mean of the probes before and after its item
        self.outcomes = []  # (item, raw result) for checking after timing
        self.output_bytes = 0
        self.wall_s = 0.0  # the whole round, probes included
        self.items_s = 0.0  # the items alone


def run_round(items, prepared, recorder, round_index):
    rnd = Round(traced=recorder is not None)
    start = time.perf_counter()
    before = probe()
    for index, (item, prep) in enumerate(zip(items, prepared)):
        if recorder is not None:
            recorder.item = f"{round_index}:{index}"
        measured = len(rnd.latencies_ms)
        t0 = time.perf_counter()
        if item["kind"] in ("analyze", "sweep"):
            call = recorder.span(ITEM_SPAN, call_cli) if recorder else call_cli
            rc, clock = call(prep)
            t1 = time.perf_counter()
            if item["kind"] == "sweep":
                marks = [t0] + clock.stamps[: item["samples"]]
                rnd.latencies_ms += [(b - a) * 1e3 for a, b in zip(marks, marks[1:])]
            else:
                rnd.latencies_ms.append((t1 - t0) * 1e3)
            text = clock.text()
            rnd.output_bytes += len(text.encode())
            rnd.outcomes.append((item, (rc, text)))
        else:
            unit = recorder.span(ITEM_SPAN, run_check_unit) if recorder else run_check_unit
            try:
                result = unit(item, prep)
            except Exception as exc:  # an item that raises is a failed item
                result = f"raised {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            rnd.latencies_ms.append((t1 - t0) * 1e3)
            rnd.outcomes.append((item, result))
        rnd.items_s += t1 - t0
        after = probe()
        rnd.probe_ms += [(before + after) / 2 * 1e3] * (len(rnd.latencies_ms) - measured)
        before = after
    rnd.wall_s = time.perf_counter() - start
    return rnd


def check_round(rnd, prepared):
    """Problems per item of the round (per sample, for a sweep), and the
    per-sample seeds a sweep reported."""
    problems, seeds = [], []
    for (item, result), prep in zip(rnd.outcomes, prepared):
        if item["kind"] == "analyze":
            problems.append(checks.check_analyze(item, *result))
        elif item["kind"] == "sweep":
            per_sample, seeds = checks.check_sweep(item, *result)
            problems += per_sample
        else:
            problems.append(check_unit(item, prep, result))
    return problems, seeds


def inputs_digest(manifest):
    """sha256 of the manifest and of every state file it names."""
    digest = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode())
    for item in manifest["items"]:
        if "state_file" in item:
            with open(item["state_file"], "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment():
    import platform

    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--manifest")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int)
    parser.add_argument("--spans-out")
    args = parser.parse_args()
    if args.setup_only:
        return
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    items = manifest["items"]
    prepared = [prepare(item) for item in items]
    recorder = SpanRecorder() if args.trace else None

    rounds, timed, attempted, failed, kept, seeds = [], 0.0, 0, 0, [], []
    while True:
        traced = recorder is not None and len(rounds) % 2 == 1
        if traced:
            recorder.install()
        try:
            rnd = run_round(items, prepared, recorder if traced else None, len(rounds))
        finally:
            if traced:
                recorder.uninstall()
        problems, seeds = check_round(rnd, prepared)
        attempted += len(problems)
        failed += sum(1 for p in problems if p)
        kept += [p for item_problems in problems for p in item_problems][: PROBLEMS_KEPT - len(kept)]
        rnd.outcomes = None
        rounds.append(rnd)
        timed += rnd.wall_s
        typical = statistics.median(r.wall_s for r in rounds)
        more = len(rounds) < MIN_ROUNDS or timed + typical <= args.seconds
        # Between rounds the parent may time a set-up-only process; wait
        # for its go-ahead so the two never share the CPU.
        os.write(1, json.dumps({"round": len(rounds), "more": more}).encode() + b"\n")
        if not more:
            break
        sys.stdin.readline()

    result = {
        "items_per_round": len(rounds[0].latencies_ms),
        "rounds": [
            {"traced": r.traced, "wall_s": r.wall_s, "latencies_ms": r.latencies_ms, "probe_ms": r.probe_ms,
             "items_s": r.items_s, "output_bytes": r.output_bytes}
            for r in rounds
        ],
        "attempted": attempted,
        "failed": failed,
        "problems": kept,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "inputs_sha256": inputs_digest(manifest),
        "sweep_seeds": seeds,
        "environment": environment(),
    }
    if recorder is not None:
        recorder.write(args.spans_out)
        result["trace"] = {
            "layers": aggregate(recorder.spans),
            "matrix_entries": recorder.matrix_entries,
            "missing": sorted(recorder.missing),
        }
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
