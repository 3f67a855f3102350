#!/usr/bin/env python3
"""orbitscope benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload exact_families --seed 1 --seconds 20 --trace 0

Workloads: exact_families, float_analyze, float_sweep, paper_checks (see
README.md).  Inputs are generated from --seed before anything is timed.
Each run starts fresh Python processes with BLAS/OpenMP pinned to one
thread and the program taken from ./src.  With --trace 0 it reports the
end-to-end metrics, every time in reference seconds (probe.py); with
--trace 1 the per-layer metrics from a run in which traced and untraced
rounds interleave.  Every answer is checked; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

# Pinned before numpy loads, here and in every child process: with the
# default two OpenBLAS threads on a 2-core machine the QR at n = 8 turned
# bimodal (0.2 ms single-threaded, 17-69 ms in some runs).
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(PINNED_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join("bench", "out")
SETUP_SAMPLES = 8  # set-up times per untraced run, the measured process's own included
DEADLINE_S = 170.0  # the whole run, set-up included, ends before this
TAIL_BEYOND = 10  # the tail percentile keeps at least this many items beyond it

import inputs  # noqa: E402
from probe import to_reference  # noqa: E402
from spans import FACTORIZATION_SPANS, ITEM_SPAN, SPAN_TARGETS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def per_item_median(rounds: list[list[float]]) -> list[float]:
    """Each item's latency: its median over the rounds (every round runs
    the same items in the same order)."""
    return [statistics.median(values) for values in zip(*rounds)]


def in_reference_ms(round_: dict) -> list[float]:
    """A round's item latencies in reference milliseconds, each scaled by
    the probes timed around its item (probe.py)."""
    return [1e3 * to_reference(ms, probe_ms) for ms, probe_ms in zip(round_["latencies_ms"], round_["probe_ms"])]


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that leaves at least
    `beyond` values above it."""
    if len(values) <= beyond:
        raise ValueError(f"need more than {beyond} values, got {len(values)}")
    ordered = sorted(values)
    rank = len(ordered) - beyond - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


class Child:
    """A benchmark child process; reads its stdout without blocking past
    the run's deadline, and is always reaped."""

    def __init__(self, args: list[str], deadline: float):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")]))
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        )
        self.buffer = b""

    def readline(self) -> dict:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buffer:
            remaining = self.deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError("child process ran past the deadline")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise BenchError(f"child process exited early (code {self.proc.wait()})")
                self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line)

    def wait_ready(self) -> float:
        """Reference seconds from process start to the set-up mark."""
        if self.readline() != {"ready": True}:
            raise BenchError("child process sent no set-up mark")
        seconds = time.perf_counter() - self.started
        return to_reference(seconds, self.readline()["probe_s"])

    def go(self) -> None:
        self.proc.stdin.write(b"go\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        self.proc.stdin.close()
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=max(0.1, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                self.proc.kill()
        code = self.proc.wait()
        self.proc.stdout.close()
        if code != 0:
            raise BenchError(f"child process exited with code {code}")


def time_setup(deadline: float) -> float:
    child = Child(["--setup-only"], deadline)
    try:
        return child.wait_ready()
    finally:
        child.close()


def run_workload(args, manifest_path: str, spans_out: str, deadline: float) -> tuple[list[float], dict]:
    """Run the measured child.  On an untraced run, set-up-only children are
    timed between its rounds, spread over the run so that one slow spell on
    the machine cannot move every sample; the measured child's own set-up is
    one more sample.  Returns (set-up samples, raw result)."""
    setups = []
    spacing = args.seconds / SETUP_SAMPLES
    child = Child(["--manifest", manifest_path, "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--spans-out", spans_out], deadline)
    try:
        setups.append(child.wait_ready())
        last = time.monotonic()
        while "round" in (message := child.readline()):
            if message["more"]:
                if not args.trace and len(setups) < SETUP_SAMPLES and time.monotonic() - last >= spacing:
                    setups.append(time_setup(deadline))
                    last = time.monotonic()
                child.go()
    finally:
        child.close()
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(time_setup(deadline))
    return setups, message


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, str]:
    """The end-to-end metrics, and a note on the tail percentile used."""
    rounds = [r for r in result["rounds"] if not r["traced"]]
    latencies = per_item_median([in_reference_ms(r) for r in rounds])
    wall = sum(latencies) / 1e3  # one pass over the items
    tail_ms, percentile = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "items_per_s": len(latencies) / wall,
        "item_p50_ms": statistics.median(latencies),
        "item_tail_ms": tail_ms,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    note = f"item_tail_ms is p{percentile:.1f} of {len(latencies)} items, each the median of {len(rounds)} rounds"
    return {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}, note


def per_layer(result: dict) -> dict:
    """Per traced round: self seconds and calls of each span, derived counts,
    and the tracing overhead against the interleaved untraced rounds."""
    traced = [r for r in result["rounds"] if r["traced"]]
    untraced = [r for r in result["rounds"] if not r["traced"]]
    trace = result["trace"]
    layers, missing = trace["layers"], set(trace["missing"])
    count = len(traced)
    items = count * result["items_per_round"]
    metrics = {}
    for name in SPAN_TARGETS:
        entry = layers.get(name, {"self_s": 0.0, "calls": 0})
        gone = name in missing
        metrics[f"{name}.self_s"] = (None if gone else entry["self_s"] / count, "s")
        metrics[f"{name}.calls"] = (None if gone else entry["calls"] / count, "count")
    gone = missing.intersection(FACTORIZATION_SPANS)
    factorizations = sum(layers.get(name, {"calls": 0})["calls"] for name in FACTORIZATION_SPANS)
    metrics["orbit_matrix.factorizations_per_item"] = (None if gone else factorizations / items, "count")
    entries_gone = {"orbit_matrix.build_matrix", "orbit_matrix.matrix_entries"} & missing
    metrics["orbit_matrix.matrix_entries"] = (None if entries_gone else trace["matrix_entries"] / items, "count")
    metrics["cli.output_bytes"] = (statistics.median(r["output_bytes"] for r in traced), "bytes")
    traced_items_s = sum(r["items_s"] for r in traced)
    metrics[f"{ITEM_SPAN}.self_s"] = (layers.get(ITEM_SPAN, {"self_s": 0.0})["self_s"] / count, "s")
    accounted = sum(entry["self_s"] for entry in layers.values())
    metrics["trace.accounted_frac"] = (accounted / traced_items_s, "frac")
    # Both sides in reference time, so that the machine's drift between
    # rounds does not read as overhead.
    overhead = (statistics.median(sum(in_reference_ms(r)) for r in traced)
                / statistics.median(sum(in_reference_ms(r)) for r in untraced) - 1)
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="orbitscope benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join("src", "orbitscope", "cli.py")):
        print("error: run from the root of an orbitscope checkout (no src/orbitscope here)", file=sys.stderr)
        return 2

    run_dir = os.path.join(OUT_DIR, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        manifest = inputs.GENERATORS[args.workload](args.seed, run_dir)
        manifest_path = os.path.join(run_dir, "manifest.json")
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        spans_out = os.path.join(OUT_DIR, f"spans-{args.workload}.json")
        setups, result = run_workload(args, manifest_path, spans_out, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics, note = (per_layer(result), None) if args.trace else end_to_end(result, setups)
    fingerprint = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": result["inputs_sha256"],
        "sweep_seeds": result["sweep_seeds"],
        "environment": result["environment"],
        "rounds": len(result["rounds"]),
        "items_per_round": result["items_per_round"],
        "probe_ms_median": statistics.median(p for r in result["rounds"] for p in r["probe_ms"]),
    }
    print("fingerprint " + json.dumps(fingerprint))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {'missing' if value is None else f'{value:.6g}'} {unit}")
    if note:
        print(note)
    print(f"fail_frac = {result['failed'] / result['attempted']:.6g} ({result['failed']}/{result['attempted']})")
    for problem in result["problems"]:
        print(f"wrong answer: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
