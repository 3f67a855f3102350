"""Self-tests of the benchmark's own arithmetic and checkers.

Run from the repository root:  python3 -m pytest bench -q
"""

import io
import json
import os
import sys
import types
from contextlib import redirect_stdout

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
from spans import SPAN_TARGETS, SpanRecorder, aggregate, self_times  # noqa: E402


# --- self time ---------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1, "0"),
        ("a", 1.0, 4.0, 0, "0"),
        ("leaf", 2.0, 3.0, 1, "0"),
        ("b", 5.0, 9.0, 0, "0"),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    totals = aggregate(spans + [("b", 11.0, 12.5, -1, "1")])
    assert totals["b"] == {"self_s": 5.5, "calls": 2}


def test_self_time_counts_overlapping_children_once():
    spans = [("root", 0.0, 10.0, -1, None), ("a", 1.0, 5.0, 0, None), ("b", 3.0, 7.0, 0, None)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_recorded_self_times_partition_the_root():
    recorder = SpanRecorder()

    def leaf():
        return sum(range(1000))

    def middle():
        wrapped_leaf()
        return wrapped_leaf()

    wrapped_leaf = recorder.span("leaf", leaf)
    root = recorder.span("root", recorder.span("middle", middle))
    root()
    spans = recorder.spans
    assert [s[0] for s in spans] == ["root", "middle", "leaf", "leaf"]
    assert [s[3] for s in spans] == [-1, 0, 1, 1]
    duration = spans[0][2] - spans[0][1]
    assert sum(self_times(spans)) == pytest.approx(duration, rel=1e-9)


def test_missing_function_is_reported_not_zero(monkeypatch):
    package = types.ModuleType("fakepkg")
    cli = types.ModuleType("fakepkg.cli")

    def main():
        return 0

    cli.main = main
    package.main = main  # re-exported, as the real package does
    monkeypatch.setitem(sys.modules, "fakepkg", package)
    monkeypatch.setitem(sys.modules, "fakepkg.cli", cli)
    recorder = SpanRecorder(package="fakepkg")
    recorder.install()
    assert cli.main is not main and package.main is cli.main
    package.main()
    recorder.uninstall()
    assert cli.main is main and package.main is main
    assert "cli.main" not in recorder.missing
    assert recorder.missing == set(SPAN_TARGETS) - {"cli.main"}

    result = {
        "items_per_round": 1,
        "rounds": [{"traced": False, "items_s": 1.0, "latencies_ms": [1.0], "probe_ms": [1.0], "output_bytes": 0},
                   {"traced": True, "items_s": 1.0, "latencies_ms": [1.0], "probe_ms": [1.0], "output_bytes": 0}],
        "trace": {"layers": aggregate(recorder.spans), "matrix_entries": 0, "missing": sorted(recorder.missing)},
    }
    metrics = run.per_layer(result)
    assert metrics["cli.main.calls"][0] == 1
    assert metrics["cli.dumps.self_s"][0] is None
    assert metrics["orbit_matrix.factorizations_per_item"][0] is None


# --- tail percentile ---------------------------------------------------------

def test_tail_leaves_ten_items_beyond():
    values = [float(v) for v in range(100, 0, -1)]
    value, percentile = run.tail(values)
    assert value == 90.0 and percentile == 90.0
    assert sum(v > value for v in values) == 10


def test_tail_needs_more_than_ten_items():
    assert run.tail([float(v) for v in range(11)]) == (0.0, 100.0 / 11)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_per_item_median_follows_item_positions():
    assert run.per_item_median([[2, 10], [3, 30], [1, 20]]) == [2, 20]


def test_latencies_are_scaled_by_their_own_probes():
    round_ = {"latencies_ms": [4.0, 4.0, 9.0], "probe_ms": [2.0, 1.0, 3.0]}
    assert run.in_reference_ms(round_) == pytest.approx([2.0, 4.0, 3.0])
    assert probe.to_reference(0.5, probe.REFERENCE_S * 2) == pytest.approx(0.25)


# --- checkers reject wrong answers --------------------------------------------

def cli_output(argv):
    from orbitscope import cli

    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_analyze_checker_accepts_right_and_rejects_wrong_answers():
    item = inputs.exact_families(0, "")["items"][1]  # singlet*2
    rc, text = cli_output(["analyze", "--state", item["spec"]])
    assert checks.check_analyze(item, rc, text) == []

    report = json.loads(text)
    wrong_dim = dict(report, orbit_dimension=report["orbit_dimension"] + 1)
    assert checks.check_analyze(item, rc, json.dumps(wrong_dim))

    bad_vector = json.loads(text)
    bad_vector["isotropy_basis"][0]["theta"] += 0.5
    assert any("residual" in p for p in checks.check_analyze(item, rc, json.dumps(bad_vector)))

    repeated = json.loads(text)
    repeated["isotropy_basis"][1] = repeated["isotropy_basis"][0]
    assert "isotropy vectors are linearly dependent" in checks.check_analyze(item, rc, json.dumps(repeated))

    assert checks.check_analyze(item, 2, text) == ["exit code 2"]


def test_sweep_checker_rejects_a_wrong_sample_and_a_wrong_aggregate():
    item = {"kind": "sweep", "n": 3, "samples": 4, "seed": 5}
    rc, text = cli_output(["sweep", "--n", "3", "--samples", "4", "--seed", "5"])
    per_sample, seeds = checks.check_sweep(item, rc, text)
    assert per_sample == [[]] * 4 and seeds == [5 ^ i for i in range(4)]

    lines = text.splitlines()
    record = json.loads(lines[2])
    lines[2] = json.dumps(dict(record, orbit_dimension=record["orbit_dimension"] - 1))
    per_sample, _ = checks.check_sweep(item, rc, "\n".join(lines))
    assert [bool(p) for p in per_sample] == [False, False, True, False]

    lines = text.splitlines()[:-1] + [json.dumps({"aggregate": {"bound_violations": 1}})]
    per_sample, _ = checks.check_sweep(item, rc, "\n".join(lines))
    assert all(per_sample)


def test_table_checker_rejects_a_wrong_value():
    amps = np.array([1.0, 2.0j, -1.0, 0.5])
    right = [(1.0 + 2.0j, 1.0 + 2.0j), (0.5, 0.5)]
    assert checks.check_table(amps, right) == []
    assert checks.check_table(amps, [(1.0 + 2.0j, 1.0 + 2.0j), (0.5 + 1e-9, 0.5)])


def test_lemma_checker_rejects_wrong_rows_and_witnesses():
    truth = checks.zero_patterns([1, 2, 3])
    rows = [(0, 0, 1), (1, 1, 0)]  # 1 + 2 - 3 = 0 and -1 - 2 + 3 = 0
    assert truth == set(rows)
    good = types.SimpleNamespace(parity_set=frozenset({1, 2}), parity=0)
    assert checks.check_lemma(truth, good, rows) == []
    assert checks.check_lemma(truth, good, rows[:1])
    odd = types.SimpleNamespace(parity_set=frozenset({3}), parity=1)
    assert any("odd" in p for p in checks.check_lemma(truth, odd, rows))
    flipped = types.SimpleNamespace(parity_set=frozenset({1, 2}), parity=1)
    assert any("parities" in p for p in checks.check_lemma(truth, flipped, rows))


def test_adjust_checker_rejects_an_unadjusted_state():
    from orbitscope import adjust_dependency, adjust_two_common, orthogonality_report, PureState

    amps = inputs.singlet_product(1)
    psi = PureState(n=2, amps=amps)
    _, dep = adjust_dependency(psi, [1, 2], [(0.0, 1.0, 0.0)] * 2, [1.0, 1.0])
    _, two = adjust_two_common(psi, 1, 2)
    result = {
        "psi_dep": dep.amps,
        "psi_two": two.amps,
        "main": orthogonality_report(dep, "main", slots=[1, 2], xi=[1.0, 1.0]),
        "two": orthogonality_report(two, "two-common", l=1, lp=2),
        "span_dims": [3, 3, 3],
    }
    assert checks.check_adjust(amps, [1, 2], result) == []
    # A rotation of one slot only breaks the A-column dependency but keeps the norm.
    wrong = inputs.apply_local(amps, {0: inputs.random_su2(np.random.default_rng(0))})
    problems = checks.check_adjust(amps, [1, 2], dict(result, psi_dep=wrong))
    assert len(problems) == 1 and "dependency residual" in problems[0]
    assert checks.check_adjust(amps, [1, 2], dict(result, span_dims=[3, 4, 3]))
