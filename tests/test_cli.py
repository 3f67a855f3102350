import json
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from orbitscope import cli, z2
from orbitscope.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    SpecParseError,
    default_tolerance,
    dumps,
    main,
    parse_state_spec,
)
from orbitscope.lie_action import apply_group, random_local_unitary
from orbitscope.orbit_matrix import factorize, isotropy_basis
from orbitscope.states import (
    MultiIndex,
    PureState,
    make_basis,
    make_cat,
    make_singlet_product,
    make_singlet_product_plus_zero,
    sample_haar_state,
    state_to_json,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv) -> str:
    """Run a command that must be refused: exit 2, nothing on stdout and one
    `error:` line on stderr, which is returned."""
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    return err


def builtin_json(value) -> bool:
    """True iff value is made of the builtin types `json` writes as they are."""
    if type(value) is dict:
        return all(type(k) is str and builtin_json(v) for k, v in value.items())
    if type(value) is list:
        return all(map(builtin_json, value))
    return type(value) in (str, int, float, bool, type(None))


class TestParseStateSpec:
    def test_families(self):
        assert parse_state_spec("singlet*2").n == 4
        assert parse_state_spec("singlet*1+0").n == 3
        assert parse_state_spec("cat:3").n == 3
        psi = parse_state_spec("basis:010")
        assert psi.n == 3 and psi.amps[0b010] == 1
        assert parse_state_spec("random:4:7").n == 4

    def test_random_matches_sampler(self):
        assert np.array_equal(
            parse_state_spec("random:3:99").amps, sample_haar_state(3, 99).amps
        )

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state_to_json(make_singlet_product(1))))
        psi = parse_state_spec(f"file:{path}")
        assert psi.is_exact and psi.n == 2

    @pytest.mark.parametrize(
        "spec",
        ["bogus", "singlet*", "cat:x", "basis:012", "random:3", "file:/no/such/file"],
    )
    def test_rejects(self, spec):
        with pytest.raises(SpecParseError):
            parse_state_spec(spec)


@pytest.fixture
def no_state_builders(monkeypatch):
    """Fail the test if a spec gets as far as building its state."""
    def refuse(*args):
        pytest.fail("a state was built for a spec that should be refused")

    for name in ("make_basis", "make_cat", "make_singlet_product", "make_singlet_product_plus_zero",
                 "sample_haar_state"):
        monkeypatch.setattr(cli, name, refuse)


class TestCapacity:
    @pytest.mark.parametrize("spec", ["random:40:1", "cat:40", "singlet*20", "singlet*19+0", "basis:" + "01" * 20])
    def test_refused_before_allocation(self, capsys, no_state_builders, spec):
        with pytest.raises(SpecParseError, match="exceeds capacity"):
            parse_state_spec(spec)
        usage_error(capsys, "analyze", "--state", spec)

    def test_refusal_follows_physical_memory(self, capsys, monkeypatch):
        assert parse_state_spec("random:12:1").n == 12
        monkeypatch.setattr(cli, "physical_memory", lambda: 1 << 20)
        with pytest.raises(SpecParseError, match="exceeds capacity"):
            parse_state_spec("random:12:1")
        err = usage_error(capsys, "sweep", "--n", "12", "--samples", "1")
        assert err.startswith("error: n=12 exceeds capacity")

    def test_dump_needs_only_the_row_blocks(self, capsys, monkeypatch, tmp_path):
        # 4 MiB holds the state and row blocks at n = 12, not all of M: the
        # dump streams M one row block at a time
        monkeypatch.setattr(cli, "physical_memory", lambda: 4 << 20)
        path = tmp_path / "m.csv"
        code, out, err = run_cli(capsys, "analyze", "--state", "random:12:1", "--dump-matrix", str(path))
        assert code == EXIT_OK and err == ""
        assert json.loads(out)["rank"] == 37
        assert len(path.read_text().splitlines()) == 8193

    @pytest.mark.parametrize("suite", ["theorem", "triples", "table1"])
    def test_verify_sizes_refused_before_allocation(self, capsys, monkeypatch, no_state_builders, suite):
        monkeypatch.setattr(cli, "physical_memory", lambda: 1 << 20)
        err = usage_error(capsys, "verify", "--suite", suite, "--n-max", "12")
        assert err.startswith("error: n=12 exceeds capacity")

    def test_table1_counts_the_oracle_memo(self, capsys, monkeypatch, no_state_builders):
        # 4 MiB holds the state and row blocks at n = 12, so the theorem and
        # triples suites go ahead, but not table1's memo of 48 n 2^n bytes
        # (2.25 MiB more): table1 exits 2 before any state is built
        monkeypatch.setattr(cli, "physical_memory", lambda: 4 << 20)
        cli.check_capacity(12)
        with pytest.raises(cli.UsageError, match="exceeds capacity"):
            cli.check_capacity(12, cli.STATE_BYTES_PER_AMP + 48 * 12)
        err = usage_error(capsys, "verify", "--suite", "table1", "--n-max", "12")
        assert err.startswith("error: n=12 exceeds capacity")

    def test_table1_counts_the_signed_and_flipped_amplitudes(self, capsys, monkeypatch, no_state_builders):
        # per amplitude: the state's 80 bytes and 96 n of memo (48 n triples
        # and 48 n signed and flipped amplitudes); on 8 GiB (80 + 96 * 21)
        # 2^21 fits and (80 + 96 * 22) 2^22 does not, where the triples
        # alone, (80 + 48 * 22) 2^22, would
        assert cli.MEMO_BYTES_PER_AMP_QUBIT == 48 + 48
        monkeypatch.setattr(cli, "physical_memory", lambda: 8 << 30)
        cli.check_capacity(22, cli.STATE_BYTES_PER_AMP + 48 * 22)
        ran = []
        monkeypatch.setitem(cli._SUITES, "table1", lambda n_max: ran.append(n_max) or [("stub", True)])
        code, out, _ = run_cli(capsys, "verify", "--suite", "table1", "--n-max", "21")
        assert code == EXIT_OK and out == "pass  stub\n" and ran == [21]
        err = usage_error(capsys, "verify", "--suite", "table1", "--n-max", "22")
        assert err.startswith("error: n=22 exceeds capacity") and ran == [21]

    def test_table1_n_max_40_refused_before_allocation(self, capsys, monkeypatch, no_state_builders):
        # table1 runs to --n-max, so a size past memory is refused up front
        monkeypatch.setattr(cli, "physical_memory", lambda: 8 << 30)
        err = usage_error(capsys, "verify", "--suite", "table1", "--n-max", "40")
        assert err.startswith("error: n=40 exceeds capacity")

    @pytest.mark.parametrize("suite, n_max", [("theorem", "0"), ("theorem", "1"), ("triples", "0"),
                                              ("table1", "-3")])
    def test_verify_without_a_check_refused(self, capsys, no_state_builders, suite, n_max):
        err = usage_error(capsys, "verify", "--suite", suite, "--n-max", n_max)
        assert err == f"error: suite {suite!r} runs no check at --n-max {n_max}\n"

    def test_huge_qubit_counts_refused(self, no_state_builders):
        with pytest.raises(SpecParseError, match="exceeds capacity"):
            parse_state_spec("random:" + "9" * 40 + ":1")


class TestDumps:
    def test_float_precision(self):
        assert dumps(1 / 3) == "0.3333333333333333"
        assert json.loads(dumps(1 / 3)) == 1 / 3

    def test_scalars(self):
        assert dumps(True) == "true"
        assert dumps(None) == "null"
        assert dumps(5) == "5"
        assert dumps("a\"b") == '"a\\"b"'

    def test_nested(self):
        doc = {"x": [1, 0.5, {"y": False}]}
        assert json.loads(dumps(doc)) == doc

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            dumps(object())


class TestDefaultTolerance:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("ORBITSCOPE_TOL", "1e-8")
        assert default_tolerance() == 1e-8

    def test_default(self, monkeypatch):
        monkeypatch.delenv("ORBITSCOPE_TOL", raising=False)
        assert default_tolerance() == 1e-10

    @pytest.mark.parametrize("command", [
        ("analyze", "--state", "random:3:1"),
        ("sweep", "--n", "2", "--samples", "1"),
        ("verify", "--suite", "lemma"),
    ])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "1", "abc"])
    def test_unusable_tolerance_rejected(self, capsys, command, tol):
        err = usage_error(capsys, *command, "--tol", tol)
        if command[0] == "verify":  # no suite reads a tolerance, so verify takes none
            assert err.startswith("error: unrecognized arguments: --tol")
        else:
            assert err.startswith("error: --tol")

    @pytest.mark.parametrize("tol", ["abc", "nan", "1"])
    def test_unusable_env_tolerance_rejected(self, capsys, monkeypatch, tol):
        monkeypatch.setenv("ORBITSCOPE_TOL", tol)
        code, out, err = run_cli(capsys, "analyze", "--state", "random:3:1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ORBITSCOPE_TOL") and err.count("\n") == 1

    def test_zero_and_small_tolerances_accepted(self, capsys, monkeypatch):
        monkeypatch.setenv("ORBITSCOPE_TOL", "1e-8")
        assert json.loads(run_cli(capsys, "analyze", "--state", "random:3:1")[1])["tolerance"] == 1e-8
        out = run_cli(capsys, "analyze", "--state", "random:3:1", "--tol", "0")[1]
        assert json.loads(out)["tolerance"] == 0.0


class TestAnalyze:
    def test_singlet_exact(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--state", "singlet*1")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["orbit_dimension"] == 3
        assert doc["rank"] == 4
        assert doc["achieves_min"] is True
        assert doc["rank_path"] == "exact"
        assert doc["tolerance"] is None
        assert doc["isotropy_dimension"] == 3
        assert len(doc["isotropy_basis"]) == 3

    def test_random_float_path(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--state", "random:3:1")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["orbit_dimension"] == 9
        assert doc["rank_path"] == "float"
        assert doc["tolerance"] == 1e-10

    def test_streamed_beyond_the_whole_matrix_sizes(self, capsys):
        # M would be 51 MB at n = 16; the analysis holds row blocks only
        code, out, _ = run_cli(capsys, "analyze", "--state", "random:16:1")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["orbit_dimension"] == 48
        assert doc["matrix_shape"] == [2**17, 49]

    def test_exact_flag_rejects_float_state(self, capsys):
        err = usage_error(capsys, "analyze", "--state", "random:2:1", "--exact")
        assert "exact" in err

    @pytest.mark.parametrize("where", ["missing/m.csv", "."])
    def test_unwritable_dump_path_refused(self, capsys, monkeypatch, tmp_path, where):
        # a file in a missing directory, and a directory given as the path;
        # the path is refused before the analysis runs
        def analysis(*args):
            pytest.fail("the state was analysed before its dump path was refused")

        monkeypatch.setattr(cli, "factorize", analysis)
        path = tmp_path / where
        err = usage_error(capsys, "analyze", "--state", "cat:3", "--dump-matrix", str(path))
        assert err.startswith(f"error: cannot write --dump-matrix {str(path)!r}")

    def test_internal_value_error_is_not_a_usage_error(self, capsys, monkeypatch):
        # only input errors exit 2; a fault inside the analysis propagates
        def broken(*args):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "factorize", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["analyze", "--state", "cat:3"])
        assert capsys.readouterr().err == ""

    def test_dump_matrix(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        code, _, _ = run_cli(
            capsys, "analyze", "--state", "cat:2", "--dump-matrix", str(path)
        )
        assert code == EXIT_OK
        assert path.read_text().startswith("row,t1,r1,s1,t2,r2,s2,theta")

    def test_dump_matrix_keeps_rationals(self, capsys, tmp_path):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"n": 1, "amplitudes_exact": [["1/2", "0"], ["-1/3", "2"]]}))
        path = tmp_path / "m.csv"
        code, _, _ = run_cli(
            capsys, "analyze", "--state", f"file:{state}", "--dump-matrix", str(path)
        )
        assert code == EXIT_OK
        lines = path.read_text().splitlines()
        assert lines[1] == "0:re,0,-1/3,-2,0"
        assert lines[2] == "0:im,1/2,2,-1/3,-1/2"

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_amplitudes_rejected(self, capsys, tmp_path, value):
        path = tmp_path / "state.json"
        path.write_text(f'{{"n": 1, "amplitudes": [[{value}, 0], [1, 0]]}}')
        code, out, err = run_cli(capsys, "analyze", "--state", f"file:{path}")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "finite" in err

    def test_overflowing_squared_norm_rejected(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text('{"n": 1, "amplitudes": [[1e154, 0], [1e154, 0]]}')
        err = usage_error(capsys, "analyze", "--state", f"file:{path}")
        assert "squared norm must be finite" in err

    def test_tiny_amplitudes_analysed(self, capsys, tmp_path):
        # |psi|^2 underflows, yet the rank rule is relative: cat:2's dimension
        path = tmp_path / "state.json"
        path.write_text('{"n": 2, "amplitudes": [[1e-200, 0], [0, 0], [0, 0], [1e-200, 0]]}')
        code, out, err = run_cli(capsys, "analyze", "--state", f"file:{path}")
        assert code == EXIT_OK and err == ""
        assert json.loads(out)["orbit_dimension"] == 3

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_subnormal_scales_analysed(self, capsys, tmp_path, n):
        # |psi|^2 lands near the bottom of the subnormal range; the rank is
        # the unscaled state's
        rank = json.loads(run_cli(capsys, "analyze", "--state", f"random:{n}:5")[1])["rank"]
        for scale in (1e-158, 1e-159, 1e-160):
            path = tmp_path / "state.json"
            amps = sample_haar_state(n, 5).amps * scale
            path.write_text(json.dumps({"n": n, "amplitudes": [[a.real, a.imag] for a in amps.tolist()]}))
            code, out, err = run_cli(capsys, "analyze", "--state", f"file:{path}")
            assert code == EXIT_OK and err == ""
            assert json.loads(out)["rank"] == rank, scale

    @pytest.mark.parametrize(
        "text",
        [
            '[1, 2]',
            '{"n": 1, "amplitudes": 5}',
            '{"n": 1, "amplitudes": [[1, 0], null]}',
            '{"n": 1, "amplitudes": [["a", 0], [1, 0]]}',
            '{"n": 1, "amplitudes": [[1, 0], [1%s, 0]]}' % ("0" * 400),
            '{"n": 1, "amplitudes_exact": [["1", "0"], [1, "0"]]}',
            '{"n": 1, "amplitudes_exact": [["1", "0"], ["1/0", "0"]]}',
            '{"n": 1, "amplitudes_exact": [["1", "0"], [["1"], "0"]]}',
            # 2**n is never formed: the list's length is checked first
            '{"n": 1099511627776, "amplitudes": [[1, 0], [0, 0]]}',
            # json.load gives up with a RecursionError, not a ValueError
            pytest.param("[" * 100000 + "]" * 100000, id="deeply-nested"),
        ],
    )
    def test_malformed_state_file_rejected(self, capsys, tmp_path, text):
        path = tmp_path / "state.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "analyze", "--state", f"file:{path}")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_stdout_is_the_report_in_json(self, capsys, tmp_path):
        # Python's `json` spelling of the dict `analyze_state` returns
        rotated = apply_group(random_local_unitary(4, np.random.default_rng(3)), make_singlet_product(2))
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state_to_json(rotated)))
        for spec in ("singlet*1", f"file:{path}"):
            report = cli.analyze_state(parse_state_spec(spec), default_tolerance())
            code, out, _ = run_cli(capsys, "analyze", "--state", spec)
            assert code == EXIT_OK and out == json.dumps(report) + "\n"
            assert builtin_json(report)
            basis = json.loads(out)["isotropy_basis"]
            values = [c for vec in basis for triple in vec["coords"] for c in triple] + [vec["theta"] for vec in basis]
            assert values and all(type(v) is float for v in values)
        # singlet*1's kernel has integral coordinates, and they stay floats
        assert '"coords": [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], "theta": 0.0}' in run_cli(
            capsys, "analyze", "--state", "singlet*1")[1]

    def test_bad_spec(self, capsys):
        err = usage_error(capsys, "analyze", "--state", "nope:1")
        assert "unrecognized state spec" in err

    @pytest.mark.parametrize("argv", [
        (),
        ("analyze",),
        ("analyze", "--state", "cat:3", "--bogus"),
        ("sweep", "--n", "x", "--samples", "1"),
        ("frobnicate",),
    ])
    def test_argparse_refusals_are_one_line(self, capsys, argv):
        usage_error(capsys, *argv)

    def test_help_exits_0(self):
        for argv in (["--help"], ["analyze", "--help"]):
            proc = subprocess.run([sys.executable, "-m", "orbitscope.cli", *argv], capture_output=True, text=True)
            assert proc.returncode == 0 and proc.stdout.startswith("usage: orbitscope") and proc.stderr == ""


def report_values(report) -> list:
    """A report's isotropy basis, flattened in kernel-vector order."""
    return [[c for triple in vec["coords"] for c in triple] + [vec["theta"]] for vec in report["isotropy_basis"]]


def big_numerator_state() -> PureState:
    """A 2-qubit exact state with ~80-bit numerators over 27-bit
    denominators, whose one kernel vector has numerators far above 2**53."""
    pairs = [("-1763940113627469219751/44476601", "0"), ("0", "3394232932237133470361/3469391"),
             ("-9512826545413103049591/96359081", "-5612541209131806812321/85201127"),
             ("1264101347125567003391/49183399", "0")]
    return PureState.from_exact([(Fraction(re), Fraction(im)) for re, im in pairs])


class TestReportFloats:
    def exact_states(self):
        states = [make_singlet_product(k) for k in range(1, 6)]
        states += [make_singlet_product_plus_zero(k) for k in range(1, 6)]
        states += [make_cat(n) for n in range(3, 9)]
        states += [make_basis(MultiIndex(tuple(int(b) for b in ("01" * n)[:n]))) for n in range(2, 9)]
        return states + [big_numerator_state()]

    def test_exact_coordinates_are_float_of_the_fractions(self):
        for psi in self.exact_states():
            expected = [
                [float(c) for co in elem.x.coords for c in (co.t, co.r, co.s)] + [float(elem.theta)]
                for elem in isotropy_basis(psi)
            ]
            got = report_values(cli.analyze_state(psi, default_tolerance()))
            assert got == expected and all(type(v) is float for vec in got for v in vec)
        kernel = factorize(big_numerator_state())[1]
        assert any(abs(x.numerator) > 2**53 and x.denominator > 1 for vec in kernel for x in vec)

    def test_float_coordinates_are_the_kernel_entries(self):
        rng = np.random.default_rng(8)
        for base in (make_singlet_product(2), make_singlet_product(3), make_singlet_product_plus_zero(2)):
            psi = apply_group(random_local_unitary(base.n, rng), base)
            kernel = factorize(psi)[1]
            assert len(kernel) > 0
            got = report_values(cli.analyze_state(psi, default_tolerance()))
            assert got == [[float(v) for v in vec] for vec in kernel]
            assert all(type(v) is float for vec in got for v in vec)

    def test_coordinate_beyond_float_range_refused(self, capsys, tmp_path):
        # the kernel holds a coordinate near 10**600, which no float represents
        big, tiny = str(10**300), "1/" + str(10**330)
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"n": 2, "amplitudes_exact": [[big, "1"], [tiny, "-1"], [tiny, "0"], ["0", "1"]]}))
        err = usage_error(capsys, "analyze", "--state", f"file:{path}")
        assert err == (
            "error: isotropy basis vector 0: coords[0][0] is about 10**600, "
            "beyond the float range of the JSON report\n"
        )

    def test_float_range_edge(self, capsys, monkeypatch):
        # int / int rounds to the largest float below 2**1024 - 2**970 and
        # overflows from there up; the refusal names the coordinate
        limit = 2**1024 - 2**970
        one, zero = Fraction(1), Fraction(0)
        below = (one, zero, zero, zero, zero, zero, Fraction(-(3 * limit - 1), 3))
        monkeypatch.setattr(cli, "factorize", lambda psi, tol: (6, [below]))
        report = cli.analyze_state(make_singlet_product(1), default_tolerance())
        assert report["isotropy_basis"][0]["theta"] == -sys.float_info.max
        above = (one, zero, zero, zero, Fraction(3 * limit + 1, 3), zero, one)
        monkeypatch.setattr(cli, "factorize", lambda psi, tol: (5, [below, below, above]))
        err = usage_error(capsys, "analyze", "--state", "singlet*1")
        assert err.startswith("error: isotropy basis vector 2: coords[1][1] is about 10**308,")


class TestSweep:
    def test_deterministic_output(self, capsys):
        args = ("sweep", "--n", "2", "--samples", "5", "--seed", "3")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2

    def test_lines_and_aggregate(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "3", "--samples", "4")
        assert code == EXIT_OK
        lines = [json.loads(line) for line in out.strip().splitlines()]
        samples, aggregate = lines[:-1], lines[-1]["aggregate"]
        assert [s["sample"] for s in samples] == [0, 1, 2, 3]
        assert all(
            s["seed"] == int(np.random.SeedSequence([0, s["sample"]]).generate_state(1, np.uint64)[0])
            for s in samples
        )
        assert all(s["orbit_dimension"] >= s["min_bound"] for s in samples)
        assert all(list(s) == ["sample", "seed", "n", "orbit_dimension", "rank", "min_bound", "achieves_min"]
                   for s in samples)
        assert aggregate["bound_violations"] == 0
        assert sum(aggregate["histogram"].values()) == 4

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_line_agrees_with_analyze(self, capsys, n):
        # the sweep's rank-only loop against the full report of its own
        # samples: one-block states to n = 9, two blocks at n = 10, and the
        # rank-deficient one-qubit states
        fields = ("n", "orbit_dimension", "rank", "min_bound", "achieves_min")
        for sweep_seed in (2, 31):
            code, out, _ = run_cli(capsys, "sweep", "--n", str(n), "--samples", "3", "--seed", str(sweep_seed))
            assert code == EXIT_OK
            for line in out.splitlines()[:-1]:
                sample = json.loads(line)
                code, report, _ = run_cli(capsys, "analyze", "--state", f"random:{n}:{sample['seed']}")
                assert code == EXIT_OK
                report = json.loads(report)
                assert {key: sample[key] for key in fields} == {key: report[key] for key in fields}

    def test_neighbouring_seeds_draw_disjoint_samples(self, capsys):
        seeds = []
        for seed in ("0", "1"):
            code, out, _ = run_cli(capsys, "sweep", "--n", "2", "--samples", "8", "--seed", seed)
            assert code == EXIT_OK
            seeds.append({json.loads(line)["seed"] for line in out.strip().splitlines()[:-1]})
        assert len(seeds[0]) == len(seeds[1]) == 8
        assert not seeds[0] & seeds[1]

    def test_usage_errors(self, capsys):
        usage_error(capsys, "sweep", "--n", "2", "--samples", "1", "--seed", "-1")
        usage_error(capsys, "sweep", "--n", "0", "--samples", "1")
        usage_error(capsys, "sweep", "--n", "2", "--samples", "0")
        usage_error(capsys, "sweep", "--n", "40", "--samples", "1")
        # sweep draws Haar states only, so it takes no --family option
        for family in ("x", "random"):
            err = usage_error(capsys, "sweep", "--family", family, "--n", "2", "--samples", "1")
            assert err.startswith("error: unrecognized arguments: --family")


class TestVerify:
    def test_theorem_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "theorem", "--n-max", "4")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines and all(line.startswith("pass") for line in lines)

    def test_theorem_suite_beyond_bench_sizes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "theorem", "--n-max", "16")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert any("(n=16) orbit dim 24 == 24" in line for line in lines)
        assert any("(n=15) orbit dim 23 == 23" in line for line in lines)
        # cat states run to --n-max, past the 8 a dense Gram matrix stopped at
        assert "pass  cat:16 orbit dim 33 > bound 24" in lines
        assert all(line.startswith("pass") for line in lines)

    def test_table1_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "table1", "--n-max", "3")
        assert code == EXIT_OK
        assert all(line.startswith("pass") for line in out.strip().splitlines())

    def test_table1_suite_runs_to_n_max(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "table1", "--n-max", "7")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert [line.split("table-vs-direct n=")[1].split(",")[0] for line in lines] == list("1234567")
        assert all(line.startswith("pass  table-vs-direct") for line in lines)

    def test_triples_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "triples", "--n-max", "2")
        assert code == EXIT_OK
        assert all(line.startswith("pass") for line in out.strip().splitlines())

    def test_lemma_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "lemma", "--n-max", "2")
        assert code == EXIT_OK
        assert "500/500" in out

    @pytest.mark.parametrize("contradiction", [True, False])
    def test_lemma_suite_counts_a_failed_instance(self, capsys, monkeypatch, contradiction):
        # an odd parity set fails find_parity_set's own re-check; a refused E
        # leaves no witness to check
        def solve(matrix):
            if not contradiction:
                raise z2.NoWitnessError("the +-1 matrix E has trivial kernel")
            return z2.Z2Witness("kernel", (1,) + (0,) * (matrix.ncols - 1), frozenset({1}), 0)

        monkeypatch.setattr(z2, "solve_sign_kernel", solve)
        code, out, err = run_cli(capsys, "verify", "--suite", "lemma")
        assert code == EXIT_VERIFY_FAIL and err == ""
        status = "FAIL" if contradiction else "pass"
        assert out.splitlines()[:3] == [
            "FAIL  sign-kernel lemma: 0/500 witnesses found",
            f"{status}  all parity sets even",
            f"{status}  constant parity over zero rows",
        ]

    def test_unknown_suite(self, capsys):
        err = usage_error(capsys, "verify", "--suite", "nope")
        assert "invalid choice: 'nope'" in err

    def test_takes_no_tolerance(self, capsys):
        usage_error(capsys, "verify", "--suite", "triples", "--n-max", "3", "--tol", "0")

    def test_missing_command(self, capsys):
        err = usage_error(capsys)
        assert "required" in err


def test_consecutive_calls_share_no_values(capsys, monkeypatch):
    # the parser is built once per process; nothing parsed may carry over
    monkeypatch.delenv("ORBITSCOPE_TOL", raising=False)
    code, out, _ = run_cli(capsys, "analyze", "--state", "random:3:1", "--tol", "1e-8")
    assert code == EXIT_OK and json.loads(out)["tolerance"] == 1e-8
    code, out, _ = run_cli(capsys, "analyze", "--state", "cat:3", "--exact")
    assert code == EXIT_OK and json.loads(out)["orbit_dimension"] == 7
    code, out, _ = run_cli(capsys, "analyze", "--state", "random:3:1")
    assert code == EXIT_OK and json.loads(out)["tolerance"] == 1e-10
    code, out, _ = run_cli(capsys, "sweep", "--n", "2", "--samples", "2")
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert code == EXIT_OK and [line.get("seed") for line in lines[:2]] == [
        int(np.random.SeedSequence([0, i]).generate_state(1, np.uint64)[0]) for i in range(2)
    ]
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemma")
    assert code == EXIT_OK and "500/500" in out
    assert cli.build_parser() is cli.build_parser()


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "orbitscope.cli", "analyze", "--state", "cat:3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["orbit_dimension"] == 7


def test_stdout_closed_early_exits_141_quietly():
    # `sweep | head -1`: the reader closes the pipe after the first line,
    # long before the ~200 kB of output is written
    proc = subprocess.Popen(
        [sys.executable, "-m", "orbitscope.cli", "sweep", "--n", "6", "--samples", "2000", "--seed", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE
    assert proc.stderr.read() == ""
    proc.stderr.close()
    assert json.loads(first)["sample"] == 0


def test_float_commands_run_without_scipy():
    # the test session imports SciPy for its oracles, so the commands run in
    # a fresh process: random:11 takes the multi-block fold; no command
    # reaches lu_adjust, so its numerical_rank runs through triple_span_dim
    script = """
import contextlib, io, sys
from orbitscope.cli import main
from orbitscope.lu_adjust import triple_span_dim
from orbitscope.states import make_singlet_product
for argv in (
    ["analyze", "--state", "random:3:1"],
    ["analyze", "--state", "random:11:1"],
    ["sweep", "--n", "4", "--samples", "3", "--seed", "1"],
    ["verify", "--suite", "triples", "--n-max", "3"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
assert triple_span_dim(make_singlet_product(2), [1, 2]) == 3
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
