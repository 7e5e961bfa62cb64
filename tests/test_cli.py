"""Command line behavior: exit codes, report formats, golden outputs."""

import gc
import json
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import wres.residue
from wres.cli import main
from wres.curvature import RiemannTensor, constant_curvature, random_riemann
from wres.residue import CLOSED_FORMS, Analysis
from wres.scalars import GaussianRational, ScalarPoly

from oracles import projected_riemann


@pytest.fixture
def runner():
    return CliRunner()


class TestVerifyCommand:
    def test_all_match_exits_zero(self, runner):
        result = runner.invoke(main, ["verify", "--dim", "4", "--seeds", "2"])
        assert result.exit_code == 0
        assert "all identities hold" in result.output
        assert "seed=0" in result.output and "seed=1" in result.output

    def test_bad_dimension_is_usage_error(self, runner):
        result = runner.invoke(main, ["verify", "--dim", "5"])
        assert result.exit_code == 2
        assert "--dim" in result.output

    def test_nonpositive_seed_count_rejected(self, runner):
        result = runner.invoke(main, ["verify", "--dim", "4", "--seeds", "0"])
        assert result.exit_code == 2

    def test_huge_seed_count_is_not_listed(self, runner):
        # the seeds stay a range: a count past the index size reaches the
        # curvature check, which fails before any analysis runs
        result = runner.invoke(
            main, ["verify", "--dim", "4", "--seeds", "99999999999999999999", "--curvature", "nope"]
        )
        assert result.exit_code == 2
        assert "--curvature must be 'random', 'constant', 'flat', or a JSON file" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("as_json", [[], ["--json"]], ids=["text", "json"])
    def test_one_seed_is_held_at_a_time(self, runner, monkeypatch, as_json):
        # verify keeps each seed's mismatches and its report or lines, not
        # its Analysis: with every Analysis tracked by weakref, no more
        # than two are alive, the last seed's and the one just built
        alive, counts = weakref.WeakSet(), []
        real = wres.residue.Analysis

        def tracked(*args):
            analysis = real(*args)
            alive.add(analysis)
            gc.collect()
            counts.append(len(alive))
            return analysis

        monkeypatch.setattr(wres.residue, "Analysis", tracked)
        result = runner.invoke(main, ["verify", "--dim", "4", "--seeds", "6", *as_json])
        assert result.exit_code == 0
        assert len(counts) == 6 and max(counts) <= 2

    def test_json_report_round_trips_byte_identically(self, runner):
        result = runner.invoke(
            main, ["verify", "--dim", "4", "--seeds", "1", "--json"]
        )
        assert result.exit_code == 0
        reports = json.loads(result.output)
        assert json.dumps(reports, indent=2, sort_keys=True) + "\n" == result.output
        assert reports[0]["dim"] == 4
        assert len(reports[0]["parts"]) == 18

    def test_seed_base_env_shifts_the_sweep(self, runner):
        result = runner.invoke(
            main,
            ["verify", "--dim", "4", "--seeds", "2", "--json"],
            env={"WRES_SEED_BASE": "7"},
        )
        assert result.exit_code == 0
        assert [r["seed"] for r in json.loads(result.output)] == [7, 8]

    def test_bad_seed_base_env(self, runner):
        result = runner.invoke(
            main, ["verify", "--dim", "4"], env={"WRES_SEED_BASE": "x"}
        )
        assert result.exit_code == 2

    def test_curvature_file_source(self, runner, tmp_path):
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps(random_riemann(4, 1).to_json()))
        result = runner.invoke(
            main, ["verify", "--dim", "4", "--seeds", "1", "--curvature", str(path)]
        )
        assert result.exit_code == 0

    def test_densities_longer_than_the_int_str_limit(self, runner, tmp_path):
        """Entries over denominators up to 10^12 give dim-6 density
        coefficients of more than 4300 digits, Python's default int-to-str
        limit; the report prints them all."""
        draw = lambda rng: Fraction(rng.randint(-2**20, 2**20), rng.randint(1, 10**12))
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps(RiemannTensor(6, projected_riemann(6, 19, draw)).to_json()))
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        if limit is not None:
            sys.set_int_max_str_digits(4300)  # the default, as a fresh process has it
        try:
            result = runner.invoke(
                main, ["verify", "--dim", "6", "--seeds", "1", "--curvature", str(path), "--json"]
            )
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
        assert result.exit_code == 0, result.output
        (report,) = json.loads(result.output)
        assert all(part["match"] for part in report["parts"])
        assert all(v for key, v in report.items() if key.endswith("_match"))
        longest = max(len(part["computed"]) for part in report["parts"])
        assert longest > 4300

    def test_invalid_curvature_file_is_usage_error(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 4, "entries": [[1, 2, 1, 2, 1, 1]]}))
        result = runner.invoke(
            main, ["verify", "--dim", "4", "--curvature", str(path)]
        )
        assert result.exit_code == 2
        assert "antisymmetry" in result.output

    def test_zero_denominator_in_curvature_file_is_usage_error(self, runner, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"n": 4, "entries": [[1, 2, 1, 2, 1, 0]]}))
        result = runner.invoke(
            main, ["verify", "--dim", "4", "--curvature", str(path)]
        )
        assert result.exit_code == 2
        assert "zero denominator" in result.output

    def test_repeated_row_in_curvature_file_is_usage_error(self, runner, tmp_path):
        # R_1212 listed with value 1 and again with 5: no value silently wins
        rows = [[1, 2, 1, 2, 1, 1], [2, 1, 2, 1, 1, 1], [1, 2, 2, 1, -1, 1], [2, 1, 1, 2, -1, 1]]
        repeated = [row[:4] + [5 * row[4], 1] for row in rows]
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps({"n": 4, "entries": rows + repeated}))
        for args in (
            ["verify", "--dim", "4", "--seeds", "1"],
            ["einstein", "--dim", "4", "--u", "1,0,0,0", "--v", "1,0,0,0"],
        ):
            result = runner.invoke(main, args + ["--curvature", str(path)])
            assert result.exit_code == 2, result.output
            assert "invalid curvature file" in result.output
            assert "entry [1, 2, 1, 2, 5, 1] repeats index (1, 2, 1, 2)" in result.output

    @pytest.mark.parametrize(
        "spoil,fragment",
        [
            # a truncating reader would read 1.5 as 1 and pass every check
            (lambda d: [row.__setitem__(4, row[4] * 1.5) for row in d["entries"]], "six integers"),
            (lambda d: d["entries"][0].__setitem__(4, True), "six integers"),
            (lambda d: d.__setitem__("n", 4.9), "n must be an integer"),
        ],
        ids=["float-numerators", "bool-numerator", "float-n"],
    )
    def test_non_integer_in_curvature_file_is_usage_error(self, runner, tmp_path, spoil, fragment):
        data = constant_curvature(4).to_json()
        spoil(data)
        path = tmp_path / "inexact.json"
        path.write_text(json.dumps(data))
        for args in (
            ["verify", "--dim", "4", "--seeds", "1"],
            ["einstein", "--dim", "4", "--u", "1,0,0,0", "--v", "1,0,0,0"],
        ):
            result = runner.invoke(main, args + ["--curvature", str(path)])
            assert result.exit_code == 2, result.output
            assert "invalid curvature file" in result.output
            assert fragment in result.output

    @pytest.mark.parametrize(
        "data",
        [[4, []], "n=4", {"entries": []}, {"n": 4}, {"n": 4, "entries": 7}],
        ids=["list", "string", "no-n", "no-entries", "entries-not-list"],
    )
    def test_malformed_curvature_file_names_the_shape(self, runner, tmp_path, data):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(data))
        result = runner.invoke(main, ["verify", "--dim", "4", "--curvature", str(path)])
        assert result.exit_code == 2, result.output
        assert '{"n": int, "entries": [[i, j, k, l, num, den], ...]}' in result.output
        assert "Traceback" not in result.output and isinstance(result.exception, SystemExit)

    def test_unreadable_curvature_file_is_usage_error(self, runner, tmp_path, monkeypatch):
        path = tmp_path / "locked.json"
        path.write_text(json.dumps(constant_curvature(4).to_json()))

        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", refuse)
        result = runner.invoke(main, ["verify", "--dim", "4", "--curvature", str(path)])
        assert result.exit_code == 2, result.output
        assert "cannot be read: Permission denied" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_too_deeply_nested_curvature_file_is_usage_error(self, runner, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        result = runner.invoke(main, ["verify", "--dim", "4", "--curvature", str(path)])
        assert result.exit_code == 2, result.output
        assert "invalid curvature file" in result.output and "recursion" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_dimension_8_is_supported(self, runner):
        result = runner.invoke(main, ["verify", "--dim", "8", "--seeds", "1"])
        assert result.exit_code == 0, result.output
        assert "all identities hold" in result.output

    def test_missing_curvature_file_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["verify", "--dim", "4", "--curvature", "nope.json"]
        )
        assert result.exit_code == 2

    def test_curvature_dimension_mismatch(self, runner, tmp_path):
        path = tmp_path / "t2.json"
        path.write_text(json.dumps(constant_curvature(2).to_json()))
        result = runner.invoke(
            main, ["verify", "--dim", "4", "--curvature", str(path)]
        )
        assert result.exit_code == 2

    def test_vector_parsing(self, runner):
        result = runner.invoke(
            main,
            [
                "verify",
                "--dim",
                "4",
                "--seeds",
                "1",
                "--u",
                "1/2,0,3,0",
                "--v",
                "0,1,0,2",
            ],
        )
        assert result.exit_code == 0

    def test_vector_length_mismatch(self, runner):
        result = runner.invoke(
            main, ["verify", "--dim", "4", "--u", "1,2,3"]
        )
        assert result.exit_code == 2
        assert "comma-separated" in result.output

    def test_out_writes_file(self, runner, tmp_path):
        path = tmp_path / "report.json"
        result = runner.invoke(
            main,
            [
                "verify",
                "--dim",
                "4",
                "--seeds",
                "1",
                "--json",
                "--out",
                str(path),
            ],
        )
        assert result.exit_code == 0
        assert json.loads(path.read_text())[0]["seed"] == 0

    def test_bare_invocation_defaults_to_dim4_sweep(self, runner):
        result = runner.invoke(main, [])
        assert result.exit_code == 0
        assert "verify dim=4" in result.output
        assert "seeds=0..9" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--dim", "2", "--seeds", "1"],
        ["parts", "--dim", "2"],
        ["einstein", "--dim", "2", "--u", "1,0", "--v", "0,1"],
    ],
    ids=["verify", "parts", "einstein"],
)
@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_unwritable_out_is_usage_error(runner, tmp_path, args, target):
    out = tmp_path if target == "directory" else tmp_path / "missing" / "x.json"
    result = runner.invoke(main, args + ["--out", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "--out" in result.output


class TestPartsCommand:
    def test_table_rows(self, runner):
        result = runner.invoke(main, ["parts", "--dim", "4", "--seed", "2"])
        assert result.exit_code == 0
        for pid in ("I-1-A", "I-3-E", "II-5", "zabdt", "zpdt", "metric", "einstein"):
            assert pid in result.output
        assert result.output.count(" ok ") >= 22
        assert "all checks hold" in result.output

    def test_json_schema(self, runner):
        result = runner.invoke(
            main, ["parts", "--dim", "4", "--seed", "1", "--json"]
        )
        rep = json.loads(result.output)
        assert rep["seed"] == 1
        assert len(rep["parts"]) == 18

    def test_a_zero_density_prints_as_zero(self, runner):
        # zero vectors make every density zero, the ones with a prefactor too
        args = ["parts", "--dim", "4", "--seed", "3", "--u", "0,0,0,0", "--v", "0,0,0,0"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert "  metric    ok        computed = 0\n" in result.output
        assert "  einstein  ok        computed = 0\n" in result.output
        assert "(0)" not in result.output

    def test_a_directory_is_not_a_curvature_file(self, runner, tmp_path):
        # a path that exists but is no file is named as such, not as missing
        for path, reason in ((tmp_path, "is not a file"), (tmp_path / "nope.json", "not found")):
            result = runner.invoke(main, ["parts", "--dim", "4", "--curvature", str(path)])
            assert result.exit_code == 2
            assert f"{str(path)!r} {reason}" in result.output


class TestFailingChecks:
    def test_non_real_density_exits_one_and_is_named(self, runner, monkeypatch):
        real = wres.residue.trace_sums
        i_unit = ScalarPoly.const(GaussianRational(0, 1))
        monkeypatch.setattr(
            wres.residue,
            "trace_sums",
            lambda sums, n: {key: poly + i_unit for key, poly in real(sums, n).items()},
        )
        for args in (["verify", "--dim", "2", "--seeds", "1"], ["parts", "--dim", "2"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 1, args
            assert isinstance(result.exception, SystemExit)
            assert "real:" in result.output

    def test_totals_gate_verify_and_parts(self, runner, monkeypatch):
        fill = Analysis._fill_expected

        def wrong_total(self):
            fill(self)
            self.expected["I-3"] = self.expected["I-3"] + self.expected["I-6"]

        monkeypatch.setattr(Analysis, "_fill_expected", wrong_total)
        result = runner.invoke(main, ["verify", "--dim", "4", "--seeds", "1"])
        assert result.exit_code == 1
        assert "MISMATCH in I-3\n" in result.output
        result = runner.invoke(main, ["verify", "--dim", "4", "--seeds", "1", "--json"])
        assert result.exit_code == 1
        assert all(p["match"] for p in json.loads(result.output)[0]["parts"])
        # every part and assembled flag reads true, so the report names the total
        assert json.loads(result.output)[0]["mismatches"] == ["I-3"]
        result = runner.invoke(main, ["parts", "--dim", "4"])
        assert result.exit_code == 1
        assert "MISMATCHES FOUND: I-3" in result.output
        assert json.loads(runner.invoke(main, ["parts", "--dim", "4", "--json"]).output)["mismatches"] == ["I-3"]
        # a passing report has no mismatches key
        monkeypatch.undo()
        result = runner.invoke(main, ["verify", "--dim", "4", "--seeds", "1", "--json"])
        assert result.exit_code == 0
        assert "mismatches" not in json.loads(result.output)[0]

    def test_a_wrong_part_row_prints_its_expected_side(self, runner, monkeypatch):
        # I-3-E's (1 - m)/4 s g written as (1 - m)/3
        monkeypatch.setitem(CLOSED_FORMS, "I-3-E", ("ab2", (0, 0), (0, 0), (16, -16), (0, 0)))
        result = runner.invoke(main, ["parts", "--dim", "4", "--seed", "2"])
        assert result.exit_code == 1
        assert "  I-3-E     MISMATCH  computed = a0^2*b0^2*(-605)\n" in result.output
        assert "\n                      expected = a0^2*b0^2*(-2420/3)\n" in result.output
        assert result.output.count("expected = ") == 1
        assert result.output.endswith("MISMATCHES FOUND: I-3-E\n")

    def test_a_wrong_total_row_gates_parts_and_verify(self, runner, monkeypatch):
        # I-3's (3 - m)/12 s g written as (4 - m)/12; verify prints both sides
        monkeypatch.setitem(CLOSED_FORMS, "I-3", ("ab2", (0, 0), (0, 0), (16, -4), (-16, 0)))
        result = runner.invoke(main, ["parts", "--dim", "4", "--seed", "2"])
        assert result.exit_code == 1
        # I-3 has no table row, so both sides follow the table
        assert result.output.endswith(
            "  I-3       MISMATCH  computed = a0^2*b0^2*(-9247/72)\n"
            "                      expected = a0^2*b0^2*(5273/72)\n"
            "MISMATCHES FOUND: I-3\n"
        )
        result = runner.invoke(main, ["verify", "--dim", "4", "--seeds", "1"])
        assert result.exit_code == 1
        assert (
            "seed=0: MISMATCH in I-3\n"
            "  I-3: computed a0^2*b0^2*(24245/72) expected a0^2*b0^2*(43285/216)\n"
        ) in result.output

    def test_a_wrong_einstein_row_fails_the_einstein_command(self, runner, monkeypatch):
        # Ric's -1/6 written as -1/8
        monkeypatch.setitem(CLOSED_FORMS, "einstein", ("1", (2, -1), (0, 0), (4, 0), (-6, 0)))
        u = "1/2,-3,2/7,1"
        args = ["einstein", "--dim", "4", "--curvature", "random", "--seed", "3"]
        args += ["--u", u, "--v", u]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert "  matches closed form: NO\n" in result.output
        result = runner.invoke(main, args + ["--json"])
        assert result.exit_code == 1
        assert json.loads(result.output)["matches_closed_form"] is False


class TestEinsteinCommand:
    def test_requires_explicit_vectors(self, runner):
        result = runner.invoke(main, ["einstein", "--dim", "4"])
        assert result.exit_code == 2

    def test_constant_curvature_golden(self, runner):
        result = runner.invoke(
            main,
            ["einstein", "--dim", "4", "--u", "1,0,0,0", "--v", "1,0,0,0"],
        )
        assert result.exit_code == 0
        assert "core = (8)" in result.output
        assert "prefactor exponent = 0" in result.output
        assert "(8) * (a0*b0)^0 * Vol(S^3)" in result.output
        assert "matches closed form: yes" in result.output

    def test_eval_point_prints_numeric_value(self, runner):
        result = runner.invoke(
            main,
            [
                "einstein",
                "--dim",
                "4",
                "--u",
                "1,0,0,0",
                "--v",
                "1,0,0,0",
                "--eval",
                "1",
                "1",
            ],
        )
        assert result.exit_code == 0
        # 8 * Vol(S^3) = 16 pi^2
        assert "157.9136704174297" in result.output

    @pytest.mark.parametrize(
        "a0,reason",
        [("0", "undefined at a0*b0 = 0"), (f"1/{10**400}", "too large for a float")],
    )
    def test_unevaluable_point_is_usage_error(self, runner, a0, reason):
        # at dim 6 the density carries (a0*b0)^-1
        e1 = "1,0,0,0,0,0"
        result = runner.invoke(
            main, ["einstein", "--dim", "6", "--u", e1, "--v", e1, "--eval", a0, "1"]
        )
        assert result.exit_code == 2
        assert "--eval" in result.output and reason in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "option,bad,args",
        [
            ("--u", "1/0", ["--u", "1/0,1,1,1", "--v", "1,1,1,1"]),
            ("--v", "0/0", ["--u", "1,1,1,1", "--v", "1,1,0/0,1"]),
            ("--eval", "1/0", ["--u", "1,1,1,1", "--v", "1,1,1,1", "--eval", "1/0", "2"]),
            ("--eval", "3/0", ["--u", "1,1,1,1", "--v", "1,1,1,1", "--eval", "1", "3/0"]),
        ],
    )
    def test_zero_denominator_is_usage_error(self, runner, option, bad, args):
        # the message names the option and the text, as for a curvature file
        result = runner.invoke(main, ["einstein", "--dim", "4", *args])
        assert result.exit_code == 2
        assert f"{option}: zero denominator in '{bad}'" in result.output
        assert "Fraction(" not in result.output and "Traceback" not in result.output

    def test_eval_at_zero_with_zero_prefactor_exponent(self, runner):
        e1 = "1,0,0,0"
        result = runner.invoke(
            main, ["einstein", "--dim", "4", "--u", e1, "--v", e1, "--eval", "0", "1"]
        )
        assert result.exit_code == 0
        assert "value at a0=0, b0=1: 157.91367041742973" in result.output

    def test_json_output(self, runner):
        result = runner.invoke(
            main,
            [
                "einstein",
                "--dim",
                "4",
                "--u",
                "1,0,0,0",
                "--v",
                "0,1,0,0",
                "--json",
            ],
        )
        payload = json.loads(result.output)
        assert payload["matches_closed_form"] is True
        assert payload["prefactor_exp"] == 0

    def test_flat_curvature_vanishes(self, runner):
        result = runner.invoke(
            main,
            [
                "einstein",
                "--dim",
                "4",
                "--curvature",
                "flat",
                "--u",
                "1,0,0,0",
                "--v",
                "1,0,0,0",
            ],
        )
        assert result.exit_code == 0
        assert "core = 0" in result.output
