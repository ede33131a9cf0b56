"""Tests for the command-line interface and its file formats."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import arrangement_kinds
from subspace_hilbert import cli, gpca
from subspace_hilbert.arrangement import Arrangement
from subspace_hilbert.cli import (
    EXIT_DATA,
    EXIT_OK,
    DataError,
    main,
    parse_arrangement_document,
    parse_point_document,
    parse_rational,
    render_json,
)
from subspace_hilbert.fixtures import fixture_arrangement, fixture_path
from subspace_hilbert.gpca import sample_points
from subspace_hilbert.hilbert import is_series_difference_polynomial
from subspace_hilbert.ratpoly import QPoly, binom


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestParseRational:
    def test_accepts_integers_and_fractions(self):
        assert parse_rational(5, "x") == Fraction(5)
        assert parse_rational("3/2", "x") == Fraction(3, 2)
        assert parse_rational("-4", "x") == Fraction(-4)
        assert parse_rational("+2/4", "x") == Fraction(1, 2)
        assert {type(parse_rational(x, "x")) for x in (5, "-4", "3/2")} == {Fraction}

    @pytest.mark.parametrize("bad", ["1.5", "3/0", "a", "1/-2", "", True, 2.5])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(DataError):
            parse_rational(bad, "x")

    def test_error_names_the_field(self):
        with pytest.raises(DataError, match=r"points\[2\]\[1\]"):
            parse_rational("oops", "points[2][1]")

    @pytest.mark.parametrize(
        "bad", ["1\n", "\u0663", "\uff13/2", "1/\u0662"],
        ids=["trailing newline", "Arabic-Indic digit", "fullwidth numerator",
             "Arabic-Indic denominator"],
    )
    def test_only_ascii_digits_fill_the_whole_string(self, tmp_path, capsys, bad):
        # int() reads a trailing newline and any Unicode decimal digit
        with pytest.raises(DataError, match=r"points\[0\]\[1\]"):
            parse_rational(bad, "points[0][1]")
        path = write_json(tmp_path, "arr.json", {"n": 2, "subspaces": [[["1", bad]]]})
        assert main(["analyze", path]) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: subspaces[0][0][1]: ")


class TestParseArrangementDocument:
    def test_zero_dimensional_subspace_allowed(self):
        arr, name = parse_arrangement_document(
            {"n": 2, "subspaces": [[], [["1", "0"]]]}
        )
        assert name is None
        assert arr.subspaces[0].dim == 0

    @pytest.mark.parametrize(
        "doc, field",
        [
            ([1, 2], "JSON object"),
            ({"subspaces": [[["1"]]]}, "n"),
            ({"n": 0, "subspaces": [[["1"]]]}, "n"),
            ({"n": 2, "subspaces": []}, "subspaces"),
            ({"n": 2, "subspaces": [[["1"]]]}, r"subspaces\[0\]\[0\]"),
            ({"n": 2, "subspaces": [[["1", "x"]]]}, r"subspaces\[0\]\[0\]\[1\]"),
            ({"n": 2, "subspaces": [[["1", "0"], ["2", "0"]]]}, r"subspaces\[0\]"),
            ({"n": 2, "name": 7, "subspaces": [[["1", "0"]]]}, "name"),
        ],
    )
    def test_field_addressed_errors(self, doc, field):
        with pytest.raises(DataError, match=field):
            parse_arrangement_document(doc)

    def test_full_space_names_the_subspace(self):
        doc = {
            "n": 2,
            "subspaces": [[["1", "0"]], [["1", "0"], ["0", "1"]]],
        }
        with pytest.raises(DataError, match=r"subspaces\[1\].*proper"):
            parse_arrangement_document(doc)


class TestParsePointDocument:
    def test_exact_points(self):
        pc = parse_point_document(
            {"n": 2, "points": [["1", "1/2"], [3, -2]]}, allow_float=False
        )
        assert pc.exact
        assert pc.points[0] == (Fraction(1), Fraction(1, 2))

    def test_floats_need_permission(self):
        doc = {"n": 2, "points": [[1.5, 2.0]]}
        with pytest.raises(DataError, match="--tol"):
            parse_point_document(doc, allow_float=False)
        pc = parse_point_document(doc, allow_float=True)
        assert not pc.exact

    def test_zero_point_rejected(self):
        with pytest.raises(DataError):
            parse_point_document(
                {"n": 2, "points": [["0", "0"]]}, allow_float=False
            )

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_entry_names_the_field(self, tmp_path, capsys, token):
        # json reads these tokens as floats; the cloud must not take them
        path = tmp_path / "cloud.json"
        path.write_text(
            '{"n": 2, "points": [[1.0, 2.0], [0.5, %s]]}' % token, encoding="utf-8"
        )
        argv = ["recover", "--points", str(path), "--m", "1", "--tol", "1e-8"]
        assert main(argv) == EXIT_DATA
        assert "points[1][1]" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_golden_json_report(self, capsys):
        path = str(fixture_path("three-coordinate-axes"))
        code = main(
            ["analyze", path, "--max-degree", "5", "--oracle", "--json"]
        )
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 3 and doc["m"] == 3
        assert doc["transversal"] is True
        assert doc["series"] == {
            "numerator": ["0", "0", "0", "7", "-9", "3"],
            "denominator_power": 3,
        }
        assert doc["betti"]["total"] == ["7", "9", "3"]
        assert doc["betti"]["graded"] == [
            {"homological": 0, "internal": 3, "count": "7"},
            {"homological": 1, "internal": 4, "count": "9"},
            {"homological": 2, "internal": 5, "count": "3"},
        ]
        assert doc["hilbert_polynomial"]["coefficients"] == ["-2", "3/2", "1/2"]
        assert doc["hilbert_function"] == {
            "start": 3,
            "values": ["7", "12", "18"],
        }
        assert doc["oracle"]["dim_intersection"] == [
            "0", "0", "3", "7", "12", "18",
        ]
        assert doc["oracle"]["dim_product"] == ["0", "0", "0", "7", "12", "18"]
        assert doc["oracle"]["agrees"] is True

    def test_max_degree_below_m_lists_no_values(self, capsys):
        path = str(fixture_path("three-coordinate-axes"))
        assert main(["analyze", path, "--max-degree", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Hilbert function" not in out
        assert "h(d) = -2 + 3/2d + 1/2d^2" in out
        assert main(["analyze", path, "--max-degree", "1", "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["hilbert_function"] == {"start": 3, "values": []}

    def test_max_degree_limit_without_oracle(self, capsys):
        path = str(fixture_path("three-coordinate-axes"))
        assert main(["analyze", path, "--max-degree", str(cli.MAX_DEGREE), "--json"]) == EXIT_OK
        values = json.loads(capsys.readouterr().out)["hilbert_function"]["values"]
        assert len(values) == cli.MAX_DEGREE - 2
        with pytest.raises(SystemExit) as info:
            main(["analyze", path, "--max-degree", str(cli.MAX_DEGREE + 1)])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: --max-degree must be at most {cli.MAX_DEGREE}\n" in captured.err

    def test_max_degree_limit_with_oracle_in_one_variable(self, tmp_path, capsys):
        # in Q^1 every degree has one monomial, so the monomial cap never
        # binds: the same limit and message as without --oracle keep D finite
        path = write_json(tmp_path, "origin.json", {"n": 1, "subspaces": [[]]})
        with pytest.raises(SystemExit) as info:
            main(["analyze", path, "--max-degree", str(cli.MAX_DEGREE + 1), "--oracle"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: --max-degree must be at most {cli.MAX_DEGREE}\n" in captured.err

    def test_max_degree_limit_is_in_the_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"at most {cli.MAX_DEGREE}, and with --oracle within the monomial cap" in help_text

    def test_json_is_canonical(self, capsys):
        path = str(fixture_path("three-pencil-planes"))
        assert main(["analyze", path, "--oracle", "--json"]) == EXIT_OK
        text = capsys.readouterr().out
        assert render_json(json.loads(text)) == text

    def test_text_report_carries_the_same_numbers(self, capsys):
        path = str(fixture_path("three-coordinate-axes"))
        assert main(["analyze", path, "--max-degree", "5", "--oracle"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "H(J, t) = (7t^3 - 9t^4 + 3t^5)/(1 - t)^3" in out
        assert "beta_0 = 7, beta_1 = 9, beta_2 = 3" in out
        assert "beta_{1,4} = 9" in out
        assert "h(d) = -2 + 3/2d + 1/2d^2" in out
        assert "Hilbert function (d = 3..5): 7, 12, 18" in out
        assert "d = 2: dim I_d = 3, dim J_d = 0" in out
        assert "transversal: yes" in out
        assert "oracle agrees with closed forms: yes" in out

    def test_non_transversal_report(self, capsys):
        path = str(fixture_path("three-axis-planes"))
        assert main(["analyze", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "transversal: no" in out
        assert "transversal closed form" not in out
        assert "oracle" not in out

    def test_full_space_subspace_exits_with_data_error(self, tmp_path, capsys):
        path = write_json(
            tmp_path,
            "bad.json",
            {"n": 2, "subspaces": [[["1", "0"], ["0", "1"]]]},
        )
        assert main(["analyze", path]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "subspaces[0]" in err and "proper" in err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 3,', encoding="utf-8")
        assert main(["analyze", str(path)]) == EXIT_DATA
        assert f"{path}:1:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [
            # json's C scanner recurses once per level of nesting
            (b"[" * 100_000, "nested too deeply to parse"),
            (b'{"n": 3, "subspaces": [["1", "\xff"]]}', "not UTF-8: invalid start byte at byte 30"),
        ],
        ids=["nested", "not-utf-8"],
    )
    @pytest.mark.parametrize(
        "command", [["analyze"], ["recover", "--m", "2", "--points"]], ids=["analyze", "recover"]
    )
    def test_unreadable_json_names_the_file(self, tmp_path, command, content, message):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        run = subprocess.run(
            [sys.executable, "-m", "subspace_hilbert", *command, str(path)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        assert run.returncode == EXIT_DATA and run.stdout == ""
        assert run.stderr == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("quoted", [True, False], ids=["string", "literal"])
    @pytest.mark.parametrize(
        "command, template, field",
        [
            (["analyze"], '{"n": 2, "subspaces": [[[%s, "1"]]]}', "subspaces[0][0][0]"),
            (
                ["recover", "--m", "2", "--points"],
                '{"n": 2, "points": [[%s, "1"], ["1", "2"]]}',
                "points[0][0]",
            ),
        ],
        ids=["analyze", "recover"],
    )
    def test_integer_past_the_digit_limit(
        self, tmp_path, capsys, command, template, field, quoted
    ):
        # int() refuses more digits than the interpreter's limit: the error
        # names the field of a string entry and the file of a literal
        limit = sys.get_int_max_str_digits()
        digits = "1" + "0" * limit
        path = tmp_path / "input.json"
        path.write_text(template % (f'"{digits}"' if quoted else digits), encoding="utf-8")
        assert main([*command, str(path)]) == EXIT_DATA
        where = field if quoted else str(path)
        assert capsys.readouterr() == (
            "", f"error: {where}: an integer with more than {limit} digits\n"
        )

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_report_number_past_the_digit_limit(self, tmp_path, capsys, flags):
        # the origin's Hilbert polynomial C(d + n-1, n-1) has denominator
        # (n-1)!, 642 digits at n = 312, past the lowest limit the
        # interpreter accepts; the error names the report field
        path = write_json(tmp_path, "origin.json", {"n": 312, "subspaces": [[]]})
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code = main(["analyze", *flags, path])
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == EXIT_DATA
        assert capsys.readouterr() == (
            "", "error: hilbert_polynomial: an integer with more than 640 digits\n"
        )

    def test_missing_file(self, capsys):
        assert main(["analyze", "/no/such/file.json"]) == EXIT_DATA
        assert "error:" in capsys.readouterr().err

    def test_monomial_cap_violation(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SUBSPACE_HILBERT_MONOMIAL_CAP", "10")
        path = str(fixture_path("three-coordinate-axes"))
        assert main(["analyze", path, "--max-degree", "6", "--oracle"]) == EXIT_DATA
        assert "cap" in capsys.readouterr().err

    def test_monomial_cap_checked_before_hilbert_values(self, capsys, monkeypatch):
        # the transversal values run over every degree m..D: the oracle's
        # cap must refuse D first, before any of them is computed
        def spy(*args):
            raise AssertionError("transversal_hilbert_function called")

        monkeypatch.setattr(cli, "transversal_hilbert_function", spy)
        path = str(fixture_path("three-coordinate-axes"))
        argv = ["analyze", path, "--max-degree", str(cli.MAX_DEGREE), "--oracle"]
        assert main(argv) == EXIT_DATA
        assert "above the cap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, raw, flags",
        [
            ("SUBSPACE_HILBERT_MONOMIAL_CAP", "abc", ["--oracle"]),
            ("SUBSPACE_HILBERT_MONOMIAL_CAP", "-1", ["--oracle"]),
            ("SUBSPACE_HILBERT_SUBSET_CAP", "abc", []),
            ("SUBSPACE_HILBERT_SUBSET_CAP", "-3", []),
        ],
    )
    def test_bad_env_cap_exits_with_data_error(
        self, capsys, monkeypatch, name, raw, flags
    ):
        monkeypatch.setenv(name, raw)
        path = str(fixture_path("three-coordinate-axes"))
        assert main(["analyze", path, *flags]) == EXIT_DATA
        err = capsys.readouterr().err
        assert name in err and repr(raw) in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "x.json", "--jobs", "4"],
            ["analyze", "x.json", "--max-degree", "-1"],
        ],
    )
    def test_usage_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        capsys.readouterr()


class TestRecoverCommand:
    def test_values_mode(self, capsys):
        code = main(["recover", "--values", "7", "12", "18", "--m", "3", "--n", "3"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "multiplicities: r_1 = 0, r_2 = 3" in out
        assert "codimensions: 2, 2, 2" in out
        assert "dimensions: 1, 1, 1" in out

    def test_values_mode_json(self, capsys):
        code = main(
            ["recover", "--values", "7", "12", "18", "--m", "3", "--n", "3", "--json"]
        )
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["multiplicities"] == [0, 3]
        assert doc["codimensions"] == [2, 2, 2]
        assert doc["dimensions"] == [1, 1, 1]
        assert doc["hilbert_values"] == {"start": 3, "values": ["7", "12", "18"]}

    def test_inconsistent_values_exit_with_hint(self, capsys):
        code = main(["recover", "--values", "1", "1", "1", "--m", "3", "--n", "3"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "error:" in err and "hint:" in err

    def test_points_mode(self, tmp_path, capsys):
        pc = sample_points(fixture_arrangement("three-coordinate-axes"), 10, seed=61)
        path = write_json(
            tmp_path,
            "cloud.json",
            {"n": 3, "points": [[str(x) for x in p] for p in pc.points]},
        )
        assert main(["recover", "--points", path, "--m", "3", "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["dimensions"] == [1, 1, 1]
        assert doc["hilbert_values"] == {"start": 3, "values": ["7", "12", "18"]}

    def test_float_points_require_tol(self, tmp_path, capsys):
        pc = sample_points(fixture_arrangement("three-coordinate-axes"), 10, seed=62)
        doc = {"n": 3, "points": [[float(x) for x in p] for p in pc.points]}
        path = write_json(tmp_path, "cloud.json", doc)
        assert main(["recover", "--points", path, "--m", "3"]) == EXIT_DATA
        assert "--tol" in capsys.readouterr().err
        code = main(["recover", "--points", path, "--m", "3", "--tol", "1e-8"])
        assert code == EXIT_OK
        assert "dimensions: 1, 1, 1" in capsys.readouterr().out

    def test_empty_cloud_is_a_data_error(self, tmp_path, capsys):
        path = write_json(tmp_path, "cloud.json", {"n": 3, "points": []})
        assert main(["recover", "--points", path, "--m", "3"]) == EXIT_DATA
        assert capsys.readouterr().err == (
            "error: cannot recover from an empty point cloud\n"
        )

    def test_float_points_that_overflow(self, tmp_path, capsys):
        # (1e200)^2 does not fit a float: an error line, not a traceback
        doc = {"n": 2, "points": [[1e200, 1.0], [1.0, 2.0], [3.0, 1.0]]}
        path = write_json(tmp_path, "cloud.json", doc)
        code = main(["recover", "--points", path, "--m", "2", "--tol", "1e-8"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "degree-2" in err

    def test_points_past_the_monomial_cap(self, tmp_path, capsys, monkeypatch):
        # degrees 3, 4, 5 in Q^3 need 10, 15, 21 monomials: with a cap of 10
        # the degree-4 value is refused before its matrix is built
        built = []

        def spy(n, d):
            built.append(binom(d + n - 1, n - 1))
            return split_first_variable(n, d)

        split_first_variable = gpca.split_first_variable
        monkeypatch.setattr(gpca, "split_first_variable", spy)
        monkeypatch.setenv("SUBSPACE_HILBERT_MONOMIAL_CAP", "10")
        pc = sample_points(fixture_arrangement("three-coordinate-axes"), 10, seed=61)
        path = write_json(
            tmp_path,
            "cloud.json",
            {"n": 3, "points": [[str(x) for x in p] for p in pc.points]},
        )
        assert main(["recover", "--points", path, "--m", "3"]) == EXIT_DATA
        assert "above the cap of 10" in capsys.readouterr().err
        assert built and max(built) <= 10

    def test_wrong_value_count_is_a_data_error(self, capsys):
        assert main(["recover", "--values", "7", "12", "--m", "3", "--n", "3"]) == EXIT_DATA
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["recover", "--m", "3"],
            ["recover", "--values", "7", "--points", "x.json", "--m", "1"],
            ["recover", "--values", "7", "12", "18", "--m", "3"],
            ["recover", "--values", "7", "--m", "0", "--n", "1"],
            ["recover", "--values", "7", "--m", "1", "--n", "1", "--tol", "1e-8"],
            ["recover", "--points", "x.json", "--m", "1", "--n", "3"],
            ["recover", "--points", "x.json", "--m", "1", "--tol", "-1"],
            ["recover", "--points", "x.json", "--m", "1", "--tol", "nan"],
            ["recover", "--points", "x.json", "--m", "1", "--tol", "inf"],
        ],
    )
    def test_usage_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        capsys.readouterr()


class TestSelftestCommand:
    def test_all_fixtures_pass(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out
        assert "selftest: 4 passed, 0 failed" in out


class TestSubsetCapCost:
    """The advertised subset cap is usable: analyze stays inside a budget.

    ``hyperplanes`` is the kind whose masks mostly stay below the rank of
    all the forms, so the depth-first walk of ``dimension_function`` can
    cut off little of it.
    """

    BUDGET_S = 30.0

    def _analyze(self, tmp_path, capsys, arr: Arrangement) -> dict:
        doc = {
            "n": arr.ambient_dim,
            "subspaces": [[[str(x) for x in v] for v in s.vectors] for s in arr.subspaces],
        }
        path = write_json(tmp_path, "arrangement.json", doc)
        start = time.perf_counter()
        assert main(["analyze", "--json", path]) == EXIT_OK
        elapsed = time.perf_counter() - start
        assert elapsed < self.BUDGET_S, f"analyze took {elapsed:.1f} s"
        return json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("kind", ["generic", "hyperplanes"])
    def test_transversal_sixteen_subspaces(self, tmp_path, capsys, kind):
        report = self._analyze(tmp_path, capsys, arrangement_kinds.build(kind, 12, 16, 1601))
        assert report["m"] == 16 and report["transversal"]
        series, closed = report["series"], report["transversal_closed_form"]
        assert is_series_difference_polynomial(
            (QPoly(map(Fraction, series["numerator"])), series["denominator_power"]),
            (QPoly(map(Fraction, closed["numerator"])), closed["denominator_power"]),
        )

    def test_degenerate_twelve_subspaces(self, tmp_path, capsys):
        # one common line inside one common hyperplane: no mask reaches codim n
        report = self._analyze(tmp_path, capsys, arrangement_kinds.build("degenerate", 12, 12, 1201))
        assert report["m"] == 12 and not report["transversal"]
        assert all(1 <= row["dim"] for row in report["dimension_function"])


class TestParserBuiltOnce:
    """The argparse parser is built once per process and reused by every
    ``main`` call; a reused parser must behave like a fresh one."""

    ARGVS = [
        ["analyze", str(fixture_path("three-coordinate-axes")), "--json"],
        ["recover", "--values", "7", "12", "18", "--m", "3", "--n", "3"],
        ["analyze", "x.json", "--max-degree", "-1"],  # usage error, exit 2
        ["selftest"],
    ]

    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_sequence_in_one_process_matches_fresh_calls(self, capsys):
        in_process = []
        for argv in self.ARGVS:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        assert [code for code, _, _ in in_process] == [EXIT_OK, EXIT_OK, 2, EXIT_OK]
        for argv, got in zip(self.ARGVS, in_process):
            fresh = subprocess.run(
                [sys.executable, "-m", "subspace_hilbert", *argv],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            )
            assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
