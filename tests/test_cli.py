"""Command-line interface: exit codes, formats, determinism."""

from __future__ import annotations

import json

import pytest

from cayint.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestSpectrumCommand:
    def test_alpha_exit_one(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--catalog", "s3", "--fixture", "alpha")
        assert code == 1
        assert "x^2 + 2x - 12" in out
        assert "integral   no" in out

    def test_six_cycle_exit_zero(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--catalog", "cyclic", "6", "--set", "1,5")
        assert code == 0
        assert "integral   yes" in out

    def test_beta_json(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--catalog", "dicyclic12", "--fixture", "beta",
            "--format", "json",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["integer_eigenvalues"] == [[48, 1], [4, 2], [0, 1], [-14, 4]]
        assert doc["residual_factors"] == [["x^2 - 12", 2]]

    def test_fixture_implies_group(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--fixture", "alpha", "--format", "json")
        assert code == 1
        assert json.loads(out)["group"]["name"] == "S3"

    def test_usage_error_exit_two(self, capsys):
        code, _, err = run(capsys, "spectrum", "--catalog", "s3")
        assert code == 2 and "error:" in err

    def test_unknown_group_exit_two(self, capsys):
        code, _, err = run(capsys, "spectrum", "--catalog", "nonsense", "--set", "1")
        assert code == 2

    def test_function_file(self, capsys, tmp_path):
        path = tmp_path / "f.fn"
        path.write_text("f 6\n0 1 0 0 0 1\n")
        code, out, _ = run(
            capsys, "spectrum", "--catalog", "cyclic", "6", "--function", str(path)
        )
        assert code == 0


class TestClassifyCommand:
    def test_q8(self, capsys):
        code, out, _ = run(capsys, "classify", "--catalog", "q8")
        assert code == 0
        assert "colour integrality     True" in out

    def test_z12_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--catalog", "cyclic", "12", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"] == {
            "rational": False,
            "semi_rational": False,
            "inverse_semi_rational": False,
            "nci": False,
            "fcci": False,
            "cci": False,
            "ci": False,
            "nilpotent": True,
        }

    def test_structured_output_deterministic(self, capsys):
        a = run(capsys, "classify", "--catalog", "s3", "--format", "json", "--seed", "0")
        b = run(capsys, "classify", "--catalog", "s3", "--format", "json", "--seed", "0")
        assert a == b

    def test_group_file_source(self, capsys, tmp_path):
        from cayint.catalog import catalog, save_group

        path = tmp_path / "g.grp"
        save_group(catalog("cyclic", 6), path)
        code, out, _ = run(capsys, "classify", "--file", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["verdicts"]["ci"] is True


class TestChartableCommand:
    def test_q8_text(self, capsys):
        code, out, _ = run(capsys, "chartable", "--catalog", "q8")
        assert code == 0
        assert "conductor 4" in out
        assert "deg     2" in out

    def test_save_and_reload(self, capsys, tmp_path):
        from cayint.catalog import catalog
        from cayint.chartable import load_table

        dump = tmp_path / "s4.ct"
        code, _, _ = run(capsys, "chartable", "--catalog", "s4", "--save", str(dump))
        assert code == 0
        table = load_table(dump, catalog("s4"))
        assert table.degrees == (1, 1, 2, 3, 3)

    def test_cap_override(self, capsys):
        code, _, err = run(capsys, "chartable", "--catalog", "s5", "--cap-chartable", "100")
        assert code == 2 and "cap" in err

    def test_spectrum_takes_no_chartable_cap(self, capsys):
        # only classify, chartable and audit build a character table
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--catalog", "cyclic", "6", "--set", "1,5", "--cap-chartable", "5"])
        assert exc.value.code == 2
        assert "--cap-chartable" in capsys.readouterr().err


class TestAuditCommand:
    def test_single_group_no_findings(self, capsys):
        code, out, _ = run(capsys, "audit", "--catalog", "s3")
        assert code == 0
        assert "findings            0" in out

    def test_q8z3_findings_exit_three(self, capsys):
        code, out, _ = run(capsys, "audit", "--catalog", "q8z3", "--format", "json")
        assert code == 3
        doc = json.loads(out)
        assert any("disagreement" in f for f in doc["findings"])
        assert doc["chain_violations"] == []

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "audit", "--suite", "bogus")
        assert code == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "audit", "--catalog", "cyclic", "6", "--format", "json",
            "--out", str(target),
        )
        assert code == 0 and out == ""
        doc = json.loads(target.read_text())
        assert doc["exit_code"] == 0


class TestParserReuse:
    """`main` builds its parser once per process; no option of one call may
    reach the next."""

    def test_consecutive_calls_do_not_share_options(self, capsys, tmp_path):
        from cayint.cli import _parser

        target = tmp_path / "six.json"
        code, out, _ = run(
            capsys, "spectrum", "--catalog", "cyclic", "6", "--set", "1,5",
            "--format", "json", "--out", str(target), "--seed", "7",
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["is_integral"] is True
        code, out, _ = run(capsys, "spectrum", "--catalog", "s3", "--fixture", "alpha")
        assert code == 1
        assert out.startswith("group      S3 (order 6)") and "integral   no" in out
        assert _parser() is _parser()
        args = _parser().parse_args(["classify", "--catalog", "q8"])
        assert (args.format, args.out, args.seed, args.catalog) == ("text", None, 0, ["q8"])
