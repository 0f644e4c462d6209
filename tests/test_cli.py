"""Tests for the command-line interface (tiny budgets)."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


COMMON = ["--scale", "fast", "--nodes", "5", "--days", "3", "--epochs", "1"]


class TestCli:
    def test_table1_missing(self, capsys):
        out = run_cli(
            capsys, *COMMON,
            "table1-missing", "--rates", "0.4", "--models", "HA", "VAR",
        )
        assert "Table I (upper)" in out
        assert "HA" in out and "VAR" in out

    def test_table1_horizon(self, capsys):
        out = run_cli(
            capsys, *COMMON,
            "table1-horizon", "--missing-rate", "0.6", "--models", "HA",
        )
        assert "Table I (lower)" in out
        assert "60%" in out

    def test_fig5(self, capsys):
        out = run_cli(capsys, *COMMON, "fig5", "--lambdas", "1.0")
        assert "lambda" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["make-coffee"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestExport:
    def test_export_writes_bundle(self, capsys, tmp_path):
        base = tmp_path / "bundle" / "fc-lstm"
        out = run_cli(
            capsys, *COMMON,
            "export", "--model", "FC-LSTM", "--skip-training",
            "--output", str(base),
        )
        assert "bundle written" in out
        assert (tmp_path / "bundle" / "fc-lstm.json").exists()
        assert (tmp_path / "bundle" / "fc-lstm.npz").exists()

        from repro.serve import load_bundle

        bundle = load_bundle(str(base))
        assert bundle.model_name == "FC-LSTM"
        assert bundle.num_nodes == 5

    def test_export_trains_when_asked(self, capsys, tmp_path):
        base = tmp_path / "trained"
        out = run_cli(
            capsys, *COMMON,
            "export", "--model", "FC-LSTM", "--output", str(base),
        )
        assert "training FC-LSTM" in out
        assert "bundle written" in out

    def test_export_rejects_statistical_models(self, capsys):
        assert main([*COMMON, "export", "--model", "HA"]) == 2


class TestPlan:
    def test_verify_prints_summed_compile_seconds(self, capsys, tmp_path):
        base = str(tmp_path / "rihgcn")
        run_cli(capsys, *COMMON, "export", "--model", "RIHGCN",
                "--skip-training", "--output", base)
        out = run_cli(capsys, "plan", "--bundle", base, "--verify")
        assert "verify: PASS" in out
        rows = [line.split() for line in out.splitlines()]
        # One plan serves the whole day.
        assert next(r[1] for r in rows if r[:1] == ["plans"]) == "1"
        for name in ("compile_seconds", "trace_seconds"):
            total = next(float(r[2]) for r in rows if r[:2] == [name, "sum"])
            first = next(float(r[1]) for r in rows if r[:1] == [name] and len(r) == 2)
            # The sum is printed to 4 decimals, the plan's own figure in full.
            assert total >= float(f"{first:.4f}") and first > 0, name


class TestReport:
    def test_report_to_stdout(self, capsys):
        out = run_cli(
            capsys, *COMMON,
            "report", "--models", "HA",
            "--skip", "table2", "imputation", "fig4", "fig5",
        )
        assert "# RIHGCN reproduction report" in out
        assert "Table I (upper)" in out
        assert "Table II" not in out

    def test_report_to_file(self, capsys, tmp_path):
        path = tmp_path / "report.md"
        out = run_cli(
            capsys, *COMMON,
            "report", "--models", "HA", "--output", str(path),
            "--skip", "table1-missing", "table1-horizon", "table2",
            "imputation", "fig4",
        )
        assert "report written" in out
        text = path.read_text()
        assert "Figure 5" in text


class TestProfile:
    def test_profile_times_fused_ops(self, capsys, tmp_path):
        record = tmp_path / "profile.jsonl"
        out = run_cli(
            capsys, "--scale", "fast", "--epochs", "2",
            "profile", "--run-record", str(record),
        )
        assert out.count("cheb_propagate") == 1
        row = next(line.split() for line in out.splitlines()
                   if line.startswith("cheb_propagate"))
        assert float(row[2]) > 0  # columns: op, calls, fwd s, bwd s, ...
        assert record.exists()
