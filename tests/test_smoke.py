"""``repro smoke <name>``: the registry, the shared verdict path and the
in-process smokes end to end at the CI settings."""

import json

import pytest

from repro import smoke
from repro.cli import SMOKE_NAMES, main


def test_parser_choices_match_registry():
    assert SMOKE_NAMES == tuple(smoke.SMOKES)


@pytest.mark.parametrize("name", ["serve", "chaos", "fleet", "slo"])
def test_smoke_passes_and_writes_report(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    code = main(["--scale", "fast", "smoke", name, "--report", str(path)])
    out = capsys.readouterr().out
    report = json.loads(path.read_text())
    assert code == 0, out
    assert report["passed"] is True
    assert report["checks"] and all(report["checks"].values()), report["checks"]
    assert out.rstrip().endswith("verdict: PASS")


def test_failing_check_exits_1_and_still_writes_report(monkeypatch, tmp_path, capsys):
    def broken(data, model, trainer):
        return {"checks": {"holds": True, "breaks": False}, "passed": False}

    monkeypatch.setitem(smoke.SMOKES, "chaos", broken)
    path = tmp_path / "report.json"
    code = main(["--scale", "fast", "smoke", "chaos", "--report", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(path.read_text())["checks"] == {"holds": True, "breaks": False}
    assert "FAIL  breaks" in out and "PASS  holds" in out
    assert out.rstrip().endswith("verdict: FAIL")
