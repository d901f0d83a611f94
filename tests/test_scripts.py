import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_witness_demo_reverifies_both_witnesses(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["witness_demo.py"])
    runpy.run_path(str(SCRIPTS / "witness_demo.py"), run_name="__main__")
    out = capsys.readouterr().out
    verdicts = [line.split(":", 1)[1].strip() for line in out.splitlines() if "re-verified" in line]
    assert verdicts == ["True", "True"]


def test_circular_census_checks_every_image(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["circular_census.py", "--max-window", "5"])
    runpy.run_path(str(SCRIPTS / "circular_census.py"), run_name="__main__")
    out = capsys.readouterr().out
    checked = [line.split()[1] for line in out.splitlines() if "realizable" in line]
    assert checked == ["2", "6", "24"]
