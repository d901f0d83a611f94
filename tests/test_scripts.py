import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_witness_demo_reverifies_both_witnesses(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["witness_demo.py"])
    runpy.run_path(str(SCRIPTS / "witness_demo.py"), run_name="__main__")
    out = capsys.readouterr().out
    verdicts = [line.split(":", 1)[1].strip() for line in out.splitlines() if "re-verified" in line]
    assert verdicts == ["True", "True"]
