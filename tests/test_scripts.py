import ast
import runpy
from pathlib import Path

from orderflow import Window, random_linear_order

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_witness_demo_reverifies_both_witnesses(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["witness_demo.py"])
    runpy.run_path(str(SCRIPTS / "witness_demo.py"), run_name="__main__")
    out = capsys.readouterr().out
    verdicts = [line.split(":", 1)[1].strip() for line in out.splitlines() if "re-verified" in line]
    assert verdicts == ["True", "True"]
    # the points the proximality witness uses: |W| of them, rising under
    # the first order (the demo's defaults: ground 256, window 4, seed 0)
    [used] = [
        ast.literal_eval(line.split(":", 1)[1].strip())
        for line in out.splitlines()
        if "points used" in line
    ]
    o1 = random_linear_order(Window(tuple(range(256))), 2)
    ranks = [o1.rank_of(x) for x in used]
    assert len(set(used)) == 4
    assert ranks == sorted(ranks)


def test_circular_census_checks_every_image(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["circular_census.py", "--max-window", "5"])
    runpy.run_path(str(SCRIPTS / "circular_census.py"), run_name="__main__")
    out = capsys.readouterr().out
    checked = [line.split()[1] for line in out.splitlines() if "realizable" in line]
    assert checked == ["2", "6", "24"]


def test_frequency_convergence_prints_a_row_per_budget(monkeypatch, capsys):
    monkeypatch.setattr(
        "sys.argv", ["frequency_convergence.py", "--trials", "1000", "2000", "--sources", "2"]
    )
    runpy.run_path(str(SCRIPTS / "frequency_convergence.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "pattern window size 3, exact frequency 0.166667"
    assert lines[1].split() == ["trials", "source0", "source1", "3-sigma"]
    assert [line.split()[0] for line in lines[2:]] == ["1000", "2000"]
    assert all(len(line.split()) == 4 for line in lines[2:])
