"""The quality sweep in ``tests/quality_sweep.py`` runs end to end: a few
training steps on two seeds and two regimes, in this process and in
spawned workers. Its comparison of two sweeps reads hand-made CSVs."""

import csv
import math

import pytest

import quality_sweep
from eventseg import ConfigError
from quality_sweep import COLUMNS, main, run_one, sweep


@pytest.mark.parametrize("regimes", [["default", "noise_std=0.3", "defualt"],
                                     ["noise_std=0.3", "3"], ["default", "nosie_std=0.3"]],
                         ids=",".join)
def test_a_bad_regime_stops_the_sweep_before_any_run(monkeypatch, tmp_path, regimes):
    # The last regime is the bad one, and the error names its own key.
    calls = []
    monkeypatch.setattr(quality_sweep, "run_one", lambda *run: calls.append(run))
    bad = regimes[-1].partition("=")[0]
    with pytest.raises((ConfigError, ValueError), match=f"no key '{bad}'"):
        main(["--steps", "8", "--regimes", *regimes, "--out", str(tmp_path / "sweep.csv")])
    assert calls == []


def test_sweep_writes_one_finite_row_per_run(monkeypatch, tmp_path):
    monkeypatch.setattr(quality_sweep, "_usable_cpus", lambda: 1)
    out = tmp_path / "sweep.csv"
    assert main(["--seeds", "7", "8", "--steps", "8", "--regimes", "default", "noise_std=0.3",
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == COLUMNS
    assert [(row["seed"], row["regime"]) for row in rows] == [
        ("7", "default"), ("7", "noise_std=0.3"), ("8", "default"), ("8", "noise_std=0.3")]
    for row in rows:
        assert all(math.isfinite(float(row[key])) for key in reader.fieldnames[2:]), row
        assert int(row["detections"]) > 0 and int(row["truths"]) > 0
    again = {key: str(value) for key, value in run_one(8, "noise_std=0.3", 8).items()}
    assert {**again, "wall_s": ""} == {**rows[3], "wall_s": ""}


def test_spawned_workers_give_the_rows_of_one_process(monkeypatch):
    monkeypatch.setattr(quality_sweep, "_usable_cpus", lambda: 2)
    rows = sweep([7], ["default", "noise_std=0.3"], 4)
    assert [(row["seed"], row["regime"]) for row in rows] == [
        (7, "default"), (7, "noise_std=0.3")]
    for row in rows:
        alone = run_one(row["seed"], row["regime"], 4)
        assert {**alone, "wall_s": 0} == {**row, "wall_s": 0}


def _write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["seed", "regime", "f1@0.05", "ratio_to_random",
                                                "mof", "wall_s"])
        writer.writeheader()
        writer.writerows(rows)


def test_compare_prints_medians_and_per_seed_changes(tmp_path, capsys):
    def row(seed, regime, f1, ratio, mof):
        return {"seed": seed, "regime": regime, "f1@0.05": f1, "ratio_to_random": ratio,
                "mof": mof, "wall_s": 1.0}

    before, after = tmp_path / "before.csv", tmp_path / "after.csv"
    _write_rows(before, [row(7, "default", 0.8, 3.0, 0.9), row(8, "default", 0.6, 2.0, 0.7),
                         row(9, "default", 0.7, 2.5, 0.8), row(7, "noise_std=0.3", 0.5, 1.5, 0.6)])
    # Seed 10 ran only after; the noisy regime lost 0.1 of F1.
    _write_rows(after, [row(8, "default", 0.6, 2.0, 0.75), row(7, "default", 0.9, 3.5, 0.9),
                        row(9, "default", 0.7, 2.5, 0.8), row(10, "default", 0.1, 0.1, 0.1),
                        row(7, "noise_std=0.3", 0.4, 1.5, 0.6)])
    assert main(["--compare", str(before), str(after)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:5] for line in lines] == [
        ["default", "f1@0.05", "0.7000", "->", "0.7000"],
        ["default", "ratio_to_random", "2.5000", "->", "2.5000"],
        ["default", "mof", "0.8000", "->", "0.8000"],
        ["noise_std=0.3", "f1@0.05", "0.5000", "->", "0.4000"],
        ["noise_std=0.3", "ratio_to_random", "1.5000", "->", "1.5000"],
        ["noise_std=0.3", "mof", "0.6000", "->", "0.6000"],
    ]
    assert lines[0].endswith("per seed 7:+0.1000 8:+0.0000 9:+0.0000")
    assert lines[2].endswith("per seed 7:+0.0000 8:+0.0500 9:+0.0000")
    assert lines[3].endswith("per seed 7:-0.1000")
