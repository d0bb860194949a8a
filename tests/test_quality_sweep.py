"""The quality sweep in ``tests/quality_sweep.py`` runs end to end: a few
training steps on two seeds and two regimes, in this process and in
spawned workers."""

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
