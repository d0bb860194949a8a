"""End-to-end command-line pipeline on a tiny corpus."""

import json

import pytest

from eventseg.cli import main

TINY_CONFIG = """
[synth]
num_videos = 6
events_per_video = 2,3
event_length = 12,20
feature_dim = 8
num_prototypes = 4
noise_std = 0.05
drift_std = 0.01
seed = 3

[model]
input_dim = 8
embedding_dim = 8
heads = 4
queue_capacity = 64

[contrastive]
window = 6

[reconstruction]
window = 6

[detector]
window = 6
fir_half_width = 1
extrema_range = 3

[training]
steps = 5
batch_videos = 3
snippets_per_video = 2
seed = 3

[paths]
data_dir = {data_dir}
annotations = {annotations}
"""


@pytest.fixture
def workspace(tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "run.ini"
    config.write_text(
        TINY_CONFIG.format(
            data_dir=out / "features", annotations=out / "annotations.json"
        )
    )
    return tmp_path, config, out


def _run(args):
    return main([str(a) for a in args])


def test_full_pipeline(workspace, capsys):
    tmp_path, config, out = workspace
    assert _run(["synth", "--config", config, "--out", out]) == 0
    features = sorted((out / "features").glob("*.csgf"))
    assert len(features) == 6
    assert (out / "annotations.json").exists()

    assert _run(["train", "--config", config, "--out", out]) == 0
    assert (out / "checkpoint.bin").exists()
    log_lines = (out / "training_log.csv").read_text().strip().splitlines()
    assert log_lines[0] == "step,contrastive,reconstruction,total"
    assert len(log_lines) == 6

    assert _run([
        "detect", "--config", config, "--out", out,
        "--checkpoint", out / "checkpoint.bin", "--dump-trajectory",
    ]) == 0
    detections = json.loads((out / "detections.json").read_text())
    assert len(detections) == 6
    assert all("scores" in d for d in detections)
    dumps = sorted((out / "trajectories").glob("*.csv"))
    assert len(dumps) == 6
    header = dumps[0].read_text().splitlines()[0]
    assert header == "frame,error,smoothed,gradient"

    assert _run(["eval", "--config", config, "--out", out]) == 0
    report = json.loads((out / "metrics.json").read_text())
    assert len(report["f1"]) == 10
    assert (out / "metrics.txt").exists()
    table = capsys.readouterr().out
    assert "avg" in table


def test_pipeline_reproducible(workspace):
    tmp_path, config, out = workspace
    _run(["synth", "--config", config, "--out", out])
    _run(["train", "--config", config, "--out", out])
    _run(["detect", "--config", config, "--out", out,
          "--checkpoint", out / "checkpoint.bin"])
    first = {
        name: (out / name).read_bytes()
        for name in ("checkpoint.bin", "detections.json", "training_log.csv")
    }
    _run(["synth", "--config", config, "--out", out])
    _run(["train", "--config", config, "--out", out])
    _run(["detect", "--config", config, "--out", out,
          "--checkpoint", out / "checkpoint.bin"])
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob, name


def test_detect_rejects_window_mismatch(workspace, tmp_path, capsys):
    _, config, out = workspace
    _run(["synth", "--config", config, "--out", out])
    _run(["train", "--config", config, "--out", out])
    bad = tmp_path / "bad.ini"
    bad.write_text(
        config.read_text()
        .replace("window = 6", "window = 8")
        .replace("event_length = 12,20", "event_length = 12,20")
    )
    code = _run(["detect", "--config", bad, "--out", out,
                 "--checkpoint", out / "checkpoint.bin"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")


def test_eval_reports_missing_ids(workspace, capsys):
    _, config, out = workspace
    _run(["synth", "--config", config, "--out", out])
    _run(["train", "--config", config, "--out", out])
    _run(["detect", "--config", config, "--out", out,
          "--checkpoint", out / "checkpoint.bin"])
    detections = json.loads((out / "detections.json").read_text())
    (out / "detections.json").write_text(json.dumps(detections[:-1]))
    code = _run(["eval", "--config", config, "--out", out])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: data:")
    assert "synth0005" in err


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[training]\nstepz = 5\n")
    code = _run(["synth", "--config", config, "--out", tmp_path / "out"])
    assert code == 2
    assert "stepz" in capsys.readouterr().err


def test_unparsable_ini_thresholds_is_config_error(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[evaluation]\nthresholds = 0.05,abc\n")
    code = _run(["synth", "--config", config, "--out", tmp_path / "out"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: config:")


@pytest.mark.parametrize("thresholds", ["0,1.5", "0.05,abc"])
def test_bad_eval_thresholds_flag_is_config_error(workspace, capsys, thresholds):
    _, config, out = workspace
    code = _run(["eval", "--config", config, "--out", out, "--thresholds", thresholds])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: config:")


def test_missing_checkpoint_is_io_error(workspace, capsys):
    _, config, out = workspace
    _run(["synth", "--config", config, "--out", out])
    code = _run(["detect", "--config", config, "--out", out,
                 "--checkpoint", out / "no_such.bin"])
    assert code == 7
    assert capsys.readouterr().err.startswith("error: io:")


def test_malformed_detections_json_is_data_error(workspace, capsys):
    _, config, out = workspace
    _run(["synth", "--config", config, "--out", out])
    out.mkdir(parents=True, exist_ok=True)
    (out / "detections.json").write_text("{not json")
    code = _run(["eval", "--config", config, "--out", out])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: data:")


def test_empty_corpus_train_is_data_error(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text(f"[paths]\ndata_dir = {tmp_path/'nothing'}\n")
    code = _run(["train", "--config", config, "--out", tmp_path / "out"])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: data:")


def test_empty_corpus_detect_writes_empty_output(workspace, tmp_path):
    _, config, out = workspace
    _run(["synth", "--config", config, "--out", out])
    _run(["train", "--config", config, "--out", out])
    for p in (out / "features").glob("*.csgf"):
        p.unlink()
    code = _run(["detect", "--config", config, "--out", out,
                 "--checkpoint", out / "checkpoint.bin"])
    assert code == 0
    assert json.loads((out / "detections.json").read_text()) == []
