"""End-to-end command-line pipeline on a tiny corpus."""

import json
import struct
import warnings

import numpy as np
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
embedding_dim = 8
heads = 4
queue_capacity = 64

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
    bad.write_text(config.read_text().replace("window = 6", "window = 8"))
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


@pytest.mark.parametrize("raw", [
    b"[paths]\ndata_dir = caf\xe9\n",
    b"steps = 5\n",
    b"[training]\nsteps = 5\nsteps = 6\n",
], ids=["not-utf8", "no-section", "duplicate-key"])
def test_malformed_ini_is_config_error(tmp_path, capsys, raw):
    config = tmp_path / "bad.ini"
    config.write_bytes(raw)
    code = _run(["synth", "--config", config, "--out", tmp_path / "out"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: config:")


def test_unparsable_ini_thresholds_is_config_error(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[evaluation]\nthresholds = 0.05,abc\n")
    code = _run(["synth", "--config", config, "--out", tmp_path / "out"])
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


def test_feature_width_comes_from_the_corpus(tmp_path, capsys):
    # No [model] section: the encoders take the 24-wide features' width.
    from eventseg import deserialize_records

    out = tmp_path / "out"
    config = tmp_path / "run.ini"
    text = TINY_CONFIG.format(data_dir=out / "features", annotations=out / "annotations.json")
    model = text[text.index("[model]"):text.index("[detector]")]
    config.write_text(text.replace(model, "").replace("feature_dim = 8", "feature_dim = 24"))
    assert _run(["synth", "--config", config, "--out", out]) == 0
    assert _run(["train", "--config", config, "--out", out]) == 0
    assert _run(["detect", "--config", config, "--out", out,
                 "--checkpoint", out / "checkpoint.bin"]) == 0
    assert _run(["eval", "--config", config, "--out", out]) == 0
    records = deserialize_records((out / "checkpoint.bin").read_bytes())
    assert float(records["meta.input_dim"]) == 24.0
    assert "trained 5 steps" in capsys.readouterr().out


def test_mixed_width_corpus_train_is_data_error(workspace, capsys):
    from eventseg import FrameFeatureSequence, load_feature_file, save_feature_file

    _, config, out = workspace
    _run(["synth", "--config", config, "--out", out])
    path = sorted((out / "features").glob("*.csgf"))[0]
    seq = load_feature_file(path)
    save_feature_file(FrameFeatureSequence(seq.video_id, seq.fps, seq.features[:, :6]), path)
    capsys.readouterr()
    code = _run(["train", "--config", config, "--out", out])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: data:")
    assert "[6, 8]" in err
    assert not (out / "checkpoint.bin").exists()


def test_zero_width_corpus_train_is_data_error(workspace, capsys):
    _, config, out = workspace
    (out / "features").mkdir(parents=True)
    (out / "features" / "v.csgf").write_bytes(struct.pack("<4sHIIf", b"CSGF", 1, 0, 50, 25.0))
    code = _run(["train", "--config", config, "--out", out])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: data:")
    assert "'v'" in err and "(50, 0)" in err


@pytest.mark.parametrize("section, key", [
    ("model", "input_dim"),
    ("reconstruction", "mask_size"),
    ("paths", "out_dir"),
    ("paths", "checkpoint"),
], ids=["input_dim", "mask_size", "out_dir", "checkpoint"])
def test_removed_config_keys_exit_2(tmp_path, capsys, section, key):
    # The input width comes from the features, one frame per snippet is
    # masked, and the output directory and checkpoint are set by --out and
    # --checkpoint: none is a config key.
    config = tmp_path / "old.ini"
    config.write_text(f"[{section}]\n{key} = 1\n")
    code = _run(["train", "--config", config, "--out", tmp_path / "out"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert f"[{section}] unknown key {key!r}" in err


@pytest.mark.parametrize("beta", ["nan", "inf", "-1"])
def test_bad_reconstruction_beta_is_config_error(workspace, capsys, beta):
    # A non-finite beta used to exit 5 after writing an untrained checkpoint,
    # and a negative one trained towards a larger reconstruction error.
    _, config, out = workspace
    config.write_text(config.read_text() + f"\n[reconstruction]\nbeta = {beta}\n")
    code = _run(["train", "--config", config, "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert "beta" in err
    assert not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("section, key", [
    ("optimizer", "learning_rate"),
    ("optimizer", "weight_decay"),
    ("optimizer", "momentum"),
    ("contrastive", "temperature"),
])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_hyperparameter_is_config_error(workspace, capsys, section, key, value):
    # An infinite learning rate or decay used to exit 5 naming a checkpoint
    # that did not load, and an infinite temperature trained without a
    # contrastive gradient and exited 0.
    _, config, out = workspace
    config.write_text(config.read_text() + f"\n[{section}]\n{key} = {value}\n")
    code = _run(["train", "--config", config, "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert key in err
    assert not (out / "checkpoint.bin").exists()


def test_overflowing_update_exits_5_with_a_loadable_checkpoint(workspace, capsys):
    # At learning_rate 1e38 the first update overflows the reconstructor's
    # parameters; sgd_step refuses it before writing any, so the checkpoint
    # holds the initial, finite model.
    from eventseg import load_model

    _, config, out = workspace
    config.write_text(config.read_text() + "\n[optimizer]\nlearning_rate = 1e38\n")
    _run(["synth", "--config", config, "--out", out])
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = _run(["train", "--config", config, "--out", out])
    assert code == 5
    assert capsys.readouterr().err == (
        "error: numerics: training diverged after step 0; "
        f"last good checkpoint at {out / 'checkpoint.bin'}\n"
    )
    enc, rec, queue, _ = load_model(out / "checkpoint.bin")
    assert len(queue) == 0
    assert all(np.isfinite(p.data).all() for p in enc.parameters() + rec.parameters())


def test_diverged_training_exits_5_with_a_loadable_checkpoint(workspace, capsys):
    # After the first update the key encoder overflows, so no key reaches
    # the queue and the step is not counted.
    from eventseg import load_model

    _, config, out = workspace
    config.write_text(config.read_text() + "\n[optimizer]\nlearning_rate = 1e30\n")
    _run(["synth", "--config", config, "--out", out])
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = _run(["train", "--config", config, "--out", out])
    assert code == 5
    captured = capsys.readouterr()
    assert captured.err == (
        "error: numerics: training diverged after step 0; "
        f"last good checkpoint at {out / 'checkpoint.bin'}\n"
    )
    assert captured.out == ""
    _, _, queue, meta = load_model(out / "checkpoint.bin")
    assert meta["window"] == 6 and len(queue) == 0


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


def test_empty_corpus_eval_writes_strict_json(tmp_path):
    # What `detect` writes for an empty corpus, scored against no annotations.
    (tmp_path / "detections.json").write_text("[]")
    (tmp_path / "annotations.json").write_text("[]")
    config = tmp_path / "run.ini"
    config.write_text(f"[paths]\nannotations = {tmp_path / 'annotations.json'}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(["eval", "--config", config, "--out", tmp_path]) == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    metrics = json.loads((tmp_path / "metrics.json").read_text(), parse_constant=reject)
    assert metrics["mof"] == 0.0 and metrics["iou"] == 0.0
    assert metrics["f1"] == [0.0] * 10 and metrics["per_video"] == {}


def test_detect_rejects_corpus_width_mismatch(workspace, capsys):
    from eventseg import FrameFeatureSequence, load_feature_file, save_feature_file

    _, config, out = workspace
    _run(["synth", "--config", config, "--out", out])
    _run(["train", "--config", config, "--out", out])
    path = sorted((out / "features").glob("*.csgf"))[-1]
    seq = load_feature_file(path)
    wide = np.hstack([seq.features, np.zeros((seq.num_frames, 2), dtype=np.float32)])
    save_feature_file(FrameFeatureSequence(seq.video_id, seq.fps, wide), path)
    capsys.readouterr()
    code = _run(["detect", "--config", config, "--out", out,
                 "--checkpoint", out / "checkpoint.bin"])
    assert code == 6
    err = capsys.readouterr().err
    assert err.startswith("error: shape:")
    assert repr(seq.video_id) in err and "10" in err and "input_dim 8" in err
    assert not (out / "detections.json").exists()


def test_short_video_aborts_detect_before_any_detection(workspace, capsys, monkeypatch):
    from eventseg import FrameFeatureSequence, save_feature_file
    from eventseg import detection

    _, config, out = workspace
    _run(["synth", "--config", config, "--out", out])
    _run(["train", "--config", config, "--out", out])
    short = FrameFeatureSequence("zz_short", 25.0, np.ones((5, 8), dtype=np.float32))
    save_feature_file(short, out / "features" / "zz_short.csgf")

    def no_detection(*args, **kwargs):
        raise AssertionError("detection ran before the corpus was checked")

    monkeypatch.setattr(detection, "encode_query", no_detection)
    capsys.readouterr()
    code = _run(["detect", "--config", config, "--out", out,
                 "--checkpoint", out / "checkpoint.bin"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: data:")
    assert "'zz_short'" in err and "5 frames" in err and "window 6" in err
    assert not (out / "detections.json").exists()


def test_non_utf8_checkpoint_record_name_is_format_error(workspace, capsys):
    from eventseg import serialize_records

    _, config, out = workspace
    out.mkdir(parents=True, exist_ok=True)
    blob = serialize_records([("name", np.zeros(2, dtype=np.float32))])
    (out / "bad.bin").write_bytes(blob.replace(b"name", b"n\xffme"))
    code = _run(["detect", "--config", config, "--out", out,
                 "--checkpoint", out / "bad.bin"])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: format:")


def test_non_utf8_detections_json_is_data_error(workspace, capsys):
    _, config, out = workspace
    _run(["synth", "--config", config, "--out", out])
    (out / "detections.json").write_bytes(b'[{"video_id": "caf\xe9"}]')
    code = _run(["eval", "--config", config, "--out", out])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: data:")


@pytest.mark.parametrize("overrides, field", [
    ({"fps": -5}, "fps"),
    ({"fps": float("nan")}, "fps"),
    ({"fps": 10**400}, "fps"),
    ({"num_frames": 0, "boundaries": []}, "num_frames"),
    ({"boundaries": [10], "scores": [float("nan")]}, "scores[0]"),
], ids=["fps-negative", "fps-nan", "fps-401-digits", "num_frames-zero", "scores-nan"])
def test_bad_fps_or_num_frames_is_data_error(workspace, capsys, overrides, field):
    _, config, out = workspace
    _run(["synth", "--config", config, "--out", out])
    records = json.loads((out / "annotations.json").read_text())
    records[0].update(overrides)
    (out / "detections.json").write_text(json.dumps(records))
    code = _run(["eval", "--config", config, "--out", out])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: data:")
    assert f"annotations[0].{field}" in err


def test_num_frames_beyond_the_csgf_range_is_data_error(workspace, capsys):
    # Ground truth and detections agree on a video too long for a float
    # frame index; matching would overflow converting it.
    _, config, out = workspace
    _run(["synth", "--config", config, "--out", out])
    records = json.loads((out / "annotations.json").read_text())
    records[0].update({"num_frames": 10**400, "boundaries": [10**399]})
    (out / "annotations.json").write_text(json.dumps(records))
    (out / "detections.json").write_text(json.dumps(records))
    code = _run(["eval", "--config", config, "--out", out])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: data:")
    assert "annotations[0].num_frames" in err


def test_boundary_at_frame_zero_is_data_error(workspace, capsys):
    # Frame 0 starts the first event; as a boundary it would open an empty
    # first segment.
    _, config, out = workspace
    _run(["synth", "--config", config, "--out", out])
    records = json.loads((out / "annotations.json").read_text())
    (out / "detections.json").write_text(json.dumps(records))
    records[0]["boundaries"] = [0, 50]
    (out / "annotations.json").write_text(json.dumps(records))
    code = _run(["eval", "--config", config, "--out", out])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: data:")
    assert "annotations[0].boundaries[0]" in err


@pytest.mark.parametrize("key, value", [
    ("noise_std", "inf"),
    ("noise_std", "nan"),
    ("drift_std", "inf"),
    ("drift_std", "nan"),
    ("fps", "inf"),
    ("fps", "1e300"),
])
def test_synth_value_its_output_cannot_hold_is_config_error(tmp_path, capsys, key, value):
    # Non-finite noise or drift, or an infinite fps, used to exit 3 on
    # non-finite features; an fps beyond float32 (the CSGF header's type)
    # exited 1 with a traceback after creating features/.
    config = tmp_path / "synth.ini"
    config.write_text(f"[synth]\n{key} = {value}\n")
    code = _run(["synth", "--config", config, "--out", tmp_path / "out"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["noise_std", "drift_std"])
def test_synth_spread_that_overflows_float32_is_one_config_error(tmp_path, capsys, key):
    # A finite spread of 1e300 used to print numpy's "overflow encountered"
    # warning and exit 3 on non-finite features.
    config = tmp_path / "synth.ini"
    config.write_text(f"[synth]\nnum_videos = 2\n{key} = 1e300\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _run(["synth", "--config", config, "--out", tmp_path / "out"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1, err
    assert "[synth] noise_std / drift_std" in err
    assert not (tmp_path / "out").exists()


def test_features_whose_norm_overflows_exit_5_in_one_line(workspace, capsys):
    # drift_std = 1e35 gives finite float32 features whose squares overflow.
    # Their embeddings used to normalise to zeros with numpy's "overflow
    # encountered" warning: train exited 0 and detect wrote no boundaries.
    from eventseg import load_model

    _, config, out = workspace
    config.write_text(config.read_text().replace("drift_std = 0.01", "drift_std = 1e35"))
    assert _run(["synth", "--config", config, "--out", out]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(["train", "--config", config, "--out", out]) == 5
        assert capsys.readouterr().err == (
            "error: numerics: training diverged after step 0; "
            f"last good checkpoint at {out / 'checkpoint.bin'}\n"
        )
        _, _, queue, meta = load_model(out / "checkpoint.bin")
        assert meta["window"] == 6 and len(queue) == 0
        code = _run(["detect", "--config", config, "--out", out,
                     "--checkpoint", out / "checkpoint.bin"])
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("error: numerics: l2_normalize") and err.count("\n") == 1, err
    assert not (out / "detections.json").exists()


@pytest.mark.parametrize("section, key", [
    ("optimizer", "learning_rate"),
    ("optimizer", "weight_decay"),
    ("reconstruction", "beta"),
])
def test_diverged_training_exits_5_in_one_line(workspace, capsys, section, key):
    # Each of these values overflows the first step. The step checks every
    # non-finite value itself, but numpy's overflow warnings, from the
    # calling thread and from the reconstruction branch's worker, used to
    # come before the error line.
    from eventseg import load_model

    _, config, out = workspace
    assert _run(["synth", "--config", config, "--out", out]) == 0
    config.write_text(config.read_text() + f"\n[{section}]\n{key} = 1e38\n")
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run(["train", "--config", config, "--out", out]) == 5
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert err.startswith("error: numerics: training diverged after step ") and (
        err.count("\n") == 1), err
    assert err.endswith(f"last good checkpoint at {out / 'checkpoint.bin'}\n")
    load_model(out / "checkpoint.bin")


def test_overflowing_model_ends_detect_in_one_numerics_line(
    workspace, capsys, monkeypatch, two_cpus
):
    # Finite weights whose products overflow float32: numpy's overflow
    # warnings, from the caller and from a detection worker, used to come
    # before a data error about the trajectory.
    from eventseg import deserialize_records, detection, serialize_records

    _, config, out = workspace
    _run(["synth", "--config", config, "--out", out])
    _run(["train", "--config", config, "--out", out])
    checkpoint = out / "checkpoint.bin"
    records = deserialize_records(checkpoint.read_bytes())
    for name in ("ffr.head.w", "ffr.layer1.mlp.w2"):
        records[name] = records[name] * np.float32(1e36)
    checkpoint.write_bytes(serialize_records(list(records.items())))
    # Small blocks, so the six short videos keep a worker busy too.
    monkeypatch.setattr(detection, "BLOCK_WINDOWS", 16)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = _run(["detect", "--config", config, "--out", out, "--checkpoint", checkpoint])
    assert not caught, [str(w.message) for w in caught]
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("error: numerics: trajectory for ") and err.count("\n") == 1, err


def test_log_every_below_one_is_config_error(workspace, capsys):
    # log_every = 0 used to end training in a ZeroDivisionError traceback.
    _, config, out = workspace
    config.write_text(config.read_text().replace(
        "snippets_per_video = 2\n", "snippets_per_video = 2\nlog_every = 0\n"))
    assert _run(["train", "--config", config, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1, err
    assert "log_every" in err
    assert not out.exists()


@pytest.mark.parametrize("where", ["synth", "training", "flag"])
def test_negative_seed_is_config_error(workspace, capsys, where):
    # numpy's default_rng refuses a negative seed: each of these used to end
    # in a ValueError traceback.
    _, config, out = workspace
    text = config.read_text()
    command, flags = ("synth" if where == "synth" else "train"), []
    if where == "flag":
        flags = ["--seed", "-1"]
    else:
        anchor = "drift_std = 0.01\n" if where == "synth" else "snippets_per_video = 2\n"
        text = text.replace(anchor + "seed = 3", anchor + "seed = -1")
        assert "seed = -1" in text
    config.write_text(text)
    assert _run([command, "--config", config, "--out", out, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1, err
    assert "seed must be >= 0, got -1" in err
    assert not out.exists()


def test_failed_allocation_is_one_memory_line(workspace, fresh_python):
    # A queue of 10**9 rows needs 60 GiB. Under a 2 GiB address-space limit,
    # set in the child process only, numpy cannot allocate it; that used to
    # end in an 18-line traceback.
    _, config, out = workspace
    assert _run(["synth", "--config", config, "--out", out]) == 0
    config.write_text(config.read_text().replace("capacity = 64", "capacity = 1000000000"))
    script = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)); "
              "import eventseg.cli; sys.exit(eventseg.cli.main(sys.argv[1:]))")
    result = fresh_python("-c", script, "train", "--config", config, "--out", out, timeout=120)
    assert result.returncode == 1
    err = result.stderr
    assert err.startswith("error: memory:") and err.count("\n") == 1, err
    assert not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("model", [
    "embedding_dim = 15\nheads = 5",
    "embedding_dim = 0",
    "input_dim = 0",
    "embedding_dim = -4\nheads = 4",
    "heads = 0",
], ids=["odd-dim", "zero-dim", "zero-input-dim", "negative-dim", "zero-heads"])
def test_unbuildable_model_is_config_error(tmp_path, capsys, model):
    config = tmp_path / "bad.ini"
    config.write_text(f"[model]\n{model}\n")
    code = _run(["train", "--config", config, "--out", tmp_path / "out"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: config:")


@pytest.mark.parametrize("key, value", [
    ("queue_capacity", 0),
    ("heads", 3),
    ("input_dim", 2.5),
    ("layers", 0),
    ("embedding_dim", 0),
    ("alpha", 1.5),
    ("window", 2),
    ("heads", [4, 4]),
    ("input_dim", 0),
])
def test_checkpoint_meta_outside_model_rules_is_format_error(workspace, capsys, key, value):
    from eventseg import deserialize_records, serialize_records

    _, config, out = workspace
    _run(["synth", "--config", config, "--out", out])
    _run(["train", "--config", config, "--out", out])
    path = out / "checkpoint.bin"
    records = deserialize_records(path.read_bytes())
    records[f"meta.{key}"] = np.asarray(value, dtype=np.float32)
    path.write_bytes(serialize_records(list(records.items())))
    capsys.readouterr()
    code = _run(["detect", "--config", config, "--out", out, "--checkpoint", path])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: format:")
    assert "meta" in err and key in err


@pytest.mark.parametrize("argv", [
    ["synth", "--checkpoint", "x"],
    ["synth", "--thresholds", "9,9"],
    ["synth", "--dump-trajectory"],
    ["train", "--thresholds", "0"],
    ["train", "--dump-trajectory"],
    ["detect", "--thresholds", "0.05"],
    ["eval", "--checkpoint", "x"],
    ["eval", "--dump-trajectory"],
    ["eval", "--thresholds", "0.05"],
])
def test_flag_a_subcommand_does_not_read_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        _run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
