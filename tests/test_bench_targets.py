"""The benchmark's hooks still fit the package.

``bench/tracer.py`` wraps the functions listed in its ``TARGETS`` table and
silently skips a name that no longer resolves, which would leave a per-layer
metric empty. Its attribute functions read the arguments and results of the
calls they time, and ``bench/inputs.py`` builds boundary records by
position. These tests load both files by path (without installing anything)
and run them on real package objects, so a rename, a move, a dropped
attribute or a reordered constructor fails here instead of only under
``bench/run.py --trace 1``. The worker's window-slice oracle reads the
detector window from an INI file and the models from a checkpoint; it runs
here on a tiny one-video corpus.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from eventseg import reconstruction
from eventseg import (
    ContrastiveConfig,
    DetectorConfig,
    EncoderPair,
    MemoryQueue,
    Reconstructor,
    SynthConfig,
    build_models,
    detect_corpus,
    encode_query,
    error_trajectory,
    info_nce_loss,
    load_config,
    match_boundaries,
    save_corpus,
    save_model,
    segment_scores,
    synth_generate,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = _load("tracer").TARGETS
    assert targets
    for span, (module_name, qualname, _, _) in targets.items():
        owner = importlib.import_module(module_name)
        for part in qualname.split("."):
            assert hasattr(owner, part), f"{span}: {module_name}.{qualname}"
            owner = getattr(owner, part)
        assert callable(owner), f"{span}: {module_name}.{qualname}"


def test_tracer_attributes_read_detections_and_annotations():
    tracer = _load("tracer")
    corpus, annotations = synth_generate(SynthConfig(num_videos=1, feature_dim=6, seed=3))
    video, truth = corpus[0], annotations[0]
    rng = np.random.default_rng(0)
    enc, rec = EncoderPair(6, 8, 0.999, rng), Reconstructor(8, 4, 2, rng)
    cfg = DetectorConfig(window=10, fir_half_width=2, extrema_range=5)
    detected = detect_corpus([video], enc, rec, cfg)[0][video.video_id]
    n_det, n_gt = len(detected.boundaries), len(truth.boundaries)
    assert n_det and n_gt

    args = (detected, truth, 0.05)
    attrs = tracer._match_attrs(args, {}, match_boundaries(*args))
    assert attrs == {"dets": n_det, "pairs": n_det * n_gt}
    args = (detected, truth)
    assert tracer._segment_attrs(args, {}, segment_scores(*args)) == {"gt": n_gt}
    args = (video, enc, rec, cfg)
    attrs = tracer._trajectory_attrs(args, {}, error_trajectory(*args))
    assert attrs == {"frames": video.num_frames}


def test_tracer_attributes_read_the_info_nce_queue(monkeypatch):
    # Record the loss call contrastive_loss really makes and read it back.
    tracer = _load("tracer")
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return info_nce_loss(*args, **kwargs)

    monkeypatch.setattr(reconstruction, "info_nce_loss", record)
    rng = np.random.default_rng(1)
    enc = EncoderPair(6, 8, 0.999, rng)
    queue = MemoryQueue(16, 8)
    queue.extend(rng.normal(size=(7, 8)))
    batch = rng.normal(size=(2, 3, 6)).astype(np.float32)
    h = encode_query(batch.reshape(6, 6), enc)
    loss = reconstruction.contrastive_loss(h, batch, enc, queue, ContrastiveConfig())
    ((args, kwargs),) = calls
    assert tracer._info_nce_attrs(args, kwargs, loss) == {"queue": len(queue)}


def test_bench_trim_cuts_a_video_and_its_record():
    inputs = _load("inputs")
    corpus, annotations = synth_generate(SynthConfig(num_videos=1, seed=3))
    seq, ann = inputs._trim(corpus[0], annotations[0], 100)
    assert seq.num_frames == ann.num_frames == 100
    assert (seq.video_id, ann.video_id, ann.fps) == ("synth0000", "synth0000", corpus[0].fps)
    assert ann.boundaries == [b for b in annotations[0].boundaries if b < 100]
    assert ann.boundaries


def test_bench_slice_oracle_reads_the_config_window_and_checkpoint(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # the worker imports ``inputs``
    worker = _load("worker")
    corpus, _ = synth_generate(SynthConfig(num_videos=1, feature_dim=6, seed=3))
    save_corpus(corpus, tmp_path / "features")
    config = tmp_path / "run.ini"
    config.write_text(
        "[model]\nembedding_dim = 8\nheads = 4\nqueue_capacity = 8\n\n"
        f"[detector]\nwindow = 6\n\n[paths]\ndata_dir = {tmp_path / 'features'}\n"
    )
    enc, rec, queue = build_models(load_config(config).model, 6, np.random.default_rng(0))
    save_model(tmp_path / "model.bin", enc, rec, queue, 6)
    result = worker.slice_oracle({
        "config": str(config), "checkpoint": str(tmp_path / "model.bin"),
        "seed": 0, "frames": 6,
    })
    assert result["frames"] == 6
    assert result["worst_rel_err"] < 1e-4
