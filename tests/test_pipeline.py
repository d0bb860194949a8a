"""Training-dependent oracles: seeded short runs with pinned outcomes.

Expected values here come from verified runs of this code base and are
frozen; the runs are deterministic under their seeds, so drift in any of
these numbers means behaviour changed.
"""

import dataclasses

import numpy as np
import pytest

from eventseg import (
    DetectorConfig,
    RunConfig,
    SynthConfig,
    annotations_by_id,
    detect_corpus,
    error_trajectory,
    run_training,
    synth_generate,
)


def test_200_step_training_oracle():
    # Default corpus, 200 steps. The reconstruction loss collapses early
    # (verified ratio 0.2146); the contrastive term meanwhile grows with the
    # filling negative queue, so the joint loss is not yet below its start.
    cfg = RunConfig()
    cfg.training = dataclasses.replace(cfg.training, steps=200)
    corpus, _ = synth_generate(cfg.synth)
    result = run_training(corpus, cfg)
    first, last = result.history[0], result.history[-1]
    assert first["contrastive"] == pytest.approx(3.918946, rel=1e-4)
    assert first["reconstruction"] == pytest.approx(2.021512, rel=1e-4)
    assert last["reconstruction"] <= 0.5 * first["reconstruction"]
    assert last["reconstruction"] == pytest.approx(0.433805, rel=5e-3)
    assert last["contrastive"] > first["contrastive"]
    assert len(result.queue) == min(200 * 32, cfg.model.queue_capacity)
    assert result.completed_steps == len(result.history) == 200


def _clean_models(seed, events, steps=150):
    cfg = RunConfig()
    cfg.synth = SynthConfig(
        num_videos=8, events_per_video=(events, events), event_length=(25, 35),
        feature_dim=16, num_prototypes=5 if events == 3 else 4,
        noise_std=0.0, drift_std=0.0, seed=seed,
    )
    cfg.model = dataclasses.replace(cfg.model, queue_capacity=128)
    cfg.training = dataclasses.replace(cfg.training, steps=steps, batch_videos=4)
    corpus, annotations = synth_generate(cfg.synth)
    result = run_training(corpus, cfg)
    return cfg, corpus, annotations_by_id(annotations), result


def test_error_peaks_at_boundary_on_clean_stream():
    # Noise-free two-event videos with orthogonal-ish prototypes: after a
    # short training run the largest reconstruction error must sit within
    # two frames of the true boundary.
    cfg, corpus, ann_map, result = _clean_models(seed=13, events=2)
    for seq in corpus:
        boundary = ann_map[seq.video_id].boundaries[0]
        values = error_trajectory(
            seq, result.encoders, result.reconstructor, cfg.detector
        ).values
        assert abs(int(np.argmax(values)) - boundary) <= 2, seq.video_id


def test_end_to_end_detection_on_clean_three_event_stream():
    # Noise-free three-event videos: the full pipeline recovers exactly the
    # two boundaries, each within Rel.Dis 0.05 of ground truth.
    cfg, corpus, ann_map, result = _clean_models(seed=29, events=3)
    det_cfg = DetectorConfig(window=10, fir_half_width=2, extrema_range=8)
    detections, _ = detect_corpus(corpus, result.encoders, result.reconstructor, det_cfg)
    for seq in corpus:
        truth = ann_map[seq.video_id].boundaries
        detected = detections[seq.video_id]
        assert len(detected.boundaries) == 2, seq.video_id
        for frame in detected.boundaries:
            assert min(abs(frame - b) / seq.num_frames for b in truth) <= 0.05
