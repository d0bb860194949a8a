"""Detect event boundaries from the reconstruction-error trajectory.

After training, every frame of a video is reconstructed from its masked
window. Frames inside an event reconstruct well; frames near a boundary sit
in a heterogeneous window and reconstruct poorly. The per-frame error is
smoothed, differentiated, and the strict local maxima of the gradient within
a +-extrema_range neighbourhood become the detected boundaries.

The extrema range sets the detector's scale: it must stay well under the
event length (so neighbouring boundaries never suppress each other) but wide
enough that small ripples of the error floor do not fire. Here events run
45-70 frames and the range is 22.
"""

import dataclasses

from eventseg import (
    RunConfig,
    annotations_by_id,
    detect_corpus,
    evaluate_corpus,
    run_training,
    synth_generate,
)

cfg = RunConfig()
cfg.synth = dataclasses.replace(
    cfg.synth, num_videos=12, noise_std=0.05, drift_std=0.01,
    event_length=(45, 70), seed=7,
)
cfg.training = dataclasses.replace(cfg.training, steps=700, batch_videos=8)
cfg.model = dataclasses.replace(cfg.model, queue_capacity=256)
cfg.detector = dataclasses.replace(cfg.detector, fir_half_width=5, extrema_range=22)

corpus, annotations = synth_generate(cfg.synth)
ann_map = annotations_by_id(annotations)
print(f"training on {len(corpus)} videos ...")
result = run_training(corpus, cfg)

detections, signals = detect_corpus(
    corpus, result.encoders, result.reconstructor, cfg.detector
)
video = corpus[1]
truth = ann_map[video.video_id].boundaries
detected, (raw, smoothed, grad) = detections[video.video_id], signals[video.video_id]
print(f"\n{video.video_id}: {video.num_frames} frames")
print(f"true boundaries:     {truth}")
print(f"detected boundaries: {detected.boundaries}")

# A bar per frame, sampled every 4 frames: the error trajectory in ASCII.
peak = raw.max()
print("\nerror trajectory (B = true boundary, D = detection):")
for t in range(0, video.num_frames, 4):
    bar = "#" * int(30 * raw[t] / peak)
    marks = ""
    if any(abs(t - b) <= 2 for b in truth):
        marks += " B"
    if any(abs(t - d) <= 2 for d in detected.boundaries):
        marks += " D"
    print(f"  {t:4d} {bar}{marks}")

report = evaluate_corpus(detections, ann_map, cfg.evaluation.thresholds)
print(f"\ncorpus F1@0.05 = {report.f1[0]:.3f}  "
      f"(precision {report.precision[0]:.3f}, recall {report.recall[0]:.3f})")
