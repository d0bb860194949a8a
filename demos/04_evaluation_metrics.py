"""Walk through the scoring machinery on hand-built boundary records.

Detections and ground truth are both ``Annotation`` records: a video id, its
frame count and fps, and its boundary frames.

Boundary scoring: a detection is correct when its distance to a matched
ground-truth boundary, divided by the video length, stays under a threshold;
precision/recall/F1 follow from a one-to-one maximum matching, whose
(detection, truth) index pairs ``match_boundaries`` returns. Segment scoring:
boundaries split a video into segments, segments are matched per video by
maximum frame overlap (the largest IoU among ties), and ``segment_scores``
returns MoF / IoU of the matched intersections. ``evaluate_corpus`` needs only
the matched counts, which it finds with a sweep instead of the pairs.
"""

from eventseg import (
    Annotation,
    annotations_by_id,
    evaluate_corpus,
    match_boundaries,
    precision_recall_f1,
    segment_scores,
)

video_len = 100
truth = Annotation("demo", video_len, 25.0, [30, 60])
detected = Annotation("demo", video_len, 25.0, [28, 61, 90])

print("boundary matching at different Rel.Dis thresholds:")
for threshold in (0.01, 0.05, 0.5):
    pairs = match_boundaries(detected, truth, threshold)
    p, r, f1 = precision_recall_f1(
        len(pairs), len(detected.boundaries), len(truth.boundaries)
    )
    print(f"  threshold {threshold:4.2f}: pairs={pairs}  "
          f"P={p:.2f} R={r:.2f} F1={f1:.2f}")

# Segments run from one boundary to the next: [0, b1), [b1, b2), ..., [bn, F).
print(f"\npredicted boundaries {detected.boundaries} of {video_len} frames")
print(f"true boundaries      {truth.boundaries} of {video_len} frames")
mof, iou = segment_scores(detected, truth)
print(f"segment scores -> MoF={mof:.3f} IoU={iou:.3f}")

# Corpus-level report: micro-averaged P/R/F1 per threshold plus MoF/IoU.
detections = {"demo": detected, "other": Annotation("other", 50, 25.0, [25])}
annotations = annotations_by_id([
    Annotation("demo", video_len, 25.0, [30, 60]),
    Annotation("other", 50, 25.0, [24]),
])
report = evaluate_corpus(detections, annotations)
print("\ncorpus report:")
print(report.to_text_table())
