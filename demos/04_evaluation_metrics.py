"""Walk through the scoring machinery on hand-built boundary records.

Detections and ground truth are both ``Annotation`` records: a video id, its
frame count and fps, and its boundary frames.

Boundary scoring: a detection is correct when its distance to a matched
ground-truth boundary, divided by the video length, stays under a threshold;
precision/recall/F1 follow from a one-to-one maximum matching. Segment
scoring: boundaries induce segments, segments are matched per video by
maximum frame overlap, and MoF / IoU score the matched intersections.
"""

from eventseg import (
    Annotation,
    annotations_by_id,
    boundaries_to_segments,
    evaluate_corpus,
    hungarian_match,
    match_boundaries,
    mof_iou,
    precision_recall_f1,
)

video_len = 100
truth = Annotation("demo", video_len, 25.0, [30, 60])
detected = Annotation("demo", video_len, 25.0, [28, 61, 90])

print("boundary matching at different Rel.Dis thresholds:")
for threshold in (0.01, 0.05, 0.5):
    result = match_boundaries(detected, truth, threshold)
    p, r, f1 = precision_recall_f1(
        len(result.pairs), len(detected.boundaries), len(truth.boundaries)
    )
    print(f"  threshold {threshold:4.2f}: pairs={result.pairs}  "
          f"P={p:.2f} R={r:.2f} F1={f1:.2f}")

pred_segments = boundaries_to_segments(detected)
true_segments = boundaries_to_segments(truth)
print(f"\npredicted segments: {pred_segments.segments}")
print(f"true segments:      {true_segments.segments}")
matching = hungarian_match(pred_segments, true_segments)
mof, iou = mof_iou(pred_segments, true_segments, matching)
print(f"segment matching {matching.pairs} -> MoF={mof:.3f} IoU={iou:.3f}")

# Corpus-level report: micro-averaged P/R/F1 per threshold plus MoF/IoU.
detections = {"demo": detected, "other": Annotation("other", 50, 25.0, [25])}
annotations = annotations_by_id([
    Annotation("demo", video_len, 25.0, [30, 60]),
    Annotation("other", 50, 25.0, [24]),
])
report = evaluate_corpus(detections, annotations)
print("\ncorpus report:")
print(report.to_text_table())
