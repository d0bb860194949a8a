"""Boundary and segment scoring.

Detections and ground truth are both ``data.Annotation`` records, which
``evaluate_corpus`` takes keyed by video id (see ``data.annotations_by_id``).

Boundary detections are scored by relative distance: |detected - truth|
divided by the video length, correct when at or below a threshold. Matching
is maximum-cardinality one-to-one. ``evaluate_corpus`` needs only the
matched count, which a two-pointer sweep over the sorted boundaries gives
exactly: match the two leftmost unmatched points when they lie within the
threshold, otherwise drop the one further left, which nothing further right
can reach. ``match_boundaries`` lists the matched (detection, truth)
index pairs themselves, with the smallest total distance among maximum
matchings, in temporal order. Swapping two crossing pairs keeps both within
the threshold and does not grow the total, so some optimal matching has no
crossings, and a dynamic programme over the two sorted lists finds one.

Segment metrics (MoF, IoU) split each video at its boundaries, pair detected
with true segments one-to-one for the largest total frame overlap, and score
the paired intersections against the ground-truth segments. Segments that
overlap form a monotone staircase of at most n + m - 1 cells, and two
crossing pairs cannot both overlap, so one walk along the staircase finds
the largest overlap. Where several pairings reach it, the one with the
largest IoU counts. Corpus precision, recall, and F1 are micro-averaged over
boundary counts; per-video numbers are kept alongside for inspection. A
corpus with no videos scores 0.0 throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import Annotation
from .errors import ConfigError, DataError

DEFAULT_THRESHOLDS = tuple(round(0.05 * k, 2) for k in range(1, 11))


@dataclass
class EvaluationConfig:
    """Rel.Dis thresholds that ``eval`` scores boundaries at."""

    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS

    def __post_init__(self):
        if not self.thresholds or any(not 0 < t <= 1 for t in self.thresholds):
            raise ConfigError(f"thresholds must lie in (0, 1], got {self.thresholds}")


def _check_same_video(det: Annotation, gt: Annotation) -> None:
    if det.video_id != gt.video_id or det.num_frames != gt.num_frames:
        raise DataError(
            f"matching needs the same video: {det.video_id!r}/{det.num_frames} vs "
            f"{gt.video_id!r}/{gt.num_frames}"
        )


def match_boundaries(det: Annotation, gt: Annotation, threshold: float) -> list[tuple[int, int]]:
    """Maximum-cardinality one-to-one matching among pairs within threshold.

    Among maximum matchings the one with the smallest total distance wins;
    its (detection, truth) index pairs are listed in temporal order and
    never cross. Ties: among the optimal non-crossing matchings, the one
    whose pair list, read from the last pair backwards, is smallest, each
    pair compared by detection index first, then by truth index.

    ``best[i, j]`` scores the best matching of the first i detections with
    the first j truths as count * weight - total frame distance, with the
    weight above any total, so one int64 orders by count, then by distance.
    Walking back from the end, a detection or truth is left unmatched
    whenever that keeps the score, which gives the tie rule above.
    """
    _check_same_video(det, gt)
    EvaluationConfig((threshold,))
    gap = np.abs(np.subtract.outer(
        np.asarray(det.boundaries, dtype=np.int64), np.asarray(gt.boundaries, dtype=np.int64)
    ))
    valid = gap / gt.num_frames <= threshold
    gain = (len(det.boundaries) + len(gt.boundaries)) * gt.num_frames + 1 - gap
    best = np.zeros((gap.shape[0] + 1, gap.shape[1] + 1), dtype=np.int64)
    for i in range(gap.shape[0]):
        row = best[i + 1]
        row[1:] = np.maximum(best[i, 1:], np.where(valid[i], best[i, :-1] + gain[i], 0))
        np.maximum.accumulate(row, out=row)
    pairs = []
    i, j = gap.shape
    while i and j:
        if best[i - 1, j] == best[i, j]:
            i -= 1
        elif best[i, j - 1] == best[i, j]:
            j -= 1
        else:
            i, j = i - 1, j - 1
            pairs.append((i, j))
    return pairs[::-1]


def _matched_count(
    det: Sequence[int], gt: Sequence[int], num_frames: int, threshold: float
) -> int:
    """Size of a maximum matching, as ``match_boundaries`` finds, in one sweep.

    Both lists are sorted. When the two leftmost unmatched points lie within
    the threshold, some maximum matching pairs them; otherwise the one
    further left is out of reach of every point left on the other side.
    """
    count = i = j = 0
    while i < len(det) and j < len(gt):
        d, g = det[i], gt[j]
        if abs(d - g) / num_frames <= threshold:
            count += 1
            i += 1
            j += 1
        elif d < g:
            i += 1
        else:
            j += 1
    return count


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def precision_recall_f1(tp: int, n_det: int, n_gt: int) -> tuple[float, float, float]:
    """(P, R, F1) from a true-positive count.

    Empty predictions score precision 0 (and recall 0 with empty truth).
    """
    if tp > n_det or tp > n_gt:
        raise DataError(f"true positives {tp} exceed counts det={n_det}, gt={n_gt}")
    precision = tp / n_det if n_det > 0 else 0.0
    recall = tp / n_gt if n_gt > 0 else 0.0
    return precision, recall, f1_score(precision, recall)


def segment_scores(det: Annotation, gt: Annotation) -> tuple[float, float]:
    """MoF and IoU of the segmentations induced by two boundary lists.

    Boundaries b1..bn over F frames split the video into [0,b1), [b1,b2),
    ..., [bn,F). Detected and true segments are paired one-to-one for the
    largest total frame overlap; among pairings that reach it, the one with
    the largest IoU counts. MoF is the paired overlap over F; IoU is the mean
    over true segments of intersection over union, where an unpaired true
    segment scores 0.

    The pairs that overlap form a staircase from the first two segments to
    the last two, one boundary a step, so there are at most n + m - 1 of
    them. Two of its cells can both be paired only if they share neither
    detected nor true segment; a cell's row and its column are each one run
    of the staircase, so the best pairing that ends at a cell extends the
    best one over the cells before both its runs start. One walk along the
    staircase therefore finds the optimum. Pairs without overlap add 0 to
    both sums and are left out.
    """
    _check_same_video(det, gt)
    num_frames = gt.num_frames
    det_edges = [0, *det.boundaries, num_frames]
    gt_edges = [0, *gt.boundaries, num_frames]
    # best[k]: the (overlap, IoU sum) of the best pairing among the first k
    # cells, compared in that order. A pairing's cells run in ground-truth
    # order, so its IoU ratios are added one at a time in that order.
    best = [(0, 0.0)]
    i = j = row_start = col_start = 0
    while True:
        det_end, gt_end = det_edges[i + 1], gt_edges[j + 1]
        inter = min(det_end, gt_end) - max(det_edges[i], gt_edges[j])
        union = det_end - det_edges[i] + gt_end - gt_edges[j] - inter
        overlap, iou_sum = best[min(row_start, col_start)]
        best.append(max(best[-1], (overlap + inter, iou_sum + inter / union)))
        if det_end == gt_end == num_frames:
            break
        if det_end <= gt_end:
            i += 1
            row_start = len(best) - 1
        if gt_end <= det_end:
            j += 1
            col_start = len(best) - 1
    overlap, iou_sum = best[-1]
    return overlap / num_frames, iou_sum / (len(gt.boundaries) + 1)


@dataclass
class MetricReport:
    thresholds: list[float]
    precision: list[float]
    recall: list[float]
    f1: list[float]
    avg_precision: float
    avg_recall: float
    avg_f1: float
    mof: float
    iou: float
    per_video: dict[str, dict]

    def to_json(self) -> str:
        # vars() gives the fields in declaration order without the deep copy
        # of every number that dataclasses.asdict makes.
        return json.dumps(vars(self), indent=2) + "\n"

    def to_text_table(self) -> str:
        """Aligned table: one column per threshold plus their average."""
        headers = [f"{t:g}" for t in self.thresholds] + ["avg"]
        rows = [
            ("precision", self.precision + [self.avg_precision]),
            ("recall", self.recall + [self.avg_recall]),
            ("f1", self.f1 + [self.avg_f1]),
        ]
        width = max(len(h) for h in headers) + 4
        label_w = max(len(name) for name, _ in rows) + 2
        lines = ["".ljust(label_w) + "".join(h.rjust(width) for h in headers)]
        for name, values in rows:
            cells = "".join(f"{v:.3f}".rjust(width) for v in values)
            lines.append(name.ljust(label_w) + cells)
        lines.append("")
        lines.append(f"MoF  {self.mof:.3f}")
        lines.append(f"IoU  {self.iou:.3f}")
        return "\n".join(lines) + "\n"


def evaluate_corpus(
    detections: Mapping[str, Annotation],
    annotations: Mapping[str, Annotation],
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
) -> MetricReport:
    """Score a corpus of detections against its annotations.

    Detection and annotation ids must align exactly; the error lists every
    id missing from either side. Precision/recall/F1 are micro-averaged over
    boundary counts per threshold; each count comes from a two-pointer sweep
    over the sorted boundaries and equals ``len(match_boundaries(...))``.
    MoF and IoU are means over videos of ``segment_scores``, one staircase
    walk each, with its tie rule: the largest IoU among the pairings of
    largest overlap. Scoring is linear in the boundaries. Each threshold must
    lie in (0, 1], as ``EvaluationConfig`` requires.
    """
    det_ids = set(detections)
    ann_ids = set(annotations)
    if det_ids != ann_ids:
        missing_ann = sorted(det_ids - ann_ids)
        missing_det = sorted(ann_ids - det_ids)
        raise DataError(
            "detections and annotations do not align: "
            f"missing annotations for {missing_ann}, missing detections for {missing_det}"
        )
    thresholds = list(EvaluationConfig(tuple(float(t) for t in thresholds)).thresholds)
    ids = sorted(det_ids)
    per_video: dict[str, dict] = {}
    tp = [0] * len(thresholds)
    n_det_total = 0
    n_gt_total = 0
    mofs, ious = [], []
    for vid in ids:
        det, gt = detections[vid], annotations[vid]
        _check_same_video(det, gt)
        n_det_total += len(det.boundaries)
        n_gt_total += len(gt.boundaries)
        video_f1 = []
        video_p = []
        video_r = []
        for k, theta in enumerate(thresholds):
            matched = _matched_count(det.boundaries, gt.boundaries, gt.num_frames, theta)
            tp[k] += matched
            p, r, f = precision_recall_f1(matched, len(det.boundaries), len(gt.boundaries))
            video_p.append(p)
            video_r.append(r)
            video_f1.append(f)
        mof, iou = segment_scores(det, gt)
        mofs.append(mof)
        ious.append(iou)
        per_video[vid] = {
            "precision": video_p,
            "recall": video_r,
            "f1": video_f1,
            "mof": mof,
            "iou": iou,
        }
    precision, recall, f1 = [], [], []
    for k in range(len(thresholds)):
        p, r, f = precision_recall_f1(tp[k], n_det_total, n_gt_total)
        precision.append(p)
        recall.append(r)
        f1.append(f)
    return MetricReport(
        thresholds=thresholds,
        precision=precision,
        recall=recall,
        f1=f1,
        avg_precision=float(np.mean(precision)),
        avg_recall=float(np.mean(recall)),
        avg_f1=float(np.mean(f1)),
        mof=float(np.mean(mofs)) if ids else 0.0,
        iou=float(np.mean(ious)) if ids else 0.0,
        per_video=per_video,
    )
