"""Boundary and segment scoring.

Detections and ground truth are both ``data.Annotation`` records, which
``evaluate_corpus`` takes keyed by video id (see ``data.annotations_by_id``).

Boundary detections are scored by relative distance: |detected - truth|
divided by the video length, correct when at or below a threshold. Matching
is maximum-cardinality one-to-one, with the smallest total distance among
maximum matchings; ``match_boundaries`` lists the matched (detection, truth)
index pairs in temporal order, so no two pairs cross, even where distances
tie. Segment metrics (MoF, IoU) split each video at its boundaries, match
detected to true segments by maximum frame overlap through the Hungarian
algorithm, and score the matched intersections against the ground-truth
segments. Corpus precision, recall, and F1 are micro-averaged over boundary
counts; per-video numbers are kept alongside for inspection. A corpus with
no videos scores 0.0 throughout.

Both assignments use scipy's ``linear_sum_assignment``. It is imported on
first use, because ``scipy.optimize`` takes longer to import than the rest
of the package and only scoring needs it: ``synth``, ``train`` and
``detect`` never load it.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import Annotation
from .errors import ConfigError, DataError

DEFAULT_THRESHOLDS = tuple(round(0.05 * k, 2) for k in range(1, 11))

_INVALID_COST = 1e9


@dataclass
class EvaluationConfig:
    """Rel.Dis thresholds that ``eval`` scores boundaries at."""

    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS

    def __post_init__(self):
        if not self.thresholds or any(not 0 < t <= 1 for t in self.thresholds):
            raise ConfigError(f"thresholds must lie in (0, 1], got {self.thresholds}")


@functools.cache
def _assignment_solver():
    """scipy's ``linear_sum_assignment``, imported on first use.

    Cached: an import statement costs about a microsecond even once the
    module is loaded, and scoring a default corpus asks for the solver a few
    hundred times.
    """
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


def match_boundaries(det: Annotation, gt: Annotation, threshold: float) -> list[tuple[int, int]]:
    """Maximum-cardinality one-to-one matching among pairs within threshold.

    Among maximum matchings the one with the smallest total distance wins;
    its (detection, truth) index pairs are listed in temporal order and
    never cross.
    """
    if det.video_id != gt.video_id or det.num_frames != gt.num_frames:
        raise DataError(
            f"matching needs the same video: {det.video_id!r}/{det.num_frames} vs "
            f"{gt.video_id!r}/{gt.num_frames}"
        )
    if not det.boundaries or not gt.boundaries:
        return []
    dist = np.abs(
        np.subtract.outer(np.asarray(det.boundaries, dtype=np.float64), gt.boundaries)
    ) / gt.num_frames
    valid = dist <= threshold
    rows, cols = _assignment_solver()(np.where(valid, dist, _INVALID_COST))
    kept = valid[rows, cols]
    # On a line, pairing two equal-size point sets in order minimises both
    # the total and the largest distance, so re-pairing the matched points
    # in order keeps every pair within threshold and the total optimal, and
    # resolves distance ties toward the non-crossing matching.
    return list(zip(sorted(rows[kept].tolist()), sorted(cols[kept].tolist())))


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
    largest total frame overlap. MoF is the paired overlap over F; IoU is
    the mean over true segments of intersection over union, where an
    unpaired true segment scores 0.
    """
    if det.num_frames != gt.num_frames:
        raise DataError("segment matching needs equal video lengths")
    det_edges = np.array([0, *det.boundaries, det.num_frames])
    gt_edges = np.array([0, *gt.boundaries, gt.num_frames])
    overlaps = np.clip(
        np.minimum.outer(det_edges[1:], gt_edges[1:])
        - np.maximum.outer(det_edges[:-1], gt_edges[:-1]),
        0,
        None,
    ).astype(np.float64)
    rows, cols = _assignment_solver()(-overlaps)
    inter = overlaps[rows, cols]
    union = np.diff(det_edges)[rows] + np.diff(gt_edges)[cols] - inter
    # Added one at a time in ground-truth order; numpy's pairwise sum would
    # round differently.
    iou_sum = 0.0
    for ratio in (inter / union)[np.argsort(cols)].tolist():
        iou_sum += ratio
    return float(inter.sum()) / gt.num_frames, iou_sum / (len(gt.boundaries) + 1)


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
    boundary counts per threshold; MoF and IoU are means over videos.
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
    thresholds = [float(t) for t in thresholds]
    # Pay the solver's one-time import here, not inside the first match.
    _assignment_solver()
    ids = sorted(det_ids)
    per_video: dict[str, dict] = {}
    tp = [0] * len(thresholds)
    n_det_total = 0
    n_gt_total = 0
    mofs, ious = [], []
    for vid in ids:
        det, gt = detections[vid], annotations[vid]
        n_det_total += len(det.boundaries)
        n_gt_total += len(gt.boundaries)
        video_f1 = []
        video_p = []
        video_r = []
        for k, theta in enumerate(thresholds):
            matched = len(match_boundaries(det, gt, theta))
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
