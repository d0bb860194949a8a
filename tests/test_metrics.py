"""Boundary/segment metrics against exhaustive brute-force oracles."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from eventseg import (
    Annotation,
    ConfigError,
    DataError,
    annotations_by_id,
    evaluate_corpus,
    f1_score,
    match_boundaries,
    precision_recall_f1,
    segment_scores,
)
from eventseg.metrics import _matched_count


def brute_force_boundary_match(det, gt, num_frames, threshold):
    """Best (cardinality, -total distance) over all injective det->gt maps."""
    valid = {}
    for i, d in enumerate(det):
        for j, g in enumerate(gt):
            dist = abs(d - g) / num_frames
            if dist <= threshold:
                valid[(i, j)] = dist
    best = (0, 0.0)
    for size in range(min(len(det), len(gt)), -1, -1):
        found = None
        for det_subset in itertools.combinations(range(len(det)), size):
            for gt_perm in itertools.permutations(range(len(gt)), size):
                pairs = list(zip(det_subset, gt_perm))
                if all(p in valid for p in pairs):
                    total = sum(valid[p] for p in pairs)
                    if found is None or total < found:
                        found = total
        if found is not None:
            best = (size, found)
            break
    return best


def assignment_pairs(det, gt, num_frames, threshold):
    """Valid pairs of the minimum-cost assignment, sorted; may cross on ties."""
    dist = np.abs(np.subtract.outer(np.asarray(det, dtype=np.float64), np.asarray(gt)))
    dist /= num_frames
    valid = dist <= threshold
    rows, cols = linear_sum_assignment(np.where(valid, dist, 1e9))
    return sorted((int(i), int(j)) for i, j in zip(rows, cols) if valid[i, j])


def tie_rule_match_pairs(det, gt, num_frames, threshold):
    """The stated tie rule by enumeration, and how many matchings tie.

    Every non-crossing matching of pairs within threshold is listed; the
    largest wins, then the smallest total frame distance, then the smallest
    pair list read from the last pair backwards.
    """
    scored = []
    for size in range(min(len(det), len(gt)) + 1):
        for rows in itertools.combinations(range(len(det)), size):
            for cols in itertools.combinations(range(len(gt)), size):
                pairs = list(zip(rows, cols))
                if all(abs(det[i] - gt[j]) / num_frames <= threshold for i, j in pairs):
                    total = sum(abs(det[i] - gt[j]) for i, j in pairs)
                    scored.append((-size, total, pairs[::-1]))
    best = min(scored)
    ties = sum(key[:2] == best[:2] for key in scored)
    return best[2][::-1], ties


def brute_force_segment_match(overlaps):
    """Max total overlap over all one-to-one assignments."""
    n, m = overlaps.shape
    best = 0.0
    if n <= m:
        for perm in itertools.permutations(range(m), n):
            best = max(best, sum(overlaps[i, j] for i, j in enumerate(perm)))
    else:
        for perm in itertools.permutations(range(n), m):
            best = max(best, sum(overlaps[i, j] for j, i in enumerate(perm)))
    return best


def test_match_identical_sets():
    det = Annotation("v", 100, 25.0, [10, 40, 80])
    gt = Annotation("v", 100, 25.0, [10, 40, 80])
    assert match_boundaries(det, gt, 0.05) == [(0, 0), (1, 1), (2, 2)]


def test_match_out_of_range():
    det = Annotation("v", 100, 25.0, [10])
    gt = Annotation("v", 100, 25.0, [90])
    assert match_boundaries(det, gt, 0.05) == []


def test_match_one_to_one():
    det = Annotation("v", 100, 25.0, [48, 52])
    gt = Annotation("v", 100, 25.0, [50])
    pairs = match_boundaries(det, gt, 0.05)
    assert len(pairs) == 1
    assert len(det.boundaries) - len(pairs) == 1


def test_match_against_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(300):
        num_frames = int(rng.integers(20, 200))
        n_det = int(rng.integers(0, 7))
        n_gt = int(rng.integers(0, 7))
        det_frames = sorted(rng.choice(np.arange(1, num_frames), size=n_det,
                                       replace=False).tolist())
        gt_frames = sorted(rng.choice(np.arange(1, num_frames), size=n_gt,
                                      replace=False).tolist())
        threshold = float(rng.uniform(0.02, 0.3))
        det = Annotation("v", num_frames, 25.0, det_frames)
        gt = Annotation("v", num_frames, 25.0, gt_frames)
        pairs = match_boundaries(det, gt, threshold)
        cardinality, total = brute_force_boundary_match(
            det_frames, gt_frames, num_frames, threshold
        )
        assert len(pairs) == cardinality
        got_total = sum(abs(det_frames[i] - gt_frames[j]) / num_frames for i, j in pairs)
        assert got_total == pytest.approx(total, abs=1e-9)
        seen_det = [i for i, _ in pairs]
        seen_gt = [j for _, j in pairs]
        assert len(set(seen_det)) == len(seen_det)
        assert len(set(seen_gt)) == len(seen_gt)
        # Crossing-free: ordered by detection, the truths are ordered too.
        assert seen_det == sorted(seen_det) and seen_gt == sorted(seen_gt)


def test_match_count_and_total_equal_the_assignment():
    rng = np.random.default_rng(4)
    crossed = 0
    for _ in range(2000):
        num_frames = int(rng.integers(40, 3001))
        det_frames = sorted(rng.choice(np.arange(1, num_frames), size=int(rng.integers(0, 41)),
                                       replace=False).tolist())
        gt_frames = sorted(rng.choice(np.arange(1, num_frames), size=int(rng.integers(0, 41)),
                                      replace=False).tolist())
        threshold = float(rng.uniform(0.005, 0.3))
        pairs = match_boundaries(
            Annotation("v", num_frames, 25.0, det_frames),
            Annotation("v", num_frames, 25.0, gt_frames),
            threshold,
        )
        raw = assignment_pairs(det_frames, gt_frames, num_frames, threshold)
        assert len(pairs) == len(raw)
        assert sum(abs(det_frames[i] - gt_frames[j]) for i, j in pairs) == sum(
            abs(det_frames[i] - gt_frames[j]) for i, j in raw
        )
        assert [i for i, _ in pairs] == sorted(i for i, _ in pairs)
        assert [j for _, j in pairs] == sorted(j for _, j in pairs)
        crossed += [j for _, j in raw] != sorted(j for _, j in raw)
    # The cases must include optimal assignments that cross, so that the
    # non-crossing pairs are not given for free.
    assert crossed >= 500, crossed


def test_match_pairs_follow_the_tie_rule():
    rng = np.random.default_rng(9)
    ties = 0
    for _ in range(3000):
        num_frames = int(rng.integers(10, 61))
        det_frames = _random_boundaries(rng, num_frames, 5)
        gt_frames = _random_boundaries(rng, num_frames, 5)
        threshold = float(rng.uniform(0.02, 0.4))
        pairs = match_boundaries(
            Annotation("v", num_frames, 25.0, det_frames),
            Annotation("v", num_frames, 25.0, gt_frames),
            threshold,
        )
        expected, tied = tie_rule_match_pairs(det_frames, gt_frames, num_frames, threshold)
        assert pairs == expected, (num_frames, det_frames, gt_frames, threshold)
        ties += tied > 1
    # The rule decides only between optimal matchings that tie.
    assert ties >= 100, ties


def test_match_swapping_sides_swaps_precision_recall():
    det = Annotation("v", 100, 25.0, [10, 30, 70])
    gt = Annotation("v", 100, 25.0, [12, 69])
    forward = match_boundaries(det, gt, 0.05)
    backward = match_boundaries(gt, det, 0.05)
    p1, r1, _ = precision_recall_f1(len(forward), 3, 2)
    p2, r2, _ = precision_recall_f1(len(backward), 2, 3)
    assert p1 == pytest.approx(r2)
    assert r1 == pytest.approx(p2)


def _random_boundaries(rng, num_frames, most):
    size = int(rng.integers(0, min(most, num_frames - 1) + 1))
    return sorted(rng.choice(np.arange(1, num_frames), size=size, replace=False).tolist())


def test_sweep_count_equals_match_boundaries():
    rng = np.random.default_rng(5)
    thresholds = [round(0.01 * k, 2) for k in range(1, 101)]
    at_edge = 0
    for _ in range(400):
        num_frames = int(rng.integers(20, 1500))
        det_b = _random_boundaries(rng, num_frames, 30)
        gt_b = _random_boundaries(rng, num_frames, 30)
        theta = thresholds[int(rng.integers(len(thresholds)))]
        # Put some detections exactly threshold * num_frames frames (rounded
        # down) from a truth, where the predicate's rounding decides.
        reach = int(theta * num_frames)
        edge = [g + reach for g in gt_b[::3] if g + reach < num_frames]
        det_b = sorted(set(det_b) | set(edge))
        at_edge += bool(edge)
        det = Annotation("v", num_frames, 25.0, det_b)
        gt = Annotation("v", num_frames, 25.0, gt_b)
        for t in (theta, 0.01, 0.05, 0.5, 1.0):
            assert _matched_count(det_b, gt_b, num_frames, t) == len(
                match_boundaries(det, gt, t)
            ), (num_frames, det_b, gt_b, t)
    assert at_edge >= 100, at_edge


def test_sweep_count_uses_the_relative_distance_predicate():
    # 29 / 100 <= 0.29 holds, while 29 <= 0.29 * 100 = 28.999999999999996
    # does not: the count follows the relative distance, as matching does.
    det = Annotation("v", 100, 25.0, [10])
    gt = Annotation("v", 100, 25.0, [39])
    assert _matched_count(det.boundaries, gt.boundaries, 100, 0.29) == 1
    assert len(match_boundaries(det, gt, 0.29)) == 1
    assert _matched_count(det.boundaries, gt.boundaries, 100, 0.28) == 0


def test_precision_recall_f1_reference_rows():
    # Hand-checked (P, R) -> F1 triples used as arithmetic anchors.
    for p, r, expected in [(0.128, 0.338, 0.186), (0.461, 0.811, 0.588),
                           (0.624, 0.626, 0.625)]:
        assert abs(f1_score(p, r) - expected) < 5e-4

    assert precision_recall_f1(3, 3, 3) == (1.0, 1.0, 1.0)
    assert precision_recall_f1(0, 0, 5) == (0.0, 0.0, 0.0)
    assert precision_recall_f1(0, 0, 0) == (0.0, 0.0, 0.0)


def segments(ann):
    """[0,b1), [b1,b2), ..., [bn,F) as (start, end) pairs."""
    edges = [0, *ann.boundaries, ann.num_frames]
    return list(zip(edges[:-1], edges[1:]))


def segment_overlaps(pred, gt):
    """Frame overlap of every predicted with every true segment."""
    return np.array(
        [[max(0, min(y[1], z[1]) - max(y[0], z[0])) for z in gt] for y in pred],
        dtype=np.float64,
    )


def test_boundaries_to_segments():
    # No boundaries: one segment covering the whole video.
    empty = Annotation("v", 100, 25.0, [])
    assert segment_scores(empty, empty) == (1.0, 1.0)
    # [30, 70] splits the video into [0,30), [30,70), [70,100); the single
    # detected segment pairs with the 40-frame middle one.
    mof, iou = segment_scores(empty, Annotation("v", 100, 25.0, [30, 70]))
    assert mof == 0.4
    assert iou == pytest.approx(0.4 / 3)


def test_hungarian_against_factorial_oracle():
    rng = np.random.default_rng(1)
    for _ in range(300):
        num_frames = int(rng.integers(30, 120))
        pred_b = sorted(rng.choice(np.arange(1, num_frames), size=int(rng.integers(0, 6)),
                                   replace=False).tolist())
        gt_b = sorted(rng.choice(np.arange(1, num_frames), size=int(rng.integers(0, 6)),
                                 replace=False).tolist())
        pred = Annotation("v", num_frames, 25.0, pred_b)
        gt = Annotation("v", num_frames, 25.0, gt_b)
        mof, _ = segment_scores(pred, gt)
        overlaps = segment_overlaps(segments(pred), segments(gt))
        assert mof == brute_force_segment_match(overlaps) / num_frames
        rows, cols = linear_sum_assignment(-overlaps)
        assert mof == overlaps[rows, cols].sum() / num_frames


def test_mof_iou_identity():
    ann = Annotation("v", 100, 25.0, [30, 70])
    assert segment_scores(ann, ann) == (1.0, 1.0)


def test_mof_iou_hand_case():
    gt = Annotation("v", 100, 25.0, [50])
    pred = Annotation("v", 100, 25.0, [40])
    mof, iou = segment_scores(pred, gt)
    assert mof == pytest.approx(0.9, abs=1e-9)
    assert iou == pytest.approx((0.8 + 50 / 60) / 2, abs=1e-9)
    assert iou == pytest.approx(0.8167, abs=1e-4)


def test_mof_iou_single_prediction_over_two_events():
    gt = Annotation("v", 100, 25.0, [50])
    pred = Annotation("v", 100, 25.0, [])
    mof, iou = segment_scores(pred, gt)
    assert mof == pytest.approx(0.5)
    # Factorial oracle: single pairing choices are (0,0) or (0,1), both give
    # intersection 50 and union 100; the unmatched gt contributes zero.
    assert iou == pytest.approx(0.25)


def scored_pairings(pred, truth):
    """Every one-to-one pairing of min(n, m) pairs with its (total overlap,
    IoU sum) key, the IoU ratios added in ground-truth order. Larger
    pairings are not needed, since a pair without overlap adds 0 to both."""
    overlaps = segment_overlaps(pred, truth)
    n, m = overlaps.shape
    if n <= m:
        pairings = [list(enumerate(perm)) for perm in itertools.permutations(range(m), n)]
    else:
        pairings = [[(i, j) for j, i in enumerate(perm)]
                    for perm in itertools.permutations(range(n), m)]
    scored = []
    for pairs in pairings:
        iou_sum = 0.0
        for i, j in sorted(pairs, key=lambda p: p[1]):
            inter = overlaps[i, j]
            iou_sum += inter / (pred[i][1] - pred[i][0] + truth[j][1] - truth[j][0] - inter)
        scored.append(((sum(overlaps[i, j] for i, j in pairs), iou_sum), pairs))
    return scored


def tie_rule_pairs(pred, truth):
    """Exhaustive oracle of ``segment_scores``' pairing: the largest total
    overlap, then the largest IoU sum."""
    return max(scored_pairings(pred, truth), key=lambda scored: scored[0])[1]


def former_mof_iou(det, gt):
    """The former dictionary-and-scan MoF/IoU over explicit segment lists and
    the pairs the tie-rule oracle picks, kept as the exact oracle."""
    pred, truth = segments(det), segments(gt)
    pairs = tie_rule_pairs(pred, truth)

    def overlap(a, b):
        return max(0, min(a[1], b[1]) - max(a[0], b[0]))

    inter_by_gt = {j: overlap(pred[i], truth[j]) for i, j in pairs}
    mof = sum(inter_by_gt.values()) / sum(end - start for start, end in truth)
    iou_sum = 0.0
    for j, (start, end) in enumerate(truth):
        if j in inter_by_gt:
            i = next(i for i, jj in pairs if jj == j)
            pred_size = pred[i][1] - pred[i][0]
            iou_sum += inter_by_gt[j] / (pred_size + (end - start) - inter_by_gt[j])
    return mof, iou_sum / len(truth)


def test_mof_iou_bounds_random():
    rng = np.random.default_rng(2)
    for _ in range(100):
        num_frames = int(rng.integers(20, 150))
        det_b = sorted(rng.choice(np.arange(1, num_frames),
                                  size=int(rng.integers(0, 5)), replace=False).tolist())
        gt_b = sorted(rng.choice(np.arange(1, num_frames),
                                 size=int(rng.integers(0, 5)), replace=False).tolist())
        det = Annotation("v", num_frames, 25.0, det_b)
        gt = Annotation("v", num_frames, 25.0, gt_b)
        mof, iou = segment_scores(det, gt)
        assert 0.0 <= mof <= 1.0
        assert 0.0 <= iou <= 1.0
        assert (mof, iou) == former_mof_iou(det, gt)


def test_segment_tie_takes_the_pairing_of_largest_iou():
    # [0,7), [7,10) against [0,2), [2,10): pairing in order overlaps 2 + 3
    # frames, pairing [0,7) with [2,10) alone overlaps 5 as well. In-order
    # IoU is (2/7 + 3/8) / 2, the other (0 + 5/10) / 2, so in-order wins.
    det = Annotation("v", 10, 25.0, [7])
    gt = Annotation("v", 10, 25.0, [2])
    assert segment_scores(det, gt) == (0.5, (2 / 7 + 3 / 8) / 2)
    keys = sorted(key for key, _ in scored_pairings(segments(det), segments(gt)))
    assert keys[-2:] == [(5.0, 5 / 10), (5.0, 2 / 7 + 3 / 8)]


def test_staircase_iou_equals_tie_rule_oracle():
    rng = np.random.default_rng(7)
    ties = 0
    for _ in range(800):
        num_frames = int(rng.integers(6, 60))
        det = Annotation("v", num_frames, 25.0, _random_boundaries(rng, num_frames, 5))
        gt = Annotation("v", num_frames, 25.0, _random_boundaries(rng, num_frames, 5))
        assert segment_scores(det, gt) == former_mof_iou(det, gt)
        scored = [key for key, _ in scored_pairings(segments(det), segments(gt))]
        top = max(overlap for overlap, _ in scored)
        ties += len({iou for overlap, iou in scored if overlap == top}) > 1
    # Short videos with few frames a segment tie often; the cases must
    # include ties whose pairings differ in IoU.
    assert ties >= 20, ties


def test_scoring_rejects_videos_of_different_lengths():
    det = Annotation("v", 100, 25.0, [40])
    gt = Annotation("v", 120, 25.0, [40])
    with pytest.raises(DataError):
        match_boundaries(det, gt, 0.05)
    with pytest.raises(DataError):
        segment_scores(det, gt)
    # Equal lengths, but another video.
    det, gt = Annotation("x", 100, 25.0, [30]), Annotation("y", 100, 25.0, [30])
    with pytest.raises(DataError, match="same video"):
        match_boundaries(det, gt, 0.05)
    with pytest.raises(DataError, match="same video"):
        segment_scores(det, gt)


@pytest.mark.parametrize(
    "thresholds", [[], [float("nan")], [0.0], [-1.0], [0.05, 1.5]],
    ids=["empty", "nan", "zero", "negative", "above-one"],
)
def test_thresholds_outside_the_unit_interval_are_config_errors(thresholds):
    detections, annotations = _perfect_corpus()
    with pytest.raises(ConfigError, match="thresholds"):
        evaluate_corpus(detections, annotations, thresholds)
    for theta in thresholds:
        if not 0 < theta <= 1:
            with pytest.raises(ConfigError, match="thresholds"):
                match_boundaries(detections["a"], annotations["a"], theta)


def test_f1_monotone_in_threshold():
    rng = np.random.default_rng(3)
    for _ in range(50):
        num_frames = int(rng.integers(40, 200))
        det_b = sorted(rng.choice(np.arange(1, num_frames),
                                  size=int(rng.integers(1, 8)), replace=False).tolist())
        gt_b = sorted(rng.choice(np.arange(1, num_frames),
                                 size=int(rng.integers(1, 8)), replace=False).tolist())
        det = Annotation("v", num_frames, 25.0, det_b)
        gt = Annotation("v", num_frames, 25.0, gt_b)
        last = -1.0
        for theta in np.arange(0.05, 0.55, 0.05):
            _, _, f1 = precision_recall_f1(
                len(match_boundaries(det, gt, float(theta))), len(det_b), len(gt_b)
            )
            assert f1 >= last - 1e-12
            last = f1


def _perfect_corpus():
    detections = {
        "a": Annotation("a", 100, 25.0, [30, 60]),
        "b": Annotation("b", 80, 25.0, [40]),
    }
    annotations = annotations_by_id([
        Annotation("a", 100, 25.0, [30, 60]),
        Annotation("b", 80, 25.0, [40]),
    ])
    return detections, annotations


def test_evaluate_corpus_perfect():
    detections, annotations = _perfect_corpus()
    report = evaluate_corpus(detections, annotations)
    assert report.f1 == [1.0] * 10
    assert report.avg_f1 == 1.0
    assert report.mof == 1.0 and report.iou == 1.0
    assert report.avg_f1 == pytest.approx(np.mean(report.f1))


def test_evaluate_corpus_micro_aggregation_hand_case():
    # Two videos: video a matches 1 of its 2 detections against 2 truths,
    # video b matches its single detection. Micro: TP=2, det=3, gt=3.
    detections = {
        "a": Annotation("a", 100, 25.0, [30, 90]),
        "b": Annotation("b", 100, 25.0, [50]),
    }
    annotations = annotations_by_id([
        Annotation("a", 100, 25.0, [30, 60]),
        Annotation("b", 100, 25.0, [51]),
    ])
    report = evaluate_corpus(detections, annotations, thresholds=[0.05])
    assert report.precision[0] == pytest.approx(2 / 3)
    assert report.recall[0] == pytest.approx(2 / 3)
    assert report.f1[0] == pytest.approx(2 / 3)
    assert report.per_video["a"]["f1"][0] == pytest.approx(0.5)
    assert report.per_video["b"]["f1"][0] == pytest.approx(1.0)


def test_evaluate_corpus_equals_match_boundaries_reference():
    rng = np.random.default_rng(8)
    thresholds = [0.01, 0.05, 0.1, 0.29, 0.5, 1.0]
    for _ in range(40):
        detections, annotations = {}, []
        for k in range(int(rng.integers(1, 6))):
            num_frames = int(rng.integers(20, 1200))
            vid = f"v{k}"
            detections[vid] = Annotation(vid, num_frames, 25.0,
                                         _random_boundaries(rng, num_frames, 20))
            annotations.append(Annotation(vid, num_frames, 25.0,
                                          _random_boundaries(rng, num_frames, 20)))
        report = evaluate_corpus(detections, annotations_by_id(annotations), thresholds)
        n_det = sum(len(a.boundaries) for a in detections.values())
        n_gt = sum(len(a.boundaries) for a in annotations)
        for k, theta in enumerate(thresholds):
            tp = sum(len(match_boundaries(detections[a.video_id], a, theta))
                     for a in annotations)
            p, r, f = precision_recall_f1(tp, n_det, n_gt)
            assert (report.precision[k], report.recall[k], report.f1[k]) == (p, r, f)
        mofs = []
        for ann in sorted(annotations, key=lambda a: a.video_id):
            overlaps = segment_overlaps(segments(detections[ann.video_id]), segments(ann))
            rows, cols = linear_sum_assignment(-overlaps)
            mofs.append(overlaps[rows, cols].sum() / ann.num_frames)
        assert report.mof == float(np.mean(mofs))


def test_evaluate_corpus_rejects_a_record_of_another_video():
    detections = {"a": Annotation("b", 100, 25.0, [30])}
    annotations = {"a": Annotation("a", 100, 25.0, [30])}
    with pytest.raises(DataError, match="same video"):
        evaluate_corpus(detections, annotations)


def test_evaluate_corpus_alignment_errors_list_ids():
    detections, annotations = _perfect_corpus()
    del detections["b"]
    with pytest.raises(DataError) as err:
        evaluate_corpus(detections, annotations)
    assert "b" in str(err.value)


def test_text_table_layout():
    detections, annotations = _perfect_corpus()
    report = evaluate_corpus(detections, annotations)
    table = report.to_text_table()
    lines = table.strip().splitlines()
    assert "avg" in lines[0]
    assert lines[1].startswith("precision")
    assert lines[3].startswith("f1")
    assert any(line.startswith("MoF") for line in lines)
    assert any(line.startswith("IoU") for line in lines)
