"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines while they execute. The end-to-end criteria (7 and 8) share one
session-scoped pipeline run plus a repeat run for determinism; together they
take a few minutes of CPU time.
"""

import json
import math
import time

import numpy as np
import pytest

from eventseg import (
    Annotation,
    ContrastiveConfig,
    EncoderPair,
    MemoryQueue,
    ReconstructionConfig,
    Reconstructor,
    RunConfig,
    Tensor,
    annotations_by_id,
    detect_corpus,
    evaluate_corpus,
    f1_score,
    info_nce_loss,
    load_feature_file,
    match_boundaries,
    run_training,
    save_annotations,
    load_annotations,
    save_feature_file,
    segment_scores,
    synth_generate,
)
from eventseg.checkpoint import model_records, serialize_records
from eventseg.detection import fir_smooth, gradient, relative_extrema

from gradcheck import finite_difference
from quality_sweep import random_detector_f1, step_one_losses
from test_metrics import (
    brute_force_boundary_match,
    brute_force_segment_match,
    segment_overlaps,
    segments,
)


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# -- criterion 1: full-model gradient check -----------------------------------


def test_criterion_1_full_model_gradient_check():
    start = time.time()
    dim, window, snippets = 8, 5, 2
    master = np.random.default_rng(100)
    enc = EncoderPair(dim, dim, 0.999, master)
    rec = Reconstructor(dim, 4, 2, master)
    # Check at activation scale and in float64: the finite-difference oracle
    # needs headroom that float32 storage does not offer.
    rec.mask_token.data = master.uniform(-0.5, 0.5, size=dim).astype(np.float32)
    params = enc.query.parameters() + rec.parameters()
    for p in params:
        p.data = p.data.astype(np.float64)
        p.grad = np.zeros_like(p.data)

    # The frames stay float32 inputs; the float64 parameters carry the check.
    batch = master.normal(size=(snippets, window, dim)).astype(np.float32)
    queue = MemoryQueue(8, dim)
    for _ in range(4):
        v = master.normal(size=dim)
        queue.extend((v / np.linalg.norm(v)).astype(np.float32)[None])
    ccfg = ContrastiveConfig(temperature=0.2)
    rcfg = ReconstructionConfig(beta=1.0)
    mask_rows = np.array([2, 1])

    # Freeze the reconstruction target at the unperturbed point: the target
    # is detached by design, so the derivative through it must not appear on
    # either side of the comparison. The total is the joint loss of
    # ``compute_losses`` with that fixed target.
    from eventseg import encode_query, masked_reconstruct
    from eventseg.reconstruction import contrastive_loss

    h0 = encode_query(batch.reshape(-1, dim), enc).data.reshape(snippets, window, dim)
    targets = Tensor(h0[np.arange(snippets), mask_rows].copy())

    def total():
        h = encode_query(batch.reshape(-1, dim), enc)
        lc = contrastive_loss(h, batch, enc, queue, ccfg)
        diff = masked_reconstruct(h.reshape((snippets, window, dim)), mask_rows, rec) - targets
        return lc + (diff * diff).sum(axis=-1).mean() * float(rcfg.beta)

    total().backward()
    analytic = [p.grad.copy() for p in params]
    numeric = finite_difference(lambda: float(total().data), [p.data for p in params])
    worst = 0.0
    n_entries = 0
    for a, n in zip(analytic, numeric):
        n_entries += a.size
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-2)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    elapsed = time.time() - start
    ok = worst <= 1e-3 and elapsed < 60
    _report("1 gradient-correctness", ok,
            f"{n_entries} parameters, worst rel err {worst:.2e}, {elapsed:.1f}s")


# -- criterion 2: contrastive loss oracle --------------------------------------


def _brute_contrastive(h, z, ids, queue, tau, window):
    n = len(h)
    total = 0.0
    for a in range(n):
        q1 = sum(
            math.exp(float(np.dot(h[a], z[b])) / tau)
            for b in range(n) if ids[b] != ids[a]
        )
        q2 = sum(math.exp(float(np.dot(h[a], row)) / tau) for row in queue)
        inner = 0.0
        for b in range(n):
            if ids[b] == ids[a] and b != a:
                qp = math.exp(float(np.dot(h[a], z[b])) / tau)
                inner += -math.log(qp / (qp + q1 + q2))
        total += inner / (window - 1)
    return total / n


def test_criterion_2_contrastive_oracle():
    rng = np.random.default_rng(200)
    worst = 0.0
    for _ in range(100):
        L = int(rng.integers(1, 5))
        T = int(rng.integers(2, 5))
        queue_len = int(rng.integers(0, 9))
        dim = 6

        def unit(n):
            rows = rng.normal(size=(n, dim))
            return (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32)

        h = Tensor(unit(L * T))
        z = unit(L * T)
        queue = unit(queue_len)
        tau = float(rng.uniform(0.1, 1.0))
        fast = info_nce_loss(h, z, T, queue, tau).item()
        slow = _brute_contrastive(h.data, z, np.repeat(np.arange(L), T), queue, tau, T)
        worst = max(worst, abs(fast - slow))
    assert worst < 1e-5

    # tau -> infinity limit: every exponential approaches 1.
    L, T, queue_len = 3, 4, 6
    h = Tensor(np.eye(L * T, 16, dtype=np.float32))
    z = np.eye(L * T, 16, dtype=np.float32)
    queue = np.eye(queue_len, 16, dtype=np.float32)
    limit = info_nce_loss(h, z, T, queue, 1e6).item()
    expected = math.log(1 + (L - 1) * T + queue_len)
    limit_err = abs(limit - expected)
    ok = worst < 1e-5 and limit_err < 1e-3
    _report("2 contrastive-oracle", ok,
            f"worst |diff| {worst:.2e} over 100 batches, tau-limit err {limit_err:.2e}")


# -- criterion 3: F1 arithmetic from published precision/recall ----------------


def test_criterion_3_f1_arithmetic():
    rows = [
        (0.128, 0.338, 0.186),
        (0.461, 0.811, 0.588),
        (0.624, 0.626, 0.625),
    ]
    worst = max(abs(f1_score(p, r) - f1) for p, r, f1 in rows)
    ok = worst <= 0.0005  # +-0.05 in percent units
    _report("3 f1-arithmetic", ok, f"worst |F1 err| {worst * 100:.3f} percentage points")


# -- criterion 4: matching oracles ---------------------------------------------


def test_criterion_4_matching_oracles():
    rng = np.random.default_rng(400)
    for case in range(1000):
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
        size, total = brute_force_boundary_match(det_frames, gt_frames, num_frames, threshold)
        assert len(pairs) == size, f"case {case}"
        got = sum(abs(det_frames[i] - gt_frames[j]) / num_frames for i, j in pairs)
        assert abs(got - total) < 1e-9, f"case {case}"

    for case in range(1000):
        num_frames = int(rng.integers(30, 120))
        pred_b = sorted(rng.choice(np.arange(1, num_frames),
                                   size=int(rng.integers(0, 6)), replace=False).tolist())
        gt_b = sorted(rng.choice(np.arange(1, num_frames),
                                 size=int(rng.integers(0, 6)), replace=False).tolist())
        pred = Annotation("v", num_frames, 25.0, pred_b)
        gt = Annotation("v", num_frames, 25.0, gt_b)
        mof, _ = segment_scores(pred, gt)
        overlaps = segment_overlaps(segments(pred), segments(gt))
        assert mof == brute_force_segment_match(overlaps) / num_frames, f"case {case}"
    _report("4 matching-oracles", True, "2x1000 random instances exact")


# -- criterion 5: segment metric hand case --------------------------------------


def test_criterion_5_segment_hand_case():
    mof, iou = segment_scores(
        Annotation("v", 100, 25.0, [40]), Annotation("v", 100, 25.0, [50])
    )
    mof_err = abs(mof - 0.900)
    iou_err = abs(iou - 0.8167)
    ok = mof_err <= 1e-9 and iou_err <= 1e-4
    _report("5 segment-hand-case", ok, f"MoF err {mof_err:.1e}, IoU err {iou_err:.1e}")


# -- criterion 6: signal pipeline units -----------------------------------------


def test_criterion_6_signal_units():
    np.testing.assert_allclose(
        fir_smooth(np.array([0.0, 0.0, 1.0, 0.0, 0.0]), 1),
        [0.0, 1 / 3, 1 / 3, 1 / 3, 0.0],
    )
    constant = np.full(12, 2.5)
    np.testing.assert_allclose(fir_smooth(constant, 3), constant)
    np.testing.assert_allclose(gradient(np.arange(8.0)), np.ones(8))
    assert relative_extrema(np.array([0.1, 0.5, 0.9, 0.4, 0.2]), 2).tolist() == [2]

    rng = np.random.default_rng(600)
    for _ in range(1000):
        g = rng.normal(size=int(rng.integers(10, 80)))
        r1 = int(rng.integers(1, 5))
        r2 = int(rng.integers(r1, 9))
        assert set(relative_extrema(g, r2)) <= set(relative_extrema(g, r1))
    _report("6 signal-units", True, "units exact, antitonicity on 1000 trajectories")


# -- criteria 7 and 8: end-to-end synthetic reproduction ------------------------


def _run_pipeline():
    cfg = RunConfig()
    corpus, annotations = synth_generate(cfg.synth)
    ann_map = annotations_by_id(annotations)
    result = run_training(corpus, cfg)
    detections, _ = detect_corpus(corpus, result.encoders, result.reconstructor, cfg.detector)
    report = evaluate_corpus(detections, ann_map, cfg.evaluation.thresholds)
    checkpoint_bytes = serialize_records(
        model_records(result.encoders, result.reconstructor, result.queue, cfg.detector.window)
    )
    detection_payload = json.dumps(
        {vid: det.boundaries for vid, det in sorted(detections.items())}
    )
    return {
        "cfg": cfg,
        "corpus": corpus,
        "annotations": ann_map,
        "result": result,
        "detections": detections,
        "report": report,
        "checkpoint_bytes": checkpoint_bytes,
        "detection_payload": detection_payload,
        "report_payload": report.to_json(),
    }


@pytest.fixture(scope="session")
def pipeline():
    return _run_pipeline()


def test_criterion_7a_loss_halves(pipeline):
    # The logged losses are not one function at both ends (see
    # step_one_losses), so step 1's batch and mask are scored under the
    # initial and the trained models with the same empty queue.
    cfg = pipeline["cfg"]
    result = pipeline["result"]
    start, end = step_one_losses(cfg, pipeline["corpus"], result)
    assert start == result.history[0]["total"], "rebuilt step-1 batch does not reproduce the log"
    ratio = end / start
    logged = result.history[-1]["total"] / result.history[0]["total"]
    elapsed_ok = result.completed_steps == 2000
    _report("7a loss-halving", ratio <= 0.5 and elapsed_ok,
            f"step-1 batch, empty queue: loss {start:.3f} at step 1, {end:.3f} "
            f"after 2000 steps, ratio {ratio:.3f} (need <= 0.5); logged ratio "
            f"{logged:.3f} (queue full at the end)")


def test_criterion_7b_boundary_f1(pipeline):
    report = pipeline["report"]
    f1_at_05 = report.f1[0]
    baseline = random_detector_f1(
        pipeline["annotations"], pipeline["detections"], 0.05
    )
    ok = f1_at_05 >= 0.70 and f1_at_05 >= 3.0 * baseline
    _report("7b boundary-f1", ok,
            f"F1@0.05 {f1_at_05:.3f} (need >= 0.70), random baseline "
            f"{baseline:.3f}, ratio {f1_at_05 / baseline if baseline else float('inf'):.2f} "
            f"(need >= 3)")


def test_criterion_7c_boundary_error_contrast(pipeline):
    from eventseg import error_trajectory

    cfg = pipeline["cfg"]
    result = pipeline["result"]
    boundary_vals, interior_vals = [], []
    half = cfg.detector.window // 2
    for seq in pipeline["corpus"]:
        ann = pipeline["annotations"][seq.video_id]
        values = error_trajectory(
            seq, result.encoders, result.reconstructor, cfg.detector
        ).values
        for t in range(seq.num_frames):
            nearest = min(abs(t - b) for b in ann.boundaries)
            if nearest == 0:
                boundary_vals.append(values[t])
            elif nearest > half:
                # Interior: the reconstruction window holds no boundary.
                interior_vals.append(values[t])
    ratio = float(np.mean(boundary_vals) / np.mean(interior_vals))
    _report("7c boundary-error-contrast", ratio >= 1.5,
            f"boundary mean {np.mean(boundary_vals):.4f}, interior mean "
            f"{np.mean(interior_vals):.4f}, ratio {ratio:.2f} (need >= 1.5)")


def test_criterion_8_determinism(pipeline):
    again = _run_pipeline()
    same_ckpt = again["checkpoint_bytes"] == pipeline["checkpoint_bytes"]
    same_det = again["detection_payload"] == pipeline["detection_payload"]
    same_report = again["report_payload"] == pipeline["report_payload"]
    _report("8 determinism", same_ckpt and same_det and same_report,
            f"checkpoint {same_ckpt}, detections {same_det}, report {same_report}")


# -- criterion 9: format round trips ---------------------------------------------


def test_criterion_9_format_round_trips(tmp_path):
    import struct

    rng = np.random.default_rng(900)
    from eventseg import FrameFeatureSequence

    seq = FrameFeatureSequence("clip", 24.0, rng.normal(size=(9, 4)).astype(np.float32))
    fpath = tmp_path / "clip.csgf"
    save_feature_file(seq, fpath)
    first = fpath.read_bytes()
    save_feature_file(load_feature_file(fpath), fpath)
    features_ok = fpath.read_bytes() == first

    golden = struct.pack("<4sHIIf", b"CSGF", 1, 2, 3, 12.5)
    golden += struct.pack("<6f", 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    gpath = tmp_path / "golden.csgf"
    gpath.write_bytes(golden)
    parsed = load_feature_file(gpath)
    golden_ok = np.array_equal(
        parsed.features, np.array([[1, 2], [3, 4], [5, 6]], dtype=np.float32)
    )

    annotations = [
        Annotation("a", 50, 25.0, [5, 20], scores=[0.5, 0.75]),
        Annotation("b", 30, 10.0, []),
    ]
    apath = tmp_path / "ann.json"
    save_annotations(annotations, apath)
    first = apath.read_bytes()
    save_annotations(load_annotations(apath), apath)
    annotations_ok = apath.read_bytes() == first

    ok = features_ok and golden_ok and annotations_ok
    _report("9 format-round-trips", ok,
            f"CSGF byte-exact {features_ok}, golden parse {golden_ok}, "
            f"JSON byte-exact {annotations_ok}")
