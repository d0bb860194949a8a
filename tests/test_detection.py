"""Signal pipeline units (smoothing, gradient, relative extrema) and the
error-trajectory contracts."""

import platform
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import eventseg.detection as detection
import eventseg.reconstruction as reconstruction
from eventseg import (
    ContrastiveConfig,
    DataError,
    DetectorConfig,
    EncoderPair,
    FrameFeatureSequence,
    MemoryQueue,
    Optimizer,
    ReconstructionConfig,
    Reconstructor,
    ShapeError,
    detect_corpus,
    encode_query,
    error_trajectory,
    fir_smooth,
    gradient,
    masked_reconstruct,
    no_grad,
    relative_extrema,
    train_step,
)
from eventseg.detection import BLOCK_WINDOWS


def test_fir_smooth_constant_unchanged():
    signal = np.full(20, 3.5)
    np.testing.assert_allclose(fir_smooth(signal, 4), signal)


def test_fir_smooth_identity_at_zero_width():
    rng = np.random.default_rng(0)
    signal = rng.normal(size=15)
    np.testing.assert_array_equal(fir_smooth(signal, 0), signal)


def test_fir_smooth_impulse_with_replicate_padding():
    out = fir_smooth(np.array([0.0, 0.0, 1.0, 0.0, 0.0]), 1)
    np.testing.assert_allclose(out, [0.0, 1 / 3, 1 / 3, 1 / 3, 0.0])
    # An empty signal has no end value to replicate.
    with pytest.raises(DataError, match="at least 1 sample"):
        fir_smooth(np.empty(0), 2)


def test_fir_smooth_stays_within_input_range():
    rng = np.random.default_rng(1)
    for _ in range(50):
        signal = rng.normal(size=int(rng.integers(3, 60)))
        out = fir_smooth(signal, int(rng.integers(0, 6)))
        assert out.min() >= signal.min() - 1e-12
        assert out.max() <= signal.max() + 1e-12


def test_gradient_cases():
    np.testing.assert_allclose(gradient(np.full(10, 2.0)), np.zeros(10))
    np.testing.assert_allclose(gradient(np.arange(10.0)), np.ones(10))
    g = gradient(np.array([0.0, 1.0, 4.0, 9.0]))
    assert g[1] == 2.0 and g[2] == 4.0
    with pytest.raises(DataError):
        gradient(np.array([1.0]))


def test_relative_extrema_cases():
    assert relative_extrema(np.arange(10.0), 2).size == 0

    out = relative_extrema(np.array([0.1, 0.5, 0.9, 0.4, 0.2]), 2)
    assert out.tolist() == [2]

    plateau = np.array([0.0, 1.0, 1.0, 1.0, 0.0])
    assert relative_extrema(plateau, 1).size == 0


def test_relative_extrema_edge_eligibility():
    # A strict maximum without a full neighbourhood on either side never fires.
    signal = np.array([5.0, 1.0, 0.0, 0.0, 0.0, 1.0, 9.0])
    out = relative_extrema(signal, 3)
    assert out.size == 0
    rng = np.random.default_rng(2)
    for _ in range(50):
        g = rng.normal(size=40)
        r = int(rng.integers(1, 8))
        hits = relative_extrema(g, r)
        assert all(r <= t < len(g) - r for t in hits)


def test_relative_extrema_antitone_in_range():
    rng = np.random.default_rng(3)
    for _ in range(200):
        g = rng.normal(size=int(rng.integers(10, 80)))
        r1 = int(rng.integers(1, 5))
        r2 = int(rng.integers(r1, 9))
        wide = set(relative_extrema(g, r2).tolist())
        narrow = set(relative_extrema(g, r1).tolist())
        assert wide <= narrow


def _extrema_oracle(values, extrema_range):
    """The definition, one position at a time."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    r = extrema_range
    found = []
    for t in range(r, n - r):
        v = values[t]
        if (v > values[t - r : t]).all() and (v > values[t + 1 : t + r + 1]).all():
            found.append(t)
    return np.asarray(found, dtype=np.int64)


@pytest.mark.parametrize("extrema_range", [1, 5, 29, 70])
def test_relative_extrema_matches_oracle(extrema_range):
    rng = np.random.default_rng(extrema_range)
    r = extrema_range
    for trial in range(60):
        # Every fourth signal is at most one sample longer than 2r+1.
        high = 2 * r + 2 if trial % 4 == 0 else 8 * r + 40
        n = int(rng.integers(0 if trial % 4 == 0 else 2 * r + 1, high))
        kind = trial % 3
        if kind == 0:
            signal = rng.normal(size=n)
        elif kind == 1:
            # Few distinct levels: ties everywhere, including at maxima.
            signal = rng.integers(0, 4, size=n).astype(np.float64)
        else:
            signal = rng.normal(size=n)
            signal[rng.random(n) < 0.02] = np.nan
            signal[rng.random(n) < 0.02] = np.inf
        got = relative_extrema(signal, r)
        expected = _extrema_oracle(signal, r)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


def _frozen_models(dim_in=6, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    enc = EncoderPair(dim_in, dim, 0.999, rng)
    rec = Reconstructor(dim, 4, 2, rng)
    return enc, rec


def test_error_trajectory_length_and_copy_model():
    enc, rec = _frozen_models()
    # A reconstructor that passes its input through: zero weights, identity
    # head. The masked middle row becomes mask_token + 0, so force the token
    # to zero as well and compare against the zero-information floor.
    for p in rec.parameters():
        p.data[...] = 0.0
    rec.head_w.data[...] = np.eye(8, dtype=np.float32)
    rng = np.random.default_rng(4)
    video = FrameFeatureSequence("v", 25.0, rng.normal(size=(40, 6)).astype(np.float32))
    cfg = DetectorConfig(window=10, fir_half_width=2, extrema_range=5)
    trajectory = error_trajectory(video, enc, rec, cfg)
    assert trajectory.values.shape == (40,)
    assert (trajectory.values >= 0).all()
    # Edge frames replicate the nearest computed value.
    assert (trajectory.values[:5] == trajectory.values[5]).all()
    assert (trajectory.values[-4:] == trajectory.values[-5]).all()


def test_error_trajectory_matches_window_slices():
    # Each frame's error, recomputed from a video holding only its own
    # window, equals the full trajectory; edge frames take the nearest
    # computed frame's value.
    enc, rec = _frozen_models(seed=10)
    rng = np.random.default_rng(11)
    video = FrameFeatureSequence("v", 25.0, rng.normal(size=(37, 6)).astype(np.float32))
    cfg = DetectorConfig(window=10, fir_half_width=2, extrema_range=5)
    full = error_trajectory(video, enc, rec, cfg).values
    T, mid = cfg.window, cfg.window // 2
    first, last = mid, video.num_frames - T + mid
    for f in range(video.num_frames):
        c = min(max(f, first), last)
        window = FrameFeatureSequence("slice", 25.0, video.features[c - mid : c - mid + T])
        value = error_trajectory(window, enc, rec, cfg).values[mid]
        np.testing.assert_allclose(full[f], value, rtol=1e-4)
    # Distinct values per computed frame, so a misordered trajectory fails.
    assert np.unique(full).size == last - first + 1


def _trajectory_oracle(video, enc, rec, cfg):
    """Every window of the video at once, in one reconstructor call."""
    T, n = cfg.window, video.num_frames
    mid = T // 2
    first = mid
    last = n - 1 - (T - 1 - mid)
    with no_grad():
        embeddings = encode_query(video.features, enc).data
        starts = np.arange(first - mid, last - mid + 1)
        windows = embeddings[starts[:, None] + np.arange(T)[None, :]]
        recon_mid = masked_reconstruct(windows, np.full(len(starts), mid), rec).data
    originals = embeddings[first : last + 1]
    core = ((recon_mid - originals) ** 2).sum(axis=1)
    values = np.empty(n, dtype=np.float32)
    values[first : last + 1] = core
    values[:first] = core[0]
    values[last + 1 :] = core[-1]
    return values


@pytest.mark.parametrize("windows", [
    BLOCK_WINDOWS - 1, BLOCK_WINDOWS, BLOCK_WINDOWS + 1, 2 * BLOCK_WINDOWS + 3,
])
def test_error_trajectory_blocks_equal_one_shot_oracle(windows):
    enc, rec = _frozen_models(seed=12)
    cfg = DetectorConfig(window=10, fir_half_width=2, extrema_range=5)
    rng = np.random.default_rng(windows)
    frames = windows + cfg.window - 1
    video = FrameFeatureSequence("v", 25.0, rng.normal(size=(frames, 6)).astype(np.float32))
    np.testing.assert_array_equal(
        error_trajectory(video, enc, rec, cfg).values, _trajectory_oracle(video, enc, rec, cfg)
    )


def test_error_trajectory_memory_does_not_grow_with_the_video():
    # The one-shot oracle peaks at about 858 MB here.
    rng = np.random.default_rng(13)
    enc = EncoderPair(32, 16, 0.999, rng)
    rec = Reconstructor(16, 8, 2, rng)
    video = FrameFeatureSequence(
        "v", 25.0, rng.normal(size=(50_000, 32)).astype(np.float32)
    )
    tracemalloc.start()
    try:
        error_trajectory(video, enc, rec, DetectorConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


DETECT_FOUR_TIMES = """
import resource
import eventseg
import numpy as np
cfg = eventseg.RunConfig()
dim = cfg.synth.feature_dim
enc, rec, _ = eventseg.build_models(cfg.model, dim, np.random.default_rng(0))
features = np.random.default_rng(1).normal(size=(3000, dim)).astype(np.float32)
video = eventseg.FrameFeatureSequence("v", 25.0, features)
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    eventseg.detect_corpus([video], enc, rec, cfg.detector)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the heap policy is glibc's mallopt")
def test_repeated_detection_reuses_its_block_memory(fresh_python):
    # Each block frees ~4 MB of temporaries. With glibc's default thresholds
    # that went back to the OS after every block, and a detect of 3000
    # frames faulted about 13.5k pages in again; kept on the heap, 3-4.
    result = fresh_python("-c", DETECT_FOUR_TIMES)
    assert result.returncode == 0, result.stderr
    faults = [int(line) for line in result.stdout.split()]
    assert len(faults) == 4 and max(faults[1:]) < 500, faults


@pytest.fixture
def corpus_blocks(monkeypatch):
    """Records every block as (features, first frame, frames, thread, live
    thread count); ``features`` is the array of the video it came from."""
    seen = []
    real = detection.encode_query

    def recording(frames, enc):
        first = (frames.ctypes.data - frames.base.ctypes.data) // frames.strides[0]
        seen.append((frames.base, first, len(frames), threading.get_ident(),
                     threading.active_count()))
        return real(frames, enc)

    monkeypatch.setattr(detection, "encode_query", recording)
    return seen


def _blocks_by_video(seen, corpus):
    """``corpus_blocks`` records as (video id, first frame, frames, thread, count)."""
    ids = {id(video.features): video.video_id for video in corpus}
    return [(ids[id(features)], *rest) for features, *rest in seen]


def _video_of(windows, cfg, seed):
    rng = np.random.default_rng(seed)
    frames = windows + cfg.window - 1
    return FrameFeatureSequence("v", 25.0, rng.normal(size=(frames, 6)).astype(np.float32))


@pytest.mark.parametrize("windows", [2 * BLOCK_WINDOWS + 3, 5 * BLOCK_WINDOWS - 1])
def test_threaded_error_trajectory_equals_one_thread(
    monkeypatch, two_cpus, corpus_blocks, windows
):
    enc, rec = _frozen_models(seed=14)
    cfg = DetectorConfig(window=10, fir_half_width=2, extrema_range=5)
    video = _video_of(windows, cfg, windows)
    threaded = error_trajectory(video, enc, rec, cfg).values
    assert len({ident for *_, ident, _ in corpus_blocks}) == 2
    monkeypatch.setattr(detection, "MAX_THREADS", 1)
    corpus_blocks.clear()
    alone = error_trajectory(video, enc, rec, cfg).values
    assert {ident for *_, ident, _ in corpus_blocks} == {threading.get_ident()}
    assert threaded.tobytes() == alone.tobytes()


@pytest.mark.parametrize("windows", [BLOCK_WINDOWS, BLOCK_WINDOWS + 17, 2 * BLOCK_WINDOWS - 1])
def test_video_of_under_two_full_blocks_starts_no_thread(two_cpus, corpus_blocks, windows):
    enc, rec = _frozen_models(seed=16)
    cfg = DetectorConfig(window=10, fir_half_width=2, extrema_range=5)
    before = threading.active_count()
    error_trajectory(_video_of(windows, cfg, 16), enc, rec, cfg)
    assert {block[-2:] for block in corpus_blocks} == {(threading.get_ident(), before)}


def test_train_step_fills_gradients_after_threaded_trajectory(monkeypatch, two_cpus):
    rng = np.random.default_rng(17)
    enc = EncoderPair(6, 8, 0.999, rng)
    rec = Reconstructor(8, 4, 2, rng)
    cfg = DetectorConfig(window=10, fir_half_width=2, extrema_range=5)
    error_trajectory(_video_of(3 * BLOCK_WINDOWS, cfg, 17), enc, rec, cfg)

    grads = {}
    real_sgd_step = reconstruction.sgd_step

    def recording_sgd_step(arenas, opt):
        arenas = list(arenas)
        grads.update((p.name, None if p.grad is None else p.grad.copy())
                     for a in arenas for p in a.params)
        real_sgd_step(arenas, opt)

    monkeypatch.setattr(reconstruction, "sgd_step", recording_sgd_step)
    batch = rng.normal(size=(4, 5, 6)).astype(np.float32)
    train_step(batch, enc, MemoryQueue(16, 8), rec, ContrastiveConfig(),
               ReconstructionConfig(), Optimizer(), rng)
    assert grads and all(g is not None and np.any(g != 0) for g in grads.values()), [
        name for name, g in grads.items() if g is None or not np.any(g != 0)]


# Ids out of length order; five videos of fewer than two full blocks (7 to
# 2 * BLOCK_WINDOWS - 1 windows) and one of three blocks.
_MIXED_WINDOWS = {"c": 40, "f": 2 * BLOCK_WINDOWS + 3, "a": 300, "e": 7,
                  "b": 2 * BLOCK_WINDOWS - 1, "d": 120}


def _mixed_corpus(cfg):
    rng = np.random.default_rng(18)
    return [
        FrameFeatureSequence(
            vid, 25.0, rng.normal(size=(w + cfg.window - 1, 6)).astype(np.float32))
        for vid, w in _MIXED_WINDOWS.items()
    ]


def _corpus_bytes(detections, signals):
    return [
        (vid, det.num_frames, det.boundaries, det.scores, [x.tobytes() for x in signals[vid]])
        for vid, det in detections.items()
    ]


def test_detect_corpus_on_two_threads_equals_one(
    monkeypatch, two_cpus, corpus_blocks, fast_switching
):
    enc, rec = _frozen_models(seed=18)
    cfg = DetectorConfig(window=10, fir_half_width=2, extrema_range=5)
    corpus = _mixed_corpus(cfg)
    before = threading.active_count()
    threaded = _corpus_bytes(*detect_corpus(corpus, enc, rec, cfg))
    assert [vid for vid, *_ in threaded] == sorted(_MIXED_WINDOWS)
    # The blocks ran on the caller and one worker; no more than two threads lived.
    assert len({ident for *_, ident, _ in corpus_blocks}) == 2
    assert max(count for *_, count in corpus_blocks) == before + 1

    monkeypatch.setattr(detection, "_usable_cpus", lambda: 1)
    corpus_blocks.clear()
    alone = _corpus_bytes(*detect_corpus(corpus, enc, rec, cfg))
    blocks = _blocks_by_video(corpus_blocks, corpus)
    assert {(ident, count) for *_, ident, count in blocks} == {(threading.get_ident(), before)}
    # One thread takes the blocks in list order: video by video in id order,
    # each video's blocks first to last.
    assert [(vid, first) for vid, first, *_ in blocks] == [
        (vid, first) for vid in sorted(_MIXED_WINDOWS)
        for first in range(0, _MIXED_WINDOWS[vid], BLOCK_WINDOWS)]
    assert threaded == alone


def test_detect_corpus_on_more_threads_than_cores(monkeypatch, corpus_blocks, fast_switching):
    # Four threads share the blocks of eleven videos; each window must be
    # computed exactly once.
    monkeypatch.setattr(detection, "MAX_THREADS", 4)
    monkeypatch.setattr(detection, "_usable_cpus", lambda: 4)
    enc, rec = _frozen_models(seed=21)
    cfg = DetectorConfig(window=10, fir_half_width=2, extrema_range=5)
    rng = np.random.default_rng(21)
    corpus = [
        FrameFeatureSequence(f"v{k:02d}", 25.0, rng.normal(size=(n, 6)).astype(np.float32))
        for k, n in enumerate(rng.integers(10, 400, size=11))
    ]
    windows = {video.video_id: video.num_frames - cfg.window + 1 for video in corpus}
    assert sum(windows.values()) >= 4 * BLOCK_WINDOWS  # enough for four threads
    before = threading.active_count()
    threaded = _corpus_bytes(*detect_corpus(corpus, enc, rec, cfg))
    assert max(count for *_, count in corpus_blocks) <= before + 3
    computed = sorted(
        (vid, first + w)
        for vid, first, frames, *_ in _blocks_by_video(corpus_blocks, corpus)
        for w in range(frames - cfg.window + 1))
    assert computed == sorted((vid, w) for vid, n in windows.items() for w in range(n))
    monkeypatch.setattr(detection, "_usable_cpus", lambda: 1)
    assert threaded == _corpus_bytes(*detect_corpus(corpus, enc, rec, cfg))


def test_long_and_short_videos_share_the_threads(monkeypatch, two_cpus, corpus_blocks):
    # Video "a" has one part block and "b" three blocks. The block of "a" and
    # the first block of "b" each wait until the other has started, so they
    # must run side by side, on different threads of one call.
    real = detection.encode_query
    side_by_side = threading.Barrier(2, timeout=10)

    def meeting(frames, enc):
        if frames.base is corpus[0].features or frames.ctypes.data == frames.base.ctypes.data:
            side_by_side.wait()
        return real(frames, enc)

    enc, rec = _frozen_models(seed=22)
    cfg = DetectorConfig(window=10, fir_half_width=2, extrema_range=5)
    corpus = [FrameFeatureSequence(vid, 25.0, _video_of(windows, cfg, seed).features)
              for vid, windows, seed in (("a", 40, 22), ("b", 2 * BLOCK_WINDOWS + 3, 23))]
    monkeypatch.setattr(detection, "encode_query", meeting)
    threaded = _corpus_bytes(*detect_corpus(corpus, enc, rec, cfg))
    blocks = _blocks_by_video(corpus_blocks, corpus)
    assert [(vid, first) for vid, first, *_ in sorted(blocks, key=lambda b: b[:2])] == [
        ("a", 0), ("b", 0), ("b", BLOCK_WINDOWS), ("b", 2 * BLOCK_WINDOWS)]
    assert len({ident for *_, ident, _ in blocks}) == 2
    monkeypatch.setattr(detection, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(detection, "encode_query", real)
    assert threaded == _corpus_bytes(*detect_corpus(corpus, enc, rec, cfg))


@pytest.mark.parametrize("side", ["worker", "caller"])
def test_error_on_a_detection_thread_reaches_the_caller(monkeypatch, two_cpus, side):
    # The failing side raises in its first block; the other side finishes
    # the block it may be in and starts at most one more.
    real = detection.encode_query
    raised = threading.Event()
    other_blocks = []

    def failing(frames, enc):
        if (threading.current_thread() is threading.main_thread()) == (side == "caller"):
            raised.set()
            raise RuntimeError(f"{side} block failed")
        raised.wait(10)
        other_blocks.append(len(frames))
        return real(frames, enc)

    monkeypatch.setattr(detection, "encode_query", failing)
    enc, rec = _frozen_models(seed=19)
    cfg = DetectorConfig(window=10, fir_half_width=2, extrema_range=5)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{side} block failed"):
        detect_corpus(_mixed_corpus(cfg), enc, rec, cfg)
    assert threading.active_count() == before
    assert len(other_blocks) <= 1


def test_error_trajectory_zero_for_perfect_reconstruction():
    # If the output head reproduces the original row exactly the error is 0.
    # Build that by bypassing attention (zero weights) and masking nothing:
    # here instead we check the contract on the pipeline level with a video
    # whose embedding rows the model can copy: identical frames everywhere.
    enc, rec = _frozen_models(seed=5)
    video = FrameFeatureSequence(
        "v", 25.0, np.tile(np.ones(6, dtype=np.float32), (30, 1))
    )
    cfg = DetectorConfig(window=10, fir_half_width=2, extrema_range=5)
    trajectory = error_trajectory(video, enc, rec, cfg)
    # All windows identical -> all errors identical (no structure).
    assert np.allclose(trajectory.values, trajectory.values[0])


def test_error_trajectory_rejects_short_video():
    enc, rec = _frozen_models(seed=6)
    video = FrameFeatureSequence("v", 25.0, np.ones((5, 6), dtype=np.float32))
    with pytest.raises(DataError):
        error_trajectory(video, enc, rec, DetectorConfig(window=10))


def _with_last(video, cfg):
    """The mixed corpus, every video of it passing the gate, then ``video``,
    last in id order."""
    return [video, *_mixed_corpus(cfg)]


def test_too_narrow_video_fails_the_gate_before_any_block(corpus_blocks):
    enc, rec = _frozen_models(seed=24)
    cfg = DetectorConfig(window=10, fir_half_width=2, extrema_range=5)
    narrow = FrameFeatureSequence("zz", 25.0, np.ones((60, 4), dtype=np.float32))
    with pytest.raises(ShapeError, match="video 'zz' has 4-wide features, "
                                         "the encoder expects input_dim 6"):
        detect_corpus(_with_last(narrow, cfg), enc, rec, cfg)
    assert corpus_blocks == []


@pytest.mark.parametrize("entry", ["detect_corpus", "error_trajectory"])
def test_too_short_video_fails_the_gate_before_any_block(corpus_blocks, entry):
    enc, rec = _frozen_models(seed=25)
    cfg = DetectorConfig(window=10, fir_half_width=2, extrema_range=5)
    short = FrameFeatureSequence("zz", 25.0, np.ones((5, 6), dtype=np.float32))
    with pytest.raises(DataError, match="video 'zz' has 5 frames, "
                                        "shorter than the detector window 10"):
        if entry == "detect_corpus":
            detect_corpus(_with_last(short, cfg), enc, rec, cfg)
        else:
            error_trajectory(short, enc, rec, cfg)
    assert corpus_blocks == []


def test_two_videos_with_one_id_are_a_data_error(corpus_blocks):
    enc, rec = _frozen_models(seed=26)
    cfg = DetectorConfig(window=10, fir_half_width=2, extrema_range=5)
    rng = np.random.default_rng(26)
    corpus = [FrameFeatureSequence("v", 25.0, rng.normal(size=(n, 6)).astype(np.float32))
              for n in (80, 120)]
    with pytest.raises(DataError, match="'v' appears twice"):
        detect_corpus(corpus, enc, rec, cfg)
    assert corpus_blocks == []


def test_detect_corpus_zero_trajectory_detects_nothing():
    enc, rec = _frozen_models(seed=7)
    video = FrameFeatureSequence(
        "v", 25.0, np.tile(np.ones(6, dtype=np.float32), (60, 1))
    )
    cfg = DetectorConfig(window=10, fir_half_width=2, extrema_range=5)
    result = detect_corpus([video], enc, rec, cfg)[0]["v"]
    assert result.boundaries == []


def test_detect_corpus_deterministic_and_scored():
    enc, rec = _frozen_models(seed=8)
    rng = np.random.default_rng(9)
    video = FrameFeatureSequence("v", 25.0, rng.normal(size=(80, 6)).astype(np.float32))
    cfg = DetectorConfig(window=10, fir_half_width=2, extrema_range=5)
    detections, signals = detect_corpus([video], enc, rec, cfg)
    a, (raw_a, smooth_a, grad_a) = detections["v"], signals["v"]
    b = detect_corpus([video], enc, rec, cfg)[0]["v"]
    assert a.boundaries == b.boundaries and a.scores == b.scores
    assert (a.num_frames, a.fps) == (80, 25.0)
    assert len(raw_a) == len(smooth_a) == len(grad_a) == 80
    for frame, score in zip(a.boundaries, a.scores):
        assert score == pytest.approx(abs(grad_a[frame]))
