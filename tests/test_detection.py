"""Signal pipeline units (smoothing, gradient, relative extrema) and the
error-trajectory contracts."""

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
    SnippetBatch,
    detect_boundaries,
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
    enc = EncoderPair(dim_in, dim, rng=rng)
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
    enc = EncoderPair(32, 16, rng=rng)
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


@pytest.fixture
def block_threads(monkeypatch):
    """Records the thread and the live thread count of every block."""
    seen = []
    real = detection.encode_query

    def recording(frames, enc):
        seen.append((threading.get_ident(), threading.active_count()))
        return real(frames, enc)

    monkeypatch.setattr(detection, "encode_query", recording)
    return seen


def _video_of(windows, cfg, seed):
    rng = np.random.default_rng(seed)
    frames = windows + cfg.window - 1
    return FrameFeatureSequence("v", 25.0, rng.normal(size=(frames, 6)).astype(np.float32))


@pytest.mark.parametrize("windows", [2 * BLOCK_WINDOWS + 3, 5 * BLOCK_WINDOWS - 1])
def test_threaded_error_trajectory_equals_one_thread(
    monkeypatch, two_cpus, block_threads, windows
):
    enc, rec = _frozen_models(seed=14)
    cfg = DetectorConfig(window=10, fir_half_width=2, extrema_range=5)
    video = _video_of(windows, cfg, windows)
    threaded = error_trajectory(video, enc, rec, cfg).values
    assert len({ident for ident, _ in block_threads}) == 2
    monkeypatch.setattr(detection, "MAX_THREADS", 1)
    block_threads.clear()
    alone = error_trajectory(video, enc, rec, cfg).values
    assert {ident for ident, _ in block_threads} == {threading.get_ident()}
    assert threaded.tobytes() == alone.tobytes()


@pytest.mark.parametrize("side", ["worker", "caller"])
def test_error_in_a_block_reaches_the_caller(monkeypatch, two_cpus, side):
    # The failing side raises in its first block; the other side finishes the
    # block it may be in and starts no further one. The worker is gone after.
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
    enc, rec = _frozen_models(seed=15)
    cfg = DetectorConfig(window=10, fir_half_width=2, extrema_range=5)
    video = _video_of(8 * BLOCK_WINDOWS, cfg, 15)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{side} block failed"):
        error_trajectory(video, enc, rec, cfg)
    assert threading.active_count() == before
    assert len(other_blocks) <= 1


@pytest.mark.parametrize("windows", [BLOCK_WINDOWS, BLOCK_WINDOWS + 17, 2 * BLOCK_WINDOWS - 1])
def test_video_of_under_two_full_blocks_starts_no_thread(two_cpus, block_threads, windows):
    enc, rec = _frozen_models(seed=16)
    cfg = DetectorConfig(window=10, fir_half_width=2, extrema_range=5)
    before = threading.active_count()
    error_trajectory(_video_of(windows, cfg, 16), enc, rec, cfg)
    assert set(block_threads) == {(threading.get_ident(), before)}


def test_train_step_fills_gradients_after_threaded_trajectory(monkeypatch, two_cpus):
    rng = np.random.default_rng(17)
    enc = EncoderPair(6, 8, rng=rng)
    rec = Reconstructor(8, 4, 2, rng)
    cfg = DetectorConfig(window=10, fir_half_width=2, extrema_range=5)
    error_trajectory(_video_of(3 * BLOCK_WINDOWS, cfg, 17), enc, rec, cfg)

    grads = {}
    real_sgd_step = reconstruction.sgd_step

    def recording_sgd_step(params, opt):
        params = list(params)
        grads.update((p.name, None if p.grad is None else p.grad.copy()) for p in params)
        real_sgd_step(params, opt)

    monkeypatch.setattr(reconstruction, "sgd_step", recording_sgd_step)
    frames = rng.normal(size=(4, 5, 6)).astype(np.float32)
    batch = SnippetBatch(frames, ["a", "a", "b", "c"], [0, 5, 0, 0])
    train_step(batch, enc, MemoryQueue(16, 8), rec, ContrastiveConfig(),
               ReconstructionConfig(), Optimizer(), rng)
    assert grads and all(g is not None and np.any(g != 0) for g in grads.values()), [
        name for name, g in grads.items() if g is None or not np.any(g != 0)]


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


def test_detect_boundaries_zero_trajectory_detects_nothing():
    enc, rec = _frozen_models(seed=7)
    video = FrameFeatureSequence(
        "v", 25.0, np.tile(np.ones(6, dtype=np.float32), (60, 1))
    )
    cfg = DetectorConfig(window=10, fir_half_width=2, extrema_range=5)
    result, _ = detect_boundaries(video, enc, rec, cfg)
    assert result.boundaries == []


def test_detect_boundaries_deterministic_and_scored():
    enc, rec = _frozen_models(seed=8)
    rng = np.random.default_rng(9)
    video = FrameFeatureSequence("v", 25.0, rng.normal(size=(80, 6)).astype(np.float32))
    cfg = DetectorConfig(window=10, fir_half_width=2, extrema_range=5)
    a, (raw_a, smooth_a, grad_a) = detect_boundaries(video, enc, rec, cfg)
    b, _ = detect_boundaries(video, enc, rec, cfg)
    assert a.boundaries == b.boundaries and a.scores == b.scores
    assert (a.num_frames, a.fps) == (80, 25.0)
    assert len(raw_a) == len(smooth_a) == len(grad_a) == 80
    for frame, score in zip(a.boundaries, a.scores):
        assert score == pytest.approx(abs(grad_a[frame]))
