"""The training driver and its two-branch step: one worker thread per run,
the same bytes on one thread or two, and failures that leave no thread and
no partial update behind."""

import dataclasses
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import eventseg.detection as detection
import eventseg.reconstruction as reconstruction
import eventseg.training as training
from eventseg import (
    ContrastiveConfig,
    NumericsError,
    Optimizer,
    ReconstructionConfig,
    RunConfig,
    synth_generate,
    train_step,
)

from test_reconstruction import _training_setup


def _small_run(steps):
    cfg = RunConfig()
    cfg.synth = dataclasses.replace(cfg.synth, num_videos=6)
    cfg.training = dataclasses.replace(cfg.training, steps=steps, batch_videos=3)
    cfg.model = dataclasses.replace(cfg.model, queue_capacity=64)
    corpus, _ = synth_generate(cfg.synth)
    return corpus, cfg


def _state(result):
    params = result.encoders.parameters() + result.reconstructor.parameters()
    return (
        [p.data.tobytes() for p in params],
        [p.momentum_buffer.tobytes() for p in params],
        result.queue.as_array().tobytes(),
        result.history,
    )


@pytest.fixture
def branch_threads(monkeypatch):
    """Records the thread that runs every reconstruction branch."""
    seen = []
    real = reconstruction.reconstruction_loss

    def recording(*args, **kwargs):
        seen.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(reconstruction, "reconstruction_loss", recording)
    return seen


def test_two_threads_train_the_same_bytes_as_one(
    monkeypatch, two_cpus, branch_threads, fast_switching
):
    # 16 steps of 6 snippets wrap the 64-entry queue.
    corpus, cfg = _small_run(steps=16)
    threaded = _state(training.run_training(corpus, cfg))
    assert len(branch_threads) == 16
    assert threading.get_ident() not in branch_threads
    monkeypatch.setattr(detection, "_usable_cpus", lambda: 1)
    branch_threads.clear()
    alone = _state(training.run_training(corpus, cfg))
    assert set(branch_threads) == {threading.get_ident()}
    assert threaded == alone


@pytest.mark.parametrize("outcome", ["completes", "diverges", "raises"])
def test_run_training_leaves_no_thread_behind(monkeypatch, two_cpus, branch_threads, outcome):
    corpus, cfg = _small_run(steps=6)
    real_step = training.train_step
    calls = {"n": 0}

    def failing_step(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] >= 4 and outcome == "diverges":
            raise NumericsError("non-finite training loss")
        if calls["n"] >= 4 and outcome == "raises":
            raise RuntimeError("step failed")
        return real_step(*args, **kwargs)

    monkeypatch.setattr(training, "train_step", failing_step)
    before = threading.active_count()
    if outcome == "raises":
        with pytest.raises(RuntimeError, match="step failed"):
            training.run_training(corpus, cfg)
    else:
        result = training.run_training(corpus, cfg)
        assert result.completed_steps == (6 if outcome == "completes" else 3)
    assert threading.active_count() == before
    # The steps before the failure did use a worker.
    assert branch_threads and threading.get_ident() not in branch_threads


@pytest.mark.parametrize("threaded", [False, True])
def test_step_gradients_are_those_of_one_joint_graph(monkeypatch, threaded):
    # The branches' gradients, joined at h, give every parameter the bytes
    # that backpropagating the summed loss through one graph gives.
    grads = {}
    real_sgd_step = reconstruction.sgd_step

    def recording_sgd_step(params, opt):
        params = list(params)
        grads.update((p.name, p.grad.tobytes()) for p in params)
        real_sgd_step(params, opt)

    monkeypatch.setattr(reconstruction, "sgd_step", recording_sgd_step)
    enc, rec, queue, batch, _, _ = _training_setup(seed=5)
    ccfg, rcfg = ContrastiveConfig(), ReconstructionConfig(beta=0.7)
    # A partly filled queue, so the contrastive branch has queue negatives.
    queue.load(np.random.default_rng(6).normal(size=(20, 8)).astype(np.float32))
    with ThreadPoolExecutor(1) as pool:
        train_step(batch, enc, queue, rec, ccfg, rcfg, Optimizer(),
                   np.random.default_rng(0), pool if threaded else None)

    enc, rec, queue, batch, _, _ = _training_setup(seed=5)
    queue.load(np.random.default_rng(6).normal(size=(20, 8)).astype(np.float32))
    mask_rows = np.random.default_rng(0).integers(0, batch.shape[1], size=len(batch))
    _, _, total = reconstruction.compute_losses(batch, enc, queue, rec, ccfg, rcfg, mask_rows)
    total.backward()
    joint = {p.name: p.grad.tobytes() for p in enc.query.parameters() + rec.parameters()}
    assert grads.keys() == joint.keys()
    assert [name for name in joint if grads[name] != joint[name]] == []


@pytest.mark.parametrize("side", ["contrastive", "reconstruction"])
def test_an_error_in_a_branch_reaches_the_caller_after_the_other_stops(monkeypatch, side):
    # The failing branch raises at once; the other waits for that, then
    # dawdles, so an error that did not wait for it would arrive first.
    raised = threading.Event()
    finished = []

    def branch(name, real):
        def run(*args, **kwargs):
            if name == side:
                raised.set()
                raise RuntimeError(f"{name} branch failed")
            raised.wait(10)
            time.sleep(0.05)
            result = real(*args, **kwargs)
            finished.append(name)
            return result

        return run

    for name in ("contrastive", "reconstruction"):
        attr = f"{name}_loss"
        monkeypatch.setattr(reconstruction, attr, branch(name, getattr(reconstruction, attr)))
    other = "reconstruction" if side == "contrastive" else "contrastive"
    enc, rec, queue, batch, _, _ = _training_setup(seed=3)
    with ThreadPoolExecutor(1) as worker:
        with pytest.raises(RuntimeError, match=f"{side} branch failed"):
            train_step(batch, enc, queue, rec, ContrastiveConfig(), ReconstructionConfig(),
                       Optimizer(), np.random.default_rng(0), worker)
        assert finished == [other]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("threaded", [False, True])
@pytest.mark.parametrize("branch", ["contrastive", "reconstruction"])
def test_a_non_finite_branch_loss_changes_nothing(branch, threaded):
    enc, rec, queue, batch, _, _ = _training_setup(seed=4)
    ccfg, rcfg, opt = ContrastiveConfig(), ReconstructionConfig(), Optimizer()
    rng = np.random.default_rng(0)
    # One good step first, so the momentum buffers and the queue hold values.
    train_step(batch, enc, queue, rec, ccfg, rcfg, opt, rng)
    if branch == "contrastive":
        # load refuses a non-finite row; push, below enqueue_memory's check, does not.
        queue.push(np.full(8, np.nan, np.float32))
    else:
        rec.mask_token.data[0] = np.inf
    params = enc.parameters() + rec.parameters()
    before = [(p.data.tobytes(), p.momentum_buffer.tobytes()) for p in params]
    queue_before = queue.as_array().tobytes()
    with ThreadPoolExecutor(1) as pool:
        with pytest.raises(NumericsError, match="non-finite training loss"):
            train_step(batch, enc, queue, rec, ccfg, rcfg, opt, rng,
                       pool if threaded else None)
    assert [(p.data.tobytes(), p.momentum_buffer.tobytes()) for p in params] == before
    assert queue.as_array().tobytes() == queue_before
    assert not [p.name for p in params if np.any(p.grad != 0)]
