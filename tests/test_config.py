"""Config defaults, INI round trip, and cross-field validation."""

import dataclasses

import numpy as np
import pytest

from eventseg import ConfigError, NumericsError, RunConfig, load_config, synth_generate
from eventseg.config import _PARSERS, _SECTIONS, write_config_template
from eventseg.training import run_training


def test_defaults_carry_standard_hyperparameters():
    cfg = RunConfig()
    assert cfg.contrastive.temperature == 0.2
    assert cfg.contrastive.window == 10
    assert cfg.model.alpha == 0.999
    assert cfg.model.queue_capacity == 4096
    assert cfg.reconstruction.mask_size == 1
    assert cfg.reconstruction.beta == 1.0
    assert cfg.model.heads == 8 and cfg.model.layers == 2
    assert cfg.optimizer.learning_rate == 0.002
    assert cfg.optimizer.weight_decay == 1e-4
    assert cfg.optimizer.momentum == 0.9
    assert cfg.training.batch_videos == 16
    assert cfg.training.snippets_per_video == 2
    # Below the minimum synthetic event length (30), so boundaries one
    # minimum event apart can both be strict maxima.
    assert cfg.detector.extrema_range == 29
    assert cfg.thresholds == tuple(round(0.05 * k, 2) for k in range(1, 11))


def test_template_round_trips(tmp_path):
    path = tmp_path / "defaults.ini"
    write_config_template(path)
    cfg = load_config(path)
    assert cfg == RunConfig()


def test_seed_override(tmp_path):
    cfg = load_config(None, seed=99)
    assert cfg.training.seed == 99
    assert cfg.synth.seed == 99


def test_window_consistency_enforced(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[contrastive]\nwindow = 12\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_event_length_must_cover_window(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[synth]\nevent_length = 4,8\n")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("value", ["30", "30,60,90", "30.5,60", "30,", "a,b"])
def test_int_pair_needs_exactly_two_ints(tmp_path, value):
    path = tmp_path / "bad.ini"
    path.write_text(f"[synth]\nevent_length = {value}\n")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("section, key, value", [
    ("training", "steps", "5.5"),
    ("optimizer", "momentum", "fast"),
    ("detector", "min_trajectory_len", "1.5"),
])
def test_unparsable_scalar_is_config_error(tmp_path, section, key, value):
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_every_config_field_has_a_parser():
    for section, (_, cls) in _SECTIONS.items():
        for f in dataclasses.fields(cls):
            assert f.type in _PARSERS, f"[{section}] {f.name}: {f.type!r}"


@pytest.mark.parametrize("value", ["0.05,abc", "0,0.5", "0.5,1.5", "nan", ","])
def test_bad_thresholds_are_config_errors(tmp_path, value):
    path = tmp_path / "bad.ini"
    path.write_text(f"[evaluation]\nthresholds = {value}\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[modle]\ninput_dim = 4\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_training_divergence_stops_with_last_good_state(monkeypatch):
    cfg = RunConfig()
    cfg.synth = dataclasses.replace(cfg.synth, num_videos=6)
    cfg.training = dataclasses.replace(cfg.training, steps=10, batch_videos=3)
    cfg.model = dataclasses.replace(cfg.model, queue_capacity=64)
    corpus, _ = synth_generate(cfg.synth)

    import eventseg.training as training_mod

    real_step = training_mod.train_step
    calls = {"n": 0}

    def failing_step(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] >= 4:
            raise NumericsError("non-finite training loss")
        return real_step(*args, **kwargs)

    monkeypatch.setattr(training_mod, "train_step", failing_step)
    result = training_mod.run_training(corpus, cfg)
    assert result.diverged
    assert result.completed_steps == 3
    assert len(result.history) == 3
    # The surviving parameters are finite and usable.
    for p in result.encoders.parameters() + result.reconstructor.parameters():
        assert np.isfinite(p.data).all()
