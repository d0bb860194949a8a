"""Config defaults, INI round trip, and cross-field validation."""

import dataclasses
import re

import numpy as np
import pytest

from eventseg import (
    Annotation,
    ConfigError,
    ContrastiveConfig,
    NumericsError,
    ReconstructionConfig,
    RunConfig,
    load_config,
    save_annotations,
    synth_generate,
)
from eventseg.cli import main
from eventseg.config import _PARSERS, _SECTIONS


def test_defaults_carry_standard_hyperparameters():
    cfg = RunConfig()
    assert cfg.contrastive.temperature == 0.2
    assert cfg.detector.window == 10
    assert cfg.model.alpha == 0.999
    assert cfg.model.queue_capacity == 4096
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
    assert cfg.evaluation.thresholds == tuple(round(0.05 * k, 2) for k in range(1, 11))


def test_seed_override(tmp_path):
    cfg = load_config(None, seed=99)
    assert cfg.training.seed == 99
    assert cfg.synth.seed == 99


@pytest.mark.parametrize("section", ["contrastive", "reconstruction"])
def test_window_is_a_detector_key_only(tmp_path, section):
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\nwindow = 10\n")
    with pytest.raises(ConfigError, match="unknown key 'window'"):
        load_config(path)


def test_event_length_must_cover_window(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[synth]\nevent_length = 4,8\n")
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: config: synthetic event_length minimum 4 is shorter than the window 10\n"
    assert not (tmp_path / "out").exists()


def test_a_command_that_does_not_synthesise_ignores_the_synth_window_rule(tmp_path, capsys):
    # The default [synth] events (30 frames at least) are shorter than this
    # window, which eval does not read either.
    truth = tmp_path / "truth.json"
    save_annotations([Annotation("v", 100, 25.0, [40, 70])], truth)
    path = tmp_path / "run.ini"
    path.write_text(f"[detector]\nwindow = 40\n[paths]\ndetections = {truth}\n"
                    f"annotations = {truth}\n")
    assert main(["eval", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("value", ["30", "30,60,90", "30.5,60", "30,", "a,b"])
def test_int_pair_needs_exactly_two_ints(tmp_path, value):
    path = tmp_path / "bad.ini"
    path.write_text(f"[synth]\nevent_length = {value}\n")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("section, key, value", [
    ("training", "steps", "5.5"),
    ("optimizer", "momentum", "fast"),
])
def test_unparsable_scalar_is_config_error(tmp_path, section, key, value):
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_ini_keys_are_exactly_these():
    # Pinned so that adding or removing a setting shows up in review.
    keys = {(section, f.name) for section, cls in _SECTIONS.items()
            for f in dataclasses.fields(cls)}
    assert keys == {
        ("model", "embedding_dim"), ("model", "heads"), ("model", "layers"),
        ("model", "alpha"), ("model", "queue_capacity"),
        ("contrastive", "temperature"),
        ("reconstruction", "beta"),
        ("detector", "window"), ("detector", "fir_half_width"),
        ("detector", "extrema_range"),
        ("optimizer", "learning_rate"), ("optimizer", "weight_decay"),
        ("optimizer", "momentum"),
        ("synth", "num_videos"), ("synth", "events_per_video"),
        ("synth", "event_length"), ("synth", "feature_dim"),
        ("synth", "num_prototypes"), ("synth", "noise_std"),
        ("synth", "drift_std"), ("synth", "seed"), ("synth", "fps"),
        ("training", "steps"), ("training", "batch_videos"),
        ("training", "snippets_per_video"), ("training", "seed"),
        ("training", "log_every"),
        ("paths", "data_dir"), ("paths", "detections"), ("paths", "annotations"),
        ("evaluation", "thresholds"),
    }
    assert len(keys) == 31


def test_every_config_field_has_a_parser():
    for section, cls in _SECTIONS.items():
        for f in dataclasses.fields(cls):
            assert f.type in _PARSERS, f"[{section}] {f.name}: {f.type!r}"


# Values at and past the edges of every type a key can hold, and the two
# forms configparser would interpolate; a pair or tuple key also gets them
# inside a list.
HOSTILE = ("0", "-1", "1e38", "inf", "nan", str(2**40), "%", "%(x)s")
HOSTILE_LISTS = ("1,inf", "nan,nan")


def test_every_key_takes_hostile_values_as_a_config_or_a_config_error(tmp_path):
    path = tmp_path / "hostile.ini"
    cases = [(section, f.name, value)
             for section, cls in _SECTIONS.items() for f in dataclasses.fields(cls)
             for value in HOSTILE + (HOSTILE_LISTS if f.type.startswith("tuple") else ())]
    other = []
    for section, key, value in cases:
        path.write_text(f"[{section}]\n{key} = {value}\n")
        try:
            cfg = load_config(path)
        except ConfigError:
            continue
        except Exception as exc:  # any other error is what this test looks for
            other.append(f"[{section}] {key} = {value}: {type(exc).__name__}: {exc}")
            continue
        if not isinstance(cfg, RunConfig):
            other.append(f"[{section}] {key} = {value}: returned {cfg!r}")
    assert len(cases) == 31 * len(HOSTILE) + 3 * len(HOSTILE_LISTS)
    assert not other, "\n".join(other)


def test_values_are_read_literally(tmp_path):
    path = tmp_path / "percent.ini"
    path.write_text("[paths]\ndata_dir = run%1/%(x)s\n")
    assert load_config(path).paths.data_dir == "run%1/%(x)s"


@pytest.mark.parametrize("value", ["0.05,abc", "0,0.5", "0.5,1.5", "nan", ",", ""])
def test_bad_thresholds_are_config_errors(tmp_path, value):
    path = tmp_path / "bad.ini"
    path.write_text(f"[evaluation]\nthresholds = {value}\n")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("beta", [float("nan"), float("inf"), -1.0])
def test_reconstruction_beta_must_be_finite_and_non_negative(beta):
    with pytest.raises(ConfigError, match="beta"):
        ReconstructionConfig(beta=beta)


@pytest.mark.parametrize("temperature", [float("inf"), float("nan"), 0.0, -0.2])
def test_contrastive_temperature_must_be_finite_and_positive(temperature):
    # At an infinite temperature every logit is 0 and the loss has no gradient.
    with pytest.raises(ConfigError, match="temperature"):
        ContrastiveConfig(temperature=temperature)


def test_reconstruction_beta_zero_is_valid(tmp_path):
    assert ReconstructionConfig(beta=0.0).beta == 0.0
    path = tmp_path / "zero.ini"
    path.write_text("[reconstruction]\nbeta = 0\n")
    assert load_config(path).reconstruction.beta == 0.0


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    for text, section in [
        ("[modle]\ninput_dim = 4\n", "modle"),
        # configparser would ignore [DEFAULT] keys alone, and apply them to
        # every other section.
        ("[DEFAULT]\nsteps = 5\n", "DEFAULT"),
        ("[DEFAULT]\nseed = 3\n[training]\nsteps = 5\n", "DEFAULT"),
        ("[DEFAULT]\nsteps = 5\n[paths]\ndata_dir = d\n", "DEFAULT"),
    ]:
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"unknown config section [{section}]")):
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
