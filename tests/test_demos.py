"""Every demo script runs to completion against the package, and the
package exports exactly the pinned names.

The demos import the public API by name, so a rename or removal that they
still use fails here. Each runs in its own process from an empty working
directory, with ``src`` on the import path.
"""

import inspect
from pathlib import Path

import pytest

import eventseg

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, fresh_python):
    result = fresh_python(demo)
    assert result.returncode == 0, result.stderr


def test_exports_are_exactly_these():
    # Pinned so that adding or removing an export shows up in review. The
    # README, the demos, bench/ and the tests import these from the package.
    names = {name for name, value in vars(eventseg).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert names == set("""
        Annotation FrameFeatureSequence SynthConfig annotations_by_id load_annotations
        load_feature_file save_annotations save_corpus save_feature_file synth_generate
        ModelConfig RunConfig load_config
        deserialize_records load_model save_model serialize_records
        DetectorConfig detect_corpus error_trajectory fir_smooth gradient
        relative_extrema
        ContrastiveConfig EncoderPair MemoryQueue encode_key encode_query enqueue_memory
        info_nce_loss momentum_update sample_batch
        BadMagicError ConfigError DataError EventSegError FormatError NumericsError
        ShapeError TruncatedError VersionError
        evaluate_corpus f1_score match_boundaries precision_recall_f1 segment_scores
        Optimizer sgd_step
        ReconstructionConfig Reconstructor assemble_masked_input compute_losses
        masked_reconstruct positional_embedding train_step
        Parameter Tensor l2_normalize layer_norm no_grad
        build_models run_training
    """.split())


def test_package_leaks_no_module_it_imported():
    for name in ("os", "sys", "ctypes"):
        assert not hasattr(eventseg, name), name
