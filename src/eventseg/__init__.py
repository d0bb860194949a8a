"""Self-supervised event boundary detection on frame feature sequences.

The package learns frame embeddings with temporal contrastive learning,
learns to reconstruct masked frame features with a small bidirectional
attention encoder, detects event boundaries as peaks in the gradient of the
smoothed reconstruction-error trajectory, and scores detections with
boundary F1 at relative-distance thresholds plus segment-level MoF/IoU.
"""

from .checkpoint import (
    deserialize_records,
    load_model,
    save_model,
    serialize_records,
)
from .config import ModelConfig, RunConfig, load_config
from .data import (
    Annotation,
    FrameFeatureSequence,
    SynthConfig,
    annotations_by_id,
    load_annotations,
    load_feature_file,
    save_annotations,
    save_corpus,
    save_feature_file,
    synth_generate,
)
from .detection import (
    DetectorConfig,
    detect_corpus,
    error_trajectory,
    fir_smooth,
    gradient,
    relative_extrema,
)
from .embedding import (
    ContrastiveConfig,
    EncoderPair,
    MemoryQueue,
    encode_key,
    encode_query,
    enqueue_memory,
    info_nce_loss,
    momentum_update,
    sample_batch,
)
from .errors import (
    BadMagicError,
    ConfigError,
    DataError,
    EventSegError,
    FormatError,
    NumericsError,
    ShapeError,
    TruncatedError,
    VersionError,
)
from .metrics import (
    evaluate_corpus,
    f1_score,
    match_boundaries,
    precision_recall_f1,
    segment_scores,
)
from .optim import Optimizer, sgd_step
from .reconstruction import (
    ReconstructionConfig,
    Reconstructor,
    assemble_masked_input,
    compute_losses,
    masked_reconstruct,
    positional_embedding,
    train_step,
)
from .tensor import (
    Parameter,
    Tensor,
    l2_normalize,
    layer_norm,
    no_grad,
    softmax,
)
from .training import build_models, run_training

__version__ = "0.1.0"
