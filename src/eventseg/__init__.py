"""Self-supervised event boundary detection on frame feature sequences.

The package learns frame embeddings with temporal contrastive learning,
learns to reconstruct masked frame features with a small bidirectional
attention encoder, detects event boundaries as peaks in the gradient of the
smoothed reconstruction-error trajectory, and scores detections with
boundary F1 at relative-distance thresholds plus segment-level MoF/IoU.
"""

from .checkpoint import (
    deserialize_records,
    load_checkpoint,
    load_model,
    save_checkpoint,
    save_model,
    serialize_records,
)
from .config import ModelConfig, PathsConfig, RunConfig, TrainingConfig, load_config
from .data import (
    Annotation,
    FrameFeatureSequence,
    SynthConfig,
    annotations_by_id,
    load_annotations,
    load_corpus,
    load_feature_file,
    save_annotations,
    save_corpus,
    save_feature_file,
    synth_generate,
)
from .detection import (
    BoundarySet,
    DetectorConfig,
    ErrorTrajectory,
    detect_boundaries,
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
    MlpEncoder,
    SnippetBatch,
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
    MatchResult,
    MetricReport,
    SegmentSet,
    boundaries_to_segments,
    evaluate_corpus,
    f1_score,
    hungarian_match,
    match_boundaries,
    mof_iou,
    precision_recall_f1,
    rel_dis,
    segment_scores,
)
from .optim import Optimizer, sgd_step, zero_grad
from .reconstruction import (
    AttentionBlock,
    ReconstructionConfig,
    Reconstructor,
    assemble_masked_input,
    compute_losses,
    masked_reconstruct,
    positional_embedding,
    sample_mask_rows,
    train_step,
)
from .tensor import (
    Parameter,
    Tensor,
    as_tensor,
    assert_finite,
    dot,
    finite_difference,
    gradients_close,
    l2_normalize,
    layer_norm,
    matmul,
    no_grad,
    softmax,
)
from .training import TrainingResult, build_models, model_meta, run_training, write_loss_csv

__version__ = "0.1.0"
