"""Self-supervised event boundary detection on frame feature sequences.

The package learns frame embeddings with temporal contrastive learning,
learns to reconstruct masked frame features with a small bidirectional
attention encoder, detects event boundaries as peaks in the gradient of the
smoothed reconstruction-error trajectory, and scores detections with
boundary F1 at relative-distance thresholds plus segment-level MoF/IoU.
"""

import ctypes
import os

# The package's own threads are the parallelism: training runs its two
# branches and detection its blocks on up to ``detection._usable_cpus()``
# threads, so BLAS gets one thread of its own in each. Unpinned, OpenBLAS
# starts a pool per CPU under each of training's two threads. This takes
# effect only when numpy is not yet loaded, and a user's own setting wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name


def _keep_freed_memory() -> None:
    """Keep freed blocks of up to 32 MiB on the heap instead of in the OS.

    Detection reconstructs 256 windows at a time and frees each block's
    ~4 MB of temporaries when the block ends. With glibc's defaults that
    memory went back to the OS after each block and was faulted in again by
    the next: about 112k minor faults per ``detect_corpus`` call on two
    12k-frame videos, against 3-42 under these thresholds. They are the
    ceilings glibc's own dynamic rule reaches (32 MiB for mmap, twice that
    for trimming), which training hit by itself once it freed InfoNCE's
    5.6 MB logits, so the policy only takes the accident out of it. Where
    libc has no ``mallopt`` (macOS, Windows) nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's malloc.h
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_memory()

from .checkpoint import (  # noqa: E402
    deserialize_records,
    load_model,
    save_model,
    serialize_records,
)
from .config import ModelConfig, RunConfig, load_config  # noqa: E402
from .data import (  # noqa: E402
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
from .detection import (  # noqa: E402
    DetectorConfig,
    detect_corpus,
    error_trajectory,
    fir_smooth,
    gradient,
    relative_extrema,
)
from .embedding import (  # noqa: E402
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
from .errors import (  # noqa: E402
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
from .metrics import (  # noqa: E402
    evaluate_corpus,
    f1_score,
    match_boundaries,
    precision_recall_f1,
    segment_scores,
)
from .optim import Optimizer, sgd_step  # noqa: E402
from .reconstruction import (  # noqa: E402
    ReconstructionConfig,
    Reconstructor,
    assemble_masked_input,
    compute_losses,
    masked_reconstruct,
    positional_embedding,
    train_step,
)
from .tensor import (  # noqa: E402
    Parameter,
    Tensor,
    l2_normalize,
    layer_norm,
    no_grad,
    softmax,
)
from .training import build_models, run_training  # noqa: E402

__version__ = "0.1.0"
