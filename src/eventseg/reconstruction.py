"""Masked frame feature reconstruction.

Frames of a snippet are embedded by the query encoder, summed with a fixed
sin/cos positional table (Vaswani et al., 2017), and the masked rows are
replaced wholesale by a learnable mask token (the positional term is masked
too, so the network must infer the missing location from its neighbours'
positions). ``assemble_masked_input`` builds the table on every call from
the embeddings' own window, width and dtype; it costs microseconds, so no
caller precomputes it. Two pre-norm residual blocks of multi-head
self-attention and an MLP process the sequence with full bidirectional
attention, and an affine output head maps the residual stream back to the
embedding space. The objective is the mean squared distance between
reconstructed and original rows at the masked positions; the target rows are
detached so the reconstruction loss cannot shrink the embedding geometry
itself.

Everything works on batches of snippets; a training batch is the
(L, T, in_dim) frame array of ``embedding.sample_batch``, whose query
embeddings ``h`` are (L*T, D). ``masked_reconstruct`` is the one
forward path: it masks one given row of every snippet, runs the
reconstructor, and returns the reconstructed rows. Training (``train_step``)
masks one uniformly drawn frame per snippet and ``reconstruction_loss``
scores the reconstructions against the detached embeddings; detection
(``detection._trajectories``) masks the middle frame of every window.
Only the masked rows are ever read, so ``masked_reconstruct`` passes them to
``Reconstructor.forward``: the last block computes keys and values for every
row, but queries, attention, the output projection, the second layer norm,
the MLP and the head only for the masked rows. ``forward`` without rows
gives every row.

The training loss has two branches that share only the query embeddings
``h``: ``contrastive_loss`` (InfoNCE against the keys and the queue) and
``reconstruction_loss``. ``compute_losses`` composes them into one graph.
``train_step`` instead gives each branch its own detached copy of ``h``,
runs the reconstruction branch on a worker thread beside the contrastive
one, joins the two gradients at ``h``, and walks the encoder once: the
same bytes as one graph, since ``h``'s gradient gets the same two terms and
the branches write disjoint parameter gradients. A branch backpropagates
only a finite loss, and a non-finite one aborts the step with nothing
changed.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor
from dataclasses import dataclass

import numpy as np

from .embedding import (
    ContrastiveConfig,
    EncoderPair,
    MemoryQueue,
    encode_key,
    encode_query,
    enqueue_memory,
    info_nce_loss,
    momentum_update,
    uniform_weight,
)
from .errors import ConfigError, NumericsError, ShapeError
from .optim import Optimizer, sgd_step
from .tensor import Parameter, ParameterArena, Tensor, layer_norm, linear, softmax


@dataclass
class ReconstructionConfig:
    beta: float = 1.0

    def __post_init__(self):
        # The weight of the reconstruction loss in the total: a negative one
        # would reward reconstruction error, a non-finite one diverges.
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ConfigError(f"beta must be finite and >= 0, got {self.beta}")


def positional_embedding(window: int, dim: int) -> np.ndarray:
    """The (window x dim) sin/cos table; entry (t, 2k) is sin(w_k t) and
    (t, 2k+1) is cos(w_k t) with w_k = 1 / 10000^(2k/dim)."""
    if dim % 2 != 0:
        raise ShapeError(f"positional embedding needs an even dim, got {dim}")
    k = np.arange(dim // 2, dtype=np.float64)
    freqs = 1.0 / (10000.0 ** (2.0 * k / dim))
    angles = np.arange(window, dtype=np.float64)[:, None] * freqs[None, :]
    table = np.empty((window, dim), dtype=np.float32)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table


class AttentionBlock:
    """Pre-norm residual block: x + MSA(LN(x)), then x + MLP(LN(x)). The
    keys split straight into (batch, heads, head_dim, T), so the scores are
    one product, softmax-normalised over their last axis."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator, prefix: str):
        if dim % heads != 0:
            raise ShapeError(f"dim {dim} not divisible by {heads} heads")
        self.heads = heads
        self.head_dim = dim // heads
        self.ln1_gamma = Parameter(np.ones(dim, dtype=np.float32), f"{prefix}.ln1.gamma")
        self.ln1_beta = Parameter(np.zeros(dim, dtype=np.float32), f"{prefix}.ln1.beta")
        self.wq = uniform_weight(rng, dim, dim, f"{prefix}.msa.wq")
        self.bq = Parameter(np.zeros(dim, dtype=np.float32), f"{prefix}.msa.bq")
        self.wk = uniform_weight(rng, dim, dim, f"{prefix}.msa.wk")
        self.bk = Parameter(np.zeros(dim, dtype=np.float32), f"{prefix}.msa.bk")
        self.wv = uniform_weight(rng, dim, dim, f"{prefix}.msa.wv")
        self.bv = Parameter(np.zeros(dim, dtype=np.float32), f"{prefix}.msa.bv")
        self.wo = uniform_weight(rng, dim, dim, f"{prefix}.msa.wo")
        self.bo = Parameter(np.zeros(dim, dtype=np.float32), f"{prefix}.msa.bo")
        self.ln2_gamma = Parameter(np.ones(dim, dtype=np.float32), f"{prefix}.ln2.gamma")
        self.ln2_beta = Parameter(np.zeros(dim, dtype=np.float32), f"{prefix}.ln2.beta")
        self.w1 = uniform_weight(rng, dim, 4 * dim, f"{prefix}.mlp.w1")
        self.b1 = Parameter(np.zeros(4 * dim, dtype=np.float32), f"{prefix}.mlp.b1")
        self.w2 = uniform_weight(rng, 4 * dim, dim, f"{prefix}.mlp.w2")
        self.b2 = Parameter(np.zeros(dim, dtype=np.float32), f"{prefix}.mlp.b2")

    def parameters(self) -> list[Parameter]:
        return [
            self.ln1_gamma, self.ln1_beta,
            self.wq, self.bq, self.wk, self.bk, self.wv, self.bv, self.wo, self.bo,
            self.ln2_gamma, self.ln2_beta,
            self.w1, self.b1, self.w2, self.b2,
        ]

    def __call__(self, x: Tensor, rows: np.ndarray | None = None) -> Tensor:
        """The block's (L x T x D) output; with ``rows`` (L x m indices) only
        those rows of each snippet, (L x m x D). Keys and values always come
        from all T rows."""
        batch, _, dim = x.data.shape
        y = layer_norm(x, self.ln1_gamma, self.ln1_beta)
        y_query = y
        if rows is not None:
            picked = (np.arange(batch)[:, None], rows)
            x, y_query = x[picked], y[picked]

        def split(t: Tensor, axes=(0, 2, 1, 3)) -> Tensor:
            return t.reshape((batch, -1, self.heads, self.head_dim)).transpose(axes)

        q = split(linear(y_query, self.wq, self.bq))
        k_t = split(linear(y, self.wk, self.bk), (0, 2, 3, 1))
        v = split(linear(y, self.wv, self.bv))
        scores = (q @ k_t) * (1.0 / np.sqrt(self.head_dim))
        attention = softmax(scores)
        # Dropped as soon as they are used, so the largest buffers, batch x
        # heads x rows x T each, are not alive together through the MLP.
        del scores
        context = (attention @ v).transpose((0, 2, 1, 3)).reshape((batch, -1, dim))
        del attention, q, k_t, v
        x = x + linear(context, self.wo, self.bo)
        y2 = layer_norm(x, self.ln2_gamma, self.ln2_beta)
        hidden = linear(y2, self.w1, self.b1).relu()
        return x + linear(hidden, self.w2, self.b2)


class Reconstructor:
    """Mask token, stacked attention blocks, and the affine output head."""

    def __init__(self, dim: int, heads: int, layers: int, rng: np.random.Generator):
        if layers < 1:
            raise ConfigError(f"layers must be >= 1, got {layers}")
        self.dim = dim
        self.mask_token = Parameter(
            rng.uniform(-0.02, 0.02, size=dim).astype(np.float32), "ffr.mask_token"
        )
        self.blocks = [
            AttentionBlock(dim, heads, rng, f"ffr.layer{i}") for i in range(layers)
        ]
        self.head_w = uniform_weight(rng, dim, dim, "ffr.head.w")
        self.head_b = Parameter(np.zeros(dim, dtype=np.float32), "ffr.head.b")
        self.arena = ParameterArena(self.parameters())

    def parameters(self) -> list[Parameter]:
        params = [self.mask_token]
        for block in self.blocks:
            params.extend(block.parameters())
        params.extend([self.head_w, self.head_b])
        return params

    def forward(self, assembled: Tensor, rows: np.ndarray | None = None) -> Tensor:
        """The (L x T x D) reconstruction; with ``rows`` (L x m indices) only
        those rows, (L x m x D), which the last block alone computes."""
        x = assembled
        for block in self.blocks[:-1]:
            x = block(x)
        x = self.blocks[-1](x, rows)
        return linear(x, self.head_w, self.head_b)


def assemble_masked_input(h3, mask_rows, rec: Reconstructor) -> Tensor:
    """The (L x T x D) reconstructor input for L snippets of embeddings.

    Row ``mask_rows[i]`` of snippet ``i`` becomes the mask token; every
    other row is embedding + row of the (T x D) positional table, at the
    embeddings' dtype. ``mask_rows`` holds one index per snippet.
    """
    h3 = h3 if isinstance(h3, Tensor) else Tensor(np.asarray(h3))
    if h3.data.ndim != 3:
        raise ShapeError(f"expected (snippets x window x dim) input, got {h3.data.shape}")
    L, T, D = h3.data.shape
    rows = np.asarray(mask_rows, dtype=np.int64)
    if rows.shape != (L,):
        raise ShapeError(f"mask rows {rows.shape} do not give one row per snippet ({L})")
    outside = rows[(rows < 0) | (rows >= T)]
    if outside.size:
        raise ShapeError(f"mask index {outside[0]} outside [0, {T})")
    mask = np.zeros((L, T, 1), dtype=h3.data.dtype)
    mask[np.arange(L), rows, 0] = 1.0
    keep = Tensor(1.0 - mask)
    positional = Tensor(positional_embedding(T, D).astype(h3.data.dtype, copy=False))
    return (h3 + positional) * keep + rec.mask_token * Tensor(mask)


def masked_reconstruct(h3, mask_rows, rec: Reconstructor) -> Tensor:
    """Mask row ``mask_rows[i]`` of every snippet ``i``, run the
    reconstructor, and return the reconstructed rows: (L x D)."""
    rows = np.asarray(mask_rows, dtype=np.int64)
    out = rec.forward(assemble_masked_input(h3, rows, rec), rows=rows[:, None])
    return out.reshape((-1, rec.dim))


def contrastive_loss(
    h: Tensor,
    batch: np.ndarray,
    enc: EncoderPair,
    queue: MemoryQueue,
    contrastive_cfg: ContrastiveConfig,
) -> Tensor:
    """The contrastive branch: InfoNCE of the (L*T x D) query embeddings
    ``h`` of the (L x T x in_dim) ``batch`` against its key embeddings and
    the queue, the rows snippet by snippet as the loss expects."""
    L, T, _ = batch.shape
    z = encode_key(batch.reshape(L * T, -1), enc)
    return info_nce_loss(h, z.data, T, queue.as_array(), contrastive_cfg.temperature)


def reconstruction_loss(h3: Tensor, mask_rows: np.ndarray, rec: Reconstructor) -> Tensor:
    """The reconstruction branch: mean squared error of the reconstructed
    masked rows of the (L x T x D) embeddings ``h3``, one row per snippet.

    The target is the embedding of the masked rows, detached: no gradient
    flows through it. A gradient check that perturbs the parameters must
    hold the target fixed itself, or it moves with them.
    """
    recon_rows = masked_reconstruct(h3, mask_rows, rec)
    diff = recon_rows - Tensor(h3.data[np.arange(len(mask_rows)), mask_rows])
    return (diff * diff).sum(axis=-1).mean()


def compute_losses(
    batch: np.ndarray,
    enc: EncoderPair,
    queue: MemoryQueue,
    rec: Reconstructor,
    contrastive_cfg: ContrastiveConfig,
    recon_cfg: ReconstructionConfig,
    mask_rows: np.ndarray,
) -> tuple[Tensor, Tensor, Tensor]:
    """Pure joint forward pass, one graph for both branches: no state is
    mutated.

    ``mask_rows`` holds the masked position of each of the L snippets.
    Returns (contrastive, reconstruction, total) loss tensors; the
    reconstruction target is the detached embedding, as in ``train_step``.
    """
    L, T, _ = batch.shape
    h = encode_query(batch.reshape(L * T, -1), enc)
    lc = contrastive_loss(h, batch, enc, queue, contrastive_cfg)
    lr = reconstruction_loss(h.reshape((L, T, enc.dim)), mask_rows, rec)
    total = lc + lr * float(recon_cfg.beta)
    return lc, lr, total


# Every loss, gradient, update and key of a step is checked for non-finite
# values, so a diverging step raises NumericsError without numpy's overflow
# warnings. The error state is per thread: the worker's branch sets its own.
@np.errstate(over="ignore", invalid="ignore")
def train_step(
    batch: np.ndarray,
    enc: EncoderPair,
    queue: MemoryQueue,
    rec: Reconstructor,
    contrastive_cfg: ContrastiveConfig,
    recon_cfg: ReconstructionConfig,
    opt: Optimizer,
    rng: np.random.Generator,
    worker: Executor | None = None,
) -> dict[str, float]:
    """One joint optimization step.

    Masks one uniformly drawn frame per snippet and encodes the batch into
    the query embeddings ``h``. Each branch backpropagates its loss into its
    own detached copy of ``h``: the reconstruction branch (weighted by
    ``beta``) on ``worker`` when one is given, the contrastive branch in the
    calling thread. The two gradients are added at ``h`` and walked once
    through the query encoder; then come the SGD update, the key encoder's
    momentum update and one queue push per snippet. Every random draw is
    made in the calling thread, and an error in either branch reaches the
    caller once both have stopped.

    A non-finite loss, of either branch or of their sum, is a
    ``NumericsError`` that leaves the parameters, momentum buffers and queue
    unchanged and the gradient buffers zero (as ``sgd_step`` leaves them,
    and as the step expects them); a non-finite update aborts before any
    parameter changes, and a non-finite key embedding before the queue
    changes.
    """
    L, T, _ = batch.shape
    mask_rows = rng.integers(0, T, size=L)
    h = encode_query(batch.reshape(L * T, -1), enc)
    h_contrastive = Tensor(h.data, requires_grad=True)
    h_reconstruction = Tensor(h.data.reshape(L, T, enc.dim), requires_grad=True)

    # Each branch keeps only its loss values, so its graph is freed in its
    # own thread once walked. Kept to the end of the step, InfoNCE's
    # n x (n + queue) buffer fragmented glibc's heap: 320 default steps on
    # two threads peaked 6 MB above one thread's RSS instead of 1.3 MB.
    @np.errstate(over="ignore", invalid="ignore")
    def reconstruction_branch() -> tuple[np.ndarray, np.ndarray]:
        lr = reconstruction_loss(h_reconstruction, mask_rows, rec)
        weighted = lr * float(recon_cfg.beta)
        if np.isfinite(weighted.data).all():
            weighted.backward()
        return lr.data, weighted.data

    pending = worker.submit(reconstruction_branch) if worker is not None else None
    try:
        lc = contrastive_loss(h_contrastive, batch, enc, queue, contrastive_cfg)
        if np.isfinite(lc.data).all():
            lc.backward()
        lc = lc.data
    finally:
        if pending is not None:
            pending.exception()  # waits: no branch outlives the step
    lr, weighted = pending.result() if pending is not None else reconstruction_branch()
    total = lc + weighted
    if not np.isfinite(total):
        # A finite reconstruction loss has been backpropagated whatever the
        # contrastive one was: clear what it wrote into the reconstructor.
        rec.arena.grads[...] = 0.0
        raise NumericsError(
            f"non-finite training loss (contrastive={lc.item()!r}, "
            f"reconstruction={lr.item()!r})"
        )
    h.backward(h_contrastive.grad + h_reconstruction.grad.reshape(h.data.shape))
    sgd_step(enc.query.parameters() + rec.parameters(), opt)
    momentum_update(enc)
    enqueue_memory(batch, enc, queue, rng)
    return {
        "contrastive": lc.item(),
        "reconstruction": lr.item(),
        "total": total.item(),
    }
