"""Masked frame feature reconstruction.

Frames of a snippet are embedded by the query encoder, summed with a fixed
sin/cos positional table, and the masked rows are replaced wholesale by a
learnable mask token (the positional term is masked too, so the network must
infer the missing location from its neighbours' positions). Two pre-norm
residual blocks of multi-head self-attention and an MLP process the sequence
with full bidirectional attention, and an affine output head maps the
residual stream back to the embedding space. The objective is the mean
squared distance between reconstructed and original rows at the masked
positions; the target rows are detached so the reconstruction loss cannot
shrink the embedding geometry itself.

Everything works on batches of snippets. ``masked_reconstruct`` is the one
forward path: it masks the given rows of every snippet, runs the
reconstructor, and returns the reconstructed rows. Training
(``compute_losses``) scores them against the detached embeddings; detection
(``detection.error_trajectory``) masks the middle frame of every window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import (
    ContrastiveConfig,
    EncoderPair,
    MemoryQueue,
    SnippetBatch,
    encode_key,
    encode_query,
    enqueue_memory,
    info_nce_loss,
    momentum_update,
)
from .errors import ConfigError, NumericsError, ShapeError
from .optim import Optimizer, sgd_step
from .tensor import Parameter, Tensor, layer_norm, softmax


@dataclass
class ReconstructionConfig:
    window: int = 10
    mask_size: int = 1
    beta: float = 1.0

    def __post_init__(self):
        if not 1 <= self.mask_size < self.window:
            raise ConfigError(
                f"mask_size must satisfy 1 <= mask_size < window, "
                f"got mask_size={self.mask_size}, window={self.window}"
            )


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
    """Pre-norm residual block: x + MSA(LN(x)), then x + MLP(LN(x))."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator,
                 prefix: str, dtype=np.float32):
        if dim % heads != 0:
            raise ShapeError(f"dim {dim} not divisible by {heads} heads")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.ln1_gamma = Parameter(np.ones(dim, dtype=dtype), f"{prefix}.ln1.gamma")
        self.ln1_beta = Parameter(np.zeros(dim, dtype=dtype), f"{prefix}.ln1.beta")
        self.wq = self._linear(dim, dim, rng, f"{prefix}.msa.wq", dtype)
        self.bq = Parameter(np.zeros(dim, dtype=dtype), f"{prefix}.msa.bq")
        self.wk = self._linear(dim, dim, rng, f"{prefix}.msa.wk", dtype)
        self.bk = Parameter(np.zeros(dim, dtype=dtype), f"{prefix}.msa.bk")
        self.wv = self._linear(dim, dim, rng, f"{prefix}.msa.wv", dtype)
        self.bv = Parameter(np.zeros(dim, dtype=dtype), f"{prefix}.msa.bv")
        self.wo = self._linear(dim, dim, rng, f"{prefix}.msa.wo", dtype)
        self.bo = Parameter(np.zeros(dim, dtype=dtype), f"{prefix}.msa.bo")
        self.ln2_gamma = Parameter(np.ones(dim, dtype=dtype), f"{prefix}.ln2.gamma")
        self.ln2_beta = Parameter(np.zeros(dim, dtype=dtype), f"{prefix}.ln2.beta")
        self.w1 = self._linear(dim, 4 * dim, rng, f"{prefix}.mlp.w1", dtype)
        self.b1 = Parameter(np.zeros(4 * dim, dtype=dtype), f"{prefix}.mlp.b1")
        self.w2 = self._linear(4 * dim, dim, rng, f"{prefix}.mlp.w2", dtype)
        self.b2 = Parameter(np.zeros(dim, dtype=dtype), f"{prefix}.mlp.b2")

    @staticmethod
    def _linear(n_in, n_out, rng, name, dtype) -> Parameter:
        scale = 1.0 / np.sqrt(n_in)
        return Parameter(rng.uniform(-scale, scale, size=(n_in, n_out)).astype(dtype), name)

    def parameters(self) -> list[Parameter]:
        return [
            self.ln1_gamma, self.ln1_beta,
            self.wq, self.bq, self.wk, self.bk, self.wv, self.bv, self.wo, self.bo,
            self.ln2_gamma, self.ln2_beta,
            self.w1, self.b1, self.w2, self.b2,
        ]

    def __call__(self, x: Tensor, collect_attention: list | None = None) -> Tensor:
        batch, seq, dim = x.data.shape
        y = layer_norm(x, self.ln1_gamma, self.ln1_beta)

        def split(t: Tensor) -> Tensor:
            return t.reshape((batch, seq, self.heads, self.head_dim)).transpose((0, 2, 1, 3))

        q = split(y @ self.wq + self.bq)
        k = split(y @ self.wk + self.bk)
        v = split(y @ self.wv + self.bv)
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(self.head_dim))
        attention = softmax(scores, axis=-1)
        if collect_attention is not None:
            collect_attention.append(attention.data.copy())
        context = (attention @ v).transpose((0, 2, 1, 3)).reshape((batch, seq, dim))
        x = x + (context @ self.wo + self.bo)
        y2 = layer_norm(x, self.ln2_gamma, self.ln2_beta)
        hidden = (y2 @ self.w1 + self.b1).relu()
        return x + (hidden @ self.w2 + self.b2)


class Reconstructor:
    """Mask token, stacked attention blocks, and the affine output head."""

    def __init__(self, dim: int, heads: int = 8, layers: int = 2,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        if dim % heads != 0:
            raise ShapeError(f"dim {dim} must be divisible by heads {heads}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.dim = dim
        self.heads = heads
        self.mask_token = Parameter(
            rng.uniform(-0.02, 0.02, size=dim).astype(dtype), "ffr.mask_token"
        )
        self.blocks = [
            AttentionBlock(dim, heads, rng, f"ffr.layer{i}", dtype) for i in range(layers)
        ]
        scale = 1.0 / np.sqrt(dim)
        self.head_w = Parameter(
            rng.uniform(-scale, scale, size=(dim, dim)).astype(dtype), "ffr.head.w"
        )
        self.head_b = Parameter(np.zeros(dim, dtype=dtype), "ffr.head.b")

    def parameters(self) -> list[Parameter]:
        params = [self.mask_token]
        for block in self.blocks:
            params.extend(block.parameters())
        params.extend([self.head_w, self.head_b])
        return params

    def forward(self, assembled: Tensor, collect_attention: list | None = None) -> Tensor:
        x = assembled
        for block in self.blocks:
            x = block(x, collect_attention)
        return x @ self.head_w + self.head_b


def assemble_masked_input(h3, mask_rows, pos: np.ndarray, rec: Reconstructor) -> Tensor:
    """The (L x T x D) reconstructor input for L snippets of embeddings.

    Row ``mask_rows[i, j]`` of snippet ``i`` becomes the mask token; every
    other row is embedding + positional row. ``mask_rows`` is (L x m).
    """
    h3 = h3 if isinstance(h3, Tensor) else Tensor(np.asarray(h3))
    if h3.data.ndim != 3:
        raise ShapeError(f"expected (snippets x window x dim) input, got {h3.data.shape}")
    L, T, _ = h3.data.shape
    if pos.shape != h3.data.shape[1:]:
        raise ShapeError(f"positional table {pos.shape} does not match input {h3.data.shape}")
    rows = np.asarray(mask_rows, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[0] != L:
        raise ShapeError(f"mask rows {rows.shape} do not give one row per snippet ({L})")
    outside = rows[(rows < 0) | (rows >= T)]
    if outside.size:
        raise ShapeError(f"mask index {outside[0]} outside [0, {T})")
    mask = np.zeros((L, T, 1), dtype=h3.data.dtype)
    mask[np.arange(L)[:, None], rows, 0] = 1.0
    keep = Tensor(1.0 - mask)
    positional = Tensor(np.asarray(pos, dtype=h3.data.dtype))
    return (h3 + positional) * keep + rec.mask_token * Tensor(mask)


def masked_reconstruct(h3, mask_rows, pos: np.ndarray, rec: Reconstructor) -> Tensor:
    """Mask ``mask_rows`` of every snippet, run the reconstructor, and return
    the reconstructed rows: (L*m x D), snippet-major."""
    out = rec.forward(assemble_masked_input(h3, mask_rows, pos, rec))
    rows = np.asarray(mask_rows, dtype=np.int64)
    return out[(np.repeat(np.arange(rows.shape[0]), rows.shape[1]), rows.reshape(-1))]


def compute_losses(
    batch: SnippetBatch,
    enc: EncoderPair,
    queue: MemoryQueue,
    rec: Reconstructor,
    contrastive_cfg: ContrastiveConfig,
    recon_cfg: ReconstructionConfig,
    pos: np.ndarray,
    mask_rows: np.ndarray,
    recon_targets: np.ndarray | None = None,
) -> tuple[Tensor, Tensor, Tensor]:
    """Pure joint forward pass: no state is mutated.

    ``mask_rows`` is an (L x mask_size) integer array of masked positions per
    snippet. Returns (contrastive, reconstruction, total) loss tensors.

    The reconstruction target is the (detached) embedding of the masked rows;
    ``recon_targets`` overrides it with a fixed (L*mask_size x dim) array.
    Gradient checks need that: under perturbation the detached target would
    otherwise move with the parameters, which the analytic gradient ignores
    by construction.
    """
    L, T, _ = batch.frames.shape
    if T != contrastive_cfg.window or T != recon_cfg.window:
        raise ConfigError(
            f"batch window {T} does not match configured windows "
            f"{contrastive_cfg.window}/{recon_cfg.window}"
        )
    if np.shape(mask_rows)[-1] == 0:
        raise ConfigError("reconstruction loss needs at least one masked index")
    flat = batch.frames.reshape(L * T, -1)
    h = encode_query(flat, enc)
    z = encode_key(flat, enc)
    snippet_ids = np.repeat(np.arange(L), T)
    lc = info_nce_loss(
        h, z.data, snippet_ids, queue.as_array(enc.dim), contrastive_cfg.temperature, T
    )

    h3 = h.reshape((L, T, enc.dim))
    recon_rows = masked_reconstruct(h3, mask_rows, pos, rec)
    if recon_targets is None:
        recon_targets = h3.data[np.arange(L)[:, None], mask_rows].reshape(-1, enc.dim)
    diff = recon_rows - Tensor(recon_targets)
    lr = (diff * diff).sum(axis=-1).mean()
    total = lc + lr * float(recon_cfg.beta)
    return lc, lr, total


def sample_mask_rows(rng: np.random.Generator, num_snippets: int, window: int,
                     mask_size: int) -> np.ndarray:
    """Distinct masked positions per snippet, sampled without replacement."""
    rows = np.empty((num_snippets, mask_size), dtype=np.int64)
    for i in range(num_snippets):
        rows[i] = np.sort(rng.choice(window, size=mask_size, replace=False))
    return rows


def train_step(
    batch: SnippetBatch,
    enc: EncoderPair,
    queue: MemoryQueue,
    rec: Reconstructor,
    contrastive_cfg: ContrastiveConfig,
    recon_cfg: ReconstructionConfig,
    opt: Optimizer,
    rng: np.random.Generator,
    pos: np.ndarray | None = None,
) -> dict[str, float]:
    """One joint optimization step.

    Computes both losses, backpropagates their sum into the query encoder and
    the reconstructor, applies the SGD update, then performs the momentum
    update of the key encoder and pushes one key embedding per snippet into
    the queue. A non-finite loss aborts before any state changes.
    """
    L, T, _ = batch.frames.shape
    if pos is None:
        pos = positional_embedding(T, enc.dim)
    mask_rows = sample_mask_rows(rng, L, T, recon_cfg.mask_size)
    lc, lr, total = compute_losses(
        batch, enc, queue, rec, contrastive_cfg, recon_cfg, pos, mask_rows
    )
    if not np.isfinite(total.data).all():
        raise NumericsError(
            f"non-finite training loss (contrastive={lc.item()!r}, "
            f"reconstruction={lr.item()!r})"
        )
    total.backward()
    sgd_step(enc.trainable_parameters() + rec.parameters(), opt)
    momentum_update(enc)
    enqueue_memory(batch, enc, queue, rng)
    return {
        "contrastive": lc.item(),
        "reconstruction": lr.item(),
        "total": total.item(),
    }
