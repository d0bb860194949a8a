"""Versioned binary checkpoint blobs.

Layout (little-endian): magic ``CSGC``, u16 version, u32 record count, then
per record a u16 name length, the UTF-8 name, a u8 rank, rank u32 dims, and
the float32 payload in row-major order. Save -> load -> save is byte-exact.
"""

from __future__ import annotations

import struct
from typing import Mapping, Sequence

import numpy as np

from .embedding import EncoderPair, MemoryQueue
from .errors import BadMagicError, FormatError, TruncatedError, VersionError
from .reconstruction import Reconstructor

MAGIC = b"CSGC"
VERSION = 1

_HEAD = struct.Struct("<4sHI")
_NAME_LEN = struct.Struct("<H")
_RANK = struct.Struct("<B")


def serialize_records(records: Sequence[tuple[str, np.ndarray]]) -> bytes:
    chunks = [_HEAD.pack(MAGIC, VERSION, len(records))]
    for name, value in records:
        name_b = name.encode("utf-8")
        arr = np.asarray(value, dtype="<f4", order="C")
        chunks.append(_NAME_LEN.pack(len(name_b)))
        chunks.append(name_b)
        chunks.append(_RANK.pack(arr.ndim))
        for dim in arr.shape:
            chunks.append(struct.pack("<I", dim))
        chunks.append(arr.tobytes(order="C"))
    return b"".join(chunks)


def deserialize_records(blob: bytes) -> dict[str, np.ndarray]:
    """Parse a checkpoint blob into an insertion-ordered name -> array map."""
    offset = 0

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if offset + n > len(blob):
            raise TruncatedError(f"checkpoint truncated while reading {what}")
        piece = blob[offset : offset + n]
        offset += n
        return piece

    magic, version, count = _HEAD.unpack(take(_HEAD.size, "header"))
    if magic != MAGIC:
        raise BadMagicError(f"bad checkpoint magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise VersionError(f"unsupported checkpoint version {version}, expected {VERSION}")
    records: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = _NAME_LEN.unpack(take(_NAME_LEN.size, "record name length"))
        raw_name = take(name_len, "record name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"record name {raw_name!r} is not UTF-8: {exc}") from exc
        (rank,) = _RANK.unpack(take(_RANK.size, "record rank"))
        dims = tuple(
            struct.unpack("<I", take(4, f"dimension of {name!r}"))[0] for _ in range(rank)
        )
        n_values = 1
        for dim in dims:
            n_values *= dim
        payload = take(4 * n_values, f"payload of {name!r}")
        records[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
    if offset != len(blob):
        raise FormatError(f"{len(blob) - offset} trailing bytes after last record")
    return records


# -- full model state ---------------------------------------------------------


def model_records(enc, rec, queue, meta: Mapping[str, float]) -> list[tuple[str, np.ndarray]]:
    """Canonical record list: encoder pair, reconstructor, queue, then
    scalar ``meta.*`` entries describing the architecture."""
    records: list[tuple[str, np.ndarray]] = []
    for p in enc.parameters() + rec.parameters():
        records.append((p.name, p.data))
    records.append(("ctfe.queue", queue.as_array()))
    for key in sorted(meta):
        records.append((f"meta.{key}", np.asarray(float(meta[key]), dtype=np.float32)))
    return records


def save_model(path, enc, rec, queue, meta: Mapping[str, float]) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_records(model_records(enc, rec, queue, meta)))


def load_model(path):
    """Rebuild (encoders, reconstructor, queue, meta) from a checkpoint.

    A record holding NaN or Inf, or a parameter or queue whose shape does
    not fit the model, is a ``FormatError`` naming the record.
    """
    with open(path, "rb") as fh:
        records = deserialize_records(fh.read())
    for name, value in records.items():
        if not np.isfinite(value).all():
            raise FormatError(f"checkpoint record {name!r} holds non-finite values")
    meta = {
        name[len("meta."):]: float(value)
        for name, value in records.items()
        if name.startswith("meta.")
    }
    for key in ("input_dim", "embedding_dim", "heads", "layers", "window",
                "queue_capacity", "alpha"):
        if key not in meta:
            raise FormatError(f"checkpoint lacks required meta record {key!r}")
    dim = int(meta["embedding_dim"])
    rng = np.random.default_rng(0)
    enc = EncoderPair(int(meta["input_dim"]), dim, meta["alpha"], rng)
    rec = Reconstructor(dim, int(meta["heads"]), int(meta["layers"]), rng)
    for p in enc.parameters() + rec.parameters():
        if p.name not in records:
            raise FormatError(f"checkpoint lacks parameter {p.name!r}")
        value = records[p.name]
        if value.shape != p.data.shape:
            raise FormatError(
                f"checkpoint parameter {p.name!r} has shape {value.shape}, "
                f"model expects {p.data.shape}"
            )
        p.data[...] = value
    queue = MemoryQueue(int(meta["queue_capacity"]), dim)
    stored = records.get("ctfe.queue")
    if stored is not None:
        if stored.ndim != 2 or stored.shape[1] != dim:
            raise FormatError(
                f"checkpoint queue 'ctfe.queue' has shape {stored.shape}, "
                f"model expects rows of width {dim}"
            )
        queue.load(stored)
    return enc, rec, queue, meta
