"""Versioned binary checkpoint blobs.

Layout (little-endian): magic ``CSGC``, u16 version, u32 record count, then
per record a u16 name length, the UTF-8 name, a u8 rank, rank u32 dims, and
the float32 payload in row-major order. Save -> load -> save is byte-exact.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Sequence

import numpy as np

from .config import ModelConfig
from .detection import DetectorConfig
from .errors import BadMagicError, ConfigError, FormatError, TruncatedError, VersionError
from .training import build_models

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
    """Parse a checkpoint blob into an insertion-ordered name -> array map;
    a name that appears twice is a ``FormatError``."""
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
        if name in records:
            raise FormatError(f"checkpoint record {name!r} appears twice")
        records[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
    if offset != len(blob):
        raise FormatError(f"{len(blob) - offset} trailing bytes after last record")
    return records


# -- full model state ---------------------------------------------------------


def model_records(enc, rec, queue, window: int) -> list[tuple[str, np.ndarray]]:
    """Canonical record list: encoder pair, reconstructor, queue, then
    scalar ``meta.*`` entries in key order: the models' ``ModelConfig``,
    their input width and the window."""
    records: list[tuple[str, np.ndarray]] = []
    for p in enc.parameters() + rec.parameters():
        records.append((p.name, p.data))
    records.append(("ctfe.queue", queue.as_array()))
    model = ModelConfig(
        embedding_dim=enc.dim, heads=rec.blocks[0].heads, layers=len(rec.blocks),
        alpha=enc.alpha, queue_capacity=queue.capacity,
    )
    meta = {**dataclasses.asdict(model), "input_dim": enc.in_dim, "window": window}
    for key in sorted(meta):
        records.append((f"meta.{key}", np.asarray(float(meta[key]), dtype=np.float32)))
    return records


def save_model(path, enc, rec, queue, window: int) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_records(model_records(enc, rec, queue, window)))


def load_model(path):
    """Rebuild (encoders, reconstructor, queue, meta) from a checkpoint.

    ``meta`` maps each ``ModelConfig`` field, ``input_dim`` and ``window`` to
    its value. The records must be exactly those ``model_records`` gives for
    the model the ``meta.*`` records describe, the queue holding at most its
    capacity of rows. A record holding NaN or Inf, ``meta.*`` records that
    break ``ModelConfig``'s rules, an input width below 1 or the detector's
    window rule, a missing or unknown record, or one whose shape does not fit
    the model, is a ``FormatError`` naming the record.
    """
    with open(path, "rb") as fh:
        records = deserialize_records(fh.read())
    for name, value in records.items():
        if not np.isfinite(value).all():
            raise FormatError(f"checkpoint record {name!r} holds non-finite values")
    model_kinds = {f.name: f.type for f in dataclasses.fields(ModelConfig)}
    kinds = model_kinds | {"input_dim": "int", "window": "int"}
    meta = {}
    for key, kind in kinds.items():
        record = records.get(f"meta.{key}")
        if record is None or record.ndim != 0:
            raise FormatError(f"checkpoint lacks a scalar meta record {key!r}")
        value = float(record)
        if kind == "int" and not value.is_integer():
            raise FormatError(f"checkpoint record 'meta.{key}' = {value} is not an integer")
        meta[key] = int(value) if kind == "int" else value
    try:
        model = ModelConfig(**{k: meta[k] for k in model_kinds})
        DetectorConfig(window=meta["window"])
    except ConfigError as exc:
        raise FormatError(f"checkpoint meta.* records describe no valid model: {exc}") from exc
    if meta["input_dim"] < 1:
        raise FormatError(f"checkpoint record 'meta.input_dim' = {meta['input_dim']} is below 1")
    enc, rec, queue = build_models(model, meta["input_dim"], np.random.default_rng(0))
    expected = {name for name, _ in model_records(enc, rec, queue, meta["window"])}
    if set(records) != expected:
        raise FormatError(f"checkpoint lacks records {sorted(expected - set(records))} "
                          f"and holds unknown records {sorted(set(records) - expected)}")
    for p in enc.parameters() + rec.parameters():
        value = records[p.name]
        if value.shape != p.data.shape:
            raise FormatError(
                f"checkpoint parameter {p.name!r} has shape {value.shape}, "
                f"model expects {p.data.shape}"
            )
        p.data[...] = value
    stored = records["ctfe.queue"]
    if stored.ndim != 2 or stored.shape[1] != enc.dim or len(stored) > queue.capacity:
        raise FormatError(
            f"checkpoint queue 'ctfe.queue' has shape {stored.shape}, model expects "
            f"at most {queue.capacity} rows of width {enc.dim}"
        )
    queue.load(stored)
    return enc, rec, queue, meta
