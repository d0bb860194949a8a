"""Checkpoint wire format: byte-exact round trips and error taxonomy."""

import dataclasses
import struct

import numpy as np
import pytest

from eventseg import (
    BadMagicError,
    EncoderPair,
    FormatError,
    MemoryQueue,
    ModelConfig,
    Reconstructor,
    TruncatedError,
    VersionError,
    build_models,
    deserialize_records,
    load_model,
    save_model,
    serialize_records,
)


def _records():
    rng = np.random.default_rng(0)
    return [
        ("alpha", rng.normal(size=(3, 4)).astype(np.float32)),
        ("beta.bias", rng.normal(size=7).astype(np.float32)),
        ("scalar", np.float32(2.5)),
        ("empty", np.zeros((0, 5), dtype=np.float32)),
    ]


def test_round_trip_is_byte_exact():
    blob = serialize_records(_records())
    parsed = deserialize_records(blob)
    assert list(parsed) == ["alpha", "beta.bias", "scalar", "empty"]
    blob2 = serialize_records(list(parsed.items()))
    assert blob == blob2
    for (name, value), (name2, value2) in zip(_records(), parsed.items()):
        assert name == name2
        np.testing.assert_array_equal(np.asarray(value, dtype=np.float32), value2)


def test_bad_magic():
    blob = bytearray(serialize_records(_records()))
    blob[:4] = b"XXXX"
    with pytest.raises(BadMagicError):
        deserialize_records(bytes(blob))


def test_version_mismatch():
    blob = bytearray(serialize_records(_records()))
    blob[4:6] = (99).to_bytes(2, "little")
    with pytest.raises(VersionError):
        deserialize_records(bytes(blob))


def test_truncated_payload():
    blob = serialize_records(_records())
    with pytest.raises(TruncatedError):
        deserialize_records(blob[:-3])


def test_trailing_garbage_rejected():
    blob = serialize_records(_records())
    with pytest.raises(FormatError):
        deserialize_records(blob + b"\x00")


def test_model_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    enc = EncoderPair(6, 8, 0.99, rng)
    rec = Reconstructor(8, 4, 2, rng)
    queue = MemoryQueue(16, 8)
    for _ in range(5):
        v = rng.normal(size=8).astype(np.float32)
        queue.extend((v / np.linalg.norm(v))[None])
    path = tmp_path / "model.bin"
    save_model(path, enc, rec, queue, 5)
    first_bytes = path.read_bytes()

    enc2, rec2, queue2, meta2 = load_model(path)
    for p, q in zip(enc.parameters() + rec.parameters(),
                    enc2.parameters() + rec2.parameters()):
        assert p.name == q.name
        np.testing.assert_array_equal(p.data, q.data)
    np.testing.assert_array_equal(queue.as_array(), queue2.as_array())
    assert meta2["window"] == 5

    save_model(path, enc2, rec2, queue2, meta2["window"])
    assert path.read_bytes() == first_bytes


def test_saved_meta_is_the_models_config(tmp_path):
    model = ModelConfig(embedding_dim=12, heads=3, layers=1, alpha=0.5, queue_capacity=7)
    enc, rec, queue = build_models(model, 6, np.random.default_rng(4))
    path = tmp_path / "model.bin"
    save_model(path, enc, rec, queue, 9)
    expected = {**dataclasses.asdict(model), "input_dim": 6, "window": 9}
    records = deserialize_records(path.read_bytes())
    saved = {name[len("meta."):]: float(value)
             for name, value in records.items() if name.startswith("meta.")}
    assert saved == expected
    assert load_model(path)[3] == expected


def test_largest_queue_capacity_survives_a_round_trip(tmp_path):
    # 2**24 is the largest capacity a float32 meta record holds exactly. The
    # ring comes from np.empty and is never written, so it costs no memory.
    model = ModelConfig(embedding_dim=2, heads=1, layers=1, queue_capacity=2**24)
    enc, rec, queue = build_models(model, 3, np.random.default_rng(5))
    path = tmp_path / "model.bin"
    save_model(path, enc, rec, queue, 4)
    _, _, loaded, meta = load_model(path)
    assert meta["queue_capacity"] == loaded.capacity == 2**24


def test_checkpoint_names_follow_scheme():
    rng = np.random.default_rng(2)
    enc = EncoderPair(6, 8, 0.999, rng)
    rec = Reconstructor(8, 4, 2, rng)
    names = [p.name for p in enc.parameters() + rec.parameters()]
    assert all(n.startswith(("ctfe.query.", "ctfe.key.", "ffr.")) for n in names)
    assert "ffr.mask_token" in names
    assert any(n.startswith("ffr.layer0.msa.") for n in names)
    assert any(n.startswith("ffr.layer1.mlp.") for n in names)
    assert any(n.startswith("ffr.layer0.ln1.") for n in names)
    assert any(n.startswith("ffr.head.") for n in names)


def test_truncation_at_every_offset_is_a_format_error():
    blob = serialize_records(_records())
    for end in range(len(blob)):
        with pytest.raises(TruncatedError):
            deserialize_records(blob[:end])


def test_huge_declared_dims_are_truncation_not_allocation():
    blob = serialize_records([("big", np.zeros((1, 1), dtype=np.float32))])
    # Rank 2 record: its two u32 dims follow the 10-byte header, the u16
    # name length, the 3-byte name and the u8 rank.
    dims_at = 10 + 2 + 3 + 1
    huge = bytearray(blob)
    huge[dims_at : dims_at + 8] = (2**32 - 1).to_bytes(4, "little") * 2
    with pytest.raises(TruncatedError):
        deserialize_records(bytes(huge))


def test_non_utf8_record_name_is_format_error():
    blob = serialize_records([("name", np.zeros(2, dtype=np.float32))])
    with pytest.raises(FormatError) as err:
        deserialize_records(blob.replace(b"name", b"n\xffme"))
    assert "UTF-8" in str(err.value)


def _tiny_model_records():
    rng = np.random.default_rng(3)
    enc = EncoderPair(4, 8, 0.99, rng)
    rec = Reconstructor(8, 4, 1, rng)
    queue = MemoryQueue(8, 8)
    queue.extend(np.full((1, 8), 8**-0.5, dtype=np.float32))
    return enc, rec, queue, 5


@pytest.mark.parametrize("shape", [(1, 5), (2, 9), (8,)])
def test_load_model_rejects_queue_of_other_width(tmp_path, shape):
    path = tmp_path / "model.bin"
    save_model(path, *_tiny_model_records())
    records = deserialize_records(path.read_bytes())
    records["ctfe.queue"] = np.zeros(shape, dtype=np.float32)
    path.write_bytes(serialize_records(list(records.items())))
    with pytest.raises(FormatError) as err:
        load_model(path)
    assert "'ctfe.queue'" in str(err.value)


def test_load_model_rejects_a_checkpoint_without_its_queue(tmp_path):
    path = tmp_path / "model.bin"
    save_model(path, *_tiny_model_records())
    records = deserialize_records(path.read_bytes())
    del records["ctfe.queue"]
    path.write_bytes(serialize_records(list(records.items())))
    with pytest.raises(FormatError, match="'ctfe.queue'"):
        load_model(path)


@pytest.mark.parametrize("record", ["ctfe.query.w1", "ffr.head.b", "ctfe.queue"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_load_model_rejects_non_finite_records(tmp_path, record, bad):
    path = tmp_path / "model.bin"
    save_model(path, *_tiny_model_records())
    records = deserialize_records(path.read_bytes())
    assert record in records
    records[record].flat[0] = bad
    path.write_bytes(serialize_records(list(records.items())))
    with pytest.raises(FormatError) as err:
        load_model(path)
    assert repr(record) in str(err.value)


@pytest.mark.parametrize("extra", ["junk", "ffr.layer7.msa.wq", "meta.extra"])
def test_load_model_rejects_a_record_the_model_does_not_read(tmp_path, extra):
    path = tmp_path / "model.bin"
    save_model(path, *_tiny_model_records())
    records = deserialize_records(path.read_bytes())
    records[extra] = np.zeros((8, 8), dtype=np.float32)
    path.write_bytes(serialize_records(list(records.items())))
    with pytest.raises(FormatError, match=f"unknown records \\['{extra}'\\]"):
        load_model(path)


def test_load_model_rejects_a_queue_beyond_its_capacity(tmp_path):
    path = tmp_path / "model.bin"
    save_model(path, *_tiny_model_records())
    records = deserialize_records(path.read_bytes())
    records["ctfe.queue"] = np.full((9, 8), 8**-0.5, dtype=np.float32)
    path.write_bytes(serialize_records(list(records.items())))
    with pytest.raises(FormatError, match="'ctfe.queue' has shape \\(9, 8\\)"):
        load_model(path)


def test_a_repeated_record_name_is_a_format_error(tmp_path):
    path = tmp_path / "model.bin"
    save_model(path, *_tiny_model_records())
    blob = path.read_bytes()
    name, value = next(iter(deserialize_records(blob).items()))
    # A second, different copy placed before the real one, spliced in by
    # hand: the writer refuses a repeated name.
    magic, version, count = struct.unpack_from("<4sHI", blob)
    extra = serialize_records([(name, value + 1.0)])[10:]
    path.write_bytes(struct.pack("<4sHI", magic, version, count + 1) + extra + blob[10:])
    with pytest.raises(FormatError, match=f"{name!r} appears twice"):
        load_model(path)


def test_the_writer_refuses_a_repeated_or_overlong_record_name():
    x = np.zeros(2, dtype=np.float32)
    with pytest.raises(FormatError, match="'a' appears twice"):
        serialize_records([("a", x), ("b", x), ("a", x)])
    longest = "n" * 0xFFFF
    assert list(deserialize_records(serialize_records([(longest, x)]))) == [longest]
    # Both are one byte over the u16 length field, the second in UTF-8 only.
    for name in ("n" * 0x10000, "\u00e9" * 0x8000):
        with pytest.raises(FormatError, match="u16 length field"):
            serialize_records([(name, x)])
