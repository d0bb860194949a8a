"""Synthetic corpus generation and the file formats."""

import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

from eventseg import (
    Annotation,
    BadMagicError,
    DataError,
    EventSegError,
    FrameFeatureSequence,
    SynthConfig,
    TruncatedError,
    VersionError,
    annotations_by_id,
    load_annotations,
    load_feature_file,
    save_annotations,
    save_feature_file,
    synth_generate,
)


def test_synth_deterministic():
    cfg = SynthConfig(num_videos=4, seed=123)
    corpus_a, ann_a = synth_generate(cfg)
    corpus_b, ann_b = synth_generate(cfg)
    for a, b in zip(corpus_a, corpus_b):
        np.testing.assert_array_equal(a.features, b.features)
    for a, b in zip(ann_a, ann_b):
        assert a.boundaries == b.boundaries


def test_synth_boundary_count_matches_events():
    cfg = SynthConfig(num_videos=8, events_per_video=(3, 5), seed=5)
    corpus, annotations = synth_generate(cfg)
    for seq, ann in zip(corpus, annotations):
        assert ann.video_id == seq.video_id
        assert ann.num_frames == seq.num_frames
        # k events -> k-1 boundaries, each inside the video.
        assert 2 <= len(ann.boundaries) <= 4
        assert all(0 < b < seq.num_frames for b in ann.boundaries)


def test_synth_boundary_is_first_frame_of_new_event():
    cfg = SynthConfig(num_videos=3, noise_std=0.0, drift_std=0.0, seed=11)
    corpus, annotations = synth_generate(cfg)
    for seq, ann in zip(corpus, annotations):
        for b in ann.boundaries:
            # Prototype switches exactly at b: frame b-1 belongs to the old
            # event, frame b to the new one.
            assert not np.array_equal(seq.features[b - 1], seq.features[b])
            assert np.array_equal(seq.features[b], seq.features[min(b + 1, seq.num_frames - 1)])


def test_synth_within_event_similarity_beats_cross_event():
    cfg = SynthConfig(num_videos=6, noise_std=0.0, drift_std=0.0, seed=9)
    corpus, annotations = synth_generate(cfg)
    within, cross = [], []
    for seq, ann in zip(corpus, annotations):
        edges = [0] + ann.boundaries + [seq.num_frames]
        feats = seq.features / np.linalg.norm(seq.features, axis=1, keepdims=True)
        segments = [feats[s:e] for s, e in zip(edges, edges[1:])]
        for seg in segments:
            within.append(float(seg[0] @ seg[-1]))
        for a, b in zip(segments, segments[1:]):
            cross.append(float(a[0] @ b[0]))
    assert np.mean(within) > np.mean(cross)


def test_feature_file_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    seq = FrameFeatureSequence("clip", 30.0, rng.normal(size=(7, 5)).astype(np.float32))
    path = tmp_path / "clip.csgf"
    save_feature_file(seq, path)
    loaded = load_feature_file(path)
    assert loaded.video_id == "clip"
    assert loaded.fps == np.float32(30.0)
    np.testing.assert_array_equal(loaded.features, seq.features)

    save_feature_file(loaded, tmp_path / "again.csgf")
    assert (tmp_path / "again.csgf").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("fps", [1e300, 1e-50])
def test_feature_file_refuses_fps_the_header_cannot_hold(tmp_path, fps):
    path = tmp_path / "x.csgf"
    with pytest.raises(DataError, match="'x'"):
        save_feature_file(FrameFeatureSequence("x", fps, np.ones((3, 2), np.float32)), path)
    assert not path.exists()
    # The ends of the range the header holds still round-trip.
    info = np.finfo(np.float32)
    for edge in (float(info.smallest_subnormal), float(info.max)):
        save_feature_file(FrameFeatureSequence("x", edge, np.ones((3, 2), np.float32)), path)
        assert load_feature_file(path).fps == edge


def test_feature_file_golden_hand_built(tmp_path):
    # 3 frames, 2 dims, handcrafted byte for byte.
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    blob = struct.pack("<4sHIIf", b"CSGF", 1, 2, 3, 12.5)
    blob += struct.pack("<6f", *values)
    path = tmp_path / "golden.csgf"
    path.write_bytes(blob)
    seq = load_feature_file(path)
    assert seq.num_frames == 3 and seq.dim == 2
    assert seq.fps == 12.5
    np.testing.assert_array_equal(
        seq.features, np.array([[1, 2], [3, 4], [5, 6]], dtype=np.float32)
    )


def test_feature_file_error_taxonomy(tmp_path):
    rng = np.random.default_rng(1)
    seq = FrameFeatureSequence("clip", 30.0, rng.normal(size=(4, 3)).astype(np.float32))
    path = tmp_path / "clip.csgf"
    save_feature_file(seq, path)
    blob = bytearray(path.read_bytes())

    bad_magic = tmp_path / "magic.csgf"
    corrupted = bytearray(blob)
    corrupted[:4] = b"NOPE"
    bad_magic.write_bytes(bytes(corrupted))
    with pytest.raises(BadMagicError):
        load_feature_file(bad_magic)

    bad_version = tmp_path / "version.csgf"
    corrupted = bytearray(blob)
    corrupted[4:6] = (9).to_bytes(2, "little")
    bad_version.write_bytes(bytes(corrupted))
    with pytest.raises(VersionError):
        load_feature_file(bad_version)

    truncated = tmp_path / "short.csgf"
    truncated.write_bytes(bytes(blob[:-2]))
    with pytest.raises(TruncatedError):
        load_feature_file(truncated)

    padded = tmp_path / "long.csgf"
    padded.write_bytes(bytes(blob) + b"\x00\x00")
    with pytest.raises(TruncatedError):
        load_feature_file(padded)


def test_feature_file_is_held_once_while_loading(tmp_path):
    # The payload goes straight into the feature matrix; the only other
    # allocation of its size order is the finite check's boolean mask.
    seq = FrameFeatureSequence("clip", 25.0, np.ones((200_000, 32), dtype=np.float32))
    path = tmp_path / "clip.csgf"
    save_feature_file(seq, path)
    matrix_bytes = seq.features.nbytes
    del seq
    tracemalloc.start()
    try:
        loaded = load_feature_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.features.shape == (200_000, 32)
    assert peak <= 1.3 * matrix_bytes, peak / matrix_bytes


def test_feature_file_truncated_at_every_offset(tmp_path):
    seq = FrameFeatureSequence("clip", 30.0, np.arange(6, dtype=np.float32).reshape(3, 2))
    path = tmp_path / "clip.csgf"
    save_feature_file(seq, path)
    blob = path.read_bytes()
    for end in range(len(blob)):
        path.write_bytes(blob[:end])
        with pytest.raises(TruncatedError):
            load_feature_file(path)


def test_feature_file_huge_declared_dims(tmp_path):
    path = tmp_path / "huge.csgf"
    path.write_bytes(struct.pack("<4sHIIf", b"CSGF", 1, 2**32 - 1, 2**32 - 1, 25.0))
    with pytest.raises(TruncatedError):
        load_feature_file(path)


def test_non_utf8_annotations_are_data_error(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('[{"video_id": "caf\u00e9"}]'.encode("latin-1"))
    with pytest.raises(DataError) as err:
        load_annotations(path)
    assert "UTF-8" in str(err.value)


def test_annotations_round_trip(tmp_path):
    annotations = [
        Annotation("a", 100, 25.0, [10, 50, 90]),
        Annotation("b", 40, 12.0, [], scores=None),
        Annotation("c", 60, 30.0, [20, 30], scores=[0.5, 0.25]),
    ]
    path = tmp_path / "ann.json"
    save_annotations(annotations, path)
    loaded = load_annotations(path)
    assert [a.video_id for a in loaded] == ["a", "b", "c"]
    assert loaded[0].boundaries == [10, 50, 90]
    assert loaded[2].scores == [0.5, 0.25]

    save_annotations(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_annotations_reject_unsorted_and_out_of_range(tmp_path):
    path = tmp_path / "bad.json"
    payload = [{"video_id": "a", "num_frames": 50, "fps": 25.0, "boundaries": [30, 10]}]
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError) as err:
        load_annotations(path)
    assert "boundaries[1]" in str(err.value)

    payload = [{"video_id": "a", "num_frames": 50, "fps": 25.0, "boundaries": [50]}]
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError) as err:
        load_annotations(path)
    assert "boundaries[0]" in str(err.value)


def test_annotations_schema_errors_carry_field_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"video_id": "a", "num_frames": 50, "fps": 25.0}]))
    with pytest.raises(DataError) as err:
        load_annotations(path)
    assert "annotations[0].boundaries" in str(err.value)

    path.write_text(json.dumps([{"video_id": 3, "num_frames": 50, "fps": 25.0,
                                 "boundaries": []}]))
    with pytest.raises(DataError) as err:
        load_annotations(path)
    assert "annotations[0].video_id" in str(err.value)


def test_annotation_validation():
    cases = [
        (("v", 10, 25.0, [3, 3]), "boundaries[1]"),
        (("v", 10, 25.0, [11]), "boundaries[0]"),
        (("v", 10, 25.0, [0, 5]), "boundaries[0]"),
        (("v", 10, 25.0, [2, 5], [1.0]), "scores"),
        (("v", 10, 25.0, [2, 5], [1.0, math.nan]), "scores[1]"),
        (("v", 10, 25.0, [2], [-math.inf]), "scores[0]"),
        (("v", 0, 25.0, []), "num_frames"),
        (("v", 2**32, 25.0, []), "num_frames"),
        (("v", 10, 0.0, []), "fps"),
        (("v", 10, -5.0, []), "fps"),
        (("v", 10, math.nan, []), "fps"),
        (("v", 10, math.inf, []), "fps"),
    ]
    for args, field in cases:
        with pytest.raises(DataError) as err:
            Annotation(*args)
        assert str(err.value).startswith(field), args
        assert "'v'" in str(err.value), args


@pytest.mark.parametrize("overrides, field", [
    ({"fps": -5}, "fps"),
    ({"fps": 0}, "fps"),
    ({"fps": math.nan}, "fps"),
    ({"fps": math.inf}, "fps"),
    ({"fps": 10**400}, "fps"),
    ({"num_frames": 0, "boundaries": []}, "num_frames"),
    ({"num_frames": 10**400, "boundaries": [10**399]}, "num_frames"),
    ({"scores": [0.5, 10**400]}, "scores[1]"),
    ({"scores": [math.nan, 0.5]}, "scores[0]"),
], ids=["fps-negative", "fps-zero", "fps-nan", "fps-inf", "fps-401-digits",
        "num_frames-zero", "num_frames-401-digits", "score-401-digits", "score-nan"])
def test_annotation_json_rejects_bad_fps_num_frames_and_scores(tmp_path, overrides, field):
    record = {"video_id": "a", "num_frames": 50, "fps": 25.0, "boundaries": [10, 30]}
    record.update(overrides)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([record]))
    with pytest.raises(DataError) as err:
        load_annotations(path)
    assert f"annotations[0].{field}" in str(err.value)


def test_integer_beyond_the_digit_limit_is_data_error(tmp_path):
    path = tmp_path / "long.json"
    path.write_text('[{"video_id": "a", "num_frames": ' + "9" * 5000 + "}]")
    with pytest.raises(DataError) as err:
        load_annotations(path)
    assert "invalid JSON" in str(err.value)


def test_annotations_by_id_rejects_duplicate_id():
    with pytest.raises(DataError) as err:
        annotations_by_id([
            Annotation("a", 100, 25.0, [10]),
            Annotation("b", 100, 25.0, []),
            Annotation("a", 100, 25.0, [30, 60]),
        ])
    assert "'a'" in str(err.value)


def _meets_record_invariants(ann) -> bool:
    """The validator's rules, restated independently of it."""
    b = ann.boundaries
    return (
        isinstance(ann.video_id, str)
        and isinstance(ann.num_frames, int) and 1 <= ann.num_frames < 2**32
        and isinstance(ann.fps, float) and math.isfinite(ann.fps) and ann.fps > 0
        and all(isinstance(f, int) and 1 <= f < ann.num_frames for f in b)
        and all(x < y for x, y in zip(b, b[1:]))
        and (ann.scores is None
             or (len(ann.scores) == len(b)
                 and all(isinstance(s, float) and math.isfinite(s) for s in ann.scores)))
    )


def test_byte_flips_load_valid_records_or_raise(tmp_path):
    # Annotation-style and detection-style (scored) records in one file.
    path = tmp_path / "records.json"
    save_annotations([
        Annotation("synth0000", 190, 25.0, [41, 87, 133]),
        Annotation("synth0001", 120, 12.5, []),
        Annotation("synth0000", 190, 25.0, [39, 90], scores=[0.0625, 1.5]),
        Annotation("synth0002", 60, 30.0, [7], scores=[3.0]),
    ], path)
    blob = path.read_bytes()
    rng = np.random.default_rng(2024)
    loaded = failed = 0
    for _ in range(2000):
        flipped = bytearray(blob)
        offset = int(rng.integers(len(blob)))
        flipped[offset] ^= 1 << int(rng.integers(8))
        path.write_bytes(bytes(flipped))
        try:
            records = load_annotations(path)
        except EventSegError:
            failed += 1
            continue
        loaded += 1
        assert all(_meets_record_invariants(a) for a in records), (offset, bytes(flipped))
    # Both outcomes occur: some flips keep the JSON valid, others do not.
    assert loaded >= 50 and failed >= 50


def test_zero_width_feature_file_is_data_error(tmp_path):
    # 50 frames of no features: the header alone is the whole file.
    path = tmp_path / "empty.csgf"
    path.write_bytes(struct.pack("<4sHIIf", b"CSGF", 1, 0, 50, 25.0))
    with pytest.raises(DataError, match=r"\(50, 0\)"):
        load_feature_file(path)


def test_feature_sequence_rejects_non_finite():
    bad = np.ones((3, 2), dtype=np.float32)
    bad[1, 1] = np.nan
    with pytest.raises(DataError):
        FrameFeatureSequence("v", 25.0, bad)


def test_small_corpus_golden_digest(tmp_path):
    # Frozen from a verified run: any change to the generator, the feature
    # format, or the annotation writer shows up here.
    import hashlib

    from eventseg import save_annotations as save_ann, save_corpus

    cfg = SynthConfig(num_videos=3, events_per_video=(2, 3), event_length=(12, 18),
                      feature_dim=6, num_prototypes=3, noise_std=0.05,
                      drift_std=0.01, seed=11)
    corpus, annotations = synth_generate(cfg)
    save_corpus(corpus, tmp_path / "features")
    save_ann(annotations, tmp_path / "annotations.json")
    digest = hashlib.sha256()
    for p in sorted((tmp_path / "features").glob("*.csgf")):
        digest.update(p.name.encode())
        digest.update(p.read_bytes())
    digest.update((tmp_path / "annotations.json").read_bytes())
    assert digest.hexdigest() == (
        "028425418178a57be3e9965736a99c41e06178a47da97a8fe53f8f30ca16eebe"
    )
    assert [a.boundaries for a in annotations] == [[17, 34], [18], [17]]
