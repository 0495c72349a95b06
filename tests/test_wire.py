import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ledgaze.core import SensorFrame, WireError
from ledgaze.wire import (
    StreamDecoder,
    decode,
    encode,
    frame_length,
    unwrap_timestamp,
)

GOLDEN = json.loads((Path(__file__).parent / "data" / "wire_golden.json").read_text())


def random_frame(rng, max_channels=16):
    m = int(rng.integers(1, max_channels + 1))
    return SensorFrame(int(rng.integers(0, 2**32)),
                       tuple(int(v) for v in rng.integers(0, 1024, m)))


def test_golden_vector_single_zero_channel():
    frame = SensorFrame(0, (0,))
    assert encode(frame) == bytes([0xAA, 0x01, 0, 0, 0, 0, 0, 0, 0xAB])


@pytest.mark.parametrize("case", GOLDEN, ids=[g["hex"][:16] for g in GOLDEN])
def test_golden_vectors_encode_and_decode(case):
    frame = SensorFrame(case["timestamp_us"], tuple(case["channels"]))
    blob = bytes.fromhex(case["hex"])
    assert encode(frame) == blob
    out, stats = decode(blob)
    assert out == [frame]
    assert stats.bytes_skipped == 0


def test_frame_length_formula():
    assert len(encode(SensorFrame(7, tuple(range(12))))) == 7 + 2 * 12
    assert frame_length(12) == 31


def test_roundtrip_identity():
    rng = np.random.default_rng(51)
    for _ in range(200):
        frame = random_frame(rng)
        frame = SensorFrame(frame.timestamp_us % 2**32, frame.channels)
        out, stats = decode(encode(frame))
        assert out == [frame]
        assert stats.frames_decoded == 1
        assert stats.bytes_skipped == 0


def test_encode_rejects_out_of_range():
    # a reading above ADC_MAX never reaches encode: the frame refuses it
    with pytest.raises(WireError, match=r"^channel 0 reading 1024 outside"):
        SensorFrame(0, (1024,))
    with pytest.raises(WireError, match="channel count 300 does not fit in one byte"):
        encode(SensorFrame(0, tuple([1] * 300)))


@pytest.mark.parametrize("frame, named", [
    (SensorFrame(0, (0.5,)), "channel 0 reading 0.5"),
    (SensorFrame(0, (3, 1023.0)), "channel 1 reading 1023.0"),
    (SensorFrame(1.5, (3,)), "timestamp 1.5"),
], ids=["half-a-count", "a-float-count", "a-float-timestamp"])
def test_encode_refuses_a_reading_that_is_not_an_integer(frame, named):
    # SensorFrame takes in-range readings that are not counts; the wire holds only integers
    with pytest.raises(WireError, match=f"^{named} is not an integer$"):
        encode(frame)


def test_timestamp_wraps_at_32_bits():
    frame = SensorFrame(2**32 + 17, (5,))
    out, _ = decode(encode(frame))
    assert out[0].timestamp_us == 17


def test_garbage_prefix_resync():
    frame = SensorFrame(1000, (1, 2, 3))
    stream = bytes([0x00, 0x13, 0x37]) + encode(frame)
    out, stats = decode(stream)
    assert out == [frame]
    assert stats.bytes_skipped == 3


def test_flipped_payload_bit_rejected_then_next_frame_recovered():
    f1 = SensorFrame(1, (10, 20))
    f2 = SensorFrame(2, (30, 40))
    blob = bytearray(encode(f1))
    blob[8] ^= 0x04  # corrupt a reading byte
    out, stats = decode(bytes(blob) + encode(f2))
    assert out == [f2]
    assert stats.checksum_failures >= 1
    assert stats.resyncs >= 1


def test_empty_stream():
    out, stats = decode(b"")
    assert out == []
    assert stats.frames_decoded == 0


def test_reserved_high_bits_must_be_zero():
    frame = SensorFrame(9, (100, 200))
    blob = bytearray(encode(frame))
    blob[7] |= 0x40  # set a reserved bit of reading 0, then fix the checksum
    blob[-1] = 0
    checksum = 0
    for b in blob[:-1]:
        checksum ^= b
    blob[-1] = checksum
    out, stats = decode(bytes(blob))
    assert out == []
    assert stats.invalid_fields >= 1


def test_incremental_feed_across_chunk_boundaries():
    rng = np.random.default_rng(52)
    frames = [random_frame(rng) for _ in range(50)]
    stream = b"".join(encode(f) for f in frames)
    dec = StreamDecoder()
    got = []
    for i in range(0, len(stream), 7):  # feed in awkward 7-byte chunks
        got.extend(dec.feed(stream[i:i + 7]))
    expect = [SensorFrame(f.timestamp_us % 2**32, f.channels) for f in frames]
    assert got == expect


def test_fake_header_near_stream_end_does_not_strand_frames():
    # a garbage sync byte claiming a huge length would otherwise leave the
    # decoder waiting for bytes that never arrive
    f1 = SensorFrame(1, (11, 22))
    f2 = SensorFrame(2, (33, 44))
    stream = encode(f1) + bytes([0xAA, 0xFF, 0x00]) + encode(f2)
    out, stats = decode(stream)
    assert out == [f1, f2]
    assert stats.resyncs >= 1


def test_incremental_decoder_finish_flushes_tail():
    f = SensorFrame(3, (55,))
    dec = StreamDecoder()
    got = dec.feed(bytes([0xAA, 0x80]) + encode(f))  # fake header first
    assert got == []  # still waiting on the fake frame's bytes
    assert dec.finish() == [f]


def test_interleaved_garbage_recovers_every_frame():
    rng = np.random.default_rng(53)
    frames = [random_frame(rng) for _ in range(100)]
    stream = bytearray()
    for f in frames:
        stream.extend(rng.bytes(int(rng.integers(0, 5))))
        stream.extend(encode(f))
    got, stats = decode(bytes(stream))
    expect = [SensorFrame(f.timestamp_us % 2**32, f.channels) for f in frames]
    assert got == expect
    assert stats.frames_decoded == 100


def test_roundtrip_property_random_frames():
    rng = np.random.default_rng(54)
    frames = [random_frame(rng) for _ in range(500)]
    stream = b"".join(encode(f) for f in frames)
    got, stats = decode(stream)
    expect = [SensorFrame(f.timestamp_us % 2**32, f.channels) for f in frames]
    assert got == expect
    assert stats.bytes_skipped == 0


def test_unwrap_timestamp_monotonic_reconstruction():
    assert unwrap_timestamp(5, None) == 5
    assert unwrap_timestamp(10, 5) == 10
    # raw wrapped around: 2**32 + 3 appears as 3
    assert unwrap_timestamp(3, 2**32 - 10) == 2**32 + 3
    assert unwrap_timestamp(3, 2 * 2**32 - 1) == 2 * 2**32 + 3


# -- decoder properties over arbitrary bytes and chunk splits -------------------

_frames = st.builds(
    SensorFrame,
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(0, 1023), min_size=1, max_size=16).map(tuple),
)


@st.composite
def _flipped(draw):
    blob = bytearray(encode(draw(_frames)))
    bit = draw(st.integers(0, len(blob) * 8 - 1))
    blob[bit // 8] ^= 1 << (bit % 8)
    return bytes(blob)


def _joined(parts):
    """Stream bytes and the offset of each intact encoded frame in them."""
    data, intact = bytearray(), []
    for blob, is_frame in parts:
        if is_frame:
            intact.append(len(data))
        data += blob
    return bytes(data), intact


# Plain random bytes, or valid and bit-flipped frames mixed with garbage.
_streams = st.one_of(
    st.binary(max_size=300).map(lambda b: (b, [])),
    st.lists(st.one_of(st.binary(max_size=6).map(lambda b: (b, False)),
                       _frames.map(lambda f: (encode(f), True)),
                       _flipped().map(lambda b: (b, False))),
             max_size=12).map(_joined),
)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(stream=_streams, cuts=st.lists(st.integers(0, 400), max_size=8))
def test_decoder_chunked_feed_matches_one_shot_and_accounts_every_byte(stream, cuts):
    data, intact = stream
    bounds = [0, *sorted(c for c in cuts if c <= len(data)), len(data)]
    dec = StreamDecoder()
    frames = []
    for lo, hi in zip(bounds, bounds[1:]):
        frames.extend(dec.feed(data[lo:hi]))
    frames.extend(dec.finish())
    whole, stats = decode(data)
    assert frames == whole
    assert dec.stats == stats
    assert stats.bytes_skipped + sum(frame_length(f.channel_count) for f in frames) == len(data)
    # No mis-decode: each decoded frame re-encodes to bytes of the stream,
    # in order and without overlap.
    spans, pos = [], 0
    for f in whole:
        blob = encode(f)
        at = data.find(blob, pos)
        assert at >= 0, f"{f} does not occur in the stream after byte {pos}"
        spans.append((at, at + len(blob)))
        pos = at + len(blob)
    # No loss: an intact frame is decoded unless an earlier decoded frame's
    # bytes overlap it.
    for at in intact:
        span = (at, at + frame_length(data[at + 1]))
        assert span in spans or any(lo < at < hi for lo, hi in spans), f"frame at byte {at} lost"
