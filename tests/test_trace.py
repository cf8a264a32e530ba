"""Record model, synthetic patterns, and the binary trace format."""

import os
import random
import struct

import pytest

from cachelab.trace import (
    RECORD_DTYPE,
    BadMagicError,
    BadVersionError,
    MalformedTraceError,
    MemoryAccess,
    PatternSpec,
    ReuseHint,
    Trace,
    TraceError,
    TruncatedTraceError,
    fold_pc,
    generate_pattern,
    read_trace,
    write_trace,
)


def test_fold_pc_narrow_values_pass_through():
    assert fold_pc(0) == 0
    assert fold_pc(5) == 5
    assert fold_pc(0x3FFF) == 0x3FFF


def test_fold_pc_rejects_a_negative_pc():
    """Shifting a negative int right never reaches 0, so the fold never ended."""
    for pc in (-1, -(1 << 40)):
        with pytest.raises(ValueError, match="pc must be >= 0"):
            fold_pc(pc)


def test_fold_pc_xors_14_bit_slices():
    # 0x7FFF = 0b111_1111_1111_1111: low slice 0x3FFF, next slice 0b1
    assert fold_pc(0x7FFF) == (0x3FFF ^ 0x1)
    pc = 0xDEADBEEF12345678
    expected = 0
    tmp = pc
    while tmp:
        expected ^= tmp & 0x3FFF
        tmp >>= 14
    assert fold_pc(pc) == expected
    assert 0 <= fold_pc(pc) <= 0x3FFF


def test_access_validation():
    with pytest.raises(ValueError):
        MemoryAccess(-1)
    with pytest.raises(ValueError):
        MemoryAccess(1 << 64)
    with pytest.raises(ValueError):
        MemoryAccess(0, pc_signature=1 << 14)
    with pytest.raises(ValueError):
        MemoryAccess(0, reuse_hint=ReuseHint.HIGH)  # hint without hint_valid
    with pytest.raises(ValueError):
        MemoryAccess(0, inst_delta=-1)
    MemoryAccess(0, reuse_hint=ReuseHint.HIGH, hint_valid=True)


def test_trace_container_basics():
    t = Trace([MemoryAccess(0), MemoryAccess(64, inst_delta=3)])
    assert len(t) == 2
    assert t[1].address == 64
    assert [r.address for r in t] == [0, 64]
    assert t.total_instructions() == 4
    longer = Trace(list(t) + [MemoryAccess(128)])
    assert len(longer) == 3
    assert longer.total_instructions() == 5
    assert longer.digest() != t.digest()
    assert longer.digest() == Trace(longer.records.copy()).digest()


def test_trace_is_one_record_array():
    t = Trace([MemoryAccess(64, pc_signature=5, is_write=True), MemoryAccess(0, inst_delta=0)])
    assert t.records.dtype == RECORD_DTYPE
    assert t.records.nbytes == 16 * len(t)
    assert t.addresses.tolist() == [64, 0]
    assert t.pcs.tolist() == [5, 0]
    assert t[0] == MemoryAccess(64, pc_signature=5, is_write=True)
    with pytest.raises(ValueError):  # read-only, so the cached digest holds
        t.records["address"] = 0


def test_trace_from_an_array_is_checked():
    records = Trace([MemoryAccess(0)]).records.copy()
    records["reserved"] = 1
    with pytest.raises(MalformedTraceError):
        Trace(records)
    with pytest.raises(ValueError):
        Trace(records["address"].copy())


def test_pattern_thrash_exact_expansion():
    t = generate_pattern(PatternSpec("thrash", k=3, n=2))
    assert [r.address for r in t] == [0, 64, 128, 0, 64, 128]


def test_pattern_recency_exact_expansion():
    t = generate_pattern(PatternSpec("recency", k=2, n=1, base_address=256, stride=64))
    assert [r.address for r in t] == [256, 320, 320, 256]


def test_pattern_stream_ignores_n_repeats():
    t = generate_pattern(PatternSpec("stream", k=1, n=5))
    assert len(t) == 1
    assert t[0].address == 0


def test_pattern_base_stride_pc():
    t = generate_pattern(PatternSpec("thrash", k=2, n=1, base_address=1000, stride=8, pc_signature=7))
    assert [r.address for r in t] == [1000, 1008]
    assert all(r.pc_signature == 7 for r in t)


def test_pattern_validation():
    with pytest.raises(ValueError):
        PatternSpec("zigzag", k=1)
    with pytest.raises(ValueError):
        PatternSpec("thrash", k=0)
    with pytest.raises(ValueError):
        PatternSpec("thrash", k=1, n=0)
    with pytest.raises(ValueError):
        PatternSpec("thrash", k=1, stride=0)
    with pytest.raises(ValueError, match="stride"):  # one address, but no u64 stride
        PatternSpec("thrash", k=1, stride=1 << 64)


def test_trace_file_length_is_16_plus_16n(tmp_path):
    for n in (0, 1, 7):
        t = Trace([MemoryAccess(64 * i) for i in range(n)])
        path = tmp_path / ("t%d.bin" % n)
        write_trace(t, path)
        assert path.stat().st_size == 16 + 16 * n


def test_trace_round_trip_preserves_every_field(tmp_path):
    rng = random.Random(11)
    records = []
    for i in range(200):
        hinted = rng.random() < 0.5
        records.append(
            MemoryAccess(
                rng.randrange(1 << 40),
                pc_signature=rng.randrange(1 << 14),
                is_write=rng.random() < 0.3,
                reuse_hint=ReuseHint(rng.randrange(4)) if hinted else ReuseHint.DEFAULT,
                hint_valid=hinted,
                inst_delta=rng.randrange(100),
            )
        )
    t = Trace(records)
    path = tmp_path / "round.bin"
    write_trace(t, path)
    back = read_trace(path)
    assert len(back) == len(t)
    for a, b in zip(t, back):
        assert (a.address, a.pc_signature, a.is_write, a.reuse_hint, a.hint_valid, a.inst_delta) == (
            b.address, b.pc_signature, b.is_write, b.reuse_hint, b.hint_valid, b.inst_delta
        )


def test_trace_round_trip_bytes_are_stable(tmp_path):
    t = generate_pattern(PatternSpec("recency", k=8, n=4))
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_trace(t, p1)
    write_trace(read_trace(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_rejects_bad_magic(tmp_path):
    t = generate_pattern(PatternSpec("thrash", k=2, n=1))
    path = tmp_path / "bad.bin"
    write_trace(t, path)
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(BadMagicError):
        read_trace(path)


def test_read_rejects_bad_version(tmp_path):
    t = generate_pattern(PatternSpec("thrash", k=2, n=1))
    path = tmp_path / "bad.bin"
    write_trace(t, path)
    data = bytearray(path.read_bytes())
    data[4] = 99
    path.write_bytes(bytes(data))
    with pytest.raises(BadVersionError):
        read_trace(path)


def test_read_rejects_truncation_and_trailing_bytes(tmp_path):
    t = generate_pattern(PatternSpec("thrash", k=4, n=2))
    path = tmp_path / "bad.bin"
    write_trace(t, path)
    data = path.read_bytes()

    path.write_bytes(data[:10])  # shorter than the header
    with pytest.raises(TruncatedTraceError):
        read_trace(path)

    path.write_bytes(data[:-8])  # mid-record cut
    with pytest.raises(TruncatedTraceError):
        read_trace(path)

    path.write_bytes(data + b"\0" * 4)  # junk after the last record
    with pytest.raises(TruncatedTraceError):
        read_trace(path)


def test_read_trace_from_a_pipe(tmp_path):
    t = generate_pattern(PatternSpec("thrash", k=4, n=2))
    path = tmp_path / "t.ctr"
    write_trace(t, path)
    data = path.read_bytes()
    for body in (data, data[:-8], data + b"\0" * 4):
        r, w = os.pipe()
        os.write(w, body)  # far below the pipe's buffer, so this cannot block
        os.close(w)
        if body == data:
            assert read_trace(r).digest() == t.digest()  # open() takes the descriptor
        else:
            with pytest.raises(TruncatedTraceError):
                read_trace(r)


def test_malformed_header_errors_are_distinct_types():
    assert issubclass(BadMagicError, Exception)
    assert not issubclass(BadMagicError, BadVersionError)
    assert not issubclass(BadVersionError, BadMagicError)
    assert not issubclass(TruncatedTraceError, (BadMagicError, BadVersionError))


def one_record_file(path, address=0, pc=0, flags=0, reserved=0, inst_delta=1):
    path.write_bytes(
        struct.pack("<4sB3sQ", b"CTR1", 1, b"\0\0\0", 1)
        + struct.pack("<QHBBI", address, pc, flags, reserved, inst_delta)
    )


@pytest.mark.parametrize(
    "fields, reason",
    [
        ({"pc": 1 << 14}, "pc signature"),
        ({"reserved": 0x80}, "reserved byte"),
        ({"flags": 0x10}, "flag bits 4-7"),
        ({"flags": 0x0C}, "hint without valid bit"),
    ],
)
def test_read_rejects_records_outside_the_format(tmp_path, fields, reason):
    path = tmp_path / "bad.ctr"
    one_record_file(path, **fields)
    with pytest.raises(MalformedTraceError, match=reason):
        read_trace(path)


def test_read_accepts_every_documented_flag_combination(tmp_path):
    path, again = tmp_path / "ok.ctr", tmp_path / "again.ctr"
    for flags in (0, 1, 2, 3) + tuple(valid | hint << 2 for valid in (2, 3) for hint in (1, 2, 3)):
        one_record_file(path, address=(1 << 64) - 1, pc=(1 << 14) - 1, flags=flags,
                        inst_delta=(1 << 32) - 1)
        write_trace(read_trace(path), again)
        assert again.read_bytes() == path.read_bytes(), flags


def test_read_rejects_nonzero_reserved_header_bytes(tmp_path):
    path = tmp_path / "bad.ctr"
    write_trace(generate_pattern(PatternSpec("thrash", k=2, n=1)), path)
    data = bytearray(path.read_bytes())
    data[6] = 1
    path.write_bytes(bytes(data))
    with pytest.raises(MalformedTraceError):
        read_trace(path)


def test_reader_fuzz_truncations_and_bit_flips(tmp_path):
    """Every cut and every single-bit flip of a valid file is either
    rejected with a TraceError subtype or read back into a trace that
    write_trace reproduces byte for byte."""
    rng = random.Random(2024)
    records = []
    for _ in range(6):
        hinted = rng.random() < 0.5
        records.append(
            MemoryAccess(
                rng.randrange(1 << 64),
                pc_signature=rng.randrange(1 << 14),
                is_write=rng.random() < 0.5,
                reuse_hint=ReuseHint(rng.randrange(4)) if hinted else ReuseHint.DEFAULT,
                hint_valid=hinted,
                inst_delta=rng.randrange(1 << 32),
            )
        )
    src, bad, out = tmp_path / "src.ctr", tmp_path / "bad.ctr", tmp_path / "out.ctr"
    write_trace(Trace(records), src)
    data = src.read_bytes()

    def outcome(blob):
        bad.write_bytes(blob)
        try:
            trace = read_trace(bad)
        except TraceError:
            return "rejected"
        write_trace(trace, out)
        assert out.read_bytes() == blob
        return "accepted"

    cuts = [outcome(data[:n]) for n in range(len(data) + 1)]
    assert cuts == ["rejected"] * len(data) + ["accepted"]
    seen = set()
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        seen.add(outcome(bytes(flipped)))
    assert seen == {"accepted", "rejected"}
