"""Memory access traces: the record array, synthetic patterns, binary files.

A trace is an ordered sequence of byte-addressed accesses as seen by the
last-level cache, held as one numpy structured array whose dtype is the
16-byte on-disk record:

    <u8 address, <u2 pc, u1 flags, u1 reserved, <u4 inst_delta>

pc is a 14-bit program counter signature.  flags bit 0 marks a store,
bit 1 a valid reuse hint and bits 2-3 hold the hint; bits 4-7 and the
reserved byte are zero, and the hint bits are zero unless bit 1 is set.
Every Trace holds only records in this form, so a read followed by a
write reproduces a file byte for byte.
"""

import hashlib
import os
import stat
import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

PC_SIGNATURE_BITS = 14
PC_SIGNATURE_MAX = (1 << PC_SIGNATURE_BITS) - 1

TRACE_MAGIC = b"CTR1"
TRACE_VERSION = 1

_HEADER = struct.Struct("<4sB3sQ")
RECORD_DTYPE = np.dtype(
    [("address", "<u8"), ("pc", "<u2"), ("flags", "u1"), ("reserved", "u1"), ("inst_delta", "<u4")]
)

FLAG_WRITE = 1
FLAG_HINT_VALID = 2
HINT_SHIFT = 2


def pack_flags(write, hints=None):
    """Record flag bytes from store bits and, when given, valid reuse
    hints; takes Python ints or numpy arrays alike."""
    flags = write * FLAG_WRITE
    if hints is not None:
        flags = flags | FLAG_HINT_VALID | hints << HINT_SHIFT
    return flags


class TraceError(Exception):
    """Base for trace file format problems."""


class BadMagicError(TraceError):
    pass


class BadVersionError(TraceError):
    pass


class TruncatedTraceError(TraceError):
    pass


class MalformedTraceError(TraceError):
    """A header or record field outside the documented format."""


class ReuseHint(IntEnum):
    DEFAULT = 0
    HIGH = 1
    MODERATE = 2
    LOW = 3


@dataclass(slots=True)
class MemoryAccess:
    """One byte-addressed access, for building and inspecting traces.

    address       byte address, u64
    pc_signature  14-bit PC signature (fold wider PCs with fold_pc)
    is_write      stores are recorded but fetched like loads
    reuse_hint    software reuse class, meaningful only if hint_valid
    inst_delta    instructions retired since the previous record
    """

    address: int
    pc_signature: int = 0
    is_write: bool = False
    reuse_hint: ReuseHint = ReuseHint.DEFAULT
    hint_valid: bool = False
    inst_delta: int = 1

    def __post_init__(self):
        if not 0 <= self.address < 1 << 64:
            raise ValueError("address out of u64 range: %r" % (self.address,))
        if not 0 <= self.pc_signature <= PC_SIGNATURE_MAX:
            raise ValueError("pc_signature must fit in 14 bits")
        if not self.hint_valid and self.reuse_hint != ReuseHint.DEFAULT:
            raise ValueError("reuse_hint set without hint_valid")
        if not 0 <= self.inst_delta < 1 << 32:
            raise ValueError("inst_delta must fit in u32")

    def row(self):
        """The record as a RECORD_DTYPE tuple."""
        flags = pack_flags(self.is_write, self.reuse_hint if self.hint_valid else None)
        return (self.address, self.pc_signature, flags, 0, self.inst_delta)

    @classmethod
    def from_row(cls, row):
        address, pc, flags, _reserved, inst_delta = row
        return cls(
            address,
            pc_signature=pc,
            is_write=bool(flags & FLAG_WRITE),
            reuse_hint=ReuseHint(flags >> HINT_SHIFT & 3),
            hint_valid=bool(flags & FLAG_HINT_VALID),
            inst_delta=inst_delta,
        )


_FLAG_FAULTS = np.array(  # per flag byte: 2 for any of bits 4-7, else 1 for a hint without valid
    [2 if f & 0xF0 else bool(f & 0x0C) and not f & FLAG_HINT_VALID for f in range(256)], np.uint8)


def _check_records(records):
    """Raise MalformedTraceError at the first record outside the format."""
    faults = _FLAG_FAULTS[records["flags"]]  # indexing, unlike take, makes no intp copy
    for column, most, what in (
        (records["pc"], PC_SIGNATURE_MAX, "pc signature wider than 14 bits"),
        (records["reserved"], 0, "nonzero reserved byte"),
        (faults, 1, "flag bits 4-7 set"),
        (faults, 0, "reuse hint without valid bit"),  # no 2 is left by now
    ):
        if column.max(initial=0) > most:
            raise MalformedTraceError("record %d: %s" % (int(np.argmax(column > most)), what))


class Trace:
    """Ordered accesses held as one RECORD_DTYPE array, `records`.

    Build it from such an array, which must hold only records in the
    documented form (else MalformedTraceError), or from MemoryAccess
    records.  Iterating or indexing yields MemoryAccess copies of single
    records; the column properties give whole fields as arrays, which is
    how the library reads a trace.  `records` is a read-only view: the
    trace keeps the array it is given, which must not change afterwards,
    and computes its digest and instruction count once.
    """

    def __init__(self, records=(), name=""):
        if isinstance(records, np.ndarray):
            if records.dtype != RECORD_DTYPE:
                raise ValueError("trace records need dtype %s" % (RECORD_DTYPE,))
            _check_records(records)
        else:
            records = np.array([r.row() for r in records], dtype=RECORD_DTYPE)
        self.records = records.view()
        self.records.flags.writeable = False
        self.name = name
        self._digest = None
        self._total_instructions = None

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return map(MemoryAccess.from_row, self.records.tolist())

    def __getitem__(self, i):
        return MemoryAccess.from_row(self.records[i].item())

    @property
    def addresses(self):
        return self.records["address"]

    @property
    def pcs(self):
        return self.records["pc"]

    @property
    def hint_valid(self):
        return self.records["flags"] & FLAG_HINT_VALID != 0

    @property
    def hints(self):
        """Reuse hint per access; DEFAULT (0) where no hint is valid."""
        return self.records["flags"] >> HINT_SHIFT & 3

    def total_instructions(self):
        if self._total_instructions is None:
            self._total_instructions = int(self.records["inst_delta"].sum(dtype=np.uint64))
        return self._total_instructions

    def digest(self):
        """blake2b hex digest of the record bytes: the trace's identity."""
        if self._digest is None:
            data = np.ascontiguousarray(self.records).view(np.uint8)
            self._digest = hashlib.blake2b(data, digest_size=16).hexdigest()
        return self._digest


def fold_pc(pc):
    """Fold a PC >= 0 of any width into a 14-bit signature (xor of 14-bit slices)."""
    sig = 0
    pc = int(pc)
    if pc < 0:  # shifting right never brings a negative int to 0
        raise ValueError("pc must be >= 0, got %d" % pc)
    while pc:
        sig ^= pc & PC_SIGNATURE_MAX
        pc >>= PC_SIGNATURE_BITS
    return sig


@dataclass(slots=True)
class PatternSpec:
    """Synthetic access pattern over k addresses a_i = base + i*stride.

    kind "recency":  (a1..ak, ak..a1) repeated n times; friendly to LRU
    kind "stream":   a1..ak once, no reuse
    kind "thrash":   (a1..ak) repeated n times; zero LRU hits when k > ways
    """

    kind: str
    k: int
    n: int = 1
    base_address: int = 0
    stride: int = 64
    pc_signature: int = 0

    def __post_init__(self):
        if self.kind not in ("recency", "stream", "thrash"):
            raise ValueError("unknown pattern kind: %r" % (self.kind,))
        if self.k < 1 or self.n < 1:
            raise ValueError("pattern requires k >= 1 and n >= 1")
        if not 1 <= self.stride < 1 << 64:
            raise ValueError("pattern stride must be in 1..2**64-1")
        if not 0 <= self.base_address <= self.base_address + (self.k - 1) * self.stride < 1 << 64:
            raise ValueError("pattern addresses out of u64 range")
        if not 0 <= self.pc_signature <= PC_SIGNATURE_MAX:
            raise ValueError("pc_signature must fit in 14 bits")


def generate_pattern(spec):
    """Expand a PatternSpec into a Trace."""
    steps = np.arange(spec.k, dtype=np.uint64)
    addrs = np.uint64(spec.base_address) + np.uint64(spec.stride) * steps
    if spec.kind == "recency":
        addrs = np.concatenate([addrs, addrs[::-1]])
    rounds = 1 if spec.kind == "stream" else spec.n
    records = np.zeros(rounds * len(addrs), dtype=RECORD_DTYPE)
    records["address"].reshape(rounds, len(addrs))[:] = addrs  # tiled in place
    records["pc"] = spec.pc_signature
    records["inst_delta"] = 1
    return Trace(records, name="%s(k=%d,n=%d)" % (spec.kind, spec.k, spec.n))


def write_trace(trace, path):
    """Serialize a trace to the 16-byte-record binary format."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(TRACE_MAGIC, TRACE_VERSION, b"\0\0\0", len(trace)))
        trace.records.tofile(fh)


def read_body(fh, head, dtype, count, what, error):
    """The `count` items of `dtype` after `head`, the header already read
    from fh, whose file must hold exactly both (else `error`).  A regular
    file's size comes from fstat and its body goes straight into the
    array; a pipe tells its size only by being read to the end."""
    expected = len(head) + np.dtype(dtype).itemsize * count
    st = os.fstat(fh.fileno())
    body = None if stat.S_ISREG(st.st_mode) else fh.read()
    size = st.st_size if body is None else len(head) + len(body)
    if size != expected:
        raise error("%s holds %d bytes, header promises %d" % (what, size, expected))
    return np.fromfile(fh, dtype, count) if body is None else np.frombuffer(body, dtype)


def read_trace(path):
    """Load a binary trace, rejecting every file outside the format."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise TruncatedTraceError("file shorter than trace header")
        magic, version, reserved, count = _HEADER.unpack(head)
        if magic != TRACE_MAGIC:
            raise BadMagicError("bad magic %r" % (magic,))
        if version != TRACE_VERSION:
            raise BadVersionError("unsupported trace version %d" % version)
        if reserved != b"\0\0\0":
            raise MalformedTraceError("nonzero reserved header bytes")
        return Trace(read_body(fh, head, RECORD_DTYPE, count, "trace", TruncatedTraceError))
