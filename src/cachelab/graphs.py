"""Graph structures, degree-based reordering, and graph access traces.

Graphs are compressed sparse row; `direction` says whether neighbor
lists hold in-edges (pull-style processing) or out-edges (push).  The
degree that matters for cache behavior is how often a vertex appears in
other vertices' neighbor lists, since each appearance is one access to
its property element; `reuse_degrees` computes exactly that and is the
default ranking for every reordering here.

Reorderings are expressed as a remap array M where M[old_id] = new_id.
Each one is a stable sort of the vertices by one key per vertex: a
degree-based grouping's key is the index of the half-open degree range
holding the vertex, hottest first, so within a group original order is
kept.
"""

import io
import random
import struct

import numpy as np

from .trace import RECORD_DTYPE, Trace, pack_flags, read_body

CSR_MAGIC = b"CSR1"
MAX_REMAP_VERTICES = 3_037_000_499  # apply_remap's key range: V * V - 1 < 2**63

# pc signatures for the four access streams of a graph iteration
PC_VERTEX = 0x011
PC_EDGE = 0x022
PC_GATHER = 0x033
PC_APPLY = 0x044


class GraphError(Exception):
    pass


class EdgeListError(GraphError):
    pass


class CsrMagicError(GraphError):
    pass


class CsrTruncatedError(GraphError):
    pass


class CsrGraph:
    """Compressed sparse row adjacency."""

    def __init__(self, offsets, edges, direction="in"):
        if direction not in ("in", "out"):
            raise GraphError("direction must be 'in' or 'out'")
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.edges = np.asarray(edges, dtype=np.int64)
        self.direction = direction
        if len(self.offsets) < 1 or self.offsets[0] != 0:
            raise GraphError("offsets must start at 0")
        if np.any(np.diff(self.offsets) < 0):
            raise GraphError("offsets must be non-decreasing")
        if self.offsets[-1] != len(self.edges):
            raise GraphError("offsets[-1] must equal edge count")
        if len(self.edges) and (
            self.edges.min() < 0 or self.edges.max() >= self.vertex_count
        ):
            raise GraphError("edge endpoint out of range")

    @property
    def vertex_count(self):
        return len(self.offsets) - 1

    @property
    def edge_count(self):
        return len(self.edges)

    def neighbors(self, v):
        return self.edges[self.offsets[v] : self.offsets[v + 1]]

    def degree_array(self):
        """Neighbor-list lengths in the stored direction."""
        return np.diff(self.offsets)

    def reuse_degrees(self):
        """How often each vertex appears in neighbor lists (= accesses to
        its property element per iteration, beyond its own update)."""
        return np.bincount(self.edges, minlength=self.vertex_count).astype(np.int64)


def load_edge_list(path, direction="in"):
    """Parse 'src dst' lines ('#' starts a comment) into a CsrGraph."""
    with open(path) as fh:
        return _edge_list(fh, direction)


def load_graph(path, direction="in"):
    """A CSR file, or an edge list when the first four bytes are not the
    CSR magic.  The input is opened once and read in order, so it may be
    a pipe; read(4), unlike peek, waits for four bytes a pipe has not yet
    delivered."""
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head == CSR_MAGIC:
            return _read_csr(fh, head, direction)
        return _edge_list(io.TextIOWrapper(io.BytesIO(head + fh.read())), direction)


def _edge_list(lines, direction):
    srcs = []
    dsts = []
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if len(parts) != 2:
            raise EdgeListError("line %d: expected 'src dst'" % lineno)
        try:
            s, d = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError("line %d: non-integer vertex id" % lineno) from None
        if s < 0 or d < 0:
            raise EdgeListError("line %d: negative vertex id" % lineno)
        if s >= 1 << 64 or d >= 1 << 64:
            raise EdgeListError("line %d: vertex id overflows u64" % lineno)
        srcs.append(s)
        dsts.append(d)
    if not srcs:
        return CsrGraph([0], [], direction)
    pairs = np.array([srcs, dsts], dtype=np.uint64)
    ids = np.unique(pairs)
    v_count = int(ids[-1]) + 1
    if v_count > 10 * len(ids):
        # sparse id space (any id from 2**63 up): compact ids to 0..V-1 in sorted order
        pairs, v_count = np.searchsorted(ids, pairs), len(ids)
    return _csr_from_pairs(*pairs.astype(np.int64, copy=False), v_count, direction)


def _csr_from_pairs(src, dst, v_count, direction):
    rows, vals = (dst, src) if direction == "in" else (src, dst)
    # up to 2**16 vertices the narrowed rows sort by radix, in the same stable order
    order = rows.astype(np.min_scalar_type(v_count - 1)).argsort(kind="stable")
    counts = np.bincount(rows, minlength=v_count)
    offsets = np.zeros(v_count + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return CsrGraph(offsets, vals[order], direction)


def write_csr(graph, path):
    with open(path, "wb") as fh:
        fh.write(CSR_MAGIC)
        fh.write(struct.pack("<QQ", graph.vertex_count, graph.edge_count))
        fh.write(graph.offsets.astype("<u8").tobytes())
        fh.write(graph.edges.astype("<u8").tobytes())


def read_csr(path, direction="in"):
    with open(path, "rb") as fh:
        return _read_csr(fh, fh.read(4), direction)


def _read_csr(fh, head, direction):
    """The CSR file fh, of which head, its first bytes, were read already."""
    head += fh.read(20 - len(head))
    if len(head) < 20:
        raise CsrTruncatedError("file shorter than CSR header")
    if head[:4] != CSR_MAGIC:
        raise CsrMagicError("bad magic %r" % (head[:4],))
    v_count, e_count = struct.unpack_from("<QQ", head, 4)
    # u64 values past 2**63 wrap into int64 as astype does; the graph rejects them
    body = read_body(fh, head, "<u8", v_count + 1 + e_count, "CSR", CsrTruncatedError)
    body = body.view(np.int64)
    return CsrGraph(body[: v_count + 1], body[v_count + 1 :], direction)


def write_remap(remap, path):
    remap = np.asarray(remap, dtype=np.int64)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(remap)))
        fh.write(remap.astype("<u8").tobytes())


def read_remap(path):
    with open(path, "rb") as fh:
        head = fh.read(8)
        if len(head) < 8:
            raise CsrTruncatedError("file shorter than remap header")
        (v_count,) = struct.unpack("<Q", head)
        remap = read_body(fh, head, "<u8", v_count, "remap", CsrTruncatedError)
    if not np.array_equal(np.sort(remap), np.arange(v_count, dtype=np.uint64)):
        raise GraphError("remap is not a permutation")
    return remap.astype(np.int64)


class GroupingSpec:
    """Ordered degree ranges [lo, hi), hottest first, covering [0, inf)."""

    def __init__(self, ranges):
        if not ranges:
            raise GraphError("grouping spec needs at least one range")
        for (lo, hi) in ranges:
            if not lo < hi:
                raise GraphError("empty degree range [%r, %r)" % (lo, hi))
        for (lo1, _), (_, hi2) in zip(ranges, ranges[1:]):
            if lo1 != hi2:
                raise GraphError("degree ranges must be contiguous and descending")
        if ranges[-1][0] != 0:
            raise GraphError("coldest range must start at degree 0")
        self.ranges = list(ranges)

    def group_array(self, degrees):
        """Index of the range holding each degree, 0 the hottest."""
        lows = np.array([lo for lo, _ in self.ranges], dtype=float)
        top = self.ranges[0][1]
        if top != np.inf and len(degrees) and degrees.max() >= top:
            raise GraphError("degree %d above hottest range" % int(degrees.max()))
        # lows are descending; a degree's group is the count of lows above it
        return np.searchsorted(-lows, -np.asarray(degrees, dtype=float), side="left")


def default_grouping(avg_degree):
    """Eight geometric ranges around the average degree."""
    a = float(avg_degree)
    if a <= 0:
        return GroupingSpec([(0, np.inf)])
    return GroupingSpec(
        [
            (32 * a, np.inf),
            (16 * a, 32 * a),
            (8 * a, 16 * a),
            (4 * a, 8 * a),
            (2 * a, 4 * a),
            (a, 2 * a),
            (a / 2, a),
            (0, a / 2),
        ]
    )


def _remap_from_groups(key):
    """The remap that puts vertices in one stable sort by key."""
    order = np.argsort(key, kind="stable")
    remap = np.empty(len(order), dtype=np.int64)
    remap[order] = np.arange(len(order))
    return remap


def dbg_reorder(graph, spec=None, degrees=None):
    """Degree-based grouping under the given spec, or DBG's default one."""
    if spec is None:
        return family_reorder(graph, "dbg", degrees)
    degrees = graph.reuse_degrees() if degrees is None else np.asarray(degrees)
    return _remap_from_groups(spec.group_array(degrees))


def family_reorder(graph, kind, degrees=None):
    """Degree reorderings, each one stable sort by one key per vertex.

    sort        degree, descending
    hubsort     hot vertices (degree at least the average) by descending
                degree, then the cold ones
    hubcluster  hot vertices, then cold ones
    dbg         eight geometric ranges around the average degree
    """
    if degrees is None:
        degrees = graph.reuse_degrees()
    degrees = np.asarray(degrees, dtype=float)
    avg = degrees.mean() if len(degrees) else 0.0
    if kind == "dbg":
        key = default_grouping(avg).group_array(degrees)
    elif kind == "sort":
        key = -degrees
    elif kind in ("hubsort", "hubcluster"):
        cold = degrees < avg
        key = np.where(cold, 1.0, -degrees) if kind == "hubsort" else cold
    else:
        raise GraphError("unknown reorder kind: %r" % (kind,))
    return _remap_from_groups(key)


def random_reorder(graph, granularity_blocks=0, seed=0, prop_bytes=8, block_bytes=64):
    """granularity 0: uniform random permutation of all vertices.
    granularity n>=1: shuffle runs of n cache blocks' worth of vertices,
    keeping order inside each run.  Either way the run numbers are
    shuffled, a run being one vertex at granularity 0."""
    if prop_bytes < 1 or block_bytes < 1:
        raise GraphError("prop_bytes and block_bytes must be at least 1")
    if granularity_blocks < 0:
        raise GraphError("granularity_blocks must be at least 0")
    run = granularity_blocks * (block_bytes // prop_bytes) if granularity_blocks else 1
    if run < 1:
        raise GraphError("block_bytes must hold at least one property element")
    v_count = graph.vertex_count
    run = min(run, max(v_count, 1))  # a run past the last vertex shuffles as one
    runs = list(range(-(-v_count // run)))
    random.Random(seed).shuffle(runs)
    order = (np.array(runs, dtype=np.int64)[:, None] * run + np.arange(run)).ravel()
    remap = np.empty(v_count, dtype=np.int64)
    remap[order[order < v_count]] = np.arange(v_count)
    return remap


def apply_remap(graph, remap):
    """Relabel vertices: vertex v becomes remap[v], and each neighbor u
    becomes remap[u].  Rows come out in new-id order with each neighbor
    list sorted (the canonical form); duplicate edges stay.  One sort of
    one int64 key per edge, new_row * V + new_neighbor, does both, so V
    is at most MAX_REMAP_VERTICES, the largest V with V * V - 1 < 2**63."""
    v_count = graph.vertex_count
    if v_count > MAX_REMAP_VERTICES:
        raise GraphError("apply_remap takes at most %d vertices" % MAX_REMAP_VERTICES)
    remap = np.asarray(remap, dtype=np.int64)
    if len(remap) != v_count:
        raise GraphError("remap length != vertex count")
    if not np.array_equal(np.sort(remap), np.arange(v_count)):
        raise GraphError("remap is not a permutation")
    degree = np.diff(graph.offsets)
    key = np.repeat(remap * v_count, degree)
    key += remap[graph.edges]
    key.sort()
    key %= v_count  # the key becomes the new neighbor, in place
    counts = np.empty(v_count, dtype=np.int64)
    counts[remap] = degree
    offsets = np.zeros(v_count + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return CsrGraph(offsets, key, graph.direction)


def skew_metrics(graph, prop_bytes=8, block_bytes=64, degrees=None):
    """Hot-vertex statistics under the graph's current vertex order.

    A vertex is hot when its degree is at least the average.  The
    per-block average counts hot vertices only over property-array
    cache blocks that contain at least one.
    """
    if prop_bytes < 1 or block_bytes < 1:
        raise GraphError("prop_bytes and block_bytes must be at least 1")
    if degrees is None:
        degrees = graph.reuse_degrees()
    degrees = np.asarray(degrees)
    v_count = graph.vertex_count
    total = int(degrees.sum())
    avg = degrees.mean() if v_count else 0.0
    hot = degrees >= avg if v_count else np.zeros(0, dtype=bool)
    hot_count = int(hot.sum())
    per_block = max(1, min(block_bytes // prop_bytes, v_count))  # a wider block holds them all
    n_blocks = (v_count + per_block - 1) // per_block
    hot_per_block = np.zeros(n_blocks, dtype=np.int64)
    if v_count:
        np.add.at(hot_per_block, np.arange(v_count) // per_block, hot.astype(np.int64))
    occupied = hot_per_block[hot_per_block > 0]
    return {
        "hot_fraction": hot_count / v_count if v_count else 0.0,
        "hot_edge_coverage": float(degrees[hot].sum()) / total if total else 0.0,
        "avg_hot_per_block": float(occupied.mean()) if len(occupied) else 0.0,
        "hot_footprint_bytes": hot_count * prop_bytes,
    }


def synth_powerlaw(v_count, avg_degree, skew_alpha=2.1, seed=0, direction="in"):
    """Directed graph with rank-based power-law endpoint weights.

    Both endpoints of each edge are drawn in proportion to a
    (rank+1)^(-1/(alpha-1)) weight, giving a degree distribution with
    power-law exponent about alpha; self-loops are dropped.  Weights are
    shuffled over vertex ids so hot vertices land anywhere in the id
    space.  Larger alpha flattens the weights toward uniform.
    """
    if v_count < 2 or avg_degree <= 0:
        raise GraphError("need at least two vertices and positive average degree")
    rng = np.random.default_rng(seed)
    target_edges = int(round(avg_degree * v_count))
    beta = 1.0 / (skew_alpha - 1.0)
    weights = np.arange(1, v_count + 1, dtype=float) ** (-beta)
    rng.shuffle(weights)
    p = weights / weights.sum()
    src = rng.choice(v_count, size=target_edges, p=p)
    dst = rng.choice(v_count, size=target_edges, p=p)
    keep = src != dst
    return _csr_from_pairs(
        src[keep].astype(np.int64), dst[keep].astype(np.int64), v_count, direction
    )


def synth_uniform(v_count, degree, seed=0, direction="in"):
    """Exactly `degree`-regular directed graph with no self-loops:
    vertex v's in-neighbors are v minus `degree` distinct random offsets."""
    if not 0 < degree < v_count:
        raise GraphError("degree must be in (0, vertex_count)")
    rng = np.random.default_rng(seed)
    offs = rng.choice(np.arange(1, v_count), size=degree, replace=False)
    base = np.arange(v_count, dtype=np.int64)
    dst = np.repeat(base, degree)
    src = (dst - np.tile(offs, v_count)) % v_count
    return _csr_from_pairs(src, dst, v_count, direction)


def gen_graph_trace(
    graph,
    prop_bytes=8,
    block_bytes=64,
    prop_base=0,
    bake_hints=False,
    llc_capacity=None,
):
    """One full iteration of neighbor-gather processing as an LLC trace.

    Per vertex v (in id order): one access to its vertex-array entry,
    one access per edge-array cache block its neighbor range touches,
    less a first block the previous range read (each is read once), one
    property read per neighbor, then one write to v's slot in a
    separate output array.  A property element is therefore touched
    exactly as many times per iteration as its vertex appears in
    neighbor lists.  Returns (trace, region_bounds) where region_bounds
    is the property array's [start, end) for use as a replacement hint
    region; the vertex, edge and output arrays sit above it in address
    space and are plain streaming traffic.

    block_bytes is a power of two >= 8, so a block holds whole 8-byte
    edges.  With bake_hints the records carry the region classification
    that a cache of llc_capacity bytes would compute at run time.
    """
    if prop_bytes < 1 or block_bytes < 1:
        raise GraphError("prop_bytes and block_bytes must be at least 1")
    if block_bytes & (block_bytes - 1) or block_bytes < 8:  # a block holds whole edges
        raise GraphError("block_bytes must be a power of two >= 8")
    if prop_base < 0:
        raise GraphError("prop_base must be at least 0")
    v_count = graph.vertex_count
    prop_end = prop_base + v_count * prop_bytes
    abrs = [(prop_base, prop_end)]
    region_map = None
    if bake_hints:
        from .grasp import RegionMap

        if llc_capacity is None or llc_capacity < 1:
            raise GraphError("bake_hints needs llc_capacity of at least 1")
        region_map = RegionMap(abrs, llc_capacity)

    def align_up(x):
        return (x + block_bytes - 1) // block_bytes * block_bytes

    vertex_base = align_up(prop_end)
    edge_base = align_up(vertex_base + 8 * v_count)
    out_base = align_up(edge_base + 8 * graph.edge_count)
    if out_base + prop_bytes * v_count > 1 << 64:
        raise GraphError("graph trace addresses overflow u64")

    # per vertex: its vertex entry, edge blocks, gathers, output write.  Edge
    # block k is read by the vertex whose range holds its first edge, so
    # ceil(offsets[v] / edges per block) edge blocks come before vertex v's
    offsets = graph.offsets
    seg = -(-offsets // (block_bytes // 8))
    edge_block = np.arange(seg[-1])  # record 2v + 1 + offsets[v] + k holds block k, v its reader
    edge_at = np.repeat(np.arange(1, 2 * v_count, 2) + offsets[:-1], np.diff(seg)) + edge_block
    seg += offsets
    seg += np.arange(0, 2 * v_count + 1, 2)  # seg[v]: v's first record

    # the records' own columns take the scatters: no column beside them
    records = np.zeros(int(seg[-1]), dtype=RECORD_DTYPE)
    address, pc = records["address"], records["pc"]
    pc[:] = PC_GATHER
    vertices = np.arange(v_count, dtype=np.uint64)
    address[seg[:-1]] = np.uint64(vertex_base) + np.uint64(8) * vertices
    pc[seg[:-1]] = PC_VERTEX
    address[edge_at] = np.uint64(edge_base) + np.uint64(block_bytes) * edge_block.view(np.uint64)
    pc[edge_at] = PC_EDGE
    at = seg[1:] - 1
    address[at] = np.uint64(out_base) + np.uint64(prop_bytes) * vertices
    pc[at] = PC_APPLY
    del edge_block, edge_at, seg, vertices, at
    # every other record is a gather, one per neighbor-list entry in order
    gather = graph.edges.view(np.uint64) * np.uint64(prop_bytes)
    gather += np.uint64(prop_base)
    address[pc == PC_GATHER] = gather
    del gather
    flags = records["flags"]
    np.equal(pc, PC_APPLY, out=flags)  # the store bit, FLAG_WRITE = 1
    records["inst_delta"] = 1
    if region_map is not None:
        flags |= pack_flags(0, region_map.classify(records["address"]))
    return Trace(records, name="graph-pull"), abrs

