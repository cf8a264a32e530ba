"""Graph containers, binary formats, reordering transforms, skew
statistics, synthetic generators, and trace generation."""

import os
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from cachelab.graphs import (
    MAX_REMAP_VERTICES,
    PC_APPLY,
    PC_EDGE,
    PC_GATHER,
    PC_VERTEX,
    CsrGraph,
    CsrMagicError,
    CsrTruncatedError,
    EdgeListError,
    GraphError,
    GroupingSpec,
    apply_remap,
    dbg_reorder,
    default_grouping,
    family_reorder,
    gen_graph_trace,
    load_edge_list,
    random_reorder,
    read_csr,
    read_remap,
    skew_metrics,
    synth_powerlaw,
    synth_uniform,
    write_csr,
    write_remap,
)
from cachelab.trace import ReuseHint
from test_grasp import flat_class


def small_csr():
    # v0 <- {1,2}, v1 <- {0}, v2 <- {1}
    return CsrGraph([0, 2, 3, 4], [1, 2, 0, 1], direction="in")


# -- container and edge list ---------------------------------------------------


def test_csr_counts_neighbors_and_degrees():
    g = small_csr()
    assert g.vertex_count == 3
    assert g.edge_count == 4
    assert list(g.neighbors(0)) == [1, 2]
    assert list(g.neighbors(1)) == [0]
    assert list(g.degree_array()) == [2, 1, 1]
    assert list(g.reuse_degrees()) == [1, 2, 1]


def test_csr_with_no_edges_has_all_zero_offsets():
    g = CsrGraph([0, 0, 0, 0], [])
    assert g.vertex_count == 3
    assert g.edge_count == 0
    assert list(g.neighbors(1)) == []
    assert list(g.degree_array()) == [0, 0, 0]


def test_csr_validation():
    with pytest.raises(GraphError):
        CsrGraph([1, 2], [0])  # offsets must start at zero
    with pytest.raises(GraphError):
        CsrGraph([0, 2, 1], [0, 1])  # decreasing offsets
    with pytest.raises(GraphError):
        CsrGraph([0, 1], [5])  # endpoint out of range
    with pytest.raises(GraphError):
        CsrGraph([0, 2], [0])  # last offset must equal edge count
    with pytest.raises(GraphError):
        CsrGraph([0], [], direction="sideways")


def test_load_edge_list_with_comments_and_blanks(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# a comment\n0 1\n\n2 1   # trailing comment\n1 0\n")
    g = load_edge_list(path, direction="in")
    assert g.vertex_count == 3
    assert g.edge_count == 3
    assert list(g.neighbors(1)) == [0, 2]
    assert list(g.neighbors(0)) == [1]


def test_load_edge_list_direction_flips_adjacency(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n2 1\n")
    gin = load_edge_list(path, direction="in")
    gout = load_edge_list(path, direction="out")
    assert list(gin.neighbors(1)) == [0, 2]
    assert list(gout.neighbors(0)) == [1]
    assert list(gout.neighbors(2)) == [1]
    assert gin.degree_array().sum() == gout.degree_array().sum() == 2


def test_load_edge_list_compacts_sparse_id_spaces(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("5 1000000000\n1000000000 5\n")
    g = load_edge_list(path)
    assert g.vertex_count == 2  # ids squeezed to 0..1 in sorted order
    assert list(g.neighbors(0)) == [1]
    assert list(g.neighbors(1)) == [0]
    dense = tmp_path / "d.txt"
    dense.write_text("".join("%d %d\n" % (i, (i + 1) % 10) for i in range(10)))
    assert load_edge_list(dense).vertex_count == 10  # dense ids stay put
    path.write_text("0 %d\n%d %d\n" % (1 << 63, 1 << 63, (1 << 64) - 1))
    g = load_edge_list(path)
    assert g.vertex_count == 3  # 0, 2**63 and 2**64 - 1, past int64 but within u64
    assert [list(g.neighbors(v)) for v in range(3)] == [[], [0], [1]]


def test_load_edge_list_rejects_malformed_lines(tmp_path):
    for text in ("0\n", "0 1 2\n", "a b\n", "-1 2\n", "0 %d\n" % (1 << 64)):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(EdgeListError):
            load_edge_list(path)


def test_load_edge_list_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing\n")
    g = load_edge_list(path)
    assert g.vertex_count == 0
    assert g.edge_count == 0


# -- binary formats --------------------------------------------------------------


def test_csr_file_round_trip_is_byte_stable(tmp_path):
    g = synth_powerlaw(500, 6, seed=3)
    p1, p2 = tmp_path / "a.csr", tmp_path / "b.csr"
    write_csr(g, p1)
    write_csr(read_csr(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    back = read_csr(p1)
    assert np.array_equal(back.offsets, g.offsets)
    assert np.array_equal(back.edges, g.edges)


def test_csr_read_rejects_malformed_files(tmp_path):
    g = small_csr()
    path = tmp_path / "g.csr"
    write_csr(g, path)
    data = path.read_bytes()

    path.write_bytes(b"NOPE" + data[4:])
    with pytest.raises(CsrMagicError):
        read_csr(path)

    path.write_bytes(data[:12])  # shorter than the header
    with pytest.raises(CsrTruncatedError):
        read_csr(path)

    path.write_bytes(data[:-8])  # missing one edge
    with pytest.raises(CsrTruncatedError):
        read_csr(path)

    path.write_bytes(data + b"\0" * 8)  # trailing junk
    with pytest.raises(CsrTruncatedError):
        read_csr(path)


def test_read_csr_from_a_pipe(tmp_path):
    g, path = small_csr(), tmp_path / "g.csr"
    write_csr(g, path)
    data = path.read_bytes()
    for body in (data, data[:-8], data + b"\0" * 8):
        r, w = os.pipe()
        os.write(w, body)  # far below the pipe's buffer, so this cannot block
        os.close(w)
        if body == data:
            back = read_csr(r)  # open() takes the descriptor
            assert np.array_equal(back.offsets, g.offsets) and np.array_equal(back.edges, g.edges)
        else:
            with pytest.raises(CsrTruncatedError):
                read_csr(r)


def test_remap_file_round_trip(tmp_path):
    remap = random_reorder(synth_uniform(100, 3, seed=1), seed=5)
    path = tmp_path / "m.remap"
    write_remap(remap, path)
    assert np.array_equal(read_remap(path), remap)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(CsrTruncatedError):
        read_remap(path)


def test_read_remap_from_a_pipe(tmp_path):
    remap, path = random_reorder(synth_uniform(100, 3, seed=1), seed=5), tmp_path / "m.remap"
    write_remap(remap, path)
    data = path.read_bytes()
    for body in (data, data[:-4], data + b"\0" * 8, data[:6]):
        r, w = os.pipe()
        os.write(w, body)  # far below the pipe's buffer, so this cannot block
        os.close(w)
        if body == data:
            assert np.array_equal(read_remap(r), remap)  # open() takes the descriptor
        else:
            with pytest.raises(CsrTruncatedError):
                read_remap(r)


@pytest.mark.parametrize("kind", ["csr", "remap"])
def test_graph_reader_fuzz_truncations_and_bit_flips(tmp_path, kind):
    """Every cut and every single-bit flip of a valid CSR or remap file is
    either rejected with a GraphError subtype or read back into a value
    that the matching writer reproduces byte for byte."""
    g = synth_powerlaw(6, 2, seed=4)
    read, write, value = {
        "csr": (read_csr, write_csr, g),
        "remap": (read_remap, write_remap, random_reorder(g, seed=1)),
    }[kind]
    src, bad, out = tmp_path / "src", tmp_path / "bad", tmp_path / "out"
    write(value, src)
    data = src.read_bytes()

    def outcome(blob):
        bad.write_bytes(blob)
        try:
            back = read(bad)
        except GraphError:
            return "rejected"
        write(back, out)
        assert out.read_bytes() == blob
        return "accepted"

    cuts = [outcome(data[:n]) for n in range(len(data) + 1)]
    assert cuts == ["rejected"] * len(data) + ["accepted"]
    seen = set()
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        seen.add(outcome(bytes(flipped)))
    # a remap with one id changed is no permutation
    assert seen == ({"accepted", "rejected"} if kind == "csr" else {"rejected"})


# -- grouping ---------------------------------------------------------------------


def flat_group(ranges, degree):
    """Reference model: the index of the [lo, hi) range holding degree,
    found by walking the ranges hottest first, or None."""
    for k, (lo, hi) in enumerate(ranges):
        if lo <= degree < hi:
            return k
    return None


def test_default_grouping_places_degrees_in_geometric_ranges():
    spec = default_grouping(20)
    assert len(spec.ranges) == 8
    group = spec.group_array(np.array([45, 640, 0, 20, 19])).tolist()
    assert group == [flat_group(spec.ranges, d) for d in (45, 640, 0, 20, 19)]
    assert spec.ranges[group[0]] == (40, 80)
    assert group[1] == 0  # hottest, open-ended range
    assert group[2] == 7  # coldest
    assert group[3] == 5  # [avg, 2*avg)
    assert group[4] == 6  # [avg/2, avg)


def test_group_array_agrees_with_a_flat_range_lookup():
    spec = default_grouping(16)
    rng = np.random.default_rng(8)
    degrees = rng.integers(0, 1000, size=500)
    grouped = spec.group_array(degrees)
    assert [flat_group(spec.ranges, int(d)) for d in degrees] == list(grouped)
    # every range bound, one either side
    edges = np.array([lo + d for lo, _ in spec.ranges for d in (-1, 0, 1) if lo + d >= 0])
    assert [flat_group(spec.ranges, d) for d in edges] == spec.group_array(edges).tolist()


def test_grouping_spec_validation():
    with pytest.raises(GraphError):
        GroupingSpec([])
    with pytest.raises(GraphError):
        GroupingSpec([(5, 5), (0, 5)])  # empty range
    with pytest.raises(GraphError):
        GroupingSpec([(10, 20), (0, 5)])  # gap between ranges
    with pytest.raises(GraphError):
        GroupingSpec([(10, 20), (5, 10)])  # coldest range must reach zero
    bounded = GroupingSpec([(10, 20), (0, 10)])
    for above in (20, 25):  # at and past the top of the hottest range
        with pytest.raises(GraphError):
            bounded.group_array(np.array([3, above]))


# -- reorderings -------------------------------------------------------------------


def test_dbg_groups_hot_vertices_ahead_and_keeps_original_order_within_groups():
    g = CsrGraph([0, 0, 0, 0, 0, 0], [])
    degrees = np.array([5, 1, 5, 1, 5])  # average 3.4
    remap = dbg_reorder(g, degrees=degrees)
    # hot trio keeps its order up front, cold pair follows in order
    assert list(remap) == [0, 3, 1, 4, 2]


def test_dbg_on_equal_degrees_is_the_identity():
    g = synth_uniform(64, 4, seed=2)
    assert list(dbg_reorder(g)) == list(range(64))


def test_sort_orders_by_degree_descending_and_stable():
    g = CsrGraph([0, 0, 0, 0, 0], [])
    degrees = np.array([3, 1, 3, 2])
    remap = family_reorder(g, "sort", degrees=degrees)
    assert list(remap) == [0, 3, 1, 2]


def test_hubsort_sorts_hot_degrees_and_pools_the_cold():
    g = CsrGraph([0] * 6, [])
    degrees = np.array([9, 1, 9, 5, 0])  # average 4.8, hot = {9, 9, 5}
    remap = family_reorder(g, "hubsort", degrees=degrees)
    # degree-9 pair first (original order), then the 5, then cold in order
    assert list(remap) == [0, 3, 1, 2, 4]


def test_hubcluster_splits_hot_from_cold_preserving_order():
    g = CsrGraph([0] * 5, [])
    degrees = np.array([1, 9, 0, 5])  # average 3.75
    remap = family_reorder(g, "hubcluster", degrees=degrees)
    assert list(remap) == [2, 0, 3, 1]


def test_all_reorderings_agree_on_a_uniform_graph():
    g = synth_uniform(64, 4, seed=7)
    identity = list(range(64))
    for kind in ("dbg", "sort", "hubsort", "hubcluster"):
        assert list(family_reorder(g, kind)) == identity, kind


def test_family_reorder_rejects_unknown_kind():
    with pytest.raises(GraphError):
        family_reorder(small_csr(), "zigzag")


def test_equal_degrees_always_share_a_dbg_group():
    g = synth_powerlaw(2000, 8, seed=4)
    degrees = g.reuse_degrees()
    spec = default_grouping(degrees.mean())
    groups = spec.group_array(degrees)
    remap = dbg_reorder(g)
    for d in np.unique(degrees):
        idx = np.where(degrees == d)[0]
        assert len(set(groups[idx])) == 1
        # and the remap keeps equal-degree vertices in original order
        assert list(np.diff(remap[idx]) > 0) == [True] * (len(idx) - 1)


def test_random_reorder_is_a_seeded_bijection():
    g = synth_uniform(100, 3, seed=0)
    r1 = random_reorder(g, seed=11)
    r2 = random_reorder(g, seed=11)
    r3 = random_reorder(g, seed=12)
    assert np.array_equal(r1, r2)
    assert not np.array_equal(r1, r3)
    assert sorted(r1) == list(range(100))
    assert list(r1) != list(range(100))


def test_block_granular_shuffle_keeps_runs_of_eight_together():
    g = synth_uniform(96, 3, seed=0)
    remap = random_reorder(g, granularity_blocks=1, seed=9, prop_bytes=8, block_bytes=64)
    assert sorted(remap) == list(range(96))
    shuffled = False
    for start in range(0, 96, 8):
        base = remap[start]
        assert list(remap[start : start + 8]) == list(range(base, base + 8))
        shuffled |= base != start
    assert shuffled


def test_random_reorder_rejects_sizes_below_one_byte():
    """A property or block size below one byte is refused at every
    granularity, rather than dividing by zero or shuffling as if the
    sizes were usable."""
    for prop_bytes, block_bytes in ((0, 64), (-8, 64), (8, 0), (8, -64)):
        for granularity in (0, 2):
            with pytest.raises(GraphError, match="at least 1"):
                random_reorder(small_csr(), granularity, prop_bytes=prop_bytes,
                               block_bytes=block_bytes)


def test_random_reorder_names_a_negative_granularity():
    """A negative granularity is refused by its own name, not blamed on
    block_bytes, whatever the property and block sizes."""
    for prop_bytes, block_bytes in ((8, 64), (64, 8)):
        for granularity in (-1, -4):
            with pytest.raises(GraphError, match="granularity_blocks must be at least 0"):
                random_reorder(small_csr(), granularity, prop_bytes=prop_bytes,
                               block_bytes=block_bytes)


def test_apply_remap_identity_and_inverse_recover_the_graph():
    g = synth_powerlaw(300, 5, seed=6)
    ident = apply_remap(g, np.arange(300))
    remap = random_reorder(g, seed=3)
    inverse = np.empty(300, dtype=np.int64)
    inverse[remap] = np.arange(300)
    back = apply_remap(apply_remap(g, remap), inverse)
    assert np.array_equal(back.offsets, ident.offsets)
    assert np.array_equal(back.edges, ident.edges)


def test_apply_remap_rejects_non_permutations():
    g = small_csr()
    with pytest.raises(GraphError):
        apply_remap(g, [0, 0, 1])
    with pytest.raises(GraphError):
        apply_remap(g, [0, 1])
    for ids in ([0, 1, 5], [0, 1, -1]):  # out of range, or negative
        with pytest.raises(GraphError):
            apply_remap(g, ids)


def test_apply_remap_preserves_the_degree_histogram():
    g = synth_powerlaw(400, 6, seed=9)
    remap = dbg_reorder(g)
    h = apply_remap(g, remap)
    assert sorted(g.degree_array()) == sorted(h.degree_array())
    assert sorted(g.reuse_degrees()) == sorted(h.reuse_degrees())
    # and pointwise: vertex v's degree travels to its new id
    assert np.array_equal(h.degree_array()[remap], g.degree_array())


def test_apply_remap_refuses_graphs_whose_sort_key_would_overflow():
    """The key new_row * V + new_neighbor stays below 2**63 only up to
    MAX_REMAP_VERTICES vertices; above that the call is refused before
    the remap or the graph's arrays are read."""

    class Huge:  # a stand-in: no arrays that large are ever made
        vertex_count = 2**32
        offsets = edges = None

    assert (MAX_REMAP_VERTICES**2 - 1 < 2**63) and (MAX_REMAP_VERTICES + 1) ** 2 - 1 >= 2**63
    with pytest.raises(GraphError, match="at most 3037000499 vertices"):
        apply_remap(Huge(), [0, 1])


def reference_relabel(offsets, edges, remap):
    """The relabelled CSR, row by row: old row v's neighbors u become
    sorted(remap[u]) at row remap[v].  Plain lists, nothing from graphs."""
    rows = [None] * len(remap)
    for v in range(len(remap)):
        rows[remap[v]] = sorted(remap[u] for u in edges[offsets[v] : offsets[v + 1]])
    new_offsets = [0]
    for row in rows:
        new_offsets.append(new_offsets[-1] + len(row))
    return new_offsets, [u for row in rows for u in row]


@st.composite
def remap_cases(draw):
    """A CSR graph of 1-40 vertices with empty rows, duplicate edges and,
    in about half the graphs, vertices no edge touches; a direction; and
    a random permutation of its vertex ids."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    v_count = rnd.randint(1, 40)
    touched = range(v_count)
    if rnd.random() < 0.5:  # the other vertices have no edges in or out
        touched = rnd.sample(range(v_count), rnd.randint(1, v_count))
    offsets = [0]
    for v in range(v_count):
        offsets.append(offsets[-1] + (rnd.choice([0, 0, 1, 2, 5, 12]) if v in touched else 0))
    edges = [rnd.choice(touched) for _ in range(offsets[-1])]
    remap = list(range(v_count))
    rnd.shuffle(remap)
    return offsets, edges, remap, rnd.choice(["in", "out"])


@seed(20261019)
@settings(max_examples=300, deadline=None, database=None)
@example(([0, 0], [], [0], "in"))
@example(([0, 3], [0, 0, 0], [0], "out"))
@example(([0, 2, 2, 4], [2, 2, 0, 0], [2, 0, 1], "in"))
@given(remap_cases())
def _check_relabel(case):
    offsets, edges, remap, direction = case
    h = apply_remap(CsrGraph(offsets, edges, direction), remap)
    assert (h.offsets.tolist(), h.edges.tolist()) == reference_relabel(offsets, edges, remap)
    assert h.direction == direction


def test_apply_remap_matches_the_row_by_row_relabel():
    t0 = time.perf_counter()
    _check_relabel()
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, "exceeded 5s budget (%.1fs)" % elapsed


def test_remapping_does_not_change_propagation_results():
    g = synth_powerlaw(200, 5, seed=13)
    remap = dbg_reorder(g)
    h = apply_remap(g, remap)

    def one_iteration(graph, scores):
        out_deg = np.maximum(graph.reuse_degrees(), 1)
        new = np.zeros(graph.vertex_count)
        for v in range(graph.vertex_count):
            ns = graph.neighbors(v)
            new[v] = (scores[ns] / out_deg[ns]).sum()
        return new

    ones = np.ones(200)
    r_g = one_iteration(g, one_iteration(g, ones))
    r_h = one_iteration(h, one_iteration(h, ones))
    assert np.allclose(r_h[remap], r_g)


# -- skew statistics ----------------------------------------------------------------


def test_skew_metrics_on_a_uniform_graph_everything_is_hot():
    g = synth_uniform(64, 4, seed=5)
    m = skew_metrics(g)
    assert m["hot_fraction"] == 1.0
    assert m["hot_edge_coverage"] == 1.0
    assert m["avg_hot_per_block"] == 8.0  # 8-byte elements in 64B blocks
    assert m["hot_footprint_bytes"] == 64 * 8


def test_skew_metrics_rejects_sizes_below_one_byte():
    """A zero property size divided by zero and a negative one gave a
    negative hot footprint; a block size below one byte is refused too."""
    for prop_bytes, block_bytes in ((0, 64), (-8, 64), (8, 0), (8, -64)):
        with pytest.raises(GraphError, match="at least 1"):
            skew_metrics(small_csr(), prop_bytes=prop_bytes, block_bytes=block_bytes)


def test_blocks_wider_than_the_property_array_count_as_one_block():
    """A block or an rcb run past the last vertex holds every vertex, as
    one as wide as the array does, however far past the int64 range."""
    g = synth_powerlaw(300, 5, seed=6)
    for prop_bytes, block_bytes in ((8, 1 << 70), (1, 1 << 64)):
        assert skew_metrics(g, prop_bytes, block_bytes) == skew_metrics(g, prop_bytes,
                                                                        300 * prop_bytes)
    for granularity in (38, 1 << 70):
        assert list(random_reorder(g, granularity, seed=2)) == list(range(300))


def test_skew_metrics_bounds_on_a_skewed_graph():
    g = synth_powerlaw(5000, 10, seed=1)
    m = skew_metrics(g)
    assert 0.0 < m["hot_fraction"] < 0.5
    assert m["hot_fraction"] <= m["hot_edge_coverage"] <= 1.0
    assert 0.0 < m["avg_hot_per_block"] <= 8.0


def test_sorting_concentrates_hot_vertices_into_fewer_blocks():
    g = synth_powerlaw(5000, 10, seed=2)
    before = skew_metrics(g)["avg_hot_per_block"]
    after = skew_metrics(apply_remap(g, family_reorder(g, "sort")))["avg_hot_per_block"]
    assert after >= before
    assert after > 7.0  # hot region is packed nearly solid


# -- synthetic generators --------------------------------------------------------------


def test_synth_powerlaw_degree_sum_equals_edge_count():
    g = synth_powerlaw(3000, 8, seed=0)
    assert g.degree_array().sum() == g.edge_count
    assert g.reuse_degrees().sum() == g.edge_count
    target = 3000 * 8
    assert 0.9 * target <= g.edge_count <= target


def test_synth_powerlaw_is_deterministic_per_seed():
    a = synth_powerlaw(500, 4, seed=42)
    b = synth_powerlaw(500, 4, seed=42)
    c = synth_powerlaw(500, 4, seed=43)
    assert np.array_equal(a.offsets, b.offsets) and np.array_equal(a.edges, b.edges)
    assert not np.array_equal(a.edges, c.edges)


def test_synth_powerlaw_is_heavier_tailed_than_uniform():
    g = synth_powerlaw(5000, 8, skew_alpha=2.1, seed=3)
    degrees = np.sort(g.reuse_degrees())[::-1]
    top = degrees[:50].sum() / degrees.sum()
    assert top > 0.10  # top 1% of vertices draw a large share of edges


def test_synth_uniform_is_degree_regular_without_self_loops():
    g = synth_uniform(100, 7, seed=4)
    assert list(g.degree_array()) == [7] * 100
    assert list(g.reuse_degrees()) == [7] * 100
    for v in range(100):
        assert v not in g.neighbors(v)


def test_synth_validation():
    with pytest.raises(GraphError):
        synth_powerlaw(1, 4)
    with pytest.raises(GraphError):
        synth_powerlaw(100, 0)
    with pytest.raises(GraphError):
        synth_uniform(10, 0)
    with pytest.raises(GraphError):
        synth_uniform(10, 10)


# -- trace generation -------------------------------------------------------------------


def test_gen_graph_trace_golden_record_sequence():
    g = small_csr()
    trace, abrs = gen_graph_trace(g)
    assert abrs == [(0, 24)]
    got = [(r.address, r.pc_signature, r.is_write) for r in trace]
    assert got == [
        (64, PC_VERTEX, False),   # v0 entry
        (128, PC_EDGE, False),    # v0's neighbor range, one edge block
        (8, PC_GATHER, False),    # property of neighbor 1
        (16, PC_GATHER, False),   # property of neighbor 2
        (192, PC_APPLY, True),    # v0's output slot
        (72, PC_VERTEX, False),   # v1 entry
        (0, PC_GATHER, False),    # same edge block as v0: not re-fetched
        (200, PC_APPLY, True),
        (80, PC_VERTEX, False),   # v2
        (8, PC_GATHER, False),
        (208, PC_APPLY, True),
    ]


def test_gen_graph_trace_touches_each_property_element_reuse_degree_times():
    g = synth_powerlaw(300, 5, seed=21)
    trace, (bounds,) = gen_graph_trace(g)
    start, end = bounds
    counts = {}
    for r in trace:
        if start <= r.address < end and r.pc_signature == PC_GATHER:
            counts[r.address] = counts.get(r.address, 0) + 1
    expected = g.reuse_degrees()
    for v in range(300):
        assert counts.get(start + 8 * v, 0) == expected[v]


def test_gen_graph_trace_edge_blocks_span_wide_neighbor_ranges():
    g = CsrGraph([0, 9, 9], list(range(1, 2)) * 0 + [1] * 9, direction="in")
    trace, _ = gen_graph_trace(g)
    edge_recs = [r for r in trace if r.pc_signature == PC_EDGE]
    assert len(edge_recs) == 2  # nine 8-byte entries span two 64B blocks
    assert edge_recs[1].address == edge_recs[0].address + 64


def test_gen_graph_trace_baked_hints_match_the_region_map():
    g = synth_powerlaw(4000, 6, seed=8)
    cap = 8 * 16 * 64  # smaller than the property array, so every class appears
    trace, abrs = gen_graph_trace(g, bake_hints=True, llc_capacity=cap)
    assert all(r.hint_valid for r in trace)
    for r in list(trace)[:2000]:
        assert r.reuse_hint == flat_class(abrs, cap, r.address)
    hints = {r.reuse_hint for r in trace}
    assert {ReuseHint.HIGH, ReuseHint.MODERATE, ReuseHint.LOW} <= hints


def reference_graph_trace(graph, prop_bytes, block_bytes, prop_base, classify):
    """The record-at-a-time walk gen_graph_trace describes, as
    (address, pc, is_write, reuse_hint, hint_valid) tuples; classify
    gives one address's hint, or is None for a trace without hints."""
    v_count = graph.vertex_count

    def align_up(x):
        return (x + block_bytes - 1) // block_bytes * block_bytes

    vertex_base = align_up(prop_base + v_count * prop_bytes)
    edge_base = align_up(vertex_base + 8 * v_count)
    out_base = align_up(edge_base + 8 * graph.edge_count)
    out = []

    def rec(address, pc, write=False):
        hint = classify(address) if classify else ReuseHint.DEFAULT
        out.append((address, pc, write, hint, classify is not None))

    last_edge_block = -1
    for v in range(v_count):
        rec(vertex_base + 8 * v, PC_VERTEX)
        lo, hi = int(graph.offsets[v]), int(graph.offsets[v + 1])
        if hi > lo:
            for blk in range((edge_base + 8 * lo) // block_bytes,
                             (edge_base + 8 * hi - 8) // block_bytes + 1):
                if blk != last_edge_block:
                    rec(blk * block_bytes, PC_EDGE)
                    last_edge_block = blk
            for u in graph.edges[lo:hi]:
                rec(prop_base + prop_bytes * int(u), PC_GATHER)
        rec(out_base + prop_bytes * v, PC_APPLY, write=True)
    return out


def test_gen_graph_trace_matches_the_record_at_a_time_walk():
    rng = np.random.default_rng(5)
    for trial in range(12):
        v_count = int(rng.integers(1, 60))
        degree = rng.integers(0, 12, size=v_count) * (rng.random(v_count) < 0.6)
        offsets = np.concatenate([[0], np.cumsum(degree)])
        edges = rng.integers(0, v_count, size=int(offsets[-1]))
        g = CsrGraph(offsets, edges)
        prop_bytes = int(rng.choice([4, 8, 16]))
        block_bytes = int(rng.choice([8, 32, 64, 256]))
        prop_base = int(rng.integers(0, 5000))
        bake = trial % 2 == 1
        cap = 4 * block_bytes
        trace, abrs = gen_graph_trace(g, prop_bytes=prop_bytes, block_bytes=block_bytes,
                                      prop_base=prop_base, bake_hints=bake, llc_capacity=cap)
        classify = (lambda address: flat_class(abrs, cap, address)) if bake else None
        got = [(r.address, r.pc_signature, r.is_write, r.reuse_hint, r.hint_valid) for r in trace]
        assert got == reference_graph_trace(g, prop_bytes, block_bytes, prop_base, classify), trial


def test_gen_graph_trace_requires_capacity_for_baked_hints():
    with pytest.raises(GraphError):
        gen_graph_trace(small_csr(), bake_hints=True)


def test_gen_graph_trace_rejects_a_capacity_below_one_byte_for_baked_hints():
    """A cache of no bytes has empty High and Moderate chunks, so every
    property access would bake as Low-Reuse; it is refused instead."""
    for capacity in (0, -1, -(1 << 20)):
        with pytest.raises(GraphError, match="llc_capacity of at least 1"):
            gen_graph_trace(small_csr(), bake_hints=True, llc_capacity=capacity)
    assert gen_graph_trace(small_csr(), llc_capacity=0)[1] == [(0, 24)]  # unread without hints


def test_gen_graph_trace_rejects_a_negative_prop_base():
    """A property array cannot start below address 0: the option is
    named, not left to numpy's out-of-bounds message."""
    for base in (-64, -1):
        with pytest.raises(GraphError, match="prop_base must be at least 0"):
            gen_graph_trace(small_csr(), prop_base=base)


def test_gen_graph_trace_rejects_sizes_below_one_byte():
    """A zero property size would send every gather to one address and a
    zero block size would divide by zero; neither gives a trace."""
    for prop_bytes, block_bytes in ((0, 64), (-8, 64), (8, 0), (8, -64)):
        with pytest.raises(GraphError, match="at least 1"):
            gen_graph_trace(small_csr(), prop_bytes=prop_bytes, block_bytes=block_bytes)


def test_gen_graph_trace_rejects_blocks_that_split_an_edge():
    """A block size that is not a power of two >= 8 (one no cache accepts)
    split an edge across blocks, and the edge blocks it spilled into went
    unread: 3-regular ranges of 24 bytes over 4-byte blocks gave 100
    records, not 110."""
    for block_bytes in (4, 2, 1, 12, 24, 96):
        with pytest.raises(GraphError, match="power of two >= 8"):
            gen_graph_trace(synth_uniform(10, 3, seed=1), block_bytes=block_bytes)


def test_gen_graph_trace_respects_prop_base_offset():
    g = small_csr()
    trace, abrs = gen_graph_trace(g, prop_base=4096)
    assert abrs == [(4096, 4096 + 24)]
    gathers = [r.address for r in trace if r.pc_signature == PC_GATHER]
    assert gathers == [4096 + 8, 4096 + 16, 4096 + 0, 4096 + 8]
