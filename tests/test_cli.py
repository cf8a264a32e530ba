"""Command line front end: argument parsing, subcommands, config files."""

import argparse
import contextlib
import io
import json
import os
import threading
import time
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cachelab import cli, engine, opt, policies
from cachelab import graphs as graphmod
from cachelab.cli import CliError, main, parse_abr, parse_pattern
from cachelab.engine import CacheGeometry, run_policy, simulate
from cachelab.graphs import GraphError
from cachelab.grasp import RegionMap
from cachelab.metrics import compare_reports
from cachelab.opt import opt_oracle
from cachelab.policies import BipPolicy, DuelPolicy, LruPolicy, make_policy
from cachelab.trace import PatternSpec, TraceError, generate_pattern, read_trace, write_trace


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_pattern_full_form():
    spec = parse_pattern("thrash:k=32,n=64")
    assert (spec.kind, spec.k, spec.n) == ("thrash", 32, 64)
    spec = parse_pattern("recency:k=8,n=4,base=0x1000,stride=128,pc=7")
    assert spec.base_address == 0x1000
    assert spec.stride == 128
    assert spec.pc_signature == 7
    assert parse_pattern("stream:k=5").n == 1
    # fields left out take PatternSpec's own defaults
    assert parse_pattern("thrash:k=3") == PatternSpec("thrash", 3)
    assert parse_pattern("recency:pc=7,k=3,base=0x40") == PatternSpec(
        "recency", 3, base_address=64, pc_signature=7)


def test_parse_pattern_rejects_garbage():
    for bad, message in (
        ("thrash", "pattern needs k=<count>"),
        ("thrash:n=4", "pattern needs k=<count>"),
        ("thrash:k=", "bad pattern field 'k='"),
        ("thrash:k=two", "bad pattern value 'k=two'"),
        ("thrash:q=1,k=2", "bad pattern field 'q=1'"),
        ("thrash:k=2,", "bad pattern field ''"),
        ("thrash:base_address=64,k=2", "bad pattern field 'base_address=64'"),
    ):
        with pytest.raises(CliError) as error:
            parse_pattern(bad)
        assert str(error.value) == message, bad
    with pytest.raises(ValueError):
        parse_pattern("wavy:k=3")


def test_parse_abr_accepts_decimal_and_hex():
    assert parse_abr("0:1024") == (0, 1024)
    assert parse_abr("0x100:0x2000") == (256, 8192)
    for bad in ("100", "a:b", "5-10"):
        with pytest.raises(CliError):
            parse_abr(bad)


def test_simulate_thrash_wider_than_the_cache_has_zero_hits(capsys):
    code, out, _ = run(
        capsys, "simulate", "--policy", "lru", "--gen", "thrash:k=32,n=64",
        "--ways", "16", "--sets", "1",
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("policy,accesses,hits,misses")
    fields = row.split(",")
    assert fields[0] == "lru"
    assert fields[1] == "2048"  # 32 blocks x 64 rounds
    assert fields[2] == "0"
    assert fields[3] == "2048"


def test_simulate_json_to_file(tmp_path, capsys):
    out_file = tmp_path / "r.json"
    code, out, _ = run(
        capsys, "simulate", "--policy", "srrip2", "--gen", "recency:k=4,n=8",
        "--sets", "1", "--ways", "8", "--format", "json", "--out", str(out_file),
    )
    assert code == 0
    assert out == ""
    data = json.loads(out_file.read_text())
    assert data["policy"] == "srrip2"
    assert data["hits"] + data["misses"] == data["accesses"] == 64


def test_simulate_reads_trace_files(tmp_path, capsys):
    trace_file = tmp_path / "t.bin"
    run(capsys, "gen-trace", "--pattern", "thrash:k=4,n=10", "--out", str(trace_file))
    code, out, _ = run(
        capsys, "simulate", "--policy", "lru", "--trace", str(trace_file),
        "--sets", "1", "--ways", "4",
    )
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[2] == "36"  # 40 accesses, 4 cold


def test_simulate_with_front_filter(capsys):
    code, out, _ = run(
        capsys, "simulate", "--policy", "lru", "--gen", "recency:k=4,n=8",
        "--sets", "1", "--ways", "8", "--filter", "1:8",
    )
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[1] == "4"  # only front misses remain


def test_filter_passes_front_geometry_errors_through(capsys):
    for spec, message in (
        ("3:8", "num_sets must be a power of two"),
        ("4:0", "ways must be >= 1"),
        ("4x8", "--filter must be SETS:WAYS"),
        ("four:8", "--filter must be SETS:WAYS"),
    ):
        code, _, err = run(
            capsys, "simulate", "--policy", "lru", "--gen", "thrash:k=4", "--filter", spec
        )
        assert code == 2
        assert err.strip() == "error: " + message, spec


def test_simulate_rejects_ambiguous_sources(tmp_path, capsys):
    trace_file = tmp_path / "t.bin"
    run(capsys, "gen-trace", "--pattern", "stream:k=2", "--out", str(trace_file))
    code, _, err = run(
        capsys, "simulate", "--policy", "lru", "--trace", str(trace_file),
        "--gen", "stream:k=2",
    )
    assert code == 2
    assert "exactly one" in err
    code, _, err = run(capsys, "simulate", "--policy", "lru")
    assert code == 2


def test_errors_are_one_line_unless_cachelab_debug_is_set(capsys, monkeypatch):
    argv = ("simulate", "--policy", "lru", "--trace", "missing.ctr", "--gen", "stream:k=2")
    monkeypatch.delenv("CACHELAB_DEBUG", raising=False)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: need exactly one of --trace or --gen"]
    monkeypatch.setenv("CACHELAB_DEBUG", "1")
    with pytest.raises(CliError, match="exactly one of --trace or --gen"):
        main(list(argv))
    assert capsys.readouterr().err == ""


def test_simulate_unknown_policy_is_a_clean_error(capsys):
    code, _, err = run(capsys, "simulate", "--policy", "mru", "--gen", "stream:k=2")
    assert code == 2
    assert err.startswith("error:")


def test_compare_inserts_the_baseline_and_reports_each_policy(capsys):
    code, out, _ = run(
        capsys, "compare", "--policies", "lip,opt", "--gen", "thrash:k=6,n=20",
        "--sets", "1", "--ways", "4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "policy,misses,eliminated_pct,coverage,accuracy"
    assert [l.split(",")[0] for l in lines[1:]] == ["lru", "lip", "opt"]
    lru_misses = int(lines[1].split(",")[1])
    opt_misses = int(lines[3].split(",")[1])
    assert opt_misses <= lru_misses


def test_policy_names_are_any_case_in_compare_and_for_opt(capsys):
    argv = ("compare", "--gen", "thrash:k=8,n=4", "--sets", "1", "--ways", "4",
            "--policies", "LRU,drrip3")
    for extra in ((), ("--baseline", "LRU")):
        code, out, err = run(capsys, *argv, *extra)
        assert (code, err) == (0, ""), extra
        assert [l.split(",")[0] for l in out.strip().splitlines()[1:]] == ["lru", "drrip3"]
    source = ("--gen", "thrash:k=8,n=4", "--sets", "1", "--ways", "4")
    code, out, err = run(capsys, "simulate", "--policy", "OPT", *source)
    assert (code, err) == (0, "")
    assert out == run(capsys, "simulate", "--policy", "opt", *source)[1]


def counted_runs(monkeypatch):
    """Count cache-loop runs per policy class: run_policy as simulate,
    the shadow duel and OPT each call it."""
    runs = Counter()

    def counted(policy, *args):
        runs[type(policy).__name__] += 1
        return run_policy(policy, *args)

    for module in (engine, policies, opt):
        monkeypatch.setattr(module, "run_policy", counted)
    return runs


def expected_compare(capsys, names, baseline, geometry, seed, trace):
    """compare's CSV and JSON output built from one report per name, each
    run on its own, in list order."""
    reports = [opt_oracle(trace, geometry, seed=seed) if n == "opt"
               else simulate(trace, geometry, make_policy(n), seed=seed) for n in names]
    rows = compare_reports(reports, baseline=baseline)
    args = argparse.Namespace(format="csv", out=None)
    cli._emit(args, cli.COMPARE_COLUMNS, rows)
    return capsys.readouterr().out, rows


def test_one_set_compare_runs_a_duels_static_side_once(capsys, monkeypatch):
    """On one set dip and drrip3 run LRU and SRRIP-3 in full as shadows,
    so the lru and srrip3 rows are those columns' reports: the table is
    that of separate runs, the inserted baseline and a repeated name
    included, with two fewer LRU runs and one fewer SRRIP run.  pin25 and
    grasp each still run their own SRRIP shadow.  On two sets no duel
    shadows and every name runs once, as before."""
    listed = ["lru", "bip", "dip", "srrip3", "brrip3", "drrip3", "pin25", "grasp", "opt", "lru"]
    names, pattern = ["lip"] + listed, "thrash:k=32,n=64"
    trace = generate_pattern(parse_pattern(pattern))
    for sets, shared in ((1, {"LruPolicy": 2, "SrripPolicy": 1}), (2, {})):
        geometry = CacheGeometry(sets, 16, 64)
        csv_out, rows = expected_compare(capsys, names, "lip", geometry, 5, trace)
        runs = counted_runs(monkeypatch)
        argv = ["compare", "--policies", ",".join(listed), "--baseline", "lip", "--gen", pattern,
                "--sets", str(sets), "--ways", "16", "--seed", "5"]
        assert run(capsys, *argv) == (0, csv_out, "")
        alone = Counter({"LipPolicy": 1, "BipPolicy": 1, "DipPolicy": 1, "BrripPolicy": 1,
                         "DrripPolicy": 1, "PinPolicy": 1, "GraspPolicy": 1, "OptPolicy": 1,
                         "LruPolicy": 2, "SrripPolicy": 1})  # every row run on its own
        if sets == 1:  # each duel's two shadows, less the rows they serve
            alone.update({"LruPolicy": 1, "BipPolicy": 1, "SrripPolicy": 3, "BrripPolicy": 3})
        assert runs == alone - Counter(shared)
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, json.loads(out), err) == (0, rows, "")
        monkeypatch.undo()


class DeadLoggingLru(LruPolicy):
    """LRU that logs every victim as predicted dead and draws nothing."""

    name = "dead-lru"

    def reset(self, geometry, rng, trace, tags):
        super().reset(geometry, rng, trace, tags)
        self.dead_log = []

    def choose_victim(self, view):
        way = super().choose_victim(view)
        self.dead_log.append((view.access_index, view.set_index, view.tags[way]))
        return way


class BipFirstDuel(DuelPolicy, LruPolicy):
    name = "bip-first"

    def __init__(self):
        self.a, self.b = BipPolicy(), LruPolicy()


class DeadFirstDuel(DuelPolicy, LruPolicy):
    name = "dead-first"

    def __init__(self):
        self.a, self.b = DeadLoggingLru(), BipPolicy()


def test_a_static_side_that_drew_or_logged_a_dead_eviction_is_run_again(capsys, monkeypatch):
    """A shadow side a that draws from the forked generator, or logs a
    dead eviction, keeps no column, so its own row is run."""
    trace, geometry = generate_pattern(parse_pattern("thrash:k=32,n=64")), CacheGeometry(1, 16, 64)
    for duel, side in ((BipFirstDuel, BipPolicy), (DeadFirstDuel, DeadLoggingLru)):
        policy = duel()
        simulate(trace, geometry, policy, seed=2)
        assert policy.kept is None
        monkeypatch.setitem(policies._CONSTRUCTORS, duel.name, duel)
        monkeypatch.setitem(policies._CONSTRUCTORS, side.name, side)
        names = [duel.name, side.name]
        csv_out = expected_compare(capsys, names, side.name, geometry, 2, trace)[0]
        runs = counted_runs(monkeypatch)
        assert run(capsys, "compare", "--policies", ",".join(names), "--baseline", side.name,
                   "--gen", "thrash:k=32,n=64", "--sets", "1", "--ways", "16",
                   "--seed", "2") == (0, csv_out, "")
        assert runs[side.__name__] == 2  # its shadow and its row
        monkeypatch.undo()
    assert "dead-lru,2048,0.0000,1.000000," in csv_out  # every eviction predicted dead


def test_compare_checks_every_name_before_it_runs_a_policy(capsys, monkeypatch):
    runs = counted_runs(monkeypatch)
    code, out, err = run(capsys, "compare", "--policies", "lru,dip,srrip3,drrip3,typo",
                         "--gen", "thrash:k=32,n=64", "--sets", "1", "--ways", "16")
    assert (code, out, err) == (2, "", "error: unknown policy name: 'typo'\n")
    assert not runs


def test_compare_rows_equal_tabled_reports_that_count_hint_classes(tmp_path, capsys,
                                                                    monkeypatch):
    """Only an output that prints hint-class counts computes them:
    simulate's JSON report, not its CSV row and not compare's rows,
    which still equal those of reports that did count them."""
    trace, abrs = graphmod.gen_graph_trace(graphmod.synth_powerlaw(2000, 8, seed=3))
    path = tmp_path / "g.ctr"
    write_trace(trace, path)
    geometry = CacheGeometry(16, 8, 64)
    names = ["lru", "drrip3", "leeway-lru", "grasp"]
    source = ["--trace", str(path), "--sets", "16", "--ways", "8", "--abr", "%d:%d" % abrs[0]]
    calls = []

    class Counted(RegionMap):  # the CLI's labeller; GRASP's own region map stays plain
        def classify(self, addresses):
            calls.append(addresses)
            return super().classify(addresses)

    monkeypatch.setattr(cli, "RegionMap", Counted)
    for argv, classified in ((["simulate", "--policy", "grasp"], False),
                             (["simulate", "--policy", "grasp", "--format", "json"], True)):
        del calls[:]
        assert run(capsys, *argv, *source)[0] == 0
        assert len(calls) == classified  # once per run, or not at all
    del calls[:]
    code, out, _ = run(capsys, "compare", *source, "--policies", ",".join(names), "--seed", "3",
                       "--format", "json")
    assert code == 0
    assert not calls
    monkeypatch.undo()
    classify = RegionMap(abrs, geometry.capacity_bytes).classify
    reports = [simulate(read_trace(path), geometry, make_policy(n, abrs=abrs), seed=3,
                        classify=classify) for n in names]
    assert all(sum(r.hint_class_accesses.values()) == r.accesses for r in reports)
    assert json.loads(out) == compare_reports(reports, baseline="lru")


def test_gen_trace_writes_the_binary_format(tmp_path, capsys):
    out_file = tmp_path / "p.bin"
    code, _, _ = run(capsys, "gen-trace", "--pattern", "recency:k=3,n=2", "--out", str(out_file))
    assert code == 0
    assert out_file.stat().st_size == 16 + 16 * 12
    assert [r.address for r in read_trace(out_file)][:3] == [0, 64, 128]


def test_gen_trace_refuses_graph_only_flags_with_a_pattern(tmp_path, capsys):
    """Hint baking and region bounds come from a graph: with --pattern,
    --bake-hints, --llc-capacity and --abr-out are refused by name, not
    silently ignored, and nothing is written."""
    out_file, abr_file = tmp_path / "p.bin", tmp_path / "p.abr"
    argv = ["gen-trace", "--pattern", "thrash:k=4,n=2", "--out", str(out_file)]
    for extra in (["--bake-hints"], ["--llc-capacity", "0"], ["--abr-out", str(abr_file)],
                  ["--bake-hints", "--llc-capacity", "0", "--abr-out", str(abr_file)]):
        assert run(capsys, *argv, *extra) == (
            2, "", "error: --bake-hints, --llc-capacity and --abr-out need --graph\n")
        assert not out_file.exists() and not abr_file.exists()


def test_gen_trace_from_graph_reports_the_hinted_region(tmp_path, capsys):
    csr = tmp_path / "g.csr"
    graphmod.write_csr(graphmod.synth_uniform(64, 3, seed=1), csr)
    out_file = tmp_path / "g.bin"
    code, out, _ = run(capsys, "gen-trace", "--graph", str(csr), "--out", str(out_file))
    assert code == 0
    assert out.strip() == "abr 0:512"  # 64 vertices x 8 bytes
    trace = read_trace(out_file)
    assert len(trace) > 64 * 4

    abr_file = tmp_path / "g.abr"
    code, out, _ = run(
        capsys, "gen-trace", "--graph", str(csr), "--out", str(out_file),
        "--abr-out", str(abr_file),
    )
    assert code == 0
    assert out == ""
    assert abr_file.read_text().strip() == "0:512"


def test_gen_trace_baked_hints_round_trip(tmp_path, capsys):
    csr = tmp_path / "g.csr"
    graphmod.write_csr(graphmod.synth_uniform(512, 3, seed=1), csr)
    out_file = tmp_path / "h.bin"
    code, _, _ = run(
        capsys, "gen-trace", "--graph", str(csr), "--out", str(out_file),
        "--bake-hints", "--llc-capacity", "1024",
    )
    assert code == 0
    trace = read_trace(out_file)
    assert all(r.hint_valid for r in trace)


def test_reorder_edge_list_to_csr_with_map(tmp_path, capsys):
    edges = tmp_path / "g.txt"
    edges.write_text("".join("%d %d\n" % (i % 7, (i + 1) % 16) for i in range(64)))
    out_csr = tmp_path / "r.csr"
    map_file = tmp_path / "r.map"
    code, _, _ = run(
        capsys, "reorder", str(edges), "--kind", "dbg",
        "--out", str(out_csr), "--map", str(map_file),
    )
    assert code == 0
    original = graphmod.load_edge_list(edges)
    reordered = graphmod.read_csr(out_csr)
    remap = graphmod.read_remap(map_file)
    assert reordered.vertex_count == original.vertex_count
    assert sorted(remap) == list(range(original.vertex_count))
    assert sorted(reordered.reuse_degrees()) == sorted(original.reuse_degrees())


def test_reorder_accepts_csr_input_and_rcb_kinds(tmp_path, capsys):
    csr = tmp_path / "g.csr"
    graphmod.write_csr(graphmod.synth_uniform(64, 3, seed=2), csr)
    out_csr = tmp_path / "r.csr"
    code, _, _ = run(capsys, "reorder", str(csr), "--kind", "rcb2", "--out", str(out_csr))
    assert code == 0
    assert graphmod.read_csr(out_csr).vertex_count == 64
    code, _, err = run(capsys, "reorder", str(csr), "--kind", "rcbx", "--out", str(out_csr))
    assert code == 2
    code, _, err = run(capsys, "reorder", str(csr), "--kind", "spiral", "--out", str(out_csr))
    assert code == 2


def test_opt_command_with_and_without_bypass(capsys):
    base = ("opt", "--gen", "thrash:k=3,n=2", "--sets", "1", "--ways", "2")
    code, out, _ = run(capsys, *base)
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[0] == "opt"
    assert out.strip().splitlines()[1].split(",")[3] == "4"
    code, out, _ = run(capsys, *base, "--bypass")
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[0] == "opt-bypass"


def test_stats_reuse_distance_histogram(capsys):
    code, out, _ = run(
        capsys, "stats", "--gen", "thrash:k=4,n=3", "--sets", "1", "--ways", "8",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "distance,count"
    assert "4,8" in lines
    assert "inf,4" in lines
    code, out, _ = run(
        capsys, "stats", "--gen", "thrash:k=4,n=3", "--sets", "1", "--ways", "8",
        "--cumulative",
    )
    lines = out.strip().splitlines()
    assert lines[0] == "distance,fraction"
    assert lines[-1] == "inf,1.000000"


def test_stats_graph_skew_metrics(tmp_path, capsys):
    csr = tmp_path / "g.csr"
    graphmod.write_csr(graphmod.synth_uniform(64, 3, seed=1), csr)
    code, out, _ = run(capsys, "stats", "--graph", str(csr))
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "avg_hot_per_block,hot_edge_coverage,hot_footprint_bytes,hot_fraction"
    assert row.split(",")[3] == "1"  # uniform graph: every vertex is hot
    code, _, err = run(capsys, "stats", "--graph", str(csr), "--gen", "stream:k=1")
    assert code == 2


def test_config_file_sets_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sets": 1, "ways": 16, "policy": "lru",
                               "gen": "thrash:k=32,n=64"}))
    code, out, _ = run(capsys, "simulate", "--config", str(cfg))
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[2] == "0"
    # an explicit flag beats the config value
    code, out, _ = run(capsys, "simulate", "--config", str(cfg), "--ways", "32")
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[2] == "2016"  # 32 blocks now fit


def test_config_file_must_be_a_flat_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code, _, err = run(capsys, "simulate", "--config", str(cfg), "--policy", "lru",
                       "--gen", "stream:k=1")
    assert code == 2
    assert "flat JSON" in err
    code, _, err = run(capsys, "simulate", "--config", str(tmp_path / "missing.json"),
                       "--policy", "lru", "--gen", "stream:k=1")
    assert code == 2


def test_config_keys_must_name_flags_of_the_subcommand(tmp_path, capsys):
    """A misspelt flag must not run on the default, and a key such as
    "fn" must not reach the parser's own fields."""
    for bad, named in (({"way": 4}, "way"), ({"fn": 1, "bypass": True}, "bypass, fn")):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(bad, sets=1)))
        code, out, err = run(capsys, "simulate", "--config", str(cfg), "--policy", "lru",
                             "--gen", "stream:k=1")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: no simulate flag for config keys: " + named]
    # the same key is accepted where the subcommand has that flag
    cfg.write_text(json.dumps({"bypass": True}))
    code, _, err = run(capsys, "opt", "--config", str(cfg), "--gen", "stream:k=1")
    assert (code, err) == (0, "")


def test_config_list_only_for_a_repeatable_flag(tmp_path, capsys):
    """A JSON list is the flag repeated, so it is taken only for --abr:
    a list for a one-value flag is refused with one error: line naming
    the key, where argparse would keep its last item."""
    cfg = tmp_path / "cfg.json"
    base = ["compare", "--gen", "thrash:k=8,n=4", "--sets", "1", "--ways", "4"]
    for key, value in (("policies", ["srrip2", "dip"]), ("seed", [1, 2]), ("seed", [1])):
        cfg.write_text(json.dumps({key: value}))
        extra = [] if key == "policies" else ["--policies", "bip"]
        assert run(capsys, *base, *extra, "--config", str(cfg)) == (
            2, "", "error: config key %s takes one value, not a list\n" % key)
    cfg.write_text(json.dumps({"abr": ["0:64", "128:256"], "policies": "grasp"}))
    assert run(capsys, *base, "--config", str(cfg)) == run(
        capsys, *base, "--policies", "grasp", "--abr", "0:64", "--abr", "128:256")


def test_config_values_go_through_their_flags_checks(tmp_path, capsys):
    """A config value is taken exactly as the same value written as its
    flag: {"format": "xml"} and {"ways": 4.5} fail as --format xml and
    --ways 4.5 do, with one error: line and exit code 2."""
    cfg = tmp_path / "cfg.json"
    base = ["simulate", "--policy", "lru", "--gen", "stream:k=1"]
    for key, value in (("format", "xml"), ("ways", 4.5), ("sets", True)):
        cfg.write_text(json.dumps({key: value}))
        errors = []
        for extra in (["--config", str(cfg)], ["--" + key, json.dumps(value).strip('"')]):
            with pytest.raises(SystemExit) as exit_:
                main(base + extra)
            assert exit_.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append([line for line in captured.err.splitlines() if "error:" in line])
        assert len(errors[0]) == 1 and errors[0] == errors[1], errors
    # a string goes through the flag's type, a switch takes true or false
    cfg.write_text(json.dumps({"sets": "1", "ways": "32", "policy": "lru",
                               "gen": "thrash:k=32,n=64"}))
    code, out, _ = run(capsys, "simulate", "--config", str(cfg))
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[2] == "2016"
    for switch, policy in ((True, "opt-bypass"), (False, "opt")):
        cfg.write_text(json.dumps({"bypass": switch}))
        code, out, _ = run(capsys, "opt", "--config", str(cfg), "--gen", "thrash:k=3,n=3",
                           "--sets", "1", "--ways", "2")
        assert code == 0 and out.splitlines()[1].split(",")[0] == policy
    cfg.write_text(json.dumps({"bypass": "yes"}))
    with pytest.raises(SystemExit) as exit_:
        main(["opt", "--config", str(cfg), "--gen", "stream:k=1"])
    assert exit_.value.code == 2


def test_a_cache_of_2_to_the_40_sets_holds_state_for_the_sets_touched(capsys):
    """At --sets 2**40 nothing is sized by the set count: simulate,
    compare (leeway-lru and opt included), opt --bypass and stats run
    a 4-block loop whose blocks sit 2**30 sets apart, and each block
    misses once; a front filter of 2**40 sets keeps just those misses."""
    source = ("--gen", "thrash:k=4,n=3,stride=%d" % (64 << 30), "--sets", str(1 << 40),
              "--ways", "2")
    for argv, hits in ((("simulate", "--policy", "leeway-lru"), 8),
                       (("simulate", "--policy", "drrip3"), 8), (("opt", "--bypass"), 8),
                       (("simulate", "--policy", "lru", "--filter", "%d:1" % (1 << 40)), 0)):
        code, out, err = run(capsys, *argv, *source, "--format", "json")
        assert (code, err) == (0, "")
        assert (json.loads(out)["misses"], json.loads(out)["hits"]) == (4, hits), argv
    code, out, err = run(capsys, "compare", "--policies", "leeway-lru,drrip3,opt", *source)
    assert (code, err) == (0, "")
    assert [line.split(",")[:2] for line in out.splitlines()[1:]] == [
        ["lru", "4"], ["leeway-lru", "4"], ["drrip3", "4"], ["opt", "4"]]
    assert run(capsys, "stats", *source) == (0, "distance,count\n1,8\ninf,4\n", "")


def test_simulate_with_hinted_regions_reports_per_class_stats(capsys):
    code, out, _ = run(
        capsys, "simulate", "--policy", "grasp", "--gen", "thrash:k=64,n=4",
        "--sets", "4", "--ways", "4", "--abr", "0:2048", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert "hint_class_accesses" in data
    assert sum(data["hint_class_accesses"].values()) == data["accesses"]


SIMULATE_HEADER = "policy,accesses,hits,misses,bypasses,evictions,coverage,accuracy," \
    "miss_per_kilo_access,mpki\n"
RECENCY = ("--gen", "recency:k=40,n=6,stride=128,pc=9", "--sets", "4", "--ways", "4")
THRASH = ("--gen", "thrash:k=24,n=16", "--sets", "1", "--ways", "16")


@pytest.mark.parametrize("argv, expected", [
    (("simulate", "--policy", "leeway-lru") + RECENCY, SIMULATE_HEADER
     + "leeway-lru,480,87,393,381,4,0.250000,1.000000,818.750000,818.750000\n"),
    (("simulate", "--policy", "drrip3") + THRASH, SIMULATE_HEADER
     + "drrip3,384,223,161,0,145,0.000000,0.000000,419.270833,419.270833\n"),
    (("opt", "--bypass") + THRASH, SIMULATE_HEADER
     + "opt-bypass,384,240,144,120,8,0.000000,0.000000,375.000000,375.000000\n"),
    (("compare", "--policies", "lip,leeway-lru,drrip3,opt") + RECENCY,
     "policy,misses,eliminated_pct,coverage,accuracy\n"
     "lru,392,0.0000,0.000000,0.000000\n"
     "lip,414,-5.6122,0.000000,0.000000\n"
     "leeway-lru,393,-0.2551,0.250000,1.000000\n"
     "drrip3,392,0.0000,0.000000,0.000000\n"
     "opt,392,0.0000,0.000000,0.000000\n"),
    (("compare", "--policies", "lip,drrip3,opt") + THRASH,
     "policy,misses,eliminated_pct,coverage,accuracy\n"
     "lru,384,0.0000,0.000000,0.000000\n"
     "lip,159,58.5938,0.000000,0.000000\n"
     "drrip3,161,58.0729,0.000000,0.000000\n"
     "opt,144,62.5000,0.000000,0.000000\n"),
    (("stats", "--gen", "recency:k=6,n=2", "--sets", "2", "--ways", "8"),
     "distance,count\n1,6\n2,6\n3,6\ninf,6\n"),
    (("stats", "--gen", "recency:k=6,n=2", "--sets", "2", "--ways", "8", "--cumulative"),
     "distance,fraction\n1,0.250000\n2,0.500000\n3,0.750000\ninf,1.000000\n"),
    (("stats", "--gen", "thrash:k=24,n=2", "--sets", "2", "--ways", "8"),
     "distance,count\n12,24\ninf,24\n"),
])
def test_csv_tables_keep_their_bytes(tmp_path, capsys, argv, expected):
    """Golden CSV output, on stdout and in an --out file alike."""
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, expected, "")
    out_file = tmp_path / "table.csv"
    assert run(capsys, *argv, "--out", str(out_file))[:2] == (0, "")
    assert out_file.read_bytes() == expected.encode()


def test_stats_graph_tables_keep_their_bytes(tmp_path, capsys):
    csr = tmp_path / "g.csr"
    graphmod.write_csr(graphmod.synth_powerlaw(300, 4, seed=5), csr)
    code, out, _ = run(capsys, "stats", "--graph", str(csr))
    assert (code, out) == (0, "avg_hot_per_block,hot_edge_coverage,hot_footprint_bytes,"
                              "hot_fraction\n2.27273,0.746998,600,0.25\n")
    code, out, _ = run(capsys, "stats", "--graph", str(csr), "--format", "json")
    assert (code, out) == (0, '{\n  "avg_hot_per_block": 2.272727272727273,\n'
                              '  "hot_edge_coverage": 0.7469982847341338,\n'
                              '  "hot_footprint_bytes": 600,\n  "hot_fraction": 0.25\n}\n')


def test_stats_json_on_a_trace_names_first_touches_inf(capsys):
    source = ("stats", "--gen", "recency:k=6,n=2", "--sets", "2", "--ways", "8",
              "--format", "json")
    code, out, _ = run(capsys, *source)
    assert code == 0
    assert "Infinity" not in out
    assert json.loads(out) == [{"distance": 1, "count": 6}, {"distance": 2, "count": 6},
                               {"distance": 3, "count": 6}, {"distance": "inf", "count": 6}]
    code, out, _ = run(capsys, *source, "--cumulative")
    assert json.loads(out)[-1] == {"distance": "inf", "fraction": 1.0}


@contextlib.contextmanager
def piped(data, first):
    """A /dev/fd path reading data from a pipe: the first `first` bytes
    in one write, the rest in a second write a little later."""
    r, w = os.pipe()

    def feed():
        try:
            os.write(w, data[:first])
            time.sleep(0.05)
            os.write(w, data[first:])  # far below the pipe's buffer, so this cannot block
        finally:
            os.close(w)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        yield "/dev/fd/%d" % r
    finally:
        writer.join(timeout=10)
        os.close(r)
    assert not writer.is_alive()


@pytest.mark.parametrize("first", [1, 4, 1 << 16])
def test_reorder_and_stats_read_graphs_from_pipes(tmp_path, capsys, first):
    """A piped CSR file or edge list gives the bytes its file gives, even
    when the pipe delivers fewer than four bytes first."""
    edges = tmp_path / "g.txt"
    edges.write_text("".join("%d %d\n" % (i % 7, (i + 3) % 16) for i in range(40)))
    csr = tmp_path / "g.csr"
    graphmod.write_csr(graphmod.synth_uniform(64, 3, seed=2), csr)
    for source in (edges, csr):
        want, got = tmp_path / "want.csr", tmp_path / "got.csr"
        argv = ("reorder", "--kind", "dbg", "--out")
        assert run(capsys, *argv, str(want), str(source))[0] == 0
        with piped(source.read_bytes(), first) as path:
            code, _, err = run(capsys, *argv, str(got), path)
        assert (code, err) == (0, "")
        assert got.read_bytes() == want.read_bytes(), source
        expected = run(capsys, "stats", "--graph", str(source))
        with piped(source.read_bytes(), first) as path:
            assert run(capsys, "stats", "--graph", path) == expected


# zero, negative and large values; small ones stay at or under 2**10 and
# large ones at or over 2**62, so a size made of two of them (an rcb run,
# a pattern's address span) is small or too large to allocate at all
VALUES = st.one_of(st.sampled_from([0, 1, 2, 3, 8, 64, 1024]), st.integers(2**62, 2**70),
                   st.sampled_from([-1, -64]), st.integers(-(2**70), -1))
SETS = st.one_of(st.just(1 << 16), VALUES.filter(lambda v: v <= 1 << 16))
PATTERN = {"k": 4, "n": 2, "stride": 64, "base": 0, "pc": 0}
GEOMETRY = {"sets": 4, "ways": 4, "block": 64}
COMMANDS = [  # (argv head, integer flags at working values), rcb's N as "kind"
    (["simulate"], dict(GEOMETRY, seed=1, **PATTERN)),
    (["opt"], dict(GEOMETRY, seed=1, **PATTERN)),
    (["stats"], dict(GEOMETRY, **PATTERN)),
    (["gen-trace"], dict(PATTERN)),
    (["gen-trace", "--bake-hints"], {"prop-bytes": 8, "prop-base": 0, "block": 64,
                                     "llc-capacity": 4096}),
    (["reorder"], {"kind": 2, "prop-bytes": 8, "block": 64, "seed": 1}),
    (["stats"], {"prop-bytes": 8, "block": 64}),
]


@st.composite
def integer_flag_argvs(draw, graph, out):
    """A command with one or two of its integer flags or pattern fields
    drawn from VALUES (--sets at most 2**16) and the rest at working
    values; a pattern's k * n stays at most 256."""
    head, flags = draw(st.sampled_from(COMMANDS))
    for name in draw(st.sets(st.sampled_from(sorted(flags)), min_size=1, max_size=2)):
        flags = dict(flags, **{name: draw(SETS if name == "sets" else VALUES)})
    if "k" in flags:
        assume(flags["k"] < 1 or flags["n"] < 1 or flags["k"] * flags["n"] <= 256)
        pattern = "%s:" % draw(st.sampled_from(["thrash", "recency", "stream"])) + ",".join(
            "%s=%d" % (key, flags.pop(key)) for key in PATTERN)
        head = head + ["--gen" if head != ["gen-trace"] else "--pattern", pattern]
    if head[0] == "reorder":
        head = head + [graph, "--kind", "rcb%d" % flags.pop("kind")]
    elif "prop-bytes" in flags:
        head = head + ["--graph", graph]
    if head[0] == "simulate":
        head = head + ["--policy", draw(st.sampled_from(["lru", "leeway-lru", "pin25", "ship-mem"]))]
    return head + ["--out", out] + ["--%s=%d" % item for item in sorted(flags.items())]


def test_integer_flags_run_or_fail_by_name(tmp_path, monkeypatch):
    """Zero, negative and large values of every integer flag, over a
    3-vertex graph and short patterns, either run (exit 0) or exit 2 with
    one `error:` line; under CACHELAB_DEBUG=1 the error is the program's
    own ValueError, TraceError or GraphError, never numpy's OverflowError
    or an IndexError or TypeError from an unchecked size."""
    graph, out = str(tmp_path / "g.csr"), str(tmp_path / "out")
    graphmod.write_csr(graphmod.CsrGraph([0, 2, 3, 4], [1, 2, 0, 1]), graph)

    @example(["gen-trace", "--graph", graph, "--out", out, "--prop-base=-64"])
    @example(["reorder", graph, "--out", out, "--kind", "rcb-1"])
    @example(["gen-trace", "--graph", graph, "--out", out, "--bake-hints", "--llc-capacity=0"])
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(integer_flag_argvs(graph, out))
    def check(argv):
        monkeypatch.delenv("CACHELAB_DEBUG", raising=False)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        if code == 0:
            return
        assert code == 2 and len(stderr.getvalue().splitlines()) == 1, (argv, stderr.getvalue())
        assert stderr.getvalue().startswith("error: "), argv
        monkeypatch.setenv("CACHELAB_DEBUG", "1")
        with pytest.raises(Exception) as error, contextlib.redirect_stdout(io.StringIO()):
            main(argv)
        assert isinstance(error.value, (ValueError, TraceError, GraphError)), (argv, error.value)
        assert not isinstance(error.value, (OverflowError, IndexError, TypeError)), argv

    check()
