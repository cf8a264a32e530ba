"""Command line front end.

Subcommands: simulate, compare, gen-trace, reorder, opt, stats.
A flat JSON config file (--config file.json) pre-sets flags of the
subcommand, and nothing else; explicit flags win.  Program counters are
the trace's 14-bit signatures, read as they are; `trace.fold_pc` folds a
wider one in the library.
Failures print one `error:` line (CACHELAB_DEBUG=1: the traceback).
"""

import argparse
import json
import math
import os
import sys

from . import graphs as graphmod
from . import metrics
from .engine import CacheGeometry, _report, filter_trace, simulate
from .grasp import RegionMap
from .opt import opt_oracle
from .policies import POLICY_NAMES, DuelPolicy, make_policy
from .trace import PatternSpec, generate_pattern, read_trace, write_trace


class CliError(ValueError):
    pass


_PATTERN_FIELDS = {"k": "k", "n": "n", "base": "base_address", "stride": "stride",
                   "pc": "pc_signature"}


def parse_pattern(text):
    """'thrash:k=32,n=64[,base=0,stride=64,pc=0]' -> PatternSpec."""
    kind, _, rest = text.partition(":")
    fields = {}
    for item in rest.split(",") if rest else ():
        key, _, value = item.partition("=")
        if key not in _PATTERN_FIELDS or not value:
            raise CliError("bad pattern field %r" % item)
        try:
            fields[_PATTERN_FIELDS[key]] = int(value, 0)
        except ValueError:
            raise CliError("bad pattern value %r" % item) from None
    if "k" not in fields:
        raise CliError("pattern needs k=<count>")
    return PatternSpec(kind, **fields)


def parse_abr(text):
    start, sep, end = text.partition(":")
    if not sep:
        raise CliError("region must be start:end")
    try:
        return (int(start, 0), int(end, 0))
    except ValueError:
        raise CliError("region bounds must be integers") from None


def _add_geometry(p):
    p.add_argument("--sets", type=int, default=64, help="number of sets (power of two)")
    p.add_argument("--ways", type=int, default=16, help="associativity")
    p.add_argument("--block", type=int, default=64, help="block size in bytes")


def _add_source(p):
    p.add_argument("--trace", help="binary trace file")
    p.add_argument("--gen", help="synthetic pattern, e.g. thrash:k=32,n=64")
    p.add_argument(
        "--filter",
        metavar="SETS:WAYS",
        help="drop accesses hitting a small LRU front cache first",
    )


def _add_output(p):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="write output here instead of stdout")


def _load_source(args):
    if bool(args.trace) == bool(args.gen):
        raise CliError("need exactly one of --trace or --gen")
    trace = read_trace(args.trace) if args.trace else generate_pattern(parse_pattern(args.gen))
    if args.filter:
        fsets, _, fways = args.filter.partition(":")
        try:
            fsets, fways = int(fsets), int(fways)
        except ValueError:
            raise CliError("--filter must be SETS:WAYS") from None
        trace = filter_trace(trace, fsets, fways, args.block)
    return trace


def _geometry(args):
    return CacheGeometry(args.sets, args.ways, args.block)


# each CLI table's columns, [(name, %-format)], read from its rows' dicts
REPORT_COLUMNS = [("policy", "%s"), ("accesses", "%d"), ("hits", "%d"), ("misses", "%d"),
                  ("bypasses", "%d"), ("evictions", "%d"), ("coverage", "%.6f"),
                  ("accuracy", "%.6f"), ("miss_per_kilo_access", "%.6f"), ("mpki", "%.6f")]
COMPARE_COLUMNS = [("policy", "%s"), ("misses", "%d"), ("eliminated_pct", "%.4f"),
                   ("coverage", "%.6f"), ("accuracy", "%.6f")]


def _emit(args, columns, rows, document=None):
    """Write rows (dicts) as CSV under columns or, with --format json,
    document (by default the rows) as JSON, to --out or stdout."""
    if args.format == "json":
        text = json.dumps(rows if document is None else document, sort_keys=True, indent=2)
    else:
        text = "\n".join([",".join(name for name, _ in columns)]
                         + [",".join(fmt % row[name] for name, fmt in columns) for row in rows])
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _emit_report(report, args):
    d = report.to_dict()
    return _emit(args, REPORT_COLUMNS, [d], d)


def _run_policy(name, trace, geometry, args, abrs, by_class=False):
    """by_class: count accesses and hits per hint class, for an output
    that prints them."""
    if name == "opt":
        return opt_oracle(trace, geometry, allow_bypass=getattr(args, "bypass", False),
                          seed=args.seed)
    policy = make_policy(name, abrs=abrs)
    classify = RegionMap(abrs, geometry.capacity_bytes).classify if abrs and by_class else None
    return simulate(trace, geometry, policy, seed=args.seed, classify=classify)


def cmd_simulate(args):
    if not args.policy:
        raise CliError("--policy is required (flag or config)")
    trace = _load_source(args)
    geometry = _geometry(args)
    abrs = [parse_abr(a) for a in args.abr or []]
    return _emit_report(_run_policy(args.policy.lower(), trace, geometry, args, abrs,
                                    by_class=args.format == "json"), args)


def cmd_compare(args):
    if not args.policies:
        raise CliError("--policies is required (flag or config)")
    trace = _load_source(args)
    geometry = _geometry(args)
    abrs = [parse_abr(a) for a in args.abr or []]
    names = [n.strip().lower() for n in args.policies.split(",") if n.strip()]
    if not names:
        raise CliError("--policies needs at least one name")
    baseline = args.baseline.lower()
    if baseline not in names:
        names.insert(0, baseline)
    policies = [None if n == "opt" else make_policy(n, abrs=abrs) for n in names]  # all checked
    # duels run first, and the rows of the static side a one-set duel ran
    # in full (`kept`) are built from that column, which goes with the duel
    reports = [None] * len(names)
    for i in sorted(range(len(names)), key=lambda i: not isinstance(policies[i], DuelPolicy)):
        policy, policies[i] = policies[i], None  # each policy dropped once its report is built
        if reports[i] is None:
            reports[i] = (_run_policy("opt", trace, geometry, args, abrs) if policy is None
                          else simulate(trace, geometry, policy, seed=args.seed))
        kept = getattr(policy, "kept", None)
        for j, row in enumerate(policies if kept is not None else ()):
            if type(row) is type(policy.a) and row.name == policy.a.name:
                reports[j] = _report(row, geometry, args.seed, trace, kept)
                policies[j] = None
    return _emit(args, COMPARE_COLUMNS, metrics.compare_reports(reports, baseline=baseline))


def cmd_gen_trace(args):
    if not args.out:
        raise CliError("--out is required (flag or config)")
    if bool(args.pattern) == bool(args.graph):
        raise CliError("need exactly one of --pattern or --graph")
    if args.pattern:
        if args.bake_hints or args.llc_capacity is not None or args.abr_out is not None:
            raise CliError("--bake-hints, --llc-capacity and --abr-out need --graph")
        trace = generate_pattern(parse_pattern(args.pattern))
        write_trace(trace, args.out)
        return 0
    graph = graphmod.read_csr(args.graph)
    trace, abrs = graphmod.gen_graph_trace(
        graph,
        prop_bytes=args.prop_bytes,
        block_bytes=args.block,
        prop_base=args.prop_base,
        bake_hints=args.bake_hints,
        llc_capacity=args.llc_capacity,
    )
    write_trace(trace, args.out)
    lines = ["%d:%d" % bounds for bounds in abrs]
    if args.abr_out:
        with open(args.abr_out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print("abr %s" % line)
    return 0


def cmd_reorder(args):
    if not args.kind or not args.out:
        raise CliError("--kind and --out are required (flag or config)")
    graph = graphmod.load_graph(args.input, args.direction)
    kind = args.kind
    if kind == "rv":
        remap = graphmod.random_reorder(graph, 0, seed=args.seed)
    elif kind.startswith("rcb"):
        try:
            blocks = int(kind[3:])
        except ValueError:
            raise CliError("rcb kind needs a block count, e.g. rcb4") from None
        remap = graphmod.random_reorder(
            graph, blocks, seed=args.seed, prop_bytes=args.prop_bytes, block_bytes=args.block
        )
    else:  # dbg, sort, hubsort, hubcluster; family_reorder rejects the rest
        remap = graphmod.family_reorder(graph, kind)
    reordered = graphmod.apply_remap(graph, remap)
    graphmod.write_csr(reordered, args.out)
    if args.map:
        graphmod.write_remap(remap, args.map)
    return 0


def cmd_opt(args):
    return _emit_report(_run_policy("opt", _load_source(args), _geometry(args), args, []), args)


def cmd_stats(args):
    if bool(args.graph) == bool(args.trace or args.gen):
        raise CliError("need --graph or a trace source")
    if args.graph:
        graph = graphmod.load_graph(args.graph, args.direction)
        m = graphmod.skew_metrics(graph, prop_bytes=args.prop_bytes, block_bytes=args.block)
        return _emit(args, [(k, "%.6g") for k in sorted(m)], [m], m)
    hist = metrics.reuse_distance_distribution(_load_source(args), _geometry(args))
    value = ("fraction", "%.6f") if args.cumulative else ("count", "%d")
    rows = [{"distance": "inf" if d == math.inf else d, value[0]: v}
            for d, v in metrics.histogram_rows(hist, cumulative=args.cumulative)]
    return _emit(args, [("distance", "%s"), value], rows)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cachelab", description="trace-driven cache replacement laboratory"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    registry = {}

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="flat JSON file pre-setting these flags")
        registry[name] = p
        return p

    p = add("simulate", cmd_simulate, help="run one policy over a trace")
    _add_source(p)
    _add_geometry(p)
    _add_output(p)
    p.add_argument("--policy", help=", ".join(POLICY_NAMES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--abr", action="append", help="hinted region start:end (repeatable)")

    p = add("compare", cmd_compare, help="miss table for several policies")
    _add_source(p)
    _add_geometry(p)
    _add_output(p)
    p.add_argument("--policies", help="comma-separated policy names")
    p.add_argument("--baseline", default="lru")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--abr", action="append")

    p = add("gen-trace", cmd_gen_trace, help="write a synthetic or graph trace")
    p.add_argument("--pattern", help="e.g. recency:k=8,n=4")
    p.add_argument("--graph", help="CSR graph to expand into a pull-iteration trace")
    p.add_argument("--out")
    p.add_argument("--prop-bytes", type=int, default=8)
    p.add_argument("--prop-base", type=int, default=0)
    p.add_argument("--block", type=int, default=64)
    p.add_argument("--bake-hints", action="store_true")
    p.add_argument("--llc-capacity", type=int, help="capacity used to bake hints")
    p.add_argument("--abr-out", help="write hinted region bounds here")

    p = add("reorder", cmd_reorder, help="relabel a graph by degree grouping")
    p.add_argument("input", help="edge list or CSR file")
    p.add_argument("--kind",
                   help="dbg, sort, hubsort, hubcluster, rv, or rcb<N>")
    p.add_argument("--out", help="reordered CSR file")
    p.add_argument("--map", help="write the remap array here")
    p.add_argument("--direction", choices=("in", "out"), default="in")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prop-bytes", type=int, default=8)
    p.add_argument("--block", type=int, default=64)

    p = add("opt", cmd_opt, help="optimal replacement lower bound")
    _add_source(p)
    _add_geometry(p)
    _add_output(p)
    p.add_argument("--bypass", action="store_true", help="let the oracle bypass fills")
    p.add_argument("--seed", type=int, default=0)

    p = add("stats", cmd_stats, help="graph skew metrics or reuse-distance histogram")
    p.add_argument("--graph")
    _add_source(p)
    _add_geometry(p)
    _add_output(p)
    p.add_argument("--direction", choices=("in", "out"), default="in")
    p.add_argument("--prop-bytes", type=int, default=8)
    p.add_argument("--cumulative", action="store_true")

    return parser, registry


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            with open(args.config) as fh:
                defaults = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            print("error: cannot read config: %s" % e, file=sys.stderr)
            return 2
        if not isinstance(defaults, dict):
            print("error: config must be a flat JSON object", file=sys.stderr)
            return 2
        defaults = {k.replace("-", "_"): v for k, v in defaults.items()}
        sub = registry[args.command]
        flags = {a.dest: a for a in sub._actions if a.option_strings}
        del flags["help"], flags["config"]
        unknown = sorted(set(defaults) - set(flags))
        if unknown:
            print("error: no %s flag for config keys: %s" % (args.command, ", ".join(unknown)),
                  file=sys.stderr)
            return 2
        # written as flags (a list: repeated) ahead of argv's, so argparse checks them
        written = []
        for key, value in defaults.items():
            name = flags[key].option_strings[-1]
            if isinstance(value, list) and not isinstance(flags[key], argparse._AppendAction):
                print("error: config key %s takes one value, not a list" % key, file=sys.stderr)
                return 2
            for v in value if isinstance(value, list) else [value]:
                if flags[key].nargs == 0 and isinstance(v, bool):  # a switch: written or not
                    written += [name] if v else []
                else:
                    written.append("%s=%s" % (name, v if isinstance(v, str) else json.dumps(v)))
        args = parser.parse_args(argv[:1] + written + argv[1:])
    try:
        return args.fn(args)
    except Exception as e:  # one-line diagnostics, nonzero exit
        if os.environ.get("CACHELAB_DEBUG") == "1":
            raise
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
