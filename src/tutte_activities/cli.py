"""Command-line front end.

Subcommands: tutte, activity, ordering, history, partition, crosscheck,
conjecture-scan.  Graphs, maps and decision trees come from the text
formats of the corresponding modules; edge sets are comma-separated edge
ids ('-' for the empty set).  All output is stable, sorted text.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import graph as gr
from .classic import (blossoming_active, embedding_active, make_oracle,
                      ordering_active)
from .comb_map import load_map
from .engine import delta_activity, format_history, run_history
from .harness import crosscheck
from .partition import class_table, partition
from .scan import conjecture_scan
from .tutte import (tutte_connected, tutte_definitional, tutte_delcon,
                    tutte_delta, tutte_dfs, tutte_forest,
                    tutte_forest_activity, tutte_half)


def _parse_ids(text, flag):
    """The ids of a comma-separated list; a bad token names its flag."""
    ids = []
    for tok in text.split(","):
        try:
            ids.append(int(tok))
        except ValueError:
            raise ValueError(f"{flag}: {tok!r} is not an edge id") from None
    return ids


def _parse_edge_set(text, g):
    """Mask of a --tree id list; every id must be an edge of g."""
    if text in ("", "-"):
        return 0
    ids = _parse_ids(text, "--tree")
    unknown = sorted({i for i in ids if not g.has_edge(i)})
    if unknown:
        raise ValueError("no edge with id " + ",".join(map(str, unknown)))
    return gr.edge_set(ids)


def _format_edge_set(mask):
    ids = gr.edge_ids(mask)
    return "{" + ",".join(str(i) for i in ids) + "}"


def _load_inputs(args):
    has_graph = getattr(args, "graph", None)
    has_map = getattr(args, "map", None)
    if has_graph and has_map:
        raise ValueError("use --graph or --map, not both "
                         "(a map provides its own graph)")
    if has_map:
        m = _load(load_map, args.map)
        return m.underlying_graph(), m
    if has_graph:
        return _load(gr.load_graph, args.graph), None
    raise ValueError("need --graph or --map")


def _load(loader, path):
    """Read an input file; a parse error names the file it is in."""
    try:
        return loader(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


_ORACLE_FREE = {"definitional": tutte_definitional, "delcon": tutte_delcon,
                "dfs": tutte_dfs}


def _cmd_tutte(args):
    method = args.method
    if method in _ORACLE_FREE and args.oracle is not None:
        raise ValueError(f"--method {method} takes no --oracle")
    g, m = _load_inputs(args)
    if method in _ORACLE_FREE:
        poly = _ORACLE_FREE[method](g)
    else:
        spec = "linear" if args.oracle is None else args.oracle
        oracle = make_oracle(spec, g, m)
        fn = {
            "activity": tutte_delta,
            "forest": tutte_forest,
            "connected": tutte_connected,
            "half": tutte_half,
            "forest-activity": tutte_forest_activity,
        }[method]
        poly = fn(g, oracle)
    print(poly)


def _cmd_activity(args):
    g, m = _load_inputs(args)
    tree = _parse_edge_set(args.tree, g)
    if args.oracle == "embedding" and m is not None:
        internal, external = embedding_active(m, tree)
    elif args.oracle == "blossoming" and m is not None:
        internal, external = blossoming_active(m, tree)
    else:
        oracle = make_oracle(args.oracle, g, m)
        internal, external = delta_activity(g, oracle, tree)
    print(f"internal: {_format_edge_set(internal)}")
    print(f"external: {_format_edge_set(external)}")


def _cmd_ordering(args):
    g, _ = _load_inputs(args)
    order = _parse_ids(args.order, "--order")
    tree = _parse_edge_set(args.tree, g)
    internal, external = ordering_active(g, order, tree)
    print(f"internal: {_format_edge_set(internal)}")
    print(f"external: {_format_edge_set(external)}")


def _cmd_history(args):
    g, m = _load_inputs(args)
    oracle = make_oracle(args.oracle, g, m)
    subgraph = _parse_edge_set(args.tree, g)
    history = run_history(g, oracle, subgraph)
    name = m.edge_name if m is not None else str
    print(format_history(history, name))


def _cmd_partition(args):
    g, m = _load_inputs(args)
    oracle = make_oracle(args.oracle, g, m)
    if args.dot:
        print(_partition_dot(g, oracle))
        return
    parts = partition(g, oracle)
    for t in sorted(parts):
        interval = parts[t]
        internal = t & ~interval.lower
        external = interval.upper & ~t
        print(f"tree={_format_edge_set(t)} lower={_format_edge_set(interval.lower)} "
              f"upper={_format_edge_set(interval.upper)} size={interval.size()} "
              f"monomial=x^{gr.popcount(internal)}*y^{gr.popcount(external)}")


def _partition_dot(g, oracle):
    _, index = class_table(g, oracle)
    subgraphs = list(gr.submasks(g.full_edge_set()))
    lines = ["graph subgraph_lattice {",
             '  node [style=filled colorscheme=set312];']
    for mask in subgraphs:
        lines.append(f'  "{_format_edge_set(mask)}" '
                     f'[fillcolor={index[mask] % 12 + 1}];')
    for mask in subgraphs:
        for eid in g.edge_ids:
            if not (mask >> eid) & 1:
                bigger = mask | (1 << eid)
                lines.append(f'  "{_format_edge_set(mask)}" -- '
                             f'"{_format_edge_set(bigger)}";')
    lines.append("}")
    return "\n".join(lines)


def _cmd_crosscheck(args):
    g, m = _load_inputs(args)
    if args.seeds < 0:
        raise ValueError(f"--seeds: {args.seeds} is negative")
    report = crosscheck(g, spec=args.oracle, comb_map=m,
                        seeds=range(args.seeds))
    print(report.text())
    if not report.ok:
        sys.exit(1)


def _cmd_conjecture_scan(args):
    g, _ = _load_inputs(args)
    report = conjecture_scan(g, budget=args.budget)
    print(report.text())
    if report.conjecture2_counterexamples or report.conjecture1_counterexamples:
        sys.exit(1)


@functools.cache
def _parser():
    """The argument parser, built once: its objects form reference cycles,
    so one per in-process `main` call would leave ~50 KB of cyclic garbage."""
    parser = argparse.ArgumentParser(
        prog="tutte-activities",
        description="Tutte polynomial and edge activities via decision trees")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, oracle=True):
        p.add_argument("--graph", help="graph file")
        p.add_argument("--map", help="map file (provides the graph too)")
        if oracle:
            p.add_argument(
                "--oracle", default="linear",
                help="file:PATH | linear | linear:IDS | random:SEED | "
                     "embedding | blossoming | dfs")

    p = sub.add_parser("tutte", help="compute the Tutte polynomial")
    common(p)
    p.add_argument("--method", default="definitional",
                   choices=["definitional", "delcon", "activity", "forest",
                            "connected", "half", "dfs", "forest-activity"])
    # unset, so the three methods that take no oracle can refuse one
    p.set_defaults(fn=_cmd_tutte, oracle=None)

    p = sub.add_parser("activity", help="active edges of a spanning tree")
    common(p)
    p.add_argument("--tree", required=True, help="comma-separated edge ids")
    p.set_defaults(fn=_cmd_activity)

    p = sub.add_parser("ordering", help="ordering-active edges of a tree")
    common(p, oracle=False)
    p.add_argument("--order", required=True, help="comma-separated edge ids")
    p.add_argument("--tree", required=True)
    p.set_defaults(fn=_cmd_ordering)

    p = sub.add_parser("history", help="typed visit sequence of a subgraph")
    common(p)
    p.add_argument("--tree", required=True,
                   help="edge ids of the subgraph ('-' for empty)")
    p.set_defaults(fn=_cmd_history)

    p = sub.add_parser("partition", help="interval partition by spanning trees")
    common(p)
    p.add_argument("--dot", action="store_true",
                   help="emit a DOT colouring of the subgraph lattice")
    p.set_defaults(fn=_cmd_partition)

    p = sub.add_parser("crosscheck", help="run all routes and theorems")
    common(p)
    p.add_argument("--seeds", type=int, default=3,
                   help="number of seeded random oracles")
    p.set_defaults(fn=_cmd_crosscheck)

    p = sub.add_parser("conjecture-scan",
                       help="scan activities for lattice tilings")
    common(p, oracle=False)
    p.add_argument("--budget", type=int, default=2 ** 22,
                   help="maximum number of candidate activities")
    p.set_defaults(fn=_cmd_conjecture_scan)

    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        args.fn(args)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    except OSError as exc:
        raise SystemExit(f"error: {exc.filename}: {exc.strerror}")


if __name__ == "__main__":
    main()
