"""Spans around the library's public functions, installed from outside.

`Tracer.install()` replaces each target in TARGETS by a wrapper: module
functions in their own module and in every library module that imported
them by name, methods on their classes.  Each call records a span under
the item being run (the trace id).  Hot leaves run millions of times, so
every span is aggregated in memory as (calls, total, self) per (parent,
name); coarse spans are also kept whole.  Self time is a span's duration
minus the time its child spans cover.  Nothing is written until `dump`.
"""

from __future__ import annotations

import json
import sys
from math import comb
from time import perf_counter

# (module, attribute or Class.method, span name).  Several targets may share
# a name; the per-layer metrics are sums over names.
TARGETS = (
    ("graph", "cc", "graph.cc"),
    ("graph", "classify_edge", "graph.classify_edge"),
    ("graph", "delete", "graph.minor"),
    ("graph", "contract", "graph.minor"),
    ("graph", "spanning_trees", "graph.spanning_trees"),
    ("graph", "spanning_forests", "graph.spanning_forests"),
    ("decision", "LinearOrderOracle.next_edge", "decision.next_edge"),
    ("decision", "RandomOracle.next_edge", "decision.next_edge"),
    ("decision", "OrderMapOracle.next_edge", "decision.next_edge"),
    ("decision", "ExplicitTreeOracle.next_edge", "decision.next_edge"),
    ("scan", "_DictOracle.next_edge", "decision.next_edge"),
    ("decision", "OrderMapOracle.__init__", "decision.order_map_build"),
    ("decision", "check_tree_compatible", "decision.check_tree_compatible"),
    ("engine", "run_history", "engine.run_history"),
    ("engine", "forest_active", "engine.forest_active"),
    ("poly", "BivariatePoly.__add__", "poly"),
    ("poly", "BivariatePoly.__sub__", "poly"),
    ("poly", "BivariatePoly.__mul__", "poly"),
    ("poly", "BivariatePoly.scale", "poly"),
    ("poly", "BivariatePoly.__pow__", "poly"),
    ("poly", "x_minus_1_pow", "poly"),
    ("poly", "y_minus_1_pow", "poly"),
    ("tutte", "tutte_definitional", "tutte.definitional"),
    ("tutte", "tutte_delcon", "tutte.delcon"),
    ("tutte", "tutte_delta", "tutte.delta"),
    ("tutte", "tutte_forest", "tutte.forest"),
    ("tutte", "tutte_connected", "tutte.connected"),
    ("tutte", "tutte_half", "tutte.half"),
    ("tutte", "tutte_forest_activity", "tutte.forest_activity"),
    ("tutte", "tutte_dfs", "tutte.dfs"),
    ("partition", "class_table", "partition.class_table"),
    ("partition", "partition", "partition.partition"),
    ("comb_map", "tour_order", "comb_map.tour_order"),
    ("comb_map", "mirror", "comb_map.mirror"),
    ("classic", "dfs_order_map", "classic.order_map"),
    ("classic", "blossoming_first_visit_order", "classic.order_map"),
    ("classic", "dfs_active", "classic.native"),
    ("classic", "embedding_active", "classic.native"),
    ("classic", "blossoming_active", "classic.native"),
    ("classic", "prune_run", "classic.prune_run"),
    ("scan", "conjecture_scan", "scan.conjecture_scan"),
    ("scan", "decision_tree_activities", "scan.decision_tree_activities"),
    ("cli", "main", "cli.main"),
)

# Called per subgraph, tree or query: aggregated only, never kept whole.
HOT = {"graph.cc", "graph.classify_edge", "graph.minor", "decision.next_edge",
       "engine.run_history", "engine.forest_active", "poly",
       "comb_map.tour_order", "classic.order_map", "classic.native",
       "classic.prune_run"}

PACKAGE = "tutte_activities"


class Tracer:
    def __init__(self):
        self.stack = []      # open spans: [name, seconds covered by children]
        self.agg = {}        # (parent, name) -> [calls, total_s, self_s]
        self.spans = []      # coarse spans: (trace id, name, parent, start, end)
        self.counts = dict.fromkeys(
            ("graph_builds", "trees", "tree_candidates", "forests",
             "forest_masks", "next_edge_repeats", "candidates", "survivors"), 0)
        self.trace_id = None
        self.missing = []
        self._patches = []
        self._queries = set()   # (oracle, prefix) asked within the item
        self._walked = {}       # (id(g), id(oracle)) -> both, within the item
        self.walked_graphs = []  # one entry per (graph, oracle) walked

    # -- items ---------------------------------------------------------------

    def begin_item(self, item_id):
        self.trace_id = item_id

    def end_item(self):
        self.walked_graphs.extend(g for g, _ in self._walked.values())
        self._walked = {}
        self._queries = set()
        self.trace_id = None

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn, observe=None):
        stack, agg, spans = self.stack, self.agg, self.spans
        keep = name not in HOT

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else "item"
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][1] += took
                rec = agg.get((parent, name))
                if rec is None:
                    rec = agg[(parent, name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += took
                rec[2] += took - frame[1]
                if keep:
                    spans.append((self.trace_id, name, parent, start, end))
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observers(self):
        counts = self.counts

        def trees(args, result):
            g = args[0]
            counts["trees"] += len(result)
            non_loops = sum(1 for _, u, v in g.edges if u != v)
            counts["tree_candidates"] += comb(non_loops, g.vertex_count - 1)

        def forests(args, result):
            counts["forests"] += len(result)
            counts["forest_masks"] += 1 << args[0].edge_count()

        def query(args, result):
            key = (args[0], tuple(args[1]))
            if key in self._queries:
                counts["next_edge_repeats"] += 1
            else:
                self._queries.add(key)

        def walk(args, result):
            g, oracle = args[0], args[1]
            # holding the objects keeps their ids unique within the item
            self._walked.setdefault((id(g), id(oracle)), (g, oracle))

        def scanned(args, result):
            counts["candidates"] += result.candidate_count
            counts["survivors"] += len(result.survivors)

        return {"graph.spanning_trees": trees,
                "graph.spanning_forests": forests,
                "decision.next_edge": query, "engine.run_history": walk,
                "scan.conjecture_scan": scanned}

    # -- install ----------------------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None
                   and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        observers = self._observers()
        for mod_name, attr, name in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner else None
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._span(name, original, observers.get(name))
            if owner_name:
                self._patch(owner, method, wrapper)
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        graph_cls = sys.modules[f"{PACKAGE}.graph"].Graph
        init = graph_cls.__init__
        counts = self.counts

        def counted_init(obj, *args, **kwargs):
            counts["graph_builds"] += 1
            return init(obj, *args, **kwargs)

        self._patch(graph_cls, "__init__", counted_init)

    def _patch(self, owner, key, value):
        own = key in vars(owner)
        self._patches.append((owner, key, vars(owner).get(key), own))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original, own in reversed(self._patches):
            if own:
                setattr(owner, key, original)
            else:
                delattr(owner, key)
        self._patches = []

    # -- results -----------------------------------------------------------------

    def totals(self, name):
        calls = total = self_s = 0
        for (_, n), (c, t, s) in self.agg.items():
            if n == name:
                calls += c
                total += t
                self_s += s
        return calls, total, self_s

    def metrics(self, tree_count):
        """Per-layer metrics of everything traced so far.

        `tree_count(g)` gives the spanning trees of a walked graph; it is
        called here, after the traced pass, so it costs the pass nothing.
        """
        out = {}

        def put(key, value, unit):
            out[key] = {"value": value, "unit": unit}

        def ratio(a, b):
            return a / b if b else 0.0

        counts = self.counts
        calls = {}
        for name in sorted({n for _, _, n in TARGETS}):
            c, _, s = self.totals(name)
            calls[name] = c
            put(f"{name}.self_s", s, "s")
        for name in ("graph.cc", "graph.classify_edge", "graph.minor",
                     "decision.next_edge", "engine.run_history",
                     "engine.forest_active", "comb_map.tour_order",
                     "classic.prune_run"):
            put(f"{name}.calls", calls[name], "count")
        put("poly.ops", calls["poly"], "count")
        put("graph.graph_builds", counts["graph_builds"], "count")
        put("graph.spanning_trees.yield",
            ratio(counts["trees"], counts["tree_candidates"]), "ratio")
        put("graph.spanning_forests.yield",
            ratio(counts["forests"], counts["forest_masks"]), "ratio")
        put("decision.next_edge.repeat_frac",
            ratio(counts["next_edge_repeats"], calls["decision.next_edge"]),
            "ratio")
        trees = sum(tree_count(g) for g in self.walked_graphs)
        put("engine.histories_per_tree",
            ratio(calls["engine.run_history"], trees), "ratio")
        put("scan.candidates", counts["candidates"], "count")
        put("scan.survivor_frac",
            ratio(counts["survivors"], counts["candidates"]), "ratio")
        return out

    def dump(self, path, extra):
        record = dict(extra)
        record["missing_targets"] = self.missing
        record["aggregates"] = [
            {"parent": p, "name": n, "calls": c, "total_s": t, "self_s": s}
            for (p, n), (c, t, s) in sorted(self.agg.items())]
        record["spans"] = [
            {"trace_id": tid, "name": n, "parent": p, "start": a, "end": b}
            for tid, n, p, a, b in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
