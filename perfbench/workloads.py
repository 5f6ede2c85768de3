"""The four benchmark workloads: inputs from a seed, items, correctness gate.

Every workload is a closed loop with one caller: a fixed list of items run
back to back in this process.  `setup(seed)` builds the inputs (timed as
`setup_s`), `items` lists (item id, callable) pairs whose callables take the
route clock and return a result, and `check(results)` returns one error
string (or None) per item.  Items reach the library only through module
attributes, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import random
from time import process_time

# The package re-exports functions named like some of its modules
# (`partition`), so the modules are taken from the import system directly.
(classic, cli, comb_map, decision, engine, graph, harness, partition, scan,
 tutte) = (importlib.import_module(f"tutte_activities.{name}") for name in (
     "classic", "cli", "comb_map", "decision", "engine", "graph", "harness",
     "partition", "scan", "tutte"))

import checks

# (route clock key, route name); the function is tutte.tutte_<name>, looked
# up at call time so that the tracer's wrappers are the ones called.
ORACLE_ROUTES = (("activity", "delta"), ("subgraph_sums", "forest"),
                 ("subgraph_sums", "connected"), ("subgraph_sums", "half"),
                 ("subgraph_sums", "forest_activity"))


class RouteClock(dict):
    """Processor seconds spent inside each route family during one pass."""

    KEYS = ("delcon", "activity", "subgraph_sums", "oracle_build")

    def __init__(self):
        super().__init__((k, 0.0) for k in self.KEYS)

    def call(self, key, fn, *args):
        start = process_time()
        try:
            return fn(*args)
        finally:
            self[key] += process_time() - start


# -- input generators -----------------------------------------------------------


def relabel(g, rng, vertices=False):
    """The graph with edge ids (and optionally vertex ids) permuted."""
    m = g.edge_count()
    eperm = list(range(m))
    rng.shuffle(eperm)
    vperm = list(range(g.vertex_count))
    if vertices:
        rng.shuffle(vperm)
    return graph.Graph(g.vertex_count, [(eperm[i], vperm[u], vperm[v])
                                        for i, (_, u, v) in enumerate(g.edges)])


def dfs_applies(g):
    """The DFS family needs a graph without two edges on one vertex pair."""
    pairs = [(min(u, v), max(u, v)) for _, u, v in g.edges]
    return len(set(pairs)) == len(pairs)


def _from_pairs(n, pairs):
    return graph.Graph(n, [(i, u, v) for i, (u, v) in enumerate(pairs)])


def complete(n):
    return _from_pairs(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def wheel(spokes):
    """Hub 0 joined to a rim cycle 1..spokes; 2*spokes edges."""
    return _from_pairs(spokes + 1,
                       [(0, i + 1) for i in range(spokes)]
                       + [(i + 1, (i + 1) % spokes + 1) for i in range(spokes)])


def grid(rows, cols):
    pairs = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                pairs.append((v, v + 1))
            if r + 1 < rows:
                pairs.append((v, v + cols))
    return _from_pairs(rows * cols, pairs)


def petersen():
    return _from_pairs(10, [(i, (i + 1) % 5) for i in range(5)]
                       + [(i, i + 5) for i in range(5)]
                       + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def rotation_system(g, rng):
    """A map of g with a seeded rotation at every vertex and a seeded root.

    Half-edges 2e and 2e+1 belong to edge e, so the map's edge ids are g's.
    """
    around = {}
    for eid, u, v in g.edges:
        around.setdefault(u, []).append(2 * eid)
        around.setdefault(v, []).append(2 * eid + 1)
    sigma = [0] * (2 * g.edge_count())
    for halves in around.values():
        rng.shuffle(halves)
        for i, h in enumerate(halves):
            sigma[h] = halves[(i + 1) % len(halves)]
    return comb_map.CombMap(sigma, [h ^ 1 for h in range(len(sigma))],
                            rng.randrange(len(sigma)))


def doubled_triangle(g):
    """Three vertices, four non-loop edges, every pair joined, one doubled."""
    pairs = sorted((min(u, v), max(u, v)) for _, u, v in g.edges)
    return (g.vertex_count == 3 and len(pairs) == 4
            and all(u != v for u, v in pairs) and len(set(pairs)) == 3)


class _TreeCounts(dict):
    """Matrix-tree counts per graph, filled lazily by the gate."""

    def __missing__(self, g):
        value = checks.tree_count(g.vertex_count, g.edges)
        self[g] = value
        return value


TREE_COUNTS = _TreeCounts()


def _poly_error(poly, g):
    try:
        checks.check_polynomial(poly.terms, g.vertex_count, g.edges,
                                TREE_COUNTS[g])
    except AssertionError as exc:
        return str(exc)
    return None


def _same(values):
    return all(v == values[0] for v in values[1:])


# -- workloads --------------------------------------------------------------------


class DeskRoutes:
    """Every route on each desk-corpus graph, for a linear and a random oracle."""

    def setup(self, seed):
        rng = random.Random(seed)
        self.seed = seed
        self.graphs = [relabel(g, rng) for g in harness.desk_corpus()]
        self.items = [(f"desk/{i}", self._item(g))
                      for i, g in enumerate(self.graphs)]

    def _item(self, g):
        def run(clock):
            out = {"definitional": clock.call(
                "subgraph_sums", tutte.tutte_definitional, g)}
            out["delcon"] = clock.call("delcon", tutte.tutte_delcon, g)
            if dfs_applies(g):
                out["dfs"] = clock.call("subgraph_sums", tutte.tutte_dfs, g)
            oracles = (("linear", decision.from_linear_order(list(g.edge_ids))),
                       (f"random:{self.seed}",
                        decision.random_oracle(g, self.seed)))
            trees = {}
            for spec, oracle in oracles:
                for key, name in ORACLE_ROUTES:
                    fn = getattr(tutte, f"tutte_{name}")
                    out[f"{name}[{spec}]"] = clock.call(key, fn, g, oracle)
                trees[spec] = len(partition.class_table(g, oracle)[0])
            return out, trees
        return run

    def check(self, results):
        errors = []
        for g, result in zip(self.graphs, results):
            if result is None:  # raised; already counted as failed
                errors.append(None)
                continue
            out, trees = result
            polys = list(out.values())
            if not _same(polys):
                errors.append("routes disagree: " + ", ".join(
                    f"{k}={v}" for k, v in out.items()))
            elif any(n != TREE_COUNTS[g] for n in trees.values()):
                errors.append(f"class_table tree counts {trees}")
            else:
                errors.append(_poly_error(polys[0], g))
        return errors


class Ladder:
    """`tutte-activities tutte` in process on six mid-size graphs."""

    RUNGS = (("K5", complete, (5,)), ("W6", wheel, (6,)),
             ("W7", wheel, (7,)), ("K6", complete, (6,)),
             ("Petersen", petersen, ()), ("grid3x4", grid, (3, 4)))

    def __init__(self, workdir):
        self.workdir = workdir

    def setup(self, seed):
        rng = random.Random(seed)
        os.makedirs(self.workdir, exist_ok=True)
        methods = (["--method", "delcon"],
                   ["--method", "activity", "--oracle", "linear"],
                   ["--method", "activity", "--oracle", f"random:{seed}"])
        self.graphs = []
        self.items = []
        for name, build, args in self.RUNGS:
            g = relabel(build(*args), rng, vertices=True)
            path = os.path.join(self.workdir, f"{name}.graph")
            graph.save_graph(g, path)
            self.graphs.append(g)
            for method in methods:
                argv = ["tutte", "--graph", path] + method
                key = "delcon" if method[1] == "delcon" else "activity"
                self.items.append((f"ladder/{name}/{method[-1]}",
                                   self._item(argv, key)))

    @staticmethod
    def _item(argv, key):
        def run(clock):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    clock.call(key, cli.main, argv)
                except SystemExit as exc:
                    raise RuntimeError(f"cli exited with {exc.code}") from None
            return buf.getvalue()
        return run

    def check(self, results):
        errors = []
        per_rung = len(results) // len(self.graphs)
        for r, g in enumerate(self.graphs):
            texts = [t for t in results[r * per_rung:(r + 1) * per_rung]
                     if t is not None]
            try:
                polys = [checks.parse_polynomial(t) for t in texts]
                if not _same(polys):
                    raise AssertionError(f"methods disagree: {texts}")
                if polys:
                    checks.check_polynomial(polys[0], g.vertex_count, g.edges,
                                            TREE_COUNTS[g])
                error = None
            except (AssertionError, ValueError) as exc:
                error = str(exc)
            errors.extend([error] * per_rung)
        return errors


class ClassicalOracles:
    """Order-map oracles of the DFS, embedding and blossoming families."""

    # W6 (320 trees) would take half of a pass, leaving two passes a run.
    GRAPHS = (("W4", wheel, (4,)), ("K4", complete, (4,)),
              ("W5", wheel, (5,)), ("K5", complete, (5,)),
              ("grid3x3", grid, (3, 3)))
    FAMILIES = ("dfs", "embedding", "blossoming")

    def setup(self, seed):
        rng = random.Random(seed)
        self.graphs = []
        self.items = []
        for name, build, args in self.GRAPHS:
            g = relabel(build(*args), rng, vertices=True)
            cmap = rotation_system(g, rng)
            self.graphs.append(g)
            for family in self.FAMILIES:
                self.items.append((f"classical/{name}/{family}",
                                   self._item(g, cmap, family)))

    @staticmethod
    def _item(g, cmap, family):
        def run(clock):
            start = process_time()
            if family == "dfs":
                host = g
                trees = graph.spanning_trees(host)
                table = {t: classic.dfs_order_map(host, t) for t in trees}
            else:
                host = cmap.underlying_graph()
                trees = graph.spanning_trees(host)
                if family == "embedding":
                    mm = comb_map.mirror(cmap)
                    table = {t: comb_map.tour_order(mm, t)[1] for t in trees}
                else:
                    table = {t: classic.blossoming_first_visit_order(cmap, t)
                             for t in trees}
            oracle = decision.from_order_map(host, table)
            clock["oracle_build"] += process_time() - start
            mismatched = 0
            for t in trees:
                got = engine.delta_activity(host, oracle, t)
                if family == "dfs":
                    ok = got[1] == classic.dfs_active(host, t)
                elif family == "embedding":
                    ok = got == classic.embedding_active(cmap, t)
                else:
                    ok = got == classic.blossoming_active(cmap, t)
                mismatched += not ok
            poly = clock.call("activity", tutte.tutte_delta, host, oracle)
            return mismatched, poly
        return run

    def check(self, results):
        errors = []
        per_graph = len(self.FAMILIES)
        for k, g in enumerate(self.graphs):
            group = results[k * per_graph:(k + 1) * per_graph]
            polys = [r[1] for r in group if r is not None]
            shared = (None if _same(polys)
                      else "families disagree: " + ", ".join(map(str, polys)))
            for result in group:
                if result is None:  # raised; already counted as failed
                    errors.append(None)
                    continue
                mismatched, poly = result
                if mismatched:
                    errors.append(f"{mismatched} trees differ from the native rule")
                else:
                    errors.append(shared or _poly_error(poly, g))
        return errors


class Scan:
    """`conjecture_scan` on every connected multigraph with at most 4 edges."""

    # Survivor count of each graph of `connected_multigraphs(4)`, in its
    # order, recorded when the benchmark was defined.  Relabelling edge ids
    # does not change it (checked on seeds 1-5).
    SURVIVORS = (1, 1, 1, 1, 1, 1, 2, 1, 2, 1, 6, 1, 2, 1, 6, 2, 24, 1, 1, 1,
                 2, 6, 1, 1, 2, 2, 1, 6, 2, 1, 6, 12, 48, 1, 1, 1, 1, 1, 1, 2,
                 2, 2, 6, 24, 1, 1, 1)

    def setup(self, seed):
        rng = random.Random(seed)
        self.graphs = [relabel(g, rng) for g in harness.connected_multigraphs(4)]
        self.items = [(f"scan/{i}", self._item(g))
                      for i, g in enumerate(self.graphs)]

    @staticmethod
    def _item(g):
        def run(clock):
            rep = scan.conjecture_scan(g)
            return (len(rep.survivors), len(rep.conjecture2_counterexamples),
                    len(rep.conjecture1_counterexamples),
                    len(rep.not_descriptive))
        return run

    def check(self, results):
        if len(self.graphs) != len(self.SURVIVORS):
            return [f"{len(self.graphs)} graphs, expected "
                    f"{len(self.SURVIVORS)}"] * len(results)
        errors = []
        for g, survivors, got in zip(self.graphs, self.SURVIVORS, results):
            # (survivors, conjecture-2 and conjecture-1 counterexamples, not
            # descriptive).  The recorded finding: only the doubled triangle
            # has tilings with every edge active (48 tilings, 8 such, 8
            # unrealized); every other graph has none and none unrealized.
            found = 8 if doubled_triangle(g) else 0
            want = (survivors, found, found, 0)
            if got is None:  # raised; already counted as failed
                errors.append(None)
            elif got != want:
                errors.append(f"scan gave {got}, expected {want}")
            else:
                errors.append(None)
        return errors


def make(name, workdir):
    table = {"desk-routes": DeskRoutes, "ladder": lambda: Ladder(workdir),
             "classical-oracles": ClassicalOracles, "scan": Scan}
    return table[name]()


# -- edge-id contract probe ---------------------------------------------------------


def id_probe(seed, sample=12):
    """Share of desk routes that fail on graphs whose ids are not 0..m-1.

    A seeded sample of the small corpus graphs gets its edge ids moved to
    distinct values in m..4m-1; every desk route then runs on it and is
    compared with `tutte_delcon` on the original graph.  Returns
    (cases, failed).
    """
    rng = random.Random(seed)
    graphs = harness.connected_multigraphs(4)
    cases = failed = 0
    for g in rng.sample(graphs, min(sample, len(graphs))):
        m = g.edge_count()
        ids = rng.sample(range(m, 4 * m), m)
        moved = graph.Graph(g.vertex_count,
                            [(ids[i], u, v) for i, (_, u, v) in enumerate(g.edges)])
        reference = tutte.tutte_delcon(g)
        trees = TREE_COUNTS[g]
        runs = [lambda: tutte.tutte_definitional(moved),
                lambda: tutte.tutte_delcon(moved)]
        if dfs_applies(moved):
            runs.append(lambda: tutte.tutte_dfs(moved))
        for oracle in (decision.from_linear_order(list(moved.edge_ids)),
                       decision.random_oracle(moved, seed)):
            for _, name in ORACLE_ROUTES:
                fn = getattr(tutte, f"tutte_{name}")
                runs.append(lambda fn=fn, o=oracle: fn(moved, o))
            runs.append(lambda o=oracle:
                        len(partition.class_table(moved, o)[0]))
        for run in runs:
            cases += 1
            try:
                value = run()
                ok = value == (trees if isinstance(value, int) else reference)
            except Exception:  # a crash is one of the failures counted
                ok = False
            failed += not ok
    return cases, failed

