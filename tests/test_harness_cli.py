import hashlib
import os
import random
import re
import subprocess
import sys

import pytest

from tutte_activities import graph as gr
from tutte_activities import classic, cli, engine, harness
from tutte_activities.harness import (canonical_form, connected_multigraphs,
                                      connected_simple_graphs, crosscheck)
from conftest import (FIXTURES, ROOT, brute_canonical_form, complete,
                      fixture_graph, fixture_map, graph_path, grid, map_path,
                      permuted, reference_connected_multigraphs,
                      reference_connected_simple_graphs)

TREE_FILE = FIXTURES / "trees" / "parallel_triangle.tree"

# The CLI runs in a child process, which finds the package the way this one
# does: through `src` on its path.
CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tutte_activities.cli", *args],
        capture_output=True, text=True, env=CLI_ENV)


def test_crosscheck_passes_on_fixture(g4):
    report = crosscheck(g4, seeds=range(2))
    assert report.ok, report.text()
    assert "checks passed" in report.text()


def test_crosscheck_with_map():
    m = fixture_map("pruning_planar")
    report = crosscheck(m.underlying_graph(), comb_map=m, seeds=range(1))
    assert report.ok, report.text()


def test_walk_classes_check_catches_a_typing_that_reads_the_subgraph(
        g4, pruning_map, monkeypatch):
    # The forest, connected and half-weight sums collapse to the activity
    # route only if the typing ignores whether an L edge is in S.
    real = harness.run_history

    def mistyped(g, oracle, mask, **flags):
        return [(eid, "Se" if etype == "L" and (mask >> eid) & 1 else etype)
                for eid, etype in real(g, oracle, mask, **flags)]

    monkeypatch.setattr(harness, "run_history", mistyped)
    report = crosscheck(g4, seeds=range(1))
    failed = {r.name for r in report.results if not r.ok}
    assert {"walk-classes[linear]", "walk-classes[random:0]"} <= failed
    assert "tree-activity-sum[linear]" not in failed
    # The classical families' oracles take the same per-oracle checks.
    reports = (crosscheck(pruning_map.underlying_graph(), comb_map=pruning_map,
                          seeds=range(1)),
               crosscheck(fixture_graph("dfs_five"), seeds=range(1)))
    failed = {r.name for report in reports for r in report.results
              if not r.ok}
    assert {"walk-classes[embedding]", "walk-classes[blossoming]",
            "walk-classes[dfs]"} <= failed


def test_dfs_oracle_check_catches_a_wrong_dfs_oracle(monkeypatch):
    # The forest-activity route sums to the Tutte polynomial for any oracle,
    # so only the DFS oracle check can see a wrong DFS rule.
    monkeypatch.setattr(classic.DfsOracle, "choose",
                        lambda self, prefix, unused: unused[0])
    report = crosscheck(fixture_graph("dfs_five"), seeds=range(1))
    failed = {r.name for r in report.results if not r.ok}
    assert "dfs-as-decision-oracle" in failed
    assert "forest-activity-sum[dfs]" not in failed


def test_ordering_reduction_check_catches_a_wrong_ordering_rule(
        g4, monkeypatch):
    # The check compares the ordering rule with the linear oracle's typing
    # table, which the other checks share, so only this check sees it.
    monkeypatch.setattr(harness, "ordering_active", lambda g, order, t: (0, 0))
    report = crosscheck(g4, seeds=range(1))
    failed = {r.name for r in report.results if not r.ok}
    assert failed == {"ordering-reduction"}


@pytest.mark.parametrize("native,failing", [
    ("tau", {"pruning-preimage-interval"}),
    ("embedding_active",
     {"embedding-mirror-max", "embedding-as-decision-oracle"}),
])
def test_map_checks_catch_a_wrong_native(pruning_map, monkeypatch, native,
                                         failing):
    # Each native is computed once and read by every check that compares
    # against it, so a wrong native fails each of those checks.
    monkeypatch.setattr(harness, native, lambda m, mask: -1)
    report = crosscheck(pruning_map.underlying_graph(), comb_map=pruning_map,
                        seeds=range(1))
    assert {r.name for r in report.results if not r.ok} == failing


def test_crosscheck_rejects_a_map_of_another_graph(g4, pruning_map):
    with pytest.raises(ValueError, match="the map must embed the graph"):
        crosscheck(g4, comb_map=pruning_map)


def path_graph(m):
    return gr.Graph(m + 1, [(i, i, i + 1) for i in range(m)])


CROSSCHECK_CAP = ("crosscheck is capped at 20 edges, since it types all 2^m "
                  "subgraphs per oracle; the graph has 21")


class WorkStarted(Exception):
    pass


def test_crosscheck_refuses_past_the_class_table_cap_before_any_work(
        monkeypatch):
    def started(*args, **kwargs):
        raise WorkStarted

    monkeypatch.setattr(harness, "make_oracle", started)
    with pytest.raises(WorkStarted):  # 20 edges: checked as before
        crosscheck(path_graph(20))
    with pytest.raises(ValueError) as exc:
        crosscheck(path_graph(21))
    assert str(exc.value) == CROSSCHECK_CAP


def test_connected_multigraph_enumeration():
    graphs = connected_multigraphs(2)
    # one edge; one loop; two loops; loop plus edge; parallel pair; path:
    # exactly the six iso classes with at most two edges
    assert len(graphs) == 6
    keys = {canonical_form(g) for g in graphs}
    assert len(keys) == 6
    assert all(gr.is_connected(g) for g in graphs)


def test_canonical_form_matches_brute_force_on_relabelled_graphs(corpus):
    for seed, g in enumerate(connected_multigraphs(4) + corpus):
        h = permuted(g, seed)
        assert canonical_form(g) == canonical_form(h) == \
            brute_canonical_form(h), g


def test_canonical_form_matches_brute_force_on_random_graphs():
    rng = random.Random(26)
    kinds = set()
    for _ in range(1000):  # ties that need branching are rare in these
        n, m = rng.randint(1, 6), rng.randint(0, 9)
        ends = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
        g = gr.Graph(n, [(i, u, v) for i, (u, v)
                         in zip(rng.sample(range(4 * m + 1), m), ends)])
        pairs = [(min(u, v), max(u, v)) for u, v in ends]
        kinds.update(kind for kind, present in (
            ("loop", any(u == v for u, v in ends)),
            ("parallel", len(set(pairs)) < m),
            ("isolated", len({w for p in ends for w in p}) < n),
            ("disconnected", not gr.is_connected(g))) if present)
        assert canonical_form(g) == brute_canonical_form(g), g
    assert kinds == {"loop", "parallel", "isolated", "disconnected"}


def _repr_sha256(graphs):
    return hashlib.sha256(repr(graphs).encode()).hexdigest()


def test_generators_keep_their_representatives(corpus):
    graphs = connected_multigraphs(5)
    assert [sum(g.edge_count() == m for g in graphs)
            for m in range(1, 6)] == [2, 4, 11, 30, 95]
    # The outputs of the n!-permutation canonical form, hashed.
    assert _repr_sha256(graphs) == (
        "beab331d08ade510da51ce86d7516ebb9d8c2d9af049ddfd27e2488ef65353b9")
    assert _repr_sha256(corpus) == (
        "0f14613e019b4ca89e851a0062e8bb129cc33dfb6b3c562139cc86808421086c")


def test_six_edge_multigraphs_keep_their_representatives():
    assert _repr_sha256(connected_multigraphs(6)) == (
        "5d95549d56b1fbc30964d2342c95ca5cdc23e5c76d5f161e07282ea0368b427f")


def test_generators_match_the_combination_reference():
    # A reference list for fewer edges or vertices is a sublist of the
    # largest one, in the same order, so each reference is built once.
    reference = reference_connected_multigraphs(5)
    for m in range(6):
        assert connected_multigraphs(m) == [
            g for g in reference if g.edge_count() <= m]
    reference = reference_connected_multigraphs(6, max_vertices=4)
    for v in range(5):
        assert connected_multigraphs(6, max_vertices=v) == [
            g for g in reference if g.vertex_count <= v]
    for n in range(1, 6):
        top = n * (n - 1) // 2
        reference = reference_connected_simple_graphs(n, top)
        for k in range(-1, top + 2):
            assert connected_simple_graphs(n, k) == [
                g for g in reference if g.edge_count() <= k], (n, k)
    assert connected_simple_graphs(6, 7) == \
        reference_connected_simple_graphs(6, 7)


def test_simple_generator_edge_cases():
    # The one-vertex graph is connected with no edges at all.
    for k in range(4):
        assert connected_simple_graphs(1, k) == [gr.Graph(1, [])]
    for n in (0, -1):
        with pytest.raises(ValueError, match="n_vertices"):
            connected_simple_graphs(n, 3)


def test_crosscheck_over_all_small_multigraphs():
    for g in connected_multigraphs(4):
        report = crosscheck(g, seeds=range(1))
        assert report.ok, (g, report.text())


def test_desk_corpus_properties(corpus):
    assert len(corpus) >= 200
    assert all(g.vertex_count <= 6 and g.edge_count() <= 8 for g in corpus)
    assert all(gr.is_connected(g) for g in corpus)
    keys = {canonical_form(g) for g in corpus}
    assert len(keys) == len(corpus)


# -- CLI ----------------------------------------------------------------------

G4 = str(graph_path("parallel_triangle"))
MAP = str(map_path("parallel_triangle"))
GOLDEN = "x^2 + x*y + x + y^2 + y"


@pytest.mark.parametrize("method,extra", [
    ("definitional", []),
    ("delcon", []),
    ("activity", ["--oracle", f"file:{TREE_FILE}"]),
    ("activity", ["--oracle", "random:7"]),
    ("forest", ["--oracle", "linear"]),
    ("connected", ["--oracle", "linear"]),
    ("half", ["--oracle", "random:3"]),
    ("forest-activity", ["--oracle", "linear"]),
])
def test_cli_tutte_methods(method, extra):
    out = run_cli("tutte", "--graph", G4, "--method", method, *extra)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == GOLDEN


@pytest.mark.parametrize("method", ["definitional", "delcon", "dfs"])
@pytest.mark.parametrize("spec", ["bogus", "linear"])
def test_cli_tutte_refuses_an_oracle_its_method_takes_none(method, spec):
    out = run_cli("tutte", "--graph", G4, "--method", method, "--oracle", spec)
    assert _one_error_line(out) == f"error: --method {method} takes no --oracle"
    assert out.stdout == ""


def _terms(text):
    """{(i, j): c} of a printed polynomial whose coefficients are positive."""
    terms = {}
    for term in text.split(" + "):
        coeff, exps = 1, [0, 0]
        for factor in term.split("*"):
            base, _, exp = factor.partition("^")
            if base in ("x", "y"):
                exps["xy".index(base)] = int(exp or 1)
            else:
                coeff = int(factor)
        terms[tuple(exps)] = coeff
    return terms


def test_cli_delcon_reaches_grid_6x6(tmp_path, capsys):
    path = tmp_path / "grid6x6.graph"
    gr.save_graph(permuted(grid(6, 6), 1), path)
    cli.main(["tutte", "--graph", str(path), "--method", "delcon"])
    terms = _terms(capsys.readouterr().out.strip())
    assert sum(terms.values()) == 32_565_539_635_200  # T(1,1)
    assert sum(c << (i + j) for (i, j), c in terms.items()) == 2 ** 60


def test_cli_layered_pass_cap_is_one_error_line(tmp_path, monkeypatch,
                                                capsys):
    path = tmp_path / "k7.graph"
    gr.save_graph(complete(7), path)
    delcon = ["tutte", "--graph", str(path), "--method", "delcon"]
    linear = ["tutte", "--graph", str(path), "--method", "activity",
              "--oracle", "linear"]
    for argv in (delcon, linear):  # the real cap leaves K7 alone
        cli.main(argv)
    first, second = capsys.readouterr().out.split("\n", 1)
    assert second == first + "\n"
    monkeypatch.setattr(engine, "LAYERED_MAX_MINORS", 50)
    for argv in (delcon, linear):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert re.fullmatch(r"error: the layered pass is capped at 50 minors "
                            r"per layer; layer \d+ of 21 has \d+",
                            str(exc.value))
    assert capsys.readouterr().out == ""


def test_cli_tutte_embedding_oracle():
    out = run_cli("tutte", "--map", MAP, "--method", "activity",
                  "--oracle", "embedding")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == GOLDEN


def test_cli_tutte_dfs():
    out = run_cli("tutte", "--graph", str(graph_path("dfs_five")),
                  "--method", "dfs")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "x^3 + 2*x^2 + 2*x*y + x + y^2 + y"


def test_cli_activity(g4):
    out = run_cli("activity", "--graph", G4, "--tree", "1,3",
                  "--oracle", f"file:{TREE_FILE}")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "internal: {1,3}\nexternal: {}\n"


def test_cli_activity_dfs_oracle():
    dfs_five = str(graph_path("dfs_five"))
    out = run_cli("activity", "--graph", dfs_five, "--oracle", "dfs",
                  "--tree", "0,2,4")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "internal: {}\nexternal: {3}\n"
    out = run_cli("activity", "--graph", dfs_five, "--oracle", "dfs",
                  "--tree", "0,1,2")  # a cycle
    assert _one_error_line(out) == "error: edge set is not a spanning tree"
    assert out.stdout == ""


def test_cli_ordering():
    out = run_cli("ordering", "--graph", G4, "--order", "0,1,2,3",
                  "--tree", "0,2")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "internal: {0}\nexternal: {}\n"


@pytest.mark.parametrize("argv,message", [
    (("ordering", "--order", "0,x,2,3", "--tree", "0,2"),
     "error: --order: 'x' is not an edge id"),
    (("ordering", "--order", "0,1,2,3", "--tree", "0,2.5"),
     "error: --tree: '2.5' is not an edge id"),
    (("activity", "--tree", "1,,3"), "error: --tree: '' is not an edge id"),
    (("history", "--tree", "a"), "error: --tree: 'a' is not an edge id"),
])
def test_cli_non_integer_edge_id_names_its_flag(argv, message):
    out = run_cli(argv[0], "--graph", G4, *argv[1:])
    assert _one_error_line(out) == message
    assert out.stdout == ""


def test_cli_history():
    out = run_cli("history", "--graph", G4, "--tree", "0,3",
                  "--oracle", f"file:{TREE_FILE}")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "2 Se\n1 I\n0 Si\n3 L\n"


def test_cli_history_names_from_map():
    out = run_cli("history", "--map", MAP, "--tree", "1,2",
                  "--oracle", "embedding")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert len(lines) == 4
    assert {line.split()[0] for line in lines} == {"a", "b", "c", "d"}


def test_cli_partition():
    out = run_cli("partition", "--graph", G4, "--oracle", f"file:{TREE_FILE}")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "tree={0,1} lower={0} upper={0,1,3} size=4 monomial=x^1*y^1",
        "tree={0,2} lower={2} upper={0,2} size=2 monomial=x^1*y^0",
        "tree={1,2} lower={1,2} upper={0,1,2} size=2 monomial=x^0*y^1",
        "tree={1,3} lower={} upper={1,3} size=4 monomial=x^2*y^0",
        "tree={2,3} lower={2,3} upper={0,1,2,3} size=4 monomial=x^0*y^2",
    ]


def test_cli_partition_dot():
    out = run_cli("partition", "--graph", G4, "--oracle", "linear", "--dot")
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("graph subgraph_lattice {")
    assert '"{0,1,2,3}"' in out.stdout
    assert out.stdout.count("--") == 32  # 4 * 2^3 cover relations


def test_cli_partition_dot_over_the_class_table_cap(tmp_path):
    path = tmp_path / "grid3x5.graph"  # 22 edges: 2^22 lattice nodes
    gr.save_graph(grid(3, 5), path)
    out = run_cli("partition", "--graph", str(path), "--dot")
    assert _one_error_line(out) == (
        "error: materialization is capped at 20 edges; use "
        "representative_tree for point queries")
    assert out.stdout == ""


def test_cli_crosscheck_ok():
    out = run_cli("crosscheck", "--graph", G4, "--seeds", "2")
    assert out.returncode == 0, out.stderr
    assert "FAIL" not in out.stdout


def test_cli_crosscheck_with_file_oracle():
    out = run_cli("crosscheck", "--graph", G4, "--seeds", "1",
                  "--oracle", f"file:{TREE_FILE}")
    assert out.returncode == 0, out.stderr
    assert f"tree-activity-sum[file:{TREE_FILE}]" in out.stdout


def test_cli_crosscheck_refuses_a_negative_seed_count():
    out = run_cli("crosscheck", "--graph", G4, "--seeds", "-2")
    assert _one_error_line(out) == "error: --seeds: -2 is negative"
    assert out.stdout == ""


def test_cli_crosscheck_over_its_cap_is_one_error_line(tmp_path):
    path = tmp_path / "path21.graph"
    gr.save_graph(path_graph(21), path)
    # typing 4 x 2^21 subgraphs before the refusal would take minutes
    out = subprocess.run(
        [sys.executable, "-m", "tutte_activities.cli", "crosscheck",
         "--graph", str(path)],
        capture_output=True, text=True, env=CLI_ENV, timeout=30)
    assert _one_error_line(out) == f"error: {CROSSCHECK_CAP}"
    assert out.stdout == ""


def test_cli_crosscheck_with_map():
    out = run_cli("crosscheck", "--map", MAP, "--seeds", "1")
    assert out.returncode == 0, out.stderr
    assert "embedding-as-decision-oracle" in out.stdout


def test_cli_conjecture_scan_clean_graph():
    out = run_cli("conjecture-scan", "--graph",
                  str(graph_path("two_parallel")))
    assert out.returncode == 0, out.stderr
    assert "strongly descriptive: 2" in out.stdout
    assert "every survivor leaves some edge never active" in out.stdout


def test_cli_conjecture_scan_single_vertex(tmp_path):
    path = tmp_path / "vertex.graph"
    path.write_text("vertices 1\n")
    out = run_cli("conjecture-scan", "--graph", str(path))
    assert out.returncode == 0, out.stdout + out.stderr
    assert "strongly descriptive: 1" in out.stdout
    assert "all survivors realized by decision trees" in out.stdout


def test_cli_conjecture_scan_reports_findings():
    out = run_cli("conjecture-scan", "--graph", G4)
    assert out.returncode == 1  # counterexamples found and reported
    assert "counterexample" in out.stdout


def test_cli_rejects_corrupt_decision_tree(tmp_path):
    bad = tmp_path / "bad.tree"
    bad.write_text("(0 (0 (1) (1)) (1 (0) (0)))\n")  # duplicate on a path
    out = run_cli("history", "--graph", str(graph_path("two_parallel")),
                  "--tree", "-", "--oracle", f"file:{bad}")
    assert out.returncode != 0
    assert "repeated" in out.stderr


def test_cli_parse_error_has_line_number(tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("vertices 2\nedge 0 0\n")
    out = run_cli("tutte", "--graph", str(bad))
    assert out.returncode != 0
    assert "line 2" in out.stderr
    bad.write_text("vertices 2\nedge 0 0 x\n")
    out = run_cli("tutte", "--graph", str(bad))
    assert _one_error_line(out) == \
        f"error: {bad}: line 2: expected an integer, got 'x'"


@pytest.mark.parametrize("flag,text,message", [
    ("--graph", "vertices 3\nedge 0 0 1\nvertices 2\n",
     "line 3: repeated 'vertices' line"),
    ("--map", "halfedges 2\nsigma (a)(b)\nsigma (a b)\nalpha (a b)\nroot a\n",
     "line 3: repeated 'sigma' line"),
], ids=["vertices", "sigma"])
def test_cli_repeated_directive_is_one_error_line(tmp_path, flag, text,
                                                  message):
    path = tmp_path / "repeated"
    path.write_text(text)
    out = run_cli("tutte", flag, str(path), "--method", "delcon")
    assert _one_error_line(out) == f"error: {path}: {message}"
    assert out.stdout == ""


@pytest.mark.parametrize("oracle", ["embedding", "blossoming", "linear"])
def test_cli_activity_refuses_a_non_tree_alike(oracle):
    out = run_cli("activity", "--map", MAP, "--oracle", oracle, "--tree", "0")
    assert _one_error_line(out) == "error: edge set is not a spanning tree"
    assert out.stdout == ""


def _one_error_line(out):
    assert out.returncode != 0
    assert "Traceback" not in out.stderr
    lines = out.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr
    return lines[0]


def test_cli_huge_edge_id_is_one_error_line(tmp_path):
    # Every mask is as wide as the largest id: this graph once ended the
    # random oracle's walk in a MemoryError.
    huge = tmp_path / "huge.graph"
    huge.write_text("vertices 2\nedge 0 0 1\nedge 4000000000 0 1\n")
    out = run_cli("tutte", "--graph", str(huge), "--method", "activity",
                  "--oracle", "random:1")
    assert _one_error_line(out) == (
        f"error: {huge}: edge id 4000000000 is above the largest id, 1048576")
    assert out.stdout == ""


def test_cli_conjecture_scan_over_budget(tmp_path):
    out = run_cli("conjecture-scan", "--graph", G4, "--budget", "10")
    assert _one_error_line(out) == \
        "error: 1048576 candidate activities exceed budget 10"
    assert out.stdout == ""
    k6 = tmp_path / "k6.graph"  # 1,296 trees of 15 edges
    gr.save_graph(complete(6), k6)
    out = run_cli("conjecture-scan", "--graph", str(k6))
    assert _one_error_line(out) == \
        "error: 2^19440 candidate activities exceed budget 4194304"


def test_cli_definitional_over_its_cap(tmp_path):
    path = tmp_path / "grid5x5.graph"  # 40 edges: 2^40 subgraphs
    gr.save_graph(grid(5, 5), path)
    out = run_cli("tutte", "--graph", str(path))
    assert _one_error_line(out) == (
        "error: definitional is capped at 24 edges (it sums over all 2^m "
        "subgraphs); use delcon")
    assert out.stdout == ""


@pytest.mark.parametrize("command", ["history", "activity"])
def test_cli_rejects_edge_id_not_in_graph(command):
    out = run_cli(command, "--graph", str(graph_path("triangle")),
                  "--tree", "0,9")
    assert _one_error_line(out) == "error: no edge with id 9"
    assert out.stdout == ""


@pytest.mark.parametrize("text", ["(2", "(2 (1", "(2 (1 (0 (3) (3))", ""])
def test_cli_truncated_decision_tree(tmp_path, text):
    bad = tmp_path / "cut.tree"
    bad.write_text(text)
    out = run_cli("tutte", "--graph", G4, "--method", "activity",
                  "--oracle", f"file:{bad}")
    assert _one_error_line(out) == f"error: {bad}: unexpected end of tree"


def test_cli_deep_decision_tree(tmp_path):
    deep = tmp_path / "deep.tree"
    deep.write_text("(0 " * 3000 + "(0)" + ")" * 3000 + "\n")
    out = run_cli("tutte", "--graph", G4, "--method", "activity",
                  "--oracle", f"file:{deep}")
    assert out.returncode == 1
    assert _one_error_line(out) == \
        f"error: {deep}: explicit trees are limited to 16 edges"
    assert out.stdout == ""


def test_cli_unparsable_map_names_its_path(tmp_path):
    bad = tmp_path / "bad.map"
    bad.write_text("halfedges 2\nsigma (a b)\nalpha (a b)\nroot z\n")
    out = run_cli("tutte", "--map", str(bad))
    assert _one_error_line(out) == \
        f"error: {bad}: unknown root half-edge 'z'"
    assert out.stdout == ""


def test_cli_unparsable_decision_tree_names_its_path(tmp_path):
    bad = tmp_path / "bad.tree"
    bad.write_text("2 (1) (3)\n")
    out = run_cli("tutte", "--graph", G4, "--method", "activity",
                  "--oracle", f"file:{bad}")
    assert _one_error_line(out) == f"error: {bad}: expected '('"
    assert out.stdout == ""


def test_parse_decision_tree_truncated():
    from tutte_activities.decision import parse_decision_tree
    for text in ("(2", "(2 (1", "(2 (1) (3)"):
        with pytest.raises(ValueError, match="unexpected end of tree"):
            parse_decision_tree(text)


@pytest.mark.parametrize("flag", ["--graph", "--map", "--oracle"])
def test_cli_missing_input_file(tmp_path, flag):
    missing = tmp_path / "absent.txt"
    if flag == "--oracle":
        args = ["--graph", G4, "--method", "activity",
                "--oracle", f"file:{missing}"]
    else:
        args = [flag, str(missing)]
    out = run_cli("tutte", *args)
    assert _one_error_line(out) == \
        f"error: {missing}: No such file or directory"


@pytest.mark.parametrize("spec,message", [
    ("embedding", "error: the embedding order map needs a map"),
    ("blossoming", "error: the blossoming order map needs a map"),
    ("bogus", "error: unknown oracle spec 'bogus'"),
    ("random:x", "error: unknown oracle spec 'random:x'"),
    ("linear:1,x", "error: unknown oracle spec 'linear:1,x'"),
    ("linear:5,0,1,2,3", "error: order must be a permutation of the edges"),
    ("linear:0", "error: order must be a permutation of the edges"),
])
def test_cli_bad_oracle_spec(spec, message):
    out = run_cli("tutte", "--graph", G4, "--method", "activity",
                  "--oracle", spec)
    assert _one_error_line(out) == message
    assert out.stdout == ""


@pytest.mark.parametrize("args,message", [
    ((), "error: need --graph or --map"),
    (("--graph", G4, "--map", str(map_path("parallel_triangle"))),
     "error: use --graph or --map, not both (a map provides its own graph)"),
])
def test_cli_needs_exactly_one_input(args, message):
    out = run_cli("tutte", "--method", "delcon", *args)
    assert _one_error_line(out) == message
    assert out.stdout == ""


@pytest.mark.parametrize(
    "demo", sorted(path.name for path in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         capture_output=True, text=True, env=CLI_ENV)
    assert out.returncode == 0, out.stderr
    if demo == "tutte_routes.py":
        routes = out.stdout.split("\n\n")[0].splitlines()
        assert len(routes) == 10
        assert all(line.endswith("x^2 + x*y + x + y^2 + y")
                   for line in routes)
