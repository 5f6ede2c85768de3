import os
import subprocess
import sys

import pytest

from tutte_activities import graph as gr
from tutte_activities import classic, cli, harness
from tutte_activities.harness import (canonical_form, connected_multigraphs,
                                      crosscheck)
from conftest import (FIXTURES, ROOT, fixture_graph, fixture_map, graph_path,
                      grid, map_path, permuted)

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
        g4, monkeypatch):
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


def test_dfs_oracle_check_catches_a_wrong_dfs_oracle(monkeypatch):
    # The forest-activity route sums to the Tutte polynomial for any oracle,
    # so only the DFS oracle check can see a wrong DFS rule.
    monkeypatch.setattr(classic.DfsOracle, "choose",
                        lambda self, prefix, unused: unused[0])
    report = crosscheck(fixture_graph("dfs_five"), seeds=range(1))
    failed = {r.name for r in report.results if not r.ok}
    assert "dfs-as-decision-oracle" in failed
    assert "dfs-descriptive" not in failed


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


def test_connected_multigraph_enumeration():
    graphs = connected_multigraphs(2)
    # one edge; one loop; two loops; loop plus edge; parallel pair; path:
    # exactly the six iso classes with at most two edges
    assert len(graphs) == 6
    keys = {canonical_form(g) for g in graphs}
    assert len(keys) == 6
    assert all(gr.is_connected(g) for g in graphs)


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


def _one_error_line(out):
    assert out.returncode != 0
    assert "Traceback" not in out.stderr
    lines = out.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr
    return lines[0]


def test_cli_conjecture_scan_over_budget():
    out = run_cli("conjecture-scan", "--graph", G4, "--budget", "10")
    assert _one_error_line(out) == \
        "error: 1048576 candidate activities exceed budget 10"
    assert out.stdout == ""


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
