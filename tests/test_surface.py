"""The library surface: every function that no library code calls is pinned.

A function or method defined in the package that no other library code
references, by name or by attribute, is reached only from outside: from
users, the demos, the benchmark or the tests.  Each such name is kept on
purpose, so a new one has to be added here, in the open.  A test-side
reference belongs in `conftest.py` instead.
"""

import ast

from conftest import ROOT

PACKAGE = ROOT / "src" / "tutte_activities"

# Each name is kept for a reader outside the library: README documents it
# (the map minors, the machine form and its reader, genus, save_map and the
# two forest refinements), the demos use it (edge_id_by_name),
# `class_table`'s refusal names it (representative_tree), the benchmark's
# workloads call it (the three oracle builders, desk_corpus, save_graph), or
# it is public API.
KEPT = {
    "map_delete", "map_contract", "machine_form", "from_machine_form",
    "genus", "save_map",
    "edge_id_by_name",
    "forest_partition_types", "forest_partition_activity",
    "representative_tree",
    "from_linear_order", "random_oracle", "from_order_map", "desk_corpus",
    "save_graph",
    "canonical_form", "cycl", "x_minus_1_pow", "y_minus_1_pow",
    "zero", "constant", "monomial", "scale", "evaluate",
}


def _uncalled_functions():
    defined = set()
    referenced = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined - referenced


def test_functions_no_library_code_calls_are_the_kept_ones():
    assert _uncalled_functions() == KEPT
