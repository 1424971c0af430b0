"""One mesh format: outside ``mesh.py`` the package reads edges, flaps and
corners through the index arrays of ``TriMesh`` (``edge_ends``,
``face_edges``, ``flap_edges``, ...), never through the per-element lookups
that ``TriMesh`` keeps for the tests."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ddgconf"

LOOKUPS = {"edge_index", "edge_left", "edge_right", "edge_flap", "opposite_vertex", "_face_of_oriented"}


def test_modules_read_the_mesh_through_index_arrays():
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "mesh.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "value", None)
            if isinstance(node, (ast.Attribute, ast.Constant)) and name in LOOKUPS:
                reads.append(f"{path.name}:{node.lineno}: {name}")
    assert reads == []
