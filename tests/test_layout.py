"""One mesh format: the package reads edges, flaps and corners through the
index arrays of ``TriMesh`` (``edge_ends``, ``face_edges``, ``flap_edges``,
...).  ``TriMesh`` builds no per-element tables, keeps its element sets as
read-only int64 arrays, and outside ``mesh.py`` nothing calls its one
per-element view, ``edge_flap``.  Every flag of the
``ddg`` command line is read by its handler.  One helper beside ``Defect``
floors every scale at 1e-300, and one helper in ``moebius.py`` multiplies
batched 2x2 matrices.  Every file is opened with an explicit encoding."""

import argparse
import ast
import inspect
from functools import cached_property
from pathlib import Path

import numpy as np

from ddgconf import TriMesh, build
from ddgconf.cli import build_parser

from conftest import WHEEL6_FACES

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


def test_one_scale_floor():
    """The literal 1e-300 occurs once in the package, in ``mesh._floor``;
    every check floors its scale through ``mesh.Defect`` or that helper."""
    floors = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant) and node.value == 1e-300
    ]
    tree = ast.parse((PACKAGE / "mesh.py").read_text())
    (helper,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_floor"]
    assert floors == [f"mesh.py:{helper.body[-1].lineno}"]


def test_one_batched_matrix_product():
    """``moebius.py`` has no ``@``: every batched 2x2 product goes through
    its one helper, ``_mul``."""
    tree = ast.parse((PACKAGE / "moebius.py").read_text())
    products = [node.lineno for node in ast.walk(tree) if isinstance(getattr(node, "op", None), ast.MatMult)]
    assert products == []
    assert any(isinstance(n, ast.FunctionDef) and n.name == "_mul" for n in tree.body)


def test_trimesh_keeps_no_per_element_tables():
    mesh = build(WHEEL6_FACES)
    deleted = LOOKUPS - {"edge_flap"} | {"_star", "_build_vertex_stars", "vertex_star"}
    assert sorted(name for name in deleted if hasattr(mesh, name)) == []


def test_trimesh_element_sets_are_read_only_arrays():
    """``TriMesh`` keeps index arrays, not lists beside them.  The one list is
    ``interior_vertices``, which ``bench/test_bench.py`` compares with a list.
    Every array a cached property stores is read-only."""
    mesh = build(WHEEL6_FACES)
    cached = [name for name, value in vars(TriMesh).items() if isinstance(value, cached_property)]
    for name in cached:
        getattr(mesh, name)
    lists = sorted(name for name, value in vars(mesh).items() if isinstance(value, (list, tuple)))
    assert lists == ["interior_vertices"]
    arrays = [name for name in cached if isinstance(vars(mesh)[name], np.ndarray)]
    assert {"flap_edges", "flap_apices", "vertex_corners", "cycle_rows"} <= set(arrays)
    assert [name for name in arrays if vars(mesh)[name].flags.writeable] == []
    for name in ("interior_edges", "boundary_edges", "boundary_vertices"):
        values = getattr(mesh, name)
        assert values.dtype == np.int64 and not values.flags.writeable, name
    assert not hasattr(mesh, "edges")


def test_every_open_names_its_encoding():
    """Files are read and written as UTF-8 whatever the locale: every
    ``open(...)`` call in the package passes ``encoding``."""
    opens = [
        (f"{path.name}:{node.lineno}", {k.arg for k in node.keywords})
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"
    ]
    assert opens and [where for where, keywords in opens if "encoding" not in keywords] == []


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_every_cli_flag_is_read():
    """No ``ddg`` subcommand accepts a flag and ignores it: each optional
    dest is read as ``args.<dest>`` by the subcommand's handler (``main``
    reads ``-o``)."""
    unread = []
    for command, group in _subcommands(build_parser()).items():
        for which, sp in _subcommands(group).items():
            tree = ast.parse(inspect.getsource(sp.get_default("func")))
            read = {
                node.attr
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args"
            }
            for action in sp._actions:
                if action.option_strings and action.dest not in ("help", "output", *read):
                    unread.append(f"{command} {which} {action.option_strings[-1]}")
    assert unread == []


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()
