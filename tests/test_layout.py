"""One mesh format: the package reads edges, flaps and corners through the
index arrays of ``TriMesh`` (``edge_ends``, ``face_edges``, ``flap_edges``,
...).  ``TriMesh`` builds no per-element tables, keeps its element sets as
read-only int64 arrays, and outside ``mesh.py`` nothing calls its one
per-element view, ``edge_flap``.  Every flag of the
``ddg`` command line is read by its handler, and ``main`` reads every
positional file but the two of ``minimal verify``.  Library functions take
one input form and no parameter that no caller sets.  One helper beside ``Defect``
floors every scale at 1e-300, and one helper in ``moebius.py`` multiplies
batched 2x2 matrices.  The corner layout is known to ``mesh.py`` alone, a
``Realization`` builds its cotangents on first use, and ``TriMesh`` keeps
one graph of its vertices and sorts its corner keys once.  Dual cycles
and dual polygons share one layout, ``vertex_cycles``, and every sum around
a vertex, the cotan Laplacian's too, is one ``TriMesh.cycle_sum``: no
module forms a ``.T @`` product.  ``TriMesh.vertex_stars`` is the one
order of the corners around a vertex, and ``Realization.face_dz`` the one
gather of positions by face (the Moebius face maps excepted).  No module
imports a name it does not read or keeps a private function nothing
references.  An OBJ is read
by one bulk parse with the line loop as its fallback, and every tree
integration goes through ``mesh.integrate``.  Every import
sits at module level, every file is opened with an explicit encoding, and
every report is written by ``fileio.dump_json``."""

import argparse
import ast
import inspect
import textwrap
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from ddgconf import Realization, TriMesh, build, deform, fileio, hqd, laplace, realization, weierstrass
from ddgconf import mesh as mesh_module
from ddgconf.cli import COMMANDS, build_parser
from ddgconf.mesh import _Graph

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


def _package_trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_corner_layout_only_in_mesh():
    """Outside ``mesh.py`` no module does ``% 3`` corner arithmetic or reads
    the corner table ``_edge_corners``: they ask ``TriMesh.next_corner``,
    ``edge_corners`` and ``flap_corners``."""
    reads = []
    for name, tree in _package_trees():
        if name == "mesh.py":
            continue
        for node in ast.walk(tree):
            mod3 = isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
            if mod3 and isinstance(node.right, ast.Constant) and node.right.value == 3:
                reads.append(f"{name}:{node.lineno}: % 3")
            if getattr(node, "attr", getattr(node, "id", None)) == "_edge_corners":
                reads.append(f"{name}:{node.lineno}: _edge_corners")
    assert reads == []


def test_deleted_realization_and_graph_members(wheel6):
    r = wheel6
    assert [name for name in ("tri", "circumradius", "cot_at") if hasattr(r, name)] == []
    assert not hasattr(r.mesh._primal_graph, "d") and not hasattr(_Graph, "d")


def test_deleted_orientation_check_and_gradient_field():
    """``TriMesh.__init__`` sorts the corner keys once, in ``np.unique``,
    which also finds a repeated oriented edge; ``hqd.gradient`` returns the
    per-face gradient array itself."""
    assert not hasattr(mesh_module, "_check_oriented_edges") and not hasattr(hqd, "GradField")
    init = ast.parse(textwrap.dedent(inspect.getsource(TriMesh.__init__)))
    calls = [
        getattr(node.func, "attr", getattr(node.func, "id", None))
        for node in ast.walk(init)
        if isinstance(node, ast.Call)
    ]
    assert "unique" in calls and "argsort" not in calls


def test_one_bulk_obj_parse():
    """``_read_obj_arrays`` tries one bulk parse, then the line loop; the
    second fast path it once had, ``_parse_obj_arrays``, is gone."""
    assert not hasattr(fileio, "_parse_obj_arrays")
    tree = ast.parse(textwrap.dedent(inspect.getsource(fileio._read_obj_arrays)))
    calls = [getattr(node.func, "id", "") for node in ast.walk(tree) if isinstance(node, ast.Call)]
    parses = sorted(name for name in calls if name.startswith("_parse_obj"))
    assert parses == ["_parse_obj_block", "_parse_obj_lines"]


def test_one_tree_integrator():
    """Only ``mesh.py`` builds a BFS tree, and ``integrate`` reads the level
    schedule its ``_Graph`` caches per tree instead of sorting or searching
    the BFS order again on each call."""
    bfs = [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees()
        for node in ast.walk(tree)
        if getattr(node, "attr", getattr(node, "id", None)) == "breadth_first_order"
    ]
    assert bfs and {where.split(":")[0] for where in bfs} == {"mesh.py"}
    tree = ast.parse(textwrap.dedent(inspect.getsource(mesh_module.integrate)))
    names = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(tree)}
    assert names.isdisjoint({"argsort", "searchsorted", "breadth_first_order"})


def test_dual_cycles_in_one_layout(wheel6):
    """No slot-major copy of ``vertex_cycles`` is kept, and the polygons of
    the dual mesh are ``cycle_faces`` itself, not a list of lists."""
    assert [name for name in ("cycle_rows", "cycle_slots") if hasattr(TriMesh, name)] == []
    assert weierstrass.dual_mesh(wheel6, np.zeros((6, 3)))[1] is wheel6.mesh.cycle_faces


def test_one_vertex_sum_operator():
    """The Laplacian sums through ``TriMesh.cycle_sum``; ``TriMesh`` keeps no
    incidence operator beside ``vertex_cycles``, and no module transposes
    an operator to sum over vertices."""
    assert not hasattr(TriMesh, "interior_incidence")
    source = ast.parse(textwrap.dedent(inspect.getsource(laplace.laplacian)))
    calls = {getattr(node.func, "attr", None) for node in ast.walk(source) if isinstance(node, ast.Call)}
    assert "cycle_sum" in calls
    transposed = [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(getattr(node, "op", None), ast.MatMult) and getattr(node.left, "attr", None) == "T"
    ]
    assert transposed == []


def test_cotangents_are_built_on_first_use(wheel6):
    r = Realization(wheel6.mesh, wheel6.z)
    assert "cot" not in vars(r)
    cot = r.cot
    assert vars(r)["cot"] is cot and r.cot is cot
    assert cot.shape == (len(r.mesh.faces), 3) and not cot.flags.writeable


def test_imports_at_module_level():
    """No relative import inside a function or class: the package has no
    import cycle to break that way."""
    nested = [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node not in tree.body
    ]
    assert nested == []


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


def test_one_star_order():
    """``TriMesh.vertex_stars`` is the one order of the corners around a
    vertex: no rank per corner and no face-ordered copy is kept beside it."""
    mesh = build(WHEEL6_FACES)
    kept = [name for name in ("vertex_corners", "_star_rank") if hasattr(TriMesh, name) or hasattr(mesh, name)]
    assert kept == []
    for fn in (TriMesh.vertex_cycles.func, realization._per_vertex_from_edges):
        source = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        names = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(source)}
        assert "vertex_stars" in names and "argsort" not in names, fn.__name__


def _functions(tree):
    """``(function name, node)`` for every node under a module-level function or method."""
    for top in tree.body:
        for fn in [top] + (top.body if isinstance(top, ast.ClassDef) else []):
            if isinstance(fn, ast.FunctionDef):
                yield from ((fn.name, node) for node in ast.walk(fn))


def test_positions_are_gathered_by_face_once():
    """Outside ``realization.py``, which builds ``Realization.face_dz``, no
    module indexes positions ``z`` by ``mesh.faces``; the face maps of
    ``moebius.transition_matrices`` are the one exception, left for the move
    of the Moebius layer into a local frame."""
    gathers = set()
    for name, tree in _package_trees():
        if name == "realization.py":
            continue
        for fn, node in _functions(tree):
            value = getattr(node, "value", None)
            if isinstance(node, ast.Subscript) and getattr(value, "attr", getattr(value, "id", None)) == "z":
                if "faces" in {getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(node.slice)}:
                    gathers.add(f"{name}:{fn}")
    assert gathers == {"moebius.py:transition_matrices"}


def test_no_unused_import_or_private_function():
    """Every name a module imports is read in it (``__init__.py`` exports
    its names), and every module-level ``_private`` function is referenced
    somewhere in the package."""
    unused, referenced, private = [], set(), []
    for name, tree in _package_trees():
        imported = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if name != "__init__.py":
            unused += [f"{name}:{line}: {alias}" for alias, line in imported.items() if alias not in read]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
            elif isinstance(node, (ast.Name, ast.Attribute)):
                referenced.add(getattr(node, "attr", getattr(node, "id", None)))
        private += [
            f"{name}:{node.lineno}: {node.name}"
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
        ]
    assert unused == []
    assert [where for where in private if where.rsplit(" ", 1)[1] not in referenced] == []


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
    assert {"flap_edges", "flap_apices", "cycle_faces"} <= set(arrays)
    assert [name for name in arrays if vars(mesh)[name].flags.writeable] == []
    for name in ("interior_edges", "boundary_edges", "boundary_vertices", "vertex_stars"):
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


def test_one_json_writer():
    """No ``json.dump``/``json.dumps`` call in the package: every report goes
    through ``fileio.dump_json``, the one owner of the byte format."""
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) in ("dump", "dumps")
    ]
    assert calls == []


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


def test_main_reads_the_positional_files():
    """No handler reads ``args.mesh``, ``args.a``, ``args.b`` or ``args.data``:
    ``main`` reads them and passes the realizations and the JSON document."""
    reads = [
        f"{handler.__name__}: args.{node.attr}"
        for handler in {spec[0] for spec in COMMANDS.values()}
        for node in ast.walk(ast.parse(inspect.getsource(handler)))
        if isinstance(node, ast.Attribute)
        and getattr(node.value, "id", None) == "args"
        and node.attr in ("mesh", "a", "b", "data")
    ]
    assert reads == []


def test_parameters_no_caller_sets_are_constants():
    """Every caller left these at their defaults, so they are constants."""
    signatures = {
        deform.check_triangle_compat: "fd_step",
        hqd.cross_ratio_rate_check: "fd_tol analytic_tol",
        hqd.qdiff_from_harmonic: "rtol",
        laplace.require_harmonic: "rtol",
        laplace.conjugate_harmonic: "rtol",
        weierstrass.weierstrass_integrate: "alpha",
    }
    kept = [
        f"{fn.__name__}({name})"
        for fn, names in signatures.items()
        for name in names.split()
        if name in inspect.signature(fn).parameters
    ]
    assert kept == []
    assert "rtol" in inspect.signature(laplace.check_harmonic).parameters  # set by --tol


def test_pushforward_takes_only_a_moebius_map(wheel6):
    q = hqd.QuadDiff(np.zeros(len(wheel6.mesh.interior_edges)))
    with pytest.raises(AttributeError):
        hqd.qdiff_moebius_pushforward_check(wheel6, q, (1.0, 0.5, 0.0, 1.0))
