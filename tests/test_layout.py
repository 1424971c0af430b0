"""One mesh format: the package reads edges, flaps and corners through the
index arrays of ``TriMesh`` (``edge_ends``, ``face_edges``, ``flap_edges``,
...).  ``TriMesh`` builds no per-element tables, keeps its element sets as
int64 arrays, and outside ``mesh.py`` nothing calls its one per-element
view, ``edge_flap``; no array a ``TriMesh`` or ``Realization`` keeps, cached
tables included, is writeable, and one decorator, ``mesh.cached_property``,
keeps every cached table read-only.  Every flag of the
``ddg`` command line is read by its handler, and ``main`` reads every
positional file but the two of ``minimal verify``.  Library functions take
one input form and no parameter that no caller sets.  One helper beside ``Defect``
floors every scale at 1e-300, and one helper in ``moebius.py`` multiplies
batched 2x2 matrices.  The corner layout is known to ``mesh.py`` alone, a
``Realization`` builds its cotangents on first use, and ``TriMesh`` keeps
one graph of its vertices and sorts its corner keys once.  Dual cycles
and dual polygons share one layout, ``vertex_cycles``, and every sum around
a vertex, the cotan Laplacian's too, is one ``TriMesh.cycle_sum``: no
module forms a ``.T @`` product.  The two vertex sums of an interior-edge
function and their ``"vertex"`` ``Defect``s have one owner,
``hqd._vertex_sums``, which ``verify_qdiff`` and ``check_sl2_form_closed``
read; ``laplace.check_harmonic`` is the one other check that builds a
``"vertex"`` ``Defect`` from a ``cycle_sum``.  The real part of ``q`` has
one rule, ``hqd._real_part``, which ``verify_qdiff`` and
``harmonic_from_qdiff`` both read.  ``TriMesh.vertex_stars`` is the one
order of the corners around a vertex, and ``Realization.face_dz`` the one
gather of positions by face (the Moebius face maps excepted).  The interior
rows of ``edge_dz`` and their squared lengths are ``Realization`` caches
that no other module rebuilds, and ``integrate`` reads the co-tree of a
spanning tree from ``_Graph.tree`` instead of gathering it per call.  The
star and slot schedules and the ones-valued copy of ``vertex_cycles`` are
built once per mesh: the per-vertex reconstruction, the cycle products and
``cycle_sum`` count, sort and build nothing per call.  A field is checked
once per realization: the Laplacian of ``u`` and the vertex sums of ``q``
are taken once for a chain of steps that each require them.  No module
imports a name it does not read or keeps a private function nothing
references.  An OBJ is read
by one bulk parse with the line loop as its fallback, and every tree
integration goes through ``mesh.integrate``.  The package makes two
``splu`` calls, each with literal settings: the ordering's carrier in
``Realization.dirichlet_system`` and the factor in ``solve_dirichlet``.
Every import sits at module level, every file is opened with an explicit
encoding, and every report is written by ``fileio.dump_json``.  An element-wise verdict
is raised only through ``Defect.require``, which names the failing element
beside its defect and scale; ``NotHolomorphic`` and ``NotMinimal`` are the
two verdicts on a whole check that a module raises by name."""

import argparse
import ast
import importlib
import inspect
import textwrap
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from ddgconf import Realization, TriMesh, build, deform, errors, fileio, hqd, laplace, moebius, realization, weierstrass
from ddgconf import mesh as mesh_module
from ddgconf.cli import COMMANDS, build_parser
from ddgconf.mesh import _Graph

from conftest import WHEEL6_FACES, delaunay_disk

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
    assert not hasattr(deform, "require_triangle_compat")


ELEMENTWISE = {"IntegrationDefect", "ClosureDefect", "NotRealizable", "NotHarmonic", "IncompatibleRates"}
WHOLE_CHECK = {"NotHolomorphic", "NotMinimal"}


def test_elementwise_verdicts_raise_only_through_require():
    """Outside ``errors.py`` an element-wise verdict's error is named only as
    the error argument of a ``.require(tol, error, message)`` call, so every
    such failure names its element, defect and scale.  The verdicts on a
    whole check are the only ones raised by name."""
    verdicts = {
        name for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.VerificationError)
    } - {"VerificationError"}
    assert verdicts == ELEMENTWISE | WHOLE_CHECK
    named, raised = [], set()
    for name, tree in _package_trees():
        if name == "errors.py":
            continue
        nodes = list(ast.walk(tree))
        requires = [n for n in nodes if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "require"]
        allowed = {id(call.args[1]) for call in requires if len(call.args) > 1}
        for node in nodes:
            ident = getattr(node, "attr", getattr(node, "id", None))
            if ident in ELEMENTWISE and id(node) not in allowed:
                named.append(f"{name}:{node.lineno}: {ident}")
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                raised.add(getattr(node.exc.func, "attr", getattr(node.exc.func, "id", None)))
    assert named == []
    assert raised & verdicts == WHOLE_CHECK


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


def test_one_owner_of_the_two_vertex_sums():
    """``hqd._vertex_sums`` is the one function that builds a ``"vertex"``
    ``Defect`` from a ``cycle_sum``, through any chain of package calls:
    ``verify_qdiff`` and ``check_sl2_form_closed`` both read it, so their
    verdicts on ``q`` and on the rates ``-q / 2`` cannot part.  The one
    exception is ``laplace.check_harmonic``, whose contract is ``|Lh| <=
    rtol |dh|_inf``, not a scale taken from the summed terms."""
    calls, builders = {}, set()
    for module, tree in _package_trees():
        for fn, node in _functions(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "attr", getattr(node.func, "id", None))
                calls.setdefault(fn, set()).add(callee)
                args = [*node.args, *(k.value for k in node.keywords)]
                if callee == "Defect" and "vertex" in {getattr(a, "value", None) for a in args}:
                    builders.add((module[:-3], fn))

    def sums_around_a_vertex(fn):
        stack, seen = [fn], set()
        while stack:
            fn = stack.pop()
            if fn == "cycle_sum":
                return True
            if fn not in seen:
                seen.add(fn)
                stack += calls.get(fn, ())
        return False

    owners = sorted(f"{module}.{fn}" for module, fn in builders if sums_around_a_vertex(fn))
    assert owners == ["hqd._vertex_sums", "laplace.check_harmonic"]


def test_one_owner_of_the_real_part():
    """``hqd._real_part`` is the one function that builds a ``Defect`` from
    ``q.real``, and ``verify_qdiff`` and ``harmonic_from_qdiff`` both read it,
    so their verdicts on a real part cannot part.  The two-sided face
    evaluation, ``_require_realizable``, is gone: ``harmonic_from_qdiff``
    reads one face per edge and never gathers a face potential by the whole
    ``(E, 2)`` ``edge_faces``."""
    assert not hasattr(hqd, "_require_realizable")
    calls, builders = {}, []
    for module, tree in _package_trees():
        for fn, node in _functions(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "attr", getattr(node.func, "id", None))
                calls.setdefault(fn, set()).add(callee)
                reals = {
                    n.value.id
                    for arg in node.args
                    for n in ast.walk(arg)
                    if getattr(n, "attr", None) == "real" and isinstance(n.value, ast.Name)
                }
                if callee == "Defect" and "q" in reals:
                    builders.append(f"{module[:-3]}.{fn}")
    assert builders == ["hqd._real_part"]
    assert "_real_part" in calls["_qdiff_defects"] and "_real_part" in calls["harmonic_from_qdiff"]
    source = ast.parse(textwrap.dedent(inspect.getsource(hqd.harmonic_from_qdiff)))
    gathers = [
        node.lineno
        for node in ast.walk(source)
        if isinstance(node, ast.Subscript) and getattr(node.slice, "attr", None) == "edge_faces"
    ]
    assert gathers == []


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


SCHEDULES = (
    "star_counts", "star_starts", "least_corners", "unsigned_cycles", "slot_schedule", "slot_counts", "slot_picks"
)


def test_mesh_tables_are_not_rebuilt_per_call(wheel6):
    """``_per_vertex_from_edges`` and ``_cycle_products`` count, sort and
    difference nothing: they read the star and slot schedules ``TriMesh``
    keeps.  ``cycle_sum`` builds no sparse operator: it reads
    ``vertex_cycles`` or its ones-valued copy ``unsigned_cycles``.  A second
    call on one mesh reads the same read-only arrays as the first."""
    for fn in (realization._per_vertex_from_edges, moebius._cycle_products, TriMesh.cycle_sum):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        calls = {getattr(n.func, "attr", getattr(n.func, "id", None)) for n in ast.walk(tree) if isinstance(n, ast.Call)}
        assert calls.isdisjoint({"bincount", "argsort", "cumsum", "diff"}), fn.__name__
        assert [name for name in calls if name.endswith(("_array", "_matrix")) and hasattr(sp, name)] == [], fn.__name__
    mesh = wheel6.mesh
    n = len(mesh.interior_edges)
    G = [np.full(n, v, dtype=complex) for v in (1, 0, 0, 1)]
    calls = (
        lambda: realization._per_vertex_from_edges(mesh, np.zeros(mesh.edge_count)),
        lambda: moebius._cycle_products(mesh, G, np.ones(n)),
        lambda: mesh.cycle_sum(np.zeros(n)),
    )
    for call in calls:
        call()
    kept = dict(vars(mesh))
    for call in calls:
        call()
    assert [name for name, value in vars(mesh).items() if kept.get(name) is not value] == []
    for name in SCHEDULES:
        value = kept[name]
        arrays = (value.data, value.indices, value.indptr) if sp.issparse(value) else (value,)
        assert [a.flags.writeable for a in arrays] == [False] * len(arrays), name
    assert np.shares_memory(mesh.unsigned_cycles.indices, mesh.vertex_cycles.indices)
    assert mesh.unsigned_cycles.indptr is mesh.vertex_cycles.indptr


def test_each_field_is_checked_once_per_realization(wheel6, monkeypatch):
    """A check that a step's caller has just run on the same field and
    realization is not run again: the harmonic check of ``u`` serves
    ``qdiff_from_harmonic`` and ``conformal_deformation``, and ``verify_qdiff``
    serves ``weierstrass_integrate``.  The memo keeps one field per check,
    and the null vectors are built once, read-only."""
    r = wheel6
    u = laplace.solve_dirichlet(r, {v: float(v % 3) for v in r.mesh.boundary_vertices.tolist()})
    calls = []
    laplacian, cycle_sum = laplace.laplacian, TriMesh.cycle_sum
    monkeypatch.setattr(laplace, "laplacian", lambda *a: calls.append("laplacian") or laplacian(*a))
    monkeypatch.setattr(TriMesh, "cycle_sum", lambda *a, **k: calls.append("cycle_sum") or cycle_sum(*a, **k))
    q = hqd.qdiff_from_harmonic(r, u)
    deform.conformal_deformation(r, u)
    assert calls == ["laplacian", "cycle_sum"]
    calls.clear()
    hqd.verify_qdiff(r, q)
    weierstrass.weierstrass_integrate(r, q)
    assert calls == ["cycle_sum", "cycle_sum"]
    for k in range(3):
        laplace.check_harmonic(r, u + k)
        hqd.verify_qdiff(r, hqd.QuadDiff(q.imag * (k + 2)))
    assert sorted(vars(r)["_checks"]) == ["check_harmonic", "verify_qdiff"]
    null = r.null_vectors
    assert r.null_vectors is null and not null.flags.writeable


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


def _names(node):
    return {getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(node)}


def test_interior_edge_vectors_are_gathered_once():
    """Outside ``realization.py``, which caches ``interior_dz`` and its
    squared lengths ``interior_dz2``, no module indexes ``edge_dz`` by
    ``interior_edges`` or squares a ``dz``; ``integrate`` reads its co-tree
    nodes and edges from the cached tree and gathers no table of the graph
    or the mesh."""
    found = []
    for name, tree in _package_trees():
        if name == "realization.py":
            continue
        for fn, node in _functions(tree):
            if isinstance(node, ast.Subscript) and "edge_dz" in _names(node.value):
                if "interior_edges" in _names(node.slice):
                    found.append(f"{name}:{fn}: edge_dz[interior_edges]")
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "take":
                if "edge_dz" in _names(node.func.value) and "interior_edges" in _names(node):
                    found.append(f"{name}:{fn}: edge_dz.take(interior_edges)")
            squared = isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            if squared and getattr(node.right, "value", None) == 2:
                if {"dz", "edge_dz", "interior_dz", "face_dz"} & _names(node.left):
                    found.append(f"{name}:{fn}: |dz|**2")
    assert found == []
    source = ast.parse(textwrap.dedent(inspect.getsource(mesh_module.integrate)))
    graph_reads = {
        node.attr
        for node in ast.walk(source)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "g"
    }
    assert graph_reads == {"tree", "n"}
    assert "edge_ends" not in _names(source)
    assert {"head", "tail", "edge_ids", "ends"} <= set(mesh_module._Tree._fields)


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


def test_one_factor_call_with_literal_settings():
    """The package makes two ``splu`` calls: ``Realization.dirichlet_system``
    factors the carrier of its ordering once, and ``laplace.solve_dirichlet``
    factors the system in that order.  Every keyword of either is a literal
    (the panel size too), and no parameter of ``solve_dirichlet`` reaches
    either: the factor has no option."""
    calls = [
        (name, fn, node)
        for name, tree in _package_trees()
        for fn, node in _functions(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "splu"
    ]
    assert [(name, fn) for name, fn, _ in calls] == [
        ("laplace.py", "solve_dirichlet"),
        ("realization.py", "dirichlet_system"),
    ]
    factor, carrier = (call for _, _, call in calls)
    settings = [{k.arg: ast.literal_eval(k.value) for k in call.keywords} for call in (carrier, factor)]
    assert settings == [
        {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0, "panel_size": 1, "options": {"SymmetricMode": True}},
        {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.1, "panel_size": 1, "options": {"SymmetricMode": True}},
    ]
    parameters = list(inspect.signature(laplace.solve_dirichlet).parameters)
    assert parameters == ["r", "boundary"]
    assert list(inspect.signature(Realization.dirichlet_system.func).parameters) == ["self"]
    for call in (carrier, factor):
        assert {node.id for node in ast.walk(call) if isinstance(node, ast.Name)} & set(parameters) == set()


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


def _writeable(obj, path="", seen=None):
    """The path of every writeable array reachable from ``obj`` through the
    attributes of ``ddgconf`` objects, tuples, lists and dicts (for a sparse
    array: its data, index and pointer arrays)."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [path] if obj.flags.writeable else []
    if sp.issparse(obj):
        parts = {"data": obj.data, "indices": obj.indices, "indptr": obj.indptr}
        return [f"{path}.{k}" for k, a in parts.items() if a.flags.writeable]
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    elif type(obj).__module__.startswith("ddgconf"):
        items = vars(obj).items()
    else:
        return []
    return [p for k, v in items for p in _writeable(v, f"{path}.{k}", seen)]


def test_no_array_a_mesh_or_realization_keeps_is_writeable():
    """After the field chain, the Moebius layer and the minimal surface have
    filled every cache, no array that a ``TriMesh`` or ``Realization`` keeps
    is writeable, and so a report's ``where``, which is the mesh's own table,
    cannot rewrite the mesh under later calls."""
    r = delaunay_disk(50, seed=1)
    u = laplace.solve_dirichlet(r, {v: float(v % 3) for v in r.mesh.boundary_vertices.tolist()})
    q = hqd.qdiff_from_harmonic(r, u)
    rep = hqd.verify_qdiff(r, q)
    hqd.harmonic_from_qdiff(r, q)
    zdot = deform.conformal_deformation(r, u)
    weierstrass.weierstrass_integrate(r, q)
    b = Realization(r.mesh, r.z + 1e-3 * zdot)
    realization.check_conformal_equiv(r, b)
    realization.check_pattern(r, b)
    form = moebius.sl2_form_from_rates(b, moebius.rates_from_deformation(b, zdot))
    moebius.check_sl2_form_closed(b, form)
    moebius.transition_matrices(b, r)
    for obj in (r.mesh, r, b):
        for name, value in vars(type(obj)).items():
            if isinstance(value, cached_property):
                getattr(obj, name)
    assert _writeable(r.mesh, "mesh") + _writeable(r, "r") + _writeable(b, "b") == []
    with pytest.raises(ValueError):
        rep.defects[0].where[0] = [7, 9]
    with pytest.raises(ValueError):
        r.area2[0] = 0.0


def test_one_owner_of_read_only_tables():
    """``mesh.cached_property`` is the one owner of the rule that a derived
    table is built once and kept read-only: every cached property of a class
    in the package is one, and none calls ``_read_only`` itself."""
    modules = [importlib.import_module(f"ddgconf.{path.stem}") for path in sorted(PACKAGE.glob("*.py"))]
    classes = {obj for m in modules for obj in vars(m).values() if isinstance(obj, type) and obj.__module__ == m.__name__}
    cached = {
        f"{cls.__name__}.{name}": value
        for cls in classes
        for name, value in vars(cls).items()
        if isinstance(value, cached_property)
    }
    assert {"TriMesh.vertex_cycles", "TriMesh._dual_graph", "Realization.dirichlet_system"} <= set(cached)
    assert sorted(name for name, value in cached.items() if type(value) is not mesh_module.cached_property) == []
    for name, value in cached.items():
        tree = ast.parse(textwrap.dedent(inspect.getsource(value.func)))
        assert "_read_only" not in {getattr(node, "id", None) for node in ast.walk(tree)}, name


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
