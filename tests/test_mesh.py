import numpy as np
import pytest

from ddgconf import build
from ddgconf.errors import (
    Disconnected,
    InconsistentOrientation,
    NonManifold,
    NotSimplyConnected,
)
from ddgconf.mesh import integrate

from conftest import (
    SQUARE2_FACES, WHEEL6_FACES, delaunay_disk, grid_disk, jittered_grid, reference_tables
)
from test_operators import reference_cycle_sum


def test_square2_tables():
    mesh = build(SQUARE2_FACES)
    assert mesh.vertex_count == 4
    assert np.array_equal(mesh.edge_ends, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
    assert len(mesh.interior_edges) == 1
    i, j = mesh.edge_ends[mesh.interior_edges[0]].tolist()
    assert (i, j) == (0, 2)
    assert mesh.interior_vertices == []
    assert mesh.euler_characteristic() == 1
    assert mesh.is_disk()


def test_square2_flap():
    mesh = build(SQUARE2_FACES)
    ref = reference_tables(mesh)
    e = mesh.interior_edges[0]
    i, j, k, l = mesh.edge_flap(e)
    # left face of 0 -> 2 is (0, 1, 2) wrapped as containing the oriented pair
    assert (i, j) == (0, 2)
    assert {k, l} == {1, 3}
    assert mesh.edge_faces[e, 0] == ref.oriented[(0, 2)]
    assert k == ref.opposite(mesh.edge_faces[e, 0], 0, 2)


def test_wheel6_star():
    mesh = build(WHEEL6_FACES)
    assert mesh.interior_vertices == [0]
    ring = [de.head for de in mesh.dual_cycles()[0]]
    closed = 0 in mesh.interior_vertices
    assert closed
    assert sorted(ring) == [1, 2, 3, 4, 5, 6]
    # counterclockwise successor order follows the face orientation
    pos = {v: m for m, v in enumerate(ring)}
    for a, b, c in WHEEL6_FACES:
        assert (pos[c] - pos[b]) % 6 == 1


def test_grid3_interior_cycle():
    r = grid_disk(2)
    mesh = r.mesh
    ref = reference_tables(mesh)
    assert len(mesh.faces) == 8
    assert len(mesh.interior_vertices) == 1
    cycles = mesh.dual_cycles()
    (v,) = mesh.interior_vertices
    cyc = cycles[v]
    assert len(cyc) == 6
    # each dual edge crosses the corresponding primal edge right -> left
    for de in cyc:
        e = de.edge
        if de.tail < de.head:
            assert (de.from_face, de.to_face) == (ref.right[e], ref.left[e])
        else:
            assert (de.from_face, de.to_face) == (ref.left[e], ref.right[e])
    # consecutive dual edges share a face (a cycle around the vertex)
    for m in range(6):
        assert cyc[m].to_face == cyc[(m + 1) % 6].from_face


def test_orientation_rejected():
    with pytest.raises(InconsistentOrientation):
        build([(0, 1, 2), (1, 2, 3)])  # second face traverses (1,2) the same way


def test_nonmanifold_rejected():
    # three faces sharing edge (0,1) cannot be consistently oriented
    with pytest.raises((InconsistentOrientation, NonManifold)):
        build([(0, 1, 2), (1, 0, 3), (0, 1, 4)])


def test_bowtie_rejected():
    # two triangles joined at a single vertex: star of 0 is not one fan
    with pytest.raises(NonManifold):
        build([(0, 1, 2), (0, 3, 4)])


def test_disconnected_rejected():
    with pytest.raises(Disconnected):
        build([(0, 1, 2), (3, 4, 5)])


def test_annulus_not_disk():
    faces = []
    for m in range(3):
        a, b = m, (m + 1) % 3
        c, d = 3 + m, 3 + (m + 1) % 3
        faces.append((a, b, d))
        faces.append((a, d, c))
    mesh = build(faces)
    assert mesh.euler_characteristic() == 0
    assert not mesh.is_disk()
    with pytest.raises(NotSimplyConnected):
        mesh.require_disk()


def test_spanning_trees_cover():
    r = delaunay_disk(120, seed=3)
    mesh = r.mesh
    steps, cotree = mesh.dual_spanning_tree(0)
    assert len(steps) == len(mesh.faces) - 1
    assert len(steps) + len(cotree) == len(mesh.interior_edges)
    vsteps, vcotree = mesh.vertex_spanning_tree(0)
    assert len(vsteps) == mesh.vertex_count - 1
    assert len(vsteps) + len(vcotree) == len(mesh.edge_ends)


def test_dual_tree_sign_semantics():
    mesh = build(WHEEL6_FACES)
    ref = reference_tables(mesh)
    steps, _ = mesh.dual_spanning_tree(0)
    for face, parent, e, sign in steps:
        if sign == 1:
            assert ref.right[e] == parent and ref.left[e] == face
        else:
            assert ref.left[e] == parent and ref.right[e] == face


# -- construction against the reference tables -----------------------------------


def wheel(n):
    return build([(0, m, m % n + 1) for m in range(1, n + 1)])


def strip(n):
    """Two rows of ``n`` vertices joined by triangles: every vertex lies on
    the boundary, so every star is an open fan."""
    faces = []
    for i in range(n - 1):
        faces += [(i, i + 1, n + i + 1), (i, n + i + 1, n + i)]
    return build(faces)


TABLE_MESHES = {
    "square2": lambda: build(SQUARE2_FACES),
    "wheel6": lambda: build(WHEEL6_FACES),
    "delaunay": lambda: delaunay_disk(300, seed=5).mesh,
    "jittered": lambda: jittered_grid(14, 0.45, seed=3).mesh,
    "wheel500": lambda: wheel(500),
    "strip": lambda: strip(12),
}


def assert_bitwise(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", TABLE_MESHES)
def test_tables_match_reference(kind):
    mesh = TABLE_MESHES[kind]()
    ref = reference_tables(mesh)
    assert np.array_equal(mesh.edge_ends, ref.edges)
    sides = [[-1 if f is None else f for f in pair] for pair in zip(ref.left, ref.right)]
    assert_bitwise(mesh.edge_faces, np.array(sides, dtype=np.int64))
    face_edges = [[ref.key(a, b) for a, b in zip(f, f[1:] + f[:1])] for f in ref.faces]
    assert_bitwise(mesh.face_edges, np.array(face_edges, dtype=np.int64))
    flaps = [ref.flap(e) for e in mesh.interior_edges]
    assert [mesh.edge_flap(e) for e in mesh.interior_edges] == flaps
    flap_edges = [[ref.key(*p) for p in ((j, k), (k, i), (i, l), (l, j))] for i, j, k, l in flaps]
    assert_bitwise(mesh.flap_edges, np.array(flap_edges, dtype=np.int64).reshape(-1, 4))
    closed = [v for v, (_, c) in enumerate(ref.star) if c]
    assert mesh.interior_vertices == closed
    assert np.array_equal(mesh.boundary_vertices, [v for v, (_, c) in enumerate(ref.star) if not c])

    # row r of the cycle operator lists the star of closed[r] slot by slot
    rings = [ref.star[v][0] for v in closed]
    pos = {e: p for p, e in enumerate(mesh.interior_edges)}
    slots = [
        (pos[ref.key(v, j)], 1.0 if v < j else -1.0, ref.oriented[(v, j)])
        for v, ring in zip(closed, rings) for j in ring
    ]
    edges, signs, to_faces = zip(*slots) if slots else ((), (), ())
    cycles = mesh.vertex_cycles
    assert cycles.shape == (len(closed), len(mesh.interior_edges))
    assert np.diff(cycles.indptr).tolist() == [len(ring) for ring in rings]
    assert cycles.indices.tolist() == list(edges)
    assert_bitwise(cycles.data, np.array(signs, dtype=np.float64))
    assert_bitwise(mesh.cycle_faces, np.array(to_faces, dtype=np.int64))


@pytest.mark.parametrize("kind", ["wheel6", "delaunay", "jittered", "strip"])
def test_face_order_and_rotation_leave_the_tables(kind):
    """Shuffling the faces and rotating each face's vertex order keep the
    edges, the vertex lists and the vertex rings; face ids follow the shuffle."""
    mesh = TABLE_MESHES[kind]()
    rng = np.random.default_rng(12)
    order = rng.permutation(len(mesh.faces))  # new face m is old face order[m]
    turns = rng.integers(0, 3, len(order))
    other = build([tuple(np.roll(mesh.faces[f], -t).tolist()) for f, t in zip(order, turns)])
    assert np.array_equal(other.edge_ends, mesh.edge_ends)
    assert other.interior_vertices == mesh.interior_vertices
    assert np.array_equal(other.boundary_vertices, mesh.boundary_vertices)
    new_id = np.argsort(order)
    assert np.array_equal(other.edge_faces, np.where(mesh.edge_faces >= 0, new_id[mesh.edge_faces], -1))
    a, b = mesh.vertex_cycles, other.vertex_cycles
    for got, want in zip((b.indptr, b.indices, b.data), (a.indptr, a.indices, a.data)):
        assert np.array_equal(got, want)
    assert np.array_equal(other.cycle_faces, new_id[mesh.cycle_faces])


def test_cycle_operator_is_read_only():
    """``abs`` and ``sort_indices`` would sort each row of the cycle operator
    in place and so reorder its slots; both raise, and leave it as it was."""
    mesh = TABLE_MESHES["jittered"]()
    c = mesh.vertex_cycles
    before = [a.copy() for a in (c.data, c.indices, c.indptr)]
    assert not c.has_sorted_indices  # the slots are not in column order
    for reorder in (abs, lambda a: a.sort_indices()):
        with pytest.raises(ValueError):
            reorder(c)
    for got, want in zip((c.data, c.indices, c.indptr), before):
        assert_bitwise(got, want)
    assert not mesh.cycle_faces.flags.writeable


@pytest.mark.parametrize("kind", ["strip", "wheel500", "triangle"])
@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("trailing", [(), (2, 2)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_cycle_sum_on_small_meshes(kind, signed, trailing, dtype):
    """No interior vertex, one vertex of valence 500, no interior edge."""
    mesh = build([(0, 1, 2)]) if kind == "triangle" else TABLE_MESHES[kind]()
    rng = np.random.default_rng(10)
    values = rng.standard_normal((len(mesh.interior_edges),) + trailing)
    if dtype is complex:
        values = values + 1j * rng.standard_normal(values.shape)
    got = mesh.cycle_sum(values, signed)
    assert got.shape == (len(mesh.interior_vertices),) + trailing
    assert got.dtype == values.dtype
    assert got.tobytes() == reference_cycle_sum(mesh, values, signed).tobytes()


# -- rejected input: the class and the exact message ---------------------------


@pytest.mark.parametrize(
    "faces, vertex_count, error, message",
    [
        ([], None, Disconnected, "mesh has no faces"),
        ([(0, 1, 2), (0, 2, 3, 4)], None, NonManifold, "face (0, 2, 3, 4) is not a triangle"),
        ([(0, 1, 2), (2, 3, 2), (0, 1, 2, 3)], None, NonManifold, "face (2, 3, 2) repeats a vertex"),
        ([(0, 1, 2), (0, 2, -3)], None, NonManifold, "face (0, 2, -3) has a negative vertex id"),
        ([(0, 1, 2), (0, 2, 3)], 3, NonManifold, "face references vertex >= vertex_count=3"),
        (
            [(0, 1, 2), (3, 4, 5), (4, 3, 6), (3, 4, 7), (1, 2, 8)], None,
            InconsistentOrientation, "oriented edge (3,4) appears in faces 1 and 3",
        ),
        ([(0, 1, 2), (1, 2, 3)], None, InconsistentOrientation, "oriented edge (1,2) appears in faces 0 and 1"),
        # the first repeat in face order, not in key order
        (
            [(3, 4, 5), (0, 1, 2), (3, 4, 6), (0, 1, 7)], None,
            InconsistentOrientation, "oriented edge (3,4) appears in faces 0 and 2",
        ),
        # a repeat on the j -> i side of edge (1, 2)
        (
            [(0, 2, 1), (1, 2, 3), (4, 2, 1)], None,
            InconsistentOrientation, "oriented edge (2,1) appears in faces 0 and 2",
        ),
        ([(0, 1, 2), (0, 3, 4)], None, NonManifold, "vertex star of 0 is not a single fan"),  # bowtie
        # vertices 1, 3 and 4 each have two open fans
        ([(3, 0, 1), (3, 4, 5), (1, 2, 4)], None, NonManifold, "vertex star of 1 is not a single fan"),
        # two closed rings around vertex 6
        (
            [(6, 0, 1), (6, 1, 2), (6, 2, 0), (6, 3, 4), (6, 4, 5), (6, 5, 3)], None,
            NonManifold, "vertex star of 6 is not a single fan",
        ),
        ([(0, 1, 2), (3, 4, 5)], None, Disconnected, "vertices [3, 4, 5]... not connected to vertex 0"),
        ([(0, 1, 2)], 4, Disconnected, "vertices [3]... not connected to vertex 0"),
        ([(0, 1, 3)], None, Disconnected, "vertices [2]... not connected to vertex 0"),
    ],
)
def test_rejected_build_message(faces, vertex_count, error, message):
    triples = all(len(f) == 3 for f in faces)
    arrays = [np.array(faces, dtype=np.int64).reshape(-1, 3)] if triples else []
    for given in [faces] + arrays:  # an (F, 3) int64 array raises the same
        with pytest.raises(error) as info:
            build(given, vertex_count)
        assert type(info.value) is error
        assert str(info.value) == message


@pytest.mark.parametrize("dual", [False, True])
def test_cached_trees_match_fresh(dual):
    """A tree is built once per root and mesh, read-only, and equal bit for
    bit to one built on a fresh copy of the mesh."""
    mesh = delaunay_disk(300, seed=5).mesh
    graph = mesh._dual_graph if dual else mesh._primal_graph
    for root in (0, 7, 0):
        integrate(mesh, np.ones(len(mesh.interior_edges) if dual else mesh.edge_count), root, dual)
    tree = graph.tree(7)
    assert graph.tree(np.int64(7)) is tree
    assert sorted(graph._trees) == [0, 7]
    fresh = build(mesh.faces.tolist())
    fresh = (fresh._dual_graph if dual else fresh._primal_graph).tree(7)
    for a, b in zip(tree, fresh):
        assert not a.flags.writeable
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_a_disconnected_non_manifold_mesh_names_its_fan():
    """The connectivity check runs over the vertex stars, so a mesh that is
    both disconnected (a separate triangle) and non-manifold (a bowtie at
    vertex 0) raises for the star, which is checked first."""
    with pytest.raises(NonManifold) as info:
        build([(0, 1, 2), (0, 3, 4), (5, 6, 7)])
    assert str(info.value) == "vertex star of 0 is not a single fan"


@pytest.mark.parametrize("kind", TABLE_MESHES)
def test_next_corner_matches_the_remainder_formula(kind):
    """``next_corner`` steps without ``%``: bit for bit ``c - c % 3 + (c + k)
    % 3`` on every corner, for each ``k`` the package passes."""
    mesh = TABLE_MESHES[kind]()
    c = np.arange(3 * len(mesh.faces))
    for k in (0, 1, 2, np.arange(3)):
        cc = c[:, None] if isinstance(k, np.ndarray) else c
        assert_bitwise(mesh.next_corner(cc, k), cc - cc % 3 + (cc + k) % 3)
