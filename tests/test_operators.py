"""The shared spanning-tree integrator and vertex-cycle sum of ``TriMesh``
against the per-element loops they replaced.  The loops stay here as the
reference, and the results must agree bit for bit."""

from collections import deque

import numpy as np
import pytest

from ddgconf import Realization, build, laplace
from ddgconf.errors import InvalidInput
from ddgconf.mesh import integrate

from conftest import delaunay_disk


def jittered_grid(n, jitter, seed):
    """(n+1) x (n+1) grid of unit squares split into triangles, vertices
    moved by up to ``jitter`` in each coordinate."""
    faces = []
    for i in range(n):
        for j in range(n):
            a, b = i * (n + 1) + j, (i + 1) * (n + 1) + j
            faces += [(a, b, b + 1), (a, b + 1, a + 1)]
    x, y = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    rng = np.random.default_rng(seed)
    shift = rng.uniform(-1, 1, x.size) + 1j * rng.uniform(-1, 1, x.size)
    return Realization(build(faces), (x + 1j * y).ravel() + jitter * shift)


@pytest.fixture(scope="module", params=["delaunay", "jittered"])
def mesh(request):
    if request.param == "delaunay":
        return delaunay_disk(300, seed=5).mesh
    r = jittered_grid(14, 0.45, seed=3)
    assert (laplace.cotan_weights(r) < 0).any()  # negative cotan weights
    return r.mesh


# -- the reference: today's loops ----------------------------------------------


def reference_tree(mesh, root, dual):
    """BFS tree over sorted adjacency lists: ``(steps, cotree)``."""
    edges = mesh.interior_edges if dual else range(len(mesh.edges))
    adj = [[] for _ in range(len(mesh.faces) if dual else mesh.vertex_count)]
    for e in edges:
        tail, head = (mesh.edge_right[e], mesh.edge_left[e]) if dual else mesh.edges[e]
        adj[tail].append((head, e, 1))
        adj[head].append((tail, e, -1))
    seen = [False] * len(adj)
    seen[root] = True
    steps, tree_edges = [], set()
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for nxt, e, sign in sorted(adj[node]):
            if not seen[nxt]:
                seen[nxt] = True
                tree_edges.add(e)
                steps.append((nxt, node, e, sign))
                queue.append(nxt)
    return steps, [e for e in edges if e not in tree_edges]


def reference_integrate(mesh, form, root, dual):
    """Potential and co-tree gaps, one tree step at a time; ``form`` is
    indexed by mesh edge."""
    steps, cotree = reference_tree(mesh, root, dual)
    n = len(mesh.faces) if dual else mesh.vertex_count
    pot = np.zeros((n,) + form.shape[1:], dtype=form.dtype)
    for node, parent, e, sign in steps:
        pot[node] = pot[parent] + sign * form[e]
    gaps = []
    for e in cotree:
        tail, head = (mesh.edge_right[e], mesh.edge_left[e]) if dual else mesh.edges[e]
        gap = pot[head] - pot[tail] - form[e]
        gaps.append(float(np.abs(gap).max()) if form.ndim > 1 else abs(gap))
    return pot, cotree, np.array(gaps)


def reference_cycles(mesh):
    """Dual edges ``(tail, head, from_face, to_face, edge)`` around each
    interior vertex, walked along its counterclockwise star."""
    cycles = {}
    for v in mesh.interior_vertices:
        ring, closed = mesh.vertex_star(v)
        assert closed
        cycles[v] = [
            (v, j, mesh._face_of_oriented[(j, v)], mesh._face_of_oriented[(v, j)],
             mesh.edge_index[(min(v, j), max(v, j))])
            for j in ring
        ]
    return cycles


def reference_cycle_sum(mesh, values, signed):
    pos = {e: idx for idx, e in enumerate(mesh.interior_edges)}
    sums = []
    for cycle in reference_cycles(mesh).values():
        s = np.zeros(values.shape[1:], dtype=values.dtype)
        for tail, head, _, _, e in cycle:
            s += -values[pos[e]] if signed and tail > head else values[pos[e]]
        sums.append(s)
    return np.array(sums).reshape((len(sums),) + values.shape[1:])


# -- tests -----------------------------------------------------------------------


def test_spanning_trees_match_reference(mesh):
    for root in (0, len(mesh.faces) // 2):
        assert mesh.dual_spanning_tree(root) == reference_tree(mesh, root, dual=True)
    for root in (0, mesh.vertex_count // 3):
        assert mesh.vertex_spanning_tree(root) == reference_tree(mesh, root, dual=False)


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("shape", ["real", "complex", "vector"])
def test_integrate_matches_reference(mesh, dual, shape):
    rng = np.random.default_rng(7)
    n = len(mesh.interior_edges) if dual else len(mesh.edges)
    trailing = (3,) if shape == "vector" else ()
    form = rng.standard_normal((n,) + trailing)
    if shape != "real":
        form = form + 1j * rng.standard_normal((n,) + trailing)
    by_edge = np.zeros((len(mesh.edges),) + trailing, dtype=form.dtype)
    by_edge[mesh.interior_edges if dual else slice(None)] = form
    root = 3
    pot, cotree, gaps = reference_integrate(mesh, by_edge, root, dual)

    result = integrate(mesh, form, root, dual)
    assert result.potential.dtype == pot.dtype
    assert result.potential.tobytes() == pot.tobytes()
    assert result.cotree.tolist() == cotree
    assert result.gap.tobytes() == gaps.tobytes()
    assert result.scale == max(float(np.abs(form).max()), 1e-300)
    assert result.defect == max(g / result.scale for g in gaps)


def test_integrate_reports_the_first_failing_cotree_edge(mesh):
    form = np.random.default_rng(8).standard_normal(len(mesh.edges))
    result = integrate(mesh, form)
    first = next(k for k, g in enumerate(result.gap) if g > 1e-3 * result.scale)
    with pytest.raises(InvalidInput) as info:
        result.require(1e-3, InvalidInput, "edge {edge}: {gap:.3e}")
    edge = mesh.edges[result.cotree[first]]
    assert str(info.value) == f"edge {edge}: {result.gap[first]:.3e}"
    assert info.value.details == {"edge": edge, "defect": result.gap[first]}
    result.require(1.0 + result.defect, InvalidInput, "never")


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("shape", ["real", "complex", "matrix"])
def test_cycle_sum_matches_reference(mesh, signed, shape):
    rng = np.random.default_rng(9)
    trailing = (2, 2) if shape == "matrix" else ()
    values = rng.standard_normal((len(mesh.interior_edges),) + trailing)
    if shape != "real":
        values = values + 1j * rng.standard_normal(values.shape)
    expected = reference_cycle_sum(mesh, values, signed)
    assert mesh.cycle_sum(values, signed).tobytes() == expected.tobytes()


def test_dual_cycles_match_reference(mesh):
    expected = reference_cycles(mesh)
    cycles = mesh.dual_cycles()
    assert list(cycles) == list(expected)
    assert {v: [tuple(de) for de in c] for v, c in cycles.items()} == expected


def test_anchor_outside_the_mesh_rejected(mesh):
    for root in (-1, mesh.vertex_count):
        with pytest.raises(InvalidInput):
            integrate(mesh, np.zeros(len(mesh.edges)), root)
    with pytest.raises(InvalidInput):
        mesh.dual_spanning_tree(len(mesh.faces))
