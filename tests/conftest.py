from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial import Delaunay

from ddgconf import Realization, build
from ddgconf import deform, laplace
from ddgconf.moebius import MoebiusMap

WHEEL6_FACES = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 6), (0, 6, 1)]

SQUARE2_FACES = [(0, 1, 2), (0, 2, 3)]


@pytest.fixture
def square2():
    mesh = build(SQUARE2_FACES)
    z = np.array([0, 1, 1 + 1j, 1j], dtype=complex)
    return Realization(mesh, z)


@pytest.fixture
def wheel6():
    mesh = build(WHEEL6_FACES)
    z = np.concatenate([[0j], np.exp(1j * np.pi * np.arange(6) / 3)])
    return Realization(mesh, z)


@pytest.fixture
def wheel6_irregular():
    mesh = build(WHEEL6_FACES)
    rng = np.random.default_rng(11)
    ring = np.exp(1j * (np.pi * np.arange(6) / 3 + 0.15 * rng.standard_normal(6)))
    ring *= 1 + 0.25 * rng.standard_normal(6)
    z = np.concatenate([[0.07 - 0.12j], ring])
    return Realization(mesh, z)


def grid_disk(n):
    """(n+1) x (n+1) grid of unit squares, each split into two triangles."""

    def vid(i, j):
        return i * (n + 1) + j

    faces = []
    for i in range(n):
        for j in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            faces.append((a, b, c))
            faces.append((a, c, d))
    mesh = build(faces)
    x, y = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    z = (x + 1j * y).ravel()
    return Realization(mesh, z)


@pytest.fixture
def grid3():
    return grid_disk(2)


@pytest.fixture
def grid20():
    return grid_disk(19)


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


def delaunay_disk(n_points, seed):
    """Delaunay triangulation of random points in the unit disk (CCW faces)."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n_points:
        p = rng.uniform(-1, 1, size=(n_points, 2))
        keep = np.hypot(p[:, 0], p[:, 1]) < 1
        pts.extend(map(tuple, p[keep]))
    pts = np.array(pts[:n_points])
    tri = Delaunay(pts)
    faces = []
    for a, b, c in tri.simplices:
        # orient counterclockwise
        u, v = pts[b] - pts[a], pts[c] - pts[a]
        cross = u[0] * v[1] - u[1] * v[0]
        faces.append((a, b, c) if cross > 0 else (a, c, b))
    mesh = build([tuple(int(v) for v in f) for f in faces])
    return Realization(mesh, pts[:, 0] + 1j * pts[:, 1])


def random_harmonic(r, seed):
    rng = np.random.default_rng(seed)
    bnd = {v: float(rng.standard_normal()) for v in r.mesh.boundary_vertices}
    return laplace.solve_dirichlet(r, bnd)


def deformed_grid_pair():
    """A jittered 50 x 50 grid and a copy moved 2% of its radius along the
    conformal deformation of a random harmonic function.  Some transition
    matrices between the two have entries above 3e3."""
    a = jittered_grid(50, 0.45, seed=4)
    zdot = deform.conformal_deformation(a, random_harmonic(a, seed=4))
    step = 0.02 * np.abs(a.z - a.z.mean()).max() / np.abs(zdot).max()
    return a, Realization(a.mesh, a.z + step * zdot)


def random_moebius(r, rng, margin=1e-2):
    """Moebius map with coefficients in the unit square, rejecting maps that
    are nearly singular or send a vertex near infinity."""
    while True:
        c = rng.uniform(-1, 1, 8)
        phi = MoebiusMap(
            complex(c[0], c[1]), complex(c[2], c[3]),
            complex(c[4], c[5]), complex(c[6], c[7]),
        )
        if abs(phi.a * phi.d - phi.b * phi.c) < margin:
            continue
        den = phi.c * r.z + phi.d
        if np.abs(den).min() < margin * max(abs(phi.c), abs(phi.d)):
            continue
        return phi


def reference_tables(mesh):
    """The per-element tables that ``TriMesh`` was once built from, built
    here with the same dict and set loops from ``mesh.faces``: the face of
    each oriented edge, the sorted vertex pairs, each edge's left (``i -> j``)
    and right (``j -> i``) face, the counterclockwise star of each vertex
    (a closed ring starts at its smallest neighbour, an open fan at its
    corner without a predecessor), and the flap and opposite-vertex lookups."""
    faces = [tuple(f) for f in mesh.faces.tolist()]
    oriented = {}
    for fi, (a, b, c) in enumerate(faces):
        for i, j in ((a, b), (b, c), (c, a)):
            oriented[(i, j)] = fi
    edges = sorted({(min(i, j), max(i, j)) for (i, j) in oriented})
    edge_index = {e: idx for idx, e in enumerate(edges)}
    left = [oriented.get((i, j)) for i, j in edges]
    right = [oriented.get((j, i)) for i, j in edges]

    succ = [dict() for _ in range(mesh.vertex_count)]
    for a, b, c in faces:
        for v, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            succ[v][j] = k
    star = []
    for nxt in succ:
        heads = set(nxt.values())
        starts = [j for j in nxt if j not in heads]
        start, closed = (starts[0], False) if starts else (min(nxt), True)
        ring = [start]
        cur = start
        while cur in nxt:
            cur = nxt[cur]
            if cur == start:
                break
            ring.append(cur)
        star.append((ring, closed))

    def key(a, b):
        return edge_index[(min(a, b), max(a, b))]

    def opposite(face, i, j):
        (k,) = [v for v in faces[face] if v != i and v != j]
        return k

    def flap(e):
        i, j = edges[e]
        return i, j, opposite(left[e], i, j), opposite(right[e], i, j)

    return SimpleNamespace(
        faces=faces, oriented=oriented, edges=edges, edge_index=edge_index, left=left,
        right=right, star=star, key=key, opposite=opposite, flap=flap,
    )
