"""Input generators for the benchmark.

Everything here is the benchmark's own code: it builds vertex positions,
oriented triangles, boundary data, Moebius maps and a conformal vector field
with numpy and scipy, and never calls ``ddgconf``.  The same seed gives
the same inputs.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph
from scipy.spatial import Delaunay

import checks


def _ccw(pts, simplices):
    """Orient Delaunay triangles counterclockwise."""
    tri = np.asarray(simplices, dtype=np.int64)
    a, b, c = pts[tri[:, 0]], pts[tri[:, 1]], pts[tri[:, 2]]
    cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    flip = cross < 0
    tri[flip] = tri[flip][:, [0, 2, 1]]
    return tri


def hull_disk(n_points, seed):
    """Delaunay triangulation of uniform random points in the unit disk,
    bounded by their convex hull.

    The same construction as ``delaunay_disk`` in the test suite's
    ``conftest.py``; used for the fixed boundary-sliver item, whose convex
    hull carries three nearly collinear points.
    """
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n_points:
        p = rng.uniform(-1, 1, size=(n_points, 2))
        keep = np.hypot(p[:, 0], p[:, 1]) < 1
        pts.extend(map(tuple, p[keep]))
    pts = np.array(pts[:n_points])
    return pts[:, 0] + 1j * pts[:, 1], _ccw(pts, Delaunay(pts).simplices)


def circle_disk(n_points, seed):
    """Delaunay disk of ``n_points`` vertices bounded by a regular polygon.

    ``s = sqrt(pi / n_points)`` is the mean spacing.  About ``2 pi / s``
    vertices sit evenly on the unit circle (with a random phase); the rest are
    uniform in the disk of radius ``1 - s/2`` and thinned by dart throwing to
    a separation of at least ``0.3 s``.  The margin keeps every boundary
    triangle's apex angle below about 95 degrees, so the hull has no sliver.
    """
    rng = np.random.default_rng(seed)
    s = np.sqrt(np.pi / n_points)
    nb = int(round(2 * np.pi / s))
    phase = rng.uniform(0, 2 * np.pi)
    ring = np.exp(1j * (phase + 2 * np.pi * np.arange(nb) / nb))

    n_in = n_points - nb
    dmin = 0.3 * s
    rmax = 1.0 - 0.5 * s
    cell = dmin / np.sqrt(2.0)  # at most one accepted point per cell
    ncell = int(np.ceil(2.0 / cell)) + 1
    grid = -np.ones((ncell, ncell), dtype=np.int64)
    acc = np.empty(n_in, dtype=complex)
    count = 0
    while count < n_in:
        cand = rmax * np.sqrt(rng.uniform(0, 1, 4 * n_in)) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, 4 * n_in)
        )
        for p in cand:
            gx = int((p.real + 1.0) / cell)
            gy = int((p.imag + 1.0) / cell)
            ok = True
            for x in range(max(gx - 2, 0), min(gx + 3, ncell)):
                for y in range(max(gy - 2, 0), min(gy + 3, ncell)):
                    k = grid[x, y]
                    if k >= 0 and abs(acc[k] - p) < dmin:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                grid[gx, gy] = count
                acc[count] = p
                count += 1
                if count == n_in:
                    break
    z = np.concatenate([ring, acc])
    pts = np.stack([z.real, z.imag], axis=1)
    return z, _ccw(pts, Delaunay(pts).simplices)


def jittered_grid(n, jitter, seed):
    """``n x n`` vertex grid of unit spacing, each square split along a
    random diagonal, each vertex moved by ``jitter * U(-1, 1)`` per
    coordinate.  At jitter 0.45 and ``n = 50`` about 18% of interior edges
    have a negative cotan weight, and some 60 faces fold over (negative
    orientation) or are nearly flat; ``Realization`` accepts both."""
    rng = np.random.default_rng(seed)
    i, j = np.meshgrid(np.arange(n - 1), np.arange(n - 1), indexing="ij")
    a = (i * n + j).ravel()
    b, c, d = a + n, a + n + 1, a + 1
    flip = rng.uniform(size=a.size) < 0.5
    t1 = np.where(flip[:, None], np.stack([a, b, d], 1), np.stack([a, b, c], 1))
    t2 = np.where(flip[:, None], np.stack([b, c, d], 1), np.stack([a, c, d], 1))
    faces = np.concatenate([t1, t2]).astype(np.int64)
    x, y = np.meshgrid(np.arange(n, dtype=float), np.arange(n, dtype=float), indexing="ij")
    z = (x + 1j * y).ravel()
    z = z + jitter * (rng.uniform(-1, 1, z.size) + 1j * rng.uniform(-1, 1, z.size))
    # centre on the origin, unit half-width
    z = (z - (n - 1) * (0.5 + 0.5j)) / ((n - 1) / 2.0)
    return z, faces


def boundary_vertices(faces, vertex_count):
    """Sorted vertices on an edge that belongs to a single face."""
    f = np.asarray(faces)
    e = np.sort(np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]]), axis=1)
    uniq, cnt = np.unique(e, axis=0, return_counts=True)
    on = np.zeros(vertex_count, dtype=bool)
    on[uniq[cnt == 1].ravel()] = True
    return np.flatnonzero(on)


def boundary_values(bverts, rng):
    """One standard normal value per boundary vertex, in the given order."""
    return {int(v): float(rng.standard_normal()) for v in bverts}


def moebius_map(z, rng):
    """Determinant-one Moebius map ``(a, b, c, d)`` of moderate distortion.

    A similarity (scale in [0.5, 2], any rotation, shift within the unit
    square) follows an inversion-type map whose pole lies at distance 2 to 4
    times the radius of ``z`` from its centre, so no vertex comes near it.
    """
    centre = z.mean()
    radius = np.abs(z - centre).max()
    pole = centre + radius * rng.uniform(2.0, 4.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    # m1: z -> 1 / (z - pole), scaled back to size ~ radius
    m1 = np.array([[0, radius**2], [1, -pole]], dtype=complex)
    scale = np.exp(rng.uniform(np.log(0.5), np.log(2.0)))
    rot = np.exp(1j * rng.uniform(0, 2 * np.pi))
    shift = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    m2 = np.array([[scale * rot, shift], [0, 1]], dtype=complex)
    m = m2 @ m1
    m = m / np.sqrt(np.linalg.det(m))
    return complex(m[0, 0]), complex(m[0, 1]), complex(m[1, 0]), complex(m[1, 1])


def _integrate(n, tail, head, delta):
    """Potential ``p`` on ``n`` nodes with ``p[head] - p[tail] = delta``
    along the breadth-first tree from node 0 of the graph of those edges."""
    step = dict(zip(zip(tail.tolist(), head.tolist()), delta.tolist()))
    step.update(zip(zip(head.tolist(), tail.tolist()), (-delta).tolist()))
    graph = sp.coo_matrix((np.ones(len(tail)), (tail, head)), shape=(n, n))
    order, pred = csgraph.breadth_first_order(graph, 0, directed=False)
    p = np.zeros(n, dtype=delta.dtype)
    for v in order[1:].tolist():
        p[v] = p[pred[v]] + step[(int(pred[v]), v)]
    return p


def conformal_field(z, faces, u):
    """Infinitesimal conformal deformation ``zdot`` with scale factors ``u``
    (harmonic), built as Lam and Pinkall do: the face potential of the dual
    form ``(w_ij / 2)(u_j - u_i)`` gives each edge the rotation rate
    ``omega_ij = potential - cot(apex) (u_j - u_i) / 2`` of an adjacent
    face, and ``zdot`` integrates ``((u_i + u_j)/2 + i omega_ij)(z_j - z_i)``
    over a vertex tree.  Nothing here checks closure; ``checks.deformation``
    measures the result."""
    m = checks.Mesh(faces, len(z))
    f = m.faces
    cot = checks.corner_cot(z, f)
    w = checks.cotan_weights(m, z)
    potential = _integrate(len(f), m.right, m.left, 0.5 * w * (u[m.j] - u[m.i]))
    tails, heads, deltas = [], [], []
    for c in range(3):  # the side p -> q of every face, apex r
        p, q, cot_r = f[:, c], f[:, (c + 1) % 3], cot[:, (c + 2) % 3]
        omega = potential - 0.5 * cot_r * (u[q] - u[p])
        tails.append(p)
        heads.append(q)
        deltas.append(((u[p] + u[q]) / 2 + 1j * omega) * (z[q] - z[p]))
    return _integrate(len(z), np.concatenate(tails), np.concatenate(heads), np.concatenate(deltas))
