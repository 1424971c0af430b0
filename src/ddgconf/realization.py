"""Planar realizations: vertex positions, cross ratios, circle intersection
angles and the two finite conformality tests with their per-vertex
scale-factor / rotation-offset reconstructions.

All per-interior-edge arrays are aligned with ``mesh.interior_edges``.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateFace, InvalidInput, MeshMismatch
from .mesh import Defect, TriMesh, _read_only

TAU = 2.0 * np.pi

COLLINEAR_TOL = 1e-14


class Realization:
    """A triangular mesh with one complex position per vertex.

    Keeps the face sides ``face_dz`` and signed doubled face areas and
    builds on first use, read-only, the per-corner cotangents, the edge
    vectors, the cotan weights, the cross ratios and the interior Dirichlet
    system.  Faces may be negatively oriented; areas and corner angles then
    carry a negative sign.  ``z`` is a read-only copy of the positions, so
    that no cached value can go stale.
    """

    def __init__(self, mesh: TriMesh, z):
        z = np.array(z, dtype=complex)
        if z.shape != (mesh.vertex_count,):
            raise MeshMismatch(
                f"expected {mesh.vertex_count} vertex positions, got {z.shape}"
            )
        bad = np.flatnonzero(~np.isfinite(z))
        if len(bad):
            raise InvalidInput(f"vertex {bad[0]} has a non-finite position", vertex=int(bad[0]))
        z.flags.writeable = False
        self.mesh = mesh
        self.z = z

        tri = mesh.faces
        p = z[tri.T.ravel()].reshape(3, -1)  # one C-order gather: row m at the corners m
        self.face_dz = _read_only(p[[1, 2, 0]] - p)  # (3, F), row m: z_{m+1} - z_m
        # signed doubled area = Im(conj(z_j - z_i) (z_k - z_i)), z_k - z_i = -(z_i - z_k)
        self.area2 = -(np.conj(self.face_dz[0]) * self.face_dz[2]).imag

        scale = np.abs(self.face_dz).max(axis=0)
        bad = np.abs(self.area2) <= COLLINEAR_TOL * scale**2
        if bad.any():
            f = int(np.flatnonzero(bad)[0])
            raise DegenerateFace(f"face {f} {tuple(tri[f].tolist())} is (nearly) collinear", face=f)

    @cached_property
    def cot(self):
        """``(F, 3)`` cot of the (signed) corner angle at each face vertex:
        ``cot.ravel()[c]`` is that of corner ``c``."""
        # corner m lies between side m and side m - 1 reversed; reversing keeps cot
        w = np.conj(self.face_dz) * self.face_dz[[2, 0, 1]]
        return _read_only(np.ascontiguousarray((w.real / w.imag).T))

    @cached_property
    def edge_dz(self):
        """``z_j - z_i`` per edge ``i < j`` of ``mesh.edge_ends``, read-only."""
        i, j = self.mesh.edge_ends.T
        return _read_only(self.z[j] - self.z[i])

    @cached_property
    def cotan_weights(self):
        """``w_ij = cot(angle at left apex) + cot(angle at right apex)`` per
        interior edge, read-only; see :func:`ddgconf.laplace.cotan_weights`."""
        # the corners at the apices k and l lie two on from those of i -> j and j -> i
        c = self.mesh.edge_corners[self.mesh.interior_edges]
        apex = self.cot.ravel()[self.mesh.next_corner(c, 2)]
        return _read_only(apex[:, 0] + apex[:, 1])

    @cached_property
    def dirichlet_system(self):
        """``(A, B)``, built once and read-only: the interior values ``x`` (in
        ``interior_vertices`` order) of the harmonic extension of boundary
        values ``g`` (zero at interior vertices) solve ``A x = B @ g``.  Row
        ``a`` of ``A`` holds ``w_ac`` per interior neighbour ``c`` and ``-sum_c
        w_ac`` on the diagonal; row ``a`` of ``B`` ``-w_ac`` per boundary one."""
        mesh = self.mesh
        ni = len(mesh.interior_vertices)
        pos = np.full(mesh.vertex_count, -1)
        pos[mesh.interior_vertices] = np.arange(ni)
        # row a of edge {i, j} is a = i with neighbour c = j, then a = j with
        # c = i; entries go in that order, edge by edge
        ends, other = mesh.interior_ends.ravel(), mesh.interior_ends[:, ::-1].ravel()
        a, c, wa = pos[ends], pos[other], np.repeat(self.cotan_weights, 2)
        row = a >= 0
        diag = np.zeros(ni)
        np.subtract.at(diag, a[row], wa[row])
        inner, outer = row & (c >= 0), row & (c < 0)
        rows = np.r_[a[inner], np.arange(ni)]
        cols = np.r_[c[inner], np.arange(ni)]
        A = sp.csc_matrix((np.r_[wa[inner], diag], (rows, cols)), shape=(ni, ni))
        # a row's neighbours ascend as its edges do, so B @ g sums in edge order
        B = sp.csr_matrix((-wa[outer], (a[outer], other[outer])), shape=(ni, mesh.vertex_count))
        return _read_only(A), _read_only(B)

    def interior_dz(self):
        """``z_j - z_i`` per interior edge ``i < j``."""
        return self.edge_dz[self.mesh.interior_edges]

    def null_vectors(self):
        """``(1 - z_i z_j, i (1 + z_i z_j), z_i + z_j)`` per interior edge
        ``i < j``: up to a factor per edge, the Pauli coordinates of the
        sl(2,C) form and the Weierstrass integrand."""
        i, j = self.mesh.interior_ends.T
        zi, zj = self.z[i], self.z[j]
        return np.stack([1.0 - zi * zj, 1j * (1.0 + zi * zj), zi + zj], axis=1)

    def edge_scale(self):
        """Length of the longest edge."""
        return float(np.abs(self.edge_dz).max())

    def flap_points(self):
        """Vertex indices ``(i, j, k, l)`` per interior edge, as arrays."""
        i, j = self.mesh.interior_ends.T
        k, l = self.mesh.flap_apices.T
        return i, j, k, l

    @cached_property
    def cross_ratios(self):
        """Complex cross ratio per interior edge, read-only: for the interior
        edge ``{i, j}`` with left-face apex ``k`` and right-face apex ``l``,
        ``(z_j - z_k)(z_i - z_l) / ((z_k - z_i)(z_l - z_j))``.  Raises, and
        caches nothing, where a factor is 0."""
        i, j, k, l = self.flap_points()
        z = self.z
        num = (z[j] - z[k]) * (z[i] - z[l])
        den = (z[k] - z[i]) * (z[l] - z[j])
        if np.any(den == 0) or np.any(num == 0):
            edge = tuple(self.mesh.interior_ends[(den == 0) | (num == 0)][0].tolist())
            raise DegenerateFace(f"coincident vertices at interior edge {edge}")
        return _read_only(num / den)


def cross_ratios(r: Realization):
    """:attr:`Realization.cross_ratios`, computed once per realization."""
    return r.cross_ratios


def intersection_angles(r: Realization):
    """Circumcircle intersection angle per interior edge, in ``[0, 2*pi)``."""
    return np.angle(cross_ratios(r)) % TAU


@dataclass
class EquivalenceReport:
    equivalent: bool
    max_deviation: float  # worst edgewise mismatch (relative |cr| or angle)
    factors: np.ndarray | None  # per-vertex u (log scale) or alpha (angle)
    factor_spread: float  # worst disagreement between incident triangles


def _per_vertex_from_edges(mesh: TriMesh, edge_value, reduce_mod_tau=False):
    """Combine per-edge values ``s`` into per-vertex values via
    ``s_ki + s_ij - s_jk`` over every incident triangle.

    Returns the value from the first incident triangle and the max pairwise
    spread across triangles (modulo 2*pi when requested).
    """
    # corner m of face f lies between face edges m - 1 and m, opposite m + 1
    s = np.asarray(edge_value)[mesh.face_edges]
    vals = (s[:, [2, 0, 1]] + s - s[:, [1, 2, 0]]).ravel()
    # each vertex's corners from ``start`` on; its first triangle in face order has the least corner
    count = np.bincount(mesh.faces.ravel(), minlength=mesh.vertex_count)
    start = np.cumsum(count) - count
    base = vals[np.minimum.reduceat(mesh.vertex_stars, start)]
    vals = vals[mesh.vertex_stars]
    if reduce_mod_tau:
        diff = np.angle(np.exp(1j * (vals - np.repeat(base, count))))
        return base % TAU, float(np.abs(diff).max())
    spread = np.maximum.reduceat(vals, start) - np.minimum.reduceat(vals, start)
    return base, float(spread.max())


def _check_same_mesh(a: Realization, b: Realization):
    if not np.array_equal(a.mesh.faces, b.mesh.faces):
        raise MeshMismatch("realizations live on different meshes")


def check_conformal_equiv(a: Realization, b: Realization, tol=1e-9):
    """Edgewise equality of cross-ratio norms, with reconstructed log scale
    factors ``u`` (``|w_j - w_i| = e^{(u_i + u_j)/2} |z_j - z_i|``) when the
    realizations are equivalent."""
    _check_same_mesh(a, b)
    a.mesh.require_disk()
    cra = np.abs(cross_ratios(a))
    crb = np.abs(cross_ratios(b))
    max_dev = Defect(np.abs(cra - crb) / cra, 1.0, a.mesh.interior_ends, "edge").worst
    if not max_dev <= tol:  # Defect.passes: a NaN fails
        return EquivalenceReport(False, max_dev, None, np.inf)

    sigma = np.log(np.abs(b.edge_dz) / np.abs(a.edge_dz))
    u, spread = _per_vertex_from_edges(a.mesh, sigma)
    return EquivalenceReport(True, max_dev, u, spread)


def check_pattern(a: Realization, b: Realization, tol=1e-9):
    """Edgewise equality of cross-ratio arguments (circumcircle intersection
    angles), with reconstructed angular offsets ``alpha`` in ``[0, 2*pi)``
    (``arg((w_j - w_i) / (z_j - z_i)) = (alpha_i + alpha_j)/2 (mod 2*pi)``)
    when the realizations are equivalent."""
    _check_same_mesh(a, b)
    a.mesh.require_disk()
    cra = cross_ratios(a)
    crb = cross_ratios(b)
    # principal value of arg(cr_a / cr_b): avoids the branch cut at 0 ~ 2*pi
    max_dev = Defect(np.abs(np.angle(cra / crb)), 1.0, a.mesh.interior_ends, "edge").worst
    if not max_dev <= tol:  # Defect.passes: a NaN fails
        return EquivalenceReport(False, max_dev, None, np.inf)

    omega = np.angle(b.edge_dz / a.edge_dz)
    alpha, spread = _per_vertex_from_edges(a.mesh, omega, reduce_mod_tau=True)
    return EquivalenceReport(True, max_dev, alpha, spread)
