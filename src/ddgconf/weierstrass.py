"""Discrete Weierstrass representation: from a planar realization and a
holomorphic quadratic differential to a discrete minimal surface on faces,
with Gauss map by inverse stereographic projection and the associate family
obtained by rotating the complex null-curve potential."""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CoincidentVertices, IntegrationDefect, MeshMismatch, NotHolomorphic, NotMinimal
from .hqd import QuadDiff, _as_complex, verify_qdiff
from .mesh import Defect, integrate, magnitude
from .realization import Realization


def gauss_map(r: Realization):
    """Unit sphere positions ``(2 Re z, 2 Im z, |z|^2 - 1) / (|z|^2 + 1)``."""
    z = r.z
    s = np.abs(z) ** 2
    n = np.stack([2.0 * z.real, 2.0 * z.imag, s - 1.0], axis=1)
    return n / (s + 1.0)[:, None]


def reduce_phase(alpha):
    """Reduce a phase modulo 2*pi (IEEE remainder, exact), making the
    associate family periodic."""
    return math.remainder(float(alpha), math.tau)


def integrand(r: Realization, q):
    """C^3-valued dual 1-form ``(q / (i dz)) (1 - z_i z_j, i(1 + z_i z_j),
    z_i + z_j)`` on canonical interior dual edges."""
    q = _as_complex(r, q)
    return (q / (1j * r.interior_dz))[:, None] * r.null_vectors


@dataclass
class MinimalSurface:
    potential: np.ndarray  # complex null-curve potential per face, (F, 3)
    f: np.ndarray  # real face positions Re(e^{i alpha} potential), (F, 3), at alpha = 0
    k: np.ndarray  # real edge curvature factor -i q / |dz|^2
    closure_defect: float  # worst dual co-tree defect, relative

    def at_phase(self, alpha):
        """Member of the associate family for another phase (same potential)."""
        phase = np.exp(1j * reduce_phase(alpha))
        return replace(self, f=(phase * self.potential).real)


def weierstrass_integrate(r: Realization, q, anchor_face=0, tol=1e-8):
    """Integrate the Weierstrass 1-form of a holomorphic quadratic
    differential over a dual spanning tree (anchored to 0 on ``anchor_face``);
    :meth:`MinimalSurface.at_phase` rotates the result in its associate family.
    """
    mesh = r.mesh
    mesh.require_disk()
    # a q its caller has just verified on r is not checked again
    worst = verify_qdiff(r, q, tol).max_defect
    if not worst <= tol:
        raise NotHolomorphic(f"quadratic differential fails verification (defect {worst:.3e})")
    q = _as_complex(r, q)

    dual = integrate(mesh, integrand(r, q), anchor_face, dual=True)
    message = "Weierstrass form fails to close across edge {edge}"
    dual.defect.require(1e-9, IntegrationDefect, message)
    pot = dual.potential

    k = (-1j * q / r.interior_dz2).real
    return MinimalSurface(pot, None, k, dual.defect.worst).at_phase(0.0)


@dataclass
class MinimalityReport:
    minimal: bool
    max_residual: float  # worst normalized cross-product residual
    k: np.ndarray  # least-squares edge factor from the parallelism relation
    defect: Defect  # |(n_j - n_i) x df| per interior edge, against |n_j - n_i| max|df|


def verify_minimal(mesh, n, f, tol=1e-9) -> MinimalityReport:
    """Edge-parallelism test ``(n_j - n_i) x (f_left - f_right) = 0`` with the
    per-edge factor recovered by least squares.

    Residuals are normalized against the largest dual edge so that edges whose
    position difference sits at rounding level (vanishing curvature factor) do
    not register as spurious failures.  Two Gauss points that coincide on an
    interior edge raise ``CoincidentVertices``."""
    n = np.asarray(n, dtype=float)
    f = np.asarray(f, dtype=float)
    if n.shape != (mesh.vertex_count, 3):
        raise MeshMismatch(f"Gauss map must have shape ({mesh.vertex_count}, 3)")
    if f.shape != (len(mesh.faces), 3):
        raise MeshMismatch(f"face positions must have shape ({len(mesh.faces)}, 3)")

    i, j = mesh.interior_ends.T
    dn = n[j] - n[i]
    dn_norm = np.linalg.norm(dn, axis=1)
    if np.any(dn_norm == 0):
        edge = tuple(mesh.interior_ends[dn_norm == 0][0].tolist())
        raise CoincidentVertices(f"Gauss points coincide on edge {edge}", edge=edge)
    left, right = mesh.interior_faces.T
    df = f[left] - f[right]
    # when every df vanishes so does every residual; 1.0 keeps them defined
    df_scale = float(np.linalg.norm(df, axis=1).max(initial=0.0)) or 1.0
    cross = np.linalg.norm(np.cross(dn, df), axis=1)
    defect = Defect(cross, dn_norm * df_scale, mesh.interior_ends, "edge")
    # df = k * (1 + |z_i|^2)(1 + |z_j|^2)/2 * dn; the raw projection onto dn
    k = np.einsum("ij,ij->i", dn, df) / dn_norm**2
    worst = defect.worst
    return MinimalityReport(worst <= tol, worst, k, defect)


def qdiff_from_minimal(r: Realization, f, tol=1e-9) -> QuadDiff:
    """Recover the quadratic differential of a discrete minimal surface with
    Gauss map given by the realization: ``q = i k |dz|^2`` with ``k`` from the
    edge-parallelism relation."""
    mesh = r.mesh
    n = gauss_map(r)
    report = verify_minimal(mesh, n, f, tol)
    if not report.minimal:
        raise NotMinimal(
            f"surface fails the edge-parallelism test (residual {report.max_residual:.3e})"
        )
    i, j = mesh.interior_ends.T
    scale = (1.0 + magnitude(r.z[i]) ** 2) * (1.0 + magnitude(r.z[j]) ** 2) / 2.0
    return QuadDiff(report.k / scale * r.interior_dz2)


def dual_mesh(r: Realization, face_points):
    """Polygonal dual mesh ``(points, ids, sizes)``: one vertex per face of the
    primal mesh, one face per interior primal vertex, its ``sizes[v]`` faces
    along the counterclockwise star.  ``ids`` is ``mesh.cycle_faces`` itself.
    ``face_points`` is ``(F, 3)``, or ``(k, F, 3)`` for ``k`` surfaces on the
    one dual mesh."""
    valences = np.diff(r.mesh.vertex_cycles.indptr)
    return np.asarray(face_points, dtype=float), r.mesh.cycle_faces, valences
