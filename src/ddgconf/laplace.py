"""Cotangent Laplacian: edge weights, harmonicity, Dirichlet solves and the
conjugate harmonic function on faces."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .errors import InvalidInput, MissingBoundaryData, NotHarmonic, SingularSystem
from .mesh import Defect, _floor, integrate, magnitude
from .realization import Realization

# downstream operations accept h as harmonic when |Lh|_inf <= HARMONIC_RTOL * |dh|_inf
HARMONIC_RTOL = 1e-8


def cotan_weights(r: Realization):
    """``w_ij = cot(angle at left apex) + cot(angle at right apex)`` per
    interior edge, with signed angles (negatively oriented faces contribute
    negated cotangents).  Computed once per realization; the array is
    read-only."""
    return r.cotan_weights


def laplacian(r: Realization, h):
    """Weighted vertex sums ``sum_j w_ij (h_j - h_i)`` at interior vertices.

    Returns an array aligned with ``mesh.interior_vertices``.
    """
    D = r.mesh.interior_incidence
    # summed at each vertex in edge order; negating the result instead would
    # turn a residual of 0.0 into -0.0
    return (D.T @ (cotan_weights(r) * -(D @ np.asarray(h))))[r.mesh.interior_vertices]


def gradient_scale(r: Realization, h):
    """``max |h_j - h_i|`` over edges; the natural scale of dh."""
    h = np.asarray(h)
    i, j = r.mesh.edge_ends.T
    return float(magnitude(h[j] - h[i]).max())


def check_harmonic(r: Realization, h, rtol=HARMONIC_RTOL):
    """``(harmonic, defect, Lh)``: ``h`` is harmonic when each ``|Lh|``
    passes ``rtol`` against ``|dh|_inf`` (a constant ``h`` does)."""
    res = laplacian(r, h)
    defect = Defect(np.abs(res), gradient_scale(r, h), r.mesh.interior_vertices, "vertex")
    return defect.passes(rtol), defect, res


def require_harmonic(r: Realization, h):
    harmonic, defect, _ = check_harmonic(r, h)
    if not harmonic:
        residual, bound = float(np.max(defect.value, initial=0.0)), HARMONIC_RTOL * defect.scale
        raise NotHarmonic(
            f"Laplacian residual {residual:.3e} exceeds {HARMONIC_RTOL:.1e} * |dh| = {bound:.3e}"
        )


def solve_dirichlet(r: Realization, boundary):
    """Harmonic extension of boundary data.

    ``boundary`` is a dict mapping each boundary vertex to its value (other
    keys are ignored); a missing vertex raises ``MissingBoundaryData`` and a
    non-finite value ``InvalidInput``.  The realization's interior system
    (``r.dirichlet_system``) is solved by sparse LU (a symmetric
    minimum-degree ordering) with up to three steps of iterative refinement;
    the result satisfies ``|Lh|_inf <= 1e-10 * |h|_inf`` or
    ``SingularSystem`` is raised.
    """
    mesh = r.mesh
    mesh.require_disk()

    g = np.zeros(mesh.vertex_count)
    vertices = mesh.boundary_vertices.tolist()
    missing = set(vertices).difference(boundary)
    if missing:
        raise MissingBoundaryData(f"no boundary value for vertex {min(missing)}")
    g[vertices] = [boundary[v] for v in vertices]
    bad = np.flatnonzero(~np.isfinite(g))
    if len(bad):
        raise InvalidInput(f"vertex {bad[0]} has a non-finite value", vertex=int(bad[0]))

    if not mesh.interior_vertices:
        return g

    A, B = r.dirichlet_system
    b = B @ g
    # A is symmetric: a minimum-degree ordering of A + A^T with diagonal
    # pivots roughly halves the fill of the default COLAMD ordering; the
    # threshold still pivots where a diagonal nearly vanishes
    try:
        lu = spla.splu(
            A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1, options={"SymmetricMode": True}
        )
    except RuntimeError as exc:
        raise SingularSystem(f"interior cotan system is singular: {exc}") from exc
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularSystem("interior cotan system produced non-finite values")

    # iterative refinement down to the residual contract
    h_scale = _floor(max(float(np.abs(g).max()), float(np.abs(x).max())))
    for _ in range(3):
        res = A @ x - b
        if float(np.abs(res).max()) <= 1e-12 * h_scale:
            break
        x = x - lu.solve(res)
    else:
        res = float(np.abs(A @ x - b).max())
        if not res <= 1e-10 * h_scale:
            raise SingularSystem(
                f"interior cotan residual {res:.3e} exceeds 1e-10 * |h| = {1e-10 * h_scale:.3e} "
                "after 3 refinement steps"
            )

    h = g.copy()
    h[mesh.interior_vertices] = x
    return h


@dataclass
class ConjugateHarmonic:
    face_potential: np.ndarray  # omega~ per face, anchored 0 on the anchor face
    edge_rotation: np.ndarray  # omega per edge (all edges)
    closure_defect: float  # worst dual co-tree defect, relative


def conjugate_harmonic(r: Realization, h, anchor_face=0):
    """Face potential of the rotation part of the deformation induced by a
    harmonic ``h``.

    ``omega~`` integrates the dual 1-form ``(w_ij / 2) (h_j - h_i)`` over a
    dual spanning tree;
    ``omega_ij = omega~_left - (1/2) cot(beta at left apex) (h_j - h_i)``,
    with the right-face evaluation agreeing by harmonicity.  The factor 1/2
    makes the per-face rotation rates compatible with the edge scale rates
    ``(h_i + h_j) / 2``; see :func:`ddgconf.deform.check_triangle_compat`.
    """
    mesh = r.mesh
    mesh.require_disk()
    h = np.asarray(h, dtype=float)
    require_harmonic(r, h)

    i, j = mesh.edge_ends.T
    dh = h[j] - h[i]
    dual = integrate(mesh, 0.5 * cotan_weights(r) * dh[mesh.interior_edges], anchor_face, dual=True)
    wt = dual.potential

    # evaluated on the left face of each edge, or on the right face on the
    # boundary, with the cotangent at that face's apex: two corners on from
    # the edge's own corner
    on_left = mesh.edge_faces[:, 0] >= 0
    face = np.where(on_left, *mesh.edge_faces.T)
    corner = np.where(on_left, *mesh.edge_corners.T)
    half = 0.5 * r.cot.ravel()[mesh.next_corner(corner, 2)] * dh
    omega = np.where(on_left, wt[face] - half, wt[face] + half)
    return ConjugateHarmonic(wt, omega, dual.defect.worst)
