"""Cotangent Laplacian: edge weights, harmonicity, Dirichlet solves and the
conjugate harmonic function on faces."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .errors import InvalidInput, MissingBoundaryData, NotHarmonic, SingularSystem
from .mesh import Defect, _floor, _read_only, integrate, magnitude
from .realization import Realization, _check_length

# downstream operations accept h as harmonic when |Lh|_inf <= HARMONIC_RTOL * |dh|_inf
HARMONIC_RTOL = 1e-8


def cotan_weights(r: Realization):
    """``w_ij = cot(angle at left apex) + cot(angle at right apex)`` per
    interior edge, with signed angles (negatively oriented faces contribute
    negated cotangents).  Computed once per realization; the array is
    read-only."""
    return r.cotan_weights


def laplacian(r: Realization, h):
    """Weighted vertex sums ``sum_j w_ij (h_j - h_i)`` at interior vertices,
    aligned with ``mesh.interior_vertices``: one signed
    :meth:`TriMesh.cycle_sum`, which sums slot by slot around each vertex."""
    _check_length(r, h)
    h = np.asarray(h)
    i, j = r.mesh.interior_ends.T
    return r.mesh.cycle_sum(cotan_weights(r) * (h[j] - h[i]), signed=True)


def gradient_scale(r: Realization, h):
    """``max |h_j - h_i|`` over edges; the natural scale of dh."""
    _check_length(r, h)
    h = np.asarray(h)
    i, j = r.mesh.edge_ends.T
    return float(magnitude(h[j] - h[i]).max())


def check_harmonic(r: Realization, h, rtol=HARMONIC_RTOL):
    """``(harmonic, defect, Lh)``: ``h`` is harmonic when each ``|Lh|``
    passes ``rtol`` against ``|dh|_inf`` (a constant ``h`` does).  A field
    checked again on the same realization is checked once: ``r`` keeps the
    last field's defect and ``Lh``, read-only (:meth:`Realization.checked`),
    and only the verdict is taken again, against ``rtol``."""
    _check_length(r, h)
    h = np.asarray(h)

    def check():
        res = _read_only(laplacian(r, h))
        return Defect(_read_only(np.abs(res)), gradient_scale(r, h), r.mesh.interior_vertices, "vertex"), res

    defect, res = r.checked("check_harmonic", h, check)
    return defect.passes(rtol), defect, res


def require_harmonic(r: Realization, h):
    message = "Laplacian residual {defect:.3e} at vertex {vertex} exceeds %g * |dh|" % HARMONIC_RTOL
    check_harmonic(r, h)[1].require(HARMONIC_RTOL, NotHarmonic, message + " ({scale:.3e})")


def solve_dirichlet(r: Realization, boundary):
    """Harmonic extension of boundary data.

    ``boundary`` is a dict mapping each boundary vertex to its value (other
    keys are ignored); a missing vertex raises ``MissingBoundaryData`` and a
    non-finite value ``InvalidInput``.  The realization's interior system
    (``r.dirichlet_system``, already in its symmetric minimum-degree order)
    is solved by sparse LU (in that order, factored in single-column panels)
    with up to three steps of iterative refinement;
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

    A, B, rows = r.dirichlet_system
    b = B @ g
    # A is symmetric and stored in the minimum-degree (MMD) order of A + A^T,
    # which with diagonal pivots roughly halves the fill of the default COLAMD
    # ordering; factoring it in its own order gives the fill and the pivots of
    # an MMD factor without deriving the ordering again.  The threshold still
    # pivots where a diagonal nearly vanishes.  Single-column panels keep the
    # fill and the ordering and only reschedule the column updates, which is
    # cheaper on these narrow supernodes
    try:
        lu = spla.splu(
            A,
            permc_spec="NATURAL",
            diag_pivot_thresh=0.1,
            panel_size=1,
            options={"SymmetricMode": True},
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
    h[rows] = x
    return h


@dataclass
class ConjugateHarmonic:
    face_potential: np.ndarray  # omega~ per face, anchored 0 on the anchor face
    edge_rotation: np.ndarray  # omega per edge (all edges)


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
    wt = integrate(mesh, 0.5 * cotan_weights(r) * dh[mesh.interior_edges], anchor_face, dual=True).potential

    # evaluated on the left face of each edge, or on the right face on the
    # boundary, with the cotangent at that face's apex
    face, half_cot = r.rotation_stencil
    omega = wt.take(face) + half_cot * dh
    return ConjugateHarmonic(wt, omega)
