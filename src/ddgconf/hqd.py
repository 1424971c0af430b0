"""Discrete holomorphic quadratic differentials.

A quadratic differential assigns a purely imaginary number to each interior
edge; holomorphicity means both weighted sums around every interior vertex
vanish.  This module builds them from harmonic vertex functions (via the
face-wise interpolation gradient), verifies them, integrates them back to a
harmonic function, and checks the Moebius-invariance and cross-ratio-rate
identities.
"""

from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import laplace
from .deform import cross_ratio_rate
from .errors import ClosureDefect, NotRealizable
from .mesh import Defect, _floor, _read_only, integrate, magnitude
from .realization import Realization, cross_ratios, intersection_angles


@dataclass
class QuadDiff:
    """Purely imaginary edge function, stored by its imaginary part
    (one real number per interior edge, aligned with ``mesh.interior_edges``)."""

    imag: np.ndarray

    @property
    def values(self):
        return 1j * self.imag


def _as_complex(q):
    if isinstance(q, QuadDiff):
        return q.values
    return np.asarray(q, dtype=complex)


def gradient(r: Realization, u):
    """Gradient of the piecewise-linear interpolant of ``u``, constant per
    face: ``i (u_i dz(e_jk) + u_j dz(e_ki) + u_k dz(e_ij)) / (2 A)``."""
    ui, uj, uk = np.asarray(u)[r.mesh.faces.T]
    dz_ij, dz_jk, dz_ki = r.face_dz
    return 1j * (ui * dz_jk + uj * dz_ki + uk * dz_ij) / r.area2


def _duz(r: Realization, u):
    """Dual 1-form ``uz(left face) - uz(right face)`` per interior edge, with
    ``uz = conj(grad) / 2`` per face."""
    uz = 0.5 * np.conj(gradient(r, u))
    left, right = r.mesh.interior_faces.T
    return uz[left] - uz[right]


def qdiff_from_function(r: Realization, u):
    """``du_z(e*) dz(e)`` per interior edge, for an arbitrary vertex function.

    Purely imaginary for every ``u``; holomorphic precisely when ``u`` is
    harmonic."""
    q = _duz(r, u) * r.interior_dz
    return QuadDiff(q.imag)


def qdiff_from_harmonic(r: Realization, u):
    """Holomorphic quadratic differential of a harmonic function."""
    laplace.require_harmonic(r, u)
    return qdiff_from_function(r, u)


def qdiff_cotan(r: Realization, u):
    """Independent cotangent-formula evaluation of the quadratic differential
    (used to cross-check :func:`qdiff_from_function`)."""
    u = np.asarray(u, dtype=float)
    i, j, k, l = r.flap_points()
    # the cotangents at i, j, k of the left face and at j, i, l of the right
    (li, lj, _), (rj, ri, _) = r.cot.ravel()[r.mesh.flap_corners()].transpose(1, 2, 0)
    return (-0.5j) * (
        li * (u[k] - u[j]) + lj * (u[k] - u[i]) + rj * (u[l] - u[i]) + ri * (u[l] - u[j])
    )


class VertexSums(Mapping):
    """Read-only view that reads as ``dict(zip(vertices, sums))`` for an
    ascending list ``vertices``, but builds no dict that no caller reads."""

    def __init__(self, vertices, sums):
        self._vertices, self._sums = vertices, sums

    def __getitem__(self, v):
        k = bisect_left(self._vertices, v)
        if k == len(self._vertices) or self._vertices[k] != v:
            raise KeyError(v)
        return self._sums[k]

    def __iter__(self):
        return iter(self._vertices)

    def __len__(self):
        return len(self._vertices)

    def __repr__(self):
        return repr(dict(self))


@dataclass
class QDiffReport:
    """The verdict of :func:`verify_qdiff`; its per-vertex maps are
    :class:`VertexSums` over ``interior_vertices``."""

    holomorphic: bool
    max_real_part: float  # |Re q|_inf / |q|_inf
    vertex_sum: Mapping  # interior vertex -> complex defect of sum q
    weighted_sum: Mapping  # interior vertex -> complex defect of sum q / dz
    max_defect: float  # worst normalized defect across all three checks
    defects: tuple  # the three checks' Defects: |Re q|, |sum q|, |sum q / dz|


def verify_qdiff(r: Realization, q, tol=1e-9) -> QDiffReport:
    """Check that ``q`` is purely imaginary and that both vertex sums vanish.

    Defects are normalized by the sup norm of the respective summands.  A
    field checked again on the same realization is checked once: ``r`` keeps
    the last field's defects and sums, read-only
    (:meth:`Realization.checked`), and only the verdict is taken again,
    against ``tol``.
    """
    q = _as_complex(q)
    defects, worst, real_part, s0, s1 = r.checked("verify_qdiff", q, lambda: _qdiff_defects(r, q))
    v = r.mesh.interior_vertices
    return QDiffReport(worst <= tol, real_part, VertexSums(v, s0), VertexSums(v, s1), worst, defects)


def _qdiff_defects(r: Realization, q):
    """The three ``Defect``s of :func:`verify_qdiff`, the worst of them and
    of the first, and the two vertex sums."""
    mesh = r.mesh
    q_scale = np.abs(q).max(initial=0.0)
    # tau is stored for the canonical orientation (i < j); around v the term
    # is q_vj / (z_j - z_v)
    tau = q / r.interior_dz

    s0, s1, v = mesh.cycle_sum(q), mesh.cycle_sum(tau, signed=True), mesh.interior_vertices
    defects = (
        Defect(_read_only(np.abs(q.real)), q_scale, mesh.interior_ends, "edge"),
        Defect(_read_only(magnitude(s0)), q_scale, v, "vertex"),
        Defect(_read_only(magnitude(s1)), np.abs(tau).max(initial=0.0), v, "vertex"),
    )
    worst = float(np.max([d.worst for d in defects]))
    return defects, worst, defects[0].worst, _read_only(s0), _read_only(s1)


def harmonic_from_qdiff(r: Realization, q, anchor_vertex=0, anchor_face=0, tol=1e-9):
    """Integrate a quadratic differential back to a vertex function.

    Requires only the weighted vertex sums ``sum q / dz = 0`` (the dual form
    ``q / dz`` must be closed).  If ``q`` is fully holomorphic the result is
    harmonic and reproduces ``q``.  Anchored to 0 at ``anchor_vertex``.
    """
    q = _as_complex(q)
    mesh = r.mesh
    mesh.require_disk()

    dual = integrate(mesh, q / r.interior_dz, anchor_face, dual=True)
    message = "dual form q/dz fails to close across edge {edge} (defect {defect:.3e}, scale "
    message += "{scale:.3e}); the weighted vertex sums do not vanish"
    dual.defect.require(tol, ClosureDefect, message)
    h = dual.potential

    # omega(e_ij) = <2 conj(h_face), dz(e_ij)> = Re(2 h_face dz(e_ij)), the same
    # from either side iff Re q = 0
    dz = r.edge_dz
    side = 2.0 * h[mesh.edge_faces]  # a missing face (-1) is never read
    left, right = (side.real * dz.real[:, None] - side.imag * dz.imag[:, None]).T
    has_left, has_right = (mesh.edge_faces >= 0).T
    _require_realizable(mesh, left[has_left & has_right], right[has_left & has_right], tol)

    u = integrate(mesh, np.where(has_left, left, right), anchor_vertex)
    u.defect.require(tol, ClosureDefect, "primal form fails to close on edge {edge}")
    return u.potential


def _require_realizable(mesh, left, right, tol):
    """The two face-side evaluations ``left`` and ``right`` of each interior
    edge (in ``interior_ends`` order) must agree."""
    scale = np.maximum(np.maximum(np.abs(left), np.abs(right)), 1.0)
    message = "edge {edge}: the two face-side evaluations disagree ({left:.6e} vs {right:.6e})"
    defect = Defect(np.abs(left - right), scale, mesh.interior_ends, "edge")
    defect.require(tol, NotRealizable, message + "; q has a real part", left=left, right=right)


def project_out_linear(r: Realization, u):
    """Remove the best Euclidean least-squares fit by ``span{1, Re z, Im z}``."""
    u = np.asarray(u, dtype=float)
    basis = np.stack([np.ones_like(u), r.z.real, r.z.imag], axis=1)
    coef, *_ = np.linalg.lstsq(basis, u, rcond=None)
    return u - basis @ coef


def qdiff_moebius_pushforward_check(r: Realization, q, phi, tol=1e-9):
    """Verify that ``q`` is still holomorphic on the Moebius image of the
    realization (same edge values, new positions); ``phi`` is a
    :class:`~ddgconf.moebius.MoebiusMap`."""
    w = phi.apply(r.z)
    return verify_qdiff(Realization(r.mesh, w), q, tol)


@dataclass
class RateCheckReport:
    ok: bool
    max_fd_error: float  # q vs finite-difference log cross-ratio derivative
    max_analytic_error: float  # q vs the rotation-rate combination
    max_angle_error: float  # Im part vs intersection-angle derivative


def cross_ratio_rate_check(r: Realization, u, zdot) -> RateCheckReport:
    """Check ``q = du_z dz = d/dt log cr`` against a central finite
    difference of the cross ratios under ``z + t zdot`` (to 1e-5), and against
    the analytic rotation-rate combination from the edge rates of ``zdot``
    (to 1e-10).

    The log-derivative of the cross ratio of a conformal deformation is
    purely imaginary and equals ``q`` edgewise; equivalently the circle
    intersection angles change at rate ``Im q``.
    """
    mesh = r.mesh
    q = qdiff_from_function(r, u).values
    q_scale = np.abs(q).max(initial=0.0)

    def worst(value, scale):
        return Defect(value, scale, mesh.interior_ends, "edge").worst

    zdot = np.asarray(zdot, dtype=complex)
    t = 1e-6 * r.edge_scale() / _floor(np.abs(zdot).max())
    plus, minus = Realization(mesh, r.z + t * zdot), Realization(mesh, r.z - t * zdot)
    dlog_cr = (cross_ratios(plus) - cross_ratios(minus)) / (2.0 * t * cross_ratios(r))
    fd_err = worst(np.abs(q - dlog_cr), q_scale)
    ana_err = worst(magnitude(q - cross_ratio_rate(r, zdot)), q_scale)

    # q = i phi_dot, so the expected angle rate is Im(q); both read the cached cross ratios
    phip, phim = intersection_angles(plus), intersection_angles(minus)
    dphi = np.angle(np.exp(1j * (phip - phim))) / (2.0 * t)
    angle_err = worst(np.abs(dphi - q.imag), np.abs(dphi).max(initial=0.0))
    ok = fd_err <= 1e-5 and ana_err <= 1e-10 and angle_err <= 1e-5
    return RateCheckReport(ok, fd_err, ana_err, angle_err)
