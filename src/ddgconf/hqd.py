"""Discrete holomorphic quadratic differentials.

A quadratic differential assigns a purely imaginary number to each interior
edge; holomorphicity means both weighted sums around every interior vertex
vanish.  This module builds them from harmonic vertex functions (via the
face-wise interpolation gradient), verifies them, integrates them back to a
harmonic function, and checks the Moebius-invariance and cross-ratio-rate
identities.
"""

from dataclasses import dataclass

import numpy as np

from . import laplace
from .deform import cross_ratio_rate
from .errors import ClosureDefect, NotRealizable
from .mesh import Defect, _floor, integrate, magnitude
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


@dataclass
class GradField:
    grad: np.ndarray  # interpolation gradient per face
    uz: np.ndarray  # conj(grad) / 2 per face


def gradient(r: Realization, u) -> GradField:
    """Gradient of the piecewise-linear interpolant of ``u``, constant per
    face: ``i (u_i dz(e_jk) + u_j dz(e_ki) + u_k dz(e_ij)) / (2 A)``."""
    u = np.asarray(u)
    tri = r.tri
    z = r.z
    zi, zj, zk = z[tri[:, 0]], z[tri[:, 1]], z[tri[:, 2]]
    ui, uj, uk = u[tri[:, 0]], u[tri[:, 1]], u[tri[:, 2]]
    grad = 1j * (ui * (zk - zj) + uj * (zi - zk) + uk * (zj - zi)) / r.area2
    return GradField(grad, 0.5 * np.conj(grad))


def _duz(r: Realization, u):
    """Dual 1-form ``uz(left face) - uz(right face)`` per interior edge."""
    uz = gradient(r, u).uz
    left, right = r.mesh.interior_faces.T
    return uz[left] - uz[right]


def qdiff_from_function(r: Realization, u):
    """``du_z(e*) dz(e)`` per interior edge, for an arbitrary vertex function.

    Purely imaginary for every ``u``; holomorphic precisely when ``u`` is
    harmonic."""
    q = _duz(r, u) * r.interior_dz()
    return QuadDiff(q.imag)


def qdiff_from_harmonic(r: Realization, u, rtol=laplace.HARMONIC_RTOL):
    """Holomorphic quadratic differential of a harmonic function."""
    laplace.require_harmonic(r, u, rtol)
    return qdiff_from_function(r, u)


def qdiff_cotan(r: Realization, u):
    """Independent cotangent-formula evaluation of the quadratic differential
    (used to cross-check :func:`qdiff_from_function`)."""
    u = np.asarray(u, dtype=float)
    i, j, k, l = r.flap_points()
    fl, fr = r.mesh.interior_faces.T
    return (-0.5j) * (
        r.cot_at(fl, i) * (u[k] - u[j])
        + r.cot_at(fl, j) * (u[k] - u[i])
        + r.cot_at(fr, j) * (u[l] - u[i])
        + r.cot_at(fr, i) * (u[l] - u[j])
    )


@dataclass
class QDiffReport:
    holomorphic: bool
    max_real_part: float  # |Re q|_inf / |q|_inf
    vertex_sum: dict  # interior vertex -> complex defect of sum q
    weighted_sum: dict  # interior vertex -> complex defect of sum q / dz
    max_defect: float  # worst normalized defect across all three checks
    defects: tuple  # the three checks' Defects: |Re q|, |sum q|, |sum q / dz|


def verify_qdiff(r: Realization, q, tol=1e-9) -> QDiffReport:
    """Check that ``q`` is purely imaginary and that both vertex sums vanish.

    Defects are normalized by the sup norm of the respective summands.
    """
    q = _as_complex(q)
    mesh = r.mesh
    q_scale = np.abs(q).max(initial=0.0)
    # tau is stored for the canonical orientation (i < j); around v the term
    # is q_vj / (z_j - z_v)
    tau = q / r.interior_dz()

    s0, s1, v = mesh.cycle_sum(q), mesh.cycle_sum(tau, signed=True), mesh.interior_vertices
    defects = (
        Defect(np.abs(q.real), q_scale, mesh.interior_ends, "edge"),
        Defect(magnitude(s0), q_scale, v, "vertex"),
        Defect(magnitude(s1), np.abs(tau).max(initial=0.0), v, "vertex"),
    )
    worst = float(np.max([d.worst for d in defects]))
    sums = dict(zip(v, s0)), dict(zip(v, s1))
    return QDiffReport(worst <= tol, defects[0].worst, *sums, worst, defects)


def harmonic_from_qdiff(r: Realization, q, anchor_vertex=0, anchor_face=0, tol=1e-9):
    """Integrate a quadratic differential back to a vertex function.

    Requires only the weighted vertex sums ``sum q / dz = 0`` (the dual form
    ``q / dz`` must be closed).  If ``q`` is fully holomorphic the result is
    harmonic and reproduces ``q``.  Anchored to 0 at ``anchor_vertex``.
    """
    q = _as_complex(q)
    mesh = r.mesh
    mesh.require_disk()

    dual = integrate(mesh, q / r.interior_dz(), anchor_face, dual=True)
    message = "dual form q/dz fails to close across edge {edge} (defect {defect:.3e}); "
    dual.defect.require(tol, ClosureDefect, message + "the weighted vertex sums do not vanish")
    h = dual.potential

    # omega(e_ij) = <2 conj(h_face), dz(e_ij)> = Re(2 h_face dz(e_ij)), the same
    # from either side iff Re q = 0
    i, j = mesh.edge_ends.T
    dz = r.z[j] - r.z[i]
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
    realization (same edge values, new positions)."""
    from .moebius import MoebiusMap  # local import to avoid a cycle

    if not isinstance(phi, MoebiusMap):
        phi = MoebiusMap(*phi)
    w = phi.apply(r.z)
    return verify_qdiff(Realization(r.mesh, w), q, tol)


@dataclass
class RateCheckReport:
    ok: bool
    max_fd_error: float  # q vs finite-difference log cross-ratio derivative
    max_analytic_error: float  # q vs the rotation-rate combination
    max_angle_error: float  # Im part vs intersection-angle derivative


def cross_ratio_rate_check(
    r: Realization, u, zdot, fd_tol=1e-5, analytic_tol=1e-10
) -> RateCheckReport:
    """Check ``q = du_z dz = d/dt log cr`` against a central finite
    difference of the cross ratios under ``z + t zdot``, and against the
    analytic rotation-rate combination from the edge rates of ``zdot``.

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
    ok = fd_err <= fd_tol and ana_err <= analytic_tol and angle_err <= fd_tol
    return RateCheckReport(ok, fd_err, ana_err, angle_err)
