"""Infinitesimal deformations: per-edge scaling/rotation rates, the triangle
compatibility conditions, and construction of conformal / pattern
deformations from harmonic vertex functions."""

from dataclasses import dataclass

import numpy as np

from . import laplace
from .errors import IntegrationDefect
from .mesh import Defect, integrate, magnitude, product, reduce_rows
from .realization import Realization, _check_length


@dataclass
class EdgeRates:
    """Per-edge scaling (sigma) and rotation (omega) rates of a deformation:
    ``zdot_j - zdot_i = (sigma_ij + i omega_ij)(z_j - z_i)``.  Both attach to
    the unordered edge; arrays are aligned with ``mesh.edge_ends``."""

    sigma: np.ndarray
    omega: np.ndarray

    @property
    def complex_rate(self):
        return self.sigma + 1j * self.omega


def edge_rates(r: Realization, zdot) -> EdgeRates:
    _check_length(r, zdot)
    zdot = np.asarray(zdot, dtype=complex)
    i, j = r.mesh.edge_ends.T
    rate = (zdot[j] - zdot[i]) / r.edge_dz
    return EdgeRates(rate.real, rate.imag)


def _flap_rates(r: Realization, rates: EdgeRates):
    """The complex rates ``c`` on each interior edge's flap ``(i, j, k, l)``,
    columns ``jk, ki, il, lj``, and ``d/dt log cr = c_jk - c_ki + c_il - c_lj``."""
    c = rates.complex_rate[r.mesh.flap_edges]
    return c, c[:, 0] - c[:, 1] + c[:, 2] - c[:, 3]


def cross_ratio_rate(r: Realization, zdot):
    """``d/dt log cr`` per interior edge, from the complex edge rates of
    ``zdot`` on its flap."""
    return _flap_rates(r, edge_rates(r, zdot))[1]


def holomorphic_defect(r: Realization, rates: EdgeRates):
    """``|Re d/dt log cr|`` per interior edge against the local scale
    ``|c_jk| + |c_ki| + |c_il| + |c_lj|``.  The rates come from a holomorphic
    vector field, one whose deformation keeps every length cross ratio,
    where it vanishes."""
    _check_length(r, rates.sigma, "edge")
    _check_length(r, rates.omega, "edge")
    c, rate = _flap_rates(r, rates)
    scale = magnitude(c[:, 0]) + magnitude(c[:, 1]) + magnitude(c[:, 2]) + magnitude(c[:, 3])
    return Defect(np.abs(rate.real), scale, r.mesh.interior_ends, "edge")


@dataclass
class TriangleCompatReport:
    ok: np.ndarray  # per-face closure verdict
    defect: np.ndarray  # per-face complex closure defect, relative to edge scale
    omega_face: np.ndarray  # average rotation speed
    omega_spread: np.ndarray  # disagreement of the three expressions
    sigma_face: np.ndarray  # average scaling speed (circumradius log-rate)
    sigma_spread: np.ndarray
    radius_rate_error: np.ndarray  # |sigma_face - d/dt log R| relative, nan if face failed
    closure: Defect  # |closure| per face, against the face's longest side


def check_triangle_compat(r: Realization, rates: EdgeRates, tol=1e-10):
    """Per-face compatibility of edge rates.

    Closure: the complex rates must sum to zero around each face boundary.
    For compatible faces the three cotangent expressions for the average
    rotation speed (and likewise the average scaling) must agree, and the
    average scaling is validated against the circumradius log-rate
    ``d/dt log R``, differentiated through the side lengths and the area.
    """
    _check_length(r, rates.sigma, "edge")
    _check_length(r, rates.omega, "edge")
    nf = len(r.mesh.faces)
    c = rates.complex_rate[r.mesh.face_edges]  # c12, c23, c31
    dz = r.face_dz.T  # z2 - z1, z3 - z2, z1 - z3
    step = product(c, dz)
    closure = step[:, 0] + step[:, 1] + step[:, 2]
    scale = reduce_rows(np.maximum, magnitude(dz))
    defect = closure / scale
    closed = Defect(magnitude(closure), scale, np.arange(nf), "face")
    ok = closed.relative <= tol

    omega_face, omega_spread, sigma_face, sigma_spread, rr_err = np.full((5, nf), np.nan)
    cot, s, w = r.cot[ok], c[ok].real, c[ok].imag
    # expression m pairs the corner cotangent m with the opposite edge m + 1
    omegas = np.roll(w, -1, axis=1) + cot * (np.roll(s, -2, axis=1) - s)
    sigmas = np.roll(s, -1, axis=1) - cot * (np.roll(w, -2, axis=1) - w)
    omega_face[ok] = omegas[:, 0]
    omega_spread[ok] = reduce_rows(np.maximum, omegas) - reduce_rows(np.minimum, omegas)
    sigma_face[ok] = sigmas[:, 0]
    sigma_spread[ok] = reduce_rows(np.maximum, sigmas) - reduce_rows(np.minimum, sigmas)

    # d/dt log R of R = L12 L23 L31 / 2|area2|: each side adds its sigma, the
    # doubled area Im w, w = conj(z2 - z1)(z3 - z1), moves by Im((conj(c12) + c31) w)
    w = product(np.conj(dz[ok, 0]), -dz[ok, 2])
    area_rate = product(np.conj(c[ok, 0]) + c[ok, 2], w).imag / r.area2[ok]
    rr = s[:, 0] + s[:, 1] + s[:, 2] - area_rate
    denom = np.maximum(np.maximum(np.abs(sigma_face[ok]), np.abs(rr)), 1e-12)
    rr_err[ok] = np.abs(sigma_face[ok] - rr) / denom

    return TriangleCompatReport(
        ok, defect, omega_face, omega_spread, sigma_face, sigma_spread, rr_err, closed
    )


def conformal_deformation(r: Realization, u, anchor_vertex=0, anchor_face=0):
    """Infinitesimal conformal deformation with scale factors ``u``.

    Built from the conjugate harmonic function of ``u``; gauge fixed by
    ``zdot = 0`` at the anchor vertex and zero face potential on the anchor
    face.  Raises ``NotHarmonic`` / ``NotSimplyConnected`` / ``IntegrationDefect``.
    """
    u = np.asarray(u, dtype=float)
    mesh = r.mesh
    conj = laplace.conjugate_harmonic(r, u, anchor_face)
    i, j = mesh.edge_ends.T
    form = product((u[i] + u[j]) / 2.0 + 1j * conj.edge_rotation, r.edge_dz)
    zdot = integrate(mesh, form, anchor_vertex)
    message = "closure failure {defect:.3e} on co-tree edge {edge}"
    zdot.defect.require(1e-10, IntegrationDefect, message)
    return zdot.potential


def pattern_deformation(r: Realization, alpha, anchor_vertex=0, anchor_face=0):
    """Infinitesimal pattern deformation with angular velocities ``alpha``
    (the ``i *`` rotation of the conformal deformation with the same data)."""
    return 1j * conformal_deformation(r, alpha, anchor_vertex, anchor_face)
