"""Infinitesimal deformations: per-edge scaling/rotation rates, the triangle
compatibility conditions, and construction of conformal / pattern
deformations from harmonic vertex functions."""

from dataclasses import dataclass

import numpy as np

from . import laplace
from .errors import IncompatibleRates, IntegrationDefect
from .mesh import integrate
from .realization import Realization


@dataclass
class EdgeRates:
    """Per-edge scaling (sigma) and rotation (omega) rates of a deformation:
    ``zdot_j - zdot_i = (sigma_ij + i omega_ij)(z_j - z_i)``.  Both attach to
    the unordered edge; arrays are aligned with ``mesh.edges``."""

    sigma: np.ndarray
    omega: np.ndarray

    @property
    def complex_rate(self):
        return self.sigma + 1j * self.omega


def edge_rates(r: Realization, zdot) -> EdgeRates:
    zdot = np.asarray(zdot, dtype=complex)
    mesh = r.mesh
    rate = np.empty(len(mesh.edges), dtype=complex)
    for e, (i, j) in enumerate(mesh.edges):
        rate[e] = (zdot[j] - zdot[i]) / (r.z[j] - r.z[i])
    return EdgeRates(rate.real, rate.imag)


@dataclass
class TriangleCompatReport:
    ok: np.ndarray  # per-face closure verdict
    defect: np.ndarray  # per-face complex closure defect, relative to edge scale
    omega_face: np.ndarray  # average rotation speed
    omega_spread: np.ndarray  # disagreement of the three expressions
    sigma_face: np.ndarray  # average scaling speed (circumradius log-rate)
    sigma_spread: np.ndarray
    radius_rate_error: np.ndarray  # |sigma_face - FD(R)/R| relative, nan if face failed


def check_triangle_compat(r: Realization, rates: EdgeRates, tol=1e-10, fd_step=1e-6):
    """Per-face compatibility of edge rates.

    Closure: the complex rates must sum to zero around each face boundary.
    For compatible faces the three cotangent expressions for the average
    rotation speed (and likewise the average scaling) must agree, and the
    average scaling is validated against a central finite difference of the
    circumradius under the reconstructed per-face deformation.
    """
    mesh = r.mesh
    nf = len(mesh.faces)
    c = rates.complex_rate
    eidx = mesh.edge_index

    ok = np.zeros(nf, dtype=bool)
    defect = np.zeros(nf, dtype=complex)
    omega_face = np.full(nf, np.nan)
    omega_spread = np.full(nf, np.nan)
    sigma_face = np.full(nf, np.nan)
    sigma_spread = np.full(nf, np.nan)
    rr_err = np.full(nf, np.nan)

    for f, (v1, v2, v3) in enumerate(mesh.faces):
        z1, z2, z3 = r.z[v1], r.z[v2], r.z[v3]
        c12 = c[eidx[(min(v1, v2), max(v1, v2))]]
        c23 = c[eidx[(min(v2, v3), max(v2, v3))]]
        c31 = c[eidx[(min(v3, v1), max(v3, v1))]]
        closure = c12 * (z2 - z1) + c23 * (z3 - z2) + c31 * (z1 - z3)
        scale = max(abs(z2 - z1), abs(z3 - z2), abs(z1 - z3))
        defect[f] = closure / scale
        ok[f] = abs(closure) <= tol * scale
        if not ok[f]:
            continue

        cot1, cot2, cot3 = r.cot[f]
        s12, s23, s31 = c12.real, c23.real, c31.real
        w12, w23, w31 = c12.imag, c23.imag, c31.imag
        omegas = np.array(
            [
                w23 + cot1 * (s31 - s12),
                w31 + cot2 * (s12 - s23),
                w12 + cot3 * (s23 - s31),
            ]
        )
        sigmas = np.array(
            [
                s23 - cot1 * (w31 - w12),
                s31 - cot2 * (w12 - w23),
                s12 - cot3 * (w23 - w31),
            ]
        )
        omega_face[f] = omegas[0]
        omega_spread[f] = float(omegas.max() - omegas.min())
        sigma_face[f] = sigmas[0]
        sigma_spread[f] = float(sigmas.max() - sigmas.min())

        # circumradius log-rate by central differences of the per-face
        # deformation reconstructed from the rates (translation gauge: zd1 = 0)
        zd1 = 0.0
        zd2 = c12 * (z2 - z1)
        zd3 = zd2 + c23 * (z3 - z2)
        t = fd_step

        def circumradius(a, b, cc):
            ar2 = abs((np.conj(b - a) * (cc - a)).imag)
            return abs(b - a) * abs(cc - b) * abs(a - cc) / (2.0 * ar2)

        rp = circumradius(z1 + t * zd1, z2 + t * zd2, z3 + t * zd3)
        rm = circumradius(z1 - t * zd1, z2 - t * zd2, z3 - t * zd3)
        r0 = r.circumradius[f]
        rr = (rp - rm) / (2.0 * t * r0)
        denom = max(abs(sigma_face[f]), abs(rr), 1e-12)
        rr_err[f] = abs(sigma_face[f] - rr) / denom

    return TriangleCompatReport(
        ok, defect, omega_face, omega_spread, sigma_face, sigma_spread, rr_err
    )


def require_triangle_compat(r: Realization, rates: EdgeRates, tol=1e-10):
    report = check_triangle_compat(r, rates, tol)
    if not report.ok.all():
        f = int(np.flatnonzero(~report.ok)[0])
        raise IncompatibleRates(
            f"edge rates do not close on face {f} (defect {report.defect[f]:.3e})",
            face=f,
            defect=report.defect[f],
        )
    return report


def conformal_deformation(r: Realization, u, anchor_vertex=0, anchor_face=0):
    """Infinitesimal conformal deformation with scale factors ``u``.

    Built from the conjugate harmonic function of ``u``; gauge fixed by
    ``zdot = 0`` at the anchor vertex and zero face potential on the anchor
    face.  Raises ``NotHarmonic`` / ``NotSimplyConnected`` / ``IntegrationDefect``.
    """
    u = np.asarray(u, dtype=float)
    mesh = r.mesh
    conj = laplace.conjugate_harmonic(r, u, anchor_face)
    form = np.empty(len(mesh.edges), dtype=complex)
    for e, (i, j) in enumerate(mesh.edges):
        form[e] = ((u[i] + u[j]) / 2.0 + 1j * conj.edge_rotation[e]) * (r.z[j] - r.z[i])
    zdot = integrate(mesh, form, anchor_vertex)
    zdot.require(1e-10, IntegrationDefect, "closure failure {gap:.3e} on co-tree edge {edge}")
    return zdot.potential


def pattern_deformation(r: Realization, alpha, anchor_vertex=0, anchor_face=0):
    """Infinitesimal pattern deformation with angular velocities ``alpha``
    (the ``i *`` rotation of the conformal deformation with the same data)."""
    return 1j * conformal_deformation(r, alpha, anchor_vertex, anchor_face)
