"""Identities that hold by construction, as checks for the tests.

The library does not re-prove these on each call; the tests do, with the
tolerances the library once applied.

- The transitions ``G = A_right^{-1} A_left`` between two realizations of
  one mesh fix the lifts ``psi = (z, 1)`` of both ends of their edge,
  ``G psi_i = psi_i / lambda`` and ``G psi_j = lambda psi_j``
  (:func:`eigen_residual`); so ``cr_b = cr_a / lambda^2``
  (:func:`cross_ratio_residual`) and the product of ``G`` around an
  interior vertex is ``+-I`` (:func:`cycle_products`).
  :func:`transitions_consistent` is the verdict ``ddg moebius transitions``
  once printed: the cross-ratio residual within ``tol``, the cycle residual
  within ``10 tol``.
- Around an interior vertex ``v``, with ``d = z_j - z_v``, each term of the
  sl(2,C) form is ``(mu / d) K1(z_v) + mu K2(z_v)``, so its matrix sum is
  ``(sum mu / d) K1 + (sum mu) K2`` (:func:`k1k2_residual`), and it vanishes
  exactly where the rate sum and the weighted sum that
  ``moebius.check_sl2_form_closed`` checks do (:func:`sl2_equivalence_ok`).
- On a face whose edge rates close, the three cotangent expressions of the
  average rotation speed agree, and so do those of the average scaling
  (:func:`cotangent_spreads`; ``deform.check_triangle_compat`` reports the
  first); the average scaling is the circumradius log-rate ``d/dt log R``
  (:func:`radius_rate_error`), differentiated through the side lengths and
  the doubled area, so no finite-difference step has to suit a sliver.
  There is no per-face circumradius in the package.
- The dual edges ``df`` of a discrete minimal surface are parallel to the
  Gauss-map edges ``dn`` (:func:`orthogonal_part`, the part of ``df``
  that ``k dn`` leaves, with ``k`` of ``weierstrass.verify_minimal``).
- The dual form ``(w_ij / 2)(h_j - h_i)`` of a harmonic ``h`` closes
  (:func:`conjugate_closure`, its worst co-tree gap), so the face potential
  of ``laplace.conjugate_harmonic`` is one function.

The references and oracles that no part of the package calls live here too:

- :func:`qdiff_cotan`, the cotangent formula for ``q``, an independent
  evaluation of ``hqd.qdiff_from_function``;
- :func:`cross_ratio_rate_check` with its :class:`RateCheckReport`: ``q =
  du_z dz = d/dt log cr`` against finite differences of the cross ratios
  and of the intersection angles, and against ``deform.cross_ratio_rate``;
- :func:`project_out_linear`, which removes the kernel ``span{1, Re z, Im
  z}`` of ``u -> q``;
- :func:`stereographic_to_plane`, the inverse of ``weierstrass.gauss_map``;
- :func:`lift`, the CP^1 lift ``(z, 1)`` that the sl(2,C) form and the
  transitions act on.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from ddgconf import moebius
from ddgconf.deform import check_triangle_compat, cross_ratio_rate
from ddgconf.errors import VertexAtInfinity
from ddgconf.hqd import qdiff_from_function
from ddgconf.laplace import cotan_weights
from ddgconf.mesh import Defect, _floor, integrate, magnitude, product, reduce_rows
from ddgconf.realization import Realization, _check_length, cross_ratios, intersection_angles
from ddgconf.weierstrass import verify_minimal

TRANSITION_TOL = 1e-10
SL2_TOL = 1e-10


def eigen_residual(a, rep):
    """Largest relative residual of ``G psi_i = psi_i / lambda`` and ``G psi_j
    = lambda psi_j`` over the interior edges ``(i, j)``, against ``|G|``
    times the larger of ``|z_i|``, ``|z_j|`` and 1.  ``lambda`` is the second
    component of ``G psi_j``, so that component's own residual is left out:
    a non-finite ``lambda`` fails the second entry."""
    mesh = a.mesh
    zi, zj = a.z[mesh.interior_ends.T]
    mod_i, mod_j = magnitude(a.z)[mesh.interior_ends.T]
    g00, g01, g10, g11 = G = tuple(rep.transitions.reshape(-1, 4).T)
    lam = rep.eigenvalues
    gaps = (g00 * zi + g01 - zi / lam, g00 * zj + g01 - lam * zj, g10 * zi + g11 - 1.0 / lam)
    res = reduce(np.maximum, map(np.abs, gaps))
    G_norm = reduce(np.maximum, map(np.abs, G))
    scale = G_norm * np.maximum(np.maximum(mod_i, mod_j), 1.0)
    return Defect(res, scale, mesh.interior_ends, "edge").worst


def cross_ratio_residual(a, b, rep):
    """Largest ``|cr_b - cr_a / lambda^2|`` over the interior edges, relative
    to ``max |cr_a|``."""
    cra = cross_ratios(a)
    gap = np.abs(cross_ratios(b) - cra / rep.eigenvalues**2)
    return Defect(gap, np.abs(cra).max(initial=0.0), a.mesh.interior_ends, "edge").worst


def cycle_products(mesh, G):
    """``|P - I|`` of the product ``P`` of the ``(N, 2, 2)`` transitions
    ``G`` (``adj(G) = G^{-1}`` against the canonical orientation) around each
    interior vertex, and its rounding scale ``max_m |P_{m-1}| |G_m|``: one
    slot at a time over the rows that have it."""
    c = mesh.vertex_cycles
    start, valence = c.indptr[:-1], np.diff(c.indptr)
    G_norm = np.abs(G).max(axis=(1, 2))
    G_inv = np.stack([G[:, 1, 1], -G[:, 0, 1], -G[:, 1, 0], G[:, 0, 0]], axis=1).reshape(-1, 2, 2)
    p = np.tile(np.eye(2, dtype=complex), (len(valence), 1, 1))
    p_scale = np.zeros(len(valence))
    for m in range(valence.max(initial=0)):
        rows = np.flatnonzero(valence > m)
        slot = start[rows] + m
        k = c.indices[slot]
        g = np.where((c.data[slot] > 0)[:, None, None], G[k], G_inv[k])
        prev = p[rows]
        p_scale[rows] = np.maximum(p_scale[rows], np.abs(prev).max(axis=(1, 2)) * G_norm[k])
        p[rows] = prev[:, :, :1] * g[:, :1] + prev[:, :, 1:] * g[:, 1:]
    return np.abs(p - np.eye(2)).max(axis=(1, 2)), p_scale


def cycle_residual(mesh, G):
    """Largest relative ``|P - I|`` of :func:`cycle_products`."""
    return Defect(*cycle_products(mesh, G), mesh.interior_vertices, "vertex").worst


def transitions_consistent(a, b, rep, tol=TRANSITION_TOL):
    """The cross-ratio residual within ``tol`` and the cycle residual within
    ``10 tol``."""
    return cross_ratio_residual(a, b, rep) <= tol and cycle_residual(a.mesh, rep.transitions) <= 10 * tol


def matrix_sum_defect(r, form):
    """The largest entry of the sl(2,C) form's matrix sum around each interior
    vertex, against the form's largest entry."""
    mesh = r.mesh
    msum = reduce_rows(np.maximum, np.abs(mesh.cycle_sum(form.matrices, signed=True)))
    return Defect(msum, np.abs(form.matrices).max(initial=0.0), mesh.interior_vertices, "vertex")


def sl2_equivalence_ok(r, form, tol=SL2_TOL):
    """The matrix sum vanishes within ``tol`` at exactly the vertices where
    both scalar sums of ``moebius.check_sl2_form_closed`` do."""
    rate, weighted = (d.relative <= tol for d in moebius.check_sl2_form_closed(r, form, tol).defects)
    return bool(np.all((matrix_sum_defect(r, form).relative <= tol) == (rate & weighted)))


def k1k2_residual(r, form):
    """Largest entry of ``M - ((sum mu / d) K1 + (sum mu) K2)`` over the
    interior vertices, ``M`` the matrix sum, relative to the form's largest
    entry; ``K1 = [[2 z_v, -2 z_v^2], [2, -2 z_v]]`` and ``K2 = [[1, -2 z_v],
    [0, -1]]``."""
    mesh, mu = r.mesh, form.rates
    zv = r.z[mesh.interior_vertices]
    one, zero = np.ones_like(zv), np.zeros_like(zv)
    k1 = np.stack([2 * zv, -2 * zv**2, 2 * one, -2 * zv], axis=1).reshape(-1, 2, 2)
    k2 = np.stack([one, -2 * zv, zero, -one], axis=1).reshape(-1, 2, 2)
    weighted = mesh.cycle_sum(mu / r.interior_dz, signed=True)[:, None, None]
    rate = mesh.cycle_sum(mu)[:, None, None]
    gap = mesh.cycle_sum(form.matrices, signed=True) - (weighted * k1 + rate * k2)
    return float(np.abs(gap).max(initial=0.0) / np.abs(form.matrices).max())


def cotangent_spreads(r, rates, tol=1e-10):
    """``(omega_spread, sigma_spread)`` per face: max minus min of the three
    cotangent expressions of the average rotation and scaling speeds on each
    face that ``check_triangle_compat`` finds closed within ``tol``, NaN on
    the others."""
    nf = len(r.mesh.faces)
    c = rates.complex_rate[r.mesh.face_edges]  # c12, c23, c31
    ok = check_triangle_compat(r, rates, tol).ok
    omega_spread, sigma_spread = np.full((2, nf), np.nan)
    cot, s, w = r.cot[ok], c[ok].real, c[ok].imag
    # expression m pairs the corner cotangent m with the opposite edge m + 1
    omegas = np.roll(w, -1, axis=1) + cot * (np.roll(s, -2, axis=1) - s)
    sigmas = np.roll(s, -1, axis=1) - cot * (np.roll(w, -2, axis=1) - w)
    omega_spread[ok] = reduce_rows(np.maximum, omegas) - reduce_rows(np.minimum, omegas)
    sigma_spread[ok] = reduce_rows(np.maximum, sigmas) - reduce_rows(np.minimum, sigmas)
    return omega_spread, sigma_spread


def radius_rate_error(r, rates, tol=1e-10):
    """``|sigma_face - d/dt log R|`` per face that ``check_triangle_compat``
    finds closed within ``tol``, against the larger of the two (floored at
    1e-12), NaN on the others."""
    rep = check_triangle_compat(r, rates, tol)
    ok, sigma_face = rep.ok, rep.sigma_face
    c = rates.complex_rate[r.mesh.face_edges]  # c12, c23, c31
    dz = r.face_dz.T  # z2 - z1, z3 - z2, z1 - z3
    s = c[ok].real
    rr_err = np.full(len(ok), np.nan)
    # d/dt log R of R = L12 L23 L31 / 2|area2|: each side adds its sigma, the
    # doubled area Im w, w = conj(z2 - z1)(z3 - z1), moves by Im((conj(c12) + c31) w)
    w = product(np.conj(dz[ok, 0]), -dz[ok, 2])
    area_rate = product(np.conj(c[ok, 0]) + c[ok, 2], w).imag / r.area2[ok]
    rr = s[:, 0] + s[:, 1] + s[:, 2] - area_rate
    denom = np.maximum(np.maximum(np.abs(sigma_face[ok]), np.abs(rr)), 1e-12)
    rr_err[ok] = np.abs(sigma_face[ok] - rr) / denom
    return rr_err


def orthogonal_part(mesh, n, f):
    """``|df - k dn|`` per interior edge: the norm of the dual edge ``df =
    f_left - f_right`` orthogonal to the Gauss-map edge ``dn = n_j - n_i``,
    with ``k`` of ``verify_minimal``."""
    n = np.asarray(n, dtype=float)
    f = np.asarray(f, dtype=float)
    i, j = mesh.interior_ends.T
    dn = n[j] - n[i]
    left, right = mesh.interior_faces.T
    df = f[left] - f[right]
    k = verify_minimal(mesh, n, f, tol=np.inf).k
    return np.linalg.norm(df - k[:, None] * dn, axis=1)


def conjugate_closure(r, h, anchor_face=0):
    """Worst relative co-tree gap of the dual form ``(w_ij / 2)(h_j - h_i)``
    that ``laplace.conjugate_harmonic`` integrates from ``anchor_face``."""
    mesh = r.mesh
    h = np.asarray(h, dtype=float)
    i, j = mesh.edge_ends.T
    dh = h[j] - h[i]
    return integrate(mesh, 0.5 * cotan_weights(r) * dh[mesh.interior_edges], anchor_face, dual=True).defect.worst


def qdiff_cotan(r: Realization, u):
    """Independent cotangent-formula evaluation of the quadratic differential
    (used to cross-check ``hqd.qdiff_from_function``)."""
    _check_length(r, u)
    u = np.asarray(u, dtype=float)
    i, j, k, l = r.flap_points()
    # the cotangents at i, j, k of the left face and at j, i, l of the right
    (li, lj, _), (rj, ri, _) = r.cot.ravel()[r.mesh.flap_corners()].transpose(1, 2, 0)
    return (-0.5j) * (
        li * (u[k] - u[j]) + lj * (u[k] - u[i]) + rj * (u[l] - u[i]) + ri * (u[l] - u[j])
    )


def project_out_linear(r: Realization, u):
    """Remove the best Euclidean least-squares fit by ``span{1, Re z, Im z}``."""
    _check_length(r, u)
    u = np.asarray(u, dtype=float)
    basis = np.stack([np.ones_like(u), r.z.real, r.z.imag], axis=1)
    coef, *_ = np.linalg.lstsq(basis, u, rcond=None)
    return u - basis @ coef


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
    _check_length(r, zdot)
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


def stereographic_to_plane(n):
    """Inverse of ``weierstrass.gauss_map`` on sphere points away from the north pole."""
    n = np.asarray(n, dtype=float)
    den = 1.0 - n[:, 2]
    if np.any(np.abs(den) < 1e-12):
        raise VertexAtInfinity("Gauss map touches the north pole")
    return (n[:, 0] + 1j * n[:, 1]) / den


def lift(z):
    """CP^1 lift ``(z, 1)`` per vertex, shape (n, 2)."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z, np.ones_like(z)], axis=1)
