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
"""

from functools import reduce

import numpy as np

from ddgconf import moebius
from ddgconf.mesh import Defect, magnitude, reduce_rows
from ddgconf.realization import cross_ratios

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
