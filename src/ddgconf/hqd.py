"""Discrete holomorphic quadratic differentials.

A quadratic differential assigns a purely imaginary number to each interior
edge; holomorphicity means both weighted sums around every interior vertex
vanish.  This module builds them from harmonic vertex functions (via the
face-wise interpolation gradient), verifies them, integrates them back to a
harmonic function, and checks that holomorphicity survives a Moebius map.
"""

from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import laplace
from .errors import ClosureDefect, NotRealizable
from .mesh import Defect, _read_only, integrate, magnitude
from .realization import Realization, _check_length


@dataclass
class QuadDiff:
    """Purely imaginary edge function, stored by its imaginary part
    (one real number per interior edge, aligned with ``mesh.interior_edges``)."""

    imag: np.ndarray

    @property
    def values(self):
        return 1j * self.imag


def _as_complex(r: Realization, q):
    """``q`` as a complex array, one value per interior edge of ``r``."""
    q = q.values if isinstance(q, QuadDiff) else np.asarray(q, dtype=complex)
    _check_length(r, q, "interior edge")
    return q


def gradient(r: Realization, u):
    """Gradient of the piecewise-linear interpolant of ``u``, constant per
    face: ``i (u_i dz(e_jk) + u_j dz(e_ki) + u_k dz(e_ij)) / (2 A)``."""
    _check_length(r, u)
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
    q = _as_complex(r, q)
    defects, worst, real_part, s0, s1 = r.checked("verify_qdiff", q, lambda: _qdiff_defects(r, q))
    v = r.mesh.interior_vertices
    return QDiffReport(worst <= tol, real_part, VertexSums(v, s0), VertexSums(v, s1), worst, defects)


def _qdiff_defects(r: Realization, q):
    """The three ``Defect``s of :func:`verify_qdiff`, the worst of them and
    of the first, and the two vertex sums."""
    (s0, s1), (d0, d1) = _vertex_sums(r, q)
    defects = _real_part(r, q), d0, d1
    worst = float(np.max([d.worst for d in defects]))
    return defects, worst, defects[0].worst, s0, s1


def _real_part(r: Realization, q):
    """``|Re q|`` per interior edge against ``max|q|``, read-only: the one
    test that ``q`` is purely imaginary."""
    return Defect(_read_only(np.abs(q.real)), np.abs(q).max(initial=0.0), r.mesh.interior_ends, "edge")


def _vertex_sums(r: Realization, x):
    """``sum x`` and ``sum x / (z_j - z_v)`` of the interior-edge function
    ``x`` around each interior vertex ``v``, read-only, and their ``Defect``s
    against ``max|x|`` and ``max|x / dz|``: the two sums that vanish for a
    holomorphic ``q`` and for the rates of a closed sl(2,C) form."""
    # tau is stored for the canonical orientation (i < j); around v the term
    # is x_vj / (z_j - z_v)
    tau = x / r.interior_dz
    sums = _read_only(r.mesh.cycle_sum(x)), _read_only(r.mesh.cycle_sum(tau, signed=True))
    scales = np.abs(x).max(initial=0.0), np.abs(tau).max(initial=0.0)
    v = r.mesh.interior_vertices
    return sums, tuple(Defect(_read_only(magnitude(s)), scale, v, "vertex") for s, scale in zip(sums, scales))


def harmonic_from_qdiff(r: Realization, q, anchor_vertex=0, anchor_face=0, tol=1e-9):
    """Integrate a quadratic differential back to a vertex function.

    Requires ``Re q = 0``, as :func:`verify_qdiff` judges it, and the weighted
    vertex sums ``sum q / dz = 0`` (a closed dual form ``q / dz``).  If ``q``
    is holomorphic the result is harmonic and reproduces ``q``.  Anchored to 0
    at ``anchor_vertex``.
    """
    q = _as_complex(r, q)
    mesh = r.mesh
    mesh.require_disk()

    dual = integrate(mesh, q / r.interior_dz, anchor_face, dual=True)
    message = "dual form q/dz fails to close across edge {edge} (defect {defect:.3e}, scale "
    message += "{scale:.3e}); the weighted vertex sums do not vanish"
    dual.defect.require(tol, ClosureDefect, message)
    message = "q has a real part on edge {edge} (defect {defect:.3e}, scale {scale:.3e}); "
    _real_part(r, q).require(tol, NotRealizable, message + "no vertex function realizes it")

    # omega(e_ij) = Re(2 h_face dz(e_ij)) on the face of mesh.face_stencil: the left
    # one, or the right one on the boundary; with the dual form closed, the two faces
    # differ by 2 Re q
    side, dz = 2.0 * dual.potential[mesh.face_stencil[0]], r.edge_dz
    u = integrate(mesh, side.real * dz.real - side.imag * dz.imag, anchor_vertex)
    u.defect.require(tol, ClosureDefect, "primal form fails to close on edge {edge}")
    return u.potential


def qdiff_moebius_pushforward_check(r: Realization, q, phi, tol=1e-9):
    """Verify that ``q`` is still holomorphic on the Moebius image of the
    realization (same edge values, new positions); ``phi`` is a
    :class:`~ddgconf.moebius.MoebiusMap`."""
    w = phi.apply(r.z)
    return verify_qdiff(Realization(r.mesh, w), q, tol)
