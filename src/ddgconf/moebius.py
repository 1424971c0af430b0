"""CP^1 / sl(2,C) layer: fractional linear maps, the closed sl(2,C)-valued
dual 1-form determined by per-edge cross-ratio rates, its Pauli-basis
coordinates, and transition matrices between two realizations."""

from dataclasses import dataclass

import numpy as np

from .deform import cross_ratio_rate
from .errors import DegenerateFace, NonFinite, VertexAtInfinity
from .hqd import _vertex_sums
from .mesh import Defect
from .realization import Realization, _check_length, _check_same_mesh

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, 1j], [-1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass
class MoebiusMap:
    """``z -> (a z + b) / (c z + d)``."""

    a: complex
    b: complex
    c: complex
    d: complex

    def apply(self, z):
        """Images of ``z``; raises for a zero determinant and for an image at
        or (numerically) near infinity, overflow included."""
        if self.a * self.d - self.b * self.c == 0:
            raise DegenerateFace("Moebius map has zero determinant")
        z = np.asarray(z, dtype=complex)
        with np.errstate(all="ignore"):
            den = self.c * z + self.d
            w = (self.a * z + self.b) / den
        scale = max(abs(self.c), abs(self.d))
        if np.any(np.abs(den) < 1e-12 * scale) or not np.isfinite(w).all():
            raise VertexAtInfinity("Moebius map sends a vertex (numerically) to infinity")
        return w


def sl2_from_pauli(vec):
    """Traceless matrix ``[[v2, v0 + i v1], [v0 - i v1, -v2]]`` with Pauli
    coordinates ``vec``; batched over leading axes.  Built entry by entry, each
    the sum of ``vec``'s products with that entry of the three ``PAULI``
    matrices: the products with their zeros keep the signed zeros and NaNs of
    the matrix sum, which the bare formula would not."""
    v = np.moveaxis(np.asarray(vec), -1, 0)
    m = np.empty(v.shape[1:] + (2, 2), dtype=complex)
    for i, j in np.ndindex(2, 2):
        m[..., i, j] = v[0] * PAULI[0][i, j] + v[1] * PAULI[1][i, j] + v[2] * PAULI[2][i, j]
    return m


def pauli_from_sl2(m):
    return np.array(
        [(m[0, 1] + m[1, 0]) / 2.0, (m[0, 1] - m[1, 0]) / 2j, m[0, 0]], dtype=complex
    )


@dataclass
class SlForm:
    """Traceless-matrix-valued dual 1-form on canonical interior dual edges,
    together with its Pauli coordinates and the defining edge rates.

    ``matrices[idx]`` is the value on the dual edge of the canonical
    orientation ``i -> j`` (i < j); the reversed dual edge carries the
    negated matrix.
    """

    rates: np.ndarray  # mu per interior edge
    matrices: np.ndarray  # (n, 2, 2)
    vectors: np.ndarray  # (n, 3) Pauli coordinates


def sl2_form_from_rates(r: Realization, mu) -> SlForm:
    """Dual sl(2,C) 1-form with eigenvalues ``-mu`` / ``+mu`` on the lifts of
    the two edge endpoints:
    ``(mu / (z_j - z_i)) [[z_i + z_j, -2 z_i z_j], [2, -z_i - z_j]]``."""
    _check_length(r, mu, "interior edge")
    mu = np.asarray(mu, dtype=complex)
    vecs = (mu / r.interior_dz)[:, None] * r.null_vectors
    return SlForm(mu, sl2_from_pauli(vecs), vecs)


def rates_from_deformation(r: Realization, zdot):
    """Per-edge rate ``mu = -1/2 d/dt log cr`` of a vertex deformation,
    evaluated analytically from the edge rates."""
    return -0.5 * cross_ratio_rate(r, zdot)


@dataclass
class ClosednessReport:
    closed: bool
    max_defect: float  # worst normalized defect
    defects: tuple  # Defects of the rate sum and the weighted sum


def check_sl2_form_closed(r: Realization, form: SlForm, tol=1e-10) -> ClosednessReport:
    """Closedness of the matrix form at interior vertices.  Around ``v``, with
    ``d = z_j - z_v``, the matrix sum is ``(sum mu / d) K1 + (sum mu) K2`` for
    two fixed matrices ``K1``, ``K2`` of ``z_v``, so the form is closed exactly
    where the rate sum and the weighted sum vanish: those two are checked, as
    :func:`~ddgconf.hqd.verify_qdiff` checks them on ``q = -2 mu``."""
    _check_length(r, form.rates, "interior edge")
    defects = _vertex_sums(r, form.rates)[1]
    max_defect = float(np.max([d.worst for d in defects]))
    return ClosednessReport(max_defect <= tol, max_defect, defects)


def _adjugate(m):
    """``(d, -b, -c, a)`` of each 2x2 matrix ``(a, b, c, d)``."""
    return m[3], -m[1], -m[2], m[0]


def _mul(a, b):
    """``a[n] @ b[n]`` of 2x2 matrices as entry arrays ``(m00, m01, m10, m11)``, faster than ``@``."""
    (a00, a01, a10, a11), (b00, b01, b10, b11) = a, b
    return a00 * b00 + a01 * b10, a00 * b01 + a01 * b11, a10 * b00 + a11 * b10, a10 * b01 + a11 * b11


def _max_abs(m):
    """Largest entry modulus of each matrix of the entry arrays ``m``."""
    a, b, c, d = map(np.abs, m)
    return np.maximum(np.maximum(a, b), np.maximum(c, d))


def _face_maps(a, b):
    """Entry arrays of the SL(2,C) matrices ``N_b^{-1} N_a`` (up to sign) of the Moebius maps
    taking each point triple ``a[:, f]`` to ``b[:, f]``; ``a``, ``b`` are (3, F).  The normal form
    ``N_p`` sends ``(p1, p2, p3) -> (0, 1, inf)``; its ``ad - bc = (p2 - p3)(p2 - p1)(p1 - p3)``
    has no cancellation and is exactly 0 where two points coincide."""

    def normal_form(p):
        p1, p2, p3 = p
        d23, d21 = p2 - p3, p2 - p1
        return (d23, -p1 * d23, d21, -p3 * d21), d23 * d21 * (p1 - p3)

    (na, det_na), (nb, det_nb) = normal_form(a), normal_form(b)
    if np.any(det_nb == 0):
        raise DegenerateFace("coincident points in face triple")
    m = _mul([x / det_nb for x in _adjugate(nb)], na)
    s = np.sqrt(det_na / det_nb)
    if np.any(s == 0):
        raise DegenerateFace("coincident points in face triple")
    return [x / s for x in m]


def face_moebius(a_triple, b_triple):
    """SL(2,C) matrix (up to sign) of the unique Moebius map taking the three
    points of ``a_triple`` to those of ``b_triple``."""
    return np.reshape(_face_maps(*np.array([a_triple, b_triple], dtype=complex)[:, :, None]), (2, 2))


def _fix_signs(m):
    """Deterministic sign for each SL(2,C) matrix: nonnegative real trace; where
    ``|Re tr| <= 1e-12``, the first of the imaginary trace and the entries' real and
    imaginary parts above 1e-12 in modulus is made positive (if none is, ``m`` is kept)."""
    trace = m[0] + m[3]
    flip, rest = trace.real < -1e-12, np.flatnonzero(~(np.abs(trace.real) > 1e-12))
    keys = np.column_stack([trace[rest].imag] + [f(x[rest]) for x in m for f in (np.real, np.imag)])
    flip[rest] = keys[np.arange(len(rest)), (np.abs(keys) > 1e-12).argmax(axis=1)] < -1e-12
    return [np.where(flip, -x, x) for x in m]


@dataclass
class TransitionReport:
    face_maps: np.ndarray  # (F, 2, 2) per-face SL(2,C) maps a -> b
    transitions: np.ndarray  # (n_int, 2, 2) G on canonical interior dual edges
    eigenvalues: np.ndarray  # lambda per interior edge
    max_cycle_residual: float  # | prod G - I | around interior vertices, relative
    cycle: Defect  # | prod G - I | per interior vertex, against its rounding scale


def transition_matrices(a: Realization, b: Realization) -> TransitionReport:
    """Per-face Moebius maps from ``a`` to ``b`` and the multiplicative dual
    1-form ``G(e*_ij) = A_right^{-1} A_left`` with its eigenvalues.  ``G`` fixes
    the lifts of both ends of its edge, ``G psi_i = psi_i / lambda`` and ``G psi_j
    = lambda psi_j``, so for any two realizations of one mesh ``cr_b = cr_a /
    lambda^2`` and the product of ``G`` around a vertex is ``+-I``; only
    rounding can break these, and they are not re-checked here.  Raises
    ``NonFinite`` for the first face whose map, or else the first edge whose
    ``G`` or ``lambda``, is not finite."""
    _check_same_mesh(a, b)
    mesh = a.mesh
    face_maps = _fix_signs(_face_maps(a.z[mesh.faces.T], b.z[mesh.faces.T]))
    left, right = mesh.interior_faces.T
    G = _mul(_adjugate([x[right] for x in face_maps]), [x[left] for x in face_maps])
    # lam, the second component of G (z_j, 1), keeps its product with 1 for its signed zeros
    lam = G[2] * a.z[mesh.interior_ends[:, 1]] + G[3] * 1.0
    _require_finite(mesh, face_maps, G, lam)
    # before the (N, 2, 2) copies, which would push the entry arrays of G out of the cache
    cycle = Defect(*_cycle_products(mesh, G, _max_abs(G)), mesh.interior_vertices, "vertex")
    face_maps, G = (np.stack(m, axis=1).reshape(-1, 2, 2) for m in (face_maps, G))
    return TransitionReport(face_maps, G, lam, cycle.worst, cycle)


def _require_finite(mesh, face_maps, G, lam):
    """Raise ``NonFinite`` for the first face whose map, or else the first
    interior edge whose ``G`` or ``lambda``, is not finite (entry arrays)."""
    if all(np.isfinite(x).all() for x in (*face_maps, *G, lam)):
        return
    bad = ~np.logical_and.reduce([np.isfinite(x) for x in face_maps])
    if bad.any():
        f = int(bad.argmax())
        raise NonFinite(f"the Moebius map of face {f} {tuple(mesh.faces[f].tolist())} is not finite", face=f)
    i, j = mesh.interior_ends[np.logical_and.reduce([np.isfinite(x) for x in (*G, lam)]).argmin()].tolist()
    raise NonFinite(f"the transition or eigenvalue of edge ({i},{j}) is not finite")


def _cycle_products(mesh, G, G_norm):
    """``|P - I|`` of the product ``P`` of ``G`` (``adj(G) = G^{-1}`` against the
    canonical orientation) around each interior vertex, and its rounding scale
    ``max_m |P_{m-1}| |G_m|``; slot by slot, each a prefix of the products."""
    c, pick = mesh.vertex_cycles, mesh.slot_picks
    # by descending valence, the rows that have a slot m are a prefix, slot_counts[m] long
    start, rank = mesh.slot_schedule
    both = [np.concatenate(pair) for pair in zip(G, _adjugate(G))]
    p, p_scale = [np.full(len(start), v, dtype=complex) for v in (1, 0, 0, 1)], np.zeros(len(start))
    for m, n in enumerate(mesh.slot_counts.tolist()):
        e, prev = start[:n] + m, [x[:n] for x in p]
        p_scale[:n] = np.maximum(p_scale[:n], _max_abs(prev) * G_norm[c.indices[e]])
        for x, y in zip(p, _mul(prev, [x[pick[e]] for x in both])):
            x[:n] = y
    return _max_abs((p[0] - 1.0, p[1], p[2], p[3] - 1.0))[rank], p_scale[rank]
