"""CP^1 / sl(2,C) layer: fractional linear maps, lifts, the closed
sl(2,C)-valued dual 1-form determined by per-edge cross-ratio rates, its
Pauli-basis coordinates, and transition matrices between two realizations."""

from dataclasses import dataclass

import numpy as np

from .deform import cross_ratio_rate
from .errors import DegenerateFace, MeshMismatch, VertexAtInfinity
from .mesh import Defect, magnitude, reduce_rows
from .realization import Realization, _check_same_mesh, cross_ratios

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

    def normalized(self):
        det = self.a * self.d - self.b * self.c
        if det == 0:
            raise DegenerateFace("Moebius map has zero determinant")
        s = np.sqrt(det)
        return MoebiusMap(self.a / s, self.b / s, self.c / s, self.d / s)

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

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)


def lift(z):
    """CP^1 lift ``(z, 1)`` per vertex, shape (n, 2)."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z, np.ones_like(z)], axis=1)


def sl2_from_pauli(vec):
    """Traceless matrix with Pauli coordinates ``vec``; batched over leading
    axes."""
    v = np.asarray(vec)[..., None, None]
    return v[..., 0, :, :] * PAULI[0] + v[..., 1, :, :] * PAULI[1] + v[..., 2, :, :] * PAULI[2]


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
    mu = np.asarray(mu, dtype=complex)
    n = len(r.mesh.interior_edges)
    if mu.shape != (n,):
        raise MeshMismatch(f"expected {n} edge rates, got {mu.shape}")
    vecs = (mu / r.interior_dz())[:, None] * r.null_vectors()
    return SlForm(mu, sl2_from_pauli(vecs), vecs)


def rates_from_deformation(r: Realization, zdot):
    """Per-edge rate ``mu = -1/2 d/dt log cr`` of a vertex deformation,
    evaluated analytically from the edge rates."""
    return -0.5 * cross_ratio_rate(r, zdot)


@dataclass
class ClosednessReport:
    closed: bool
    max_defect: float  # worst normalized defect
    equivalence_ok: bool  # matrix sum vanishes iff both scalar sums do
    defects: tuple  # Defects of the matrix sum, the rate sum and the weighted sum


def check_sl2_form_closed(r: Realization, form: SlForm, tol=1e-10) -> ClosednessReport:
    """Closedness of the matrix form at interior vertices, cross-checked
    against the two scalar rate sums it is equivalent to."""
    mesh = r.mesh
    mu = form.rates
    # around v the weighted term is mu / (z_j - z_v), the canonical value
    # negated where v > j; its global scale keeps vertices where mu happens
    # to be locally tiny from registering rounding noise as a defect
    tau = mu / r.interior_dz()
    msum = reduce_rows(np.maximum, np.abs(mesh.cycle_sum(form.matrices, signed=True)))
    w_scale = magnitude(tau)[mesh.vertex_cycles.indices].max(initial=0.0)
    v = mesh.interior_vertices
    defects = (
        Defect(msum, np.abs(form.matrices).max(initial=0.0), v, "vertex"),
        Defect(magnitude(mesh.cycle_sum(mu)), np.abs(mu).max(initial=0.0), v, "vertex"),
        Defect(magnitude(mesh.cycle_sum(tau, signed=True)), w_scale, v, "vertex"),
    )
    max_defect = float(np.max([d.worst for d in defects]))
    mnorm, rate, weighted = (d.relative <= tol for d in defects)
    equivalence_ok = bool(np.all(mnorm == (rate & weighted)))
    return ClosednessReport(max_defect <= tol, max_defect, equivalence_ok, defects)


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
    max_eigen_residual: float  # eigen-relation residual, relative
    max_cr_residual: float  # |cr_b - cr_a / lambda^2| relative
    max_cycle_residual: float  # | prod G - I | around interior vertices, relative
    cycle: Defect  # | prod G - I | per interior vertex, against its rounding scale


def transition_matrices(a: Realization, b: Realization) -> TransitionReport:
    """Per-face Moebius maps from ``a`` to ``b`` and the multiplicative dual
    1-form ``G(e*_ij) = A_right^{-1} A_left`` with its eigenvalues."""
    _check_same_mesh(a, b)
    mesh = a.mesh
    face_maps = _fix_signs(_face_maps(a.z[mesh.faces.T], b.z[mesh.faces.T]))
    left, right = mesh.interior_faces.T
    G = _mul(_adjugate([x[right] for x in face_maps]), [x[left] for x in face_maps])
    G_norm = _max_abs(G)
    # before the eigen residuals, so that their temporaries and the slot gathers never coexist
    cycle = Defect(*_cycle_products(mesh, G, G_norm), mesh.interior_vertices, "vertex")
    # G applied to the lifts (z, 1) of ends i, j: G psi_i = psi_i / lam, G psi_j = lam psi_j
    zi, zj = a.z[mesh.interior_ends.T]
    w = _mul(G, (zi, zj, 1.0, 1.0))
    lam = w[3]  # second lift component is 1
    res = _max_abs((w[0] - zi / lam, w[1] - lam * zj, w[2] - 1.0 / lam, w[3] - lam * 1.0))
    scale = G_norm * np.maximum(np.maximum(magnitude(zi), magnitude(zj)), 1.0)
    eig_res = Defect(res, scale, mesh.interior_ends, "edge").worst
    cra = cross_ratios(a)
    cr_gap = np.abs(cross_ratios(b) - cra / lam**2)
    cr_res = Defect(cr_gap, np.abs(cra).max(initial=0.0), mesh.interior_ends, "edge").worst
    face_maps, G = (np.stack(m, axis=1).reshape(-1, 2, 2) for m in (face_maps, G))
    return TransitionReport(face_maps, G, lam, eig_res, cr_res, cycle.worst, cycle)


def _cycle_products(mesh, G, G_norm):
    """``|P - I|`` of the product ``P`` of ``G`` (``adj(G) = G^{-1}`` against the
    canonical orientation) around each interior vertex, and its rounding scale
    ``max_m |P_{m-1}| |G_m|``; slot by slot, each a prefix of the products."""
    c = mesh.vertex_cycles
    valence = np.diff(c.indptr)
    # by descending valence, the rows that have a slot m (valence > m) are a prefix, count[m] long
    rows = np.argsort(-valence, kind="stable")
    start, count = c.indptr[rows], np.cumsum(np.bincount(valence)[::-1])[-2::-1]
    pick = c.indices + len(G_norm) * (c.data < 0)
    both = [np.concatenate(pair) for pair in zip(G, _adjugate(G))]
    p, p_scale = [np.full(len(rows), v, dtype=complex) for v in (1, 0, 0, 1)], np.zeros(len(rows))
    for m, n in enumerate(count.tolist()):
        e, prev = start[:n] + m, [x[:n] for x in p]
        p_scale[:n] = np.maximum(p_scale[:n], _max_abs(prev) * G_norm[c.indices[e]])
        for x, y in zip(p, _mul(prev, [x[pick[e]] for x in both])):
            x[:n] = y
    rank = np.argsort(rows)
    return _max_abs((p[0] - 1.0, p[1], p[2], p[3] - 1.0))[rank], p_scale[rank]
