"""CP^1 / sl(2,C) layer: fractional linear maps, lifts, the closed
sl(2,C)-valued dual 1-form determined by per-edge cross-ratio rates, its
Pauli-basis coordinates, and transition matrices between two realizations."""

from dataclasses import dataclass

import numpy as np

from .deform import cross_ratio_rate
from .errors import CoincidentVertices, DegenerateFace, MeshMismatch, VertexAtInfinity
from .mesh import Defect, magnitude
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
    mesh = r.mesh
    n = len(mesh.interior_edges)
    if mu.shape != (n,):
        raise MeshMismatch(f"expected {n} edge rates, got {mu.shape}")
    dz = r.interior_dz()
    if np.any(dz == 0):
        edge = tuple(mesh.interior_ends[dz == 0][0].tolist())
        raise CoincidentVertices(f"edge {edge} has coincident endpoints", edge=edge)
    vecs = (mu / dz)[:, None] * r.null_vectors()
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
    msum = np.abs(mesh.cycle_sum(form.matrices, signed=True)).max(axis=(1, 2), initial=0.0)
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
    """``[[d, -b], [-c, a]]`` of each 2x2 matrix ``[[a, b], [c, d]]``."""
    return np.stack([m[:, 1, 1], -m[:, 0, 1], -m[:, 1, 0], m[:, 0, 0]], axis=1).reshape(-1, 2, 2)


def _mul(a, b):
    """``a[n] @ b[n]`` for ``(N, 2, 2)`` ``a`` and ``(N, 2, k)`` ``b``: two
    broadcast products and a sum, which beat ``@`` on small matrices."""
    return a[:, :, :1] * b[:, None, 0] + a[:, :, 1:] * b[:, None, 1]


def _face_maps(a, b):
    """SL(2,C) matrices (up to sign) of the Moebius maps taking each point
    triple ``a[f]`` to ``b[f]``; ``a`` and ``b`` have shape (F, 3)."""

    def normal_form(p):
        """Matrix of the map sending ``(p1, p2, p3) -> (0, 1, inf)`` and its
        ``ad - bc = (p2 - p3)(p2 - p1)(p1 - p3)``, which has no cancellation
        and is exactly 0 where two points coincide."""
        p1, p2, p3 = p.T
        entries = [p2 - p3, -p1 * (p2 - p3), p2 - p1, -p3 * (p2 - p1)]
        return np.stack(entries, axis=1).reshape(-1, 2, 2), (p2 - p3) * (p2 - p1) * (p1 - p3)

    (na, det_na), (nb, det_nb) = normal_form(a), normal_form(b)
    if np.any(det_nb == 0):
        raise DegenerateFace("coincident points in face triple")
    m = _mul(_adjugate(nb) / det_nb[:, None, None], na)
    det = det_na / det_nb
    if np.any(det == 0):
        raise DegenerateFace("coincident points in face triple")
    return m / np.sqrt(det)[:, None, None]


def face_moebius(a_triple, b_triple):
    """SL(2,C) matrix (up to sign) of the unique Moebius map taking the three
    points of ``a_triple`` to those of ``b_triple``."""
    return _face_maps(np.array([a_triple], dtype=complex), np.array([b_triple], dtype=complex))[0]


def _fix_signs(m):
    """Deterministic sign for each SL(2,C) matrix: nonnegative real trace,
    tie-broken by the imaginary trace and then by the first entry with a
    component above 1e-12 (its real part before its imaginary part)."""
    trace = m[:, 0, 0] + m[:, 1, 1]
    entries = m.reshape(-1, 4)
    parts = np.stack([entries.real, entries.imag], axis=2).reshape(-1, 8)  # re, im of each entry
    keys = np.column_stack([trace.real, trace.imag, parts])
    decisive = np.abs(keys) > 1e-12
    key = keys[np.arange(len(keys)), decisive.argmax(axis=1)]
    return np.where((decisive.any(axis=1) & (key < 0))[:, None, None], -m, m)


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

    face_maps = _fix_signs(_face_maps(a.z[mesh.faces], b.z[mesh.faces]))
    left, right = mesh.interior_faces.T
    G = _mul(_adjugate(face_maps[right]), face_maps[left])
    G_norm = np.abs(G).max(axis=(1, 2))
    # before the eigen residuals, so that their temporaries and the slot gathers never coexist
    cycle = Defect(*_cycle_products(mesh, G, G_norm), mesh.interior_vertices, "vertex")

    # the lifts psi = (z, 1) of ends i, j as columns: G psi_i = psi_i / lam, G psi_j = lam psi_j
    psi = lift(a.z)[mesh.interior_ends].transpose(0, 2, 1)
    w = _mul(G, psi)
    lam = w[:, 1, 1]  # second lift component is 1
    res = np.abs(w - np.stack([psi[:, :, 0] / lam[:, None], lam[:, None] * psi[:, :, 1]], axis=2))
    scale = G_norm * np.maximum(magnitude(a.z[mesh.interior_ends]).max(axis=1), 1.0)
    eig_res = Defect(res.max(axis=(1, 2)), scale, mesh.interior_ends, "edge").worst

    cra = cross_ratios(a)
    cr_gap = np.abs(cross_ratios(b) - cra / lam**2)
    cr_res = Defect(cr_gap, np.abs(cra).max(initial=0.0), mesh.interior_ends, "edge").worst
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
    pick = c.indices + len(G) * (c.data < 0)
    both = np.concatenate([G, _adjugate(G)])
    p = np.tile(np.eye(2, dtype=complex), (len(rows), 1, 1))
    p_scale = np.zeros(len(p))
    for m, n in enumerate(count.tolist()):
        e = start[:n] + m
        p_scale[:n] = np.maximum(p_scale[:n], np.abs(p[:n]).max(axis=(1, 2)) * G_norm[c.indices[e]])
        p[:n] = _mul(p[:n], both[pick[e]])
    rank = np.argsort(rows)
    return np.abs(p - np.eye(2)).max(axis=(1, 2))[rank], p_scale[rank]
