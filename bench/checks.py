"""Correctness checks that do not reuse the code under test.

Each check recomputes a property of a program output from the inputs with
numpy alone (its own edge tables, cotangents, cross ratios, Gauss map and
Moebius algebra) and returns a :class:`Defect`: the worst normalised
deviation and the tolerance it must stay within.  ``margin`` is
``log10(tol / defect)`` in decades; a check passes when the margin is
non-negative.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class Defect:
    name: str
    value: float
    tol: float

    @property
    def ok(self):
        return bool(np.isfinite(self.value)) and self.value <= self.tol

    @property
    def margin(self):
        value = self.value if np.isfinite(self.value) else 1e300
        return math.log10(self.tol / min(max(value, 1e-300), 1e300))


def _rel(err, scale):
    err = float(np.max(np.abs(err))) if np.size(err) else 0.0
    return err / max(float(scale), 1e-300)


class Mesh:
    """Edge tables of an oriented triangle list, built with numpy.

    Interior edges ``(i, j)`` have ``i < j``; ``k`` is the apex of the face
    that contains the oriented edge ``i -> j`` (``left``), ``l`` the apex of
    the face that contains ``j -> i`` (``right``).
    """

    def __init__(self, faces, vertex_count):
        f = np.asarray(faces, dtype=np.int64)
        self.faces = f
        self.vertex_count = vertex_count
        # half-edge (tail, head, apex, face) for the three sides of each face
        tail = np.concatenate([f[:, 0], f[:, 1], f[:, 2]])
        head = np.concatenate([f[:, 1], f[:, 2], f[:, 0]])
        apex = np.concatenate([f[:, 2], f[:, 0], f[:, 1]])
        face = np.tile(np.arange(len(f)), 3)
        n = vertex_count
        key = np.minimum(tail, head) * n + np.maximum(tail, head)
        order = np.lexsort((tail > head, key))
        key, tail, head, apex, face = key[order], tail[order], head[order], apex[order], face[order]
        # within an interior edge the forward half-edge (tail < head) sorts first
        pair = np.flatnonzero(key[1:] == key[:-1])
        self.i = tail[pair]
        self.j = head[pair]
        self.k = apex[pair]
        self.l = apex[pair + 1]
        self.left = face[pair]
        self.right = face[pair + 1]
        single = np.ones(len(key), dtype=bool)
        single[pair] = single[pair + 1] = False
        bverts = np.zeros(n, dtype=bool)
        bverts[tail[single]] = bverts[head[single]] = True
        self.is_boundary = bverts
        self.interior = np.flatnonzero(~bverts)

    def vertex_sum(self, values_from_i, values_from_j):
        """Sum of per-interior-edge terms around each vertex: the term seen
        from ``i`` goes to ``i``, the term seen from ``j`` to ``j``."""
        out = np.zeros(self.vertex_count, dtype=np.result_type(values_from_i, values_from_j))
        np.add.at(out, self.i, values_from_i)
        np.add.at(out, self.j, values_from_j)
        return out


def corner_cot(z, faces):
    """Signed cotangent at each corner ``(F, 3)`` of each face."""
    a, b, c = z[faces[:, 0]], z[faces[:, 1]], z[faces[:, 2]]

    def cot(p, q, r):
        w = np.conj(q - p) * (r - p)
        return w.real / w.imag

    return np.stack([cot(a, b, c), cot(b, c, a), cot(c, a, b)], axis=1)


def _cot_of(m, cot, face, vertex):
    """Cotangent of ``face`` at ``vertex`` (vectorised over edges)."""
    f = m.faces[face]
    col = np.argmax(f == vertex[:, None], axis=1)
    return cot[face, col]


def cotan_weights(m, z):
    cot = corner_cot(z, m.faces)
    return _cot_of(m, cot, m.left, m.k) + _cot_of(m, cot, m.right, m.l)


def laplacian(m, z, h):
    """``sum_j w_ij (h_j - h_i)`` at every vertex."""
    w = cotan_weights(m, z)
    d = h[m.j] - h[m.i]
    return m.vertex_sum(w * d, -w * d)


def cotan_q(m, z, u, absolute=False):
    """Cotangent formula of the quadratic differential of ``u`` per interior
    edge (the purely imaginary value; Lam-Pinkall's ``du_z dz``).

    With ``absolute`` it returns instead the sum of the magnitudes of the
    formula's four terms: the scale of the rounding error in ``q``, which
    stays large where the terms cancel."""
    cot = corner_cot(z, m.faces)
    i, j, k, l = m.i, m.j, m.k, m.l
    terms = (
        _cot_of(m, cot, m.left, i) * (u[k] - u[j]),
        _cot_of(m, cot, m.left, j) * (u[k] - u[i]),
        _cot_of(m, cot, m.right, j) * (u[l] - u[i]),
        _cot_of(m, cot, m.right, i) * (u[l] - u[j]),
    )
    if absolute:
        return 0.5 * sum(np.abs(t) for t in terms)
    return -0.5j * sum(terms)


def cross_ratios(m, z):
    i, j, k, l = m.i, m.j, m.k, m.l
    return (z[j] - z[k]) * (z[i] - z[l]) / ((z[k] - z[i]) * (z[l] - z[j]))


def edge_rate(z, zdot, a, b):
    """``(zdot_b - zdot_a) / (z_b - z_a)`` (symmetric in ``a``, ``b``)."""
    return (zdot[b] - zdot[a]) / (z[b] - z[a])


def dlog_cr(m, z, zdot):
    """Derivative of ``log cr`` along ``z + t zdot``, exact at ``t = 0``."""
    i, j, k, l = m.i, m.j, m.k, m.l
    return (
        edge_rate(z, zdot, j, k) - edge_rate(z, zdot, k, i)
        + edge_rate(z, zdot, i, l) - edge_rate(z, zdot, l, j)
    )


def gauss_map(z):
    s = np.abs(z) ** 2
    return np.stack([2 * z.real, 2 * z.imag, s - 1], axis=1) / (s + 1)[:, None]


# -- checks --------------------------------------------------------------------


def dirichlet(m, z, h, boundary, tol=1e-10):
    """``|L h|_inf <= tol |h|_inf`` at interior vertices, and the boundary
    values returned exactly."""
    res = laplacian(m, z, h)[m.interior]
    bad = [v for v, val in boundary.items() if h[v] != val]
    if bad:
        return Defect("dirichlet", math.inf, tol)
    return Defect("dirichlet", _rel(res, np.abs(h).max()), tol)


def qdiff_matches(m, z, u, q, tol=1e-9):
    """The program's ``q`` against the cotangent formula applied to ``u``,
    edge by edge relative to the formula's rounding scale."""
    ref = cotan_q(m, z, u)
    err = cotan_q(m, z, u, absolute=True)
    return Defect("qdiff_formula", _rel(np.abs(q - ref) / np.maximum(err, 1e-300), 1.0), tol)


def qdiff_sums(m, z, q, q_err, tol=1e-9):
    """``sum q = 0`` and ``sum q / dz = 0`` around each interior vertex, and
    ``Re q = 0``.  ``q_err`` (per interior edge, from
    ``cotan_q(..., absolute=True)``) is the scale of the rounding error in
    each ``q``; a vertex sum is measured against the sum of those scales at
    the vertex, so a sliver's large cotangents raise the floor only where
    they enter."""
    s0, a0, s1, a1 = _vertex_sums(m, z, q, q_err)
    d = max(
        float(np.max(np.abs(s0) / np.maximum(a0, 1e-300))),
        float(np.max(np.abs(s1) / np.maximum(a1, 1e-300))),
        _rel(q.real, np.abs(q).max()),
    )
    return Defect("qdiff", d, tol)


def _vertex_sums(m, z, q, q_err):
    """``sum q`` and ``sum q / dz`` at each interior vertex, each with the sum
    of its terms' rounding scales."""
    dz = z[m.j] - z[m.i]
    tau = q / dz
    s0 = m.vertex_sum(q, q)[m.interior]
    a0 = m.vertex_sum(q_err, q_err)[m.interior]
    s1 = m.vertex_sum(tau, -tau)[m.interior]
    a1 = m.vertex_sum(q_err / np.abs(dz), q_err / np.abs(dz))[m.interior]
    return s0, a0, s1, a1


def pushforward_report(m, w, q, q_err, report, tol=1e-9):
    """The report of ``hqd.qdiff_moebius_pushforward_check`` for ``q`` on the
    image ``w``.  Its sums ``sum q`` and ``sum q / dz`` at every interior
    vertex equal the benchmark's own, each against the rounding scale of its
    terms (as in :func:`qdiff_sums`); its ``max_defect`` is the documented
    ``max(|Re q| / |q|, |sum q| / |q|, |sum q/dz| / |q/dz|)`` of those sums;
    and its verdict is ``max_defect <= tol``."""
    s0, a0, s1, a1 = _vertex_sums(m, w, q, q_err)
    verts = m.interior.tolist()
    if sorted(report.vertex_sum) != verts or sorted(report.weighted_sum) != verts:
        return Defect("pushforward", math.inf, tol)
    r0 = np.array([report.vertex_sum[v] for v in verts])
    r1 = np.array([report.weighted_sum[v] for v in verts])
    tau = q / (w[m.j] - w[m.i])
    documented = max(
        _rel(q.real, np.abs(q).max()), _rel(r0, np.abs(q).max()), _rel(r1, np.abs(tau).max())
    )
    if not (
        abs(report.max_defect - documented) <= 1e-9 * documented
        and bool(report.holomorphic) == (report.max_defect <= tol)
    ):
        return Defect("pushforward", math.inf, tol)
    d = max(
        float(np.max(np.abs(r0 - s0) / np.maximum(a0, 1e-300))),
        float(np.max(np.abs(r1 - s1) / np.maximum(a1, 1e-300))),
    )
    return Defect("pushforward", d, tol)


def deformation(m, z, u, zdot, tol=1e-9):
    """A conformal deformation from harmonic ``u``: edge scale rates
    ``sigma_ij = (u_i + u_j) / 2``, ``Re d/dt log cr = 0`` and
    ``Im d/dt log cr = Im q``.

    An edge rate ``(zdot_j - zdot_i) / (z_j - z_i)`` carries rounding of
    the order of ``(|zdot_i| + |zdot_j|) / |z_j - z_i|``; each deviation is
    measured against the sum of those scales (plus the rounding scale of
    ``q``) over the edges it involves."""

    def scale(a, b):
        return (np.abs(zdot[a]) + np.abs(zdot[b])) / np.abs(z[b] - z[a])

    # every edge: interior ones from the tables, boundary ones from the faces
    f = m.faces
    a = np.concatenate([f[:, 0], f[:, 1], f[:, 2]])
    b = np.concatenate([f[:, 1], f[:, 2], f[:, 0]])
    sigma = edge_rate(z, zdot, a, b).real
    d_sigma = _rel(np.abs(sigma - (u[a] + u[b]) / 2) / scale(a, b), 1.0)
    i, j, k, l = m.i, m.j, m.k, m.l
    s4 = scale(j, k) + scale(k, i) + scale(i, l) + scale(l, j) + cotan_q(m, z, u, absolute=True)
    dl = dlog_cr(m, z, zdot)
    d_dl = _rel(np.abs(dl - cotan_q(m, z, u)) / s4, 1.0)
    return Defect("deform_closure", max(d_sigma, d_dl), tol)


def affine_roundtrip(z, u, u2, tol=1e-8):
    """``u2 - u`` is an affine function of ``(Re z, Im z)``."""
    basis = np.stack([np.ones(len(z)), z.real, z.imag], axis=1)
    diff = u2 - u
    coef, *_ = np.linalg.lstsq(basis, diff, rcond=None)
    return Defect("roundtrip", _rel(diff - basis @ coef, np.abs(u).max()), tol)


def parallel_edges(m, n, f, tol=1e-9):
    """Edge parallelism ``(n_j - n_i) x (f_left - f_right) = 0`` per interior
    edge, relative to ``|n_j - n_i|`` and the largest dual edge."""
    dn = n[m.j] - n[m.i]
    df = f[m.left] - f[m.right]
    scale = np.linalg.norm(df, axis=1).max()
    cross = np.linalg.norm(np.cross(dn, df), axis=1) / np.linalg.norm(dn, axis=1)
    return Defect("minimal", _rel(cross, scale), tol)


def gauss_points(z, n, tol=1e-12):
    """Gauss map vertices on the unit sphere at the inverse stereographic
    image of ``z``."""
    d = max(_rel(n - gauss_map(z), 1.0), _rel(np.linalg.norm(n, axis=1) - 1.0, 1.0))
    return Defect("gauss", d, tol)


def associate_family(fam, tol=1e-12):
    """``f^alpha = cos(alpha) f^0 + sin(alpha) f^{pi/2}`` for each member of
    ``fam`` (a dict alpha -> face positions) that holds 0 and pi/2."""
    f0 = fam[0.0]
    f90 = fam[math.pi / 2]
    scale = max(np.abs(f0).max(), np.abs(f90).max())
    d = max(_rel(fa - (math.cos(al) * f0 + math.sin(al) * f90), scale) for al, fa in fam.items())
    return Defect("associate", d, tol)


def moebius_factors(z, coeffs, u, alpha, tol=1e-9):
    """For a determinant-one map ``(a, b, c, d)``: ``u = -2 ln|cz+d|`` and
    ``alpha = -2 arg(cz+d) (mod 2 pi)``."""
    _, _, c, d = coeffs
    den = c * z + d
    du = _rel(u + 2 * np.log(np.abs(den)), 1.0)
    da = _rel(np.angle(np.exp(1j * (alpha + 2 * np.angle(den)))), 1.0)
    return Defect("moebius_factors", max(du, da), tol)


def rates_invariant(mu_pushed, mu_ref, tol=1e-9):
    """``mu`` on ``phi(a)`` for ``phi' zdot`` equals ``mu`` on ``a`` for ``zdot``."""
    return Defect("rate_invariance", _rel(mu_pushed - mu_ref, np.abs(mu_ref).max()), tol)


def sl2_closed(m, z, mu, matrices, tol=1e-10):
    """The program's matrices equal ``(mu / dz) [[zi+zj, -2 zi zj], [2, -zi-zj]]``
    and their signed sums around each interior vertex vanish."""
    zi, zj = z[m.i], z[m.j]
    f = (mu / (zj - zi))[:, None, None]
    ref = f * np.stack(
        [np.stack([zi + zj, -2 * zi * zj], -1), np.stack([2 + 0 * zi, -zi - zj], -1)], -2
    )
    scale = np.abs(ref).max()
    d_form = _rel(matrices - ref, scale)
    sums = np.zeros((m.vertex_count, 2, 2), dtype=complex)
    np.add.at(sums, m.i, matrices)
    np.add.at(sums, m.j, -matrices)
    d_sum = _rel(sums[m.interior], scale)
    return Defect("sl2_closed", max(d_form, d_sum), tol)


def transitions(m, za, zb, face_maps, eigenvalues, tol=1e-10):
    """Each face map sends the face's ``a``-triple to its ``b``-triple, has
    determinant one, and ``cr_b = cr_a / lambda^2`` per interior edge."""
    fm = face_maps
    d_det = _rel(fm[:, 0, 0] * fm[:, 1, 1] - fm[:, 0, 1] * fm[:, 1, 0] - 1.0, 1.0)
    worst = 0.0
    for col in range(3):
        v = m.faces[:, col]
        img = (fm[:, 0, 0] * za[v] + fm[:, 0, 1]) / (fm[:, 1, 0] * za[v] + fm[:, 1, 1])
        worst = max(worst, _rel(img - zb[v], np.abs(zb).max()))
    cra = cross_ratios(m, za)
    crb = cross_ratios(m, zb)
    d_cr = _rel(crb - cra / eigenvalues**2, np.abs(cra).max())
    return Defect("transition_cr", max(d_det, worst, d_cr), tol)
