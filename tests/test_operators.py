"""The shared operators and index arrays of ``TriMesh`` against the
per-element loops they replaced.  The loops stay here as the reference.
The integrator, the cycle sum, the index arrays, the per-vertex
reconstruction, the Dirichlet solve, the conformal deformation and the
triangle compatibility check must agree bit for bit, as must the Möbius
transitions with the ``(N, 2, 2)`` broadcast formulation that their entry
arrays replaced; the rest, whose arithmetic is now batched, to 1e-12 of
the reference scale (see :func:`assert_close`)."""

from collections import deque

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ddgconf import Realization, build, deform, hqd, laplace, moebius, realization, weierstrass
from ddgconf.errors import InvalidInput
from ddgconf.mesh import Defect, integrate, magnitude
from ddgconf.realization import cross_ratios

from conftest import (
    SQUARE2_FACES, WHEEL6_FACES, delaunay_disk, grid_disk, jittered_grid, random_moebius,
    reference_tables,
)


def fixture_realization(kind):
    if kind == "delaunay":
        return delaunay_disk(300, seed=5)
    r = jittered_grid(14, 0.45, seed=3)
    assert (laplace.cotan_weights(r) < 0).any()  # negative cotan weights
    return r


@pytest.fixture(scope="module", params=["delaunay", "jittered"])
def mesh(request):
    return fixture_realization(request.param).mesh


@pytest.fixture(scope="module", params=["delaunay", "jittered"])
def fields(request):
    """A realization with a harmonic ``u``, its conformal deformation
    ``zdot``, its quadratic differential ``q`` and a Weierstrass surface."""
    r = fixture_realization(request.param)
    rng = np.random.default_rng(4)
    boundary = {v: rng.standard_normal() for v in r.mesh.boundary_vertices}
    u = laplace.solve_dirichlet(r, boundary)
    q = hqd.qdiff_from_harmonic(r, u).values
    surface = weierstrass.weierstrass_integrate(r, q)
    return r, boundary, u, deform.conformal_deformation(r, u), q, surface


# -- the reference: today's loops ----------------------------------------------


def reference_tree(mesh, root, dual):
    """BFS tree over sorted adjacency lists: ``(steps, cotree)``."""
    ref = reference_tables(mesh)
    edges = mesh.interior_edges.tolist() if dual else range(len(mesh.edge_ends))
    adj = [[] for _ in range(len(mesh.faces) if dual else mesh.vertex_count)]
    for e in edges:
        tail, head = (ref.right[e], ref.left[e]) if dual else mesh.edge_ends[e].tolist()
        adj[tail].append((head, e, 1))
        adj[head].append((tail, e, -1))
    seen = [False] * len(adj)
    seen[root] = True
    steps, tree_edges = [], set()
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for nxt, e, sign in sorted(adj[node]):
            if not seen[nxt]:
                seen[nxt] = True
                tree_edges.add(e)
                steps.append((nxt, node, e, sign))
                queue.append(nxt)
    return steps, [e for e in edges if e not in tree_edges]


def reference_integrate(mesh, form, root, dual):
    """Potential and co-tree gaps, one tree step at a time; ``form`` is
    indexed by mesh edge."""
    steps, cotree = reference_tree(mesh, root, dual)
    ref = reference_tables(mesh)
    n = len(mesh.faces) if dual else mesh.vertex_count
    pot = np.zeros((n,) + form.shape[1:], dtype=form.dtype)
    for node, parent, e, sign in steps:
        pot[node] = pot[parent] + sign * form[e]
    gaps = []
    for e in cotree:
        tail, head = (ref.right[e], ref.left[e]) if dual else mesh.edge_ends[e].tolist()
        gap = pot[head] - pot[tail] - form[e]
        gaps.append(float(np.abs(gap).max()) if form.ndim > 1 else abs(gap))
    return pot, cotree, np.array(gaps)


def reference_cycles(mesh):
    """Dual edges ``(tail, head, from_face, to_face, edge)`` around each
    interior vertex, walked along its counterclockwise star."""
    ref = reference_tables(mesh)
    cycles = {}
    for v in mesh.interior_vertices:
        ring, closed = ref.star[v]
        assert closed
        cycles[v] = [(v, j, ref.oriented[(j, v)], ref.oriented[(v, j)], ref.key(v, j)) for j in ring]
    return cycles


def reference_cycle_sum(mesh, values, signed):
    pos = {e: idx for idx, e in enumerate(mesh.interior_edges)}
    sums = []
    for cycle in reference_cycles(mesh).values():
        s = np.zeros(values.shape[1:], dtype=values.dtype)
        for tail, head, _, _, e in cycle:
            s += -values[pos[e]] if signed and tail > head else values[pos[e]]
        sums.append(s)
    return np.array(sums).reshape((len(sums),) + values.shape[1:])


def reference_face_edges(mesh):
    ref = reference_tables(mesh)
    return [[ref.key(a, b) for a, b in zip(f, f[1:] + f[:1])] for f in ref.faces]


def reference_flap_edges(mesh):
    ref = reference_tables(mesh)
    flaps = [ref.flap(e) for e in mesh.interior_edges]
    return [[ref.key(*pair) for pair in ((j, k), (k, i), (i, l), (l, j))] for i, j, k, l in flaps]


def reference_per_vertex_from_edges(mesh, edge_value, reduce_mod_tau=False):
    ref = reference_tables(mesh)
    values = np.zeros(mesh.vertex_count)
    spread = 0.0

    def s(a, b):
        return edge_value[ref.key(a, b)]

    per_vertex = [[] for _ in range(mesh.vertex_count)]
    for (i, j, k) in ref.faces:
        for v, a, b in ((i, j, k), (j, k, i), (k, i, j)):
            per_vertex[v].append(s(b, v) + s(v, a) - s(a, b))
    for v, vals in enumerate(per_vertex):
        vals = np.array(vals)
        if reduce_mod_tau:
            base = vals[0]
            diff = np.angle(np.exp(1j * (vals - base)))
            spread = max(spread, float(np.abs(diff).max()))
            values[v] = base % realization.TAU
        else:
            spread = max(spread, float(vals.max() - vals.min()))
            values[v] = vals[0]
    return values, spread


def argsort_per_vertex_from_edges(mesh, edge_value, reduce_mod_tau=False):
    """``realization._per_vertex_from_edges`` sorting the corners by vertex
    on every call, in face order within each vertex, as it did before it read
    ``TriMesh.vertex_stars``."""
    s = np.asarray(edge_value)[mesh.face_edges]
    vals = (s[:, [2, 0, 1]] + s - s[:, [1, 2, 0]]).ravel()
    corner_vertex = mesh.faces.ravel()
    vals = vals[np.argsort(corner_vertex, kind="stable")]
    count = np.bincount(corner_vertex, minlength=mesh.vertex_count)
    start = np.cumsum(count) - count
    base = vals[start]
    if reduce_mod_tau:
        diff = np.angle(np.exp(1j * (vals - np.repeat(base, count))))
        return base % realization.TAU, float(np.abs(diff).max())
    spread = np.maximum.reduceat(vals, start) - np.minimum.reduceat(vals, start)
    return base, float(spread.max())


def uncached_cross_ratios(r):
    """The cross ratios from the reference flaps, computed on every call."""
    ref = reference_tables(r.mesh)
    i, j, k, l = np.array([ref.flap(e) for e in r.mesh.interior_edges]).T
    z = r.z
    return (z[j] - z[k]) * (z[i] - z[l]) / ((z[k] - z[i]) * (z[l] - z[j]))


def reference_solve_dirichlet(r, boundary, default_ordering=False):
    """The interior system assembled entry by entry, factored with the
    program's ``splu`` call (or scipy's default COLAMD ordering)."""
    mesh = r.mesh
    ni = len(mesh.interior_vertices)
    g = np.zeros(mesh.vertex_count)
    for v in mesh.boundary_vertices:
        g[v] = boundary[v]
    w = laplace.cotan_weights(r)
    int_pos = {v: p for p, v in enumerate(mesh.interior_vertices)}
    rows, cols, vals = [], [], []
    diag = np.zeros(ni)
    b = np.zeros(ni)
    for idx, e in enumerate(mesh.interior_edges):
        i, j = mesh.edge_ends[e].tolist()
        for a, c in ((i, j), (j, i)):
            if a in int_pos:
                pa = int_pos[a]
                diag[pa] -= w[idx]
                if c in int_pos:
                    rows.append(pa)
                    cols.append(int_pos[c])
                    vals.append(w[idx])
                else:
                    b[pa] -= w[idx] * g[c]
    rows.extend(range(ni))
    cols.extend(range(ni))
    vals.extend(diag)
    A = sp.csc_matrix((vals, (rows, cols)), shape=(ni, ni))
    if default_ordering:
        lu = spla.splu(A)
    else:
        lu = spla.splu(
            A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1, options={"SymmetricMode": True}
        )
    x = lu.solve(b)
    h_scale = max(float(np.abs(g).max()), float(np.abs(x).max()), 1e-300)
    for _ in range(3):
        res = A @ x - b
        if float(np.abs(res).max()) <= 1e-12 * h_scale:
            break
        x = x - lu.solve(res)
    h = g.copy()
    h[mesh.interior_vertices] = x
    return h


def reference_conformal_deformation(r, u):
    mesh = r.mesh
    conj = laplace.conjugate_harmonic(r, u)
    form = np.empty(len(mesh.edge_ends), dtype=complex)
    for e, (i, j) in enumerate(mesh.edge_ends.tolist()):
        form[e] = ((u[i] + u[j]) / 2.0 + 1j * conj.edge_rotation[e]) * (r.z[j] - r.z[i])
    return integrate(mesh, form).potential


def reference_edge_rates(r, zdot):
    rate = np.empty(len(r.mesh.edge_ends), dtype=complex)
    for e, (i, j) in enumerate(r.mesh.edge_ends.tolist()):
        rate[e] = (zdot[j] - zdot[i]) / (r.z[j] - r.z[i])
    return rate


def reference_cross_ratio_rate(r, zdot):
    c = reference_edge_rates(r, zdot)
    ref = reference_tables(r.mesh)

    def ce(a, b):
        return c[ref.key(a, b)]

    flaps = [ref.flap(e) for e in r.mesh.interior_edges]
    return np.array([ce(j, k) - ce(k, i) + ce(i, l) - ce(l, j) for i, j, k, l in flaps])


def reference_triangle_compat(r, c, tol=1e-10):
    """Per face: closure defect, verdict, average rates and their spreads,
    and the circumradius rate error (nan on failed faces): ``d/dt log R`` is
    the sum of the three sigmas less ``d/dt log |area2|``."""
    ref = reference_tables(r.mesh)
    out = np.full((len(r.mesh.faces), 7), complex(np.nan, 0.0))
    for f, (v1, v2, v3) in enumerate(ref.faces):
        z1, z2, z3 = r.z[v1], r.z[v2], r.z[v3]
        c12, c23, c31 = (c[ref.key(a, b)] for a, b in ((v1, v2), (v2, v3), (v3, v1)))
        closure = c12 * (z2 - z1) + c23 * (z3 - z2) + c31 * (z1 - z3)
        scale = max(abs(z2 - z1), abs(z3 - z2), abs(z1 - z3))
        out[f, :2] = closure / scale, abs(closure) <= tol * scale
        if not out[f, 1]:
            continue
        cot1, cot2, cot3 = r.cot[f]
        s12, s23, s31 = c12.real, c23.real, c31.real
        w12, w23, w31 = c12.imag, c23.imag, c31.imag
        omegas = np.array([w23 + cot1 * (s31 - s12), w31 + cot2 * (s12 - s23), w12 + cot3 * (s23 - s31)])
        sigmas = np.array([s23 - cot1 * (w31 - w12), s31 - cot2 * (w12 - w23), s12 - cot3 * (w23 - w31)])
        w = np.conj(z2 - z1) * (z3 - z1)  # Im w = area2
        rr = s12 + s23 + s31 - ((c12.conjugate() + c31) * w).imag / r.area2[f]
        rr_err = abs(sigmas[0] - rr) / max(abs(sigmas[0]), abs(rr), 1e-12)
        out[f, 2:] = (omegas[0], np.ptp(omegas), sigmas[0], np.ptp(sigmas), rr_err)
    return out


def reference_null_vector_forms(r, rates, weierstrass_form):
    """The sl(2,C) matrices and Pauli vectors of rates ``mu``, or the
    Weierstrass integrand of ``q``, one interior edge at a time."""
    n = len(r.mesh.interior_edges)
    mats = np.empty((n, 2, 2), dtype=complex)
    vecs = np.empty((n, 3), dtype=complex)
    for idx, e in enumerate(r.mesh.interior_edges):
        i, j = r.mesh.edge_ends[e].tolist()
        zi, zj = r.z[i], r.z[j]
        f = rates[idx] / (1j * (zj - zi)) if weierstrass_form else rates[idx] / (zj - zi)
        mats[idx] = f * np.array([[zi + zj, -2.0 * zi * zj], [2.0, -zi - zj]])
        vecs[idx] = f * np.array([1.0 - zi * zj, 1j * (1.0 + zi * zj), zi + zj])
    return mats, vecs


def reference_face_moebius(a_triple, b_triple):
    def normal_form(p1, p2, p3):
        return np.array([[p2 - p3, -p1 * (p2 - p3)], [p2 - p1, -p3 * (p2 - p1)]], dtype=complex)

    na, nb = normal_form(*a_triple), normal_form(*b_triple)
    nb_inv = np.array([[nb[1, 1], -nb[0, 1]], [-nb[1, 0], nb[0, 0]]]) / np.linalg.det(nb)
    m = nb_inv @ na
    return m / np.sqrt(np.linalg.det(m))


def reference_fix_sign(m):
    t = np.trace(m)
    if abs(t.real) > 1e-12:
        return m if t.real > 0 else -m
    if abs(t.imag) > 1e-12:
        return m if t.imag > 0 else -m
    for x in m.reshape(-1):
        if abs(x.real) > 1e-12:
            return m if x.real > 0 else -m
        if abs(x.imag) > 1e-12:
            return m if x.imag > 0 else -m
    return m


def reference_adjugate(m):
    """``[[d, -b], [-c, a]]`` of each ``(N, 2, 2)`` matrix ``[[a, b], [c, d]]``."""
    return np.stack([m[:, 1, 1], -m[:, 0, 1], -m[:, 1, 0], m[:, 0, 0]], axis=1).reshape(-1, 2, 2)


def entries(m):
    """The entry arrays ``(m00, m01, m10, m11)`` of ``(N, 2, 2)`` matrices."""
    return tuple(m.reshape(-1, 4).T)


def broadcast_mul(a, b):
    """``a[n] @ b[n]`` for ``(N, 2, 2)`` ``a`` and ``(N, 2, k)`` ``b``: two
    broadcast products and a sum."""
    return a[:, :, :1] * b[:, None, 0] + a[:, :, 1:] * b[:, None, 1]


def broadcast_face_maps(a, b):
    """The face maps of point triples ``a[f]`` -> ``b[f]`` as ``(F, 2, 2)``
    normal forms, ``a`` and ``b`` of shape (F, 3)."""

    def normal_form(p):
        p1, p2, p3 = p.T
        entries = [p2 - p3, -p1 * (p2 - p3), p2 - p1, -p3 * (p2 - p1)]
        return np.stack(entries, axis=1).reshape(-1, 2, 2), (p2 - p3) * (p2 - p1) * (p1 - p3)

    (na, det_na), (nb, det_nb) = normal_form(a), normal_form(b)
    m = broadcast_mul(reference_adjugate(nb) / det_nb[:, None, None], na)
    return m / np.sqrt(det_na / det_nb)[:, None, None]


def broadcast_fix_signs(m):
    """The sign fix with one key row per matrix: real and imaginary trace,
    then the real and imaginary part of each entry."""
    trace = m[:, 0, 0] + m[:, 1, 1]
    flat = m.reshape(-1, 4)
    parts = np.stack([flat.real, flat.imag], axis=2).reshape(-1, 8)
    keys = np.column_stack([trace.real, trace.imag, parts])
    decisive = np.abs(keys) > 1e-12
    key = keys[np.arange(len(keys)), decisive.argmax(axis=1)]
    return np.where((decisive.any(axis=1) & (key < 0))[:, None, None], -m, m)


def broadcast_transitions(a, b):
    """``transition_matrices`` on ``(N, 2, 2)`` arrays: face maps, ``G``,
    eigenvalues, the eigen, cross-ratio and cycle residuals, and the cycle
    defects and scales."""
    mesh = a.mesh
    face_maps = broadcast_fix_signs(broadcast_face_maps(a.z[mesh.faces], b.z[mesh.faces]))
    left, right = mesh.interior_faces.T
    G = broadcast_mul(reference_adjugate(face_maps[right]), face_maps[left])
    G_norm = np.abs(G).max(axis=(1, 2))
    cycle = reference_cycle_products(mesh, G, G_norm)
    psi = moebius.lift(a.z)[mesh.interior_ends].transpose(0, 2, 1)
    w = broadcast_mul(G, psi)
    lam = w[:, 1, 1]
    res = np.abs(w - np.stack([psi[:, :, 0] / lam[:, None], lam[:, None] * psi[:, :, 1]], axis=2))
    scale = G_norm * np.maximum(magnitude(a.z[mesh.interior_ends]).max(axis=1), 1.0)
    eig_res = Defect(res.max(axis=(1, 2)), scale, mesh.interior_ends, "edge").worst
    cra = cross_ratios(a)
    cr_res = Defect(np.abs(cross_ratios(b) - cra / lam**2), np.abs(cra).max(initial=0.0), None, "edge").worst
    cycle_res = Defect(*cycle, None, "vertex").worst
    return face_maps, G, lam, eig_res, cr_res, cycle_res, *cycle


def reference_transitions(a, b):
    """Face maps, transitions, eigenvalues and the eigen and cross-ratio
    residuals (the cycle product was already batched)."""
    mesh = a.mesh
    ref = reference_tables(mesh)
    face_maps = np.array([
        reference_fix_sign(reference_face_moebius(tuple(a.z[list(f)]), tuple(b.z[list(f)])))
        for f in ref.faces
    ])
    n = len(mesh.interior_edges)
    G = np.empty((n, 2, 2), dtype=complex)
    lam = np.empty(n, dtype=complex)
    eig_res = 0.0
    psi = moebius.lift(a.z)
    for idx, e in enumerate(mesh.interior_edges):
        i, j = mesh.edge_ends[e].tolist()
        al, ar = face_maps[ref.left[e]], face_maps[ref.right[e]]
        g = np.array([[ar[1, 1], -ar[0, 1]], [-ar[1, 0], ar[0, 0]]]) @ al
        G[idx] = g
        wj, wi = g @ psi[j], g @ psi[i]
        lam[idx] = wj[1]
        scale = max(float(np.abs(g).max()), 1e-300) * max(abs(a.z[i]), abs(a.z[j]), 1.0)
        eig_res = max(
            eig_res,
            float(np.abs(wj - lam[idx] * psi[j]).max()) / scale,
            float(np.abs(wi - psi[i] / lam[idx]).max()) / scale,
        )
    cra = cross_ratios(a)
    cr_res = float(np.abs(cross_ratios(b) - cra / lam**2).max() / np.abs(cra).max())
    return face_maps, G, lam, eig_res, cr_res


def reference_cycle_products(mesh, G, G_norm):
    """``|P - I|`` and the rounding scale of the product ``P`` of ``G`` around
    each interior vertex, one slot at a time over the rows that have it."""
    c = mesh.vertex_cycles
    start, valence = c.indptr[:-1], np.diff(c.indptr)
    G_inv = reference_adjugate(G)
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


def reference_verify_minimal(mesh, n, f):
    """Per interior edge: residual, least-squares factor and orthogonal part."""
    left, right = mesh.interior_faces.T
    dfs = f[left] - f[right]
    df_scale = float(np.linalg.norm(dfs, axis=1).max())
    out = np.zeros((len(mesh.interior_edges), 3))
    for idx, e in enumerate(mesh.interior_edges):
        i, j = mesh.edge_ends[e].tolist()
        dn, df = n[j] - n[i], dfs[idx]
        dn_norm = np.linalg.norm(dn)
        proj = float(dn @ df) / dn_norm**2
        out[idx] = np.linalg.norm(np.cross(dn, df)) / (dn_norm * df_scale), proj, np.linalg.norm(df - proj * dn)
    return out


def reference_qdiff_from_minimal(r, k):
    q_imag = np.empty(len(r.mesh.interior_edges))
    for idx, e in enumerate(r.mesh.interior_edges):
        i, j = r.mesh.edge_ends[e].tolist()
        scale = (1.0 + abs(r.z[i]) ** 2) * (1.0 + abs(r.z[j]) ** 2) / 2.0
        q_imag[idx] = k[idx] / scale * abs(r.z[j] - r.z[i]) ** 2
    return q_imag


def reference_curvature_factor(r, q):
    k = np.empty(len(r.mesh.interior_edges))
    for idx, e in enumerate(r.mesh.interior_edges):
        i, j = r.mesh.edge_ends[e].tolist()
        k[idx] = (-1j * q[idx] / abs(r.z[j] - r.z[i]) ** 2).real
    return k


def assert_close(got, ref, scale=None):
    """Equal shapes, nan where the reference has nan, and elsewhere
    ``|got - ref| <= 1e-12 scale``, ``scale`` being ``max|ref|`` unless
    given.  A defect or residual measures a cancellation, so it is compared
    on the scale of the terms that cancel."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    nan = np.isnan(ref)
    assert (np.isnan(got) == nan).all()
    if scale is None:
        scale = np.abs(ref[~nan]).max(initial=0.0)
    assert np.abs(got[~nan] - ref[~nan]).max(initial=0.0) <= 1e-12 * scale


# -- tests -----------------------------------------------------------------------


def test_spanning_trees_match_reference(mesh):
    for root in (0, len(mesh.faces) // 2):
        assert mesh.dual_spanning_tree(root) == reference_tree(mesh, root, dual=True)
    for root in (0, mesh.vertex_count // 3):
        assert mesh.vertex_spanning_tree(root) == reference_tree(mesh, root, dual=False)


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("shape", ["real", "complex", "vector"])
def test_integrate_matches_reference(mesh, dual, shape):
    rng = np.random.default_rng(7)
    n = len(mesh.interior_edges) if dual else len(mesh.edge_ends)
    trailing = (3,) if shape == "vector" else ()
    form = rng.standard_normal((n,) + trailing)
    if shape != "real":
        form = form + 1j * rng.standard_normal((n,) + trailing)
    by_edge = np.zeros((len(mesh.edge_ends),) + trailing, dtype=form.dtype)
    by_edge[mesh.interior_edges if dual else slice(None)] = form
    root = 3
    pot, cotree, gaps = reference_integrate(mesh, by_edge, root, dual)

    result = integrate(mesh, form, root, dual)
    assert result.potential.dtype == pot.dtype
    assert result.potential.tobytes() == pot.tobytes()
    assert result.cotree.tolist() == cotree
    defect = result.defect
    assert defect.value.tobytes() == gaps.tobytes()
    assert defect.scale == max(float(np.abs(form).max()), 1e-300)
    assert defect.worst == max(g / defect.scale for g in gaps)
    assert defect.where.tolist() == [mesh.edge_ends[e].tolist() for e in cotree]


def strip_mesh(length):
    """A 1 x ``length`` strip of unit squares, each split into two triangles:
    its BFS trees have about ``length`` primal and ``2 length`` dual levels."""
    faces = []
    for k in range(length):
        a, b, c, d = 2 * k, 2 * k + 2, 2 * k + 3, 2 * k + 1
        faces += [(a, b, c), (a, c, d)]
    return build(faces)


def assert_integrates_as_reference(mesh, form, root, dual):
    """``integrate`` equals :func:`reference_integrate` bit for bit: the
    potential, the co-tree, and the defect's value, scale and edges."""
    by_edge = np.zeros((len(mesh.edge_ends),) + form.shape[1:], dtype=form.dtype)
    by_edge[mesh.interior_edges if dual else slice(None)] = form
    pot, cotree, gaps = reference_integrate(mesh, by_edge, root, dual)
    scale = np.abs(form).max()  # as test_integrate_matches_reference takes it

    result = integrate(mesh, form, root, dual)
    assert result.potential.dtype == pot.dtype
    assert result.potential.tobytes() == pot.tobytes()
    assert result.cotree.tolist() == cotree
    defect = result.defect
    assert defect.value.tobytes() == gaps.tobytes()
    assert np.float64(defect.scale).tobytes() == np.float64(scale).tobytes()
    assert defect.where.tolist() == [mesh.edge_ends[e].tolist() for e in cotree]


@pytest.mark.parametrize("dual", [False, True])
def test_integrate_matches_reference_across_hundreds_of_levels(dual):
    mesh = strip_mesh(200)
    n = len(mesh.interior_edges) if dual else len(mesh.edge_ends)
    rng = np.random.default_rng(10)
    form = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    graph = mesh._dual_graph if dual else mesh._primal_graph
    for root in (0, graph.n // 2):
        levels = graph.tree(root)[2]
        assert len(levels) > (300 if dual and root == 0 else 100)
        assert_integrates_as_reference(mesh, form, root, dual)


@pytest.mark.parametrize("dual", [False, True])
def test_integrate_matches_reference_for_matrices(mesh, dual):
    n = len(mesh.interior_edges) if dual else len(mesh.edge_ends)
    rng = np.random.default_rng(11)
    form = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    assert_integrates_as_reference(mesh, form, 5, dual)


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("shape", ["real", "complex", "vector"])
def test_integrate_matches_reference_with_nan_and_inf(mesh, dual, shape):
    """One NaN and one inf entry: where a step's sign is -1, ``sign * form``
    is a complex product, ``(-1 + 0j)(inf + b j)`` is ``-inf + nan j``, not
    the negation ``-inf - b j``, and NaN and inf spread to the gaps."""
    n = len(mesh.interior_edges) if dual else len(mesh.edge_ends)
    rng = np.random.default_rng(12)
    trailing = (3,) if shape == "vector" else ()
    form = rng.standard_normal((n,) + trailing)
    if shape != "real":
        form = form + 1j * rng.standard_normal((n,) + trailing)
    form[n // 3] = np.nan
    form[2 * n // 3] = np.inf
    with np.errstate(invalid="ignore"):
        assert_integrates_as_reference(mesh, form, 3, dual)


def test_integrate_reports_the_first_failing_cotree_edge(mesh):
    form = np.random.default_rng(8).standard_normal(len(mesh.edge_ends))
    result = integrate(mesh, form)
    defect = result.defect
    first = next(k for k, g in enumerate(defect.value) if g > 1e-3 * defect.scale)
    with pytest.raises(InvalidInput) as info:
        defect.require(1e-3, InvalidInput, "edge {edge}: {defect:.3e}")
    edge = tuple(mesh.edge_ends[result.cotree[first]].tolist())
    assert str(info.value) == f"edge {edge}: {defect.value[first]:.3e}"
    assert info.value.details == {"edge": edge, "defect": defect.value[first]}
    defect.require(1.0 + defect.worst, InvalidInput, "never")


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("shape", ["real", "complex", "matrix"])
def test_cycle_sum_matches_reference(mesh, signed, shape):
    rng = np.random.default_rng(9)
    trailing = (2, 2) if shape == "matrix" else ()
    values = rng.standard_normal((len(mesh.interior_edges),) + trailing)
    if shape != "real":
        values = values + 1j * rng.standard_normal(values.shape)
    expected = reference_cycle_sum(mesh, values, signed)
    assert mesh.cycle_sum(values, signed).tobytes() == expected.tobytes()


LAPLACIAN_REALIZATIONS = {
    "delaunay": lambda: delaunay_disk(300, seed=5),
    "jittered": lambda: fixture_realization("jittered"),  # negative weights
    "grid20": lambda: grid_disk(19),  # zero weights
}


@pytest.mark.parametrize("kind", LAPLACIAN_REALIZATIONS)
def test_laplacian_is_the_signed_cycle_sum(kind):
    """``laplacian`` sums ``w (h_j - h_i)`` slot by slot, as the reference
    cycle sum does, for a real and a complex ``h``, and a complex ``h`` gives
    its two real Laplacians.  A constant ``h`` gives +0.0, not -0.0, at every
    interior vertex, whatever the signs of the weights."""
    r = LAPLACIAN_REALIZATIONS[kind]()
    w, (i, j) = laplace.cotan_weights(r), r.mesh.interior_ends.T
    if kind == "grid20":
        assert (w == 0).any()
    rng = np.random.default_rng(15)
    real, imag = rng.standard_normal((2, r.mesh.vertex_count))
    for h in (real, real + 1j * imag):
        expected = reference_cycle_sum(r.mesh, w * (h[j] - h[i]), signed=True)
        assert laplace.laplacian(r, h).tobytes() == expected.tobytes()
    parts = laplace.laplacian(r, real), laplace.laplacian(r, imag)
    both = laplace.laplacian(r, real + 1j * imag)
    assert (both.real.tobytes(), both.imag.tobytes()) == tuple(p.tobytes() for p in parts)
    zero = laplace.laplacian(r, np.full(r.mesh.vertex_count, 2.5))
    assert zero.tobytes() == np.zeros(len(r.mesh.interior_vertices)).tobytes()


def test_dual_cycles_match_reference(mesh):
    expected = reference_cycles(mesh)
    cycles = mesh.dual_cycles()
    assert list(cycles) == list(expected)
    assert {v: [tuple(de) for de in c] for v, c in cycles.items()} == expected


def reference_stars(mesh):
    """Every corner, vertex by vertex, walked along the vertex's star from the
    first neighbour of ``reference_tables``; the last neighbour of an open fan
    has no corner ``v -> j``."""
    ref = reference_tables(mesh)
    corners = []
    for v, (ring, _) in enumerate(ref.star):
        faces = [ref.oriented[(v, j)] for j in ring if (v, j) in ref.oriented]
        corners += [3 * f + ref.faces[f].index(v) for f in faces]
    return corners


STAR_MESHES = {
    "wheel6": lambda: build(WHEEL6_FACES),
    "square2": lambda: build(SQUARE2_FACES),
    "triangle": lambda: build([(0, 1, 2)]),
    "strip200": lambda: strip_mesh(200),
    "hull1055": lambda: delaunay_disk(1000, seed=1055).mesh,  # the benchmark's sliver disk
}


@pytest.mark.parametrize("kind", STAR_MESHES)
def test_vertex_stars_match_the_reference_walk(kind):
    """All corners, grouped by ascending vertex, counterclockwise in each star:
    corner ``(v, j, k)`` is followed by ``(v, k, .)``.  A closed ring starts at
    its smallest neighbour, an open fan at its boundary edge ``v -> j``."""
    mesh = STAR_MESHES[kind]()
    stars = mesh.vertex_stars
    assert stars.dtype == np.int64 and not stars.flags.writeable
    with pytest.raises(ValueError):
        stars[0] = 0
    assert stars.tolist() == reference_stars(mesh)
    corners = mesh.faces.ravel()
    v, j, k = (corners[mesh.next_corner(stars, m)] for m in range(3))
    assert sorted(stars.tolist()) == list(range(len(corners))) and (np.diff(v) >= 0).all()
    valence = np.bincount(v)
    start = np.cumsum(valence) - valence
    same_star = np.diff(v) == 0
    assert (j[1:][same_star] == k[:-1][same_star]).all()
    boundary = {tuple(e) for e in mesh.edge_ends[mesh.boundary_edges].tolist()}
    for vertex, first in enumerate(start.tolist()):
        ring = j[first:first + valence[vertex]]
        if mesh.is_boundary_vertex[vertex]:
            assert tuple(sorted((vertex, int(j[first])))) in boundary
        else:
            assert j[first] == ring.min()


def test_vertex_cycles_read_the_stars_in_slot_order(mesh):
    """Row by row, ``vertex_cycles`` and ``cycle_faces`` hold the reference
    cycles slot by slot, and its slots are the interior stars' corners."""
    cycles = reference_cycles(mesh)
    pos = {e: idx for idx, e in enumerate(mesh.interior_edges.tolist())}
    c = mesh.vertex_cycles
    assert c.indptr.tolist() == np.cumsum([0] + [len(cyc) for cyc in cycles.values()]).tolist()
    assert c.indices.tolist() == [pos[e] for cyc in cycles.values() for *_, e in cyc]
    signs = [1.0 if v < j else -1.0 for cyc in cycles.values() for v, j, *_ in cyc]
    assert c.data.tobytes() == np.array(signs).tobytes()
    assert mesh.cycle_faces.tolist() == [to for cyc in cycles.values() for _, _, _, to, _ in cyc]
    inner = ~mesh.is_boundary_vertex[mesh.faces.ravel()[mesh.vertex_stars]]
    assert (mesh.cycle_faces == mesh.vertex_stars[inner] // 3).all()


FACE_REALIZATIONS = {
    "delaunay": lambda: delaunay_disk(300, seed=5),
    "jittered": lambda: fixture_realization("jittered"),  # folded-over faces
    "hull1055": lambda: delaunay_disk(1000, seed=1055),
}


@pytest.mark.parametrize("kind", FACE_REALIZATIONS)
def test_face_dz_and_its_readers_match_the_differences_of_positions(kind):
    """``face_dz`` row ``m`` is ``z[faces[:, m + 1]] - z[faces[:, m]]`` bit for
    bit; the doubled areas, the cotangents and the gradient read from it
    equal the formulas on gathered positions bit for bit."""
    r = FACE_REALIZATIONS[kind]()
    zi, zj, zk = r.z[r.mesh.faces.T]
    dz = r.face_dz
    assert dz.shape == (3, len(r.mesh.faces)) and dz.flags.c_contiguous and not dz.flags.writeable
    assert dz.tobytes() == np.array([zj - zi, zk - zj, zi - zk]).tobytes()
    assert r.area2.tobytes() == (np.conj(zj - zi) * (zk - zi)).imag.tobytes()
    a = r.z[r.mesh.faces]
    w = np.conj(np.roll(a, -1, axis=1) - a) * (np.roll(a, -2, axis=1) - a)
    assert r.cot.flags.c_contiguous and r.cot.tobytes() == (w.real / w.imag).tobytes()
    u = np.random.default_rng(12).standard_normal(r.mesh.vertex_count)
    ui, uj, uk = u[r.mesh.faces.T]
    grad = 1j * (ui * (zk - zj) + uj * (zi - zk) + uk * (zj - zi)) / r.area2
    assert hqd.gradient(r, u).tobytes() == grad.tobytes()


def test_anchor_outside_the_mesh_rejected(mesh):
    for root in (-1, mesh.vertex_count):
        with pytest.raises(InvalidInput):
            integrate(mesh, np.zeros(len(mesh.edge_ends)), root)
    with pytest.raises(InvalidInput):
        mesh.dual_spanning_tree(len(mesh.faces))


def test_index_arrays_match_reference(mesh):
    assert mesh.face_edges.tolist() == reference_face_edges(mesh)
    assert mesh.flap_edges.tolist() == reference_flap_edges(mesh)
    ref = reference_tables(mesh)
    flaps = [ref.flap(e) for e in mesh.interior_edges]
    assert [mesh.edge_flap(e) for e in mesh.interior_edges] == flaps
    assert mesh.flap_apices.tolist() == [[k, l] for _, _, k, l in flaps]


CYCLE_MESHES = {
    "jittered": lambda: jittered_grid(14, 0.45, seed=3).mesh,
    "delaunay": lambda: delaunay_disk(300, seed=5).mesh,
    "wheel500": lambda: build([(0, m, m % 500 + 1) for m in range(1, 501)]),
    "strip": lambda: build([f for i in range(5) for f in ((i, i + 1, 7 + i), (i, 7 + i, 6 + i))]),
}


@pytest.mark.parametrize("kind", CYCLE_MESHES)
def test_cycle_products_match_reference(kind):
    """The slot-major product against the per-row loop: a grid, a disk of
    valences 3 to 10, one row of 500 slots, and no interior vertex."""
    mesh = CYCLE_MESHES[kind]()
    rng = np.random.default_rng(13)
    shape = (len(mesh.interior_edges), 2, 2)
    G = np.eye(2) + 0.05 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    G_norm = np.abs(G).max(axis=(1, 2))
    got = moebius._cycle_products(mesh, entries(G), G_norm)
    for a, b in zip(got, reference_cycle_products(mesh, G, G_norm)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert got[0].shape == (len(mesh.interior_vertices),)


def test_per_vertex_from_edges_matches_reference(fields):
    r, *_ = fields
    value = np.random.default_rng(10).uniform(-4, 4, len(r.mesh.edge_ends))
    for mod_tau in (False, True):
        got = realization._per_vertex_from_edges(r.mesh, value, mod_tau)
        ref = reference_per_vertex_from_edges(r.mesh, value, mod_tau)
        assert got[0].tobytes() == ref[0].tobytes() and got[1] == ref[1]


def test_equivalence_checks_match_the_uncached_versions(fields, monkeypatch):
    """``check_conformal_equiv`` and ``check_pattern`` with the cached corner
    order and cross ratios against sorting and computing them on every call."""
    a, *_ = fields
    b = Realization(a.mesh, random_moebius(a, np.random.default_rng(15)).apply(a.z))
    checks = (realization.check_conformal_equiv, realization.check_pattern)
    got = [check(a, b) for check in checks]
    monkeypatch.setattr(realization, "_per_vertex_from_edges", argsort_per_vertex_from_edges)
    monkeypatch.setattr(realization, "cross_ratios", uncached_cross_ratios)
    for rep, ref in zip(got, [check(a, b) for check in checks]):
        assert rep.equivalent and ref.equivalent
        assert rep.factors.tobytes() == ref.factors.tobytes()
        assert (rep.factor_spread, rep.max_deviation) == (ref.factor_spread, ref.max_deviation)


def test_solve_dirichlet_and_deformation_match_reference(fields):
    r, boundary, u, zdot, *_ = fields
    assert u.tobytes() == reference_solve_dirichlet(r, boundary).tobytes()
    colamd = reference_solve_dirichlet(r, boundary, default_ordering=True)
    assert np.abs(u - colamd).max() <= 1e-10 * np.abs(u).max()
    assert zdot.tobytes() == reference_conformal_deformation(r, u).tobytes()


def test_edge_rates_and_flap_rates_match_reference(fields):
    r, _, _, zdot, *_ = fields
    rng = np.random.default_rng(11)
    for v in (zdot, rng.standard_normal(len(r.z)) + 1j * rng.standard_normal(len(r.z))):
        assert_close(deform.edge_rates(r, v).complex_rate, reference_edge_rates(r, v))
        assert_close(deform.cross_ratio_rate(r, v), reference_cross_ratio_rate(r, v))
        assert_close(moebius.rates_from_deformation(r, v), -0.5 * reference_cross_ratio_rate(r, v))


def test_triangle_compat_matches_reference(fields):
    r, _, _, zdot, *_ = fields
    # the rates of a vertex field close on every face; noise on every
    # seventh edge breaks the faces beside those edges
    rates = deform.edge_rates(r, zdot)
    noise = np.where(np.arange(len(rates.sigma)) % 7 == 0, 1e-3, 0.0)
    for c in (rates, deform.EdgeRates(rates.sigma + noise, rates.omega)):
        rep = deform.check_triangle_compat(r, c)
        ref = reference_triangle_compat(r, c.complex_rate)
        assert rep.ok.tolist() == ref[:, 1].real.astype(bool).tolist()
        assert rep.defect.tobytes() == ref[:, 0].tobytes()
        for k, got in enumerate(
            (rep.omega_face, rep.omega_spread, rep.sigma_face, rep.sigma_spread, rep.radius_rate_error), 2
        ):
            assert got.tobytes() == ref[:, k].real.tobytes()
    assert 0 < rep.ok.sum() < len(rep.ok)


def test_null_vector_forms_match_reference(fields):
    r, _, _, zdot, q, surface = fields
    mu = moebius.rates_from_deformation(r, zdot)
    form = moebius.sl2_form_from_rates(r, mu)
    mats, vecs = reference_null_vector_forms(r, mu, weierstrass_form=False)
    assert_close(form.matrices, mats)
    assert_close(form.vectors, vecs)
    assert_close(weierstrass.integrand(r, q), reference_null_vector_forms(r, q, weierstrass_form=True)[1])
    assert_close(surface.k, reference_curvature_factor(r, q))


def moebius_pairs(r, zdot):
    """``r`` and a copy moved along ``zdot``; a Moebius image ``phi(r)`` and a
    copy of it moved along the pushed-forward field ``phi' zdot``."""
    phi = random_moebius(r, np.random.default_rng(16))
    w = phi.apply(r.z)
    v = (phi.a * phi.d - phi.b * phi.c) / (phi.c * r.z + phi.d) ** 2 * zdot
    step = 1e-3 * np.abs(w - w.mean()).max() / np.abs(v).max()
    return [
        (r, Realization(r.mesh, r.z + 1e-3 * zdot / np.abs(zdot).max())),
        (Realization(r.mesh, w), Realization(r.mesh, w + step * v)),
    ]


def test_transitions_match_broadcast_formulation(fields):
    """The entry-array transitions against the ``(N, 2, 2)`` broadcast
    formulation they replaced: every output bit for bit."""
    r, _, _, zdot, *_ = fields
    for a, b in moebius_pairs(r, zdot):
        rep = moebius.transition_matrices(a, b)
        got = (
            rep.face_maps, rep.transitions, rep.eigenvalues, rep.max_eigen_residual,
            rep.max_cr_residual, rep.max_cycle_residual, rep.cycle.value, rep.cycle.scale,
        )
        for x, y in zip(got, broadcast_transitions(a, b), strict=True):
            x, y = np.asarray(x), np.asarray(y)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


def test_transitions_match_reference(fields):
    r, _, _, zdot, *_ = fields
    b = Realization(r.mesh, r.z + 1e-3 * zdot / np.abs(zdot).max())
    rep = moebius.transition_matrices(r, b)
    face_maps, G, lam, eig_res, cr_res = reference_transitions(r, b)
    assert_close(rep.face_maps, face_maps)
    assert_close(rep.transitions, G)
    assert_close(rep.eigenvalues, lam)
    assert_close(rep.max_eigen_residual, eig_res, scale=1.0)  # relative by construction
    assert_close(rep.max_cr_residual, cr_res, scale=1.0)


SIGN_CASES = [
    ([[2, 1], [0, 1]], False),  # real trace > 0
    ([[-2, 1], [0, -1]], True),  # real trace < 0
    ([[1 + 2j, 0], [0, -1 + 1e-13 - 1j]], False),  # real trace below 1e-12: imaginary trace > 0
    ([[1 - 2j, 0], [0, -1 + 1j]], True),  # imaginary trace < 0
    ([[1e-13, -3], [0.5, 0]], True),  # traceless: first real part above 1e-12 < 0
    ([[0, 2e-13 - 3j], [0.5, 0]], True),  # first entry decided by its imaginary part
    ([[0, 2j], [-0.5j, 0]], False),  # the same, > 0
    ([[1e-13, 0], [0, 0]], False),  # nothing above 1e-12: kept
]


def fix_signs(m):
    """``moebius._fix_signs`` of ``(N, 2, 2)`` matrices."""
    return np.stack(moebius._fix_signs(entries(m)), axis=1).reshape(-1, 2, 2)


@pytest.mark.parametrize("m, flip", SIGN_CASES)
def test_sign_tie_breaks_match_reference(m, flip):
    m = np.array(m, dtype=complex)
    got = fix_signs(m[None])[0]
    assert got.tobytes() == reference_fix_sign(m).tobytes()
    assert got.tobytes() == (-m if flip else m).tobytes()


def test_sign_tie_breaks_in_a_batch():
    """Every tie-break case, twice and negated, shuffled among matrices that
    their real trace decides: the tie-breaks run on a subset of the rows."""
    rng = np.random.default_rng(17)
    ties = np.array([m for m, _ in SIGN_CASES], dtype=complex)
    decided = rng.standard_normal((40, 2, 2)) + 1j * rng.standard_normal((40, 2, 2))
    batch = np.concatenate([ties, -ties, ties, decided])[rng.permutation(3 * len(ties) + 40)]
    got = fix_signs(batch)
    real_trace = np.trace(batch, axis1=1, axis2=2).real
    assert (np.abs(real_trace) <= 1e-12).sum() == 18  # six tie-break cases, three times each
    assert (real_trace < -1e-12).any() and (real_trace > 1e-12).any()
    for g, m in zip(got, batch, strict=True):
        assert g.tobytes() == reference_fix_sign(m).tobytes()


def test_verify_minimal_and_qdiff_from_minimal_match_reference(fields):
    r, _, _, _, _, surface = fields
    n = weierstrass.gauss_map(r)
    rng = np.random.default_rng(12)
    for f in (surface.f, surface.f + 1e-3 * rng.standard_normal(surface.f.shape)):
        rep = weierstrass.verify_minimal(r.mesh, n, f, tol=np.inf)
        ref = reference_verify_minimal(r.mesh, n, f)
        # |dn x df| <= |dn| max|df|: the residual is at most 1
        assert_close(rep.residual, ref[:, 0], scale=1.0)
        assert_close(rep.k, ref[:, 1])
        assert_close(rep.orthogonal_part, ref[:, 2], scale=np.linalg.norm(f, axis=1).max())
        assert rep.max_residual == rep.residual.max()
        q = weierstrass.qdiff_from_minimal(r, f, tol=np.inf)
        assert_close(q.imag, reference_qdiff_from_minimal(r, rep.k))
