import dataclasses

import numpy as np
import pytest

from ddgconf import Realization, build
from ddgconf import deform, fileio, hqd, laplace, realization
from ddgconf.errors import ClosureDefect, NotHarmonic

from conftest import delaunay_disk, jittered_grid, random_harmonic, random_moebius


def wheel6_root_q(scale=1.0):
    """Frozen holomorphic q on the unit wheel: imag part cos(2 pi m / 3) on
    spoke (0, m+1).  Both vertex sums vanish by root-of-unity cancellation."""
    return hqd.QuadDiff(scale * np.cos(2.0 * np.pi * np.arange(6) * 2.0 / 6.0))


def test_gradient_pairing():
    r = delaunay_disk(90, seed=21)
    rng = np.random.default_rng(22)
    u = rng.standard_normal(r.mesh.vertex_count)
    grad = hqd.gradient(r, u)
    for f, (i, j, k) in enumerate(r.mesh.faces):
        for a, b in ((i, j), (j, k), (k, i)):
            pairing = (np.conj(grad[f]) * (r.z[b] - r.z[a])).real
            assert pairing == pytest.approx(u[b] - u[a], abs=1e-10)


def test_gradient_of_linear_is_constant(wheel6_irregular):
    r = wheel6_irregular
    u = 3.0 * r.z.real - 2.0 * r.z.imag
    grad = hqd.gradient(r, u)
    assert np.abs(grad - (3.0 - 2.0j)).max() < 1e-12


def test_q_purely_imaginary_for_any_u():
    r = delaunay_disk(120, seed=23)
    rng = np.random.default_rng(24)
    u = rng.standard_normal(r.mesh.vertex_count)
    i, j, _, _ = r.flap_points()
    dz = r.z[j] - r.z[i]
    raw = hqd._duz(r, u) * dz
    assert np.abs(raw.real).max() < 1e-11 * max(np.abs(raw).max(), 1e-300)


def test_q_matches_cotan_formula():
    r = delaunay_disk(100, seed=25)
    rng = np.random.default_rng(26)
    u = rng.standard_normal(r.mesh.vertex_count)
    q = hqd.qdiff_from_function(r, u).values
    qc = hqd.qdiff_cotan(r, u)
    assert np.abs(q - qc).max() < 1e-11 * max(np.abs(q).max(), 1e-300)


def test_harmonic_q_is_holomorphic():
    r = delaunay_disk(200, seed=27)
    u = random_harmonic(r, seed=28)
    q = hqd.qdiff_from_harmonic(r, u)
    rep = hqd.verify_qdiff(r, q, tol=1e-10)
    assert rep.holomorphic


def test_nonharmonic_first_sum_defect(wheel6_irregular):
    """For arbitrary u the weighted sum q/dz still vanishes on a disk; the
    plain vertex sum defect is exactly (i/2) sum_j w_ij (u_i - u_j), which is
    minus (i/2) times our laplacian helper (it sums w_ij (u_j - u_i))."""
    r = wheel6_irregular
    rng = np.random.default_rng(29)
    u = rng.standard_normal(7)
    q = hqd.qdiff_from_function(r, u)
    rep = hqd.verify_qdiff(r, q, tol=1e-10)
    lap = laplace.laplacian(r, u)
    for pos, v in enumerate(r.mesh.interior_vertices):
        assert rep.vertex_sum[v] == pytest.approx(-0.5j * lap[pos], abs=1e-12)
        assert abs(rep.weighted_sum[v]) < 1e-12
    assert not rep.holomorphic
    with pytest.raises(NotHarmonic):
        hqd.qdiff_from_harmonic(r, u)


def test_wheel6_root_of_unity_q(wheel6):
    rep = hqd.verify_qdiff(wheel6, wheel6_root_q(0.8), tol=1e-12)
    assert rep.holomorphic


def test_roundtrip(wheel6_irregular):
    r = wheel6_irregular
    u = random_harmonic(r, seed=31)
    q = hqd.qdiff_from_harmonic(r, u)
    u2 = hqd.harmonic_from_qdiff(r, q)
    q2 = hqd.qdiff_from_harmonic(r, u2)
    scale = np.abs(q.values).max()
    assert np.abs(q.values - q2.values).max() < 1e-9 * scale
    # u is recovered up to the kernel span{1, Re z, Im z}
    d = hqd.project_out_linear(r, u - u2)
    assert np.abs(d).max() < 1e-9 * max(np.abs(u).max(), 1e-300)


def test_roundtrip_random_disk():
    r = delaunay_disk(250, seed=32)
    u = random_harmonic(r, seed=33)
    q = hqd.qdiff_from_harmonic(r, u)
    u2 = hqd.harmonic_from_qdiff(r, q)
    q2 = hqd.qdiff_from_harmonic(r, u2)
    assert np.abs(q.values - q2.values).max() < 1e-9 * np.abs(q.values).max()


def test_kernel_dimension(wheel6_irregular):
    """The linear map u -> q kills exactly span{1, Re z, Im z}."""
    r = wheel6_irregular
    n = r.mesh.vertex_count
    m = len(r.mesh.interior_edges)
    A = np.zeros((m, n))
    for col in range(n):
        u = np.zeros(n)
        u[col] = 1.0
        A[:, col] = hqd.qdiff_from_function(r, u).imag
    sv = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(sv >= 1e-10 * sv[0]))
    assert n - rank == 3
    for u in (np.ones(n), r.z.real, r.z.imag):
        assert np.abs(hqd.qdiff_from_function(r, u).imag).max() < 1e-12


def test_unclosed_q_rejected(wheel6):
    bad = wheel6_root_q()
    bad.imag[0] += 0.3
    with pytest.raises(ClosureDefect):
        hqd.harmonic_from_qdiff(wheel6, bad)


def test_moebius_pushforward():
    r = delaunay_disk(150, seed=35)
    u = random_harmonic(r, seed=36)
    q = hqd.qdiff_from_harmonic(r, u)
    rng = np.random.default_rng(37)
    for _ in range(10):
        phi = random_moebius(r, rng)
        rep = hqd.qdiff_moebius_pushforward_check(r, q, phi, tol=1e-9)
        assert rep.holomorphic


def test_cross_ratio_rate(wheel6_irregular):
    r = wheel6_irregular
    u = random_harmonic(r, seed=38)
    zdot = deform.conformal_deformation(r, u)
    rep = hqd.cross_ratio_rate_check(r, u, zdot)
    assert rep.ok
    assert rep.max_fd_error < 1e-5
    assert rep.max_analytic_error < 1e-10
    assert rep.max_angle_error < 1e-5


def test_cross_ratio_rate_check_builds_each_perturbation_once(wheel6_irregular, monkeypatch):
    """``r.z + t zdot`` and ``r.z - t zdot`` are built once each, and the
    report is the one computed from a fresh realization at every use."""
    r = wheel6_irregular
    u = random_harmonic(r, seed=38)
    zdot = deform.conformal_deformation(r, u)
    built = []
    monkeypatch.setattr(hqd, "Realization", lambda mesh, z: built.append(z) or Realization(mesh, z))
    rep = hqd.cross_ratio_rate_check(r, u, zdot)
    assert len(built) == 2
    for name in ("cross_ratios", "intersection_angles"):
        fresh = getattr(realization, name)
        monkeypatch.setattr(hqd, name, lambda s, fresh=fresh: fresh(Realization(s.mesh, s.z)))
    assert hqd.cross_ratio_rate_check(r, u, zdot) == rep


def test_cross_ratio_rate_random_disk():
    r = delaunay_disk(80, seed=39)
    u = random_harmonic(r, seed=40)
    zdot = deform.conformal_deformation(r, u)
    rep = hqd.cross_ratio_rate_check(r, u, zdot)
    assert rep.ok


@pytest.mark.parametrize("kind", ["delaunay", "jittered"])
def test_relabelling_permutes_harmonic_and_qdiff(kind):
    r = delaunay_disk(300, seed=5) if kind == "delaunay" else jittered_grid(14, 0.45, seed=3)
    rng = np.random.default_rng(14)
    new = rng.permutation(r.mesh.vertex_count)  # vertex v becomes new[v]
    z = np.empty_like(r.z)
    z[new] = r.z
    s = Realization(build(new[r.mesh.faces].tolist()), z)
    boundary = {v: rng.standard_normal() for v in r.mesh.boundary_vertices}
    u = laplace.solve_dirichlet(r, boundary)
    u2 = laplace.solve_dirichlet(s, {int(new[v]): x for v, x in boundary.items()})
    assert np.abs(u2[new] - u).max() <= 1e-12 * np.abs(u).max()

    q = hqd.qdiff_from_harmonic(r, u).values
    q2 = hqd.qdiff_from_harmonic(s, u2).values
    pos = {tuple(s.mesh.edge_ends[e].tolist()): p for p, e in enumerate(s.mesh.interior_edges)}
    moved = [pos[tuple(sorted(pair))] for pair in new[r.mesh.interior_ends].tolist()]
    assert np.abs(q2[moved] - q).max() <= 1e-12 * np.abs(q).max()


def similar_and_reversed(r):
    """``(label, realization)``: ``s (z + c)`` for scales from 1e-6 to 1e6,
    rotated or not, with the translation proportional to ``s``, and the
    mirror image (faces reversed, ``z`` conjugated) on the same edges."""
    c = 0.3 - 0.7j
    for s in (1e-6, 1e6, 1e-6 * np.exp(1j), 1e6 * np.exp(2j)):
        yield f"s={s:.3g}", Realization(r.mesh, s * (r.z + c))
    yield "reversed", Realization(build(r.mesh.faces[:, ::-1].tolist()), np.conj(r.z))


@pytest.mark.parametrize("kind", ["delaunay", "jittered"])
def test_similarity_and_reversal_leave_harmonic_and_qdiff(kind):
    """The Dirichlet solve and ``q`` do not see the coordinates' scale,
    rotation, translation or orientation: the tolerances are relative."""
    r = delaunay_disk(300, seed=5) if kind == "delaunay" else jittered_grid(14, 0.45, seed=3)
    rng = np.random.default_rng(4)
    boundary = {v: rng.standard_normal() for v in r.mesh.boundary_vertices}
    u = laplace.solve_dirichlet(r, boundary)
    q = hqd.qdiff_from_harmonic(r, u).values
    for label, s in similar_and_reversed(r):
        assert np.array_equal(s.mesh.edge_ends, r.mesh.edge_ends), label
        u2 = laplace.solve_dirichlet(s, boundary)
        assert np.abs(u2 - u).max() <= 1e-12 * np.abs(u).max(), label
        q2 = hqd.qdiff_from_harmonic(s, u2).values
        assert np.abs(q2 - q).max() <= 1e-12 * np.abs(q).max(), label
        assert hqd.verify_qdiff(s, q2).holomorphic, label


@pytest.mark.parametrize("seed", [92, 93, 94])
def test_moebius_image_with_a_fresh_solve_is_harmonic_and_holomorphic(seed):
    """A Moebius image of a Delaunay disk is another realization of the same
    mesh: a Dirichlet solve on it meets the residual contract and its ``q``
    verifies as holomorphic."""
    r = delaunay_disk(400, seed=91)
    s = Realization(r.mesh, random_moebius(r, np.random.default_rng(seed)).apply(r.z))
    rng = np.random.default_rng(95)
    boundary = {v: rng.standard_normal() for v in s.mesh.boundary_vertices}
    h = laplace.solve_dirichlet(s, boundary)
    assert np.abs(laplace.laplacian(s, h)).max() <= 1e-10 * np.abs(h).max()
    assert hqd.verify_qdiff(s, hqd.qdiff_from_harmonic(s, h)).holomorphic


def test_report_sums_are_a_read_only_view_of_the_dict():
    """``QDiffReport.vertex_sum`` and ``weighted_sum`` read as ``dict(zip(
    interior_vertices, sums))``: the same keys in the same order and the same
    bits, a ``KeyError`` for any other vertex, and the same JSON."""
    r = delaunay_disk(120, seed=3)
    u = np.random.default_rng(4).standard_normal(r.mesh.vertex_count)
    q = hqd.qdiff_from_function(r, u)  # not harmonic: the sums do not vanish
    rep = hqd.verify_qdiff(r, q)
    v = r.mesh.interior_vertices
    sums = r.mesh.cycle_sum(q.values), r.mesh.cycle_sum(q.values / r.interior_dz, signed=True)
    expected = [dict(zip(v, s)) for s in sums]
    for view, want in zip((rep.vertex_sum, rep.weighted_sum), expected, strict=True):
        assert list(view) == list(want) and len(view) == len(want) and view == want
        assert [view[k].tobytes() for k in v] == [want[k].tobytes() for k in v]
        assert [type(k) for k in view] == [type(k) for k in want]
        for missing in (*r.mesh.boundary_vertices[:3].tolist(), -1, r.mesh.vertex_count):
            assert missing not in view
            with pytest.raises(KeyError):
                view[missing]
        with pytest.raises(TypeError):
            view[v[0]] = 0.0
    copied = dataclasses.replace(rep, vertex_sum=dict(rep.vertex_sum))
    assert copied.vertex_sum == expected[0] and copied.weighted_sum is rep.weighted_sum

    def report(a, b):
        return fileio.dump_json({"max_defect": rep.max_defect, "vertex_sum": a, "weighted_sum": b})

    assert report(rep.vertex_sum, rep.weighted_sum) == report(*expected)
    empty = hqd.VertexSums([], np.zeros(0, dtype=complex))
    assert report(empty, empty) == report({}, {})
