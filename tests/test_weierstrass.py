import numpy as np
import pytest

from ddgconf import Realization
from ddgconf import hqd, weierstrass
from ddgconf.errors import MeshMismatch, NotHolomorphic, NotMinimal, VertexAtInfinity

import theorems
from conftest import delaunay_disk, random_harmonic


def wheel6_root_q(scale=1.0):
    return hqd.QuadDiff(scale * np.cos(2.0 * np.pi * np.arange(6) * 2.0 / 6.0))


def test_gauss_map_frozen_points(square2):
    n = weierstrass.gauss_map(square2)
    assert np.abs(n[0] - np.array([0.0, 0.0, -1.0])).max() < 1e-15
    assert np.abs(n[1] - np.array([1.0, 0.0, 0.0])).max() < 1e-15
    assert np.abs(n[2] - np.array([2.0, 2.0, 1.0]) / 3.0).max() < 1e-15
    assert np.abs(np.linalg.norm(n, axis=1) - 1.0).max() < 1e-14


def test_stereographic_roundtrip():
    r = delaunay_disk(150, seed=61)
    n = weierstrass.gauss_map(r)
    back = theorems.stereographic_to_plane(n)
    assert np.abs(back - r.z).max() < 1e-12


def test_north_pole_has_no_plane_point():
    n = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(VertexAtInfinity, match="^Gauss map touches the north pole$"):
        theorems.stereographic_to_plane(n)


def test_zero_q_gives_constant_surface(wheel6):
    surf = weierstrass.weierstrass_integrate(wheel6, hqd.QuadDiff(np.zeros(6)))
    assert np.abs(surf.f - surf.f[0]).max() == 0.0
    assert surf.closure_defect == 0.0


def test_wheel6_minimal_pipeline(wheel6):
    q = wheel6_root_q(0.8)
    surf = weierstrass.weierstrass_integrate(wheel6, q)
    assert surf.closure_defect < 1e-12
    n = weierstrass.gauss_map(wheel6)
    rep = weierstrass.verify_minimal(wheel6.mesh, n, surf.f, tol=1e-10)
    assert rep.minimal
    assert rep.max_residual < 1e-10
    assert np.abs(theorems.orthogonal_part(wheel6.mesh, n, surf.f)).max() < 1e-12


def test_minimal_pipeline_random_disk():
    r = delaunay_disk(200, seed=62)
    u = random_harmonic(r, seed=63)
    q = hqd.qdiff_from_harmonic(r, u)
    surf = weierstrass.weierstrass_integrate(r, q)
    n = weierstrass.gauss_map(r)
    rep = weierstrass.verify_minimal(r.mesh, n, surf.f, tol=1e-9)
    assert rep.minimal


def test_verify_minimal_detects_perturbation(wheel6):
    surf = weierstrass.weierstrass_integrate(wheel6, wheel6_root_q())
    n = weierstrass.gauss_map(wheel6)
    f = surf.f.copy()
    f[0] += np.array([1e-3, 0.0, 0.0])
    rep = weierstrass.verify_minimal(wheel6.mesh, n, f, tol=1e-9)
    assert not rep.minimal
    with pytest.raises(NotMinimal):
        weierstrass.qdiff_from_minimal(wheel6, f)


def test_verify_minimal_shape_checks(wheel6):
    n = weierstrass.gauss_map(wheel6)
    with pytest.raises(MeshMismatch):
        weierstrass.verify_minimal(wheel6.mesh, n[:3], np.zeros((6, 3)))
    with pytest.raises(MeshMismatch):
        weierstrass.verify_minimal(wheel6.mesh, n, np.zeros((2, 3)))


def test_qdiff_roundtrip_and_linearity(wheel6):
    q = wheel6_root_q(0.7)
    surf = weierstrass.weierstrass_integrate(wheel6, q)
    q2 = weierstrass.qdiff_from_minimal(wheel6, surf.f)
    assert np.abs(q2.imag - q.imag).max() < 1e-12
    # the whole construction is linear in q
    surf2 = weierstrass.weierstrass_integrate(wheel6, hqd.QuadDiff(2.0 * q.imag))
    assert np.abs(surf2.f - 2.0 * surf.f).max() < 1e-13
    q4 = weierstrass.qdiff_from_minimal(wheel6, surf2.f)
    assert np.abs(q4.imag - 2.0 * q.imag).max() < 1e-12


def test_curvature_factor(wheel6):
    q = wheel6_root_q(0.9)
    surf = weierstrass.weierstrass_integrate(wheel6, q)
    for idx, e in enumerate(wheel6.mesh.interior_edges):
        i, j = wheel6.mesh.edge_ends[e].tolist()
        expect = (-1j * 1j * q.imag[idx] / abs(wheel6.z[j] - wheel6.z[i]) ** 2).real
        assert surf.k[idx] == pytest.approx(expect, abs=1e-14)


def test_integrand_closed_for_holomorphic_q():
    r = delaunay_disk(100, seed=64)
    u = random_harmonic(r, seed=65)
    q = hqd.qdiff_from_harmonic(r, u)
    eta = weierstrass.integrand(r, q)
    pos = {e: idx for idx, e in enumerate(r.mesh.interior_edges)}
    scale = np.abs(eta).max()
    for v, cycle in r.mesh.dual_cycles().items():
        s = np.zeros(3, dtype=complex)
        for de in cycle:
            sign = 1.0 if de.tail < de.head else -1.0
            s += sign * eta[pos[de.edge]]
        assert np.abs(s).max() < 1e-11 * scale


def test_nonholomorphic_rejected(wheel6):
    bad = wheel6_root_q()
    bad.imag[0] += 0.3
    with pytest.raises(NotHolomorphic):
        weierstrass.weierstrass_integrate(wheel6, bad)


def test_associate_family_phase(wheel6):
    q = wheel6_root_q(0.5)
    base = weierstrass.weierstrass_integrate(wheel6, q)
    alpha = 0.75
    rotated = base.at_phase(alpha)
    expect = (np.exp(1j * alpha) * base.potential).real
    assert np.abs(rotated.f - expect).max() < 1e-12
    assert base.f.tobytes() == base.at_phase(0.0).f.tobytes()
    assert "alpha" not in vars(base)


def test_associate_family_bitwise_periodic(wheel6):
    """Dyadic phases survive adding a full period exactly, bit for bit."""
    base = weierstrass.weierstrass_integrate(wheel6, wheel6_root_q())
    alpha = 0.75
    a = base.at_phase(alpha)
    b = base.at_phase(alpha + 2.0 * np.pi)
    assert np.array_equal(a.f, b.f)


def test_conjugate_surface_recorded(wheel6):
    base = weierstrass.weierstrass_integrate(wheel6, wheel6_root_q())
    conj = base.at_phase(np.pi / 2)
    n = weierstrass.gauss_map(wheel6)
    rep = weierstrass.verify_minimal(wheel6.mesh, n, conj.f, tol=np.inf)
    # record the conjugate-surface residual without asserting a bound
    assert np.isfinite(rep.max_residual)


def test_dual_mesh_structure(wheel6):
    surf = weierstrass.weierstrass_integrate(wheel6, wheel6_root_q())
    pts, ids, sizes = weierstrass.dual_mesh(wheel6, surf.f)
    assert pts.shape == (6, 3)
    assert len(sizes) == 1
    assert sorted(ids[: sizes[0]].tolist()) == [0, 1, 2, 3, 4, 5]
