import numpy as np
import pytest
from scipy.linalg import subspace_angles

from ddgconf import Realization
from ddgconf import deform, laplace
from ddgconf.errors import IncompatibleRates, NotHarmonic

from conftest import delaunay_disk, jittered_grid, random_harmonic


def test_edge_rates_identity(wheel6_irregular):
    r = wheel6_irregular
    zdot = 0.5 * r.z  # uniform scaling flow
    rates = deform.edge_rates(r, zdot)
    assert np.abs(rates.sigma - 0.5).max() < 1e-14
    assert np.abs(rates.omega).max() < 1e-14


def test_rotation_flow_rates(wheel6_irregular):
    r = wheel6_irregular
    rates = deform.edge_rates(r, 1j * r.z)
    assert np.abs(rates.sigma).max() < 1e-14
    assert np.abs(rates.omega - 1.0).max() < 1e-14


def test_genuine_deformation_compatible(wheel6_irregular):
    r = wheel6_irregular
    rep = deform.check_triangle_compat(r, deform.edge_rates(r, r.z**3))
    assert rep.ok.all()
    assert np.nanmax(rep.omega_spread) < 1e-12
    assert np.nanmax(rep.sigma_spread) < 1e-12


def test_face_scaling_matches_circumradius_rate():
    r = delaunay_disk(60, seed=12)
    rng = np.random.default_rng(13)
    zdot = rng.standard_normal(r.mesh.vertex_count) + 1j * rng.standard_normal(
        r.mesh.vertex_count
    )
    rep = deform.check_triangle_compat(r, deform.edge_rates(r, zdot))
    assert rep.ok.all()
    assert np.nanmax(rep.radius_rate_error) < 1e-5


def test_radius_rate_is_exact_on_a_sliver():
    """The circumradius rate is differentiated, not differenced, so a sliver
    (face 9 here, area2 / L^2 about 5e-4) costs it no accuracy: a central
    difference was off by 1.4e-4 on this setup."""
    r = delaunay_disk(60, seed=26)
    rng = np.random.default_rng(27)
    zdot = rng.standard_normal(r.mesh.vertex_count) + 1j * rng.standard_normal(r.mesh.vertex_count)
    rep = deform.check_triangle_compat(r, deform.edge_rates(r, zdot))
    assert rep.ok.all()
    assert np.nanmax(rep.radius_rate_error) < 1e-12


def test_incompatible_rates_rejected(wheel6_irregular):
    r = wheel6_irregular
    rates = deform.edge_rates(r, r.z**2)
    rates.omega[0] += 0.1
    rep = deform.check_triangle_compat(r, rates)
    assert not rep.ok.all()
    with pytest.raises(IncompatibleRates):
        rep.closure.require(1e-10, IncompatibleRates, "face {face}")


def test_conformal_deformation_scale_rates():
    for seed in range(3):
        r = delaunay_disk(100 + 30 * seed, seed=20 + seed)
        u = random_harmonic(r, seed=30 + seed)
        zdot = deform.conformal_deformation(r, u)
        rates = deform.edge_rates(r, zdot)
        for e, (i, j) in enumerate(r.mesh.edge_ends.tolist()):
            assert rates.sigma[e] == pytest.approx((u[i] + u[j]) / 2.0, abs=1e-10)


def test_conformal_deformation_face_closure(wheel6_irregular):
    r = wheel6_irregular
    u = random_harmonic(r, seed=2)
    zdot = deform.conformal_deformation(r, u)
    rep = deform.check_triangle_compat(r, deform.edge_rates(r, zdot))
    assert rep.ok.all()


def test_pattern_deformation_is_rotated_conformal(wheel6_irregular):
    r = wheel6_irregular
    alpha = random_harmonic(r, seed=5)
    zdot = deform.pattern_deformation(r, alpha)
    rates = deform.edge_rates(r, zdot)
    for e, (i, j) in enumerate(r.mesh.edge_ends.tolist()):
        assert rates.omega[e] == pytest.approx((alpha[i] + alpha[j]) / 2.0, abs=1e-10)


def test_square_example(square2):
    """Scale factors u = Re(2z) generate the flow z -> z^2 up to gauge."""
    r = square2
    u = 2.0 * r.z.real
    # no interior vertices, so u is trivially harmonic
    assert laplace.laplacian(r, u).size == 0
    zdot = deform.conformal_deformation(r, u)
    diff_rates = deform.edge_rates(r, zdot - r.z**2)
    # gauge freedom: a rigid motion rate, sigma = 0 and omega constant
    assert np.abs(diff_rates.sigma).max() < 1e-12
    assert diff_rates.omega.max() - diff_rates.omega.min() < 1e-12


def test_gauge_freedom():
    r = delaunay_disk(70, seed=33)
    u = random_harmonic(r, seed=34)
    za = deform.conformal_deformation(r, u, anchor_vertex=0, anchor_face=0)
    zb = deform.conformal_deformation(r, u, anchor_vertex=1, anchor_face=2)
    rates = deform.edge_rates(r, za - zb)
    assert np.abs(rates.sigma).max() < 1e-9
    assert rates.omega.max() - rates.omega.min() < 1e-9


def test_nonharmonic_rejected(wheel6):
    u = np.zeros(7)
    u[0] = 1.0
    with pytest.raises(NotHarmonic):
        deform.conformal_deformation(wheel6, u)


@pytest.mark.parametrize(
    "disk", [(delaunay_disk, 60, 3), (delaunay_disk, 150, 4), (jittered_grid, 8, 0.3, 5)]
)
def test_holomorphic_fields_come_from_harmonic_functions(disk):
    """The paper's first theorem: the vertex fields that keep every length
    cross ratio to first order (the null space of ``Y -> Re d/dt log cr``
    over R^{2V}) are the conformal deformations of the harmonic functions,
    one per boundary value, and the Euclidean motions ``1``, ``i``, ``i z``."""
    make, *args = disk
    r = make(*args)
    nv = r.mesh.vertex_count
    unit = np.eye(nv)
    rate = np.stack([deform.cross_ratio_rate(r, unit[v]) for v in range(nv)], axis=1)
    a = np.hstack([rate.real, -rate.imag])  # Y = x + i y as (x, y)
    _, sv, vt = np.linalg.svd(a)
    null = vt[int(np.sum(sv > 1e-10 * sv[0])):].T
    fields = [
        deform.conformal_deformation(r, laplace.solve_dirichlet(r, dict(enumerate(unit[b]))))
        for b in r.mesh.boundary_vertices
    ] + [np.ones(nv), 1j * np.ones(nv), 1j * r.z]
    span = np.array([np.r_[f.real, f.imag] for f in fields]).T
    assert null.shape[1] == len(r.mesh.boundary_vertices) + 3
    assert np.linalg.matrix_rank(span) == null.shape[1]
    assert subspace_angles(null, span).max() < 1e-8


@pytest.mark.parametrize("s", [1e-6, 1.0, 1e4, 1e6])
def test_radius_rate_stays_finite_under_scaling(s):
    """The circumradius rate is differentiated, not stepped, so it holds at
    any size of the rates: under the scaling ``s z`` every closing face has a
    finite radius-rate error within acceptance criterion 4's 1e-5 (a fixed
    finite-difference step once collapsed the faces at 1e6 and drowned in
    rounding at 1e-6)."""
    r = delaunay_disk(300, seed=5)
    rep = deform.check_triangle_compat(r, deform.edge_rates(r, s * r.z))
    assert rep.ok.any()
    err = rep.radius_rate_error[rep.ok]
    assert np.isfinite(err).all() and err.max() <= 1e-5
