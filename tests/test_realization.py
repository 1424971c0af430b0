import numpy as np
import pytest

from ddgconf import Realization, build, moebius
from ddgconf.errors import DegenerateFace, MeshMismatch
from ddgconf.realization import (
    check_conformal_equiv,
    check_pattern,
    cross_ratios,
    intersection_angles,
)

from conftest import SQUARE2_FACES, WHEEL6_FACES, cot_at, delaunay_disk, random_moebius


def test_square2_cross_ratio(square2):
    cr = cross_ratios(square2)
    assert cr.shape == (1,)
    assert cr[0] == pytest.approx(-1.0)
    phi = intersection_angles(square2)
    assert phi[0] == pytest.approx(np.pi)


def test_wheel6_cross_ratio(wheel6):
    # frozen from a direct evaluation of the four-point formula
    cr = cross_ratios(wheel6)
    ends = wheel6.mesh.edge_ends[wheel6.mesh.interior_edges].tolist()
    eidx = {tuple(e): m for m, e in enumerate(ends)}
    val = cr[eidx[(0, 1)]]
    assert val == pytest.approx(np.exp(2j * np.pi / 3), abs=1e-14)
    phi = intersection_angles(wheel6)
    assert phi[eidx[(0, 1)]] == pytest.approx(2 * np.pi / 3)


def test_cross_ratio_symmetry(wheel6_irregular):
    """cr is independent of which endpoint is listed first: swapping i and j
    swaps both the flap apexes and the edge direction, leaving the value."""
    r = wheel6_irregular
    z = r.z
    for e in r.mesh.interior_edges:
        i, j, k, l = r.mesh.edge_flap(e)
        cr_ij = (z[j] - z[k]) * (z[i] - z[l]) / ((z[k] - z[i]) * (z[l] - z[j]))
        cr_ji = (z[i] - z[l]) * (z[j] - z[k]) / ((z[l] - z[j]) * (z[k] - z[i]))
        assert cr_ij == pytest.approx(cr_ji)


def test_cross_ratio_affine_invariance(wheel6_irregular):
    r = wheel6_irregular
    cr = cross_ratios(r)
    cr2 = cross_ratios(Realization(r.mesh, 2.0 * r.z + 5.0))
    assert np.abs(cr2 - cr).max() < 1e-12 * np.abs(cr).max()


def test_cross_ratio_moebius_invariance():
    r = delaunay_disk(150, seed=5)
    cr = cross_ratios(r)
    rng = np.random.default_rng(1)
    for _ in range(10):
        phi = random_moebius(r, rng)
        cr2 = cross_ratios(Realization(r.mesh, phi.apply(r.z)))
        assert np.abs((cr2 - cr) / cr).max() < 1e-9


def test_cross_ratios_are_computed_once_and_read_only(wheel6_irregular):
    r = wheel6_irregular
    cr = cross_ratios(r)
    assert cross_ratios(r) is cr and not cr.flags.writeable
    with pytest.raises(ValueError):
        cr[0] = 1.0
    with pytest.raises(ValueError):
        cr *= 2.0


def test_vanishing_cross_ratio_factor_raises_on_every_call():
    """A 1e-162 by 1e-155 rectangle passes the collinearity test, but the
    product ``(z_2 - z_3)(z_0 - z_1) = -1e-324`` across its diagonal is 0."""
    r = Realization(build(SQUARE2_FACES), np.array([0, 1e-162, 1e-162 + 1e-155j, 1e-155j]))
    for _ in range(2):
        with pytest.raises(DegenerateFace) as info:
            cross_ratios(r)
        assert str(info.value) == "coincident vertices at interior edge (0, 2)"


@pytest.mark.parametrize("check", [check_conformal_equiv, check_pattern])
def test_non_finite_cross_ratios_fail_equivalence(check):
    """A 10**-161.8 square passes the collinearity test, but its cross
    ratio's factors are subnormal and ``num / den`` is ``-inf+nanj``.  The
    NaN deviation fails the verdict against the same square at scale 2,
    which ``max_dev > tol`` let pass."""
    square = 10**-161.8 * np.array([0, 1, 1 + 1j, 1j])
    a, b = (Realization(build(SQUARE2_FACES), s * square) for s in (1, 2))
    with np.errstate(all="ignore"):
        rep = check(a, b)
    assert not rep.equivalent and np.isnan(rep.max_deviation)
    assert rep.factors is None


def test_equivalence_deviation_is_unchanged(wheel6_irregular):
    """Through ``Defect`` the largest deviation is bitwise the old maximum."""
    r = wheel6_irregular
    w = Realization(r.mesh, random_moebius(r, np.random.default_rng(5)).apply(r.z) + 1e-6)
    cra, crb = cross_ratios(r), cross_ratios(w)
    conformal = float(np.max(np.abs(np.abs(cra) - np.abs(crb)) / np.abs(cra)))
    pattern = float(np.max(np.abs(np.angle(cra / crb))))
    assert check_conformal_equiv(r, w, np.inf).max_deviation == conformal > 0
    assert check_pattern(r, w, np.inf).max_deviation == pattern > 0


def test_collinear_face_rejected():
    mesh = build(SQUARE2_FACES)
    z = np.array([0, 1, 2, 1j], dtype=complex)  # face (0,1,2) collinear
    with pytest.raises(DegenerateFace) as info:
        Realization(mesh, z)
    assert str(info.value) == "face 0 (0, 1, 2) is (nearly) collinear"


def test_coincident_endpoints_rejected(wheel6):
    """A zero side makes the doubled area exactly 0, so no ``Realization``
    holds coincident endpoints and no later layer has to look for them."""
    mesh = wheel6.mesh
    for i, j in mesh.edge_ends.tolist():
        z = wheel6.z.copy()
        z[j] = z[i]
        with pytest.raises(DegenerateFace) as info:
            Realization(mesh, z)
        f = info.value.details["face"]
        assert {i, j} <= set(mesh.faces[f].tolist())
        assert f == min(f for f, face in enumerate(mesh.faces.tolist()) if {i, j} <= set(face))


def test_shape_mismatch():
    mesh = build(SQUARE2_FACES)
    with pytest.raises(MeshMismatch):
        Realization(mesh, np.zeros(3, dtype=complex))


def test_corner_cots(square2):
    # right isoceles corners: 90 degrees at the right-angle corner, 45 elsewhere
    assert cot_at(square2, 0, 1) == pytest.approx(0.0, abs=1e-15)
    assert cot_at(square2, 0, 0) == pytest.approx(1.0)
    assert cot_at(square2, 0, 2) == pytest.approx(1.0)


def test_negative_orientation_flips_signs():
    mesh = build([(0, 2, 1), (0, 3, 2)])  # square2 with reversed faces
    z = np.array([0, 1, 1 + 1j, 1j], dtype=complex)
    r = Realization(mesh, z)
    assert r.area2[0] == pytest.approx(-1.0)
    assert cot_at(r, 0, 0) == pytest.approx(-1.0)


def test_conformal_equiv_scaling(wheel6_irregular):
    r = wheel6_irregular
    w = Realization(r.mesh, 3.0 * np.exp(0.4j) * r.z + (1 - 2j))
    rep = check_conformal_equiv(r, w)
    assert rep.equivalent
    # uniform scaling: reconstructed log factor is log 3 at every vertex
    assert np.abs(rep.factors - np.log(3.0)).max() < 1e-12
    assert rep.factor_spread < 1e-12


def test_conformal_equiv_rejects(square2):
    mesh = square2.mesh
    w = Realization(mesh, np.array([0, 1, 1 + 2j, 1j], dtype=complex))
    rep = check_conformal_equiv(square2, w)
    assert not rep.equivalent
    assert rep.factors is None


def test_conformal_equiv_moebius(wheel6_irregular):
    rng = np.random.default_rng(2)
    phi = random_moebius(wheel6_irregular, rng)
    w = Realization(wheel6_irregular.mesh, phi.apply(wheel6_irregular.z))
    assert check_conformal_equiv(wheel6_irregular, w).equivalent


def test_pattern_rotation(wheel6_irregular):
    r = wheel6_irregular
    theta = 1.4
    w = Realization(r.mesh, np.exp(1j * theta) * r.z + 0.3j)
    rep = check_pattern(r, w)
    assert rep.equivalent
    assert np.abs(rep.factors - theta).max() < 1e-12
    assert rep.factor_spread < 1e-12


def test_pattern_alpha_range(wheel6_irregular):
    r = wheel6_irregular
    w = Realization(r.mesh, np.exp(-0.5j) * r.z)
    rep = check_pattern(r, w)
    assert rep.equivalent
    assert np.all(rep.factors >= 0) and np.all(rep.factors < 2 * np.pi)
    assert np.abs(rep.factors - (2 * np.pi - 0.5)).max() < 1e-12


def test_round_trip_verdict(wheel6_irregular):
    """The reconstructed u reproduces the edge scaling it was built from."""
    r = wheel6_irregular
    rng = np.random.default_rng(8)
    phi = random_moebius(r, rng)
    w = Realization(r.mesh, phi.apply(r.z))
    rep = check_conformal_equiv(r, w)
    assert rep.equivalent
    u = rep.factors
    for e, (i, j) in enumerate(r.mesh.edge_ends.tolist()):
        lhs = abs(w.z[j] - w.z[i])
        rhs = np.exp((u[i] + u[j]) / 2.0) * abs(r.z[j] - r.z[i])
        assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("check", [check_conformal_equiv, check_pattern, moebius.transition_matrices])
def test_same_mesh_check(wheel6_irregular, check):
    r = wheel6_irregular
    check(r, Realization(build(WHEEL6_FACES), r.z))  # an equal but distinct TriMesh
    rotated = [(1, 2, 0)] + WHEEL6_FACES[1:]  # the same triangles, other faces
    with pytest.raises(MeshMismatch):
        check(r, Realization(build(rotated), r.z))


def test_positions_are_a_read_only_copy(wheel6_irregular):
    z = wheel6_irregular.z.copy()
    r = Realization(wheel6_irregular.mesh, z)
    w = r.cotan_weights
    assert r.z is not z
    with pytest.raises(ValueError):
        r.z[0] = 5.0
    with pytest.raises(ValueError):
        w[0] = 5.0
    # moving the caller's array leaves the realization and its caches as built
    before = r.z.copy()
    z[0] = 5.0
    assert np.array_equal(r.z, before)
    assert r.cotan_weights is w
    assert np.array_equal(w, Realization(r.mesh, before).cotan_weights)
