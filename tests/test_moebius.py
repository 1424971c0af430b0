import numpy as np
import pytest

from ddgconf import Realization
from ddgconf import deform, hqd, moebius
from ddgconf.errors import DegenerateFace, MeshMismatch, NonFinite, VertexAtInfinity

import theorems
from conftest import delaunay_disk, deformed_grid_pair, random_harmonic, random_moebius


def test_moebius_apply_identity(wheel6_irregular):
    z = wheel6_irregular.z
    assert np.abs(moebius.MoebiusMap(1, 0, 0, 1).apply(z) - z).max() == 0.0


def test_moebius_apply_translates():
    phi = moebius.MoebiusMap(2.0, 1.0, 0.0, 2.0)
    z = np.array([0.0, 1.0 + 1j])
    assert np.abs(phi.apply(z) - (z + 0.5)).max() < 1e-15


def test_moebius_degenerate_and_pole():
    with pytest.raises(DegenerateFace):
        moebius.MoebiusMap(1.0, 2.0, 2.0, 4.0).apply(np.array([0.0, 1.0 + 1j]))
    phi = moebius.MoebiusMap(0.0, 1.0, 1.0, -1.0)  # pole at z = 1
    with pytest.raises(VertexAtInfinity):
        phi.apply(np.array([0.0, 1.0], dtype=complex))


@pytest.mark.parametrize(
    "coeffs, error",
    [((1, 0, 0, 0), DegenerateFace), ((1, 0, 0, 1e-320), VertexAtInfinity)],
)
def test_moebius_apply_raises_instead_of_returning_inf(coeffs, error):
    """A zero determinant, and an image that overflows to infinity, raise
    rather than return inf or NaN."""
    with pytest.raises(error):
        moebius.MoebiusMap(*coeffs).apply(np.array([1.0 + 1j, 2.0]))


def test_lift_shape(wheel6):
    psi = theorems.lift(wheel6.z)
    assert psi.shape == (7, 2)
    assert np.all(psi[:, 1] == 1.0)
    assert np.all(psi[:, 0] == wheel6.z)


def test_pauli_roundtrip():
    rng = np.random.default_rng(50)
    vec = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    m = moebius.sl2_from_pauli(vec)
    assert np.trace(m) == pytest.approx(0.0, abs=1e-15)
    back = moebius.pauli_from_sl2(m)
    assert np.abs(back - vec).max() < 1e-14


def broadcast_sl2_from_pauli(vec):
    """The sum of the three broadcast products with the Pauli matrices."""
    v = np.asarray(vec)[..., None, None]
    return v[..., 0, :, :] * moebius.PAULI[0] + v[..., 1, :, :] * moebius.PAULI[1] + v[..., 2, :, :] * moebius.PAULI[2]


def test_sl2_from_pauli_is_the_broadcast_sum_bit_for_bit():
    """Entry by entry, with +-0, +-inf and NaN in a third of the real and
    imaginary parts: the same bits as the broadcast sum, which the bare
    ``[[v2, v0 + i v1], [v0 - i v1, -v2]]`` does not give."""
    rng = np.random.default_rng(61)
    parts = rng.standard_normal((2000, 3, 2))
    special = rng.random(parts.shape) < 1 / 3
    parts[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], special.sum())
    vec = parts.view(complex)[..., 0]
    with np.errstate(invalid="ignore"):
        for v in (vec, vec.reshape(40, 50, 3), vec[7]):
            got, want = moebius.sl2_from_pauli(v), broadcast_sl2_from_pauli(v)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        v0, v1, v2 = vec.T
        bare = np.stack([v2, v0 + 1j * v1, v0 - 1j * v1, -v2], axis=1).reshape(-1, 2, 2)
    assert bare.tobytes() != got.tobytes()
    finite = rng.standard_normal((500, 3)) + 1j * rng.standard_normal((500, 3))
    assert moebius.sl2_from_pauli(finite).tobytes() == broadcast_sl2_from_pauli(finite).tobytes()


def test_an_overflowing_map_or_eigenvalue_raises_non_finite(wheel6, monkeypatch):
    """A pair whose face maps overflow names its first face, and one whose
    face maps and ``G`` are finite but whose ``lambda = G10 z_j + G11 = 1e308
    + 1e308`` overflows names that edge: ``NonFinite``, never a report that
    holds an infinity."""
    far = Realization(wheel6.mesh, wheel6.z * 1e110)
    with np.errstate(all="ignore"), pytest.raises(NonFinite, match="face 0 "):
        moebius.transition_matrices(far, wheel6)
    # the left face of the edge 0 -> 1 (z_1 = 1) maps by [[1, 0], [1e308, 1e308]], every other face by I
    maps = [np.ones(6, complex), np.zeros(6, complex), np.zeros(6, complex), np.ones(6, complex)]
    maps[2][0] = maps[3][0] = 1e308
    monkeypatch.setattr(moebius, "_face_maps", lambda a, b: maps)
    with np.errstate(all="ignore"), pytest.raises(NonFinite, match=r"edge \(0,1\)"):
        moebius.transition_matrices(wheel6, wheel6)


def test_moebius_flows_have_zero_rates(wheel6_irregular):
    """Infinitesimal Moebius motions a z^2 + b z + c do not change any cross
    ratio, so all edge rates vanish."""
    r = wheel6_irregular
    rng = np.random.default_rng(51)
    for _ in range(5):
        a, b, c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        zdot = a * r.z**2 + b * r.z + c
        mu = moebius.rates_from_deformation(r, zdot)
        scale = max(np.abs(zdot).max(), 1.0)
        assert np.abs(mu).max() < 1e-12 * scale


def test_conformal_flow_rate_is_minus_half_q():
    r = delaunay_disk(90, seed=52)
    u = random_harmonic(r, seed=53)
    q = hqd.qdiff_from_harmonic(r, u)
    zdot = deform.conformal_deformation(r, u)
    mu = moebius.rates_from_deformation(r, zdot)
    assert np.abs(mu - (-0.5) * q.values).max() < 1e-10 * np.abs(q.values).max()


def test_sl2_form_eigenvectors(wheel6_irregular):
    r = wheel6_irregular
    u = random_harmonic(r, seed=54)
    mu = -0.5 * hqd.qdiff_from_harmonic(r, u).values
    form = moebius.sl2_form_from_rates(r, mu)
    psi = theorems.lift(r.z)
    for idx, e in enumerate(r.mesh.interior_edges):
        i, j = r.mesh.edge_ends[e].tolist()
        eta = form.matrices[idx]
        assert np.abs(eta @ psi[i] - (-mu[idx]) * psi[i]).max() < 1e-12
        assert np.abs(eta @ psi[j] - (+mu[idx]) * psi[j]).max() < 1e-12
        assert np.trace(eta) == pytest.approx(0.0, abs=1e-13)
        assert np.abs(moebius.sl2_from_pauli(form.vectors[idx]) - eta).max() < 1e-12


def test_sl2_form_shape_mismatch(wheel6):
    with pytest.raises(MeshMismatch):
        moebius.sl2_form_from_rates(wheel6, np.zeros(3, dtype=complex))


def test_sl2_form_closed_for_holomorphic_rates():
    r = delaunay_disk(120, seed=55)
    u = random_harmonic(r, seed=56)
    mu = -0.5 * hqd.qdiff_from_harmonic(r, u).values
    form = moebius.sl2_form_from_rates(r, mu)
    rep = moebius.check_sl2_form_closed(r, form)
    assert rep.closed
    assert theorems.sl2_equivalence_ok(r, form)


def test_sl2_form_not_closed_when_perturbed(wheel6_irregular):
    r = wheel6_irregular
    u = random_harmonic(r, seed=57)
    mu = -0.5 * hqd.qdiff_from_harmonic(r, u).values
    mu[0] += 0.1 * np.abs(mu).max()
    form = moebius.sl2_form_from_rates(r, mu)
    rep = moebius.check_sl2_form_closed(r, form)
    assert not rep.closed
    assert theorems.sl2_equivalence_ok(r, form)
    assert rep.max_defect > 1e-3


def test_face_moebius_three_points():
    a = (0.0 + 0j, 1.0 + 0j, 1j)
    phi = moebius.MoebiusMap(1.0, 2j, 0.5, 1.0)
    b = tuple(phi.apply(np.array(a)))
    m = moebius.face_moebius(a, b)
    for pa, pb in zip(a, b):
        num = m[0, 0] * pa + m[0, 1]
        den = m[1, 0] * pa + m[1, 1]
        assert num / den == pytest.approx(pb, abs=1e-12)
    assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("pair", [(0, 1), (1, 2), (0, 2)])
@pytest.mark.parametrize("side", ["a", "b"])
def test_face_moebius_rejects_coincident_points(pair, side):
    """Two coincident points of either triple make a determinant exactly 0."""
    rng = np.random.default_rng(sum(pair))
    a, b = (list(rng.standard_normal(3) + 1j * rng.standard_normal(3)) for _ in range(2))
    triple = a if side == "a" else b
    triple[pair[1]] = triple[pair[0]]
    with pytest.raises(DegenerateFace):
        moebius.face_moebius(tuple(a), tuple(b))


def test_transitions_moebius_pair():
    """A global Moebius image gives identical face maps, so all transitions
    are the identity with unit eigenvalues."""
    r = delaunay_disk(100, seed=58)
    rng = np.random.default_rng(59)
    phi = random_moebius(r, rng)
    b = Realization(r.mesh, phi.apply(r.z))
    rep = moebius.transition_matrices(r, b)
    assert np.abs(rep.transitions - np.eye(2)).max() < 1e-9
    assert np.abs(rep.eigenvalues - 1.0).max() < 1e-9
    assert theorems.eigen_residual(r, rep) < 1e-9
    assert theorems.cross_ratio_residual(r, b, rep) < 1e-9
    assert rep.max_cycle_residual < 1e-9


def test_transitions_deformed_pair(wheel6_irregular):
    """For a genuinely deformed realization the transitions still fix the edge
    endpoint lifts, reproduce the cross-ratio change through lambda^2, and
    multiply to the identity around interior vertices."""
    r = wheel6_irregular
    u = random_harmonic(r, seed=60)
    zdot = deform.conformal_deformation(r, u)
    b = Realization(r.mesh, r.z + 0.05 * zdot)
    rep = moebius.transition_matrices(r, b)
    assert theorems.eigen_residual(r, rep) < 1e-10
    assert theorems.cross_ratio_residual(r, b, rep) < 1e-10
    assert rep.max_cycle_residual < 1e-10
    assert np.abs(rep.transitions - np.eye(2)).max() > 1e-4


def test_transition_cycle_residual_is_relative_to_the_products_scale():
    """Around a vertex the product of transitions with entries near 3e3
    rounds to about 1e-16 of those entries, not of 1: the cycle residual is
    measured against the running product's scale."""
    a, b = deformed_grid_pair()
    rep = moebius.transition_matrices(a, b)
    assert np.abs(rep.transitions).max() > 1e3
    assert theorems.cross_ratio_residual(a, b, rep) < 1e-12
    assert rep.max_cycle_residual < 1e-12


def test_transitions_mesh_mismatch(wheel6, square2):
    with pytest.raises(MeshMismatch):
        moebius.transition_matrices(wheel6, square2)

