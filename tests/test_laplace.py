import numpy as np
import pytest
import scipy.sparse as sp

from ddgconf import Realization, build
from ddgconf import deform, laplace
from ddgconf.errors import InvalidInput, MissingBoundaryData, NotHarmonic, SingularSystem

from conftest import (
    SQUARE2_FACES, cot_at, delaunay_disk, grid_disk, jittered_grid, random_harmonic, reference_tables
)


def test_square2_diagonal_weight(square2):
    # both corners opposite the diagonal are right angles, so the weight is 0
    w = laplace.cotan_weights(square2)
    assert w.shape == (1,)
    assert w[0] == pytest.approx(0.0, abs=1e-15)


def test_wheel6_spoke_weights(wheel6):
    w = laplace.cotan_weights(wheel6)
    # equilateral triangles on both sides: cot 60 + cot 60 = 2 / sqrt(3)
    assert np.abs(w - 2.0 / np.sqrt(3.0)).max() < 1e-14


def test_linear_functions_harmonic():
    r = delaunay_disk(300, seed=0)
    for h in (r.z.real, r.z.imag, 0.7 * r.z.real - 1.3 * r.z.imag + 2.0):
        res = laplace.laplacian(r, h)
        assert np.abs(res).max() < 1e-11


def test_wheel6_laplacian_of_abs_squared(wheel6):
    # frozen by hand: six spokes of weight 2/sqrt(3), values 1 on the rim and
    # 0 at the hub, so the weighted sum is 12/sqrt(3) = 4 sqrt(3)
    res = laplace.laplacian(wheel6, np.abs(wheel6.z) ** 2)
    assert res[0] == pytest.approx(6.0 * 2.0 / np.sqrt(3.0))


def test_dirichlet_spike(wheel6):
    bnd = {v: 0.0 for v in wheel6.mesh.boundary_vertices}
    bnd[1] = 1.0
    h = laplace.solve_dirichlet(wheel6, bnd)
    # equal spoke weights: hub value is the boundary average
    assert h[0] == pytest.approx(1.0 / 6.0)


def test_dirichlet_residual_random_disks():
    for seed, n in ((1, 200), (2, 700)):
        r = delaunay_disk(n, seed=seed)
        h = random_harmonic(r, seed=seed + 10)
        res = laplace.laplacian(r, h)
        assert np.abs(res).max() <= 1e-10 * max(np.abs(h).max(), 1e-300)


def test_dirichlet_reproduces_linear():
    r = grid_disk(6)
    target = 0.3 * r.z.real + 0.9 * r.z.imag - 1.0
    bnd = {v: target[v] for v in r.mesh.boundary_vertices}
    h = laplace.solve_dirichlet(r, bnd)
    assert np.abs(h - target).max() < 1e-11


def test_maximum_principle():
    r = delaunay_disk(400, seed=4)
    h = random_harmonic(r, seed=40)
    w = laplace.cotan_weights(r)
    if w.min() > 0:  # Delaunay guarantee
        bvals = h[r.mesh.boundary_vertices]
        assert h.min() >= bvals.min() - 1e-12
        assert h.max() <= bvals.max() + 1e-12


def test_missing_boundary_data(wheel6):
    with pytest.raises(MissingBoundaryData):
        laplace.solve_dirichlet(wheel6, {1: 1.0})
    # the smallest boundary vertex without a value is named
    with pytest.raises(MissingBoundaryData) as info:
        laplace.solve_dirichlet(wheel6, {v: 1.0 for v in (1, 3, 4, 6)})
    assert str(info.value) == "no boundary value for vertex 2"


@pytest.mark.parametrize(
    "boundary",
    [
        {1: 1.0, 2: 2.0, 3: np.nan, 4: 4.0, 5: 5.0, 6: 6.0},
        {1: 1.0, 2: 2.0, 3: np.inf, 4: 4.0, 5: 5.0, 6: 6.0},
    ],
    ids=["dict-nan", "dict-inf"],
)
def test_non_finite_boundary_value(wheel6, boundary):
    """A non-finite value is bad input at its vertex, not a singular system."""
    with pytest.raises(InvalidInput, match="^vertex 3 has a non-finite value$") as info:
        laplace.solve_dirichlet(wheel6, boundary)
    assert info.value.details == {"vertex": 3}


def test_require_harmonic_rejects(wheel6):
    h = np.zeros(7)
    h[0] = 1.0  # spike at the hub is not harmonic
    with pytest.raises(NotHarmonic):
        laplace.require_harmonic(wheel6, h)


def test_conjugate_harmonic_consistency(wheel6_irregular):
    """The face potential satisfies the defining dual difference relation on
    every interior edge, and the per-edge rotation is reproduced from both
    sides."""
    r = wheel6_irregular
    h = random_harmonic(r, seed=3)
    conj = laplace.conjugate_harmonic(r, h)
    mesh = r.mesh
    w = laplace.cotan_weights(r)
    ref = reference_tables(mesh)
    assert conj.closure_defect < 1e-12
    for idx, e in enumerate(mesh.interior_edges):
        i, j = mesh.edge_ends[e].tolist()
        fl, fr = ref.left[e], ref.right[e]
        diff = conj.face_potential[fl] - conj.face_potential[fr]
        assert diff == pytest.approx(0.5 * w[idx] * (h[j] - h[i]), abs=1e-12)
        k = ref.opposite(fl, i, j)
        l = ref.opposite(fr, i, j)
        from_left = conj.face_potential[fl] - 0.5 * cot_at(r, fl, k) * (h[j] - h[i])
        from_right = conj.face_potential[fr] + 0.5 * cot_at(r, fr, l) * (h[j] - h[i])
        assert from_left == pytest.approx(from_right, abs=1e-12)
        assert conj.edge_rotation[e] == pytest.approx(from_left, abs=1e-14)


def test_conjugate_harmonic_gives_compatible_rates():
    r = delaunay_disk(80, seed=9)
    h = random_harmonic(r, seed=90)
    conj = laplace.conjugate_harmonic(r, h)
    sigma = np.array([(h[i] + h[j]) / 2.0 for i, j in r.mesh.edge_ends.tolist()])
    rates = deform.EdgeRates(sigma, conj.edge_rotation)
    rep = deform.check_triangle_compat(r, rates)
    assert rep.ok.all()


@pytest.mark.parametrize("kind", ["delaunay", "jittered", "sliver"])
def test_cached_cotan_weights_match_fresh(kind):
    """The weights are summed once per realization from the corner
    cotangents; they equal the per-edge sum of the two apex cotangents bit
    for bit, also with negative weights and on a boundary sliver."""
    r = {
        "delaunay": lambda: delaunay_disk(300, seed=5),
        "jittered": lambda: jittered_grid(14, 0.45, seed=3),
        # three nearly collinear points on the convex hull
        "sliver": lambda: delaunay_disk(1000, seed=1055),
    }[kind]()
    w = laplace.cotan_weights(r)
    assert laplace.cotan_weights(r) is w and not w.flags.writeable
    _, _, k, l = r.flap_points()
    left, right = r.mesh.interior_faces.T
    assert w.tobytes() == (cot_at(r, left, k) + cot_at(r, right, l)).tobytes()


def test_refinement_that_misses_the_contract_raises(monkeypatch):
    """A factor whose solves are off by a factor of 2 leaves a residual of
    1/16 after three refinement steps: ``SingularSystem``, not a result."""
    r = delaunay_disk(200, seed=1)
    # the ordering's carrier is factored with the true splu, before the patch
    r.dirichlet_system
    splu = laplace.spla.splu

    class Halved:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            return 0.5 * self.lu.solve(b)

    monkeypatch.setattr(laplace.spla, "splu", lambda *a, **k: Halved(splu(*a, **k)))
    bnd = {v: 1.0 + r.z[v].real for v in r.mesh.boundary_vertices}
    with pytest.raises(SingularSystem, match="after 3 refinement steps"):
        laplace.solve_dirichlet(r, bnd)


def test_second_solve_reuses_the_cached_system():
    """The interior system is assembled once per realization and is
    read-only; a solve on it equals a solve on a fresh realization bit for
    bit."""
    r = delaunay_disk(300, seed=5)
    rng = np.random.default_rng(6)
    first, second = ({v: rng.standard_normal() for v in r.mesh.boundary_vertices} for _ in "ab")
    laplace.solve_dirichlet(r, first)
    system = r.dirichlet_system
    h = laplace.solve_dirichlet(r, second)
    assert r.dirichlet_system is system
    A, B, rows = system
    for m in (A.data, B.data, rows):
        with pytest.raises(ValueError):
            m[0] = 0
    fresh = Realization(r.mesh, r.z)
    assert h.tobytes() == laplace.solve_dirichlet(fresh, second).tobytes()
    assert fresh.dirichlet_system is not system


def strip_disk(length):
    """A 2 x ``length`` strip of unit squares, each split into two triangles:
    its interior vertices form one chain of ``length - 1``."""
    faces = []
    for k in range(length):
        a, b = 3 * k, 3 * k + 3
        faces += [(a, b, b + 1), (a, b + 1, a + 1), (a + 1, b + 1, b + 2), (a + 1, b + 2, a + 2)]
    x, y = np.divmod(np.arange(3 * length + 3), 3)
    return Realization(build(faces), x + 1j * y)


SCHEDULE_MESHES = {
    "delaunay": lambda: delaunay_disk(300, seed=5),
    "jittered": lambda: jittered_grid(14, 0.45, seed=3),  # negative cotan weights
    "sliver": lambda: delaunay_disk(1000, seed=1055),
    "strip": lambda: strip_disk(200),
}


def refined_solve(lu, A, b, g):
    """``lu.solve(b)`` refined as ``solve_dirichlet`` refines it, for
    boundary values ``g``."""
    x = lu.solve(b)
    h_scale = max(float(np.abs(g).max()), float(np.abs(x).max()), 1e-300)
    for _ in range(3):
        res = A @ x - b
        if float(np.abs(res).max()) <= 1e-12 * h_scale:
            break
        x = x - lu.solve(res)
    return x


@pytest.mark.parametrize("kind", list(SCHEDULE_MESHES))
def test_single_column_panels_change_only_the_schedule(kind, monkeypatch):
    """``solve_dirichlet`` factors the system in the order the carrier's
    factor took, with ``NATURAL`` and in single-column panels.  Against an
    MMD factor of ``A`` in ``interior_vertices`` order, the ordering, the
    pivots and the fill are the same.  Against a factor with scipy's default
    panel size, they are the same too: only the order of the column updates
    moved.  The solves agree to 1e-14 of ``max|h|``, and the result meets
    the 1e-10 residual contract."""
    r = SCHEDULE_MESHES[kind]()
    assert len(r.mesh.interior_vertices) > 100
    splu, factors = laplace.spla.splu, []

    def record(lu):
        factors.append(lu)
        return lu

    rng = np.random.default_rng(12)
    bnd = {v: rng.standard_normal() for v in r.mesh.boundary_vertices.tolist()}
    monkeypatch.setattr(laplace.spla, "splu", lambda *a, **k: record(splu(*a, **k)))
    h = laplace.solve_dirichlet(r, bnd)
    # the same call without the panel size, so with scipy's default
    monkeypatch.setattr(laplace.spla, "splu", lambda *a, panel_size, **k: record(splu(*a, **k)))
    default = laplace.solve_dirichlet(r, bnd)
    carrier, single, wide = factors

    A, B, rows = r.dirichlet_system
    interior = np.asarray(r.mesh.interior_vertices)
    g = h.copy()
    g[interior] = 0.0
    # the system in interior_vertices order, factored with an MMD ordering of its own
    q = carrier.perm_c
    A_int = sp.csc_matrix(A[q][:, q])
    A_int.sort_indices()
    mmd = splu(A_int, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1, panel_size=1, options={"SymmetricMode": True})
    p = np.argsort(mmd.perm_c)
    assert carrier.perm_c.tolist() == mmd.perm_c.tolist()
    assert rows.tolist() == interior[p].tolist()
    assert single.perm_c.tolist() == list(range(len(rows)))
    assert single.nnz == mmd.nnz
    assert single.perm_r.tolist() == mmd.perm_r[p].tolist()
    by_mmd = g.copy()
    by_mmd[interior] = refined_solve(mmd, A_int, (B @ g)[q], g)
    assert np.abs(h - by_mmd).max() <= 1e-14 * np.abs(h).max()

    assert single.perm_c.tolist() == wide.perm_c.tolist()
    assert single.perm_r.tolist() == wide.perm_r.tolist()
    assert single.nnz == wide.nnz
    assert np.abs(h - default).max() <= 1e-14 * np.abs(h).max()
    assert np.abs(A @ h[rows] - B @ g).max() <= 1e-10 * np.abs(h).max()


def test_ordering_is_taken_once_per_realization(monkeypatch):
    """A fresh realization's first solve factors the ordering's carrier and
    then the system; every later solve factors the system alone."""
    r = delaunay_disk(300, seed=5)
    splu, calls = laplace.spla.splu, []
    monkeypatch.setattr(laplace.spla, "splu", lambda *a, **k: calls.append(k["permc_spec"]) or splu(*a, **k))
    rng = np.random.default_rng(7)
    per_solve = []
    for _ in range(3):
        laplace.solve_dirichlet(r, {v: rng.standard_normal() for v in r.mesh.boundary_vertices.tolist()})
        per_solve.append(calls[:])
        calls.clear()
    assert per_solve == [["MMD_AT_PLUS_A", "NATURAL"], ["NATURAL"], ["NATURAL"]]


def test_nan_is_not_harmonic(wheel6):
    """``require_harmonic`` and ``ddg harmonic check`` share one verdict, and
    a NaN residual fails it."""
    h = np.abs(wheel6.z)
    h[0] = np.nan
    assert not laplace.check_harmonic(wheel6, h)[0]
    with pytest.raises(NotHarmonic):
        laplace.require_harmonic(wheel6, h)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: the scale |dh|_inf of check_harmonic leaves out the rounding of h's own "
    "values, about eps |h|_inf each, so a solve on boundary data with a large offset fails its own check",
)
def test_a_constant_offset_keeps_a_solve_harmonic():
    """A constant offset changes no ``q``, so the solve on ``c + a noise``
    should pass ``check_harmonic`` as the solve on ``a noise`` does.  It reads
    1.3e-8 at ``(c, a) = (1e3, 1e-3)``, 2.9e-8 at ``(1e6, 1)``, 2.7e-5 at
    ``(1e6, 1e-3)`` and 2.3e-2 at ``(1e9, 1e-3)``, past the default 1e-8."""
    r = delaunay_disk(300, 5)
    worst = {}
    for offset, noise in ((0.0, 1.0), (1e3, 1e-3), (1e6, 1.0), (1e6, 1e-3), (1e9, 1e-3)):
        rng = np.random.default_rng(1)
        boundary = {v: offset + noise * float(rng.standard_normal()) for v in r.mesh.boundary_vertices.tolist()}
        worst[offset, noise] = laplace.check_harmonic(r, laplace.solve_dirichlet(r, boundary))[1].worst
    assert {key: value for key, value in worst.items() if not value <= 1e-8} == {}
