"""The paper's statements that no other test states on its own: the
converse of its quadratic-differential theorem, the Weierstrass
representation on every fixture and phase, and the identities of the
sl(2,C) layer that the library no longer re-checks on each call (helpers
in ``theorems.py``).  README's table maps each statement of the abstract
to its test."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ddgconf import Realization, hqd, laplace, moebius, weierstrass

import theorems
from conftest import delaunay_disk, jittered_grid, random_harmonic

CONVERSE_MESHES = {
    "fixture": lambda: delaunay_disk(300, seed=5),
    "jittered": lambda: jittered_grid(14, 0.45, seed=3),  # negative cotan weights
    "sliver": lambda: delaunay_disk(1000, seed=1055),  # a hull corner's |cot| is 3.7e4
}


def holomorphicity_conditions(r, scale):
    """The three real conditions per interior vertex on an imaginary ``q = i
    x``, in the unknowns ``x_e / scale_e``: ``Im sum q = sum x`` and the real
    and imaginary parts of ``sum q / dz``, with ``dz = z_j - z_v`` around
    each vertex ``v``.  Each row is scaled to unit length."""
    c = r.mesh.vertex_cycles
    n = c.shape[0]
    rows = np.repeat(np.arange(n), np.diff(c.indptr))
    w = c.data * 1j / r.interior_dz[c.indices]  # c.data: +1 where v is the edge's first end
    cond = sp.coo_array(
        (np.concatenate([np.ones(len(w)), w.real, w.imag]) * np.tile(scale[c.indices], 3),
         (np.concatenate([rows, rows + n, rows + 2 * n]), np.tile(c.indices, 3))),
        shape=(3 * n, c.shape[1]),
    ).tocsr()
    return sp.diags_array(1 / spla.norm(cond, axis=1)) @ cond


@pytest.mark.parametrize("kind", CONVERSE_MESHES)
def test_every_holomorphic_qdiff_comes_from_a_harmonic_function(kind):
    """"We associate [to each holomorphic vector field] a certain holomorphic
    quadratic differential", and each holomorphic vector field comes from a
    harmonic function: the converse for quadratic differentials.  On a disk
    Euler gives ``E_int = 3 V_int + V_b - 3``; the ``3 V_int`` conditions are
    independent, so the holomorphic ``q`` form a space of dimension ``V_b -
    3``, and it is the span of the ``q`` of the ``V_b`` unit boundary data
    (whose kernel, the affine functions, has dimension 3).

    The largest principal angle between the two is at most 1e-12, each edge's
    ``q`` measured against its rounding scale, 1 plus the largest ``|cot|``
    of its two faces: unweighted, the sliver's one corner of ``|cot| = 3.7e4``
    alone reads 3.3e-9 (the fixture disk 1.8e-13, the grid 2.9e-14).  Weighted,
    the three read 9.4e-15, 7.7e-15 and 4.4e-13."""
    r = CONVERSE_MESHES[kind]()
    mesh = r.mesh
    e_int, v_int, v_b = len(mesh.interior_edges), len(mesh.interior_vertices), len(mesh.boundary_vertices)
    assert e_int == 3 * v_int + v_b - 3
    scale = 1.0 + np.abs(r.cot).max(axis=1)[mesh.interior_faces].max(axis=1)
    cond = holomorphicity_conditions(r, scale)
    # the conditions are independent: their smallest singular value (2.4e-5 of
    # the largest on the sliver) is far above rounding
    normal = (cond @ cond.T).tocsc()
    start = np.ones(normal.shape[0])
    smallest = spla.eigsh(normal, k=1, sigma=0, v0=start, return_eigenvectors=False)[0]
    largest = spla.eigsh(normal, k=1, which="LA", v0=start, return_eigenvectors=False)[0]
    assert np.sqrt(smallest / largest) > 1e-8
    boundary = mesh.boundary_vertices.tolist()
    q = np.array([
        hqd.qdiff_from_harmonic(r, laplace.solve_dirichlet(r, {v: float(v == b) for v in boundary})).imag
        for b in boundary
    ]).T / scale[:, None]
    basis, sv, _ = np.linalg.svd(q, full_matrices=False)
    assert sv[v_b - 4] > 1e-3 * sv[0] and sv[v_b - 3] < 1e-13 * sv[0]  # rank V_b - 3
    basis = basis[:, : v_b - 3]
    # sine of the largest principal angle: the part of the basis in the conditions' row space
    sine = np.linalg.norm(cond.T @ spla.splu(normal).solve(cond @ basis), 2)
    assert sine <= 1e-12


@pytest.mark.parametrize("kind", CONVERSE_MESHES)
def test_weierstrass_surface_has_the_prescribed_gauss_map_and_hopf_differential(kind):
    """"Then we derive a Weierstrass representation formula, which shows how
    a holomorphic quadratic differential can be used to construct a discrete
    minimal surface with prescribed Gauß map and prescribed Hopf
    differential."  The surface of ``q`` passes the edge-parallelism test
    against ``gauss_map(r)`` at the phases 0 and pi, and gives back ``q``
    and ``-q`` there.

    Between them the associate family turns ``df`` in the tangent planes.
    The integrand ``w = (q / (i dz)) v`` of an edge is null up to ``dz``:
    ``w . w = -q^2 = |q|^2``, so ``Re w``, parallel to ``dn``, and ``Im w``
    are orthogonal and ``|Re w|^2 = |Im w|^2 + |q|^2``.  So the residual at
    ``alpha`` is ``|sin alpha| max|Im w| / max|df|``: 1 at pi/2, and short
    of ``|sin alpha|`` by 2.2e-3 at most at pi/4 (on the fixture disk).

    The round trip is exact up to rounding where the Weierstrass form
    closes: at most 2.1e-14 of max|q| on the fixture disk and 4.8e-15 on the
    grid over 12 seeds.  On the sliver the relative vertex sums of ``q``
    reach 2.4e-9 against their global scale (ROADMAP item 2), the form's
    co-tree gaps 9.7e-11 and the error at most 2.9 times the gap (1.6e-10);
    weighting each edge by its largest ``|cot|`` does not lower it.  So the
    bound is 1e-13 plus four times the closure defect."""
    r = CONVERSE_MESHES[kind]()
    mesh, n = r.mesh, weierstrass.gauss_map(r)
    v2 = np.sum(np.abs(r.null_vectors) ** 2, axis=1)
    for seed in range(3):
        q = hqd.qdiff_from_harmonic(r, random_harmonic(r, seed))
        surface = weierstrass.weierstrass_integrate(r, q)
        bound = 1e-13 + 4 * surface.closure_defect
        for alpha, sign in ((0.0, 1), (np.pi, -1)):
            f = surface.at_phase(alpha).f
            assert weierstrass.verify_minimal(mesh, n, f).minimal
            back = weierstrass.qdiff_from_minimal(r, f).imag
            assert np.abs(back - sign * q.imag).max() <= bound * np.abs(q.imag).max()
        across = q.imag**2 * (v2 - r.interior_dz2) / (2 * r.interior_dz2)  # |Im w|^2
        for alpha in (np.pi / 4, np.pi / 2):
            residual = weierstrass.verify_minimal(mesh, n, surface.at_phase(alpha).f).max_residual
            turned = np.sqrt(across.max() / (across + np.cos(alpha) ** 2 * q.imag**2).max())
            assert residual == pytest.approx(np.sin(alpha) * turned, rel=1e-12)
            assert 1 - 3e-3 <= turned <= 1


@pytest.mark.parametrize("kind", CONVERSE_MESHES)
def test_sl2_form_of_minus_half_q_is_closed_where_q_is_holomorphic(kind):
    """Criterion 9 reads the rates ``mu = -q / 2``: the sl(2,C) form of
    ``mu`` is closed exactly where both vertex sums of ``q`` vanish.
    ``check_sl2_form_closed`` and ``verify_qdiff`` take those sums and their
    scales from one function, and ``-1/2`` is a power of two, so each
    relative defect of the one is the other's bit for bit, for holomorphic
    and for perturbed ``q``.  While ``check_sl2_form_closed`` kept its own
    copy of the sums, with its own scale for the weighted one, 11 of these
    36 cases parted."""
    r = CONVERSE_MESHES[kind]()
    rng = np.random.default_rng(9)
    for seed in range(6):
        q = hqd.qdiff_from_harmonic(r, random_harmonic(r, seed)).values
        noise = rng.standard_normal(len(q)) + 1j * rng.standard_normal(len(q))
        for x in (q, q + 1e-6 * np.abs(q).max() * noise):
            closed = moebius.check_sl2_form_closed(r, moebius.sl2_form_from_rates(r, -0.5 * x))
            report = hqd.verify_qdiff(r, x)
            for k in range(2):
                assert closed.defects[k].relative.tobytes() == report.defects[k + 1].relative.tobytes()


def transition_pairs():
    """A disk against a 0.05 perturbation of it, against unrelated positions
    and against its image under ``z^2 + 3 z``."""
    a = delaunay_disk(300, seed=5)
    rng = np.random.default_rng(0)
    noise = rng.standard_normal(len(a.z)) + 1j * rng.standard_normal(len(a.z))
    for w in (a.z + 0.05 * noise, noise, a.z**2 + 3 * a.z):
        yield a, Realization(a.mesh, w)


@pytest.mark.parametrize("pair", range(3))
def test_transitions_fix_the_lifted_ends_for_any_two_realizations(pair):
    """``G = A_right^{-1} A_left`` fixes the lifts of both ends of its edge for
    any two realizations of one mesh, not only for Moebius images or small
    deformations; so ``cr_b = cr_a / lambda^2`` and the product of ``G``
    around each interior vertex is ``+-I``, each within the tolerance the
    library once applied."""
    a, b = list(transition_pairs())[pair]
    rep = moebius.transition_matrices(a, b)
    assert theorems.eigen_residual(a, rep) <= theorems.TRANSITION_TOL
    assert theorems.transitions_consistent(a, b, rep)


@pytest.mark.parametrize("closed", [True, False])
def test_sl2_matrix_sum_is_the_combination_of_the_scalar_sums(closed):
    """Around ``v`` the matrix sum of the sl(2,C) form is ``(sum mu / d) K1 +
    (sum mu) K2``, so it vanishes exactly where ``check_sl2_form_closed``'s
    rate and weighted sums do: for the rates of a holomorphic field and for
    random rates."""
    r = delaunay_disk(200, seed=5)
    if closed:
        boundary = {v: float(np.sin(v)) for v in r.mesh.boundary_vertices.tolist()}
        mu = -0.5 * hqd.qdiff_from_harmonic(r, laplace.solve_dirichlet(r, boundary)).values
    else:
        rng = np.random.default_rng(1)
        mu = rng.standard_normal(len(r.mesh.interior_edges)) + 1j * rng.standard_normal(len(r.mesh.interior_edges))
    form = moebius.sl2_form_from_rates(r, mu)
    assert theorems.k1k2_residual(r, form) <= 1e-14
    assert moebius.check_sl2_form_closed(r, form).closed == closed
    assert theorems.sl2_equivalence_ok(r, form)
