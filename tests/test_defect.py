"""The one verdict type: ``mesh.Defect``.  Every check measures per-element
defects against a scale; a NaN defect fails the verdict, and ``require``
names the first failing edge ``(i, j)``, vertex or face."""

import numpy as np
import pytest

from ddgconf import deform, hqd, laplace, moebius, weierstrass
from ddgconf.errors import (
    ClosureDefect, DDGError, IncompatibleRates, NotHolomorphic, NotMinimal, NotRealizable, VerificationError
)
from ddgconf.mesh import Defect, integrate

from conftest import delaunay_disk, random_harmonic


@pytest.fixture(scope="module")
def disk():
    """A Delaunay disk with a harmonic ``u``, its conformal deformation and
    its ``q``."""
    r = delaunay_disk(120, seed=5)
    u = random_harmonic(r, seed=6)
    zdot = deform.conformal_deformation(r, u)
    q = hqd.qdiff_from_harmonic(r, u)
    return r, u, zdot, q


def located(defect, k):
    """Location ``require`` reports for element ``k``."""
    return tuple(defect.where[k].tolist()) if defect.kind == "edge" else int(defect.where[k])


def assert_nan_fails(defect, k=None):
    """A NaN in element ``k`` fails the verdict even at an infinite
    tolerance, and ``require`` names that element."""
    k = len(defect.value) // 2 if k is None else k
    value = np.array(defect.value, dtype=float)
    value[k] = np.nan
    bad = defect._replace(value=value)
    assert defect.passes(np.inf) and not bad.passes(np.inf)
    assert np.isnan(bad.worst)
    with pytest.raises(DDGError) as info:
        bad.require(np.inf, DDGError, "fails at {%s}" % defect.kind)
    assert info.value.details[defect.kind] == located(defect, k)
    assert str(info.value) == f"fails at {located(defect, k)}"


# -- the type ----------------------------------------------------------------------


def test_relative_worst_and_verdict():
    d = Defect(np.array([1.0, 4.0, 2.0]), 2.0, np.array([7, 8, 9]), "vertex")
    assert d.relative.tolist() == [0.5, 2.0, 1.0]
    assert d.worst == 2.0 and type(d.worst) is float
    assert d.passes(2.0) and not d.passes(1.999)
    per_element = d._replace(scale=np.array([1.0, 8.0, 1.0]))
    assert per_element.worst == 2.0 and per_element.relative.tolist() == [1.0, 0.5, 2.0]


def test_no_elements_pass_with_worst_zero():
    d = Defect(np.zeros(0), 0.0, np.zeros(0, dtype=np.int64), "vertex")
    assert d.worst == 0.0 and d.passes(1e-300)
    d.require(1e-300, DDGError, "never")


def test_zero_scale_counts_as_tiny():
    """A zero defect against a zero scale is 0; anything else fails."""
    zero = Defect(np.zeros(3), 0.0, np.arange(3), "face")
    assert zero.worst == 0.0 and zero.passes(1e-12)
    assert not zero._replace(value=np.array([0.0, 1e-200, 0.0])).passes(1e-12)


@pytest.mark.parametrize("scale", [1.0, np.nan])
def test_nan_fails_where_python_max_would_not(scale):
    """Python's ``max`` drops a NaN that comes after a number; the verdict
    does not."""
    d = Defect(np.array([0.0, np.nan]), scale, np.arange(2), "vertex")
    assert max(0.0, float("nan")) == 0.0
    assert np.isnan(d.worst) and not d.passes(np.inf)


def test_require_names_the_first_failing_element():
    ends = np.array([[0, 3], [2, 5], [1, 4], [4, 6]])
    d = Defect(np.array([1.0, 5.0, np.nan, 9.0]), 2.0, ends, "edge")
    with pytest.raises(ClosureDefect) as info:
        d.require(2.0, ClosureDefect, "edge {edge}: {defect:.3e}")
    assert str(info.value) == "edge (2, 5): 5.000e+00"
    assert info.value.details == {"edge": (2, 5), "defect": 5.0, "scale": 2.0}
    assert type(info.value.details["defect"]) is float
    with pytest.raises(ClosureDefect) as info:
        d.require(10.0, ClosureDefect, "edge {edge}")
    assert info.value.details["edge"] == (1, 4)
    assert np.isnan(info.value.details["defect"])


@pytest.mark.parametrize(
    "value, scale, worst",
    [([4.0, 3.0, 1.0], [8.0, 1.0, 1.0], 1), ([1.0, np.nan, 9.0, np.nan], 2.0, 1), ([0.0, 0.0], 0.0, 0)],
)
@pytest.mark.parametrize("kind", ["vertex", "edge"])
def test_element_has_one_shape(value, scale, worst, kind):
    """Every element reads as its location, ``defect`` and ``scale``; the
    default element is the one of largest relative defect (the first NaN),
    not the one of largest value."""
    value = np.array(value)
    where = np.arange(len(value)) + 7 if kind == "vertex" else np.array([[0, 3], [2, 5], [1, 4], [4, 6]])
    d = Defect(value, np.array(scale), where[: len(value)], kind)
    elements = [d.element(k) for k in range(len(value))]
    assert [list(e) for e in elements] == [[kind, "defect", "scale"]] * len(value)
    assert [e["scale"] for e in elements] == np.broadcast_to(scale, value.shape).tolist()
    assert all(type(e["defect"]) is float and type(e["scale"]) is float for e in elements)
    assert repr(d.element()) == repr(elements[worst])


# -- every routed check: a NaN in one element fails, and is named ------------------------


def test_integral_cotree_defect(disk):
    r = disk[0]
    for dual, n in ((False, len(r.mesh.edge_ends)), (True, len(r.mesh.interior_edges))):
        result = integrate(r.mesh, np.random.default_rng(3).standard_normal(n), dual=dual)
        cotree = (r.mesh.dual_spanning_tree if dual else r.mesh.vertex_spanning_tree)()[1]
        assert [tuple(w) for w in result.defect.where.tolist()] == [
            tuple(r.mesh.edge_ends[e].tolist()) for e in cotree
        ]
        assert_nan_fails(result.defect)


def test_qdiff_defects(disk):
    r, _, _, q = disk
    rep = hqd.verify_qdiff(r, q)
    assert rep.holomorphic and rep.max_defect == max(d.worst for d in rep.defects)
    assert rep.max_real_part == rep.defects[0].worst
    assert [d.kind for d in rep.defects] == ["edge", "vertex", "vertex"]
    for d in rep.defects:
        assert_nan_fails(d)
    bad = q.values.copy()
    bad[3] = np.nan
    rep = hqd.verify_qdiff(r, bad)
    assert not rep.holomorphic and np.isnan(rep.max_defect)


def test_sl2_closure_defects(disk):
    r, _, zdot, _ = disk
    form = moebius.sl2_form_from_rates(r, moebius.rates_from_deformation(r, zdot))
    rep = moebius.check_sl2_form_closed(r, form)
    assert rep.closed and rep.max_defect == max(d.worst for d in rep.defects)
    for d in rep.defects:
        assert_nan_fails(d)
    mu = form.rates.copy()
    mu[5] = np.nan
    rep = moebius.check_sl2_form_closed(r, moebius.sl2_form_from_rates(r, mu))
    assert not rep.closed and np.isnan(rep.max_defect)


def test_transition_cycle_defect(disk):
    r, _, zdot, _ = disk
    b = type(r)(r.mesh, r.z + 1e-3 * zdot / np.abs(zdot).max())
    rep = moebius.transition_matrices(r, b)
    assert rep.max_cycle_residual == rep.cycle.worst
    assert rep.cycle.where == r.mesh.interior_vertices
    assert_nan_fails(rep.cycle)


def test_minimality_defect(disk):
    r, _, _, q = disk
    surf = weierstrass.weierstrass_integrate(r, q)
    n = weierstrass.gauss_map(r)
    rep = weierstrass.verify_minimal(r.mesh, n, surf.f)
    assert rep.minimal
    assert_nan_fails(rep.defect)
    f = surf.f.copy()
    f[4] = np.nan
    assert not weierstrass.verify_minimal(r.mesh, n, f, tol=np.inf).minimal
    with pytest.raises(NotMinimal, match="residual nan"):
        weierstrass.qdiff_from_minimal(r, f, tol=np.inf)


def test_harmonic_defect(disk):
    r, u, _, _ = disk
    harmonic, defect, res = laplace.check_harmonic(r, u)
    assert harmonic and defect.value.tobytes() == np.abs(res).tobytes()
    assert defect.scale == laplace.gradient_scale(r, u)
    assert_nan_fails(defect)


def test_constant_function_stays_harmonic(disk):
    r = disk[0]
    harmonic, defect, _ = laplace.check_harmonic(r, np.full(r.mesh.vertex_count, 2.5))
    assert harmonic and defect.scale == 0.0 and defect.worst == 0.0
    laplace.require_harmonic(r, np.full(r.mesh.vertex_count, 2.5))


def test_triangle_closure_defect(disk):
    r, _, zdot, _ = disk
    rates = deform.edge_rates(r, zdot)
    rep = deform.check_triangle_compat(r, rates)
    message = "edge rates do not close on face {face} (defect {defect:.3e})"
    rep.closure.require(1e-10, IncompatibleRates, message)
    assert rep.ok.all() and rep.closure.where.tolist() == list(range(len(r.mesh.faces)))
    assert_nan_fails(rep.closure)
    # a NaN rate fails the faces on its edge; the first of them is named
    e = r.mesh.interior_edges[7]
    rates.omega[e] = np.nan
    rep = deform.check_triangle_compat(r, rates)
    faces = sorted(r.mesh.edge_faces[e].tolist())
    assert np.flatnonzero(~rep.ok).tolist() == faces
    with pytest.raises(IncompatibleRates) as info:
        rep.closure.require(1e-10, IncompatibleRates, message)
    assert info.value.details["face"] == faces[0] and np.isnan(info.value.details["defect"])
    assert str(info.value) == f"edge rates do not close on face {faces[0]} (defect nan)"


def test_nan_q_is_not_holomorphic(disk):
    r, _, _, q = disk
    bad = q.values.copy()
    bad[0] = np.nan
    with pytest.raises(NotHolomorphic, match="defect nan"):
        weierstrass.weierstrass_integrate(r, bad)


# -- the co-tree and real-part checks of harmonic_from_qdiff ------------------------


@pytest.mark.parametrize("points, seed", [(400, 1), (60, 2)])
def test_overflowing_q_raises_closure_defect(points, seed):
    """``q / dz`` overflows, so the co-tree gaps are NaN: the dual form does
    not close, rather than integrating to a non-finite ``u``."""
    r = delaunay_disk(points, seed)
    with np.errstate(all="ignore"), pytest.raises(ClosureDefect) as info:
        hqd.harmonic_from_qdiff(r, np.full(len(r.mesh.interior_edges), 1e308j))
    assert np.isnan(info.value.details["defect"])
    assert list(info.value.details["edge"]) in r.mesh.edge_ends.tolist()


def test_real_part_is_not_realizable(disk):
    """``(1 + i) q`` has closed weighted sums but a real part, which fails
    as :func:`verify_qdiff`'s real part fails, on the first edge past ``tol``."""
    r, _, _, q = disk
    bad = (1 + 1j) * q.values
    with pytest.raises(NotRealizable) as info:
        hqd.harmonic_from_qdiff(r, bad)
    real_part = hqd.verify_qdiff(r, bad).defects[0]
    first = np.flatnonzero(real_part.relative > 1e-9)[0]
    assert info.value.details == real_part.element(first)
    edge = info.value.details["edge"]
    assert str(info.value).startswith(f"q has a real part on edge {edge} (defect ")


@pytest.fixture(scope="module")
def unit_q():
    """``delaunay_disk(300, 5)`` and a holomorphic ``q`` with ``max|q| = 1``."""
    r = delaunay_disk(300, seed=5)
    q = hqd.qdiff_from_harmonic(r, random_harmonic(r, seed=6)).values
    return r, q / np.abs(q).max()


def test_a_real_q_is_not_realizable_at_any_size(unit_q):
    """The real field ``i s q`` (both vertex sums zero) fails as
    ``NotRealizable`` on the same edge and by the same relative defect at
    every size ``s``: the real part is measured against ``max|q|``, with no
    fixed floor that a small ``q`` falls under."""
    r, q = unit_q
    verdicts = []
    for s in (1e3, 1.0, 1e-3, 1e-9, 1e-10, 1e-12):
        with pytest.raises(NotRealizable) as info:
            hqd.harmonic_from_qdiff(r, 1j * s * q)
        details = info.value.details
        verdicts.append((details["edge"], details["defect"] / details["scale"]))
    assert verdicts == [verdicts[0]] * len(verdicts)


def test_a_nan_face_potential_never_yields_u(monkeypatch, disk):
    """A NaN face potential reaches the primal form on an edge of that face
    (each face is the left face of one of its edges), so the primal form
    fails to close with a NaN relative defect (its scale ``max|form|`` is
    NaN) rather than integrating to a ``u``."""
    r, _, _, q = disk
    integrate_ = hqd.integrate

    def nan_on_face_9(mesh, form, root=0, dual=False):
        result = integrate_(mesh, form, root, dual)
        if dual:
            result.potential[9] = np.nan
        return result

    monkeypatch.setattr(hqd, "integrate", nan_on_face_9)
    with pytest.raises(VerificationError) as info:
        hqd.harmonic_from_qdiff(r, q)
    details = info.value.details
    assert np.isnan(details["defect"] / details["scale"])
