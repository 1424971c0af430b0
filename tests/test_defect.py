"""The one verdict type: ``mesh.Defect``.  Every check measures per-element
defects against a scale; a NaN defect fails the verdict, and ``require``
names the first failing edge ``(i, j)``, vertex or face."""

import numpy as np
import pytest

from ddgconf import deform, hqd, laplace, moebius, weierstrass
from ddgconf.errors import (
    ClosureDefect, DDGError, IncompatibleRates, NotHolomorphic, NotMinimal, NotRealizable
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
    assert info.value.details == {"edge": (2, 5), "defect": 5.0}
    assert type(info.value.details["defect"]) is float
    with pytest.raises(ClosureDefect) as info:
        d.require(10.0, ClosureDefect, "edge {edge}")
    assert info.value.details["edge"] == (1, 4)
    assert np.isnan(info.value.details["defect"])


def test_require_fields_join_the_message_and_details():
    d = Defect(np.array([0.0, 3.0]), np.array([1.0, 1.0]), np.array([4, 6]), "face")
    rel = np.array([0j, 1.5 - 2j])
    with pytest.raises(IncompatibleRates) as info:
        message = "face {face} ({defect:.1e}, {other})"
        d.require(1.0, IncompatibleRates, message, defect=rel, other=d.value)
    assert str(info.value) == "face 6 (1.5e+00-2.0e+00j, 3.0)"
    assert info.value.details == {"face": 6, "defect": 1.5 - 2j, "other": 3.0}


# -- every routed check: a NaN in one element fails, and is named ------------------------


def test_integral_cotree_defect(disk):
    r = disk[0]
    for dual, n in ((False, len(r.mesh.edge_ends)), (True, len(r.mesh.interior_edges))):
        result = integrate(r.mesh, np.random.default_rng(3).standard_normal(n), dual=dual)
        assert [tuple(w) for w in result.defect.where.tolist()] == [
            tuple(r.mesh.edge_ends[e].tolist()) for e in result.cotree
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
    assert rep.minimal and rep.residual.tobytes() == rep.defect.relative.tobytes()
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
    rep = deform.require_triangle_compat(r, rates)
    assert rep.ok.all() and rep.closure.where.tolist() == list(range(len(r.mesh.faces)))
    assert_nan_fails(rep.closure)
    # a NaN rate fails the faces on its edge; the first of them is named
    e = r.mesh.interior_edges[7]
    rates.omega[e] = np.nan
    rep = deform.check_triangle_compat(r, rates)
    faces = sorted(r.mesh.edge_faces[e].tolist())
    assert np.flatnonzero(~rep.ok).tolist() == faces
    with pytest.raises(IncompatibleRates) as info:
        deform.require_triangle_compat(r, rates)
    assert info.value.details["face"] == faces[0]
    assert str(info.value) == f"edge rates do not close on face {faces[0]} (defect nan+nanj)"


def test_nan_q_is_not_holomorphic(disk):
    r, _, _, q = disk
    bad = q.values.copy()
    bad[0] = np.nan
    with pytest.raises(NotHolomorphic, match="defect nan"):
        weierstrass.weierstrass_integrate(r, bad)


# -- the co-tree and realizability checks of harmonic_from_qdiff ------------------------


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
    """``(1 + i) q`` has closed weighted sums but a real part."""
    r, _, _, q = disk
    with pytest.raises(NotRealizable) as info:
        hqd.harmonic_from_qdiff(r, (1 + 1j) * q.values)
    edge = info.value.details["edge"]
    assert str(info.value).startswith(f"edge {edge}: the two face-side evaluations disagree (")


def test_realizability_fails_on_a_nan_face(monkeypatch, disk):
    """A NaN face potential fails the realizability check on the first
    interior edge of that face."""
    r, _, _, q = disk
    integrate_ = hqd.integrate

    def nan_on_face_9(mesh, form, root=0, dual=False):
        result = integrate_(mesh, form, root, dual)
        if dual:
            result.potential[9] = np.nan
        return result

    monkeypatch.setattr(hqd, "integrate", nan_on_face_9)
    with pytest.raises(NotRealizable) as info:
        hqd.harmonic_from_qdiff(r, q)
    interior = set(r.mesh.interior_edges.tolist())
    first = min(tuple(r.mesh.edge_ends[e].tolist()) for e in r.mesh.face_edges[9] if e in interior)
    assert info.value.details["edge"] == first
    assert "(nan vs" in str(info.value) or "vs nan)" in str(info.value)
