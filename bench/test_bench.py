"""Tests of the benchmark itself: every check accepts the program's output and
rejects a corrupted copy of it; the tracer records and restores; the fixed
boundary-sliver item fails the way the README says; BENCHMARK.json lists
the metrics the runner reports.

    python3 -m pytest bench/test_bench.py
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

import ddgconf as ddg  # noqa: E402
import ddgconf.cli  # noqa: E402,F401


@pytest.fixture(scope="module")
def disk():
    """A small fresh disk with the program's outputs on it."""
    z, faces = gen.circle_disk(300, [7, 0])
    r = ddg.Realization(ddg.build([tuple(f) for f in faces.tolist()]), z)
    m = checks.Mesh(faces, len(z))
    bnd = gen.boundary_values(gen.boundary_vertices(faces, len(z)), np.random.default_rng(7))
    u = ddg.laplace.solve_dirichlet(r, bnd)
    q = ddg.hqd.qdiff_from_harmonic(r, u).values
    return dict(
        z=z, r=r, m=m, bnd=bnd, u=u, q=q,
        q_err=checks.cotan_q(m, z, u, absolute=True),
        u2=ddg.hqd.harmonic_from_qdiff(r, q),
        zdot=ddg.deform.conformal_deformation(r, u),
        ms=ddg.weierstrass.weierstrass_integrate(r, q),
    )


@pytest.fixture(scope="module")
def grid():
    """A small jittered grid, a Moebius image, the pushed-forward field and
    the program's outputs on them."""
    z, faces = gen.jittered_grid(12, 0.45, [3, 0])
    a = ddg.Realization(ddg.build([tuple(f) for f in faces.tolist()]), z)
    m = checks.Mesh(faces, len(z))
    bnd = gen.boundary_values(gen.boundary_vertices(faces, len(z)), np.random.default_rng(3))
    u = ddg.laplace.solve_dirichlet(a, bnd)
    zdot = ddg.deform.conformal_deformation(a, u)
    coeffs = gen.moebius_map(z, np.random.default_rng(4))
    phi = ddg.moebius.MoebiusMap(*coeffs)
    w = phi.apply(z)
    b = ddg.Realization(a.mesh, w)
    v = zdot / (coeffs[2] * z + coeffs[3]) ** 2
    w2 = w + 1e-3 * v / np.abs(v).max()
    mu = ddg.moebius.rates_from_deformation(b, v)
    tr = ddg.moebius.transition_matrices(b, ddg.Realization(a.mesh, w2))
    q = ddg.hqd.qdiff_from_harmonic(a, u)
    return dict(
        z=z, m=m, coeffs=coeffs, w=w, w2=w2, mu=mu, tr=tr, q=q.values,
        q_err=checks.cotan_q(m, z, u, absolute=True),
        pf=ddg.hqd.qdiff_moebius_pushforward_check(a, q, phi),
        mu_ref=-0.5 * checks.dlog_cr(m, z, zdot),
        form=ddg.moebius.sl2_form_from_rates(b, mu),
        rc=ddg.realization.check_conformal_equiv(a, b),
        rp=ddg.realization.check_pattern(a, b),
    )


def _interior_vertex(m):
    return int(m.interior[len(m.interior) // 2])


def test_mesh_tables_match_program(disk):
    mesh, m = disk["r"].mesh, disk["m"]
    flaps = np.array([mesh.edge_flap(e) for e in mesh.interior_edges])
    assert np.array_equal(flaps, np.stack([m.i, m.j, m.k, m.l], 1))
    assert list(m.interior) == mesh.interior_vertices


def test_dirichlet(disk):
    m, z, u, bnd = disk["m"], disk["z"], disk["u"], disk["bnd"]
    assert checks.dirichlet(m, z, u, bnd).ok
    nudged = u.copy()
    nudged[_interior_vertex(m)] += 1e-6
    assert not checks.dirichlet(m, z, nudged, bnd).ok
    moved = u.copy()
    v = next(iter(bnd))
    moved[v] = np.nextafter(moved[v], np.inf)
    assert not checks.dirichlet(m, z, moved, bnd).ok


def test_qdiff(disk):
    m, z, u, q, q_err = disk["m"], disk["z"], disk["u"], disk["q"], disk["q_err"]
    assert checks.qdiff_matches(m, z, u, q).ok
    assert not checks.qdiff_matches(m, z, u, q * (1 + 1e-6)).ok
    assert checks.qdiff_sums(m, z, q, q_err).ok
    bumped = q.copy()
    bumped[len(q) // 2] += 1e-6j * np.abs(q).max()
    assert not checks.qdiff_sums(m, z, bumped, q_err).ok
    assert not checks.qdiff_sums(m, z, q + 1e-6 * np.abs(q).max(), q_err).ok


def test_deformation(disk):
    m, z, u, zdot = disk["m"], disk["z"], disk["u"], disk["zdot"]
    assert checks.deformation(m, z, u, zdot).ok
    bent = zdot.copy()
    bent[_interior_vertex(m)] += 1e-6 * np.abs(zdot).max()
    assert not checks.deformation(m, z, u, bent).ok
    # a small shear is not conformal
    assert not checks.deformation(m, z, u, zdot + 1e-6 * np.conj(z)).ok


def test_conformal_field_matches_program(disk):
    """The benchmark's own conformal field, which ``moebius-grid`` uses as
    input, is the program's ``conformal_deformation`` (same gauge)."""
    zdot = gen.conformal_field(disk["z"], disk["m"].faces, disk["u"])
    assert np.abs(zdot - disk["zdot"]).max() <= 1e-12 * np.abs(disk["zdot"]).max()


def test_roundtrip(disk):
    z, u, u2 = disk["z"], disk["u"], disk["u2"]
    assert checks.affine_roundtrip(z, u, u2).ok
    assert checks.affine_roundtrip(z, u, u2 + 3.0 - 2.0 * z.real).ok
    nudged = u2.copy()
    nudged[5] += 1e-6
    assert not checks.affine_roundtrip(z, u, nudged).ok


def test_surface(disk):
    m, z, ms = disk["m"], disk["z"], disk["ms"]
    n = checks.gauss_map(z)
    f0 = ms.f
    assert checks.parallel_edges(m, n, f0).ok
    moved = f0.copy()
    moved[len(f0) // 2, 2] += 1e-6 * np.abs(f0).max()
    assert not checks.parallel_edges(m, n, moved).ok

    assert checks.gauss_points(z, n).ok
    off = n.copy()
    off[3] *= 1 + 1e-9
    assert not checks.gauss_points(z, off).ok

    fam = {a: ms.at_phase(a).f for a in (0.0, math.pi / 4, math.pi / 2, math.pi)}
    assert checks.associate_family(fam).ok
    fam[math.pi / 4] = fam[math.pi / 4].copy()
    fam[math.pi / 4][0, 0] += 1e-9 * np.abs(f0).max()
    assert not checks.associate_family(fam).ok


def test_moebius_factors(grid):
    z, coeffs, rc, rp = grid["z"], grid["coeffs"], grid["rc"], grid["rp"]
    assert rc.equivalent and rp.equivalent
    assert checks.moebius_factors(z, coeffs, rc.factors, rp.factors).ok
    assert not checks.moebius_factors(z, coeffs, 2 * rc.factors, rp.factors).ok
    assert not checks.moebius_factors(z, coeffs, rc.factors, 2 * rp.factors).ok


def test_pushforward_report(grid):
    m, w, q, q_err, pf = grid["m"], grid["w"], grid["q"], grid["q_err"], grid["pf"]
    assert pf.holomorphic
    assert checks.pushforward_report(m, w, q, q_err, pf).ok
    v = _interior_vertex(m)
    bad = dataclasses.replace(pf, vertex_sum=dict(pf.vertex_sum))
    bad.vertex_sum[v] += 1e-6 * np.abs(q).max()
    assert not checks.pushforward_report(m, w, q, q_err, bad).ok
    bad = dataclasses.replace(pf, weighted_sum=dict(pf.weighted_sum))
    del bad.weighted_sum[v]
    assert not checks.pushforward_report(m, w, q, q_err, bad).ok
    for changes in (
        dict(max_defect=float("nan")),
        dict(max_defect=2 * pf.max_defect),
        dict(holomorphic=False),
        dict(holomorphic=True, max_defect=1.0),
    ):
        assert not checks.pushforward_report(m, w, q, q_err, dataclasses.replace(pf, **changes)).ok
    # the report on the original positions, not on the image
    assert not checks.pushforward_report(m, grid["z"], q, q_err, pf).ok


def test_rates_and_sl2(grid):
    m, w, mu, mu_ref, form = grid["m"], grid["w"], grid["mu"], grid["mu_ref"], grid["form"]
    assert checks.rates_invariant(mu, mu_ref).ok
    assert not checks.rates_invariant(mu * (1 + 1e-6), mu_ref).ok
    assert checks.sl2_closed(m, w, mu, form.matrices).ok
    bad = form.matrices.copy()
    bad[len(bad) // 2, 0, 1] += 1e-6 * np.abs(bad).max()
    assert not checks.sl2_closed(m, w, mu, bad).ok
    # matrices of rates that are not closed
    skew = mu.copy()
    inner = ~m.is_boundary[m.i] & ~m.is_boundary[m.j]
    skew[np.flatnonzero(inner)[0]] += 1e-6 * np.abs(mu).max()
    zi, zj = w[m.i], w[m.j]
    f = (skew / (zj - zi))[:, None, None]
    mats = f * np.stack(
        [np.stack([zi + zj, -2 * zi * zj], -1), np.stack([2 + 0 * zi, -zi - zj], -1)], -2
    )
    assert not checks.sl2_closed(m, w, skew, mats).ok


def test_transitions(grid):
    m, w, w2, tr = grid["m"], grid["w"], grid["w2"], grid["tr"]
    assert checks.transitions(m, w, w2, tr.face_maps, tr.eigenvalues).ok
    maps = tr.face_maps.copy()
    maps[1, 0, 1] += 1e-7
    assert not checks.transitions(m, w, w2, maps, tr.eigenvalues).ok
    lam = tr.eigenvalues.copy()
    lam[2] *= 1 + 1e-7
    assert not checks.transitions(m, w, w2, tr.face_maps, lam).ok


def test_fixed_item_fails_as_documented(tmp_path):
    """The boundary-sliver disk: the same five commands fail every time."""
    item = workloads.CliDisks(ddg, 0, str(tmp_path)).run(("fixed", workloads.FIXED_SEED))
    failed = [name for name, ok in item.ops if not ok]
    assert failed == ["deform_build", "deform_check", "hqd_check", "minimal_build", "minimal_verify"]
    assert item.check_failures == []
    assert item.errors[0] == "deform_build: exit 2: closure failure 1.175e-10 on co-tree edge (51, 340)"
    assert item.errors[2].startswith("hqd_check: exit 2: max_defect 1.2797")
    assert item.errors[3].startswith("minimal_build: exit 2: quadratic differential fails verification")


def test_tracer_records_and_restores(disk):
    original = ddg.laplace.solve_dirichlet
    tracer = Tracer()
    tracer.install(ddg)
    try:
        assert ddg.laplace.solve_dirichlet is not original
        # both module bindings of verify_qdiff are wrapped
        assert ddg.weierstrass.verify_qdiff is ddg.hqd.verify_qdiff
        tracer.item = 0
        ddg.laplace.solve_dirichlet(disk["r"], disk["bnd"])
        tracer.item = None
    finally:
        tracer.uninstall()
    assert ddg.laplace.solve_dirichlet is original
    per = tracer.per_item([0])[0]
    assert per["laplace.solve_dirichlet.calls"] == 1
    assert per["laplace.splu.calls"] == 1
    assert per["laplace.lu_solves"] >= 1 and per["laplace.lu_nnz"] > 0
    total = per["laplace.solve_dirichlet.total_s"]
    self_sum = sum(v for k, v in per.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(total, rel=1e-9)


def test_benchmark_json_lists_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(x["name"], x["unit"], x["better"]) for x in spec["per_layer"]] == run.per_layer_spec()
    assert [x["name"] for x in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {x["name"] for x in spec["end_to_end"]} == {"setup_s", "item_ref_p50", "verts_per_ref", "peak_rss_mb"}


@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_every_metric(trace, capsys):
    assert run.main(["--workload", "moebius-grid", "--seed", "1", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] == 1 and result["failed"] == 0
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
