"""End-to-end acceptance suite.

Each test prints a single ``criterion N: PASS/FAIL`` verdict line (visible
with ``pytest -s`` and in failure reports) and then asserts the stated
property at the stated tolerance.
"""

import json

import numpy as np
import pytest

from ddgconf import Realization, build, fileio, hqd, laplace, moebius, weierstrass
from ddgconf import deform as deform_mod
from ddgconf.cli import main as cli_main
from ddgconf.realization import (
    check_conformal_equiv,
    check_pattern,
    cross_ratios,
    intersection_angles,
)

import theorems
from conftest import (
    WHEEL6_FACES,
    delaunay_disk,
    grid_disk,
    random_harmonic,
    random_moebius,
)


def _verdict(n, ok, note=""):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'}"
    if note:
        line += f" ({note})"
    print(line)
    return ok


def wheel6_root_q(scale=1.0):
    return hqd.QuadDiff(scale * np.cos(2.0 * np.pi * np.arange(6) * 2.0 / 6.0))


def test_criterion_01_moebius_invariance(wheel6):
    rng = np.random.default_rng(101)
    worst = 0.0
    for r in (wheel6, grid_disk(19)):
        cr = cross_ratios(r)
        scale = np.abs(cr).max()
        for _ in range(100):
            phi = random_moebius(r, rng)
            cr2 = cross_ratios(Realization(r.mesh, phi.apply(r.z)))
            worst = max(worst, float(np.abs(cr2 - cr).max() / scale))
    ok = worst <= 1e-10
    assert _verdict(1, ok, f"max relative deviation {worst:.3e}")


def test_criterion_02_reconstruction_factors(wheel6_irregular):
    r = wheel6_irregular
    rng = np.random.default_rng(102)
    s = float(np.exp(rng.uniform(-1, 1)))
    theta = float(rng.uniform(0.1, 2 * np.pi - 0.1))
    b_scaled = Realization(r.mesh, s * r.z)
    b_rotated = Realization(r.mesh, np.exp(1j * theta) * r.z)

    rep_u = check_conformal_equiv(r, b_scaled)
    rep_a = check_pattern(r, b_rotated)
    assert rep_u.equivalent and rep_a.equivalent
    spread_ok = rep_u.factor_spread <= 1e-10 and rep_a.factor_spread <= 1e-10

    # |w_j - w_i| = e^{(u_i+u_j)/2} |z_j - z_i| gives u = ln s for w = s z, and
    # arg((w_j - w_i)/(z_j - z_i)) = (alpha_i+alpha_j)/2 gives alpha = theta
    u_err = float(np.abs(rep_u.factors - np.log(s)).max())
    # wrap each angle error into (-pi, pi] before taking the max
    a_err = float(np.abs(np.angle(np.exp(1j * (rep_a.factors - theta)))).max())
    ok = spread_ok and u_err <= 1e-10 and a_err <= 1e-10

    u_ratio = float(np.mean(rep_u.factors) / np.log(s))
    a_ratio = float(np.mean(rep_a.factors) / theta)
    _verdict(
        2,
        ok,
        f"measured u = {u_ratio:.12f} * ln s and alpha = {a_ratio:.12f} * theta; "
        f"asserted u = ln s and alpha = theta (mod 2 pi) deviate by "
        f"{u_err:.3e} / {a_err:.3e}",
    )
    assert ok


def test_criterion_03_harmonic_solver():
    worst = 0.0
    for seed, n in ((103, 200), (104, 700), (105, 2000)):
        r = delaunay_disk(n, seed=seed)
        h = random_harmonic(r, seed=seed + 1)
        res = np.abs(laplace.laplacian(r, h)).max()
        worst = max(worst, float(res / np.abs(h).max()))
    lin_worst = 0.0
    r = delaunay_disk(500, seed=106)
    for h in (r.z.real, r.z.imag, 1.5 * r.z.real - 0.25 * r.z.imag + 3.0):
        lin_worst = max(lin_worst, float(np.abs(laplace.laplacian(r, h)).max()))
    ok = worst <= 1e-10 and lin_worst <= 1e-11
    assert _verdict(3, ok, f"residual {worst:.3e}, linear {lin_worst:.3e}")


def test_criterion_04_deformation_equivalence():
    edge_worst = 0.0
    rot_worst = 0.0
    closure_ok = True
    radius_worst = 0.0
    for trial in range(20):
        r = delaunay_disk(80 + 4 * trial, seed=200 + trial)
        u = random_harmonic(r, seed=300 + trial)
        uscale = max(float(np.abs(u).max()), 1e-300)
        zdot = deform_mod.conformal_deformation(r, u)

        sigma = deform_mod.edge_rates(r, zdot).sigma
        omega_rot = deform_mod.edge_rates(r, 1j * zdot).omega
        mid = np.array([(u[i] + u[j]) / 2.0 for i, j in r.mesh.edge_ends.tolist()])
        edge_worst = max(edge_worst, float(np.abs(sigma - mid).max() / uscale))
        rot_worst = max(rot_worst, float(np.abs(omega_rot - mid).max() / uscale))

        rates = deform_mod.edge_rates(r, zdot)
        closure_ok = closure_ok and bool(deform_mod.check_triangle_compat(r, rates).ok.all())
        radius_worst = max(radius_worst, float(np.nanmax(theorems.radius_rate_error(r, rates))))
    ok = edge_worst <= 1e-10 and rot_worst <= 1e-10 and closure_ok and radius_worst <= 1e-5
    assert _verdict(
        4,
        ok,
        f"edge {edge_worst:.3e}, rotated {rot_worst:.3e}, radius rate {radius_worst:.3e}",
    )


def test_criterion_05_vertex_sums(wheel6_irregular):
    r = delaunay_disk(150, seed=107)
    rng = np.random.default_rng(108)

    u_arb = rng.standard_normal(r.mesh.vertex_count)
    i, j, _, _ = r.flap_points()
    raw = hqd._duz(r, u_arb) * (r.z[j] - r.z[i])
    purity = float(np.abs(raw.real).max())
    purity_ok = purity <= 1e-11 * np.abs(raw).max()

    u_h = random_harmonic(r, seed=109)
    q = hqd.qdiff_from_harmonic(r, u_h)
    rep = hqd.verify_qdiff(r, q, tol=1e-10)
    harmonic_ok = rep.holomorphic

    rr = wheel6_irregular
    u_bad = rng.standard_normal(7)
    q_bad = hqd.qdiff_from_function(rr, u_bad)
    rep_bad = hqd.verify_qdiff(rr, q_bad, tol=1e-10)
    lap = laplace.laplacian(rr, u_bad)
    defect_ok = True
    for pos, v in enumerate(rr.mesh.interior_vertices):
        # (i/2) sum_j w_ij (u_i - u_j); the laplacian helper sums (u_j - u_i)
        expect = -0.5j * lap[pos]
        defect_ok &= abs(rep_bad.vertex_sum[v] - expect) <= 1e-10
        defect_ok &= (abs(rep_bad.vertex_sum[v]) > 1e-10) == (abs(lap[pos]) > 1e-10)
        defect_ok &= abs(rep_bad.weighted_sum[v]) <= 1e-10
    ok = purity_ok and harmonic_ok and bool(defect_ok)
    assert _verdict(5, ok, f"purity {purity:.3e}")


def test_criterion_06_roundtrip_and_kernel(wheel6, wheel6_irregular):
    worst = 0.0
    for r, seed in ((wheel6, 110), (delaunay_disk(200, seed=111), 112), (delaunay_disk(400, seed=113), 114)):
        u = random_harmonic(r, seed=seed)
        q = hqd.qdiff_from_harmonic(r, u)
        u2 = hqd.harmonic_from_qdiff(r, q)
        q2 = hqd.qdiff_from_harmonic(r, u2)
        worst = max(worst, float(np.abs(q2.values - q.values).max() / np.abs(q.values).max()))

    rr = wheel6_irregular
    n = rr.mesh.vertex_count
    A = np.zeros((len(rr.mesh.interior_edges), n))
    for col in range(n):
        e = np.zeros(n)
        e[col] = 1.0
        A[:, col] = hqd.qdiff_from_function(rr, e).imag
    sv = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(sv >= 1e-10 * sv[0]))
    null_dim = n - rank
    ok = worst <= 1e-9 and null_dim == 3
    assert _verdict(6, ok, f"roundtrip {worst:.3e}, kernel dim {null_dim}")


def test_criterion_07_pushforward():
    r = delaunay_disk(120, seed=115)
    u = random_harmonic(r, seed=116)
    q = hqd.qdiff_from_harmonic(r, u)
    rng = np.random.default_rng(117)
    worst = 0.0
    for _ in range(50):
        phi = random_moebius(r, rng)
        rep = hqd.qdiff_moebius_pushforward_check(r, q, phi, tol=1e-9)
        worst = max(worst, rep.max_defect)
        if not rep.holomorphic:
            break
    ok = worst <= 1e-9
    assert _verdict(7, ok, f"max defect {worst:.3e}")


def test_criterion_08_cross_ratio_rate_constant(wheel6_irregular):
    r = wheel6_irregular
    u = random_harmonic(r, seed=118)
    q = hqd.qdiff_from_harmonic(r, u)
    zdot = deform_mod.conformal_deformation(r, u)

    t = 1e-6
    crp = cross_ratios(Realization(r.mesh, r.z + t * zdot))
    crm = cross_ratios(Realization(r.mesh, r.z - t * zdot))
    fd = np.log(crp / crm) / (2.0 * t)
    php = intersection_angles(Realization(r.mesh, r.z + t * zdot))
    phm = intersection_angles(Realization(r.mesh, r.z - t * zdot))
    dphi = np.angle(np.exp(1j * (php - phm))) / (2.0 * t)

    # q = du_z dz is the log-derivative of the cross ratio, so the
    # intersection angles arg cr change at rate Im q
    scale = np.abs(q.values).max()
    q_err = float(np.abs(q.values - fd).max() / scale)
    phi_err = float(np.abs(dphi - q.imag).max() / np.abs(dphi).max())
    ok = q_err <= 1e-5 and phi_err <= 1e-5

    ratio = float(np.mean((fd / q.values).real))
    phi_ratio = float(np.mean(dphi / q.imag))
    _verdict(
        8,
        ok,
        f"measured d/dt log cr = {ratio:+.9f} * q and phi rate = "
        f"{phi_ratio:+.9f} * Im q; asserted d/dt log cr = q, phi rate = Im q "
        f"deviate by {q_err:.3e} / {phi_err:.3e}",
    )
    assert ok


def test_criterion_09_sl2_layer(wheel6_irregular):
    r = delaunay_disk(120, seed=119)
    u = random_harmonic(r, seed=120)
    mu = -0.5 * hqd.qdiff_from_harmonic(r, u).values
    form = moebius.sl2_form_from_rates(r, mu)

    psi = theorems.lift(r.z)
    eig_worst = 0.0
    mscale = np.abs(form.matrices).max()
    for idx, e in enumerate(r.mesh.interior_edges):
        i, j = r.mesh.edge_ends[e].tolist()
        eta = form.matrices[idx]
        ri = np.abs(eta @ psi[i] + mu[idx] * psi[i]).max()
        rj = np.abs(eta @ psi[j] - mu[idx] * psi[j]).max()
        eig_worst = max(eig_worst, float(max(ri, rj) / mscale))

    pos_rep = moebius.check_sl2_form_closed(r, form, tol=1e-10)
    mu_bad = mu.copy()
    mu_bad[0] += 0.2 * np.abs(mu).max()
    form_bad = moebius.sl2_form_from_rates(r, mu_bad)
    neg_rep = moebius.check_sl2_form_closed(r, form_bad, tol=1e-10)
    closed_ok = pos_rep.closed and theorems.sl2_equivalence_ok(r, form, tol=1e-10)
    closed_ok = closed_ok and (not neg_rep.closed) and theorems.sl2_equivalence_ok(r, form_bad, tol=1e-10)

    rng = np.random.default_rng(121)
    rr = wheel6_irregular
    mu_flow_worst = 0.0
    for _ in range(5):
        a, b, c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        flow_mu = moebius.rates_from_deformation(rr, a * rr.z**2 + b * rr.z + c)
        mu_flow_worst = max(mu_flow_worst, float(np.abs(flow_mu).max()))

    zdot = deform_mod.conformal_deformation(r, u)
    b_real = Realization(r.mesh, r.z + 0.02 * zdot)
    trep = moebius.transition_matrices(r, b_real)
    cr_res = theorems.cross_ratio_residual(r, b_real, trep)
    cycle_res = theorems.cycle_residual(r.mesh, trep.transitions)
    trans_ok = cr_res <= 1e-10 and cycle_res <= 1e-9

    ok = eig_worst <= 1e-12 and closed_ok and mu_flow_worst <= 1e-12 and trans_ok
    assert _verdict(
        9,
        ok,
        f"eigen {eig_worst:.3e}, moebius-flow mu {mu_flow_worst:.3e}, "
        f"cr {cr_res:.3e}, cycle {cycle_res:.3e}",
    )


def test_criterion_10_minimal_pipeline(wheel6):
    cases = [(wheel6, wheel6_root_q(0.8))]
    for seed in (122, 124):
        r = delaunay_disk(150, seed=seed)
        u = random_harmonic(r, seed=seed + 1)
        cases.append((r, hqd.qdiff_from_harmonic(r, u)))

    res_worst = 0.0
    k_imag_worst = 0.0
    round_worst = 0.0
    closure_worst = 0.0
    bitwise_ok = True
    for r, q in cases:
        surf = weierstrass.weierstrass_integrate(r, q)
        closure_worst = max(closure_worst, surf.closure_defect)
        n = weierstrass.gauss_map(r)
        rep = weierstrass.verify_minimal(r.mesh, n, surf.f, tol=1e-9)
        res_worst = max(res_worst, rep.max_residual)

        for idx, e in enumerate(r.mesh.interior_edges):
            i, j = r.mesh.edge_ends[e].tolist()
            kc = -1j * q.values[idx] / abs(r.z[j] - r.z[i]) ** 2
            k_imag_worst = max(k_imag_worst, abs(kc.imag))

        q2 = weierstrass.qdiff_from_minimal(r, surf.f)
        round_worst = max(
            round_worst,
            float(np.abs(q2.imag - q.imag).max() / max(np.abs(q.imag).max(), 1e-300)),
        )
        alpha = 0.75
        bitwise_ok = bitwise_ok and np.array_equal(
            surf.at_phase(alpha).f, surf.at_phase(alpha + 2.0 * np.pi).f
        )
    ok = (
        res_worst <= 1e-9
        and k_imag_worst <= 1e-12
        and round_worst <= 1e-10
        and closure_worst <= 1e-10
        and bitwise_ok
    )
    assert _verdict(
        10,
        ok,
        f"residual {res_worst:.3e}, roundtrip {round_worst:.3e}, "
        f"closure {closure_worst:.3e}, bitwise {bitwise_ok}",
    )


def test_criterion_11_cli_determinism(tmp_path, capsys, monkeypatch):
    mesh = build(WHEEL6_FACES)
    rng = np.random.default_rng(125)
    z = np.concatenate(
        [[0.03 - 0.06j], np.exp(2j * np.pi * np.arange(6) / 6.0) * (1 + 0.1 * rng.standard_normal(6))]
    )
    r = Realization(mesh, z)
    wheel = tmp_path / "wheel.obj"
    fileio.write_obj_planar(wheel, mesh, z)
    u = random_harmonic(r, seed=126)
    udata = tmp_path / "u.json"
    udata.write_text(fileio.dump_json({"values": list(u)}))
    q = hqd.qdiff_from_harmonic(r, u)
    qdata = tmp_path / "q.json"
    qdata.write_text(fileio.dump_json({"q": fileio.edge_map_to_json(mesh, q.imag)}))

    def battery(tag):
        chunks = []
        prefix = str(tmp_path / f"min_{tag}")
        cmds = [
            ["mesh", "info", str(wheel)],
            ["hqd", "check", str(wheel), str(qdata)],
            ["hqd", "to-harmonic", str(wheel), str(qdata)],
            ["deform", "build", str(wheel), str(udata)],
        ]
        for cmd in cmds:
            assert cli_main(cmd) == 0
            chunks.append(capsys.readouterr().out)
        assert cli_main(["minimal", "build", str(wheel), str(qdata), "-o", prefix]) == 0
        chunks.append(capsys.readouterr().out.replace(prefix, "PREFIX"))
        for suffix in ("_report.json", "_gauss.obj", "_a0.obj", "_a0.785398.obj"):
            with open(prefix + suffix, "rb") as fh:
                chunks.append(fh.read().decode().replace(prefix, "PREFIX"))
        return chunks

    runs = []
    for tag, threads in (("r1t1", "1"), ("r2t1", "1"), ("r3t4", "4")):
        monkeypatch.setenv("DDG_THREADS", threads)
        runs.append(battery(tag))
    ok = runs[0] == runs[1] == runs[2]
    assert _verdict(11, ok, "byte-identical across runs and thread settings")
