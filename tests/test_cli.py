import json
import os

import numpy as np
import pytest

from ddgconf import Realization, build, fileio, hqd, laplace
from ddgconf import deform as deform_mod
from ddgconf.cli import main

from conftest import WHEEL6_FACES, deformed_grid_pair


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A wheel realization plus every data file the subcommands consume."""
    root = tmp_path_factory.mktemp("cli")
    mesh = build(WHEEL6_FACES)
    rng = np.random.default_rng(77)
    z = np.exp(2j * np.pi * np.arange(6) / 6.0)
    z = np.concatenate([[0.05 + 0.02j], z + 0.1 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))])
    r = Realization(mesh, z)

    paths = {"root": root}

    def obj(name, zz):
        p = root / name
        fileio.write_obj_planar(p, mesh, zz)
        paths[name.split(".")[0]] = str(p)

    obj("wheel.obj", z)
    obj("scaled.obj", (2.0 + 1.0j) * z + 0.5)
    obj("rotated.obj", np.exp(0.7j) * z - 0.2j)
    zbad = z.copy()
    zbad[0] += 0.4
    obj("bad.obj", zbad)

    def js(name, data):
        p = root / name
        p.write_text(fileio.dump_json(data))
        paths[name.split(".")[0]] = str(p)

    bnd = {str(v): float(rng.standard_normal()) for v in mesh.boundary_vertices}
    js("bnd.json", {"boundary": bnd})
    u = laplace.solve_dirichlet(r, {int(k): v for k, v in bnd.items()})
    js("u.json", {"values": list(u)})
    spike = np.zeros(7)
    spike[0] = 1.0
    js("spike.json", {"values": list(spike)})

    q = hqd.qdiff_from_harmonic(r, u)
    js("q.json", {"q": fileio.edge_map_to_json(mesh, q.imag)})
    qbad = q.imag.copy()
    qbad[0] += 0.5 * np.abs(qbad).max()
    js("qbad.json", {"q": fileio.edge_map_to_json(mesh, qbad)})

    zdot = deform_mod.conformal_deformation(r, u)
    js("zdot.json", {"values": [[v.real, v.imag] for v in zdot]})
    zdotbad = zdot.copy()
    zdotbad[0] += 0.3 * np.abs(zdot).max()
    js("zdotbad.json", {"values": [[v.real, v.imag] for v in zdotbad]})

    mu = -0.5 * q.values
    js("mu.json", {"mu": {k: [v.real, v.imag] for k, v in fileio.edge_map_to_json(mesh, mu).items()}})
    mubad = mu.copy()
    mubad[0] += 0.3 * np.abs(mu).max()
    js("mubad.json", {"mu": {k: [v.real, v.imag] for k, v in fileio.edge_map_to_json(mesh, mubad).items()}})
    return paths


def test_mesh_info(files, capsys):
    code, out, _ = run(capsys, "mesh", "info", files["wheel"])
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["vertices"] == 7
    assert data["faces"] == 6
    assert data["interior_edges"] == 6
    assert data["disk"] is True


def test_mesh_info_missing_file(files, capsys):
    code, out, err = run(capsys, "mesh", "info", str(files["root"]) + "/nope.obj")
    assert code == 1
    assert out == ""
    assert "error" in err


def test_check_conformal(files, capsys):
    code, out, _ = run(capsys, "check", "conformal", files["wheel"], files["scaled"])
    assert code == 0
    data = json.loads(out)
    assert data["equivalent"] is True
    expect = np.log(abs(2.0 + 1.0j))
    assert np.abs(np.array(data["u"]) - expect).max() < 1e-10


def test_check_conformal_rejects(files, capsys):
    code, out, _ = run(capsys, "check", "conformal", files["wheel"], files["bad"])
    assert code == 2
    assert json.loads(out)["equivalent"] is False


def test_check_pattern(files, capsys):
    code, out, _ = run(capsys, "check", "pattern", files["wheel"], files["rotated"])
    assert code == 0
    data = json.loads(out)
    assert data["equivalent"] is True
    assert np.abs(np.array(data["alpha"]) - 0.7).max() < 1e-10


def test_harmonic_solve_and_check(files, capsys):
    code, out, _ = run(capsys, "harmonic", "solve", files["wheel"], files["bnd"])
    assert code == 0
    values = json.loads(out)["values"]
    assert len(values) == 7
    code, out, _ = run(capsys, "harmonic", "check", files["wheel"], files["u"])
    assert code == 0
    assert json.loads(out)["harmonic"] is True


def test_harmonic_check_rejects(files, capsys):
    code, out, _ = run(capsys, "harmonic", "check", files["wheel"], files["spike"])
    assert code == 2
    data = json.loads(out)
    assert data["harmonic"] is False
    assert "laplacian" in data


def test_deform_build_and_check(files, capsys):
    code, out, _ = run(capsys, "deform", "build", files["wheel"], files["u"])
    assert code == 0
    data = json.loads(out)
    assert data["scale_rate_residual"] < 1e-10
    assert len(data["zdot"]) == 7
    code, out, _ = run(capsys, "deform", "check", files["wheel"], files["zdot"])
    assert code == 0
    assert json.loads(out)["compatible"] is True


def test_deform_build_nonharmonic_is_verification_failure(files, capsys):
    code, out, _ = run(capsys, "deform", "build", files["wheel"], files["spike"])
    assert code == 2
    data = json.loads(out)
    assert data["verdict"] == "fail"
    assert data["error"] == "not_harmonic"


def test_deform_check_arbitrary_motion(files, capsys):
    """Rates induced by any genuine vertex motion close on every face, even a
    non-conformal one, so the check passes."""
    code, out, _ = run(capsys, "deform", "check", files["wheel"], files["zdotbad"])
    assert code == 0
    assert json.loads(out)["compatible"] is True


def test_hqd_check_roundtrip(files, capsys):
    code, out, _ = run(capsys, "hqd", "check", files["wheel"], files["q"])
    assert code == 0
    assert json.loads(out)["holomorphic"] is True
    code, out, _ = run(capsys, "hqd", "check", files["wheel"], files["qbad"])
    assert code == 2
    assert json.loads(out)["holomorphic"] is False


def test_hqd_from_and_to_harmonic(files, capsys):
    code, out, _ = run(capsys, "hqd", "from-harmonic", files["wheel"], files["u"])
    assert code == 0
    q_map = json.loads(out)["q"]
    reference = json.loads(open(files["q"]).read())["q"]
    for key, val in reference.items():
        assert q_map[key] == pytest.approx(val, abs=1e-14)
    code, out, _ = run(capsys, "hqd", "to-harmonic", files["wheel"], files["q"])
    assert code == 0
    assert json.loads(out)["residual"] < 1e-10


def test_hqd_moebius_battery(files, capsys):
    code, out, _ = run(capsys, "hqd", "moebius-test", files["wheel"], files["q"])
    assert code == 0
    data = json.loads(out)
    assert data["holomorphic"] is True
    assert data["maps"] == 50


def test_moebius_mu_eta_transitions(files, capsys):
    code, out, _ = run(capsys, "moebius", "mu", files["wheel"], files["zdot"])
    assert code == 0
    mu_map = json.loads(out)["mu"]
    reference = json.loads(open(files["mu"]).read())["mu"]
    for key, val in reference.items():
        assert mu_map[key][0] == pytest.approx(val[0], abs=1e-10)
        assert mu_map[key][1] == pytest.approx(val[1], abs=1e-10)

    code, out, _ = run(capsys, "moebius", "eta", files["wheel"], files["mu"])
    assert code == 0
    assert json.loads(out)["closed"] is True
    code, out, _ = run(capsys, "moebius", "eta", files["wheel"], files["mubad"])
    assert code == 2

    code, out, _ = run(capsys, "moebius", "transitions", files["wheel"], files["scaled"])
    assert code == 0
    assert json.loads(out)["consistent"] is True


def test_moebius_transitions_accepts_a_correct_pair_with_large_transitions(capsys, tmp_path):
    a, b = deformed_grid_pair()
    paths = [str(tmp_path / "a.obj"), str(tmp_path / "b.obj")]
    for path, r in zip(paths, (a, b)):
        fileio.write_obj_planar(path, r.mesh, r.z)
    code, out, _ = run(capsys, "moebius", "transitions", *paths)
    assert code == 0
    data = json.loads(out)
    assert data["consistent"] is True
    assert data["max_cycle_residual"] < 1e-12


def test_minimal_build_and_verify(files, capsys, tmp_path):
    prefix = str(tmp_path / "wheel")
    code, out, _ = run(
        capsys, "minimal", "build", files["wheel"], files["q"], "-o", prefix
    )
    assert code == 0
    data = json.loads(out)
    assert data["closure_defect"] < 1e-10
    assert os.path.exists(prefix + "_report.json")
    assert os.path.exists(prefix + "_gauss.obj")
    for entry in data["surfaces"]:
        assert os.path.exists(entry["file"])
        assert entry["minimality_residual"] < 1e-9 or entry["alpha"] != 0.0

    dual0 = data["surfaces"][0]["file"]
    code, out, _ = run(capsys, "minimal", "verify", prefix + "_gauss.obj", dual0)
    assert code == 0
    assert json.loads(out)["minimal"] is True

    # perturb one dual vertex: verification must fail with exit code 2
    pts, polys = fileio.read_obj_polygons(dual0)
    pts[0, 0] += 1e-3
    broken = str(tmp_path / "broken.obj")
    fileio.write_obj(broken, pts, polys)
    code, out, _ = run(capsys, "minimal", "verify", prefix + "_gauss.obj", broken)
    assert code == 2
    assert json.loads(out)["minimal"] is False


def test_minimal_build_custom_alphas(files, capsys, tmp_path):
    prefix = str(tmp_path / "c")
    code, out, _ = run(
        capsys,
        "minimal", "build", files["wheel"], files["q"], "--alpha", "0,0.75", "-o", prefix,
    )
    assert code == 0
    data = json.loads(out)
    assert [e["alpha"] for e in data["surfaces"]] == [0.0, 0.75]
    assert os.path.exists(prefix + "_a0.obj")
    assert os.path.exists(prefix + "_a0.75.obj")


def test_nonholomorphic_minimal_build_fails(files, capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "minimal", "build", files["wheel"], files["qbad"], "-o", str(tmp_path / "x"),
    )
    assert code == 2
    assert json.loads(out)["verdict"] == "fail"


def test_thread_env_validation(files, capsys, monkeypatch):
    monkeypatch.setenv("DDG_THREADS", "zero")
    code, out, err = run(capsys, "mesh", "info", files["wheel"])
    assert code == 1
    assert "DDG_THREADS" in err
    monkeypatch.setenv("DDG_THREADS", "0")
    code, _, _ = run(capsys, "mesh", "info", files["wheel"])
    assert code == 1


def test_outputs_deterministic(files, capsys, monkeypatch, tmp_path):
    """Byte-identical reports across repeated runs and thread settings."""
    outputs = []
    for n, threads in enumerate(("1", "4", "1")):
        monkeypatch.setenv("DDG_THREADS", threads)
        prefix = str(tmp_path / f"run{n}")
        code, out, _ = run(
            capsys, "minimal", "build", files["wheel"], files["q"], "-o", prefix
        )
        assert code == 0
        surfaces = out
        with open(prefix + "_a0.obj", "rb") as fh:
            obj_bytes = fh.read()
        code, out2, _ = run(capsys, "hqd", "to-harmonic", files["wheel"], files["q"])
        assert code == 0
        outputs.append((surfaces.replace(prefix, "PREFIX"), obj_bytes, out2))
    assert outputs[0] == outputs[1] == outputs[2]


def test_overflowing_q_ends_in_a_coded_error(files, capsys, tmp_path):
    """``q / dz`` overflows, so ``hqd to-harmonic`` fails its closure check
    with a NaN defect; the defect report cannot hold the NaN, so the run ends
    in ``error [non_finite]`` and exit code 1, not a traceback."""
    q = json.loads(open(files["q"]).read())["q"]
    path = tmp_path / "qbig.json"
    path.write_text(fileio.dump_json({"q": {key: 1e308 for key in q}}))
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, "hqd", "to-harmonic", files["wheel"], str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error [non_finite]: ")


def test_nan_defect_report_is_a_coded_error(files, capsys, monkeypatch):
    """A verification failure whose details hold a NaN exits 1 with one
    coded line on stderr."""

    def fails(*args, **kwargs):
        raise hqd.ClosureDefect("form fails to close on edge (0, 1)", edge=(0, 1), defect=np.nan)

    monkeypatch.setattr(hqd, "harmonic_from_qdiff", fails)
    code, out, err = run(capsys, "hqd", "to-harmonic", files["wheel"], files["q"])
    assert (code, out) == (1, "")
    assert err.startswith("error [non_finite]: ") and err.count("\n") == 1
