import json
import os
from pathlib import Path

import numpy as np
import pytest

from ddgconf import Realization, build, fileio, hqd, laplace, moebius, weierstrass
from ddgconf import deform as deform_mod
from ddgconf.cli import COMMANDS, DEFAULT_ALPHAS, main

import output_digests
import theorems
from conftest import WHEEL6_FACES, delaunay_disk, deformed_grid_pair, jittered_grid


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


@pytest.mark.parametrize("command", [("deform", "build"), ("hqd", "from-harmonic")])
def test_not_harmonic_names_its_vertex_and_scale(files, capsys, command):
    """A spike on the hub fails the harmonicity that both commands require:
    the report names the hub and shows the defect beside its scale."""
    code, out, err = run(capsys, *command, files["wheel"], files["spike"])
    assert (code, err) == (2, "")
    data = json.loads(out)
    assert data["error"] == "not_harmonic" and data["vertex"] == 0
    assert data["defect"] / data["scale"] > laplace.HARMONIC_RTOL
    assert "at vertex 0 " in data["message"]


def test_failure_against_an_infinite_scale_is_a_coded_error(files, capsys, tmp_path):
    """``u = +-1e308`` is finite, but its differences overflow: the failing
    vertex's scale is infinite, so the report would hold a non-finite number."""
    path = tmp_path / "uhuge.json"
    path.write_text(fileio.dump_json({"values": [(-1) ** v * 1e308 for v in range(7)]}))
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, "deform", "build", files["wheel"], str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error [non_finite]: ") and err.count("\n") == 1


def test_tiny_q_failure_shows_its_scale(files, capsys, tmp_path):
    """A ``q`` of size 1e-19 whose weighted sums fail: its co-tree defect
    reads far below ``--tol``, but the report shows the scale it fails against."""
    qbad = json.loads(Path(files["qbad"]).read_text(encoding="utf-8"))["q"]
    path = tmp_path / "qtiny.json"
    path.write_text(fileio.dump_json({"q": {key: 1e-19 * v for key, v in qbad.items()}}))
    code, out, err = run(capsys, "hqd", "to-harmonic", files["wheel"], str(path), "--tol", "1e-9")
    assert (code, err) == (2, "")
    data = json.loads(out)
    assert data["error"] == "closure_defect"
    assert data["defect"] < 1e-9 < data["defect"] / data["scale"]
    assert data["edge"] in build(WHEEL6_FACES).edge_ends.tolist()
    assert f"scale {data['scale']:.3e}" in data["message"]


def test_deform_check_arbitrary_motion(files, capsys):
    """Rates induced by any genuine vertex motion close on every face, even a
    non-conformal one, but a motion that changes a length cross ratio is not
    holomorphic, so the check fails and names that edge."""
    code, out, err = run(capsys, "deform", "check", files["wheel"], files["zdotbad"])
    assert (code, err) == (2, "")
    data = json.loads(out)
    assert data["compatible"] is True and data["holomorphic"] is False
    assert data["worst"]["check"] == "real_part" and data["worst"]["defect"] > 1e-10 * data["worst"]["scale"]
    assert 0 in data["worst"]["edge"]  # the moved hub


DEFORM_MESHES = {
    "delaunay": lambda: delaunay_disk(300, seed=5),
    "delaunay-1k": lambda: delaunay_disk(1000, seed=2),
    "jittered": lambda: jittered_grid(14, 0.45, seed=3),  # negative cotan weights
    "sliver": lambda: delaunay_disk(1000, seed=1055),  # three nearly collinear hull points
}
# the field that `deform build` makes on the sliver is holomorphic only to
# 3e-11 as built and to 1.6e-10 at scale 1e100 (edge (879, 982), beside a
# cotan weight of 3.7e4): the build's rounding, not the check's
SLIVER_BUILD_ERROR = pytest.mark.xfail(
    reason="deform build's field on a sliver", raises=AssertionError, strict=True
)


@pytest.mark.parametrize(
    "kind", ["delaunay", "delaunay-1k", "jittered", pytest.param("sliver", marks=SLIVER_BUILD_ERROR)]
)
def test_deform_check_is_the_holomorphic_verdict(kind, capsys, tmp_path):
    """``harmonic solve`` then ``deform build`` gives a field that ``deform
    check`` passes; a random field and the shear ``conj(z)`` close on every
    face but change length cross ratios, so they fail.  The verdicts hold
    with the mesh shifted by 1e3 and 1e6 diameters and scaled by 1e+-100."""
    r = DEFORM_MESHES[kind]()
    diameter = np.ptp(r.z.real)
    rng = np.random.default_rng(8)
    bnd = tmp_path / "bnd.json"
    bnd.write_text(fileio.dump_json({"boundary": {
        str(v): float(rng.standard_normal()) for v in r.mesh.boundary_vertices
    }}))
    noise = rng.standard_normal(len(r.z)) + 1j * rng.standard_normal(len(r.z))
    for name, z in {
        "as built": r.z,
        "shift 1e3": r.z + 1e3 * diameter * (1 + 1j),
        "shift 1e6": r.z + 1e6 * diameter * (1 + 1j),
        "scale 1e100": 1e100 * r.z,
        "scale 1e-100": 1e-100 * r.z,
    }.items():
        obj = tmp_path / "mesh.obj"
        fileio.write_obj_planar(obj, r.mesh, z)
        files = [tmp_path / f for f in ("u.json", "zdot.json", "random.json", "shear.json")]
        assert run(capsys, "harmonic", "solve", str(obj), str(bnd), "-o", str(files[0]))[0] == 0
        assert run(capsys, "deform", "build", str(obj), str(files[0]), "-o", str(files[1]))[0] == 0
        files[2].write_text(fileio.dump_json({"values": np.ptp(z.real) * noise}))
        files[3].write_text(fileio.dump_json({"values": np.conj(z)}))
        verdicts = []
        for field in files[1:]:
            code, out, err = run(capsys, "deform", "check", str(obj), str(field))
            data = json.loads(out)
            assert err == "" and code == (0 if data["holomorphic"] else 2), (name, field.name)
            assert data["compatible"] is True, (name, field.name)
            verdicts.append(data["holomorphic"])
        assert verdicts == [True, False, False], name


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
    reference = json.loads(Path(files["q"]).read_text(encoding="utf-8"))["q"]
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


def test_hqd_moebius_battery_skips_degenerate_maps(files, capsys, monkeypatch):
    """The battery skips a drawn map whose determinant nearly vanishes and a
    map with its pole on a vertex of the normalised disk, and still checks
    50 maps."""
    mesh, z = fileio.read_obj_planar(files["wheel"])
    dz = z - z.mean()
    w = (dz / np.abs(dz).max())[np.argmax(np.abs(dz))]  # |w| = 1 in the normalised disk
    pole = [0.5, 0.0, 0.0, 0.0, 0.5, 0.0, -0.5 * w.real, -0.5 * w.imag]  # c w + d = 0
    drawn = [np.full(8, 0.5), np.array(pole)]  # ad - bc = 0, then the pole
    default_rng = np.random.default_rng

    class Battery:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def uniform(self, *args):
            return drawn.pop(0) if drawn else self.rng.uniform(*args)

    checked = []
    check = hqd.qdiff_moebius_pushforward_check

    def counted(r, q, phi, tol):
        checked.append(phi)
        return check(r, q, phi, tol)

    monkeypatch.setattr(np.random, "default_rng", Battery)
    monkeypatch.setattr(hqd, "qdiff_moebius_pushforward_check", counted)
    code, out, err = run(capsys, "hqd", "moebius-test", files["wheel"], files["q"])
    assert (code, err) == (0, "")
    assert json.loads(out)["holomorphic"] is True
    assert drawn == [] and len(checked) == 50
    assert all(abs(phi.a * phi.d - phi.b * phi.c) >= 1e-2 for phi in checked)


@pytest.fixture(scope="module")
def moved_disks(tmp_path_factory):
    """One disk at the origin and its images under ``z -> s z + c d`` (``d``
    the diameter), each with the ``q`` of the same boundary data on it."""
    root = tmp_path_factory.mktemp("moved")
    r = delaunay_disk(300, seed=5)
    diameter = float(np.abs(r.z[:, None] - r.z).max())
    bnd = {v: float(np.cos(3.0 * np.angle(r.z[v]))) for v in r.mesh.boundary_vertices}
    paths = {}
    for s, c in [(1.0, 0.0), (1.0, 1e3), (1.0, 1e6), (1e-3, 0.0), (1e3, 0.0)]:
        moved = Realization(r.mesh, s * r.z + c * diameter)
        q = hqd.qdiff_from_harmonic(moved, laplace.solve_dirichlet(moved, bnd))
        obj, data = root / f"disk_{s}_{c}.obj", root / f"q_{s}_{c}.json"
        fileio.write_obj_planar(obj, r.mesh, moved.z)
        data.write_text(fileio.dump_json({"q": fileio.edge_map_to_json(r.mesh, q.imag)}))
        paths[s, c] = str(obj), str(data)
    return paths


@pytest.mark.parametrize("s, c", [(1.0, 1e3), (1.0, 1e6), (1e-3, 0.0), (1e3, 0.0)])
def test_hqd_moebius_battery_ignores_where_the_disk_lies(moved_disks, capsys, s, c):
    """The battery's maps meet the disk in the same frame wherever it lies
    and whatever its size: a moved or scaled disk gets the verdict of the
    disk at the origin, with a defect within 10x of it."""
    origin = json.loads(run(capsys, "hqd", "moebius-test", *moved_disks[1.0, 0.0])[1])
    code, out, _ = run(capsys, "hqd", "moebius-test", *moved_disks[s, c])
    data = json.loads(out)
    assert origin["holomorphic"] is True
    assert code == 0 and data["holomorphic"] is True
    assert origin["max_defect"] / 10 <= data["max_defect"] <= 10 * origin["max_defect"]


def test_moebius_mu_eta_transitions(files, capsys):
    code, out, _ = run(capsys, "moebius", "mu", files["wheel"], files["zdot"])
    assert code == 0
    mu_map = json.loads(out)["mu"]
    reference = json.loads(Path(files["mu"]).read_text(encoding="utf-8"))["mu"]
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
    a, b = (Realization(*fileio.read_obj_planar(files[k])) for k in ("wheel", "scaled"))
    assert theorems.transitions_consistent(a, b, moebius.transition_matrices(a, b))


def _transitions_report(capsys, tmp_path, a, b):
    """``ddg moebius transitions`` on ``a`` and ``b`` written to OBJ files:
    its exit code 0, no stderr, its keys and its eigenvalues those of the
    library."""
    paths = [str(tmp_path / "a.obj"), str(tmp_path / "b.obj")]
    for path, r in zip(paths, (a, b)):
        fileio.write_obj_planar(path, r.mesh, r.z)
    code, out, err = run(capsys, "moebius", "transitions", *paths)
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert list(data) == ["schema", "command", "eigenvalues"]
    rep = moebius.transition_matrices(a, b)
    assert data["eigenvalues"] == json.loads(fileio.dump_json(fileio.edge_map_to_json(a.mesh, rep.eigenvalues)))
    return rep


def test_moebius_transitions_accepts_a_correct_pair_with_large_transitions(capsys, tmp_path):
    a, b = deformed_grid_pair()
    rep = _transitions_report(capsys, tmp_path, a, b)
    assert theorems.transitions_consistent(a, b, rep)
    assert rep.max_cycle_residual < 1e-12


@pytest.mark.parametrize("shift", [1e4, 1e5])
def test_moebius_transitions_accepts_a_shifted_disk_against_itself(capsys, tmp_path, shift):
    """Any two valid realizations of one mesh have transitions, so the
    command exits 0 however far the mesh lies from the origin.  It once
    checked the cross-ratio and cycle residuals against ``--tol`` 1e-10, and
    this disk, shifted by 1e4 or 1e5, failed them by rounding alone (2.4e-10
    and 5.2e-9) and exited 2."""
    r = delaunay_disk(500, seed=5)
    a = Realization(r.mesh, r.z + shift)
    rep = _transitions_report(capsys, tmp_path, a, a)
    assert np.abs(rep.eigenvalues - 1).max() < 1e-6


def test_moebius_transitions_names_a_non_finite_map(capsys, tmp_path):
    """A pair whose face maps overflow exits 1 with ``non_finite``."""
    r = delaunay_disk(50, seed=1)
    paths = [str(tmp_path / "a.obj"), str(tmp_path / "b.obj")]
    for path, z in zip(paths, (1e110 * r.z, r.z)):
        fileio.write_obj_planar(path, r.mesh, z)
    code, out, err = run(capsys, "moebius", "transitions", *paths)
    assert (code, out) == (1, "")
    assert err.startswith("error [non_finite]: the Moebius map of face ") and err.count("\n") == 1


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
    pts, ids, sizes = fileio.read_obj_polygons(dual0)
    pts[0, 0] += 1e-3
    broken = str(tmp_path / "broken.obj")
    fileio.write_obj(broken, pts, ids, sizes)
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


def test_minimal_build_without_alphas(files, capsys, tmp_path):
    prefix = str(tmp_path / "none")
    code, out, err = run(capsys, "minimal", "build", files["wheel"], files["q"], "--alpha", "", "-o", prefix)
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert (data["worst"], data["surfaces"], data["files"]) == (None, [], [prefix + "_gauss.obj"])


def test_minimal_build_formats_each_face_block_once(files, capsys, tmp_path, monkeypatch):
    """``minimal build`` writes its files in two ``write_objs`` calls, one per
    face block: the Gauss map's triangles, then the dual polygons, which every
    surface of the family shares."""
    calls, write_objs = [], fileio.write_objs
    monkeypatch.setattr(fileio, "write_objs", lambda paths, *rest: calls.append(list(paths)) or write_objs(paths, *rest))
    prefix = str(tmp_path / "w")
    code, out, _ = run(capsys, "minimal", "build", files["wheel"], files["q"], "-o", prefix)
    assert code == 0
    written = json.loads(out)["files"]
    assert len(written) == 1 + len(DEFAULT_ALPHAS)
    assert calls == [written[:1], written[1:]]


def test_nonholomorphic_minimal_build_fails(files, capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "minimal", "build", files["wheel"], files["qbad"], "-o", str(tmp_path / "x"),
    )
    assert code == 2
    assert json.loads(out)["verdict"] == "fail"


def _library_worst(checks, defects):
    """The ``worst`` entry recomputed from the library's Defects: the check
    and element of the largest relative defect."""
    k = int(np.argmax([d.worst for d in defects]))
    d = defects[k]
    e = int(np.argmax(d.relative))
    where = [int(v) for v in d.where[e]] if d.kind == "edge" else int(d.where[e])
    scale = float(np.broadcast_to(d.scale, d.value.shape)[e])
    return {**checks[k], d.kind: where, "defect": float(d.value[e]), "scale": scale}


def _bounded(capsys, argv, checks, defects, maps, failing=False):
    """The default report of ``argv`` holds the library's ``worst`` and no
    map unless it fails; ``--report`` adds the maps to it."""
    code, out, err = run(capsys, *argv)
    assert (code, err) == (2 if failing else 0, "")
    default = json.loads(out)
    assert default["worst"] == _library_worst(checks, defects)
    assert set(maps) & set(default) == (set(maps) if failing else set())
    code, out, err = run(capsys, *argv, "--report")
    assert (code, err) == (2 if failing else 0, "")
    assert json.loads(out) == {**default, **json.loads(fileio.dump_json(maps))}
    return default


@pytest.mark.parametrize("data", ["q", "qbad"])
def test_hqd_check_bounded_report(files, capsys, data):
    r = Realization(*fileio.read_obj_planar(files["wheel"]))
    q = fileio.qdiff_from_json(fileio.load_json(files[data]), r.mesh)
    rep = hqd.verify_qdiff(r, q, 1e-9)
    checks = [{"check": c} for c in ("real_part", "vertex_sum", "weighted_sum")]
    maps = {"vertex_sum": rep.vertex_sum, "weighted_sum": rep.weighted_sum}
    argv = ("hqd", "check", files["wheel"], files[data])
    default = _bounded(capsys, argv, checks, rep.defects, maps, failing=data == "qbad")
    keys = ["schema", "command", "tol", "holomorphic", "max_defect", "max_real_part", "worst"]
    assert list(default) == keys + ([] if rep.holomorphic else list(maps))


@pytest.mark.parametrize("data", ["mu", "mubad"])
def test_moebius_eta_bounded_report(files, capsys, data):
    r = Realization(*fileio.read_obj_planar(files["wheel"]))
    form = moebius.sl2_form_from_rates(r, fileio.mu_from_json(fileio.load_json(files[data]), r.mesh))
    closed = moebius.check_sl2_form_closed(r, form, 1e-10)
    checks = [{"check": c} for c in ("rate_sum", "weighted_sum")]
    eta = {
        fileio.edge_key(i, j): {"matrix": m, "vector": v}
        for (i, j), m, v in zip(r.mesh.interior_ends.tolist(), form.matrices, form.vectors)
    }
    argv = ("moebius", "eta", files["wheel"], files[data])
    _bounded(capsys, argv, checks, closed.defects, {"eta": eta}, failing=data == "mubad")


def test_minimal_build_and_verify_bounded_reports(files, capsys, tmp_path):
    r = Realization(*fileio.read_obj_planar(files["wheel"]))
    q = fileio.qdiff_from_json(fileio.load_json(files["q"]), r.mesh)
    ms = weierstrass.weierstrass_integrate(r, q, 0, 1e-9)
    n = weierstrass.gauss_map(r)
    defects = [weierstrass.verify_minimal(r.mesh, n, ms.at_phase(a).f, 1e-9).defect for a in DEFAULT_ALPHAS]
    checks = [{"check": "edge_parallelism", "alpha": a} for a in DEFAULT_ALPHAS]
    prefix = str(tmp_path / "w")
    argv = ("minimal", "build", files["wheel"], files["q"], "-o", prefix)
    default = _bounded(capsys, argv, checks, defects, {"k": fileio.edge_map_to_json(r.mesh, ms.k)})
    assert list(default) == ["schema", "command", "closure_defect", "worst", "surfaces", "files"]
    with open(prefix + "_report.json", encoding="utf-8") as fh:  # written by the --report run
        assert "k" in json.load(fh)

    gauss, dual = prefix + "_gauss.obj", prefix + "_a0.obj"
    gmesh, gn = fileio.read_obj(gauss)
    rep = weierstrass.verify_minimal(gmesh, gn, fileio.read_obj_polygons(dual)[0], 1e-9)
    maps = {"k": fileio.edge_map_to_json(gmesh, rep.k)}
    checks = [{"check": "edge_parallelism"}]
    _bounded(capsys, ("minimal", "verify", gauss, dual), checks, [rep.defect], maps)

    pts, ids, sizes = fileio.read_obj_polygons(dual)
    pts[0, 0] += 1e-3
    broken = str(tmp_path / "broken.obj")
    fileio.write_obj(broken, pts, ids, sizes)
    rep = weierstrass.verify_minimal(gmesh, gn, pts, 1e-9)
    maps = {"k": fileio.edge_map_to_json(gmesh, rep.k)}
    _bounded(capsys, ("minimal", "verify", gauss, broken), checks, [rep.defect], maps, failing=True)


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
    q = json.loads(Path(files["q"]).read_text(encoding="utf-8"))["q"]
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


def test_strip_without_interior_vertices(tmp_path, capsys):
    """On a 2x6 strip every vertex lies on the boundary: ``interior_edges``
    is still an int64 array, the solve returns the boundary data and the
    check reports empty vertex sums."""
    mesh = build([f for i in range(5) for f in ((i, i + 1, 7 + i), (i, 7 + i, 6 + i))])
    assert mesh.interior_edges.dtype == np.int64 and mesh.interior_edges.shape == (9,)
    assert mesh.interior_vertices == []
    obj, bnd, q = (str(tmp_path / name) for name in ("strip.obj", "bnd.json", "q.json"))
    fileio.write_obj_planar(obj, mesh, np.r_[np.arange(6), np.arange(6) + 1j])
    with open(bnd, "w") as fh:
        fh.write(fileio.dump_json({"boundary": {str(v): float(v) for v in range(12)}}))
    with open(q, "w") as fh:
        fh.write(fileio.dump_json({"q": fileio.edge_map_to_json(mesh, np.ones(9))}))
    code, out, err = run(capsys, "harmonic", "solve", obj, bnd)
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "schema": 1, "command": "harmonic solve", "residual": 0.0, "values": list(range(12)),
    }
    code, out, err = run(capsys, "hqd", "check", obj, q, "--report")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "schema": 1, "command": "hqd check", "tol": 1e-9, "holomorphic": True, "max_defect": 0.0,
        "max_real_part": 0.0, "vertex_sum": {}, "weighted_sum": {},
        "worst": {"check": "real_part", "edge": [0, 7], "defect": 0.0, "scale": 1.0},
    }


def test_harmonic_solve_report_adds_the_scale(files, capsys):
    code, out, err = run(capsys, "harmonic", "solve", files["wheel"], files["bnd"], "--report")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert list(data) == ["schema", "command", "residual", "values", "h_scale"]
    assert data["h_scale"] == max(map(abs, data["values"])) > 0


def test_deform_check_lists_every_face(files, capsys, tmp_path):
    """``--report`` or a failing check lists each face: a face that closes
    with its average rotation and scaling rates, a face that does not
    without them.  A motion of 1e20 at vertex 1 fails, by rounding, to
    close on the two faces at vertex 1."""
    r = Realization(*fileio.read_obj_planar(files["wheel"]))
    code, out, err = run(capsys, "deform", "check", files["wheel"], files["zdot"], "--report")
    assert (code, err) == (0, "")
    faces = json.loads(out)["faces"]
    assert [list(f) for f in faces] == [["face", "ok", "defect", "omega", "sigma"]] * 6
    zdot = fileio.vertex_field_from_json(fileio.load_json(files["zdot"]), 7, real=False)
    rep = deform_mod.check_triangle_compat(r, deform_mod.edge_rates(r, zdot))
    assert [f["omega"] for f in faces] == rep.omega_face.tolist()
    assert [f["sigma"] for f in faces] == rep.sigma_face.tolist()
    assert [complex(*f["defect"]) for f in faces] == rep.defect.tolist()

    spike = 0.1 * r.z
    spike[1] = 1e20
    path = tmp_path / "spike.json"
    path.write_text(fileio.dump_json({"zdot": spike}))
    code, out, err = run(capsys, "deform", "check", files["wheel"], str(path))
    assert (code, err) == (2, "")
    assert json.loads(out)["compatible"] is False
    faces = json.loads(out)["faces"]
    failed = [f for f, face in enumerate(WHEEL6_FACES) if 1 in face]
    assert [f["face"] for f in faces if not f["ok"]] == failed
    assert [list(f) for f in faces if not f["ok"]] == [["face", "ok", "defect"]] * 2
    assert [list(f) for f in faces if f["ok"]] == [["face", "ok", "defect", "omega", "sigma"]] * 4


def test_hqd_check_without_elements_has_no_worst(tmp_path, capsys):
    """On one triangle every check is empty: it passes, and ``worst`` is null."""
    obj, q = tmp_path / "tri.obj", tmp_path / "q.json"
    fileio.write_obj_planar(obj, build([(0, 1, 2)]), [0, 1, 1j])
    q.write_text(fileio.dump_json({"q": {}}))
    code, out, err = run(capsys, "hqd", "check", str(obj), str(q))
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "schema": 1, "command": "hqd check", "tol": 1e-9, "holomorphic": True,
        "max_defect": 0.0, "max_real_part": 0.0, "worst": None,
    }


def test_output_digests_list_every_command():
    """``tests/output_digests.py --wheel`` runs all 16 commands on the 6-face
    wheel, each with and without ``--report`` where it takes it, and two runs
    list the same digests: the listing names no scratch path."""
    lines = output_digests.digests(wheel_only=True)
    runs = [line.split(" | ")[1].split() for line in lines]
    assert {" ".join(argv[:2]) for argv in runs} == set(COMMANDS)
    reported = {" ".join(argv[:2]) for argv in runs if argv[-1] == "--report"}
    assert reported == {name for name, spec in COMMANDS.items() if "report" in spec[3].split()}
    assert all(" | exit 0 | " in line for line in lines)
    assert output_digests.digests(wheel_only=True) == lines


def test_output_digests_print_the_lines_that_differ():
    """``--against`` compares two listings line by line: each place where
    they differ gives the old line with ``-`` and the new with ``+``, and a
    listing that ends first gives no line there."""
    old = ["a | mesh info | exit 0", "a | hqd check | exit 0", "a | moebius eta | exit 0"]
    new = ["a | mesh info | exit 0", "a | hqd check | exit 2", "a | moebius eta | exit 0", "b | mesh info | exit 0"]
    assert output_digests.differing(old, old) == []
    assert output_digests.differing(old, new) == [
        "- a | hqd check | exit 0", "+ a | hqd check | exit 2", "+ b | mesh info | exit 0",
    ]
    assert output_digests.differing(new, old) == [
        "- a | hqd check | exit 2", "+ a | hqd check | exit 0", "- b | mesh info | exit 0",
    ]
