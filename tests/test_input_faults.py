"""Malformed input files end with exit code 1 and a coded error line on
stderr, never with a traceback."""

import json
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from ddgconf import Realization, build, deform, fileio, hqd, laplace, moebius, weierstrass
from ddgconf.cli import main
from ddgconf.errors import InvalidInput, MeshMismatch, NonFinite

import theorems
from conftest import SQUARE2_FACES, WHEEL6_FACES, delaunay_disk, random_harmonic
from test_fuzz import CASES, CODES, ERROR_LINE, _reject

TRIANGLE = ["v 0 0 0", "v 1 0 0", "v 0 1 0", "f 1 2 3"]


@pytest.fixture
def wheel(tmp_path):
    """A wheel realization with harmonic vertex data, as files."""
    mesh = build(WHEEL6_FACES)
    z = np.concatenate([[0.05 + 0.02j], np.exp(2j * np.pi * np.arange(6) / 6.0)])
    fileio.write_obj_planar(tmp_path / "wheel.obj", mesh, z)
    r = Realization(mesh, z)
    u = laplace.solve_dirichlet(r, {v: float(v) for v in mesh.boundary_vertices})
    (tmp_path / "u.json").write_text(fileio.dump_json({"values": list(u)}))
    q = fileio.edge_map_to_json(mesh, hqd.qdiff_from_harmonic(r, u).imag)
    (tmp_path / "q.json").write_text(fileio.dump_json({"q": q}))
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_input_error(capsys, *argv, code="invalid_input"):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err.startswith(f"error [{code}]: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize(
    "line, replaced",
    [
        ("v 1 x 0", 1),  # non-numeric coordinate
        ("v 1 0", 1),  # short vertex line
        ("v 0 nan 0", 2),  # non-finite coordinate
        ("v 0 1 inf", 2),  # non-finite third coordinate
        ("f 1 2 x", 3),  # non-numeric face index
        ("f 1 2 9", 3),  # face index past the last vertex
        ("f 0 1 2", 3),  # OBJ indices start at 1
        ("f -4 -2 -1", 3),  # relative index before the first vertex
        ("f 1 2 99999999999999999999", 3),  # an index past int64
        ("f 1 2 -99999999999999999999", 3),  # a relative index past int64
    ],
)
def test_malformed_obj(tmp_path, capsys, line, replaced):
    lines = list(TRIANGLE)
    lines[replaced] = line
    path = tmp_path / "bad.obj"
    path.write_text("\n".join(lines) + "\n")
    assert_input_error(capsys, "mesh", "info", path)


@pytest.mark.parametrize(
    "command, data",
    [
        (("hqd", "check"), {"q": {"0-1": "x"}}),
        (("hqd", "check"), {"q": {"0-1": float("inf")}}),
        (("moebius", "eta"), {"mu": {"0-1": [1.0]}}),
        (("moebius", "eta"), {"mu": {"0-1": None}}),
        (("harmonic", "check"), {"values": {"99": 1.0}}),
        (("harmonic", "check"), {"values": {"-1": 1.0}}),
        (("harmonic", "check"), {"values": {"a": 1.0}}),
        (("harmonic", "check"), {"values": {"0": "x"}}),
        (("harmonic", "check"), {"values": 3.0}),
        (("harmonic", "solve"), {"boundary": {"99": 1.0}}),
        (("harmonic", "solve"), {"boundary": {"1": "x"}}),
        (("deform", "check"), {"zdot": [[0.0, 0.0]] * 6 + [[0.0]]}),
        (("hqd", "check"), "{not json"),
    ],
)
def test_malformed_json(wheel, capsys, command, data):
    path = wheel / "data.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    assert_input_error(capsys, *command, wheel / "wheel.obj", path)


@pytest.mark.parametrize(
    "command, data, value",
    [
        (("harmonic", "solve"), {"boundary": {"1": True}}, True),
        (("harmonic", "solve"), {"boundary": {"1": "1.5"}}, "1.5"),
        (("harmonic", "check"), {"values": [0.0, True, "1.5", " 2 ", "1_0", 0.0, 0.0]}, True),
        (("harmonic", "check"), {"values": {"3": " 2 "}}, " 2 "),
        (("deform", "check"), {"zdot": [[0.0, 0.0]] * 6 + [[0.0, False]]}, [0.0, False]),
        (("deform", "check"), {"zdot": [[0.0, 0.0]] * 6 + ["1_0"]}, "1_0"),
        (("hqd", "check"), {"q": {"0-1": True}}, True),
        (("hqd", "check"), {"q": {"0-1": "1.5"}}, "1.5"),
        (("moebius", "eta"), {"mu": {"0-1": [1.0, True]}}, [1.0, True]),
        (("moebius", "eta"), {"mu": {"0-1": ["1", "0"]}}, ["1", "0"]),
    ],
)
def test_strings_and_booleans_are_not_numbers(wheel, capsys, command, data, value):
    """``float()`` would read ``True`` as 1 and ``" 2 "`` or ``"1_0"`` as
    numbers; JSON input takes only ints and floats, and the error names the value."""
    path = wheel / "data.json"
    path.write_text(json.dumps(data))
    err = assert_input_error(capsys, *command, wheel / "wheel.obj", path)
    assert f"{value!r} is not a " in err


def test_obj_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.obj"
    path.write_bytes(("\n".join(TRIANGLE) + "\n").encode() + b"\xff\xfe\n")
    err = assert_input_error(capsys, "mesh", "info", path)
    assert f"{path}: not UTF-8 text" in err


@pytest.mark.parametrize(
    "text",
    [
        b'{"values": [0.0, 1.0, \xff]}',  # not UTF-8
        b'{"values": [%s, 0, 0, 0, 0, 0, 0]}' % (b"1" * 400),  # an integer past the float range
        b'{"values": [%s, 0, 0, 0, 0, 0, 0]}' % (b"1" * 5000),  # past the interpreter's digit limit
        b'{"values": {"%s": 0.0}}' % (b"1" * 5000),  # a vertex key int() refuses
        b"[" * 100000 + b"]" * 100000,  # nesting past the recursion limit
    ],
    ids=["not-utf8", "400-digits", "5000-digits", "5000-digit-key", "deep-nesting"],
)
def test_json_number_and_depth_faults(wheel, capsys, text):
    path = wheel / "data.json"
    path.write_bytes(text)
    assert_input_error(capsys, "harmonic", "check", wheel / "wheel.obj", path)


def test_non_finite_gauss_map(tmp_path, capsys):
    gauss, dual = tmp_path / "gauss.obj", tmp_path / "dual.obj"
    gauss.write_text("\n".join(["v nan 0 1"] + TRIANGLE[1:]) + "\n")
    dual.write_text("v 0 0 0\n")
    assert_input_error(capsys, "minimal", "verify", gauss, dual)


@pytest.mark.parametrize(
    "gauss, dual",
    [
        (TRIANGLE, ["v 0 0 0"]),  # a Gauss point off the unit sphere
        (["v 1 0 0", "v 0 1 0", "v 0 0 1", "f 1 2 3"], ["v 0 0 0", "v 1 0 0"]),  # 2 dual vertices, 1 face
    ],
)
def test_bad_minimal_verify_input(tmp_path, capsys, gauss, dual):
    (tmp_path / "gauss.obj").write_text("\n".join(gauss) + "\n")
    (tmp_path / "dual.obj").write_text("\n".join(dual) + "\n")
    assert_input_error(capsys, "minimal", "verify", tmp_path / "gauss.obj", tmp_path / "dual.obj")


@pytest.mark.parametrize("threads", ["x", "0", "-2"])
def test_bad_thread_count(wheel, capsys, monkeypatch, threads):
    monkeypatch.setenv("DDG_THREADS", threads)
    assert_input_error(capsys, "mesh", "info", wheel / "wheel.obj")


@pytest.mark.parametrize(
    "argv",
    [
        ("hqd", "check", "wheel.obj", "q.json", "--tol", "nan"),
        ("hqd", "check", "wheel.obj", "q.json", "--tol", "-1"),
        ("hqd", "check", "wheel.obj", "q.json", "--tol", "0"),
        ("harmonic", "check", "wheel.obj", "u.json", "--tol", "inf"),
        ("minimal", "build", "wheel.obj", "q.json", "-o", "surf", "--tol", "nan"),
        ("minimal", "build", "wheel.obj", "q.json", "-o", "surf", "--alpha", "nan"),
        ("minimal", "build", "wheel.obj", "q.json", "-o", "surf", "--alpha", "0,-inf"),
        # usage errors: argparse would exit 2, the code of a verification failure
        ("harmonic", "check", "wheel.obj", "u.json", "--tol", "abc"),
        ("minimal", "build", "wheel.obj", "q.json", "-o", "surf", "--alpha", "0,zz"),
        ("harmonic", "solve", "wheel.obj"),  # a missing positional
        ("mesh", "info", "wheel.obj", "--bogus"),  # an unknown flag
        ("hqd", "from-harmonic", "wheel.obj", "u.json", "--tol", "1e-30"),  # a flag it does not read
    ],
)
def test_bad_flag(wheel, capsys, argv):
    before = sorted(wheel.iterdir())
    assert_input_error(capsys, *(wheel / a if a.endswith((".obj", ".json")) else a for a in argv))
    assert sorted(wheel.iterdir()) == before  # nothing written


@pytest.mark.parametrize(
    "alphas, first, second, tag",
    [
        ("0.1,0.1000001", 0.1, 0.1000001, "0.1"),
        ("1,1", 1.0, 1.0, "1"),
        ("0,-2e-7,3,-2.0000001e-7", -2e-7, -2.0000001e-7, "m2em07"),
    ],
)
def test_alphas_that_share_a_file(wheel, capsys, alphas, first, second, tag):
    """A surface's file is tagged with its alpha to 6 significant digits
    (``%g``): a list in which two tags repeat is refused before any file is
    written, where the second surface used to overwrite the first."""
    before = sorted(wheel.iterdir())
    err = assert_input_error(
        capsys, "minimal", "build", wheel / "wheel.obj", wheel / "q.json", "-o", wheel / "surf", "--alpha", alphas
    )
    assert f"{first!r} and {second!r}" in err and err.rstrip().endswith(f"surf_a{tag}.obj")
    assert sorted(wheel.iterdir()) == before


def test_coincident_gauss_points(wheel, capsys):
    """Gauss points 0 and 1 coincide on the interior edge 0-1."""
    n = np.zeros((7, 3))
    n[:, 2] = 1.0
    n[2:, :2] = 0.6 * np.exp(2j * np.pi * np.arange(5) / 5.0).view(float).reshape(-1, 2)
    n[2:, 2] = 0.8
    fileio.write_obj(wheel / "gauss.obj", n, np.ravel(WHEEL6_FACES), [3] * len(WHEEL6_FACES))
    fileio.write_obj(wheel / "dual.obj", np.arange(18.0).reshape(6, 3), [], [])
    err = assert_input_error(capsys, "minimal", "verify", wheel / "gauss.obj", wheel / "dual.obj",
                             code="coincident_vertices")
    assert "(0, 1)" in err


def test_overflow_warnings_stay_off_stderr(tmp_path, capsys):
    """With every ``q`` at 1e308 on a wheel of radius 0.1, ``q / dz``
    overflows.  Each command still ends in its one coded line or its defect
    report, and no numpy RuntimeWarning is raised on the way to stderr."""
    mesh = build(WHEEL6_FACES)
    z = 0.1 * np.concatenate([[0.05 + 0.02j], np.exp(2j * np.pi * np.arange(6) / 6.0)])
    fileio.write_obj_planar(tmp_path / "small.obj", mesh, z)
    q = fileio.edge_map_to_json(mesh, np.full(len(mesh.interior_edges), 1e308))
    (tmp_path / "q.json").write_text(fileio.dump_json({"q": q}))
    files = tmp_path / "small.obj", tmp_path / "q.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for command in (("hqd", "check"), ("hqd", "to-harmonic")):
            assert_input_error(capsys, *command, *files, code="non_finite")
        rc, out, err = run(capsys, "minimal", "build", *files, "-o", tmp_path / "min")
    assert (rc, err) == (2, "")
    assert json.loads(out) == {
        "schema": 1, "verdict": "fail", "error": "not_holomorphic",
        "message": "quadratic differential fails verification (defect nan)",
    }
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("x", [float("nan"), float("inf"), -float("inf"), complex(1.0, float("nan"))])
def test_dump_json_refuses_non_finite(x):
    with pytest.raises(NonFinite):
        fileio.dump_json({"values": [1.0, x]})


@pytest.mark.parametrize("anchor", ["--anchor-vertex=7", "--anchor-face=-1"])
def test_anchor_outside_the_mesh(wheel, capsys, anchor):
    assert_input_error(capsys, "deform", "build", wheel / "wheel.obj", wheel / "u.json", anchor)


def test_deform_build_report_feeds_deform_check(wheel, capsys):
    obj, zdot = wheel / "wheel.obj", wheel / "zdot.json"
    rc, _, _ = run(capsys, "deform", "build", obj, wheel / "u.json", "-o", zdot)
    assert rc == 0
    rc, out, err = run(capsys, "deform", "check", obj, zdot)
    assert (rc, err) == (0, "")
    assert json.loads(out)["compatible"] is True


def test_readers_unwrap_and_reject():
    zdot = {"schema": 1, "command": "deform build", "zdot": [[1.0, 2.0], [3.0, -4.0]]}
    assert fileio.vertex_field_from_json(zdot, 2, real=False).tolist() == [1 + 2j, 3 - 4j]
    with pytest.raises(InvalidInput):
        fileio.vertex_field_from_json({"values": [[1.0, 2.0]]}, 1)  # complex where real is due
    with pytest.raises(InvalidInput):
        Realization(build([(0, 1, 2)]), [0, 1, complex(0, np.inf)])


BOUNDARY = ", ".join(f'"{v}": {v}.0' for v in range(1, 7))


@pytest.mark.parametrize(
    "command, text, key",
    [
        (("harmonic", "solve"), '{"boundary": {%s, "1": 5.0}}' % BOUNDARY, "1"),
        (("hqd", "check"), '{"q": {"0-1": 0.0, "0-2": 0.0, "0-1": 1.0}}', "0-1"),
        (("hqd", "check"), '{"q": {}, "q": {"0-1": 1.0}}', "q"),
    ],
    ids=["boundary-vertex", "q-edge", "wrapper"],
)
def test_repeated_json_key(wheel, capsys, command, text, key):
    """A JSON object that repeats a key is bad input, not the last value winning."""
    path = wheel / "data.json"
    path.write_text(text)
    err = assert_input_error(capsys, *command, wheel / "wheel.obj", path)
    assert err == f"error [invalid_input]: {path}: JSON object repeats the key {key!r}\n"


SMALLEST = {
    "triangle": ([(0, 1, 2)], [0, 1, 1j]),  # one face: no interior edge, an empty dual tree
    "square2": (SQUARE2_FACES, [0, 1, 1 + 1j, 1j]),  # two faces: one interior edge
}


@pytest.mark.parametrize("kind", SMALLEST)
def test_every_command_on_the_smallest_meshes(tmp_path, capsys, kind):
    """Every command of the fuzz on one and on two triangles, with its four
    assertions: exit 0, 1 or 2 and nothing raised; exit 1 with no stdout and
    one coded stderr line; no stderr on exit 0; finite JSON on stdout."""
    faces, z = SMALLEST[kind]
    r = Realization(build(faces), np.array(z, dtype=complex))
    fileio.write_obj_planar(tmp_path / "disk.obj", r.mesh, r.z)
    fileio.write_obj_planar(tmp_path / "image.obj", r.mesh, 2.0 * r.z + 0.5j)
    bnd = {int(v): float(np.cos(3 * r.z[v].real)) for v in r.mesh.boundary_vertices}
    (tmp_path / "bnd.json").write_text(json.dumps({"boundary": bnd}))
    (tmp_path / "u.json").write_text(json.dumps({"values": laplace.solve_dirichlet(r, bnd).tolist()}))
    producers = {
        "deform build": ["disk.obj", "u.json", "-o", "zdot.json"],
        "hqd from-harmonic": ["disk.obj", "u.json", "-o", "q.json"],
        "moebius mu": ["disk.obj", "zdot.json", "-o", "mu.json"],
        "minimal build": ["disk.obj", "q.json", "--alpha", "0", "-o", "min"],
    }
    faults = []
    for command, argv in [*producers.items(), *CASES.items()]:
        paths = [str(tmp_path / a) if "." in a or a in ("min", "out") else a for a in argv]
        try:
            code = main([*command.split(), *paths])
        except Exception as exc:
            faults.append(f"{command}: raised {exc!r}")
            capsys.readouterr()
            continue
        out, err = capsys.readouterr()
        if code not in (0, 1, 2):
            faults.append(f"{command}: exit {code!r}")
        elif code == 1:
            line = ERROR_LINE.fullmatch(err)
            if out or not line or line[1] not in CODES:
                faults.append(f"{command}: exit 1 with stdout {out[:60]!r}, stderr {err[:120]!r}")
            continue
        if code == 0 and err:
            faults.append(f"{command}: exit 0 with stderr {err[:120]!r}")
        try:
            json.loads(out, parse_constant=_reject)
        except ValueError as exc:
            faults.append(f"{command}: exit {code} with stdout that is not finite JSON ({exc})")
    assert faults == []


# (function, one value per "vertex" or per "interior edge", call on the field x)
FIELD_TAKERS = {
    "laplacian": ("vertex", lambda r, f, x: laplace.laplacian(r, x)),
    "gradient_scale": ("vertex", lambda r, f, x: laplace.gradient_scale(r, x)),
    "check_harmonic": ("vertex", lambda r, f, x: laplace.check_harmonic(r, x)),
    "require_harmonic": ("vertex", lambda r, f, x: laplace.require_harmonic(r, x)),
    "conjugate_harmonic": ("vertex", lambda r, f, x: laplace.conjugate_harmonic(r, x)),
    "edge_rates": ("vertex", lambda r, f, x: deform.edge_rates(r, x)),
    "cross_ratio_rate": ("vertex", lambda r, f, x: deform.cross_ratio_rate(r, x)),
    "conformal_deformation": ("vertex", lambda r, f, x: deform.conformal_deformation(r, x)),
    "pattern_deformation": ("vertex", lambda r, f, x: deform.pattern_deformation(r, x)),
    "gradient": ("vertex", lambda r, f, x: hqd.gradient(r, x)),
    "qdiff_from_function": ("vertex", lambda r, f, x: hqd.qdiff_from_function(r, x)),
    "qdiff_from_harmonic": ("vertex", lambda r, f, x: hqd.qdiff_from_harmonic(r, x)),
    "qdiff_cotan": ("vertex", lambda r, f, x: theorems.qdiff_cotan(r, x)),
    "project_out_linear": ("vertex", lambda r, f, x: theorems.project_out_linear(r, x)),
    "cross_ratio_rate_check(u)": ("vertex", lambda r, f, x: theorems.cross_ratio_rate_check(r, x, f.zdot)),
    "cross_ratio_rate_check(zdot)": ("vertex", lambda r, f, x: theorems.cross_ratio_rate_check(r, f.u, x)),
    "rates_from_deformation": ("vertex", lambda r, f, x: moebius.rates_from_deformation(r, x)),
    "verify_qdiff": ("interior edge", lambda r, f, x: hqd.verify_qdiff(r, x)),
    "verify_qdiff(QuadDiff)": ("interior edge", lambda r, f, x: hqd.verify_qdiff(r, hqd.QuadDiff(x.imag))),
    "harmonic_from_qdiff": ("interior edge", lambda r, f, x: hqd.harmonic_from_qdiff(r, x)),
    "qdiff_moebius_pushforward_check": (
        "interior edge", lambda r, f, x: hqd.qdiff_moebius_pushforward_check(r, x, moebius.MoebiusMap(1, 0, 0, 1))
    ),
    "sl2_form_from_rates": ("interior edge", lambda r, f, x: moebius.sl2_form_from_rates(r, x)),
    "integrand": ("interior edge", lambda r, f, x: weierstrass.integrand(r, x)),
    "weierstrass_integrate": ("interior edge", lambda r, f, x: weierstrass.weierstrass_integrate(r, x)),
}


@pytest.fixture(scope="module")
def disk60():
    """``delaunay_disk(60, 1)`` with a harmonic ``u``, its ``q`` and its ``zdot``."""
    r = delaunay_disk(60, seed=1)
    u = random_harmonic(r, seed=2)
    return r, SimpleNamespace(u=u, q=hqd.qdiff_from_harmonic(r, u).values, zdot=deform.conformal_deformation(r, u))


@pytest.mark.parametrize("extra", [-1, 1, 5])
@pytest.mark.parametrize("name", FIELD_TAKERS)
def test_fields_of_the_wrong_length_raise_mesh_mismatch(disk60, name, extra):
    """A per-vertex or per-interior-edge field one short, one long or five
    long is named as a mesh mismatch, with the count each function expects,
    before it is indexed: not a numpy broadcast or index error, and not a
    result (a long vertex field once passed ``laplacian`` silently)."""
    r, fields = disk60
    per, call = FIELD_TAKERS[name]
    n = r.mesh.vertex_count if per == "vertex" else len(r.mesh.interior_edges)
    x = np.resize(fields.u if per == "vertex" else fields.q, n + extra)
    with pytest.raises(MeshMismatch, match=rf"^expected {n} values, one per {per}, got shape \({n + extra},\)$"):
        call(r, fields, x)


def _rates(r, f, **part):
    """The edge rates of ``f.zdot`` with ``sigma`` or ``omega`` replaced."""
    return deform.EdgeRates(**{**vars(deform.edge_rates(r, f.zdot)), **part})


def _form(r, f, mu):
    """The sl(2,C) form of ``-q / 2``, built by hand with the rates ``mu``."""
    form = moebius.sl2_form_from_rates(r, -0.5 * f.q)
    return moebius.SlForm(mu, form.matrices, form.vectors)


# (function, one value per "edge" or per "interior edge", call on the rates x)
RATE_TAKERS = {
    "check_triangle_compat(sigma)": ("edge", lambda r, f, x: deform.check_triangle_compat(r, _rates(r, f, sigma=x))),
    "check_triangle_compat(omega)": ("edge", lambda r, f, x: deform.check_triangle_compat(r, _rates(r, f, omega=x))),
    "holomorphic_defect(sigma)": ("edge", lambda r, f, x: deform.holomorphic_defect(r, _rates(r, f, sigma=x))),
    "holomorphic_defect(omega)": ("edge", lambda r, f, x: deform.holomorphic_defect(r, _rates(r, f, omega=x))),
    "check_sl2_form_closed": ("interior edge", lambda r, f, x: moebius.check_sl2_form_closed(r, _form(r, f, x))),
}


@pytest.mark.parametrize("extra", [-1, 1, 5])
@pytest.mark.parametrize("name", RATE_TAKERS)
def test_rates_of_the_wrong_length_raise_mesh_mismatch(disk60, name, extra):
    """``EdgeRates``, one value per row of ``edge_ends``, and the rates of a
    hand-built ``SlForm``, one per interior edge, one short, one long or five
    long are a mesh mismatch: not an index or broadcast error, and not a
    result (long ``EdgeRates`` once passed silently)."""
    r, fields = disk60
    per, call = RATE_TAKERS[name]
    n = len(r.mesh.edge_ends) if per == "edge" else len(r.mesh.interior_edges)
    x = np.resize(fields.u if per == "edge" else fields.q, n + extra)
    with pytest.raises(MeshMismatch, match=rf"^expected {n} values, one per {per}, got shape \({n + extra},\)$"):
        call(r, fields, x)
