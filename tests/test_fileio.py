import json
import re

import numpy as np
import pytest

from ddgconf import build, fileio
from ddgconf.errors import DDGError, InvalidInput, NonFinite

from conftest import WHEEL6_FACES, delaunay_disk


def test_obj_roundtrip(tmp_path):
    r = delaunay_disk(80, seed=70)
    path = tmp_path / "disk.obj"
    fileio.write_obj_planar(path, r.mesh, r.z)
    mesh, z = fileio.read_obj_planar(path)
    assert np.array_equal(mesh.faces, r.mesh.faces)
    assert np.abs(z - r.z).max() == 0.0  # 17 digits reproduce doubles exactly


def test_obj_nonplanar_rejected(tmp_path):
    path = tmp_path / "bent.obj"
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0.5]], dtype=float)
    fileio.write_obj(path, verts, [0, 1, 2], [3])
    with pytest.raises(DDGError):
        fileio.read_obj_planar(path)


def test_obj_malformed_vertex(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 1 2\nf 1 2 3\n")
    with pytest.raises(DDGError):
        fileio.read_obj(path)


def test_obj_quad_rejected(tmp_path):
    path = tmp_path / "quad.obj"
    verts = np.zeros((4, 3))
    verts[1, 0] = verts[2, 0] = verts[2, 1] = verts[3, 1] = 1.0
    fileio.write_obj(path, verts, [0, 1, 2, 3], [4])
    with pytest.raises(DDGError):
        fileio.read_obj(path)
    pts, ids, sizes = fileio.read_obj_polygons(path)
    assert pts.shape == (4, 3)
    assert ids.tolist() == [0, 1, 2, 3] and sizes.tolist() == [4]


def test_obj_comments_and_slashes(tmp_path):
    path = tmp_path / "annotated.obj"
    path.write_text("# header\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1 2/2 3/3\n")
    mesh, verts = fileio.read_obj(path)
    assert mesh.faces.tolist() == [[0, 1, 2]]
    assert verts.shape == (3, 3)


def test_obj_relative_indices(tmp_path):
    """A negative face index counts back from the last vertex read so far."""
    path = tmp_path / "relative.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\nv 1 1 0\nf 2 -1 3\n")
    verts, ids, sizes = fileio.read_obj_polygons(path)
    assert verts.shape == (4, 3)
    assert ids.tolist() == [0, 1, 2, 1, 3, 2] and sizes.tolist() == [3, 3]


@pytest.mark.parametrize(
    "text, face",
    [
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf -4 -2 -1\nf 1 2 9\n", "[-4, -2, -1]"),
        ("v 0 0 0\nv 1 0 0\nf -3 -2 -1\nv 0 1 0\n", "[-3, -2, -1]"),  # 3rd vertex comes later
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2 9\nf 0 1 2\n", "[1, 2, 9]"),
    ],
)
def test_obj_bad_index_names_first_bad_face(tmp_path, text, face):
    path = tmp_path / "bad.obj"
    path.write_text(text)
    with pytest.raises(InvalidInput, match=f"face {re.escape(face)} indexes past"):
        fileio.read_obj_polygons(path)


def test_byte_order_mark_is_dropped(tmp_path):
    """A UTF-8 byte-order mark does not hide the first vertex (which would
    shift every face index by one) or the JSON's opening brace."""
    path = tmp_path / "bom.obj"
    path.write_bytes(b"\xef\xbb\xbfv 9 9 0\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    verts, ids, sizes = fileio.read_obj_polygons(path)
    assert verts[0].tolist() == [9.0, 9.0, 0.0]
    assert ids.tolist() == [0, 1, 2] and sizes.tolist() == [3]
    path = tmp_path / "bom.json"
    path.write_bytes(b'\xef\xbb\xbf{"values": [1.5]}')
    assert fileio.load_json(path) == {"values": [1.5]}


def test_write_obj_bytes(tmp_path):
    """OBJ coordinates are written as ``%.17g``."""
    path = tmp_path / "pinned.obj"
    verts = [[0.1, 0.0, -1.5], [1e-20, 2.0, 3.0], [1 / 3, -0.0, 1e300], [5.0, 6.0, 7.0]]
    fileio.write_obj(path, verts, [0, 1, 2, 3, 2, 1, 0], [4, 3])
    assert path.read_text() == (
        "v 0.10000000000000001 0 -1.5\n"
        "v 9.9999999999999995e-21 2 3\n"
        "v 0.33333333333333331 -0 1.0000000000000001e+300\n"
        "v 5 6 7\n"
        "f 1 2 3 4\n"
        "f 3 2 1\n"
    )


def test_dump_json_bytes():
    """JSON floats are written as their shortest repr, numpy scalars as
    Python values, complex numbers as ``[re, im]``."""
    report = {
        "float": 0.1,
        "f64": np.float64(1 / 3),
        "int": np.int64(-7),
        "flag": np.bool_(True),
        "none": None,
        "c": 1.5 - 2.5j,
        "carr": np.array([1j, -0.25]),
        "nested": {"x": [np.float64(2.0), 1e-300], "y": {"z": False}},
    }
    assert fileio.dump_json(report) == """\
{
  "float": 0.1,
  "f64": 0.3333333333333333,
  "int": -7,
  "flag": true,
  "none": null,
  "c": [
    1.5,
    -2.5
  ],
  "carr": [
    [
      0.0,
      1.0
    ],
    [
      -0.25,
      0.0
    ]
  ],
  "nested": {
    "x": [
      2.0,
      1e-300
    ],
    "y": {
      "z": false
    }
  }
}
"""


def test_dump_json_types():
    text = fileio.dump_json(
        {
            "f": 0.1,
            "i": np.int64(3),
            "b": np.bool_(True),
            "b2": False,
            "c": 1.5 - 2.5j,
            "arr": np.array([1.0, 2.0]),
        }
    )
    data = json.loads(text)
    assert data["f"] == 0.1
    assert data["i"] == 3
    assert data["b"] is True
    assert data["b2"] is False
    assert data["c"] == [1.5, -2.5]
    assert data["arr"] == [1.0, 2.0]
    assert text.endswith("\n")


def test_dump_json_deterministic_17_digits():
    x = 1.0 / 3.0
    t1 = fileio.dump_json({"x": x})
    t2 = fileio.dump_json({"x": np.float64(x)})
    assert t1 == t2
    assert json.loads(t1)["x"] == x  # no precision lost at 17 digits


def _plain(x):
    """The ``default`` hook of the earlier ``json.dumps`` writer."""
    if isinstance(x, np.ndarray):
        if np.iscomplexobj(x):
            x = np.stack([x.real, x.imag], axis=-1)
        return x.tolist()
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, np.generic):
        return x.item()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _reference(obj):
    return json.dumps(obj, indent=2, allow_nan=False, default=_plain) + "\n"


_C = np.array([0.1 + 2j, -0.0 - 1e-300j, 5e-324, 1e308j, 1 / 3 - 2j / 3])
WRITER_BATTERY = [
    {}, [], (), [[]], [{}], {"a": [], "b": {}, "c": ()}, {"t": (1, 2.5, "x", (None,))},
    {"deep": {"a": [1, [2.5, {"b": [[], {}]}]], "c": {"d": {"e": {}}}}},
    {1: 2, 20: 3}, {1.5: "a", True: 1, False: 0, None: None, 3: 0.1, -0.0: 1e308},
    {"f64": np.float64(0.1), "f32": np.float32(0.1), "i64": np.int64(-3), "b": np.bool_(False),
     "c128": np.complex128(1 - 2j), "c": 0.5 - 0.0j},
    {"n": _C, "n2": np.stack([_C, _C[::-1]], axis=1), "m": np.array([[1j, 2], [3, -0.0]])},
    {"m3": _C[:4].reshape(2, 2)[None] * np.ones((3, 1, 1))},
    [-0.0, 5e-324, 1e308, -1e308, 1 / 3, 2 / 3, 0.1 + 0.2, 1e-300, 123456789.12345678, 1e16, 1e-5],
    {"s": "é \"\\\n\t\x00\x1f\u2028😀 /"}, {"é😀\n": "ü"},
    {"l": [1.0, np.float64(2.0), -0.0]}, {"rows": [[1.0, 2.0], [3.0, np.float64(-0.0)]]},
    {"rows": [[1.0, 2.0], [3, 4.0]]}, [[1.0, 2.0, 3.0]], [[[1.0, 2.0], [3.0, 4.0]]], [(1.0, 2.0)],
    {"map": {"0-1": 1.0, "0-2": np.float64(2.5)}}, {"map": {0: 1j, 5: -2 + 0j, 7: np.complex128(-0.0)}},
    {"map": {"0-1": [1.0, -2.0], "0-2": [0.5, 1e308]}}, {"map": {"a": {"matrix": _C[:4].reshape(2, 2)}}},
    np.array(3.0), np.array([[1, 2], [3, 4]]), np.array([True, False]), np.zeros((0, 2)),
    np.zeros((2, 0)), np.zeros((3, 2), dtype=np.complex64), np.array([1.5], dtype=np.float32),
    [None, True, False, 0, -1, 10**30, np.int64(7), np.bool_(True)], [1e308, 1e308], [[1e308, 1e308]],
    [np.float64(1e308), np.float64(1e308)], {"m": {0: complex(1e308, 1e308), 1: -1e308j}},
    {"worst": {"check": "vertex_sum", "edge": (3, 5), "defect": 0.0, "scale": 1.0}},
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("obj", WRITER_BATTERY, ids=range(len(WRITER_BATTERY)))
def test_writer_matches_json_dumps(obj):
    assert fileio.dump_json(obj) == _reference(obj)


def test_writer_matches_json_dumps_on_large_maps():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)
    c = x + 1j * x[::-1]
    keys = list(map("{}-{}".format, range(500), range(1, 501)))
    report = {
        "values": x, "zdot": c, "list": x.tolist(), "f64": list(x), "pairs": np.stack([x, x], 1).tolist(),
        "edges": dict(zip(keys, x.tolist())), "sums": dict(zip(range(500), c.tolist())),
        "mixed": dict(zip(range(500), list(c[:250]) + list(x[:250]))),
    }
    assert fileio.dump_json(report) == _reference(report)


NON_FINITE = [
    [float("nan")], [1.0, float("inf")], {"a": 1.0, "b": -float("inf")}, [np.float64("nan")],
    {"a": [1.0, 2.0], "b": [float("nan"), 1.0]}, {"c": complex(1, float("inf"))},
    {"c": np.complex128(complex(float("nan"), 1))}, {"c": np.array([1j, complex(float("inf"), 0)])},
    {"c": [1j, complex(0, float("nan"))]}, {"m": {1: complex(float("nan"), 0)}},
    {"m": {"0-1": [1.0, float("nan")]}}, {float("nan"): 1}, {"x": np.float64(-np.inf)},
    np.array([[1.0, np.nan], [np.inf, 2.0]]), {"x": float("nan"), "y": object()},
    [np.float32("inf")], {"rows": [[1.0, 2.0], [np.float64("inf"), float("nan")]]},
]


@pytest.mark.parametrize("obj", NON_FINITE, ids=range(len(NON_FINITE)))
def test_writer_names_the_first_non_finite_value(obj):
    with pytest.raises(ValueError) as info:
        _reference(obj)
    with pytest.raises(NonFinite) as error:
        fileio.dump_json(obj)
    assert str(error.value) == f"report holds a non-finite number ({info.value})"


OTHER_TYPES = [{np.int64(1): 2}, {"o": object()}, [object()], {(1, 2): 3}, {"y": object(), "x": float("nan")}]


@pytest.mark.parametrize("obj", OTHER_TYPES, ids=range(len(OTHER_TYPES)))
def test_writer_rejects_other_types(obj):
    with pytest.raises(TypeError):
        _reference(obj)
    with pytest.raises(TypeError):
        fileio.dump_json(obj)


def test_edge_key_canonical():
    assert fileio.edge_key(5, 2) == "2-5"
    assert fileio.edge_key(2, 5) == "2-5"


def test_edge_map_roundtrip():
    mesh = build(WHEEL6_FACES)
    vals = np.arange(6, dtype=float) + 0.5
    m = fileio.edge_map_to_json(mesh, vals)
    assert set(m) == {f"0-{v}" for v in range(1, 7)}
    q = fileio.qdiff_from_json(m, mesh)
    assert np.abs(q - 1j * vals).max() == 0.0
    mu = fileio.mu_from_json({k: [v, -v] for k, v in m.items()}, mesh)
    assert np.abs(mu - (vals - 1j * vals)).max() == 0.0


def test_qdiff_json_bad_edge():
    mesh = build(WHEEL6_FACES)
    with pytest.raises(DDGError):
        fileio.qdiff_from_json({"1-2": 1.0}, mesh)  # boundary edge
    with pytest.raises(DDGError):
        fileio.mu_from_json({"0-9": 1.0}, mesh)


def test_vertex_field_from_json():
    arr = fileio.vertex_field_from_json([0.0, 1.0, 2.0], 3)
    assert np.abs(arr - [0.0, 1.0, 2.0]).max() == 0.0
    sparse = fileio.vertex_field_from_json({"2": 5.0}, 3)
    assert sparse[2] == 5.0 and sparse[0] == 0.0
    cplx = fileio.vertex_field_from_json({"values": [[1.0, 2.0]]}, 1, real=False)
    assert cplx[0] == 1.0 + 2.0j
    with pytest.raises(DDGError):
        fileio.vertex_field_from_json([0.0, 1.0], 3)


VERTEX_KEYS = [("2", 2), ("0", 0), ("002", 2), ("0" * 22 + "2", 2), ("0" * 5000 + "1", 1)] + [
    (key, None) for key in ("", "3", "1" * 20, "1" * 5000, "-1", "+1", " 1", "1.0", "a", "\u0662", "\uff12")
]


@pytest.mark.parametrize(
    "key, vertex", VERTEX_KEYS, ids=[repr(k) if len(k) < 30 else f"{len(k)}-chars" for k, _ in VERTEX_KEYS]
)
def test_vertex_keys(key, vertex):
    """A vertex key is a decimal index in [0, 3), zero-padded or not."""
    if vertex is None:
        with pytest.raises(DDGError, match="is not an integer in"):
            fileio.vertex_field_from_json({key: 5.0}, 3)
    else:
        assert fileio.vertex_field_from_json({key: 5.0}, 3).tolist() == [5.0 * (v == vertex) for v in range(3)]


@pytest.mark.parametrize(
    "read",
    [lambda d: fileio.vertex_field_from_json(d, 3), lambda d: fileio.boundary_data_from_json(d, build(WHEEL6_FACES))],
    ids=["vertex_field", "boundary_data"],
)
def test_repeated_vertex_key(read):
    """Two keys naming one vertex are an error, not the last one winning."""
    with pytest.raises(InvalidInput, match="^vertex keys '2' and '002' both name vertex 2$"):
        read({"2": 1.0, "1": 0.0, "002": 5.0})


def test_load_json_rejects_a_repeated_key(tmp_path):
    """An object that repeats a key is an error naming the file and the
    first key that repeats, at any depth; the last value does not win."""
    path = tmp_path / "data.json"
    path.write_text('{"a": 1, "v": {"x": 0, "b": 2, "b": 3, "x": 4}}')
    with pytest.raises(InvalidInput) as info:
        fileio.load_json(path)
    assert str(info.value) == f"{path}: JSON object repeats the key 'b'"
    path.write_text('{"a": {"b": 1}, "c": {"b": 1}}')  # the same key in two objects
    assert fileio.load_json(path) == {"a": {"b": 1}, "c": {"b": 1}}


@pytest.mark.parametrize("read", [fileio.qdiff_from_json, fileio.mu_from_json])
@pytest.mark.parametrize("data", [[0.5], {"q": [0.5], "mu": [0.5]}])
def test_edge_data_must_be_a_map(read, data):
    with pytest.raises(InvalidInput, match='^interior-edge data must be an "i-j" keyed map$'):
        read(data, build(WHEEL6_FACES))


def test_boundary_data_from_json():
    mesh = build(WHEEL6_FACES)
    bd = fileio.boundary_data_from_json({"boundary": {"1": 2.0, "2": -1.0}}, mesh)
    assert bd == {1: 2.0, 2: -1.0}
    full = fileio.boundary_data_from_json([0.0, 1, 2, 3, 4, 5, 6], mesh)
    assert sorted(full) == [1, 2, 3, 4, 5, 6]
    assert full[3] == 3.0


# -- the array parse and the per-line / per-value loop agree -------------------

TRI = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"

# (OBJ text, whether the array parse reads it); the line loop reads the rest
OBJ_CORPUS = [
    (TRI + "f 1 2 3\n", True),
    ("# header\n\nv 0 0 0\n# mid\nv 1 0 0\nv 0 1 0\n\nf 1 2 3\n", True),
    ("v 0 0 0\r\nv 1 0 0\r\nv 0 1 0\r\nf 1 2 3\r\n", True),  # CRLF
    (TRI + "f 1 2 3", True),  # no final newline
    ("v 0 0 0  \nv 1 0 0\nv 0 1 0\nf 1 2 3   \n", True),  # trailing spaces
    ("v +0 -0 0\nv 1e0 0 0\nv 0 +1.5E+2 0\nf 1 2 3\n", True),  # exponents, signs
    ("v 1_0 0 0\nv 0 ١ 0\nv 0 0 0\nf 1 2 3\n", True),  # what float() reads
    ("v 0 0 0\nf 1 2 3\nv 1 0 0\nv 0 1 0\n", True),  # a face before its vertices
    (TRI + "v 1 1 0\nf 1 2 4 3\nf 2 4 3\n", True),  # polygons
    (TRI + "v 1 1 0\nf 1 2 4 3\nf 1 2 3 f\n", False),  # an "f" token among the ids
    (TRI + "vt 0 0\nvn 0 0 1\no name\ng group\ns off\nf 1 2 3\n", True),
    (TRI, True),  # no faces
    ("", True),
    ("v\t0 0 0\nv 1 0 0\nv 0 1 0\nf 1\t2 3\n", False),  # tabs
    ("  v 0 0 0\nv 1 0 0\nv 0 1 0\n f 1 2 3\n", False),  # leading blanks
    ("v 0 0 0 1\nv 1 0 0 1\nv 0 1 0 1\nf 1 2 3\n", False),  # v x y z w
    ("v 0 0 0 x\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", False),  # w need not be a number
    ("v 0 0 0 9 1 0 0\nv 0 1 0\nf 1 2 3\n", False),  # 7 values are not two vertices
    (TRI + "f 1/1 2/2/2 3//3\n", False),  # slashes
    (TRI + "f -3 -2 -1\nv 1 1 0\nf 2 -1 3\n", False),  # relative indices
    (TRI + "f 1 2 99999999999999999999\n", False),  # an index past int64
    (TRI + "f 1 2 3\nf 1 2 -99999999999999999999\n", False),
    (TRI + "f 1 2 4\n", False),  # an index past the last vertex
    (TRI + "f 0 1 2\n", False),
    (TRI + "f 1 2 x\n", False),
    (TRI + "f 1.0 2 3\n", False),
    (TRI + "f\n", False),  # an empty face
    ("v 0 nan 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", False),
    ("v 0 0 0\nv 1 inf 0\nv 0 1 -inf\nf 1 2 3\n", False),
    ("v 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", False),  # three tokens
    ("v 0 0\nv 1 0 0 0\nv 0 1 0\nf 1 2 3\n", False),  # 3 + 5 tokens
    ("v\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", False),
]


def _outcome(read, path):
    """What ``read(path)`` returns, as comparable bytes and lists, or the
    type and message of what it raises."""
    try:
        out = read(path)
    except DDGError as exc:
        return type(exc), str(exc)
    if len(out) == 3:  # read_obj_polygons: (vertices, ids, sizes)
        return tuple((a.dtype, a.shape, a.tobytes()) for a in out)
    mesh, verts = out  # read_obj: (TriMesh, vertices)
    return mesh.faces.tolist(), verts.dtype, verts.shape, verts.tobytes()


@pytest.mark.parametrize("text, fast", OBJ_CORPUS)
@pytest.mark.parametrize("read", [fileio.read_obj_polygons, fileio.read_obj])
def test_obj_array_parse_matches_line_loop(tmp_path, monkeypatch, text, fast, read):
    path = tmp_path / "in.obj"
    path.write_bytes(text.encode())
    lines = fileio._read_text(path).split("\n")
    assert (fileio._parse_obj_arrays(lines) is not None) == fast
    got = _outcome(read, path)
    monkeypatch.setattr(fileio, "_parse_obj_arrays", lambda lines: None)
    assert got == _outcome(read, path)


# per-value JSON inputs: plain floats take the array path, the rest the loop
VALUES = [
    [1.5, -2.5, 0.0, -0.0, 1e-300, 3.0, 7.25],
    [1, -2.5, 0.0, True, 2.0, 3.0, 4.0],  # an int and a bool
    ["1.5", 2.0, 0.0, 1.0, 2.0, 3.0, 4.0],  # a numeric string
    [1.0, 2.0, float("nan"), 1.0, 2.0, 3.0, 4.0],
    [1.0, 2.0, float("inf"), 1.0, 2.0, 3.0, 4.0],
    [10**400, 2.0, 0.0, 1.0, 2.0, 3.0, 4.0],
    [None, 2.0, 0.0, 1.0, 2.0, 3.0, 4.0],
    [[1.0, -2.5], [-0.0, 0.0], [0.5, 2.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]],
    [[1, -2.5], [-0.0, 0.0], [0.5, 2.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]],
    [[1.0, -2.5], [-0.0, 0.0], [0.5, float("inf")], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]],
    [[1.0, -2.5], [-0.0], [0.5, 2.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]],
    [[1.0, -2.5], 2.0, [0.5, 2.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]],
]


def _array_outcome(read):
    try:
        out = read()
    except DDGError as exc:
        return type(exc), str(exc)
    return out.dtype, out.shape, out.tobytes()


def _both_paths(monkeypatch, read):
    fast = _array_outcome(read)
    monkeypatch.setattr(fileio, "_numbers", lambda values: None)
    slow = _array_outcome(read)
    monkeypatch.undo()
    return fast, slow


@pytest.mark.parametrize("values", VALUES)
@pytest.mark.parametrize("odd", [None, "1-2", "05-2", "00-5", "5-0"])  # boundary, not edges
def test_edge_map_array_path_matches_loop(monkeypatch, values, odd):
    mesh = build(WHEEL6_FACES)
    keys = [f"0-{v}" for v in range(1, 7)]
    if odd:
        keys[3] = odd
    data = dict(zip(keys, values))
    for read in (fileio.qdiff_from_json, fileio.mu_from_json):
        fast, slow = _both_paths(monkeypatch, lambda: read(data, mesh))
        assert fast == slow


@pytest.mark.parametrize("values", VALUES)
@pytest.mark.parametrize("real", [True, False])
def test_vertex_field_array_path_matches_loop(monkeypatch, values, real):
    for data in (values, {"values": values}, {"z": values}, values[:6]):
        fast, slow = _both_paths(monkeypatch, lambda: fileio.vertex_field_from_json(data, 7, real))
        assert fast == slow


def test_plain_floats_take_the_array_path(monkeypatch):
    """The array path is taken where it applies: a loop that is never called
    cannot disagree with it."""
    mesh = build(WHEEL6_FACES)
    monkeypatch.setattr(fileio, "_number", None)
    q = fileio.qdiff_from_json({f"0-{v}": float(v) - 3.5 for v in range(1, 7)}, mesh)
    assert q.tolist() == [1j * (v - 3.5) for v in range(1, 7)]
    mu = fileio.mu_from_json({"0-2": [1.0, -2.0]}, mesh)
    assert mu.tolist() == [0, 1 - 2j, 0, 0, 0, 0]
    u = fileio.vertex_field_from_json({"values": [0.5] * 7}, 7)
    assert u.dtype == float and u.tolist() == [0.5] * 7
    zdot = fileio.vertex_field_from_json({"zdot": [[1.0, -0.0]] * 2}, 2, real=False)
    assert zdot.tobytes() == np.array([complex(1.0, -0.0)] * 2).tobytes()
