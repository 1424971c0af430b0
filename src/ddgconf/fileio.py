"""OBJ and JSON interchange.

Planar realizations travel as OBJ with ``v x y 0`` lines (x, y = Re z, Im z);
edge-indexed data as JSON maps keyed ``"i-j"`` with ``i < j``.  This module
alone fixes the number format: JSON writes each float as its shortest repr
and OBJ as ``%.17g``, both of which read back bit for bit, so reports and
meshes are byte-reproducible.
"""

import cmath
import json
import math
from itertools import chain, compress

import numpy as np

from .errors import InvalidInput, NonFinite
from .mesh import TriMesh, build

PLANAR_Z_TOL = 1e-12


def read_obj(path):
    """Read a triangle OBJ; returns ``(TriMesh, vertices (n, 3))``."""
    verts, ids, sizes = _read_obj_arrays(path)
    if (sizes != 3).any():
        raise InvalidInput("OBJ contains non-triangular faces")
    return build(ids.reshape(-1, 3), vertex_count=len(verts)), verts


def read_obj_planar(path):
    """Read an OBJ carrying a planar realization; the third coordinate must
    vanish.  Returns ``(TriMesh, z)``."""
    mesh, verts = read_obj(path)
    scale = max(1.0, float(np.abs(verts).max()))
    if np.any(np.abs(verts[:, 2]) > PLANAR_Z_TOL * scale):
        raise InvalidInput("OBJ is not planar: third coordinate is nonzero")
    return mesh, verts[:, 0] + 1j * verts[:, 1]


def read_obj_polygons(path):
    """Read an OBJ with arbitrary polygonal faces; returns ``(vertices (n, 3),
    faces)`` with 0-based vertex ids.  A negative (relative) face index ``-k``
    names the ``k``-th last vertex read before its face line."""
    verts, ids, sizes = _read_obj_arrays(path)
    ids, ends = ids.tolist(), np.cumsum(sizes).tolist()
    return verts, [ids[a:b] for a, b in zip([0] + ends, ends)]


def _read_text(path):
    """The text of an input file, which must be UTF-8; a leading byte-order
    mark is dropped, so that it cannot hide the first line's ``v`` or ``{``."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _read_obj_arrays(path):
    """``(vertices (n, 3), ids, sizes)`` of an OBJ: the 0-based vertex ids of
    all faces in one int64 array, and the size of each face.  Clean input is
    parsed as arrays; the line loop reads anything else (slashes, relative
    indices, stray whitespace, extra values, a bad value or index) to the same
    result, or names its first fault."""
    lines = _read_text(path).split("\n")
    return _parse_obj_arrays(lines) or _parse_obj_lines(path, lines)


def _parse_obj_arrays(lines):
    """The array parse of :func:`_read_obj_arrays`, or None where it does not
    apply: every ``v``/``f`` line starts with ``"v "``/``"f "``, every vertex
    has three finite values and every face index lies in ``[1, n]``."""
    v = [line for line in lines if line.startswith("v ")]
    f = [line for line in lines if line.startswith("f ")]
    if any(line.split()[:1] in (["v"], ["f"]) for line in lines if not line.startswith(("v ", "f "))):
        return None
    # 4 tokens per line: if every fourth token is dropped and the rest convert
    # (so none is "v"), each line's "v" was dropped, and it had three values
    values = " ".join(v).split()
    if len(values) != 4 * len(v):
        return None
    del values[::4]
    ids = " ".join(f).split()
    # triangles, the common case: a strided delete in place of the per-token scan
    if len(ids) == 4 * len(f) and ids[::4].count("f") == len(f):
        sizes = np.full(len(f), 3)
        del ids[::4]
    else:  # polygons: each "f" token starts a face
        starts = np.flatnonzero(np.fromiter(map("f".__eq__, ids), bool, len(ids)))
        if len(starts) != len(f):
            return None
        sizes = np.diff(np.append(starts, len(ids))) - 1
        ids = list(compress(ids, map("f".__ne__, ids)))
    try:
        verts = np.array(values, dtype=float).reshape(-1, 3)
        ids = np.array(ids, dtype=np.int64) - 1
    except (ValueError, OverflowError):  # a token that is not a number, or an index past int64
        return None
    if not np.isfinite(verts).all() or not ((ids >= 0) & (ids < len(verts))).all():
        return None
    return verts, ids, sizes


def _parse_obj_lines(path, lines):
    """The line loop of :func:`_read_obj_arrays`."""
    verts = []
    faces = []
    seen = []  # vertices read before each face line
    for number, line in enumerate(lines, 1):
        parts = line.split()
        if not parts or parts[0] not in ("v", "f"):
            continue
        try:
            if parts[0] == "v":
                verts.append([float(parts[1]), float(parts[2]), float(parts[3])])
            else:
                faces.append([int(p.split("/")[0]) - 1 for p in parts[1:]])
                seen.append(len(verts))
        except (IndexError, ValueError):
            raise InvalidInput(f"{path}:{number}: malformed line: {line.strip()}") from None
    sizes = np.fromiter(map(len, faces), dtype=np.int64, count=len(faces))
    flat = list(chain.from_iterable(faces))
    try:
        ids = np.array(flat, dtype=np.int64)
    except OverflowError:  # an index past int64 is past every vertex; clipped, it stays past
        ids = np.clip(np.array(flat, dtype=object), -(2**62), 2**62).astype(np.int64)
    relative = ids < -1  # OBJ index -k, stored as -k - 1; index 0 is stored as -1
    ids[relative] += np.repeat(np.array(seen, dtype=np.int64), sizes)[relative] + 1
    ends = np.cumsum(sizes)
    bad = np.flatnonzero((ids < 0) | (ids >= len(verts)))
    if len(bad):
        f = faces[np.searchsorted(ends, bad[0], side="right")]
        raise InvalidInput(f"{path}: face {[v + 1 for v in f]} indexes past [1, {len(verts)}]")
    verts = np.array(verts, dtype=float).reshape(-1, 3)
    bad = np.flatnonzero(~np.isfinite(verts).all(axis=1))
    if len(bad):
        raise InvalidInput(f"{path}: vertex {bad[0] + 1} has a non-finite coordinate")
    return verts, ids, sizes


def write_obj(path, vertices, faces):
    """Write an OBJ; ``vertices`` is (n, 3), ``faces`` a list of polygons."""
    vertices = np.asarray(vertices, dtype=float)
    sizes = list(map(len, faces))
    ids = np.fromiter(chain.from_iterable(faces), np.int64, sum(sizes))
    line = ["f " + " ".join(["%d"] * k) + "\n" for k in range(max(sizes, default=0) + 1)]
    text = "v %.17g %.17g %.17g\n" * len(vertices) + "".join(map(line.__getitem__, sizes))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text % tuple(vertices.ravel().tolist() + (ids + 1).tolist()))


def write_obj_planar(path, mesh: TriMesh, z):
    z = np.asarray(z, dtype=complex)
    verts = np.stack([z.real, z.imag, np.zeros_like(z.real)], axis=1)
    write_obj(path, verts, mesh.faces.tolist())


# -- JSON ----------------------------------------------------------------------


def edge_key(i, j):
    return f"{min(i, j)}-{max(i, j)}"


def _plain(x):
    """The JSON value of an array, a complex number or a numpy scalar; a
    complex array becomes ``[re, im]`` rows in one step."""
    if isinstance(x, np.ndarray):
        if np.iscomplexobj(x):
            x = np.stack([x.real, x.imag], axis=-1)
        return x.tolist()
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, np.generic):
        return x.item()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def dump_json(obj):
    """Deterministic JSON: each float is written as its shortest repr, which
    reads back bit for bit; arrays become lists and complex numbers
    ``[re, im]`` pairs.  A NaN or infinity raises
    :class:`~ddgconf.errors.NonFinite`, since JSON has none."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False, default=_plain) + "\n"
    except ValueError as exc:
        raise NonFinite(f"report holds a non-finite number ({exc})") from None


def load_json(path):
    """Parse a UTF-8 JSON file.  Malformed JSON, an integer past the
    interpreter's digit limit and nesting past its recursion limit all raise
    :class:`~ddgconf.errors.InvalidInput`."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise InvalidInput(f"{path}: invalid JSON ({exc})") from exc


def _number(v, real=False, bare=float):
    """A finite number from JSON: an ``[re, im]`` pair is complex (unless
    ``real``), a lone number ``x`` becomes ``bare(x)``."""
    kind = "real number" if real else "number or [re, im] pair"
    try:
        if isinstance(v, (list, tuple)) and not real:
            re, im = v
            x = complex(float(re), float(im))
        else:
            x = float(v)
    except OverflowError:  # an integer past the float range
        x = math.inf
    except (TypeError, ValueError):
        raise InvalidInput(f"{v!r} is not a {kind}") from None
    if not cmath.isfinite(x):
        raise InvalidInput(f"{v!r} is not a finite {kind}")
    return bare(x) if isinstance(x, float) else x


def _numbers(values):
    """``values`` as one array when each is a plain finite float (a float
    array) or an ``[re, im]`` pair of them (a complex array); else None, and
    the per-value loop reads them or names the first bad one."""
    kinds = set(map(type, values))
    pairs = kinds == {list} and set(map(len, values)) == {2}
    if pairs:
        values = list(chain.from_iterable(values))
        kinds = set(map(type, values))
    if kinds != {float}:
        return None
    a = np.array(values)
    if not np.isfinite(a).all():
        return None
    return a.view(complex) if pairs else a


def _vertex_values(data, vertex_count, real):
    """``{vertex: value}`` from a full-length JSON array or an index-keyed map."""
    if not isinstance(data, dict):
        if not isinstance(data, (list, tuple, np.ndarray)) or len(data) != vertex_count:
            raise InvalidInput(f"vertex data must be a map or an array of length {vertex_count}")
        data = dict(enumerate(data))
    out = {}
    for key, v in data.items():
        digits = str(key).lstrip("0") or "0"  # past 19 digits no vertex; int() refuses 4,301
        vertex = int(digits) if str(key).isdecimal() and len(digits) < 20 else -1
        if not 0 <= vertex < vertex_count:
            raise InvalidInput(f"vertex key {key!r} is not an integer in [0, {vertex_count})")
        out[vertex] = _number(v, real)
    return out


def vertex_field_from_json(data, vertex_count, real=True):
    """Vertex data from a JSON array or ``{"index": value}`` map, possibly
    wrapped as ``{"z": ...}``, ``{"zdot": ...}`` (the report of
    ``ddg deform build``) or ``{"values": ...}``; complex values travel as
    ``[re, im]`` pairs."""
    for key in ("z", "zdot", "values"):
        if isinstance(data, dict) and key in data:
            data = data[key]
    dtype = float if real else complex
    if isinstance(data, list) and len(data) == vertex_count:
        values = _numbers(data)
        if values is not None and not (real and np.iscomplexobj(values)):
            return values.astype(dtype, copy=False)
    values = _vertex_values(data, vertex_count, real)
    out = np.zeros(vertex_count, dtype=dtype)
    out[list(values)] = list(values.values())
    return out


def boundary_data_from_json(data, mesh: TriMesh):
    """Boundary values as a dict keyed by vertex, from an index-keyed map or
    a full-length array (of which the boundary entries are kept)."""
    if isinstance(data, dict) and "boundary" in data:
        data = data["boundary"]
    values = _vertex_values(data, mesh.vertex_count, real=True)
    if isinstance(data, dict):
        return values
    return {v: values[v] for v in mesh.boundary_vertices.tolist()}


def _edge_keys(mesh: TriMesh):
    """The ``"i-j"`` key of each interior edge, in ``interior_ends`` order."""
    i, j = mesh.interior_ends.T.tolist()
    return list(map("{}-{}".format, i, j))


def edge_map_to_json(mesh: TriMesh, values):
    """Interior-edge data as an ``"i-j"`` keyed map."""
    return dict(zip(_edge_keys(mesh), np.asarray(values).tolist()))


def _edge_values(data, mesh: TriMesh, wrapper, bare):
    """Complex per-interior-edge array from an ``"i-j"`` keyed map, possibly
    wrapped as ``{wrapper: {...}}``.  A value is an ``[re, im]`` pair or a
    lone number ``x``, read as ``bare(x)`` (``bare`` also maps arrays);
    absent edges are 0."""
    if isinstance(data, dict) and wrapper in data:
        data = data[wrapper]
    if not isinstance(data, dict):
        raise InvalidInput('interior-edge data must be an "i-j" keyed map')
    keys = _edge_keys(mesh)
    pos = dict(zip(keys, range(len(keys))))
    out = np.zeros(len(keys), dtype=complex)
    rows, values = list(map(pos.get, data)), _numbers(list(data.values()))
    if values is not None and None not in rows:
        out[rows] = values if np.iscomplexobj(values) else bare(values)
        return out
    for key, v in data.items():
        if key not in pos:
            raise InvalidInput(f"'{key}' is not an interior edge")
        out[pos[key]] = _number(v, bare=bare)
    return out


def qdiff_from_json(data, mesh: TriMesh):
    """Quadratic differential from a ``"i-j" -> imaginary part`` map (or a
    ``{"q": {...}}`` wrapper); returns a complex per-interior-edge array."""
    # numpy's complex product for a float and an array alike; from Python 3.14
    # on, Python's ``1j * -0.0`` has a negative zero imaginary part
    return _edge_values(data, mesh, "q", lambda x: np.multiply(1j, x))


def mu_from_json(data, mesh: TriMesh):
    """Complex per-interior-edge rates from an ``"i-j" -> [re, im]`` map."""
    return _edge_values(data, mesh, "mu", lambda x: x)
