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
import re
from itertools import chain
from json.encoder import encode_basestring_ascii

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
    """Read an OBJ with arbitrary polygonal faces; returns ``(vertices (n, 3), ids,
    sizes)`` as :func:`_read_obj_arrays` does.  A negative (relative) face index
    ``-k`` names the ``k``-th last vertex read before its face line."""
    return _read_obj_arrays(path)


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
    all faces in one int64 array, and the size of each face.  The bulk parse
    reads clean input; the line loop reads the rest (slashes, relative indices,
    stray whitespace, extra values) to the same result, or names its fault."""
    text = _read_text(path)
    return _parse_obj_block(text) or _parse_obj_lines(path, text.split("\n"))


# a line that split() reads as a vertex or face but that lacks the "v "/"f " tag
_ODD_TAG = re.compile(r"\n(?![vf] )[^\S\n]*[vf]\s")


def _parse_obj_block(text):
    """The bulk parse of :func:`_read_obj_arrays`, or None.  Tags become sentinels (NaN
    for ``v``, 0 for ``f``) before one ``np.fromstring`` per kind; three finite values
    per vertex and every index in ``[1, n]`` leave each sentinel where a tag stood."""
    text = f"\n{text}\n"
    if _ODD_TAG.search(text):
        return None
    v, f = ("".join(re.findall(tag + "[^\n]*", text)) for tag in ("\nv ", "\nf "))
    try:  # a token np.fromstring cannot read (an index it saturates fails the range check)
        values = np.fromstring(v.replace("\nv ", "\nnan "), sep=" ")
        ids = np.fromstring(f.replace("\nf ", "\n0 "), dtype=np.int64, sep=" ")
    except ValueError:
        return None
    starts = np.flatnonzero(tag := ids == 0)
    if len(values) != 4 * v.count("\n") or len(starts) != f.count("\n"):
        return None
    verts, ids = values.reshape(-1, 4)[:, 1:].copy(), ids[~tag] - 1
    if not np.isfinite(verts).all() or not ((ids >= 0) & (ids < len(verts))).all():
        return None
    return verts, ids, np.diff(starts, append=len(tag)) - 1


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


def write_obj(path, vertices, ids, sizes):
    """Write an OBJ; ``vertices`` is (n, 3), and the faces are the 0-based
    vertex ids ``ids`` of all faces in one array, ``sizes[f]`` of them per face."""
    vertices = np.asarray(vertices, dtype=float)
    sizes = np.asarray(sizes, dtype=np.int64).tolist()
    line = ["f " + " ".join(["%d"] * k) + "\n" for k in range(max(sizes, default=0) + 1)]
    text = "v %.17g %.17g %.17g\n" * len(vertices) + "".join(map(line.__getitem__, sizes))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text % tuple(vertices.ravel().tolist() + (np.asarray(ids) + 1).tolist()))


def write_obj_planar(path, mesh: TriMesh, z):
    z = np.asarray(z, dtype=complex)
    verts = np.stack([z.real, z.imag, np.zeros_like(z.real)], axis=1)
    write_obj(path, verts, mesh.faces.ravel(), [3] * len(mesh.faces))


# -- JSON ----------------------------------------------------------------------


def edge_key(i, j):
    return f"{min(i, j)}-{max(i, j)}"


def dump_json(obj):
    """``json.dumps(obj, indent=2, allow_nan=False) + "\\n"`` byte for byte, with
    arrays as lists, complex numbers as ``[re, im]`` and numpy scalars as Python
    ones; the first NaN or infinity raises :class:`NonFinite` with json's message."""
    try:
        return _encode(obj, "\n") + "\n"
    except ValueError as exc:
        raise NonFinite(f"report holds a non-finite number ({exc})") from None


def _encode(o, ind):
    """The JSON text of ``o`` at ``ind``, a newline and two spaces per level."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None or o is True or o is False:
        return {None: "null", True: "true", False: "false"}[o]
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
        return float.__repr__(o)
    if isinstance(o, complex):
        o = [o.real, o.imag]
    elif isinstance(o, (np.ndarray, np.generic)):
        return _encode(o.tolist(), ind)
    elif not isinstance(o, (list, tuple, dict)):
        raise TypeError(f"{type(o).__name__} is not JSON serializable")
    if not o:
        return "{}" if isinstance(o, dict) else "[]"
    inner = ind + "  "
    if not isinstance(o, dict):
        return "[" + inner + _join(o, inner) + ind + "]"
    if set(map(type, o)) in ({str}, {int}):
        body = _join(list(o.values()), inner, list(map(encode_basestring_ascii, map(str, o))))
    else:  # each key before its value, as json reads them
        body = ("," + inner).join([f"{_key(k)}: {_encode(v, inner)}" for k, v in o.items()])
    return "{" + inner + body + ind + "}"


def _key(k):
    if not (k is None or isinstance(k, (str, int, float))):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
    return _encode(k, "") if isinstance(k, str) else f'"{_encode(k, "")}"'


def _join(values, ind, keys=None):
    """The items of a list, or of a dict with the JSON ``keys``, at ``ind``: floats and
    complex numbers by one ``%r`` template, the rest (a non-finite value too) one by one."""
    kinds = set(map(type, values))
    if kinds <= {float, np.float64} and np.isfinite(x := np.array(values, float)).all():
        item, columns = "%r", [x.tolist()]  # Python floats: %r of an np.float64 is not float's
    elif kinds <= {complex, np.complex128} and np.isfinite(z := np.array(values, complex)).all():
        item, columns = f"[{ind}  %r,{ind}  %r{ind}]", [z.real.tolist(), z.imag.tolist()]
    else:
        texts = [_encode(v, ind) for v in values]
        return ("," + ind).join(texts if keys is None else map("{}: {}".format, keys, texts))
    if keys is not None:
        item, columns = "%s: " + item, [keys, *columns]
    return ("," + ind).join([item] * len(values)) % tuple(chain.from_iterable(zip(*columns)))


def load_json(path):
    """Parse a UTF-8 JSON file.  Malformed JSON, an object that repeats a key,
    an integer past the interpreter's digit limit and nesting past its
    recursion limit all raise :class:`~ddgconf.errors.InvalidInput`."""
    text = _read_text(path)

    def unique(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise InvalidInput(f"{path}: JSON object repeats the key {key!r}")
                seen.add(key)
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise InvalidInput(f"{path}: invalid JSON ({exc})") from exc


def _number(v, real=False, bare=float):
    """A finite number from JSON: an ``[re, im]`` pair is complex (unless
    ``real``), a lone number ``x`` becomes ``bare(x)``.  Each number is an int
    or a float (numpy's too), never a bool or a string."""
    kind = "real number" if real else "number or [re, im] pair"
    parts = v if isinstance(v, (list, tuple)) and not real else [v]
    if not all(type(x) in (int, float) or isinstance(x, (np.integer, np.floating)) for x in parts):
        raise InvalidInput(f"{v!r} is not a {kind}")
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
    """``{vertex: value}`` from a full-length JSON array or an index-keyed map
    whose keys are ASCII decimals, each naming a different vertex."""
    if not isinstance(data, dict):
        if not isinstance(data, (list, tuple, np.ndarray)) or len(data) != vertex_count:
            raise InvalidInput(f"vertex data must be a map or an array of length {vertex_count}")
        data = dict(enumerate(data))
    out, keys = {}, {}
    for key, v in data.items():
        text = str(key)
        digits = text.lstrip("0") or "0"  # past 19 digits no vertex; int() refuses 4,301
        vertex = int(digits) if text.isascii() and text.isdecimal() and len(digits) < 20 else -1
        if not 0 <= vertex < vertex_count:
            raise InvalidInput(f"vertex key {key!r} is not an integer in [0, {vertex_count})")
        if vertex in keys:
            first = keys[vertex]
            raise InvalidInput(f"vertex keys {first!r} and {key!r} both name vertex {vertex}")
        keys[vertex] = key
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
    ends = mesh.interior_ends
    return ("%d-%d\n" * len(ends) % tuple(ends.ravel().tolist())).split("\n")[:-1]


def edge_map_to_json(mesh: TriMesh, values):
    """Interior-edge data as an ``"i-j"`` keyed map."""
    return dict(zip(_edge_keys(mesh), np.asarray(values).tolist()))


# a newline not followed by a canonical "i-j" key and a newline: ASCII decimals of at
# most 18 digits (so within int64), without a sign or a leading zero
_ODD_KEY = re.compile(r"\n(?!(?:0|[1-9][0-9]{0,17})-(?:0|[1-9][0-9]{0,17})\n|\Z)")


def _edge_rows(keys, mesh: TriMesh):
    """The ``interior_ends`` row of each key, matched as ``i * V + j``, when
    every key is the canonical key of an interior edge; else None."""
    if set(map(type, keys)) != {str} or _ODD_KEY.search(text := "\n".join(["", *keys, ""])):
        return None
    i, j = np.fromstring(text.replace("-", " "), dtype=np.int64, sep=" ").reshape(-1, 2).T
    n, ends = mesh.vertex_count, mesh.interior_ends
    if len(i) != len(keys) or not ((i < j) & (j < n)).all():
        return None  # a key holding a newline reads as two
    table = np.append(ends[:, 0] * n + ends[:, 1], n * n)  # ascending, as edge_ends is
    rows = np.searchsorted(table, code := i * n + j)
    return rows if (table[rows] == code).all() else None


def _edge_values(data, mesh: TriMesh, wrapper, bare):
    """Complex per-interior-edge array from an ``"i-j"`` keyed map, possibly
    wrapped as ``{wrapper: {...}}``.  A value is an ``[re, im]`` pair or a
    lone number ``x``, read as ``bare(x)`` (``bare`` also maps arrays);
    absent edges are 0."""
    if isinstance(data, dict) and wrapper in data:
        data = data[wrapper]
    if not isinstance(data, dict):
        raise InvalidInput('interior-edge data must be an "i-j" keyed map')
    out = np.zeros(len(mesh.interior_ends), dtype=complex)
    rows, values = _edge_rows(list(data), mesh), _numbers(list(data.values()))
    if rows is not None and values is not None:
        out[rows] = values if np.iscomplexobj(values) else bare(values)
        return out
    pos = dict(zip(_edge_keys(mesh), range(len(out))))
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
