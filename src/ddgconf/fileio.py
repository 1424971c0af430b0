"""OBJ and JSON interchange.

Planar realizations travel as OBJ with ``v x y 0`` lines (x, y = Re z, Im z);
edge-indexed data as JSON maps keyed ``"i-j"`` with ``i < j``.  This module
alone fixes the number format: JSON writes each float as its shortest repr
and OBJ as ``%.17g``, both of which read back bit for bit, so reports and
meshes are byte-reproducible.
"""

import cmath
import itertools
import json

import numpy as np

from .errors import InvalidInput, NonFinite
from .mesh import TriMesh, build

PLANAR_Z_TOL = 1e-12


def read_obj(path):
    """Read a triangle OBJ; returns ``(TriMesh, vertices (n, 3))``."""
    verts, faces = read_obj_polygons(path)
    if any(len(f) != 3 for f in faces):
        raise InvalidInput("OBJ contains non-triangular faces")
    return build(faces, vertex_count=len(verts)), verts


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
    verts = []
    faces = []
    seen = []  # vertices read before each face line
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
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
    ids = np.fromiter(itertools.chain.from_iterable(faces), dtype=np.int64, count=sizes.sum())
    relative = ids < -1  # OBJ index -k, stored as -k - 1; index 0 is stored as -1
    ids[relative] += np.repeat(np.array(seen, dtype=np.int64), sizes)[relative] + 1
    ends = np.cumsum(sizes)
    bad = np.flatnonzero((ids < 0) | (ids >= len(verts)))
    if len(bad):
        f = faces[np.searchsorted(ends, bad[0], side="right")]
        raise InvalidInput(f"{path}: face {[v + 1 for v in f]} indexes past [1, {len(verts)}]")
    if relative.any():
        faces = [f.tolist() for f in np.split(ids, ends[:-1])]
    verts = np.array(verts, dtype=float).reshape(-1, 3)
    bad = np.flatnonzero(~np.isfinite(verts).all(axis=1))
    if len(bad):
        raise InvalidInput(f"{path}: vertex {bad[0] + 1} has a non-finite coordinate")
    return verts, faces


def write_obj(path, vertices, faces):
    """Write an OBJ; ``vertices`` is (n, 3), ``faces`` a list of polygons."""
    vertices = np.asarray(vertices, dtype=float)
    with open(path, "w") as fh:
        fh.write("v %.17g %.17g %.17g\n" * len(vertices) % tuple(vertices.ravel().tolist()))
        for f in faces:
            fh.write("f " + " ".join(str(i + 1) for i in f) + "\n")


def write_obj_planar(path, mesh: TriMesh, z):
    z = np.asarray(z, dtype=complex)
    verts = np.stack([z.real, z.imag, np.zeros_like(z.real)], axis=1)
    write_obj(path, verts, mesh.faces.tolist())


# -- JSON ----------------------------------------------------------------------


def edge_key(i, j):
    return f"{min(i, j)}-{max(i, j)}"


def _plain(x):
    """The JSON value of an array, a complex number or a numpy scalar."""
    if isinstance(x, np.ndarray):
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
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
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
            x = bare(float(v))
    except (TypeError, ValueError):
        raise InvalidInput(f"{v!r} is not a {kind}") from None
    if not cmath.isfinite(x):
        raise InvalidInput(f"{v!r} is not a finite {kind}")
    return x


def _vertex_values(data, vertex_count, real):
    """``{vertex: value}`` from a full-length JSON array or an index-keyed map."""
    if not isinstance(data, dict):
        if not isinstance(data, (list, tuple, np.ndarray)) or len(data) != vertex_count:
            raise InvalidInput(f"vertex data must be a map or an array of length {vertex_count}")
        data = dict(enumerate(data))
    out = {}
    for key, v in data.items():
        vertex = int(key) if str(key).isdecimal() else -1
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
    values = _vertex_values(data, vertex_count, real)
    out = np.zeros(vertex_count, dtype=float if real else complex)
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
    return {v: values[v] for v in mesh.boundary_vertices}


def edge_map_to_json(mesh: TriMesh, values):
    """Interior-edge data as an ``"i-j"`` keyed map."""
    i, j = mesh.interior_ends.T.tolist()
    return dict(zip(map(edge_key, i, j), np.asarray(values).tolist()))


def _edge_values(data, mesh: TriMesh, wrapper, bare):
    """Complex per-interior-edge array from an ``"i-j"`` keyed map, possibly
    wrapped as ``{wrapper: {...}}``.  A value is an ``[re, im]`` pair or a
    lone number ``x``, read as ``bare(x)``; absent edges are 0."""
    if isinstance(data, dict) and wrapper in data:
        data = data[wrapper]
    if not isinstance(data, dict):
        raise InvalidInput('interior-edge data must be an "i-j" keyed map')
    pos = {edge_key(i, j): idx for idx, (i, j) in enumerate(mesh.interior_ends.tolist())}
    out = np.zeros(len(pos), dtype=complex)
    for key, v in data.items():
        if key not in pos:
            raise InvalidInput(f"'{key}' is not an interior edge")
        out[pos[key]] = _number(v, bare=bare)
    return out


def qdiff_from_json(data, mesh: TriMesh):
    """Quadratic differential from a ``"i-j" -> imaginary part`` map (or a
    ``{"q": {...}}`` wrapper); returns a complex per-interior-edge array."""
    return _edge_values(data, mesh, "q", lambda x: 1j * x)


def mu_from_json(data, mesh: TriMesh):
    """Complex per-interior-edge rates from an ``"i-j" -> [re, im]`` map."""
    return _edge_values(data, mesh, "mu", float)
