"""Combinatorial kernel: oriented triangular meshes and their dual graph.

A :class:`TriMesh` is purely combinatorial.  Edges are keyed by the sorted
vertex pair ``(i, j)`` with ``i < j``; the face containing the oriented edge
``i -> j`` is the *left* face, the face containing ``j -> i`` the *right*
face.  The dual edge of ``i -> j`` runs from the right face to the left face.
"""

import functools
import math
from collections import namedtuple
from functools import reduce
from itertools import chain, pairwise
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from .errors import (
    Disconnected, InconsistentOrientation, InvalidInput, NonManifold, NotSimplyConnected
)


class DualEdge(NamedTuple):
    """Dual edge of the oriented primal edge ``tail -> head``."""

    tail: int
    head: int
    from_face: int  # right face of tail -> head
    to_face: int  # left face of tail -> head
    edge: int  # row of TriMesh.edge_ends


class cached_property(functools.cached_property):
    """A table derived from its object: built once, on first use, and kept
    read-only through :func:`_read_only`.  Every cached table of the package
    is one."""

    def __init__(self, build):
        super().__init__(functools.wraps(build)(lambda obj: _read_only(build(obj))))


class TriMesh:
    """An oriented triangle mesh as index arrays.

    Corner ``c = 3 f + m`` of face ``f`` sits at ``faces[f][m]`` and carries
    the oriented edge ``faces[f][m] -> faces[f][m + 1]``; :meth:`next_corner`
    steps around a face and :meth:`flap_corners` lists each interior flap's
    corners.  ``edge_ends`` lists the edges ``(i, j)``, ``i < j``, in
    ascending order; ``face_edges[f, m]`` is the edge of corner ``3 f + m``;
    ``edge_corners[e]`` holds the corners of ``i -> j`` and ``j -> i`` and
    ``edge_faces[e]`` their faces, the left and right face of ``e`` (-1
    where it has none); ``vertex_stars`` lists the corners by vertex,
    counterclockwise around each, ``star_counts[v]`` of them for vertex ``v``
    from ``star_starts[v]`` on.  Every array ``__init__`` sets is read-only,
    the element sets int64 ones; ``interior_vertices`` is a list: ``bench/``
    compares it with one.  The connectivity check runs over the stars, the
    CSR rows of the corner edges ``tail -> head``, after they are built, so
    a star that is not a single fan is named before a disconnected mesh.

    Tables that depend on the mesh alone are built once, on first use, and
    kept read-only by :class:`cached_property`: ``least_corners`` (each
    vertex's first corner in face order), ``face_stencil`` (the face each
    edge is evaluated on, with its apex corner), the dual cycles
    ``vertex_cycles`` with their faces and the ones-valued copy
    ``unsigned_cycles`` that :meth:`cycle_sum` reads, the slot schedule of
    the cycle products (``slot_schedule``, ``slot_counts``, ``slot_picks``)
    and the spanning trees of :func:`integrate`.
    """

    def __init__(self, faces, vertex_count=None):
        tri = _face_array(faces)
        n = int(tri.max()) + 1
        if vertex_count is None:
            vertex_count = n
        elif vertex_count < n:
            raise NonManifold(f"face references vertex >= vertex_count={vertex_count}")

        self.faces = tri
        self.vertex_count = vertex_count

        tail = tri.ravel()
        head = np.roll(tri, -1, axis=1).ravel()
        keys, corner_edge = np.unique(
            np.minimum(tail, head) * vertex_count + np.maximum(tail, head), return_inverse=True
        )
        self.edge_ends = np.stack([keys // vertex_count, keys % vertex_count], axis=1)
        self.face_edges = corner_edge.reshape(-1, 3)
        # the corners of each edge: i -> j in column 0, j -> i in column 1; two
        # corners in one slot share an oriented edge (a non-manifold edge or
        # two faces traversing it the same way)
        side = (tail > head).astype(np.int64)
        corner, slot = np.arange(len(tail)), 2 * corner_edge + side
        if np.bincount(slot).max() > 1:
            # name the first repeat in face order and the first corner of its slot
            first = np.full(2 * len(keys), len(corner))
            np.minimum.at(first, slot, corner)
            again = int(np.argmax(first[slot] != corner))
            raise InconsistentOrientation(
                f"oriented edge ({tail[again]},{head[again]}) appears in faces "
                f"{first[slot[again]] // 3} and {again // 3}"
            )
        self.edge_corners = np.full((len(keys), 2), -1, dtype=np.int64)
        self.edge_corners[corner_edge, side] = corner
        self.edge_faces = self.edge_corners // 3  # -1 // 3 == -1

        interior = (self.edge_faces >= 0).all(axis=1)
        self.interior_edges = np.flatnonzero(interior)
        self.boundary_edges = np.flatnonzero(~interior)
        self.interior_ends = self.edge_ends[interior]
        self.interior_faces = self.edge_faces[interior]

        twin = self.edge_corners[corner_edge, 1 - side]
        self.vertex_stars, self.star_counts, self.star_starts = _vertex_stars(tail, head, twin, vertex_count)
        self._check_connected(head)

        self.is_boundary_vertex = np.zeros(vertex_count, dtype=bool)
        self.is_boundary_vertex[self.edge_ends[self.boundary_edges]] = True
        self.boundary_vertices = np.flatnonzero(self.is_boundary_vertex)
        self.interior_vertices = np.flatnonzero(~self.is_boundary_vertex).tolist()
        sets = (self.faces, self.edge_ends, self.face_edges, self.edge_corners, self.edge_faces,
                self.interior_edges, self.boundary_edges, self.interior_ends, self.interior_faces,
                self.is_boundary_vertex, self.boundary_vertices, self.star_counts, self.star_starts)
        for a in sets:
            a.flags.writeable = False

    def _check_connected(self, head):
        # each corner edge tail -> head lies on its face's directed 3-cycle, so
        # a search along them from one vertex reaches all that connect to it;
        # the stars list the corners by tail, so they are those edges' CSR rows
        n = self.vertex_count
        root = int(self.edge_ends[0, 0])
        indptr = np.append(self.star_starts, len(head))
        corners = sp.csr_array((np.ones(len(head)), head[self.vertex_stars], indptr), (n, n))
        missing = np.ones(n, dtype=bool)
        missing[breadth_first_order(corners, root, return_predecessors=False)] = False
        missing = np.flatnonzero(missing)
        if len(missing):
            raise Disconnected(f"vertices {missing[:8].tolist()}... not connected to vertex {root}")

    # -- queries --------------------------------------------------------------

    @property
    def edge_count(self):
        return len(self.edge_ends)

    def euler_characteristic(self):
        return self.vertex_count - self.edge_count + len(self.faces)

    def is_disk(self):
        return self.euler_characteristic() == 1

    def require_disk(self):
        if not self.is_disk():
            raise NotSimplyConnected(
                f"mesh is not a disk (Euler characteristic {self.euler_characteristic()})"
            )

    def edge_flap(self, e):
        """``(i, j, k, l)`` with ``i < j``, ``k`` apex of the left face of
        ``i -> j`` and ``l`` apex of the right face.  Interior edges only."""
        i, j = self.edge_ends[e].tolist()
        k, l = (self.faces[self.edge_faces[e]].sum(axis=1) - i - j).tolist()
        return i, j, k, l

    # -- index arrays and shared operators --------------------------------------

    @staticmethod
    def next_corner(c, k=1):
        """The corner ``k`` (0, 1 or 2) steps on from corner ``c``
        (elementwise) in its face: one step from the corner of ``i -> j`` is
        that of ``j -> k``."""
        # c % 3 + k < 6, so one wrap at most; one int64 // costs less than two %
        return c + k - 3 * (c - 3 * (c // 3) + k >= 3)

    def flap_corners(self):
        """``(E_int, 2, 3)`` corners of each interior edge's flap ``(i, j, k,
        l)`` (see :meth:`edge_flap`): those of ``i, j, k`` in the left face and
        of ``j, i, l`` in the right face.  Derived on each call, not cached."""
        c = self.edge_corners[self.interior_edges]
        return self.next_corner(c[:, :, None], np.arange(3))

    @cached_property
    def flap_edges(self):
        """``(E_int, 4)`` ids of the edges ``jk, ki, il, lj`` of each interior
        edge's flap ``(i, j, k, l)`` (see :meth:`edge_flap`)."""
        # the corners of j, k, i and l carry j -> k, k -> i, i -> l and l -> j
        return self.face_edges.ravel()[self.flap_corners()[:, :, 1:].reshape(-1, 4)]

    @cached_property
    def flap_apices(self):
        """``(E_int, 2)`` apices ``(k, l)`` of each interior edge's flap."""
        return self.faces.ravel()[self.flap_corners()[:, :, 2]]

    @cached_property
    def face_stencil(self):
        """``(3, E)``: per edge the one face it is evaluated on, its left
        face or on a boundary edge its right one, the corner at that face's
        apex, and 1 where it is the right face, else 0."""
        left, right = self.edge_corners.T
        on_right = left < 0
        corner = np.where(on_right, right, left)
        return np.stack([corner // 3, self.next_corner(corner, 2), on_right])

    @cached_property
    def _primal_graph(self):
        i, j = self.edge_ends.T
        return _Graph(i, j, self.vertex_count, np.arange(len(i)), self.edge_ends, "vertex")

    @cached_property
    def _dual_graph(self):
        left, right = self.interior_faces.T
        return _Graph(right, left, len(self.faces), self.interior_edges, self.interior_ends, "face")

    @cached_property
    def least_corners(self):
        """Each vertex's least corner, its first in face order, read-only."""
        return np.minimum.reduceat(self.vertex_stars, self.star_starts)

    @cached_property
    def vertex_cycles(self):
        """The dual cycles as a read-only ``(V_int, E_int)`` CSR operator: row
        ``r`` holds the star ``ring`` of ``v = interior_vertices[r]`` slot by
        slot, counterclockwise; slot ``m`` is +1 (``v < ring[m]``) or -1 in the
        column of edge ``{v, ring[m]}``.  Read-only, so no sort can reorder it."""
        valence = self.star_counts
        corners = self.vertex_stars[np.repeat(~self.is_boundary_vertex, valence)]  # slot order
        e = self.face_edges.ravel()[corners]
        sign = np.where(self.edge_corners[e, 0] == corners, 1.0, -1.0)  # +1 where v < j
        pos = (np.cumsum((self.edge_faces >= 0).all(axis=1)) - 1)[e]
        indptr = np.r_[0, np.cumsum(valence[self.interior_vertices])]
        shape = (len(self.interior_vertices), len(self.interior_edges))
        return sp.csr_array((sign, pos, indptr), shape)

    @cached_property
    def cycle_faces(self):
        """Left face of ``v -> ring[m]`` per slot of :attr:`vertex_cycles`."""
        c = self.vertex_cycles
        return self.interior_faces[c.indices, (c.data < 0).astype(np.int64)]

    @cached_property
    def unsigned_cycles(self):
        """:attr:`vertex_cycles` with every entry 1, read-only, on its index
        arrays: ``abs()`` would sort each row."""
        c = self.vertex_cycles
        return sp.csr_array((np.ones(c.nnz), c.indices, c.indptr), c.shape)

    @cached_property
    def slot_schedule(self):
        """``(2, V_int)`` read-only: where each row of :attr:`vertex_cycles`
        starts in its ``indices``, the rows by descending valence (ties in row
        order), and each row's place in that order."""
        c = self.vertex_cycles
        rows = np.argsort(-np.diff(c.indptr), kind="stable")
        rank = np.empty_like(rows)
        rank[rows] = np.arange(len(rows))
        return np.stack([c.indptr[rows], rank])

    @cached_property
    def slot_picks(self):
        """Per slot of :attr:`vertex_cycles`, read-only: its column, plus
        ``E_int`` where the slot is -1, the row of the slot's matrix among
        the interior edges' ``G`` followed by their adjugates."""
        c = self.vertex_cycles
        return c.indices + len(self.interior_edges) * (c.data < 0)

    @cached_property
    def slot_counts(self):
        """How many rows of :attr:`vertex_cycles` have a slot ``m``, per
        ``m``, read-only: by descending valence they are a prefix."""
        valence = np.diff(self.vertex_cycles.indptr)
        return np.cumsum(np.bincount(valence)[::-1])[-2::-1]

    def cycle_sum(self, values, signed=False):
        """Sum of per-interior-edge ``values`` (trailing axes allowed) around
        each interior vertex: one product with :attr:`vertex_cycles`, or with
        its ones-valued copy :attr:`unsigned_cycles` unless ``signed``.  CSR
        sums each row from 0 in stored order, slot by slot; complex values
        enter as (re, im) pairs, so that each term is exactly +-1 times a
        real number."""
        values = np.asarray(values, dtype=complex if np.iscomplexobj(values) else float)
        trailing = values.shape[1:]
        flat = np.ascontiguousarray(values).reshape(len(values), math.prod(trailing))
        c = self.vertex_cycles if signed else self.unsigned_cycles
        return (c @ flat.view(float)).view(values.dtype).reshape((-1,) + trailing)

    def dual_cycles(self):
        """Counterclockwise cycle of dual edges around each interior vertex."""
        c, to = self.vertex_cycles, self.cycle_faces.tolist()
        starts = c.indptr.tolist()
        tails = np.repeat(self.interior_vertices, np.diff(starts))
        heads = (self.interior_ends[c.indices].sum(axis=1) - tails).tolist()
        edges = self.interior_edges[c.indices].tolist()
        cycles = {}
        for v, a, b in zip(self.interior_vertices, starts, starts[1:]):
            # the face before slot a is the face after slot b - 1
            slots = zip(heads[a:b], to[b - 1:b] + to[a:b - 1], to[a:b], edges[a:b])
            cycles[v] = [DualEdge(v, *slot) for slot in slots]
        return cycles

    def dual_spanning_tree(self, root=0):
        """BFS tree of the dual graph over interior edges.

        Returns ``(steps, cotree)`` where each step is
        ``(face, parent_face, edge, sign)``: crossing ``edge`` from
        ``parent_face`` to ``face`` follows the dual edge of the canonical
        orientation when ``sign == +1`` (parent is the right face).
        ``cotree`` lists the interior edges not used by the tree.
        """
        return self._dual_graph.steps(root)

    def vertex_spanning_tree(self, root=0):
        """BFS tree over all primal edges.

        Each step is ``(vertex, parent, edge, sign)`` with ``sign == +1`` when
        the step traverses the edge from its smaller to its larger vertex.
        """
        return self._primal_graph.steps(root)


# A BFS spanning tree of a _Graph: each node's rank in the BFS order; for the
# node at rank p > 0 its parent's rank, the form entry that reaches it from the
# parent (along it where the sign is +1), all at p - 1; the ranks (1, ..., n)
# that bound the BFS levels; the other entries, ascending, with their head and
# tail nodes, their mesh edges and those edges' ends, rows of TriMesh.edge_ends
_Tree = namedtuple("_Tree", "rank up levels entries signs cotree head tail edge_ids ends")


class _Graph:
    """Graph of a 1-form: entry ``k`` runs from node ``tail[k]`` to node
    ``head[k]`` (vertices or faces) and lies on mesh edge ``edge_ids[k]``,
    whose ends are ``ends[k]``."""

    def __init__(self, tail, head, n, edge_ids, ends, node):
        self.tail, self.head, self.n, self.edge_ids, self.node = tail, head, n, edge_ids, node
        self.ends = ends
        self._trees = {}

    def tree(self, root):
        """The :class:`_Tree` rooted at ``root``, with the co-tree's tables
        that :func:`integrate` reads, so that a call gathers none.  A TriMesh
        is connected and its vertex stars are fans, so the BFS reaches every
        vertex and every face.  Built once per root; the arrays are read-only."""
        if not 0 <= root < self.n:
            raise InvalidInput(f"anchor {self.node} {root} is outside [0, {self.n})")
        if root not in self._trees:
            self._trees[root] = self._build_tree(root)
        return self._trees[root]

    def _build_tree(self, root):
        # k + 1 at (tail, head) and (head, tail); its rows list neighbours in id
        # order.  Built for each new root and not kept: the cached trees hold
        # all that integrate reads
        k = np.arange(len(self.tail))
        both = (np.r_[self.tail, self.head], np.r_[self.head, self.tail])
        adjacency = sp.csr_array((np.r_[k, k] + 1, both), (self.n, self.n))
        order, pred = breadth_first_order(adjacency, root, return_predecessors=True)
        rank = np.empty(self.n, dtype=np.int64)
        rank[order] = np.arange(self.n)
        nodes = order[1:]
        parents = pred[nodes].astype(np.int64)
        up = rank[parents]
        # BFS ranks children in their parents' order, so the level after the
        # ranks [lo, hi) ends at 1 + kids[hi - 1], kids[k] counting the children of ranks <= k
        kids, levels = np.cumsum(np.bincount(up, minlength=self.n)), [1]
        while levels[-1] < self.n:
            levels.append(1 + int(kids[levels[-1] - 1]))
        # an empty fancy index of a sparse array is sparse, not an ndarray
        entries = adjacency[parents, nodes] - 1 if len(nodes) else np.zeros(0, np.int64)
        cotree = np.ones(len(self.tail), dtype=bool)
        cotree[entries] = False
        signs = np.where(self.tail[entries] == parents, 1, -1)
        cotree = np.flatnonzero(cotree)
        co = (self.head[cotree], self.tail[cotree], self.edge_ids[cotree], self.ends[cotree])
        return _read_only(_Tree(rank, up, np.array(levels), entries, signs, cotree, *co))

    def steps(self, root):
        """``(steps, cotree)`` as :meth:`TriMesh.dual_spanning_tree` lists them."""
        t = self.tree(root)
        order = np.argsort(t.rank)
        edges = self.edge_ids[t.entries].tolist()
        steps = list(zip(order[1:].tolist(), order[t.up].tolist(), edges, t.signs.tolist()))
        return steps, t.edge_ids.tolist()


def _floor(scale):
    """``scale``, but at least 1e-300: a zero defect against a zero scale is 0."""
    return np.maximum(scale, 1e-300)


class Defect(NamedTuple):
    """Per-element defects (magnitudes) of a check that holds where they
    vanish, against ``scale``: one number or one per element.  ``where``
    holds the vertices or faces, or for ``kind == "edge"`` the edge ends
    ``(i, j)``, rows of ``TriMesh.edge_ends``.  A NaN fails every verdict."""

    value: np.ndarray
    scale: object
    where: object
    kind: str  # "vertex", "face" or "edge"

    @property
    def relative(self):
        return self.value / _floor(self.scale)

    @property
    def worst(self):
        """Largest relative defect: 0.0 without elements, NaN if one is NaN."""
        return float(np.max(self.relative, initial=0.0))

    def passes(self, tol):
        return self.worst <= tol

    def require(self, tol, error, message):
        """Raise ``error`` for the first element whose relative defect is not
        ``<= tol``.  Its details, which ``message`` may name, are its
        :meth:`element`."""
        bad = np.flatnonzero(~(self.relative <= tol))
        if len(bad):
            details = self.element(bad[0])
            raise error(message.format(**details), **details)

    def element(self, k=None):
        """Element ``k`` (by default the worst, or the first NaN; None if there
        is none) as details: its location keyed by ``kind`` (an edge as
        ``(i, j)``), its value as ``defect`` and its ``scale``."""
        if k is None:
            if not len(self.value):
                return None
            k = np.argmax(self.relative)
        where = tuple(map(int, self.where[k])) if self.kind == "edge" else int(self.where[k])
        scale = np.broadcast_to(self.scale, self.value.shape)[k].item()
        return {self.kind: where, "defect": self.value[k].item(), "scale": scale}


class Integral(NamedTuple):
    """Potential of a 1-form integrated over a spanning tree, and the closure
    gaps ``|potential[head] - potential[tail] - form|`` on its co-tree edges
    against ``max|form|``; ``defect.where`` names each co-tree edge, in
    ascending order of edge id."""

    potential: np.ndarray
    defect: Defect


def magnitude(x):
    """``|x|`` elementwise, rounded as ``abs`` rounds one complex number
    (``np.abs`` of a complex array can differ from it in the last bit); of a
    real float ``x``, ``np.abs(x)``: ``hypot(x, 0)`` but with NaN unsigned."""
    x = np.asarray(x)
    return np.abs(x) if x.dtype.kind == "f" else np.hypot(x.real, x.imag)


def reduce_rows(ufunc, a):
    """``ufunc`` (``np.maximum`` or ``np.minimum``) over each row's trailing
    axes, column by column: faster than ``a.max(axis=1)`` on short rows."""
    return reduce(ufunc, a.reshape(len(a), math.prod(a.shape[1:])).T)


def product(a, b):
    """``a * b`` elementwise, rounded as the product of two complex numbers
    (numpy's complex multiply of arrays can differ from it in the last bit)."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def integrate(mesh, form, root=0, dual=False):
    """Integrate a 1-form over a BFS spanning tree rooted at ``root``.

    Primal: one entry per edge ``i -> j`` (``i < j``), potential on vertices.
    Dual: one entry per interior edge, on its dual edge from the right to the
    left face, potential on faces.  Trailing axes are integrated
    componentwise.  The potential is 0 at ``root``; each node gets
    ``potential[parent] + sign * form``, one BFS level at a time in the
    order of the level schedule that :meth:`_Graph.tree` caches, with the
    co-tree's nodes and edges.  A co-tree gap is the :func:`magnitude` of
    ``potential[head] - potential[tail] - form``, or the largest ``np.abs``
    of its components.
    """
    g = mesh._dual_graph if dual else mesh._primal_graph
    form = np.asarray(form)
    t = g.tree(root)
    step = t.signs.reshape((-1,) + (1,) * (form.ndim - 1)) * form.take(t.entries, axis=0)
    bfs = np.zeros((g.n,) + form.shape[1:], dtype=form.dtype)  # the potential in BFS order
    for lo, hi in pairwise(t.levels.tolist()):
        bfs[lo:hi] = bfs.take(t.up[lo - 1:hi - 1], axis=0) + step[lo - 1:hi - 1]
    pot = bfs.take(t.rank, axis=0)
    gap = pot.take(t.head, axis=0) - pot.take(t.tail, axis=0) - form.take(t.cotree, axis=0)
    gap = reduce_rows(np.maximum, np.abs(gap)) if gap.ndim > 1 else magnitude(gap)
    defect = Defect(gap, np.abs(form).max(initial=0.0), t.ends, "edge")
    return Integral(pot, defect)


def _read_only(a):
    """``a``, read-only: an array, a sparse array (its data, index and pointer
    arrays), a tuple of them or a :class:`_Graph` (its tables)."""
    if isinstance(a, tuple):
        parts = a
    elif isinstance(a, _Graph):
        parts = a.tail, a.head, a.edge_ids, a.ends
    elif sp.issparse(a):
        parts = a.data, a.indices, a.indptr
    else:
        a.flags.writeable = False
        return a
    for part in parts:
        _read_only(part)
    return a


def _face_array(faces):
    """``faces`` (an ``(F, 3)`` integer array or a sequence of vertex
    triples) as an ``(F, 3)`` int64 array.  Raises for the first face that is
    not a triangle, repeats a vertex or has a negative vertex id."""
    if isinstance(faces, np.ndarray) and faces.dtype.kind == "i" and faces.shape[1:] == (3,):
        tri = np.array(faces, dtype=np.int64)
        n = len(tri)
    else:
        faces = list(faces)
        sizes = np.fromiter(map(len, faces), np.int64, len(faces))
        n = int(np.argmax(sizes != 3)) if (sizes != 3).any() else len(faces)
        tri = np.fromiter(chain.from_iterable(faces[:n]), np.int64, 3 * n).reshape(n, 3)
    if not len(faces):
        raise Disconnected("mesh has no faces")
    s = np.sort(tri, axis=1)
    bad = np.flatnonzero((s[:, 0] == s[:, 1]) | (s[:, 1] == s[:, 2]) | (s[:, 0] < 0))
    first = int(bad[0]) if len(bad) else n  # or the first non-triangle
    if first < len(faces):
        f = tuple(int(v) for v in faces[first])
        if len(f) != 3:
            raise NonManifold(f"face {f} is not a triangle")
        if len(set(f)) != 3:
            raise NonManifold(f"face {f} repeats a vertex")
        raise NonManifold(f"face {f} has a negative vertex id")
    return tri


def _vertex_stars(tail, head, twin, n):
    """The corners by ascending vertex and counterclockwise in each star, with
    each vertex's corner count and the start of its star.

    Corner ``(v, j, k)`` is followed by corner ``(v, k, .)``, which holds the
    twin of the corner's ``k -> v``.  An open fan starts at its one corner
    without a predecessor (``v -> j`` on the boundary), a closed ring at its
    smallest neighbour ``j``.  Raises for the first vertex whose star is not
    a single fan."""
    corner = np.arange(len(tail))
    succ = twin[TriMesh.next_corner(corner, 2)]  # -1 past an open fan's end
    key = np.where(twin < 0, 0, n) + head
    least = np.full(n, 2 * n)
    np.minimum.at(least, tail, key)
    is_first = key == least[tail]
    first = np.empty(n, dtype=np.int64)
    first[tail[is_first]] = corner[is_first]
    # cut each ring before its first corner, so that every single fan is a
    # path; then jump along the paths by pointer doubling, counting the steps
    succ[(succ >= 0) & is_first[succ]] = -1
    jump = np.where(succ < 0, corner, succ)
    steps = (succ >= 0).astype(np.int64)
    valence = np.bincount(tail, minlength=n)
    for _ in range(int(valence.max() - 2).bit_length()):
        steps += steps[jump]
        jump = jump[jump]
    # a single fan is one path: its corners end where its first corner ends
    bad = jump != jump[first[tail]]
    if bad.any():
        raise NonManifold(f"vertex star of {tail[bad].min()} is not a single fan")
    start = np.cumsum(valence) - valence
    stars = np.empty_like(corner)  # a star's rank r corner has valence - 1 - r steps to go
    stars[(start + valence - 1)[tail] - steps] = corner
    return _read_only(stars), valence, start


def build(faces, vertex_count=None):
    """Build a :class:`TriMesh` from oriented vertex triples."""
    return TriMesh(faces, vertex_count)
