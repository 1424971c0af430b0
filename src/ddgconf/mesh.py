"""Combinatorial kernel: oriented triangular meshes and their dual graph.

A :class:`TriMesh` is purely combinatorial.  Edges are keyed by the sorted
vertex pair ``(i, j)`` with ``i < j``; the face containing the oriented edge
``i -> j`` is the *left* face, the face containing ``j -> i`` the *right*
face.  The dual edge of ``i -> j`` runs from the right face to the left face.
"""

from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .errors import (
    Disconnected, InconsistentOrientation, InvalidInput, NonManifold, NotSimplyConnected
)


class DualEdge(NamedTuple):
    """Dual edge of the oriented primal edge ``tail -> head``."""

    tail: int
    head: int
    from_face: int  # right face of tail -> head
    to_face: int  # left face of tail -> head
    edge: int  # index into TriMesh.edges


class TriMesh:
    def __init__(self, faces, vertex_count=None):
        faces = [tuple(int(v) for v in f) for f in faces]
        if not faces:
            raise Disconnected("mesh has no faces")
        for f in faces:
            if len(f) != 3:
                raise NonManifold(f"face {f} is not a triangle")
            if len(set(f)) != 3:
                raise NonManifold(f"face {f} repeats a vertex")
            if min(f) < 0:
                raise NonManifold(f"face {f} has a negative vertex id")

        n = max(max(f) for f in faces) + 1
        if vertex_count is None:
            vertex_count = n
        elif vertex_count < n:
            raise NonManifold(f"face references vertex >= vertex_count={vertex_count}")

        self.faces = faces
        self.vertex_count = vertex_count

        # Oriented edge -> face.  A duplicate oriented edge means either a
        # non-manifold edge or two faces traversing it the same way.
        oriented = {}
        for fi, (a, b, c) in enumerate(faces):
            for i, j in ((a, b), (b, c), (c, a)):
                if (i, j) in oriented:
                    raise InconsistentOrientation(
                        f"oriented edge ({i},{j}) appears in faces "
                        f"{oriented[(i, j)]} and {fi}"
                    )
                oriented[(i, j)] = fi
        self._face_of_oriented = oriented

        pairs = sorted({(min(i, j), max(i, j)) for (i, j) in oriented})
        self.edges = pairs
        self.edge_index = {e: idx for idx, e in enumerate(pairs)}
        self.edge_left = []
        self.edge_right = []
        for i, j in pairs:
            self.edge_left.append(oriented.get((i, j)))
            self.edge_right.append(oriented.get((j, i)))
        # the same tables as (E, 2) arrays; -1 marks a missing face
        self.edge_ends = np.array(pairs, dtype=np.int64)
        sides = np.array([self.edge_left, self.edge_right], dtype=float).T  # None -> nan
        self.edge_faces = np.where(np.isnan(sides), -1, sides).astype(np.int64)

        interior = (self.edge_faces >= 0).all(axis=1)
        self.interior_edges = np.flatnonzero(interior).tolist()
        self.boundary_edges = np.flatnonzero(~interior).tolist()
        self.interior_ends = self.edge_ends[interior]
        self.interior_faces = self.edge_faces[interior]

        self._check_connected()
        self._build_vertex_stars()

        self.is_boundary_vertex = np.zeros(vertex_count, dtype=bool)
        self.is_boundary_vertex[self.edge_ends[self.boundary_edges]] = True
        self.boundary_vertices = [v for v in range(vertex_count) if self.is_boundary_vertex[v]]
        self.interior_vertices = [v for v in range(vertex_count) if not self.is_boundary_vertex[v]]

    # -- construction checks -------------------------------------------------

    def _check_connected(self):
        _, label = connected_components(self._primal_graph.adjacency)
        missing = np.flatnonzero(label != label[self.edges[0][0]])
        if len(missing):
            root = self.edges[0][0]
            raise Disconnected(f"vertices {missing[:8].tolist()}... not connected to vertex {root}")

    def _build_vertex_stars(self):
        """Order each vertex star counterclockwise and reject non-fan stars."""
        succ = [dict() for _ in range(self.vertex_count)]
        neighbors = [set() for _ in range(self.vertex_count)]
        for a, b, c in self.faces:
            for v, j, k in ((a, b, c), (b, c, a), (c, a, b)):
                if j in succ[v]:
                    raise NonManifold(f"vertex {v} has two faces with the same corner edge")
                succ[v][j] = k
                neighbors[v].update((j, k))

        self._star = []
        for v in range(self.vertex_count):
            nxt = succ[v]
            nbrs = neighbors[v]
            if not nbrs:
                raise Disconnected(f"vertex {v} belongs to no face")
            heads = set(nxt.values())
            starts = [j for j in nxt if j not in heads]
            if len(starts) == 0:
                # closed fan: interior vertex
                start = min(nxt)
                closed = True
            elif len(starts) == 1:
                start = starts[0]
                closed = False
            else:
                raise NonManifold(f"vertex star of {v} is not a single fan")
            ring = [start]
            cur = start
            while cur in nxt:
                cur = nxt[cur]
                if cur == start:
                    break
                ring.append(cur)
            if set(ring) != nbrs:
                raise NonManifold(f"vertex star of {v} is not a single fan")
            self._star.append((ring, closed))

    # -- queries --------------------------------------------------------------

    @property
    def face_count(self):
        return len(self.faces)

    @property
    def edge_count(self):
        return len(self.edges)

    def euler_characteristic(self):
        return self.vertex_count - len(self.edges) + len(self.faces)

    def is_disk(self):
        return self.euler_characteristic() == 1

    def require_disk(self):
        if not self.is_disk():
            raise NotSimplyConnected(
                f"mesh is not a disk (Euler characteristic {self.euler_characteristic()})"
            )

    def vertex_star(self, v):
        """Counterclockwise neighbor ring of ``v`` (closed iff interior)."""
        return self._star[v]

    def opposite_vertex(self, face, i, j):
        (k,) = [v for v in self.faces[face] if v != i and v != j]
        return k

    def edge_flap(self, e):
        """``(i, j, k, l)`` with ``i < j``, ``k`` apex of the left face of
        ``i -> j`` and ``l`` apex of the right face.  Interior edges only."""
        i, j = self.edges[e]
        fl, fr = self.edge_left[e], self.edge_right[e]
        return i, j, self.opposite_vertex(fl, i, j), self.opposite_vertex(fr, i, j)

    # -- index arrays and shared operators --------------------------------------

    @cached_property
    def face_edges(self):
        """``(F, 3)`` id of the edge ``faces[f][m] -> faces[f][m + 1]``."""
        tri = np.array(self.faces, dtype=np.int64)
        tail, head = tri, np.roll(tri, -1, axis=1)
        # edge keys i * V + j (i < j) ascend with the sorted edge list
        n = self.vertex_count
        keys = self.edge_ends[:, 0] * n + self.edge_ends[:, 1]
        return np.searchsorted(keys, np.minimum(tail, head) * n + np.maximum(tail, head))

    @cached_property
    def flap_edges(self):
        """``(E_int, 4)`` ids of the edges ``jk, ki, il, lj`` of each interior
        edge's flap ``(i, j, k, l)`` (see :meth:`edge_flap`)."""
        e = np.array(self.interior_edges, dtype=np.int64)
        rows = np.arange(len(e))
        sides = []
        # i -> j is slot m of the left face, whose next slots are j -> k and
        # k -> i; j -> i leads on to i -> l and l -> j in the right face
        for face_edges in self.face_edges[self.interior_faces.T]:
            m = (face_edges == e[:, None]).argmax(axis=1)
            sides += [face_edges[rows, (m + 1) % 3], face_edges[rows, (m + 2) % 3]]
        return np.stack(sides, axis=1)

    @cached_property
    def _primal_graph(self):
        i, j = self.edge_ends.T
        return _Graph(i, j, self.vertex_count, np.arange(len(i)), "vertex")

    @cached_property
    def _dual_graph(self):
        e = np.array(self.interior_edges, dtype=np.int64)
        left, right = self.edge_faces[e].T
        return _Graph(right, left, len(self.faces), e, "face")

    @cached_property
    def vertex_cycles(self):
        """The cycles of :meth:`dual_cycles` as :class:`VertexCycles` arrays."""
        ring = [self._star[v][0] for v in self.interior_vertices]
        valence = np.array([len(r) for r in ring], dtype=np.int64)
        tail = np.repeat(np.array(self.interior_vertices, dtype=np.int64), valence)
        head = np.fromiter(chain.from_iterable(ring), np.int64, len(tail))
        edge = self._primal_graph.adjacency[tail, head] - 1
        pos = np.searchsorted(self._dual_graph.edge_ids, edge)
        fwd = tail < head
        to_face = self.interior_faces[pos, np.where(fwd, 0, 1)]
        padded = np.zeros((len(ring), valence.max(initial=0), 3), dtype=np.int32)
        row = np.repeat(np.arange(len(ring)), valence)
        col = np.arange(len(tail)) - np.repeat(np.cumsum(valence) - valence, valence)
        padded[row, col] = np.stack([pos, np.where(fwd, 1, -1), to_face], axis=1)
        return VertexCycles(valence, *np.moveaxis(padded, 2, 0))

    def cycle_sum(self, values, signed=False):
        """Sum of per-interior-edge ``values`` (trailing axes allowed) around
        each interior vertex, in ``interior_vertices`` order and slot by slot
        in the order of :meth:`dual_cycles`.  ``signed`` negates a value where
        its dual edge runs against the canonical orientation (``v > ring[m]``)."""
        c = self.vertex_cycles
        values = np.asarray(values)
        total = np.zeros((len(c.valence),) + values.shape[1:], dtype=values.dtype)
        for m in range(c.sign.shape[1]):
            rows = np.flatnonzero(c.sign[:, m])
            terms = values[c.edges[rows, m]]
            if signed:
                flip = c.sign[rows, m].reshape((-1,) + (1,) * (values.ndim - 1)) < 0
                terms = np.where(flip, -terms, terms)
            total[rows] += terms
        return total

    def dual_cycles(self):
        """Counterclockwise cycle of dual edges around each interior vertex."""
        c = self.vertex_cycles
        cycles = {}
        for v, d, pos, to in zip(self.interior_vertices, c.valence, c.edges, c.to_faces):
            edges, to = self._dual_graph.edge_ids[pos[:d]].tolist(), to[:d].tolist()
            heads = (self.interior_ends[pos[:d]].sum(axis=1) - v).tolist()
            # the face before slot m is the face after slot m - 1
            cycles[v] = [DualEdge(v, heads[m], to[m - 1], to[m], edges[m]) for m in range(d)]
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


class VertexCycles(NamedTuple):
    """Dual cycles around the interior vertices (rows in ``interior_vertices``
    order), padded with zeros to the largest valence.  Slot ``m`` of vertex
    ``v`` holds the dual edge of ``v -> ring[m]``, ``ring`` its
    counterclockwise star."""

    valence: np.ndarray  # (n,)
    edges: np.ndarray  # (n, k) position of edge {v, ring[m]} in interior_edges
    sign: np.ndarray  # (n, k) +1 if v < ring[m], -1 if v > ring[m], 0 in padding
    to_faces: np.ndarray  # (n, k) left face of v -> ring[m]


class _Graph:
    """Graph of a 1-form: entry ``k`` runs from node ``tail[k]`` to node
    ``head[k]`` (vertices or faces) and lies on mesh edge ``edge_ids[k]``."""

    def __init__(self, tail, head, n, edge_ids, node):
        self.tail, self.n, self.edge_ids, self.node = tail, n, edge_ids, node
        k = np.arange(len(tail))
        # incidence: (d @ potential)[k] = potential[head[k]] - potential[tail[k]]
        ones = np.ones(len(k))
        self.d = sp.csr_array((np.r_[ones, -ones], (np.r_[k, k], np.r_[head, tail])), (len(k), n))
        # k + 1 at (tail, head) and (head, tail); its rows list neighbours in id order
        ends = (np.r_[tail, head], np.r_[head, tail])
        self.adjacency = sp.csr_array((np.r_[k, k] + 1, ends), (n, n))

    def tree(self, root):
        """``(nodes, parents, entries, signs, cotree)``: the nodes after the
        root in BFS order, each reached from its parent across a form entry
        (along it when the sign is +1), and the other entries, ascending.
        A TriMesh is connected and its vertex stars are fans, so the BFS
        reaches every vertex and every face."""
        if not 0 <= root < self.n:
            raise InvalidInput(f"anchor {self.node} {root} is outside [0, {self.n})")
        order, pred = breadth_first_order(self.adjacency, root, return_predecessors=True)
        nodes = order[1:].astype(np.int64)
        parents = pred[nodes].astype(np.int64)
        entries = self.adjacency[parents, nodes] - 1
        cotree = np.ones(len(self.tail), dtype=bool)
        cotree[entries] = False
        signs = np.where(self.tail[entries] == parents, 1, -1)
        return nodes, parents, entries, signs, np.flatnonzero(cotree)

    def steps(self, root):
        """``(steps, cotree)`` as :meth:`TriMesh.dual_spanning_tree` lists them."""
        nodes, parents, entries, signs, cotree = self.tree(root)
        edges = self.edge_ids[entries].tolist()
        steps = list(zip(nodes.tolist(), parents.tolist(), edges, signs.tolist()))
        return steps, self.edge_ids[cotree].tolist()


class Integral(NamedTuple):
    """Potential of a 1-form integrated over a spanning tree, with the
    closure gaps ``|d @ potential - form|`` on the co-tree edges."""

    potential: np.ndarray
    cotree: np.ndarray  # mesh edge ids, ascending
    gap: np.ndarray  # per co-tree edge
    scale: float  # max|form|, floored at 1e-300
    edges: list  # the mesh's vertex pairs

    @property
    def defect(self):
        """Worst co-tree gap relative to ``scale`` (0 without a co-tree)."""
        return float((self.gap / self.scale).max()) if len(self.gap) else 0.0

    def require(self, tol, error, message):
        """Raise ``error`` for the first co-tree edge whose gap exceeds
        ``tol * scale``; ``message`` may name ``{edge}`` and ``{gap}``."""
        bad = np.flatnonzero(self.gap > tol * self.scale)
        if len(bad):
            edge, gap = self.edges[self.cotree[bad[0]]], self.gap[bad[0]]
            raise error(message.format(edge=edge, gap=gap), edge=edge, defect=gap)


def magnitude(x):
    """``|x|`` elementwise, rounded as ``abs`` rounds one complex number
    (``np.abs`` of a complex array can differ from it in the last bit)."""
    x = np.asarray(x)
    return np.hypot(x.real, x.imag)


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
    ``potential[parent] + sign * form``, one BFS level at a time.  A co-tree
    gap is the :func:`magnitude` of ``d @ potential - form``, or the largest
    ``np.abs`` of its components.
    """
    g = mesh._dual_graph if dual else mesh._primal_graph
    form = np.asarray(form)
    nodes, parents, entries, signs, cotree = g.tree(root)
    step = signs.reshape((-1,) + (1,) * (form.ndim - 1)) * form[entries]
    pot = np.zeros((g.n,) + form.shape[1:], dtype=form.dtype)
    # BFS appends children in the order of their parents, so the nodes whose
    # parent already has its potential are a prefix of the rest
    parent_position = np.argsort(np.r_[root, nodes])[parents]
    lo = 0
    while lo < len(nodes):
        hi = int(np.searchsorted(parent_position, lo, side="right"))
        pot[nodes[lo:hi]] = pot[parents[lo:hi]] + step[lo:hi]
        lo = hi
    gap = (g.d @ pot - form)[cotree]
    gap = np.abs(gap).max(axis=tuple(range(1, gap.ndim))) if gap.ndim > 1 else magnitude(gap)
    scale = max(float(np.abs(form).max()) if form.size else 0.0, 1e-300)
    return Integral(pot, g.edge_ids[cotree], gap, scale, mesh.edges)


def build(faces, vertex_count=None):
    """Build a :class:`TriMesh` from oriented vertex triples."""
    return TriMesh(faces, vertex_count)
