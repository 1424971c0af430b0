"""Run-time tracing of ``ddgconf`` from outside the package.

:meth:`Tracer.install` replaces the public functions of each ``ddgconf``
module (under every module name they are bound to), the constructors and
whole-mesh methods of ``TriMesh``, ``Realization`` and ``MoebiusMap``, and
``scipy.sparse.linalg.splu`` with wrappers that record a span
``[name, start, end, parent, item]`` in memory.  :meth:`Tracer.uninstall`
puts the originals back.  Per-element helpers (``edge_flap``,
``opposite_vertex``, ``cot_at``, ...) are left alone: they run once per edge
or face and their own cost would drown in the wrapper's.
"""

import functools
import inspect
import os
import time
from collections import defaultdict

import scipy.sparse.linalg

MODULES = ("mesh", "realization", "laplace", "deform", "hqd", "moebius", "weierstrass", "fileio")

# public module-level functions called once per edge, face or matrix entry
PER_ELEMENT = {"edge_key", "face_moebius", "sl2_from_pauli", "pauli_from_sl2"}

METHODS = {
    ("mesh", "TriMesh"): ("__init__", "dual_cycles", "dual_spanning_tree", "vertex_spanning_tree"),
    ("realization", "Realization"): ("__init__", "flap_points", "edge_scale"),
    ("moebius", "MoebiusMap"): ("apply",),
}

READERS = {"fileio.read_obj", "fileio.read_obj_polygons", "fileio.load_json"}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, item]
        self.counts = []  # (name, amount, item)
        self.item = None
        self._stack = []
        self._restore = []

    # -- recording -------------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.item])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name, amount=1):
        self.counts.append((name, amount, self.item))

    def wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if name in READERS:
                tracer.count("fileio.bytes_read", os.path.getsize(args[0]))
            elif name == "fileio.write_obj":
                tracer.count("fileio.bytes_written", os.path.getsize(args[0]))
            elif name == "fileio.dump_json":
                tracer.count("fileio.bytes_written", len(out.encode()))
            return out

        return traced

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, ddg):
        """Wrap the package ``ddg`` (the imported ``ddgconf``)."""
        modules = {name: getattr(ddg, name) for name in MODULES}
        modules["cli"] = ddg.cli
        wrapped = {}
        for mod in list(modules.values()) + [ddg]:
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("ddgconf.")
                    or obj.__module__ == "ddgconf.cli"
                    or obj.__name__ in PER_ELEMENT
                ):
                    continue
                if obj not in wrapped:
                    layer = obj.__module__.rsplit(".", 1)[-1]
                    wrapped[obj] = self.wrap(obj, f"{layer}.{obj.__name__}")
                self._set(mod, attr, wrapped[obj])
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for meth in methods:
                name = f"{layer}.{cls_name}" if meth == "__init__" else f"{layer}.{meth}"
                self._set(cls, meth, self.wrap(vars(cls)[meth], name))
        self._set(scipy.sparse.linalg, "splu", self._traced_splu(scipy.sparse.linalg.splu))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _traced_splu(self, splu):
        tracer = self
        factor = self.wrap(splu, "laplace.splu")

        class TracedLU:
            """The factor ``splu`` returns, with ``solve`` traced."""

            def __init__(self, lu):
                self._lu = lu
                self.solve = tracer.wrap(self._solve, "laplace.lu_solve")

            def _solve(self, *args, **kwargs):
                tracer.count("laplace.lu_solves")
                return self._lu.solve(*args, **kwargs)

            def __getattr__(self, attr):
                return getattr(self._lu, attr)

        @functools.wraps(splu)
        def traced_splu(*args, **kwargs):
            lu = factor(*args, **kwargs)
            tracer.count("laplace.lu_nnz", lu.nnz)
            return TracedLU(lu)

        return traced_splu

    # -- aggregation -----------------------------------------------------------

    def per_item(self, items):
        """Self and inclusive seconds, calls and counts per span name, summed
        over the spans recorded while each of ``items`` ran:
        ``{item: {key: value}}`` with keys ``name.self_s``, ``name.total_s``,
        ``name.calls`` and the counter names."""
        wanted = set(items)
        child = defaultdict(float)
        for name, start, end, parent, item in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {item: defaultdict(float) for item in wanted}
        for idx, (name, start, end, parent, item) in enumerate(self.spans):
            if item in wanted:
                out[item][name + ".self_s"] += end - start - child[idx]
                out[item][name + ".total_s"] += end - start
                out[item][name + ".calls"] += 1
        for name, amount, item in self.counts:
            if item in wanted:
                out[item][name] += amount
        return out
