"""The three workloads.

Each workload builds its inputs with :mod:`gen` (untimed), calls the public
functions of ``ddgconf`` or ``ddgconf.cli.main`` through module attributes
(so that a traced run sees its wrappers), times only those calls, and checks
every output with :mod:`checks`.

A workload offers ``release()`` (drops the shared program state),
``setup()`` (program work shared by all items; returns its seconds),
``setup_defects`` (the checks on that work), ``warmup()`` (the spec of the
set-up's warm-up item, the same in every run), ``round(r)`` (the item specs
of round ``r``; every run attempts whole rounds) and ``run(spec)``.
"""

import contextlib
import io
import json
import math
import os
import shutil
import time

import numpy as np

import checks
import gen


class Item:
    """One item: the wall time of its program calls, its operations and the
    checks on their outputs."""

    def __init__(self, key, verts, tracer=None):
        self.key = key
        self.verts = verts
        self.tracer = tracer
        self.seconds = 0.0
        self.ref_s = math.nan  # the reference loop's time beside the item (run.py)
        self.ops = []  # (name, ok)
        self.defects = []  # checks on outputs of operations that exited 0
        self.errors = []  # why an operation failed
        self.check_failures = []  # the checks among them that failed

    def call(self, fn, *args, span=None, **kwargs):
        idx = self.tracer.open(span) if (self.tracer and span) else None
        t = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - t
            if idx is not None:
                self.tracer.close(idx)

    def check(self, defect):
        self.defects.append(defect)
        if not defect.ok:
            self._fail(f"{defect.name}: {defect.value:.3e} > {defect.tol:.1e}")
        return defect.ok

    def measure(self, defect):
        """Record ``defect`` for its margin without gating the operation on it."""
        self.defects.append(defect)

    def require(self, name, ok):
        if not ok:
            self._fail(f"{name} failed")
        return bool(ok)

    def _fail(self, message):
        self.errors.append(message)
        self.check_failures.append(message)

    def op(self, name, ok):
        self.ops.append((name, bool(ok)))

    @property
    def ok(self):
        return all(ok for _, ok in self.ops)


WARMUP_KEY = 10**6  # seeds the warm-up item's draws in place of --seed


def _faces_list(faces):
    return [tuple(f) for f in np.asarray(faces).tolist()]


# -- cli-disks -------------------------------------------------------------------

FIXED_SEED = 1055  # the boundary-sliver disk; see README
FRESH_PER_ROUND = 4
CLI_POINTS = 1000

COMMANDS = (
    "mesh_info",
    "harmonic_solve",
    "deform_build",
    "deform_check",
    "hqd_from_harmonic",
    "hqd_check",
    "hqd_to_harmonic",
    "minimal_build",
    "minimal_verify",
)


def _write_obj(path, z, faces):
    with open(path, "w") as fh:
        for x, y in zip(z.real.tolist(), z.imag.tolist()):
            fh.write(f"v {x!r} {y!r} 0\n")
        for a, b, c in np.asarray(faces).tolist():
            fh.write(f"f {a + 1} {b + 1} {c + 1}\n")


def _read_obj(path):
    """Vertex array ``(n, 3)`` and face list of an OBJ file."""
    verts, faces = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("v "):
                verts.append([float(t) for t in line.split()[1:4]])
            elif line.startswith("f "):
                faces.append([int(t) - 1 for t in line.split()[1:]])
    return np.array(verts), faces


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _complex(pairs):
    arr = np.asarray(pairs, dtype=float)
    return arr[:, 0] + 1j * arr[:, 1]


class CliDisks:
    name = "cli-disks"
    setup_defects = []

    def __init__(self, ddg, seed, scratch, tracer=None):
        self.ddg = ddg
        self.seed = seed
        self.scratch = scratch
        self.tracer = tracer

    def release(self):
        pass

    def setup(self):
        return 0.0

    def warmup(self):
        return ("warm", WARMUP_KEY)

    def round(self, r):
        return [("fixed", FIXED_SEED)] + [
            ("fresh", FRESH_PER_ROUND * r + t) for t in range(FRESH_PER_ROUND)
        ]

    def inputs(self, spec):
        kind, k = spec
        if kind == "fixed":
            z, faces = gen.hull_disk(CLI_POINTS, k)
            rng = np.random.default_rng(k)
        elif kind == "warm":
            z, faces = gen.circle_disk(CLI_POINTS, [k, 0])
            rng = np.random.default_rng([k, 0, 1])
        else:
            z, faces = gen.circle_disk(CLI_POINTS, [self.seed, k])
            rng = np.random.default_rng([self.seed, k, 1])
        bnd = gen.boundary_values(gen.boundary_vertices(faces, len(z)), rng)
        return z, faces, bnd

    def _cli(self, item, command, argv):
        """Run one ``ddg`` command in process; returns ``(exit code, stdout)``.
        An exception that escapes ``main`` ends a ``ddg`` process with exit
        code 1, and counts so here."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = item.call(self.ddg.cli.main, argv, span="cli." + command)
            except SystemExit as exc:
                rc = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an uncaught traceback in a real process
                rc = 1
                err.write(f"{type(exc).__name__}: {exc}\n")
        if rc != 0:
            why = err.getvalue().strip()
            if rc == 2 and out.getvalue():  # a verification failure reports on stdout
                rep = json.loads(out.getvalue())
                why = rep.get("message", f"max_defect {rep.get('max_defect')}")
            item.errors.append(f"{command}: exit {rc}: {why[:200]}")
        return rc, out.getvalue()

    def run(self, spec):
        z, faces, bnd = self.inputs(spec)
        m = checks.Mesh(faces, len(z))
        item = Item(spec, len(z), self.tracer)
        d = os.path.join(self.scratch, f"{spec[0]}-{spec[1]}")
        os.makedirs(d)
        try:
            self._pipeline(item, d, m, z, faces, bnd)
        finally:
            shutil.rmtree(d)
        return item

    def _pipeline(self, item, d, m, z, faces, bnd):
        p = {n: os.path.join(d, n) for n in ("disk.obj", "bnd.json", "u.json", "zdot.json",
                                             "zdotv.json", "q.json", "u2.json", "surf")}
        _write_obj(p["disk.obj"], z, faces)
        with open(p["bnd.json"], "w") as fh:
            json.dump({"boundary": {str(v): x for v, x in bnd.items()}}, fh)

        def step(command, argv, check):
            rc, out = self._cli(item, command, argv)
            if rc == 0:
                n_failures = len(item.check_failures)
                try:
                    check(out)
                except (OSError, LookupError, TypeError, ValueError) as exc:
                    item.require(f"{command} output ({type(exc).__name__}: {exc})", False)
                rc = len(item.check_failures) - n_failures
            item.op(command, rc == 0)

        disk = p["disk.obj"]

        def mesh_info(out):
            rep = json.loads(out)
            item.require(
                "mesh_info",
                rep["vertices"] == len(z)
                and rep["faces"] == len(faces)
                and rep["interior_edges"] == len(m.i)
                and rep["boundary_vertices"] == int(m.is_boundary.sum())
                and rep["disk"] is True,
            )

        step("mesh_info", ["mesh", "info", disk], mesh_info)

        state = {}

        def harmonic(out):
            state["u"] = u = np.asarray(_load(p["u.json"])["values"], dtype=float)
            item.check(checks.dirichlet(m, z, u, bnd))

        step("harmonic_solve", ["harmonic", "solve", disk, p["bnd.json"], "-o", p["u.json"]], harmonic)

        def deform_build(out):
            zdot = _complex(_load(p["zdot.json"])["zdot"])
            item.check(checks.deformation(m, z, state["u"], zdot))
            # `deform check` reads vertex data as {"values": ...}, not the
            # {"zdot": ...} report that `deform build` writes (see README.md)
            with open(p["zdotv.json"], "w") as fh:
                json.dump({"values": [[c.real, c.imag] for c in zdot]}, fh)

        step("deform_build", ["deform", "build", disk, p["u.json"], "-o", p["zdot.json"]], deform_build)
        step(
            "deform_check",
            ["deform", "check", disk, p["zdotv.json"]],
            lambda out: item.require("deform_check", json.loads(out)["compatible"] is True),
        )

        def hqd_from(out):
            qmap = _load(p["q.json"])["q"]
            keys = [f"{i}-{j}" for i, j in zip(m.i.tolist(), m.j.tolist())]
            item.require("q_keys", len(qmap) == len(keys))
            q = 1j * np.array([qmap[k] for k in keys], dtype=float)
            item.check(checks.qdiff_matches(m, z, state["u"], q))
            item.check(checks.qdiff_sums(m, z, q, checks.cotan_q(m, z, state["u"], absolute=True)))

        step("hqd_from_harmonic", ["hqd", "from-harmonic", disk, p["u.json"], "-o", p["q.json"]], hqd_from)
        step(
            "hqd_check",
            ["hqd", "check", disk, p["q.json"]],
            lambda out: item.require("hqd_check", json.loads(out)["holomorphic"] is True),
        )

        def to_harmonic(out):
            u2 = np.asarray(_load(p["u2.json"])["values"], dtype=float)
            item.check(checks.affine_roundtrip(z, state["u"], u2))

        step("hqd_to_harmonic", ["hqd", "to-harmonic", disk, p["q.json"], "-o", p["u2.json"]], to_harmonic)

        def minimal_build(out):
            rep = _load(p["surf"] + "_report.json")
            item.check(checks.Defect("weierstrass_closure", rep["closure_defect"], 1e-9))
            gverts, gfaces = _read_obj(p["surf"] + "_gauss.obj")
            item.require("gauss_faces", gfaces == np.asarray(faces).tolist())
            item.check(checks.gauss_points(z, gverts))
            n = checks.gauss_map(z)
            fam = {}
            for entry in rep["surfaces"]:
                fverts, polys = _read_obj(entry["file"])
                item.require("dual_faces", len(fverts) == len(faces) and len(polys) == len(m.interior))
                fam[entry["alpha"]] = fverts
            item.require("alphas", sorted(fam) == [k * math.pi / 4 for k in range(5)])
            # the dual edges are parallel to the Gauss map's edges for alpha =
            # 0 and pi; other members are rotated in the tangent planes
            item.check(checks.parallel_edges(m, n, fam[0.0]))
            item.check(checks.parallel_edges(m, n, fam[math.pi]))
            item.check(checks.associate_family(fam))

        step("minimal_build", ["minimal", "build", disk, p["q.json"], "-o", p["surf"]], minimal_build)
        step(
            "minimal_verify",
            ["minimal", "verify", p["surf"] + "_gauss.obj", p["surf"] + "_a0.obj"],
            lambda out: item.require("minimal_verify", json.loads(out)["minimal"] is True),
        )


# -- fields-disk -----------------------------------------------------------------

FIELDS_POINTS = 20000


class FieldsDisk:
    name = "fields-disk"
    setup_defects = []

    def __init__(self, ddg, seed, scratch, tracer=None):
        self.ddg = ddg
        self.seed = seed
        self.tracer = tracer
        self.z, self.faces = gen.circle_disk(FIELDS_POINTS, [seed, 0])
        self.m = checks.Mesh(self.faces, len(self.z))
        self.bverts = gen.boundary_vertices(self.faces, len(self.z))
        self.n = checks.gauss_map(self.z)

    def release(self):
        self.r = None

    def setup(self):
        faces = _faces_list(self.faces)
        t = time.perf_counter()
        self.r = self.ddg.Realization(self.ddg.build(faces), self.z)
        return time.perf_counter() - t

    def warmup(self):
        return "warm"

    def round(self, r):
        return [r]

    def run(self, k):
        ddg, r, m, z = self.ddg, self.r, self.m, self.z
        item = Item(k, len(z), self.tracer)
        key = [WARMUP_KEY, 1] if k == "warm" else [self.seed, 1, k]
        bnd = gen.boundary_values(self.bverts, np.random.default_rng(key))
        try:
            u = item.call(ddg.laplace.solve_dirichlet, r, bnd)
            q = item.call(ddg.hqd.qdiff_from_harmonic, r, u)
            rep = item.call(ddg.hqd.verify_qdiff, r, q)
            u2 = item.call(ddg.hqd.harmonic_from_qdiff, r, q)
            zdot = item.call(ddg.deform.conformal_deformation, r, u)
            ms = item.call(ddg.weierstrass.weierstrass_integrate, r, q)
        except ddg.errors.DDGError as exc:
            item.errors.append(f"{type(exc).__name__}: {exc}")
            item.op("item", False)
            return item
        qv = q.values
        item.check(checks.dirichlet(m, z, u, bnd))
        item.check(checks.qdiff_matches(m, z, u, qv))
        item.check(checks.qdiff_sums(m, z, qv, checks.cotan_q(m, z, u, absolute=True)))
        item.require("verify_qdiff", rep.holomorphic)
        item.check(checks.affine_roundtrip(z, u, u2))
        item.check(checks.deformation(m, z, u, zdot))
        item.check(checks.Defect("weierstrass_closure", ms.closure_defect, 1e-9))
        item.check(checks.parallel_edges(m, self.n, ms.f))
        item.op("item", not item.errors)
        return item


# -- moebius-grid ----------------------------------------------------------------

GRID_N = 50
GRID_JITTER = 0.45


class MoebiusGrid:
    name = "moebius-grid"

    def __init__(self, ddg, seed, scratch, tracer=None):
        self.ddg = ddg
        self.seed = seed
        self.tracer = tracer
        self.z, self.faces = gen.jittered_grid(GRID_N, GRID_JITTER, [seed, 0])
        self.m = checks.Mesh(self.faces, len(self.z))
        bverts = gen.boundary_vertices(self.faces, len(self.z))
        self.bnd = gen.boundary_values(bverts, np.random.default_rng([seed, 1]))

    def release(self):
        self.a = self.q = None

    def setup(self):
        """The shared realization ``a``, a harmonic ``u`` on it and its
        quadratic differential.  The conformal deformation of ``u`` is input
        the benchmark builds itself: ``deform.conformal_deformation`` fails
        its closure check on about 1% of these grids (see README.md)."""
        ddg, z = self.ddg, self.z
        faces = _faces_list(self.faces)
        t = time.perf_counter()
        a = ddg.Realization(ddg.build(faces), z)
        u = ddg.laplace.solve_dirichlet(a, self.bnd)
        q = ddg.hqd.qdiff_from_harmonic(a, u)
        elapsed = time.perf_counter() - t
        m = self.m
        self.a, self.q = a, q
        self.zdot = gen.conformal_field(z, self.faces, u)
        self.q_err = checks.cotan_q(m, z, u, absolute=True)
        self.setup_defects = [
            checks.dirichlet(m, z, u, self.bnd),
            checks.qdiff_matches(m, z, u, q.values),
            checks.qdiff_sums(m, z, q.values, self.q_err),
        ]
        self.mu_ref = -0.5 * checks.dlog_cr(m, z, self.zdot)
        return elapsed

    def warmup(self):
        return "warm"

    def round(self, r):
        return [r]

    def run(self, k):
        ddg, a, m, z = self.ddg, self.a, self.m, self.z
        item = Item(k, len(z), self.tracer)
        rng = np.random.default_rng([WARMUP_KEY, 2] if k == "warm" else [self.seed, 2, k])
        coeffs = gen.moebius_map(z, rng)
        step = rng.uniform(0.5e-3, 1.5e-3)
        try:
            phi = item.call(ddg.moebius.MoebiusMap, *coeffs)
            w = item.call(phi.apply, z)
            b = item.call(ddg.Realization, a.mesh, w)
            # the pushed-forward conformal field phi'(z) zdot, and a copy of
            # phi(a) moved a small step along it
            v = self.zdot / (coeffs[2] * z + coeffs[3]) ** 2
            w2 = w + step * np.abs(w - w.mean()).max() / np.abs(v).max() * v
            b2 = item.call(ddg.Realization, a.mesh, w2)
            rc = item.call(ddg.realization.check_conformal_equiv, a, b)
            rp = item.call(ddg.realization.check_pattern, a, b)
            pf = item.call(ddg.hqd.qdiff_moebius_pushforward_check, a, self.q, phi)
            mu = item.call(ddg.moebius.rates_from_deformation, b, v)
            form = item.call(ddg.moebius.sl2_form_from_rates, b, mu)
            closed = item.call(ddg.moebius.check_sl2_form_closed, b, form)
            tr = item.call(ddg.moebius.transition_matrices, b, b2)
        except ddg.errors.DDGError as exc:
            item.errors.append(f"{type(exc).__name__}: {exc}")
            item.op("item", False)
            return item
        if item.check(checks.Defect("equivalent", max(rc.max_deviation, rp.max_deviation), 1e-9)):
            item.check(checks.moebius_factors(z, coeffs, rc.factors, rp.factors))
        # the program's report is checked for being right, not for which
        # way its verdict goes (README.md)
        item.check(checks.pushforward_report(m, w, self.q.values, self.q_err, pf))
        item.check(checks.qdiff_sums(m, w, self.q.values, self.q_err))
        item.check(checks.rates_invariant(mu, self.mu_ref))
        item.check(checks.Defect("sl2_program", closed.max_defect, 1e-10))
        item.check(checks.sl2_closed(m, w, mu, form.matrices))
        item.check(checks.transitions(m, w, w2, tr.face_maps, tr.eigenvalues))
        # the cycle residual is absolute, so it passes the bound of `ddg moebius
        # transitions` on some items and not on others: a margin only (README.md)
        item.measure(checks.Defect("transition_cycle", tr.max_cycle_residual, 1e-9))
        item.op("item", not item.errors)
        return item


WORKLOADS = {w.name: w for w in (CliDisks, FieldsDisk, MoebiusGrid)}
