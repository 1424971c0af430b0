"""Command-line interface.

Subcommands cover the whole pipeline: mesh inspection, the two finite
conformality checks, harmonic solves, infinitesimal deformations, quadratic
differentials, the sl(2,C) layer and the minimal-surface builder.  All
reports are JSON with ``"schema": 1``, written by :func:`fileio.dump_json`
(each float as its shortest repr, which reads back bit for bit), so outputs
are byte-reproducible.

The table :data:`COMMANDS` gives each subcommand its handler, positionals,
default ``--tol`` and the flags its handler reads.  :func:`main` reads the
positionals in order (each OBJ ``mesh``, ``a``, ``b`` as a ``Realization``,
``data`` as a JSON document) and passes them to the handler after ``args``;
``minimal verify`` reads its own two files.  A handler returns
``(report, passed)``; :func:`main` adds ``schema`` and ``command``, prints the
report, writes it to ``-o`` and maps ``passed`` to the exit code.

Exit codes: 0 success / verification passed; 1 input or usage error (one
``error [code]: ...`` line on stderr); 2 verification failure (a JSON defect
report goes to stdout, unless it would hold a NaN or an infinity: then
``error [non_finite]`` and exit code 1).
"""

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import deform, fileio, hqd, laplace, moebius, weierstrass
from .errors import DDGError, InvalidInput, VerificationError
from .realization import Realization, check_conformal_equiv, check_pattern

SCHEMA = 1

DEFAULT_ALPHAS = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi)


def _threads():
    """Validate DDG_THREADS, a positive integer.  All computation is single
    threaded, so the value changes no result."""
    raw = os.environ.get("DDG_THREADS")
    try:
        ok = raw is None or int(raw) >= 1
    except ValueError:
        ok = False
    if not ok:
        raise InvalidInput(f"DDG_THREADS must be a positive integer, got {raw!r}")


def _read_inputs(args):
    """The inputs a handler takes after ``args``: its positionals read in
    order, ``data`` as JSON and each OBJ as a ``Realization``.  ``minimal
    verify`` reads its ``gauss`` and ``dual`` itself."""
    inputs = []
    for name in COMMANDS[f"{args.command} {args.which}"][1].split():
        if name == "data":
            inputs.append(fileio.load_json(args.data))
        elif name in ("mesh", "a", "b"):
            inputs.append(Realization(*fileio.read_obj_planar(getattr(args, name))))
    return inputs


def _max_abs(values):
    return float(np.abs(values).max()) if len(values) else 0.0


def _worst(names, defects, **fields):
    """``worst`` of a bounded report: the name (and entry of each of ``fields``)
    of the check whose relative defect is largest (the first NaN), with its
    :meth:`mesh.Defect.element`; None without elements."""
    if not defects:  # minimal build with an empty --alpha list
        return None
    k = int(np.argmax([d.worst for d in defects]))
    element = defects[k].element()
    return element and {"check": names[k], **{f: v[k] for f, v in fields.items()}, **element}


# -- handlers: each returns (report, passed) --------------------------------------


def mesh_info(args, r):
    mesh = r.mesh
    report = {
        "vertices": mesh.vertex_count,
        "faces": len(mesh.faces),
        "edges": mesh.edge_count,
        "interior_edges": len(mesh.interior_edges),
        "boundary_edges": len(mesh.boundary_edges),
        "interior_vertices": len(mesh.interior_vertices),
        "boundary_vertices": len(mesh.boundary_vertices),
        "euler_characteristic": mesh.euler_characteristic(),
        "disk": mesh.is_disk(),
    }
    return report, True


def check_equivalence(args, a, b):
    conformal = args.which == "conformal"
    rep = (check_conformal_equiv if conformal else check_pattern)(a, b, args.tol)
    report = {
        "equivalent": rep.equivalent,
        "max_deviation": rep.max_deviation,
        "tol": args.tol,
        "u" if conformal else "alpha": rep.factors,
        "factor_spread": rep.factor_spread if rep.equivalent else None,
    }
    return report, rep.equivalent


def harmonic_solve(args, r, data):
    bnd = fileio.boundary_data_from_json(data, r.mesh)
    h = laplace.solve_dirichlet(r, bnd)
    report = {"residual": _max_abs(laplace.laplacian(r, h)), "values": h}
    if args.report:
        report["h_scale"] = _max_abs(h)
    return report, True


def harmonic_check(args, r, data):
    h = fileio.vertex_field_from_json(data, r.mesh.vertex_count)
    ok, defect, res = laplace.check_harmonic(r, h, args.tol)
    residual = float(np.max(defect.value, initial=0.0))
    report = {"harmonic": ok, "residual": residual, "gradient_scale": defect.scale, "tol": args.tol}
    if args.report or not ok:
        report["laplacian"] = dict(zip(r.mesh.interior_vertices, res.tolist()))
    return report, ok


def deform_build(args, r, data):
    u = fileio.vertex_field_from_json(data, r.mesh.vertex_count)
    zdot = deform.conformal_deformation(r, u, args.anchor_vertex, args.anchor_face)
    rates = deform.edge_rates(r, zdot)
    i, j = r.mesh.edge_ends.T
    sig_err = np.abs(rates.sigma - (u[i] + u[j]) / 2.0).max()
    return {"zdot": zdot, "scale_rate_residual": float(sig_err)}, True


def deform_check(args, r, data):
    """Face closure (``compatible``) and the paper's definition of a
    holomorphic field, ``Re d/dt log cr = 0`` on every interior edge
    (``holomorphic``); the field passes when both hold."""
    zdot = fileio.vertex_field_from_json(data, r.mesh.vertex_count, real=False)
    rates = deform.edge_rates(r, zdot)
    rep = deform.check_triangle_compat(r, rates, args.tol)
    cross_ratio = deform.holomorphic_defect(r, rates)
    compatible, holomorphic = bool(rep.ok.all()), cross_ratio.passes(args.tol)
    ok = compatible and holomorphic
    report = {
        "compatible": compatible,
        "holomorphic": holomorphic,
        "tol": args.tol,
        "worst": _worst(("closure", "real_part"), (rep.closure, cross_ratio)),
        "faces": len(rep.ok),
    }
    if args.report or not ok:
        faces = []
        for f, good in enumerate(rep.ok.tolist()):
            entry = {"face": f, "ok": good, "defect": rep.defect[f]}
            if good:
                entry.update(omega=rep.omega_face[f], sigma=rep.sigma_face[f])
            faces.append(entry)
        report["faces"] = faces
    return report, ok


def hqd_check(args, r, data):
    q = fileio.qdiff_from_json(data, r.mesh)
    rep = hqd.verify_qdiff(r, q, args.tol)
    report = {
        "tol": args.tol,
        "holomorphic": rep.holomorphic,
        "max_defect": rep.max_defect,
        "max_real_part": rep.max_real_part,
        "worst": _worst(("real_part", "vertex_sum", "weighted_sum"), rep.defects),
    }
    if args.report or not rep.holomorphic:
        report.update(vertex_sum=rep.vertex_sum, weighted_sum=rep.weighted_sum)
    return report, rep.holomorphic


def hqd_from_harmonic(args, r, data):
    u = fileio.vertex_field_from_json(data, r.mesh.vertex_count)
    q = hqd.qdiff_from_harmonic(r, u)
    return {"q": fileio.edge_map_to_json(r.mesh, q.imag)}, True


def hqd_to_harmonic(args, r, data):
    q = fileio.qdiff_from_json(data, r.mesh)
    u = hqd.harmonic_from_qdiff(r, q, args.anchor_vertex, args.anchor_face, args.tol)
    return {"values": u, "residual": _max_abs(laplace.laplacian(r, u))}, True


def hqd_moebius_test(args, r, data):
    """Verify invariance under a deterministic battery of maps, applied to the
    mesh moved and scaled into the unit disk (a similarity keeps ``q`` holomorphic)."""
    q = fileio.qdiff_from_json(data, r.mesh)
    defects = [hqd.verify_qdiff(r, q, args.tol).max_defect]
    # shift, then scale: z - o is exact where z is within a factor 2 of o (Sterbenz)
    dz = r.z - r.z.mean()
    r = Realization(r.mesh, dz / np.abs(dz).max())
    rng = np.random.default_rng(20240816)
    n_maps = 50
    while len(defects) <= n_maps:
        coeffs = rng.uniform(-1, 1, 8)
        phi = moebius.MoebiusMap(*map(complex, coeffs[0::2], coeffs[1::2]))
        det = phi.a * phi.d - phi.b * phi.c
        if abs(det) < 1e-2:
            continue
        den = phi.c * r.z + phi.d
        if np.abs(den).min() < 1e-2 * max(abs(phi.c), abs(phi.d)):
            continue
        defects.append(hqd.qdiff_moebius_pushforward_check(r, q, phi, args.tol).max_defect)
    worst = float(np.max(defects))  # a NaN defect stays NaN and fails
    ok = worst <= args.tol
    return {"holomorphic": ok, "maps": n_maps, "max_defect": worst, "tol": args.tol}, ok


def moebius_transitions(args, a, b):
    rep = moebius.transition_matrices(a, b)
    return {"eigenvalues": fileio.edge_map_to_json(a.mesh, rep.eigenvalues)}, True


def moebius_mu(args, r, data):
    zdot = fileio.vertex_field_from_json(data, r.mesh.vertex_count, real=False)
    mu = moebius.rates_from_deformation(r, zdot)
    return {"mu": fileio.edge_map_to_json(r.mesh, mu)}, True


def moebius_eta(args, r, data):
    mesh = r.mesh
    mu = fileio.mu_from_json(data, mesh)
    form = moebius.sl2_form_from_rates(r, mu)
    closed = moebius.check_sl2_form_closed(r, form, args.tol)
    report = {
        "closed": closed.closed,
        "max_defect": closed.max_defect,
        "tol": args.tol,
        "worst": _worst(("rate_sum", "weighted_sum"), closed.defects),
    }
    if args.report or not closed.closed:
        report["eta"] = {
            fileio.edge_key(i, j): {"matrix": m, "vector": v}
            for (i, j), m, v in zip(mesh.interior_ends.tolist(), form.matrices, form.vectors)
        }
    return report, closed.closed


def _surface_path(prefix, alpha):
    """The file of the surface at ``alpha``, tagged with ``alpha`` to 6 significant digits."""
    return f"{prefix}_a{('%g' % alpha).replace('-', 'm')}.obj"


def minimal_build(args, r, data):
    q = fileio.qdiff_from_json(data, r.mesh)
    ms = weierstrass.weierstrass_integrate(r, q, args.anchor_face, args.tol)
    n = weierstrass.gauss_map(r)
    written = [f"{args.out_prefix}_gauss.obj"]
    fileio.write_obj(written[0], n, r.mesh.faces.ravel(), [3] * len(r.mesh.faces))
    paths = [_surface_path(args.out_prefix, alpha) for alpha in args.alpha]
    # one dual mesh carries every surface of the family
    points, ids, sizes = weierstrass.dual_mesh(r, [ms.at_phase(alpha).f for alpha in args.alpha])
    fileio.write_objs(paths, points, ids, sizes)
    written += paths
    per_alpha, defects = [], []
    for alpha, path, f in zip(args.alpha, paths, points):
        rep = weierstrass.verify_minimal(r.mesh, n, f, args.tol)
        per_alpha.append({"alpha": alpha, "file": path, "minimality_residual": rep.max_residual})
        defects.append(rep.defect)
    worst = _worst(["edge_parallelism"] * len(defects), defects, alpha=args.alpha)
    report = {"closure_defect": ms.closure_defect, "worst": worst}
    if args.report:
        report["k"] = fileio.edge_map_to_json(r.mesh, ms.k)
    report.update(surfaces=per_alpha, files=written)
    return report, True


def minimal_verify(args):
    """Reads its own two files: the unit-sphere check runs between them."""
    gmesh, n = fileio.read_obj(args.gauss)
    norms = np.linalg.norm(n, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise InvalidInput(f"{args.gauss}: vertices are not on the unit sphere")
    fverts = fileio.read_obj_polygons(args.dual)[0]
    if len(fverts) != len(gmesh.faces):
        raise InvalidInput(
            f"{args.dual}: {len(fverts)} dual vertices but the Gauss mesh has "
            f"{len(gmesh.faces)} faces"
        )
    rep = weierstrass.verify_minimal(gmesh, n, fverts, args.tol)
    report = {
        "minimal": rep.minimal,
        "max_residual": rep.max_residual,
        "tol": args.tol,
        "worst": _worst(["edge_parallelism"], [rep.defect]),
    }
    if args.report or not rep.minimal:
        report["k"] = fileio.edge_map_to_json(gmesh, rep.k)
    return report, rep.minimal


# -- parser ---------------------------------------------------------------------


def _alpha_list(text):
    try:
        return [float(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad alpha list: {text!r}")


# dest -> (option strings, add_argument keywords)
FLAGS = {
    "report": (("--report",), dict(action="store_true", help="verbose report")),
    "anchor_vertex": (("--anchor-vertex",), dict(type=int, default=0)),
    "anchor_face": (("--anchor-face",), dict(type=int, default=0)),
    "alpha": (("--alpha",), dict(type=_alpha_list, default=DEFAULT_ALPHAS)),
    "output": (("-o", "--output"), dict(default=None, help="also write the report here")),
    "out_prefix": (("-o", "--out-prefix"), dict(required=True, help="prefix of the files written")),
}

# "command subcommand" -> (handler, positionals, default --tol or None, the flags it reads)
COMMANDS = {
    "mesh info": (mesh_info, "mesh", None, "output"),
    "check conformal": (check_equivalence, "a b", 1e-9, "output"),
    "check pattern": (check_equivalence, "a b", 1e-9, "output"),
    "harmonic solve": (harmonic_solve, "mesh data", None, "report output"),
    "harmonic check": (harmonic_check, "mesh data", laplace.HARMONIC_RTOL, "report output"),
    "deform build": (deform_build, "mesh data", None, "anchor_vertex anchor_face output"),
    "deform check": (deform_check, "mesh data", 1e-10, "report output"),
    "hqd check": (hqd_check, "mesh data", 1e-9, "report output"),
    "hqd from-harmonic": (hqd_from_harmonic, "mesh data", None, "output"),
    "hqd to-harmonic": (hqd_to_harmonic, "mesh data", 1e-9, "anchor_vertex anchor_face output"),
    "hqd moebius-test": (hqd_moebius_test, "mesh data", 1e-9, "output"),
    "moebius mu": (moebius_mu, "mesh data", None, "output"),
    "moebius eta": (moebius_eta, "mesh data", 1e-10, "report output"),
    "moebius transitions": (moebius_transitions, "a b", None, "output"),
    "minimal build": (minimal_build, "mesh data", 1e-9, "report alpha anchor_face out_prefix"),
    "minimal verify": (minimal_verify, "gauss dual", 1e-9, "report output"),
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as ``InvalidInput`` (exit code 1), not exit 2."""

    def error(self, message):
        raise InvalidInput(f"{self.prog}: {message}")


@functools.cache
def build_parser():
    p = _Parser(
        prog="ddg",
        description="Discrete conformal machinery on planar triangular meshes.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    groups = {}
    for name, (handler, positionals, tol, flags) in COMMANDS.items():
        command, which = name.split()
        if command not in groups:
            groups[command] = sub.add_parser(command).add_subparsers(dest="which", required=True)
        sp = groups[command].add_parser(which)
        for positional in positionals.split():
            sp.add_argument(positional)
        if tol is not None:
            sp.add_argument("--tol", type=float, default=tol)
        for dest in flags.split():
            names, kwargs = FLAGS[dest]
            sp.add_argument(*names, **kwargs)
        sp.set_defaults(func=handler)
    return p


def _check_flags(args):
    """``--tol`` must be finite and positive, every ``--alpha`` finite and
    with a file of its own."""
    if "tol" in args and not (math.isfinite(args.tol) and args.tol > 0):
        raise InvalidInput(f"--tol must be a finite number > 0, got {args.tol!r}")
    paths = {}
    for alpha in getattr(args, "alpha", ()):
        if not math.isfinite(alpha):
            raise InvalidInput(f"--alpha must be finite, got {alpha!r}")
        path = _surface_path(args.out_prefix, alpha)
        if path in paths:
            raise InvalidInput(f"--alpha values {paths[path]!r} and {alpha!r} would both write {path}")
        paths[path] = alpha


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        _threads()
        _check_flags(args)
        try:
            with np.errstate(all="ignore"):  # a NaN or inf fails every verdict instead
                report, passed = args.func(args, *_read_inputs(args))
        except VerificationError as exc:
            # dump_json raises NonFinite for a NaN or infinite detail: exit code 1
            failure = {"verdict": "fail", "error": exc.code, "message": str(exc), **exc.details}
            sys.stdout.write(fileio.dump_json({"schema": SCHEMA, **failure}))
            return 2
        text = fileio.dump_json(
            {"schema": SCHEMA, "command": f"{args.command} {args.which}", **report}
        )
        sys.stdout.write(text)
        out = f"{args.out_prefix}_report.json" if "out_prefix" in args else args.output
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        return 0 if passed else 2
    except DDGError as exc:
        sys.stderr.write(f"error [{exc.code}]: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error [io]: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
