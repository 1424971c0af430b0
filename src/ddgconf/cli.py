"""Command-line interface.

Subcommands cover the whole pipeline: mesh inspection, the two finite
conformality checks, harmonic solves, infinitesimal deformations, quadratic
differentials, the sl(2,C) layer and the minimal-surface builder.  All
reports are JSON with ``"schema": 1`` and floats at 17 significant digits, so
outputs are byte-reproducible.

Exit codes: 0 success / verification passed; 1 input error; 2 verification
failure (a JSON defect report goes to stdout).
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import deform, fileio, hqd, laplace, moebius, weierstrass
from .errors import (
    ClosureDefect,
    DDGError,
    IncompatibleRates,
    IntegrationDefect,
    InvalidInput,
    NotHarmonic,
    NotHolomorphic,
    NotMinimal,
    NotRealizable,
)
from .realization import Realization, check_conformal_equiv, check_pattern

SCHEMA = 1

# raised when the data is well-formed but fails a mathematical check
VERIFY_ERRORS = (
    NotHarmonic,
    IncompatibleRates,
    NotHolomorphic,
    NotMinimal,
    NotRealizable,
    ClosureDefect,
    IntegrationDefect,
)

DEFAULT_ALPHAS = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi)


def _threads():
    """Validate DDG_THREADS.  Computation is deterministic regardless of the
    setting; the value only caps worker counts."""
    raw = os.environ.get("DDG_THREADS")
    if raw is None:
        return None
    try:
        n = int(raw)
    except ValueError:
        raise InvalidInput(f"DDG_THREADS must be a positive integer, got {raw!r}")
    if n < 1:
        raise InvalidInput(f"DDG_THREADS must be a positive integer, got {raw!r}")
    return n


def _emit(report, out=None):
    text = fileio.dump_json(report)
    sys.stdout.write(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text)


def _load_realization(path):
    mesh, z = fileio.read_obj_planar(path)
    return Realization(mesh, z)


def _load_json(path):
    try:
        return fileio.load_json(path)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path}: invalid JSON ({exc})") from exc


def _complex_list(values):
    return [[v.real, v.imag] for v in np.asarray(values, dtype=complex)]


# -- handlers -------------------------------------------------------------------


def cmd_mesh_info(args):
    mesh, z = fileio.read_obj_planar(args.mesh)
    Realization(mesh, z)  # validates non-degeneracy
    report = {
        "schema": SCHEMA,
        "command": "mesh info",
        "vertices": mesh.vertex_count,
        "faces": len(mesh.faces),
        "edges": len(mesh.edges),
        "interior_edges": len(mesh.interior_edges),
        "boundary_edges": len(mesh.boundary_edges),
        "interior_vertices": len(mesh.interior_vertices),
        "boundary_vertices": len(mesh.boundary_vertices),
        "euler_characteristic": mesh.euler_characteristic(),
        "disk": mesh.is_disk(),
    }
    _emit(report, args.output)
    return 0


def cmd_check(args):
    a = _load_realization(args.a)
    b = _load_realization(args.b)
    if args.which == "conformal":
        rep = check_conformal_equiv(a, b, args.tol)
        key = "u"
    else:
        rep = check_pattern(a, b, args.tol)
        key = "alpha"
    report = {
        "schema": SCHEMA,
        "command": f"check {args.which}",
        "equivalent": rep.equivalent,
        "max_deviation": rep.max_deviation,
        "tol": args.tol,
        key: list(rep.factors) if rep.factors is not None else None,
        "factor_spread": rep.factor_spread if rep.equivalent else None,
    }
    _emit(report, args.output)
    return 0 if rep.equivalent else 2


def cmd_harmonic(args):
    r = _load_realization(args.mesh)
    if args.which == "solve":
        data = _load_json(args.data)
        bnd = fileio.boundary_data_from_json(data, r.mesh)
        h = laplace.solve_dirichlet(r, bnd)
        res = laplace.laplacian(r, h)
        residual = float(np.abs(res).max()) if len(res) else 0.0
        report = {
            "schema": SCHEMA,
            "command": "harmonic solve",
            "residual": residual,
            "values": list(h),
        }
        if args.report:
            report["h_scale"] = float(np.abs(h).max()) if len(h) else 0.0
        _emit(report, args.output)
        return 0
    data = _load_json(args.data)
    h = fileio.vertex_field_from_json(data, r.mesh.vertex_count)
    res = laplace.laplacian(r, h)
    residual = float(np.abs(res).max()) if len(res) else 0.0
    scale = laplace.gradient_scale(r, h)
    ok = scale == 0.0 or residual <= args.tol * scale
    report = {
        "schema": SCHEMA,
        "command": "harmonic check",
        "harmonic": ok,
        "residual": residual,
        "gradient_scale": scale,
        "tol": args.tol,
    }
    if args.report or not ok:
        worst = {}
        for pos, v in enumerate(r.mesh.interior_vertices):
            worst[str(v)] = float(res[pos])
        report["laplacian"] = worst
    _emit(report, args.output)
    return 0 if ok else 2


def cmd_deform(args):
    r = _load_realization(args.mesh)
    if args.which == "build":
        u = fileio.vertex_field_from_json(_load_json(args.data), r.mesh.vertex_count)
        zdot = deform.conformal_deformation(r, u, args.anchor_vertex, args.anchor_face)
        rates = deform.edge_rates(r, zdot)
        i, j = r.mesh.edge_ends.T
        sig_err = np.abs(rates.sigma - (u[i] + u[j]) / 2.0).max()
        report = {
            "schema": SCHEMA,
            "command": "deform build",
            "zdot": _complex_list(zdot),
            "scale_rate_residual": float(sig_err),
        }
        _emit(report, args.output)
        return 0
    zdot = fileio.vertex_field_from_json(
        _load_json(args.data), r.mesh.vertex_count, real=False
    )
    rates = deform.edge_rates(r, zdot)
    rep = deform.check_triangle_compat(r, rates, args.tol)
    faces = []
    for f in range(len(r.mesh.faces)):
        entry = {
            "face": f,
            "ok": bool(rep.ok[f]),
            "defect": [rep.defect[f].real, rep.defect[f].imag],
        }
        if rep.ok[f]:
            entry["omega"] = rep.omega_face[f]
            entry["sigma"] = rep.sigma_face[f]
        faces.append(entry)
    ok = bool(rep.ok.all())
    report = {
        "schema": SCHEMA,
        "command": "deform check",
        "compatible": ok,
        "tol": args.tol,
        "faces": faces if (args.report or not ok) else len(faces),
    }
    _emit(report, args.output)
    return 0 if ok else 2


def _qdiff_report(rep):
    return {
        "holomorphic": rep.holomorphic,
        "max_defect": rep.max_defect,
        "max_real_part": rep.max_real_part,
        "vertex_sum": {
            str(v): [s.real, s.imag] for v, s in sorted(rep.vertex_sum.items())
        },
        "weighted_sum": {
            str(v): [s.real, s.imag] for v, s in sorted(rep.weighted_sum.items())
        },
    }


def cmd_hqd(args):
    r = _load_realization(args.mesh)
    mesh = r.mesh
    if args.which == "check":
        q = fileio.qdiff_from_json(_load_json(args.data), mesh)
        rep = hqd.verify_qdiff(r, q, args.tol)
        report = {"schema": SCHEMA, "command": "hqd check", "tol": args.tol}
        report.update(_qdiff_report(rep))
        _emit(report, args.output)
        return 0 if rep.holomorphic else 2
    if args.which == "from-harmonic":
        u = fileio.vertex_field_from_json(_load_json(args.data), mesh.vertex_count)
        q = hqd.qdiff_from_harmonic(r, u)
        report = {
            "schema": SCHEMA,
            "command": "hqd from-harmonic",
            "q": fileio.edge_map_to_json(mesh, q.imag),
        }
        _emit(report, args.output)
        return 0
    if args.which == "to-harmonic":
        q = fileio.qdiff_from_json(_load_json(args.data), mesh)
        u = hqd.harmonic_from_qdiff(r, q, args.anchor_vertex, args.anchor_face, args.tol)
        res = laplace.laplacian(r, u)
        report = {
            "schema": SCHEMA,
            "command": "hqd to-harmonic",
            "values": list(u),
            "residual": float(np.abs(res).max()) if len(res) else 0.0,
        }
        _emit(report, args.output)
        return 0
    # moebius-test: verify invariance under a deterministic battery of maps
    q = fileio.qdiff_from_json(_load_json(args.data), mesh)
    base = hqd.verify_qdiff(r, q, args.tol)
    rng = np.random.default_rng(20240816)
    worst = base.max_defect
    n_maps = 50
    done = 0
    while done < n_maps:
        coeffs = rng.uniform(-1, 1, 8)
        phi = moebius.MoebiusMap(
            complex(coeffs[0], coeffs[1]),
            complex(coeffs[2], coeffs[3]),
            complex(coeffs[4], coeffs[5]),
            complex(coeffs[6], coeffs[7]),
        )
        det = phi.a * phi.d - phi.b * phi.c
        if abs(det) < 1e-2:
            continue
        den = phi.c * r.z + phi.d
        if np.abs(den).min() < 1e-2 * max(abs(phi.c), abs(phi.d)):
            continue
        rep = hqd.qdiff_moebius_pushforward_check(r, q, phi, args.tol)
        worst = max(worst, rep.max_defect)
        done += 1
    ok = worst <= args.tol
    report = {
        "schema": SCHEMA,
        "command": "hqd moebius-test",
        "holomorphic": ok,
        "maps": n_maps,
        "max_defect": worst,
        "tol": args.tol,
    }
    _emit(report, args.output)
    return 0 if ok else 2


def cmd_moebius(args):
    if args.which == "transitions":
        a = _load_realization(args.a)
        b = _load_realization(args.b)
        rep = moebius.transition_matrices(a, b)
        ok = rep.max_cr_residual <= args.tol and rep.max_cycle_residual <= 10 * args.tol
        report = {
            "schema": SCHEMA,
            "command": "moebius transitions",
            "consistent": ok,
            "tol": args.tol,
            "max_eigen_residual": rep.max_eigen_residual,
            "max_cross_ratio_residual": rep.max_cr_residual,
            "max_cycle_residual": rep.max_cycle_residual,
            "eigenvalues": fileio.edge_map_to_json(a.mesh, rep.eigenvalues),
        }
        _emit(report, args.output)
        return 0 if ok else 2
    r = _load_realization(args.mesh)
    mesh = r.mesh
    if args.which == "mu":
        zdot = fileio.vertex_field_from_json(
            _load_json(args.data), mesh.vertex_count, real=False
        )
        mu = moebius.rates_from_deformation(r, zdot)
        report = {
            "schema": SCHEMA,
            "command": "moebius mu",
            "mu": fileio.edge_map_to_json(mesh, mu),
        }
        _emit(report, args.output)
        return 0
    # eta
    mu = fileio.mu_from_json(_load_json(args.data), mesh)
    form = moebius.sl2_form_from_rates(r, mu)
    closed = moebius.check_sl2_form_closed(r, form, args.tol)
    entries = {
        fileio.edge_key(i, j): {"matrix": m, "vector": v}
        for (i, j), m, v in zip(mesh.interior_ends.tolist(), form.matrices, form.vectors)
    }
    report = {
        "schema": SCHEMA,
        "command": "moebius eta",
        "closed": closed.closed,
        "max_defect": closed.max_defect,
        "tol": args.tol,
        "eta": entries,
    }
    _emit(report, args.output)
    return 0 if closed.closed else 2


def _alpha_tag(alpha):
    return ("%g" % alpha).replace("-", "m")


def cmd_minimal(args):
    if args.which == "build":
        r = _load_realization(args.mesh)
        q = fileio.qdiff_from_json(_load_json(args.data), r.mesh)
        alphas = args.alpha if args.alpha is not None else list(DEFAULT_ALPHAS)
        ms = weierstrass.weierstrass_integrate(r, q, 0.0, args.anchor_face, args.tol)
        n = weierstrass.gauss_map(r)
        prefix = args.out_prefix
        written = []

        gauss_path = f"{prefix}_gauss.obj"
        fileio.write_obj(gauss_path, n, r.mesh.faces.tolist())
        written.append(gauss_path)

        per_alpha = []
        for alpha in alphas:
            surf = ms.at_phase(alpha)
            verts, polys = weierstrass.dual_mesh(r, surf.f)
            path = f"{prefix}_a{_alpha_tag(alpha)}.obj"
            fileio.write_obj(path, verts, polys)
            written.append(path)
            rep = weierstrass.verify_minimal(r.mesh, n, surf.f, args.tol)
            per_alpha.append(
                {"alpha": alpha, "file": path, "minimality_residual": rep.max_residual}
            )
        report = {
            "schema": SCHEMA,
            "command": "minimal build",
            "closure_defect": ms.closure_defect,
            "k": fileio.edge_map_to_json(r.mesh, ms.k),
            "surfaces": per_alpha,
            "files": written,
        }
        report_path = f"{prefix}_report.json"
        _emit(report, report_path)
        return 0
    # verify
    gmesh, gverts = fileio.read_obj(args.gauss)
    n = gverts
    norms = np.linalg.norm(n, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise InvalidInput(f"{args.gauss}: vertices are not on the unit sphere")
    fverts, polys = fileio.read_obj_polygons(args.dual)
    if len(fverts) != len(gmesh.faces):
        raise InvalidInput(
            f"{args.dual}: {len(fverts)} dual vertices but the Gauss mesh has "
            f"{len(gmesh.faces)} faces"
        )
    rep = weierstrass.verify_minimal(gmesh, n, fverts, args.tol)
    report = {
        "schema": SCHEMA,
        "command": "minimal verify",
        "minimal": rep.minimal,
        "max_residual": rep.max_residual,
        "tol": args.tol,
        "k": fileio.edge_map_to_json(gmesh, rep.k),
    }
    _emit(report, args.output)
    return 0 if rep.minimal else 2


# -- parser ---------------------------------------------------------------------


def _alpha_list(text):
    try:
        return [float(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad alpha list: {text!r}")


def build_parser():
    p = argparse.ArgumentParser(
        prog="ddg",
        description="Discrete conformal machinery on planar triangular meshes.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, tol):
        sp.add_argument("--tol", type=float, default=tol)
        sp.add_argument("--report", action="store_true", help="verbose report")
        sp.add_argument("-o", "--output", default=None, help="also write the report here")

    mesh_p = sub.add_parser("mesh")
    mesh_sub = mesh_p.add_subparsers(dest="which", required=True)
    sp = mesh_sub.add_parser("info")
    sp.add_argument("mesh")
    common(sp, 1e-9)
    sp.set_defaults(func=cmd_mesh_info)

    check_p = sub.add_parser("check")
    check_sub = check_p.add_subparsers(dest="which", required=True)
    for which in ("conformal", "pattern"):
        sp = check_sub.add_parser(which)
        sp.add_argument("a")
        sp.add_argument("b")
        common(sp, 1e-9)
        sp.set_defaults(func=cmd_check)

    harm_p = sub.add_parser("harmonic")
    harm_sub = harm_p.add_subparsers(dest="which", required=True)
    for which in ("solve", "check"):
        sp = harm_sub.add_parser(which)
        sp.add_argument("mesh")
        sp.add_argument("data")
        common(sp, laplace.HARMONIC_RTOL)
        sp.set_defaults(func=cmd_harmonic)

    def_p = sub.add_parser("deform")
    def_sub = def_p.add_subparsers(dest="which", required=True)
    for which in ("build", "check"):
        sp = def_sub.add_parser(which)
        sp.add_argument("mesh")
        sp.add_argument("data")
        sp.add_argument("--anchor-vertex", type=int, default=0)
        sp.add_argument("--anchor-face", type=int, default=0)
        common(sp, 1e-10)
        sp.set_defaults(func=cmd_deform)

    hqd_p = sub.add_parser("hqd")
    hqd_sub = hqd_p.add_subparsers(dest="which", required=True)
    for which in ("check", "from-harmonic", "to-harmonic", "moebius-test"):
        sp = hqd_sub.add_parser(which)
        sp.add_argument("mesh")
        sp.add_argument("data")
        sp.add_argument("--anchor-vertex", type=int, default=0)
        sp.add_argument("--anchor-face", type=int, default=0)
        common(sp, 1e-9)
        sp.set_defaults(func=cmd_hqd)

    moe_p = sub.add_parser("moebius")
    moe_sub = moe_p.add_subparsers(dest="which", required=True)
    for which in ("mu", "eta"):
        sp = moe_sub.add_parser(which)
        sp.add_argument("mesh")
        sp.add_argument("data")
        common(sp, 1e-10)
        sp.set_defaults(func=cmd_moebius)
    sp = moe_sub.add_parser("transitions")
    sp.add_argument("a")
    sp.add_argument("b")
    common(sp, 1e-10)
    sp.set_defaults(func=cmd_moebius)

    min_p = sub.add_parser("minimal")
    min_sub = min_p.add_subparsers(dest="which", required=True)
    sp = min_sub.add_parser("build")
    sp.add_argument("mesh")
    sp.add_argument("data")
    sp.add_argument("--alpha", type=_alpha_list, default=None)
    sp.add_argument("--anchor-face", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--report", action="store_true")
    sp.add_argument("-o", "--out-prefix", required=True)
    sp.set_defaults(func=cmd_minimal)
    sp = min_sub.add_parser("verify")
    sp.add_argument("gauss")
    sp.add_argument("dual")
    common(sp, 1e-9)
    sp.set_defaults(func=cmd_minimal)

    return p


def _check_flags(args):
    """``--tol`` must be finite and positive, every ``--alpha`` finite."""
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise InvalidInput(f"--tol must be a finite number > 0, got {args.tol!r}")
    for alpha in getattr(args, "alpha", None) or ():
        if not math.isfinite(alpha):
            raise InvalidInput(f"--alpha must be finite, got {alpha!r}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _threads()
        _check_flags(args)
        return args.func(args)
    except VERIFY_ERRORS as exc:
        report = {
            "schema": SCHEMA,
            "verdict": "fail",
            "error": exc.code,
            "message": str(exc),
        }
        for key, value in exc.details.items():
            report[key] = value
        sys.stdout.write(fileio.dump_json(report))
        return 2
    except DDGError as exc:
        sys.stderr.write(f"error [{exc.code}]: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error [io]: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
