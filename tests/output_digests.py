"""Byte digests of every ``ddg`` command's outputs, to compare two versions.

Runs every ``ddg`` command in process through ``ddgconf.cli.main``, once
plain and once with ``--report`` where the command takes it, on four disks
of ``conftest.py``: the fixture disk ``delaunay_disk(300, 5)``, the
seed-1055 sliver ``delaunay_disk(1000, 1055)``, the jittered grid
``jittered_grid(14, 0.45, 3)`` and a Moebius image of the fixture disk.
Each disk goes through the commands in the order a user runs them, each
reading the files the ones before it wrote (``deform check`` and ``moebius
mu`` read ``deform build``'s ``zdot`` as ``{"values": ...}``, and 0 where
that field fails its check).  The pair commands compare the disk with
itself, with a Moebius image of it and with a copy moved a small step along
its ``zdot``; ``moebius mu`` and ``eta`` also run on the zero field.  One
line per run: the disk, the command, its exit code, and the sha256 of its
standard output, of its standard error and of each file it wrote or
changed.  Paths are relative to a scratch directory, so the listing depends
only on the ``ddgconf`` imported.

Every command builds a fresh ``Realization``, so a last section runs the
library chain of the benchmark's ``fields-disk`` items (``solve_dirichlet``,
``qdiff_from_harmonic``, ``verify_qdiff``, ``harmonic_from_qdiff``,
``conformal_deformation``, ``weierstrass_integrate``) twice on one
realization of the fixture disk and of the sliver, each time on new
boundary data as the benchmark does, and lists the sha256 of each output of
the second pass: its checks replace the fields the first pass left on the
realization, and its later steps read the checks of its earlier ones.  The
chain ends with two library checks whose results commands print in part:
``check_triangle_compat`` on the ``edge_rates`` of the deformation (its
verdicts, defects, face rates and closure ``Defect``) and ``verify_minimal``
on each member of the surface's associate family at ``cli.DEFAULT_ALPHAS``
(its verdict, worst residual, ``k`` and ``Defect``).
Then, on the same two disks, come the library verdicts on faulty input that
no command reaches: ``harmonic_from_qdiff`` and ``verify_qdiff`` on the
real field ``i s q`` (s = 1e3, 1, 1e-10) and on ``(1 + i) q``, and
``check_harmonic`` of ``solve_dirichlet`` at boundary offsets 0 and 1e6;
each line gives the error class and the sha256 of its message and details,
or ``result`` and the sha256 of what the check returned::

    PYTHONPATH=<checkout>/src python tests/output_digests.py > digests.txt

Run it on two checkouts and ``diff`` the listings; the first differing line
is where the outputs part, since later commands read earlier outputs.
``--wheel`` runs the 6-face wheel alone.  ``--against REV`` does both runs
itself: it extracts ``REV``'s ``src/`` with ``git archive``, lists the
outputs of that ``ddgconf`` and of the working tree's, each in an
interpreter of its own, and prints each differing line of the two as a
``-`` and a ``+`` line; it exits 1 when a line differs, 0 when none does::

    PYTHONPATH=src python tests/output_digests.py --against HEAD~1
"""

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from itertools import zip_longest
from pathlib import Path

import numpy as np

from ddgconf import Realization, build, deform, fileio, hqd, laplace, weierstrass
from ddgconf.cli import COMMANDS, DEFAULT_ALPHAS, main
from ddgconf.errors import DDGError

from conftest import WHEEL6_FACES, delaunay_disk, jittered_grid, random_moebius


def wheel():
    z = np.concatenate([[0.05 + 0.02j], np.exp(2j * np.pi * np.arange(6) / 6.0)])
    return Realization(build(WHEEL6_FACES), z)


def disks(wheel_only=False):
    """``(name, realization)`` of each disk the listing covers."""
    if wheel_only:
        return [("wheel", wheel())]
    fixture = delaunay_disk(300, 5)
    phi = random_moebius(fixture, np.random.default_rng(29))
    return [
        ("fixture", fixture),
        ("sliver", delaunay_disk(1000, 1055)),
        ("grid", jittered_grid(14, 0.45, 3)),
        ("image", Realization(fixture.mesh, phi.apply(fixture.z))),
    ]


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _files():
    return {p.name: _digest(p.read_bytes()) for p in sorted(Path().iterdir())}


def run(name, argv):
    """Run ``ddg argv`` (twice, the second with ``--report``, where the
    command takes it) in the current directory; one listing line per run."""
    takes_report = "report" in COMMANDS[" ".join(argv[:2])][3].split()
    lines = []
    for extra in ([], ["--report"]) if takes_report else ([],):
        before, out, err = _files(), io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + extra)
        written = [f"{f} {h}" for f, h in _files().items() if before.get(f) != h]
        fields = [name, " ".join(argv + extra), f"exit {code}",
                  f"stdout {_digest(out.getvalue().encode())}", f"stderr {_digest(err.getvalue().encode())}"]
        lines.append(" | ".join(fields + written))
    return lines


def write_values(path, values):
    Path(path).write_text(fileio.dump_json({"values": values}), encoding="utf-8")


def listing(name, r):
    """The listing lines of one disk, run in the current directory."""
    rng = np.random.default_rng(30)
    mesh, n = r.mesh, r.mesh.vertex_count
    fileio.write_obj_planar("disk.obj", mesh, r.z)
    fileio.write_obj_planar("image.obj", mesh, random_moebius(r, rng).apply(r.z))
    boundary = {str(v): float(rng.standard_normal()) for v in mesh.boundary_vertices}
    Path("bnd.json").write_text(fileio.dump_json({"boundary": boundary}), encoding="utf-8")
    write_values("zero.json", np.zeros(n, dtype=complex))
    lines = run(name, ["mesh", "info", "disk.obj"])
    lines += run(name, ["harmonic", "solve", "disk.obj", "bnd.json", "-o", "u.json"])
    lines += run(name, ["harmonic", "check", "disk.obj", "u.json"])
    lines += run(name, ["deform", "build", "disk.obj", "u.json", "-o", "deform.json"])
    # a field that fails its closure check writes no report: zdot is then 0
    built = Path("deform.json").exists()
    zdot = fileio.load_json("deform.json")["zdot"] if built else np.zeros(n, dtype=complex)
    write_values("zdot.json", zdot)
    zdot = fileio.vertex_field_from_json(fileio.load_json("zdot.json"), n, real=False)
    step = 1e-3 * np.abs(r.z - r.z.mean()).max() / max(np.abs(zdot).max(), 1.0)
    fileio.write_obj_planar("moved.obj", mesh, r.z + step * zdot)
    lines += run(name, ["deform", "check", "disk.obj", "zdot.json"])
    lines += run(name, ["hqd", "from-harmonic", "disk.obj", "u.json", "-o", "q.json"])
    lines += run(name, ["hqd", "check", "disk.obj", "q.json"])
    lines += run(name, ["hqd", "to-harmonic", "disk.obj", "q.json"])
    lines += run(name, ["hqd", "moebius-test", "disk.obj", "q.json"])
    # the zero field's rates and the identity transitions are made of signed zeros
    for field, mu in (("zdot.json", "mu.json"), ("zero.json", "mu0.json")):
        lines += run(name, ["moebius", "mu", "disk.obj", field, "-o", mu])
        lines += run(name, ["moebius", "eta", "disk.obj", mu])
    for other in ("moved.obj", "image.obj", "disk.obj"):
        lines += run(name, ["moebius", "transitions", "disk.obj", other])
    lines += run(name, ["check", "conformal", "disk.obj", "image.obj"])
    lines += run(name, ["check", "pattern", "disk.obj", "image.obj"])
    lines += run(name, ["minimal", "build", "disk.obj", "q.json", "-o", "surf"])
    lines += run(name, ["minimal", "verify", "surf_gauss.obj", "surf_a0.obj"])
    return lines


CHAIN_DISKS = ("fixture", "sliver")


def _bytes(*parts):
    """The bytes of each array part and the ``repr`` of each other part, joined."""
    return b"".join(p.tobytes() if isinstance(p, np.ndarray) else repr(p).encode() for p in parts)


def chain_outputs(r, boundary):
    """``(output, bytes)`` of each output of the ``fields-disk`` chain on one
    boundary datum; a step that raises gives its error instead."""
    u = laplace.solve_dirichlet(r, boundary)
    q = hqd.qdiff_from_harmonic(r, u)
    rep = hqd.verify_qdiff(r, q)
    sums = [np.fromiter(m.values(), complex, len(m)) for m in (rep.vertex_sum, rep.weighted_sum)]
    defects = [x for d in rep.defects for x in (d.value, float(d.scale))]
    outputs = [
        ("u", _bytes(u)),
        ("q", _bytes(q.imag)),
        ("report", _bytes(rep.holomorphic, rep.max_real_part, rep.max_defect, *defects)),
        ("sums", _bytes(*sums)),
    ]

    def surface():
        s = weierstrass.weierstrass_integrate(r, q)
        return _bytes(s.potential, s.f, s.k, s.closure_defect)

    def compat():
        rep = deform.check_triangle_compat(r, deform.edge_rates(r, deform.conformal_deformation(r, u)))
        return _bytes(rep.ok, rep.defect, rep.omega_face, rep.sigma_face, rep.closure.value, rep.closure.scale)

    def minimal():
        s, n = weierstrass.weierstrass_integrate(r, q), weierstrass.gauss_map(r)
        reports = [weierstrass.verify_minimal(r.mesh, n, s.at_phase(alpha).f) for alpha in DEFAULT_ALPHAS]
        return _bytes(*(x for m in reports for x in (m.minimal, m.max_residual, m.k, m.defect.value, m.defect.scale)))

    steps = (
        ("u2", lambda: _bytes(hqd.harmonic_from_qdiff(r, q))),
        ("zdot", lambda: _bytes(deform.conformal_deformation(r, u))),
        ("surface", surface),
        ("compat", compat),
        ("minimal", minimal),
    )
    for output, step in steps:
        try:
            outputs.append((output, step()))
        except DDGError as exc:
            outputs.append((output, f"{type(exc).__name__}: {exc}".encode()))
    return outputs


def chain(name, r):
    """The chain lines of one disk: the second of two passes on ``r``."""
    rng = np.random.default_rng(31)
    for _ in range(2):
        boundary = {v: float(rng.standard_normal()) for v in r.mesh.boundary_vertices.tolist()}
        outputs = chain_outputs(r, boundary)
    return [f"{name} | chain {output} | {_digest(data)}" for output, data in outputs]


def _verdict(check):
    """``(class, sha256)`` of the error ``check()`` raises, its message and
    details, or ``("result", sha256)`` of the bytes it returns."""
    try:
        return "result", _digest(check())
    except DDGError as exc:
        return type(exc).__name__, _digest(f"{exc} {exc.details!r}".encode())


def verdicts(name, r):
    """The library-verdict lines of one disk: ``harmonic_from_qdiff`` and
    ``verify_qdiff`` on the real field ``i s q`` and on ``(1 + i) q``, for a
    holomorphic ``q`` with ``max|q| = 1``, and ``check_harmonic`` of the
    solve on boundary noise offset by 0 and by 1e6."""
    rng = np.random.default_rng(1)
    noise = {v: float(rng.standard_normal()) for v in r.mesh.boundary_vertices.tolist()}
    q = hqd.qdiff_from_harmonic(r, laplace.solve_dirichlet(r, noise)).values
    q = q / np.abs(q).max()

    def report(x):
        rep = hqd.verify_qdiff(r, x)
        defects = [x for d in rep.defects for x in (d.value, float(d.scale))]
        return _bytes(rep.holomorphic, rep.max_real_part, rep.max_defect, *defects)

    def harmonic(offset):
        u = laplace.solve_dirichlet(r, {v: offset + x for v, x in noise.items()})
        ok, defect, res = laplace.check_harmonic(r, u)
        return _bytes(ok, defect.value, float(defect.scale), res)

    fields = [(f"1j*{s:g}*q", 1j * s * q) for s in (1e3, 1.0, 1e-10)] + [("(1+1j)*q", (1 + 1j) * q)]
    checks = [(f"harmonic_from_qdiff({label})", lambda x=x: _bytes(hqd.harmonic_from_qdiff(r, x)))
              for label, x in fields]
    checks += [(f"verify_qdiff({label})", lambda x=x: report(x)) for label, x in fields]
    checks += [(f"check_harmonic(offset {c:g})", lambda c=c: harmonic(c)) for c in (0.0, 1e6)]
    return [f"{name} | verdict {label} | {' | '.join(_verdict(check))}" for label, check in checks]


def digests(wheel_only=False):
    """Every listing line, each disk run in a scratch directory of its own,
    then the chain lines, then the library-verdict lines."""
    lines, chains, checks, cwd = [], [], [], os.getcwd()
    for name, r in disks(wheel_only):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                lines += listing(name, r)
            finally:
                os.chdir(cwd)
        if name in CHAIN_DISKS:
            chains += chain(name, r)
            checks += verdicts(name, r)
    return lines + chains + checks


def differing(old, new):
    """``- line`` of ``old`` and ``+ line`` of ``new`` for each place where
    the two listings differ; a listing that ends first gives no line there."""
    pairs = [(a, b) for a, b in zip_longest(old, new) if a != b]
    return [f"{sign} {line}" for pair in pairs for sign, line in zip("-+", pair) if line is not None]


def listing_of(src, wheel_only):
    """The listing lines of the ``ddgconf`` in ``src``, in an interpreter of
    its own."""
    argv = [sys.executable, str(Path(__file__).resolve())] + ["--wheel"] * wheel_only
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()


def against(rev, wheel_only=False):
    """:func:`differing` lines of the listings of ``rev``'s ``src/`` and of
    the working tree's."""
    root = Path(__file__).resolve().parents[1]
    archive = subprocess.run(["git", "-C", str(root), "archive", rev, "src"], stdout=subprocess.PIPE, check=True)
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        old = listing_of(Path(tmp) / "src", wheel_only)
    return differing(old, listing_of(root / "src", wheel_only))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Byte digests of every ddg command's outputs.")
    parser.add_argument("--wheel", action="store_true", help="run the 6-face wheel alone")
    parser.add_argument("--against", metavar="REV", help="print the lines that differ from REV's src/")
    args = parser.parse_args()
    if args.against is None:
        print("\n".join(digests(args.wheel)))
    else:
        lines = against(args.against, args.wheel)
        if lines:
            print("\n".join(lines))
        sys.exit(1 if lines else 0)
