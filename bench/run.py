"""Benchmark of the ddgconf pipeline.

    python3 bench/run.py --workload cli-disks --seed 1 --seconds 20 --trace 0

Runs one workload in this process and thread against ``src/ddgconf`` of the
checkout that holds this file, for at least ``--seconds`` seconds of whole
rounds, checks every output, and prints one JSON object as the last line of
standard output: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
package's public functions and reports the per-layer metrics instead.
See ``bench/README.md``.
"""

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

if __name__ == "__main__":
    # one thread: OpenBLAS reads these when numpy and scipy load, and would
    # otherwise start a worker thread per core
    os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import workloads  # noqa: E402  brings in numpy and scipy.spatial, before the program

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
REFERENCE_LOOP = 300_000  # iterations: 20 to 40 ms, as fast as the core is at the time

LAYER_TIMES = (
    "mesh.TriMesh", "mesh.dual_cycles", "mesh.dual_spanning_tree", "mesh.vertex_spanning_tree",
    "realization.Realization", "realization.cross_ratios", "realization.check_conformal_equiv",
    "realization.check_pattern",
    "laplace.cotan_weights", "laplace.laplacian", "laplace.solve_dirichlet", "laplace.splu",
    "laplace.conjugate_harmonic",
    "deform.conformal_deformation", "deform.edge_rates", "deform.check_triangle_compat",
    "hqd.qdiff_from_harmonic", "hqd.verify_qdiff", "hqd.harmonic_from_qdiff",
    "hqd.qdiff_moebius_pushforward_check",
    "moebius.rates_from_deformation", "moebius.sl2_form_from_rates",
    "moebius.check_sl2_form_closed", "moebius.transition_matrices",
    "weierstrass.weierstrass_integrate", "weierstrass.verify_minimal", "weierstrass.dual_mesh",
    "fileio.read_obj", "fileio.read_obj_polygons", "fileio.write_obj", "fileio.dump_json",
    "fileio.load_json",
)
LAYER_CALLS = (
    "mesh.dual_cycles", "realization.Realization", "laplace.cotan_weights", "hqd.verify_qdiff",
    "weierstrass.verify_minimal",
)
LAYER_COUNTS = (
    ("laplace.lu_nnz", "count"), ("laplace.lu_solves", "count"),
    ("fileio.bytes_read", "B"), ("fileio.bytes_written", "B"),
)
MARGINS = (
    "dirichlet", "qdiff", "deform_closure", "weierstrass_closure", "minimal", "sl2_closed",
    "transition_cycle", "transition_cr",
)


def per_layer_spec():
    """``(name, unit, better)`` of every per-layer metric, in report order."""
    spec = [(f"{n}.ms", "ms", "lower") for n in LAYER_TIMES]
    spec += [(f"{n}.calls", "count", "lower") for n in LAYER_CALLS]
    spec += [(n, unit, "lower") for n, unit in LAYER_COUNTS]
    spec += [(f"cli.{c}.ms", "ms", "lower") for c in workloads.COMMANDS]
    spec += [("cli.self.ms", "ms", "lower")]
    spec += [(f"margin.{n}", "decades", "higher") for n in MARGINS]
    spec += [("trace.item_ref_p50", "ref", "lower")]
    return spec


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("cli-disks", "fields-disk", "moebius-grid"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import ``ddgconf`` from the checkout's ``src``; ``(module, seconds)``."""
    src = ROOT / "src"
    if not (src / "ddgconf" / "__init__.py").is_file():
        raise SystemExit(f"error: no ddgconf package under {src}")
    sys.path.insert(0, str(src))
    t = time.perf_counter()
    ddg = importlib.import_module("ddgconf")
    importlib.import_module("ddgconf.cli")
    elapsed = time.perf_counter() - t
    if not Path(ddg.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: imported ddgconf from {ddg.__file__}, not {src}")
    return ddg, elapsed


def reference_s():
    """Wall time of a fixed pure-Python loop that allocates nothing and
    touches nothing of the program: the speed of the core at this moment."""
    t = time.perf_counter()
    s = 0
    for i in range(REFERENCE_LOOP):
        s += i * i
    return time.perf_counter() - t


def measure(workload, seconds, tracer):
    """Run whole rounds until ``seconds`` of rounds have passed, and set up
    ``SETUP_REPEATS`` times: before the first round, and then between
    rounds, evenly over the run, so that the set-ups sample the machine's
    speed at different times rather than in one stretch.  The clock of the
    run stops during a set-up.  Returns ``(seconds of each set-up, warm-up
    items, items)``."""
    setups, warm, items = [], [], []

    def set_up():
        # untimed: the previous set-up's state is freed before the next is
        # built, so that peak_rss_mb counts one
        workload.release()
        gc.collect()
        shared = workload.setup()
        item = workload.run(workload.warmup())
        setups.append(shared + item.seconds)
        warm.append(item)

    set_up()
    elapsed, r = 0.0, 0
    before = reference_s()
    while r == 0 or elapsed < seconds:
        t = time.perf_counter()
        for spec in workload.round(r):
            if tracer:
                tracer.item = len(items)
            item = workload.run(spec)
            if tracer:
                tracer.item = None
            after = reference_s()
            item.ref_s = (before + after) / 2
            before = after
            items.append(item)
        elapsed += time.perf_counter() - t
        r += 1
        if len(setups) < SETUP_REPEATS and elapsed >= seconds * len(setups) / SETUP_REPEATS:
            set_up()
            before = reference_s()
    while len(setups) < SETUP_REPEATS:
        set_up()
    return setups, warm, items


def margins(defects):
    worst = {}
    for d in defects:
        if d.name in MARGINS:
            worst[d.name] = min(worst.get(d.name, math.inf), d.margin)
    return worst


def layer_metrics(tracer, ok_idx, ok_items):
    per = tracer.per_item(ok_idx)
    n = len(ok_idx)

    def mean(key):
        return sum(per[i].get(key, 0.0) for i in ok_idx) / n

    out = {}
    for name in LAYER_TIMES:
        out[f"{name}.ms"] = 1e3 * mean(name + ".self_s")
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = mean(name + ".calls")
    for name, _ in LAYER_COUNTS:
        out[name] = mean(name)
    for c in workloads.COMMANDS:
        out[f"cli.{c}.ms"] = 1e3 * mean(f"cli.{c}.total_s")
    out["cli.self.ms"] = 1e3 * sum(mean(f"cli.{c}.self_s") for c in workloads.COMMANDS)
    all_self = 1e3 * sum(mean(k) for k in {k for i in ok_idx for k in per[i] if k.endswith(".self_s")})
    item_ms = 1e3 * sum(it.seconds for it in ok_items) / n
    print(
        f"trace: self times of all spans sum to {all_self:.1f} ms per item "
        f"({all_self / item_ms:.1%} of the traced item time {item_ms:.1f} ms); "
        f"the per-layer .ms metrics cover {sum(out[f'{x}.ms'] for x in LAYER_TIMES) / item_ms:.1%} "
        f"of it, with cli.self {out['cli.self.ms'] / item_ms:.1%}",
        file=sys.stderr,
    )
    return out


def main(argv=None):
    args = parse_args(argv)
    ddg, import_s = import_program()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(ddg)

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=tmp_root)
    try:
        workload = workloads.WORKLOADS[args.workload](ddg, args.seed, scratch, tracer)
        setups, warm, items = measure(workload, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(scratch)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run shares it

    attempted = sum(len(it.ops) for it in items)
    failed = sum(not ok for it in items for _, ok in it.ops)
    setup_defects = workload.setup_defects
    check_failures = [("setup", f"{d.name}: {d.value:.3e} > {d.tol:.1e}") for d in setup_defects if not d.ok]
    check_failures += [(it.key, f) for it in warm + items for f in it.check_failures]
    for key, f in check_failures:
        print(f"check failed on item {key}: {f}", file=sys.stderr)
    failures = {}
    for it in items:
        if not it.ok:
            failures.setdefault(it.key, it.errors)
    for key, errors in failures.items():
        print(f"failed item {key}: {'; '.join(errors)}", file=sys.stderr)
    ok_idx = [i for i, it in enumerate(items) if it.ok]
    ok_items = [items[i] for i in ok_idx]
    if not ok_items:
        print("error: no item succeeded", file=sys.stderr)
        return 1

    times = [it.seconds for it in ok_items]
    # item times in units of the reference loop timed beside each item
    refs = [it.seconds / it.ref_s for it in ok_items]
    if tracer:
        metrics = layer_metrics(tracer, ok_idx, ok_items)
        defects = setup_defects + [d for it in ok_items for d in it.defects]
        worst = margins(defects)
        for name in MARGINS:
            # 0 where the workload runs no such check
            metrics[f"margin.{name}"] = worst.get(name, 0.0)
        metrics["trace.item_ref_p50"] = statistics.median(refs)
        units = {name: unit for name, unit, _ in per_layer_spec()}
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "item_ref_p50": statistics.median(refs),
            "verts_per_ref": sum(it.verts for it in ok_items) / sum(refs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "item_ref_p50": "ref", "verts_per_ref": "vert/ref", "peak_rss_mb": "MB"}
    print(
        f"{args.workload}: {len(items)} items ({len(ok_items)} ok), {attempted} operations, "
        f"{failed} failed; import {import_s:.4f} s, set-ups "
        + " ".join(f"{s:.4f}" for s in setups)
        + f" s; item wall time median {statistics.median(times):.4f} s, reference loop median "
        f"{1e3 * statistics.median(it.ref_s for it in ok_items):.2f} ms",
        file=sys.stderr,
    )
    result = {
        "correct": not check_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
