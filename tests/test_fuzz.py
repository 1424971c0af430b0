"""Seeded input fuzz: mutated OBJ and JSON inputs for every ``ddg`` command
on a 60-point disk.  Whatever the input, ``main`` returns 0, 1 or 2 and
raises nothing; exit 1 prints nothing on stdout and one coded error line on
stderr; exit 0 writes no stderr; and what stdout carries is JSON without
NaN or infinities.  The seed and the run count are pinned, so a failing run
reproduces; a case it finds becomes a named test in ``test_input_faults.py``."""

import json
import re

import numpy as np
import pytest

from ddgconf import errors, fileio, laplace
from ddgconf.cli import COMMANDS, main

from conftest import delaunay_disk

SEED, RUNS = 2021, 400

# each command with its inputs, "-o" prefixes where it must write files
CASES = {
    "mesh info": ["disk.obj"],
    "check conformal": ["disk.obj", "image.obj"],
    "check pattern": ["disk.obj", "image.obj"],
    "harmonic solve": ["disk.obj", "bnd.json"],
    "harmonic check": ["disk.obj", "u.json"],
    "deform build": ["disk.obj", "u.json"],
    "deform check": ["disk.obj", "zdot.json"],
    "hqd check": ["disk.obj", "q.json"],
    "hqd from-harmonic": ["disk.obj", "u.json"],
    "hqd to-harmonic": ["disk.obj", "q.json"],
    "hqd moebius-test": ["disk.obj", "q.json"],
    "moebius mu": ["disk.obj", "zdot.json"],
    "moebius eta": ["disk.obj", "mu.json"],
    "moebius transitions": ["disk.obj", "image.obj"],
    "minimal build": ["disk.obj", "q.json", "-o", "out"],
    "minimal verify": ["min_gauss.obj", "min_a0.obj"],
}

# main's one stderr line for exit 1: a code of errors.py, or "io" for an OSError
CODES = {c.code for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.DDGError)} | {"io"}
ERROR_LINE = re.compile(r"error \[([a-z_]+)\]: [^\n]*\n")

TOKENS = [
    "nan", "inf", "-inf", "1e308", "1e400", "5e-324", "-0", "x", "", "0", "-1", "+1", "1.0", "1e2", "0x10",
    "1_0", "١", "99999999999999999999", "-99999999999999999999", "1e-300", "1/1", "1,5", "\x00",
]
LINES = ["v 0 0 0", "f 1 1 1", "f 1 2", "# v 1 2 3", "vt 0 0", "  v 1 2 3", "v\t1 2 3", "f", "v", "f 1 2 3 4"]
VALUES = [float("nan"), float("inf"), -1e308, 5e-324, -0.0, "x", None, [], [1.0], [1.0, 2.0, 3.0], {}, True, 10**400]
KEYS = ["0-0", "05-2", "2-1", "-1", "a", "99", "1-2-3", "+1-2", " 1-2", "", "0" * 25 + "1", "1-٢"]


def _pick(rng, seq):
    return seq[rng.integers(len(seq))]


def mutate_obj(rng, text):
    lines = text.split("\n")
    i, j = rng.integers(len(lines), size=2)
    kind = rng.integers(8)
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(i, lines[j])  # a duplicated line
    elif kind == 2:
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == 3:
        return text[: rng.integers(len(text))]
    elif kind == 4:
        parts = lines[i].split(" ")
        parts[rng.integers(len(parts))] = _pick(rng, TOKENS)
        lines[i] = " ".join(parts)
    elif kind == 5:
        lines.insert(i, _pick(rng, LINES))
    elif kind == 6:  # every coordinate scaled by one power of ten
        s = 10.0 ** rng.integers(-300, 300)
        for k, line in enumerate(lines):
            if line.startswith("v "):
                lines[k] = " ".join(["v", *(repr(float(x) * s) for x in line.split()[1:])])
    else:
        return "\r\n".join(lines).replace(" ", _pick(rng, [" ", "\t", "  ", " \x0b"]))
    return "\n".join(lines)


def _containers(obj, found):
    if isinstance(obj, (dict, list)) and obj:
        found.append(obj)
        for v in obj.values() if isinstance(obj, dict) else obj:
            _containers(v, found)
    return found


def _scaled(obj, s):
    if isinstance(obj, float):
        return obj * s
    if isinstance(obj, list):
        return [_scaled(v, s) for v in obj]
    return {k: _scaled(v, s) for k, v in obj.items()} if isinstance(obj, dict) else obj


def mutate_json(rng, obj):
    kind = rng.integers(6)
    found = _containers(obj, [])
    box = _pick(rng, found) if found else None
    keys = list(box) if isinstance(box, dict) else list(range(len(box or [])))
    key = _pick(rng, keys) if keys else None
    if kind == 0 and box is not None:
        box[key] = _pick(rng, VALUES)
    elif kind == 1 and box is not None:
        del box[key]
    elif kind == 2 and isinstance(box, dict):
        box[_pick(rng, KEYS)] = box.pop(key)
    elif kind == 3:
        obj = _scaled(obj, 10.0 ** rng.integers(-300, 300))
    elif kind == 4:
        obj = _pick(rng, [{"x": obj}, [obj], _pick(rng, VALUES)])
    text = json.dumps(obj)
    return text[: rng.integers(len(text))] if kind == 5 else text


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The disk, a scaled copy of it, and every command's clean input."""
    d = tmp_path_factory.mktemp("fuzz")
    r = delaunay_disk(60, seed=3)
    fileio.write_obj_planar(d / "disk.obj", r.mesh, r.z)
    fileio.write_obj_planar(d / "image.obj", r.mesh, 2.0 * r.z + 0.5j)
    bnd = {int(v): float(np.cos(3 * r.z[v].real)) for v in r.mesh.boundary_vertices}
    (d / "bnd.json").write_text(json.dumps({"boundary": bnd}))
    (d / "u.json").write_text(json.dumps({"values": laplace.solve_dirichlet(r, bnd).tolist()}))
    for argv in (
        ["deform", "build", "disk.obj", "u.json", "-o", "zdot.json"],
        ["hqd", "from-harmonic", "disk.obj", "u.json", "-o", "q.json"],
        ["moebius", "mu", "disk.obj", "zdot.json", "-o", "mu.json"],
        ["minimal", "build", "disk.obj", "q.json", "--alpha", "0", "-o", "min"],
    ):
        assert main([str(d / a) if "." in a or a == "min" else a for a in argv]) == 0
    return d


def _reject(name):
    raise ValueError(f"stdout holds {name}")


def test_cases_cover_every_command():
    assert sorted(CASES) == sorted(COMMANDS)


def test_mutated_inputs_end_in_a_verdict_or_a_coded_error(inputs, capsys):
    rng = np.random.default_rng(SEED)
    names = sorted(CASES)
    faults = []
    for run in range(RUNS):
        command = _pick(rng, names)
        argv = list(CASES[command])
        files = [k for k, a in enumerate(argv) if "." in a]
        k = _pick(rng, files)
        original = (inputs / argv[k]).read_text()
        if argv[k].endswith(".obj"):
            text = mutate_obj(rng, original)
        else:
            text = mutate_json(rng, json.loads(original))
        argv[k] = "fuzz" + argv[k][argv[k].rindex(".") :]
        (inputs / argv[k]).write_text(text, encoding="utf-8")
        where = f"run {run}: {command} with {argv[k]} = {text[:80]!r}"
        try:
            code = main([*command.split(), *(str(inputs / a) if "." in a or a == "out" else a for a in argv)])
        except Exception as exc:  # any escape is the fault looked for
            faults.append(f"{where}: raised {exc!r}")
            capsys.readouterr()
            continue
        out, err = capsys.readouterr()
        if code not in (0, 1, 2):
            faults.append(f"{where}: exit {code!r}")
        elif code == 1:
            line = ERROR_LINE.fullmatch(err)
            if out or not line or line[1] not in CODES:
                faults.append(f"{where}: exit 1 with stdout {out[:60]!r}, stderr {err[:120]!r}")
            continue
        if code == 0 and err:
            faults.append(f"{where}: exit 0 with stderr {err[:120]!r}")
        try:
            json.loads(out, parse_constant=_reject)
        except ValueError as exc:
            faults.append(f"{where}: exit {code} with stdout that is not finite JSON ({exc})")
    assert faults == []
