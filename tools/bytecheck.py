"""Byte-identity check of every CLI output between two commits, or of one
revision across BLAS kernels.

Usage, from anywhere inside the repository:

    python3 tools/bytecheck.py BASE [HEAD] [--allow GLOB:NAME[=BOUND[,FLOOR]]]...
                               [--allow-streams ID]...
    python3 tools/bytecheck.py --kernels CORE[,CORE...] [REV]

BASE and HEAD are git revisions; without HEAD the working tree's ``src/`` is
the second side. Each revision's ``src/`` is exported with ``git archive``
into a temporary directory, so nothing is checked out in the repository and
nothing is left behind. Every command of ``COMMANDS`` runs on both sides, in
a fresh empty directory per side, command and thread count, as
``python -m kerrdimer.cli`` with that side's ``src/`` on ``PYTHONPATH`` and
``OPENBLAS_NUM_THREADS`` set to 1 and to 2. Every file the command
writes, its stdout, its stderr and its exit code must then be the same bytes
on both sides, except for the declared differences:

- ``--allow 'GLOB:COLUMN_GLOB=BOUND[,FLOOR]'``: in a CSV file whose name
  matches GLOB, the cells of the matching columns may differ by BOUND
  relative to the larger of their magnitudes and FLOOR (0 when not given),
  so that cells below FLOOR are bounded absolutely by BOUND * FLOOR (both
  numbers, or both the same text); a cell passes if one of the
  declarations that match its column admits it;
- ``--allow 'GLOB:KEY_GLOB'``: in a JSON file whose name matches GLOB, the
  matching top-level keys may hold any value; with ``=BOUND[,FLOOR]``,
  their values must keep their shape and text, and their numbers may
  differ as a CSV cell's may;
- ``--allow-streams ID``: the exit code, stdout and stderr of command ID
  may differ (a fixed error message, say); they are printed.

``--kernels`` is the other axis: one revision (REV, or the working tree's
``src/``), every command run natively and with ``OPENBLAS_CORETYPE`` set
to each CORE (an OpenBLAS core name such as Haswell or Prescott), at each
thread count, each kernel's outputs compared with the native ones. What
may move is what the README declares (``KERNEL_DECLARED``): the numbers of
the master-equation solves and of the eigensolver within 1e-12 relative
(cells below 1e-14 within 1e-26), a saved state's residual, and
``validate``'s reported deviations within 1e-12. It names the core that
OpenBLAS runs on each side; a CORE that runs the native core is reported
and skipped. Only a DYNAMIC_ARCH OpenBLAS switches kernels at run time:
with any other BLAS it says so and exits 0.

It prints one line per command (``same``, ``declared`` with what differed
within the declarations, or ``DIFFERS`` with the first differences) and
exits 0 when every command is same or declared, 1 otherwise. A run takes a
few minutes.
"""

from __future__ import annotations

import argparse
import csv
import fnmatch
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the paper's SI device (presets' si_reference)
SI = ("--units", "si", "--wavelength", "1.55e-6", "--q-intrinsic", "2e9", "--chi3", "2e-17",
      "--v-eff", "1e-16", "--p-in", "4e-15")
LOSSLESS = ("--set", "gamma_1=0", "--set", "gamma_ex=0", "--set", "gamma_2=0")
NO_GAMMA1 = ("--set", "gamma_1=0", "--set", "gamma_ex=0")

# (id, argv): every subcommand, the fig3 twin, SI units (a sweep, a cut and
# a map of several analytic blocks), the Lindblad
# backend of each command that has one, a sweep near a multi-photon
# resonance whose certificate escalates, a map of several analytic blocks,
# a Lindblad map whose chunks take several stacks at the default cutoff,
# the configuration errors of the S1 normalization and the LEP window, and
# a drive whose N1^3 leaves the float range
COMMANDS = [
    ("sweep-loss", ("sweep-loss",)),
    ("sweep-loss-fig3", ("sweep-loss", "--preset", "paper_fig3")),
    ("sweep-loss-si", ("sweep-loss", *SI)),
    ("sweep-loss-strong", ("sweep-loss", "--set", "omega_drive_amp=0.5",
                           "--gamma-tip-grid=0:12:13")),
    ("sweep-loss-escalates", ("sweep-loss", "--backend", "lindblad", "--set",
                              "omega_drive_amp=0.05", "--protocol", "fixed:-13",
                              "--gamma-tip-grid=0:12:5")),
    ("sweep-loss-resonant", ("sweep-loss", "--backend", "lindblad", "--set",
                             "omega_drive_amp=0.01", "--protocol", "fixed:-0.43",
                             "--gamma-tip-grid=0:12:13")),
    ("sweep-loss-weak", ("sweep-loss", "--backend", "lindblad", "--set",
                         "omega_drive_amp=0.0003", "--gamma-tip-grid=0:12:13")),
    ("critical-points", ("critical-points",)),
    ("critical-points-lindblad", ("critical-points", "--backend", "lindblad",
                                  "--gamma-tip-grid=0:12:25")),
    ("spectrum", ("spectrum", "--gamma-tip", "0", "--gamma-tip", "8.9",
                  "--delta-grid=-4:4:501")),
    ("spectrum-si", ("spectrum", *SI, "--gamma-tip", "6")),
    ("spectrum-lindblad", ("spectrum", "--backend", "lindblad", "--cutoff", "3,3",
                           "--gamma-tip", "0", "--delta-grid=-4:4:21")),
    ("spectrum-map", ("spectrum-map",)),
    ("spectrum-map-blocks", ("spectrum-map", "--gamma-tip-grid=0:12:13",
                             "--delta-grid=-4:4:501")),
    ("spectrum-map-si", ("spectrum-map", *SI, "--gamma-tip-grid=0:12:13",
                         "--delta-grid=-4:4:501")),
    ("spectrum-map-lindblad", ("spectrum-map", "--backend", "lindblad", "--cutoff", "3,3",
                               "--gamma-tip-grid=0:12:3", "--delta-grid=-4:4:11")),
    ("spectrum-map-lindblad-ceiling", ("spectrum-map", "--backend", "lindblad",
                                       "--gamma-tip-grid=0:12:5", "--delta-grid=-4:4:5")),
    ("eigen", ("eigen",)),
    ("lep", ("lep",)),
    ("ep-agreement", ("ep-agreement",)),
    ("distribution", ("distribution", "--save-states")),
    ("distribution-fig3", ("distribution", "--preset", "paper_fig3")),
    ("validate", ("validate",)),
    ("spectrum-lossless", ("spectrum", *LOSSLESS, "--gamma-tip", "0")),
    ("spectrum-map-lossless", ("spectrum-map", *LOSSLESS, "--gamma-tip-grid=0:1:3",
                               "--delta-grid=-1:1:5")),
    ("spectrum-loss-underflow", ("spectrum", "--set", "gamma_1=1e-170", "--set", "gamma_ex=0",
                                 "--set", "gamma_2=0", "--gamma-tip", "0")),
    ("spectrum-drive-overflow", ("spectrum", "--set", "omega_drive_amp=1e200",
                                 "--gamma-tip", "0")),
    ("spectrum-loss-overflow", ("spectrum", "--gamma-tip", "1e200")),
    ("sweep-loss-drive-overflow", ("sweep-loss", "--backend", "analytic", "--set",
                                   "omega_drive_amp=1e20")),
    ("critical-points-drive-overflow", ("critical-points", "--set", "omega_drive_amp=1e20")),
    ("lep-no-gamma1", ("lep", *NO_GAMMA1)),
    ("ep-agreement-no-gamma1", ("ep-agreement", *NO_GAMMA1)),
    ("critical-points-no-gamma1", ("critical-points", *NO_GAMMA1)),
]
THREADS = ("1", "2")  # OPENBLAS_NUM_THREADS of the runs
# what may move across BLAS kernels, as the README declares it: (command id
# glob, --allow declaration); and the commands whose stdout numbers (the
# deviations validate reports) may move, by at most the bound, absolutely
KERNEL_BOUND = "=1e-12,1e-14"
KERNEL_DECLARED = [
    ("sweep-loss*", "*.csv:lindblad_*" + KERNEL_BOUND),
    ("*-lindblad", "*.csv:s1" + KERNEL_BOUND),
    *(("eigen", f"figS*.csv:{column}" + KERNEL_BOUND)
      for column in ("re_lambda", "im_lambda", "pop_*", "population")),
    *(("distribution*", f"fig3b.csv:{column}" + KERNEL_BOUND)
      for column in ("p_m", "poisson_m", "deviation", "ratio")),
    ("distribution*", "steady_state_*.json:data" + KERNEL_BOUND),
    ("distribution*", "steady_state_*.json:residual"),
]
KERNEL_STDOUT = {"validate": 1e-12}
# the core OpenBLAS runs, and numpy's BLAS build configuration, as JSON
BLAS_PROBE = """
import ctypes, glob, json, os, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
core = None
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
for lib in glob.glob(libs):
    for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                 "openblas_get_corename"):
        get = getattr(ctypes.CDLL(lib), name, None)
        if get is not None:
            get.restype = ctypes.c_char_p
            core = get().decode()
print(json.dumps({"name": blas.get("name"), "config": blas.get("openblas configuration") or "",
                  "core": core}))
"""
NUMBER = re.compile(rb"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
MAX_SHOWN = 4  # differences shown per command
TIMEOUT_S = 600


def parse_allow(spec: str) -> tuple[str, str, tuple[float, float] | None]:
    """``GLOB:NAME_GLOB[=BOUND[,FLOOR]]`` -> (file glob, column or key glob,
    (bound, floor) of a CSV column, or None for a JSON key)."""
    files, sep, rest = spec.partition(":")
    name, eq, limit = rest.partition("=")
    bound, comma, floor = limit.partition(",")
    try:
        if not (sep and files and name) or (eq and not bound) or (comma and not floor):
            raise ValueError
        return files, name, (float(bound), float(floor or 0.0)) if eq else None
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--allow takes GLOB:NAME[=BOUND[,FLOOR]], got {spec!r}") from None


def export_src(rev: str, dest: Path) -> Path:
    """``src/`` of a revision, exported into ``dest``; its path."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         check=True, capture_output=True).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}  # Python >= 3.11.4
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **safe)
    return dest / "src"


def _environment(src: Path, threads: str, kernel: str | None) -> dict:
    """The environment of a run: ``src`` on PYTHONPATH, the BLAS thread
    count, and OPENBLAS_CORETYPE set to ``kernel``: removed where it is ""
    (the native kernel), the caller's where it is None."""
    env = {k: v for k, v in os.environ.items() if k != "KERRDIMER_OUTPUT_DIR"}
    env.update(PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
    if kernel is not None:
        env.pop("OPENBLAS_CORETYPE", None)
    if kernel:
        env["OPENBLAS_CORETYPE"] = kernel
    return env


def blas_info(src: Path, kernel: str = "") -> dict:
    """numpy's BLAS (``name``, its OpenBLAS build ``config``) and the
    ``core`` OpenBLAS runs under ``kernel`` (None where it cannot be read)."""
    res = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=_environment(src, "1", kernel),
                         check=True, capture_output=True, timeout=TIMEOUT_S)
    return json.loads(res.stdout)


def run_command(src: Path, argv, threads: str, cwd: Path, kernel: str | None = None) -> dict:
    """Run one command in the empty directory ``cwd``, with OPENBLAS_CORETYPE
    set to ``kernel`` (as ``_environment``); what it left there."""
    cwd.mkdir(parents=True)
    res = subprocess.run([sys.executable, "-m", "kerrdimer.cli", *argv], cwd=cwd,
                         env=_environment(src, threads, kernel),
                         capture_output=True, timeout=TIMEOUT_S)
    files = {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*"))
             if p.is_file()}
    # a traceback names the side's source directory, which differs by design
    return {"exit code": res.returncode, "files": files,
            **{name: stream.replace(str(src).encode(), b"<src>")
               for name, stream in (("stdout", res.stdout), ("stderr", res.stderr))}}


def _rel(a: float, b: float, floor: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), floor)


def compare_csv(name: str, old: bytes, new: bytes, allow) -> tuple[list, dict]:
    """(differences, declared) of two CSV files: ``declared`` maps each
    allowed column that differed to its largest relative difference (with
    the floor of the declaration that admitted it)."""
    columns = [(glob, limit) for files, glob, limit in allow
               if limit is not None and fnmatch.fnmatch(Path(name).name, files)]
    a_lines, b_lines = old.decode().splitlines(), new.decode().splitlines()
    a_meta = [x for x in a_lines if x.startswith("#")]
    if a_meta != [x for x in b_lines if x.startswith("#")]:
        return [f"{name}: metadata lines differ"], {}
    a_rows = list(csv.reader(x for x in a_lines if not x.startswith("#")))
    b_rows = list(csv.reader(x for x in b_lines if not x.startswith("#")))
    if len(a_rows) != len(b_rows) or not a_rows or a_rows[0] != b_rows[0]:
        return [f"{name}: header or row count differs"], {}
    header = a_rows[0]
    diffs, declared = [], {}
    for i, (ra, rb) in enumerate(zip(a_rows[1:], b_rows[1:]), start=1):
        for col, x, y in zip(header, ra, rb):
            if x == y:
                continue
            try:
                a, b = float(x), float(y)
            except ValueError:  # text
                a = b = None
            rels = [] if a is None else [
                rel for glob, (bound, floor) in columns
                if fnmatch.fnmatch(col, glob) and (rel := _rel(a, b, floor)) <= bound]
            if rels:
                declared[col] = max(declared.get(col, 0.0), min(rels))
            else:
                diffs.append(f"{name}: row {i} {col}: {x} -> {y}")
    return diffs, declared


def _json_rel(a, b, floor: float) -> float | None:
    """The largest ``_rel`` of the numbers of two JSON values; None where
    their shapes, keys or texts differ."""
    if type(a) in (int, float) and type(b) in (int, float):
        return _rel(a, b, floor)
    if type(a) is not type(b) or not isinstance(a, (list, dict)):
        return 0.0 if a == b else None
    if isinstance(a, dict):
        if a.keys() != b.keys():
            return None
        a, b = [a[k] for k in sorted(a)], [b[k] for k in sorted(b)]
    if len(a) != len(b):
        return None
    rels = [_json_rel(x, y, floor) for x, y in zip(a, b)]
    return None if None in rels else max(rels, default=0.0)


def compare_json(name: str, old: bytes, new: bytes, allow) -> tuple[list, dict]:
    """(differences, declared) of two JSON files: ``declared`` maps each
    allowed top-level key that differed to a text: its two values, or the
    largest relative difference of its numbers."""
    limits = [(glob, limit) for files, glob, limit in allow
              if fnmatch.fnmatch(Path(name).name, files)]
    a, b = json.loads(old), json.loads(new)
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return [f"{name}: differs"], {}
    diffs, declared = [], {}
    for key in sorted(set(a) | set(b)):
        if a.get(key, KeyError) == b.get(key, KeyError):
            continue
        matching = [limit for glob, limit in limits if fnmatch.fnmatch(key, glob)]
        rels = [rel for bound, floor in filter(None, matching)
                if key in a and key in b
                and (rel := _json_rel(a[key], b[key], floor)) is not None and rel <= bound]
        if key in a and key in b and None in matching:
            declared[key] = f"{a[key]!r} -> {b[key]!r}"
        elif rels:
            declared[key] = f"within {min(rels):.1e}"
        else:
            diffs.append(f"{name}: {key}: {a.get(key, '(absent)')!r} -> "
                         f"{b.get(key, '(absent)')!r}")
    return diffs, declared


def compare_numbers(old: bytes, new: bytes) -> float | None:
    """The largest absolute difference of the numbers of two texts that
    agree everywhere else; None where they do not."""
    if NUMBER.sub(b"#", old) != NUMBER.sub(b"#", new):
        return None
    return max((abs(float(x) - float(y)) for x, y in zip(NUMBER.findall(old),
                                                          NUMBER.findall(new))), default=0.0)


def _excerpt(old, new, width: int = 60) -> str:
    """Two differing exit codes, or the two streams from a little before the
    first byte where they differ."""
    if isinstance(old, int):
        return f"{old} -> {new}"
    first = next((i for i, (x, y) in enumerate(zip(old, new)) if x != y),
                 min(len(old), len(new)))
    lo = max(0, first - 20)
    cut = [("..." if lo else "") + repr(v[lo:lo + width])[2:-1]
           + ("..." if len(v) > lo + width else "") for v in (old, new)]
    return " -> ".join(cut)


def compare(old: dict, new: dict, allow, streams: bool = False,
            stdout_bound: float | None = None) -> tuple[list, list]:
    """(differences, declared differences) of two runs of one command;
    ``streams``: its exit code and streams may differ; ``stdout_bound``: the
    numbers of its stdout may differ by that much, absolutely."""
    diffs, declared = [], []
    for stream in ("exit code", "stdout", "stderr"):
        if old[stream] == new[stream]:
            continue
        worst = compare_numbers(old[stream], new[stream]) if stream == "stdout" else None
        if stdout_bound is not None and worst is not None and worst <= stdout_bound:
            declared.append(f"stdout numbers within {worst:.1e}")
        else:
            (declared if streams else diffs).append(
                f"{stream}: {_excerpt(old[stream], new[stream])}")
    for name in sorted(set(old["files"]) | set(new["files"])):
        a, b = old["files"].get(name), new["files"].get(name)
        if a == b:
            continue
        if a is None or b is None:
            diffs.append(f"{name}: only on the {'new' if a is None else 'old'} side")
            continue
        if name.endswith(".csv"):
            d, dec = compare_csv(name, a, b, allow)
            if dec:
                worst = max(dec, key=dec.get)
                declared.append(f"{name} {len(dec)} columns within {dec[worst]:.1e} "
                                f"(largest in {worst})")
        elif name.endswith(".json"):
            d, dec = compare_json(name, a, b, allow)
            declared += [f"{name} {key} {text}" for key, text in dec.items()]
        else:
            d = [f"{name}: differs"]
        diffs += d
    return diffs, declared


def report(cid: str, diffs: list, declared) -> bool:
    """Print a command's line: DIFFERS, declared or same; whether it differs."""
    if diffs:
        shown = "; ".join(diffs[:MAX_SHOWN])
        more = f" (+{len(diffs) - MAX_SHOWN} more)" if len(diffs) > MAX_SHOWN else ""
        print(f"DIFFERS  {cid}: {shown}{more}", flush=True)
    elif declared:
        print(f"declared {cid}: {'; '.join(sorted(declared))}", flush=True)
    else:
        print(f"same     {cid}", flush=True)
    return bool(diffs)


def check_kernels(rev: str | None, kernels: list, tmp: Path) -> int:
    """The kernel axis: every command of one revision natively and under
    each OPENBLAS_CORETYPE of ``kernels``, compared under KERNEL_DECLARED."""
    src = export_src(rev, tmp / "rev") if rev else ROOT / "src"
    native = blas_info(src)
    if "DYNAMIC_ARCH" not in native["config"].split():
        print(f"bytecheck: numpy's BLAS ({native['name']}) is not a DYNAMIC_ARCH OpenBLAS, "
              "so OPENBLAS_CORETYPE selects no kernel: nothing to compare")
        return 0
    cores = {}
    for kernel in kernels:
        core = blas_info(src, kernel)["core"]
        if core is not None and core == native["core"]:
            print(f"bytecheck: OPENBLAS_CORETYPE={kernel} runs the native core {core}: skipped")
        else:
            cores[kernel] = core
    if not cores:
        print("bytecheck: no kernel other than the native one to compare")
        return 0
    print(f"bytecheck: {rev or 'working tree'}, native core {native['core']} -> "
          f"{', '.join(f'{k} (core {c})' for k, c in cores.items())}, "
          f"OPENBLAS_NUM_THREADS={','.join(THREADS)}, declared as in the README", flush=True)
    failed = 0
    for cid, cmd in COMMANDS:
        allow = [parse_allow(spec) for glob, spec in KERNEL_DECLARED
                 if fnmatch.fnmatch(cid, glob)]
        diffs, declared = [], set()
        for t in THREADS:
            base = run_command(src, cmd, t, tmp / "run" / cid / t / "native", "")
            for kernel in cores:
                other = run_command(src, cmd, t, tmp / "run" / cid / t / kernel, kernel)
                d, dec = compare(base, other, allow, stdout_bound=KERNEL_STDOUT.get(cid))
                diffs += [f"[{kernel}, {t}] {x}" for x in d]
                declared.update(f"[{kernel}] {x}" for x in dec)
        failed += report(cid, diffs, declared)
    print(f"bytecheck: {len(COMMANDS) - failed}/{len(COMMANDS)} commands same or declared")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("head", nargs="?")
    parser.add_argument("--allow", action="append", type=parse_allow, default=[],
                        metavar="GLOB:NAME[=BOUND[,FLOOR]]")
    parser.add_argument("--allow-streams", action="append", default=[], metavar="ID")
    parser.add_argument("--kernels", type=lambda v: [k for k in v.split(",") if k],
                        metavar="CORE[,CORE...]")
    args = parser.parse_args(argv)
    if args.kernels is not None:
        if args.head or args.allow or args.allow_streams:
            parser.error("--kernels takes one revision and the README's declarations")
        if not args.kernels:
            parser.error("--kernels takes at least one OpenBLAS core name")
    elif args.base is None:
        parser.error("the base revision is required")
    unknown = sorted(set(args.allow_streams) - {cid for cid, _ in COMMANDS})
    if unknown:
        parser.error(f"unknown command ids {unknown}")

    failed = 0
    with tempfile.TemporaryDirectory(prefix="bytecheck-") as tmp:
        tmp = Path(tmp)
        if args.kernels is not None:
            return check_kernels(args.base, args.kernels, tmp)
        old_src = export_src(args.base, tmp / "old")
        new_src = export_src(args.head, tmp / "new") if args.head else ROOT / "src"
        allowed = [f"{f}:{n}" + ("" if lim is None else f"={lim[0]:g}"
                                 + (f",{lim[1]:g}" if lim[1] else ""))
                   for f, n, lim in args.allow]
        print(f"bytecheck: {args.base} -> {args.head or 'working tree'}, "
              f"OPENBLAS_NUM_THREADS={','.join(THREADS)}, allowed: "
              f"{', '.join(allowed + args.allow_streams) or 'none'}", flush=True)
        for cid, cmd in COMMANDS:
            diffs, declared = [], set()
            for t in THREADS:
                old = run_command(old_src, cmd, t, tmp / "run" / cid / t / "old")
                new = run_command(new_src, cmd, t, tmp / "run" / cid / t / "new")
                d, dec = compare(old, new, args.allow, cid in args.allow_streams)
                diffs += [f"[{t}] {x}" for x in d]
                declared.update(dec)
            failed += report(cid, diffs, declared)
    print(f"bytecheck: {len(COMMANDS) - failed}/{len(COMMANDS)} commands same or declared")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
