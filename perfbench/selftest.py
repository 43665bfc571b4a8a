"""Self-test of the correctness gates: each gate rejects a perturbed output.

Runs every workload once at the smoke size, checks that the gates accept the
real outputs, then perturbs one output at a time and checks that the gate
responsible reports a failure. Exits 0 when every clean output passes and
every perturbation is caught.

Usage (from the root of a checkout): python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import copy
import functools
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import kerrdimer.cli  # noqa: E402
from kerrdimer.model import preset  # noqa: E402

import gates  # noqa: E402
import workloads  # noqa: E402


def failures(check, *args) -> int:
    t = gates.Tally()
    check(t, *args)
    return t.failed


def edited(rows: list[dict], k: int, **changes) -> list[dict]:
    out = copy.deepcopy(rows)
    out[k].update(changes)
    return out


def scaled(row: dict, key: str, factor: float) -> str:
    return repr(float(row[key]) * factor)


def run_workload(name: str, out_dir: Path) -> tuple[dict, list[int], str]:
    spec = workloads.build(name, seed=1, out_dir=str(out_dir), smoke=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        codes = [kerrdimer.cli.main(argv) for argv in spec["commands"]]
    return spec, codes, stdout.getvalue()


def sweep_cases(out: Path) -> list:
    spec, codes, _ = run_workload("fig2_sweep", out)
    rows = gates.read_csv(out / "fig2ab.csv")
    grid = spec["gamma_tip_grid"]
    k = len(rows) // 2
    analytic_only = [{c: v for c, v in r.items() if not c.startswith("lindblad")}
                     for r in rows]
    p0, _ = preset(spec["preset"])
    row = rows[spec["resolved_rows"][0]]
    p = p0.with_(gamma_tip=float(row["gamma_tip"]), delta=float(row["delta_used"]))
    basis, rho = gates.solve(p)
    i, j = basis.index_of(1, 0), basis.index_of(0, 1)
    bad_rho = rho.copy()
    bad_rho[i, j] += 1e-9
    bad_rho[j, i] += 1e-9
    return [
        ("sweep: real output", False, failures(gates.check_sweep, rows, grid)),
        ("sweep: analytic-only CSV", True, failures(gates.check_sweep, analytic_only, grid)),
        ("sweep: Lindblad N1 off by 2 %", True, failures(
            gates.check_sweep, edited(rows, k, lindblad_n1=scaled(rows[k], "lindblad_n1", 1.02)),
            grid)),
        ("sweep: row flagged failed", True, failures(
            gates.check_sweep, edited(rows, k, lindblad_failed="1"), grid)),
        ("sweep: row missing", True, failures(gates.check_sweep, rows[:-1], grid)),
        ("sweep: grid point moved", True, failures(
            gates.check_sweep, edited(rows, k, gamma_tip=scaled(rows[k], "gamma_tip", 1 + 1e-9)),
            grid)),
        ("re-solve: real output", False, failures(gates.check_resolved_row, row, p, basis, rho)),
        ("re-solve: state is not stationary", True, failures(
            gates.check_resolved_row, row, p, basis, bad_rho)),
        ("re-solve: CSV N1 off by 1e-6", True, failures(
            gates.check_resolved_row,
            {**row, "lindblad_n1": scaled(row, "lindblad_n1", 1 + 1e-6)}, p, basis, rho)),
        ("re-solve: CSV P11 off by 1e-12", True, failures(
            gates.check_resolved_row,
            {**row, "lindblad_p11": repr(float(row["lindblad_p11"]) + 1e-12)}, p, basis, rho)),
        ("exit code: nonzero", True, failures(gates.check_exit_codes, codes + [1])),
    ]


def map_cases(out: Path) -> list:
    spec, _, _ = run_workload("fig2c_map", out)
    rows = gates.read_csv(out / "fig2c_map.csv")
    peaks = gates.read_csv(out / "fig2c_map_peaks.csv")
    p0, _ = preset(spec["preset"])
    grids = (spec["gamma_tip_grid"], spec["delta_grid"], functools.partial(gates.is_singular, p0))
    k = len(rows) // 3
    gts, ds = gates.linspace(spec["gamma_tip_grid"]), gates.linspace(spec["delta_grid"])
    i, j = spec["spot_cells"][0]
    p = p0.with_(gamma_tip=float(gts[i]), delta=float(ds[j]))
    basis, rho = gates.solve(p)
    s1 = float(rows[i * ds.size + j]["s1"])
    return [
        ("map: real output", False, failures(gates.check_map, rows, peaks, *grids)),
        ("map: NaN at a regular cell", True, failures(
            gates.check_map, edited(rows, k, s1="nan"), peaks, *grids)),
        ("map: cell off its grid point", True, failures(
            gates.check_map, edited(rows, k, delta=scaled(rows[k], "delta", 1 + 1e-9)),
            peaks, *grids)),
        ("map: cell missing", True, failures(gates.check_map, rows[:-1], peaks, *grids)),
        ("map: peak row missing", True, failures(gates.check_map, rows, peaks[:-1], *grids)),
        ("spot cell: real output", False, failures(gates.check_spot_cell, s1, p, basis, rho)),
        ("spot cell: S1 off by 2 %", True, failures(
            gates.check_spot_cell, 1.02 * s1, p, basis, rho)),
    ]


def lep_cases(out: Path) -> list:
    spec, _, _ = run_workload("lep_scan", out)
    prov = json.loads((out / "lep.provenance.json").read_text(encoding="utf-8"))
    scan = gates.read_csv(out / "lep.csv")
    ep = gates.read_csv(out / "fig1b_ep.csv")
    params, grid, js = spec["params"], spec["lep_grid"], spec["j_set"]
    return [
        ("lep: real output", False, failures(gates.check_lep, prov, scan, params, grid)),
        ("lep: LEP moved by 1e-5", True, failures(
            gates.check_lep, {**prov, "lep": prov["lep"] * (1 + 1e-5)}, scan, params, grid)),
        ("lep: gap above threshold", True, failures(
            gates.check_lep, {**prov, "gap": 2e-3}, scan, params, grid)),
        ("lep: scan row missing", True, failures(gates.check_lep, prov, scan[:-1], params, grid)),
        ("ep-agreement: real output", False, failures(gates.check_ep_agreement, ep, params, js)),
        ("ep-agreement: LEP not found", True, failures(
            gates.check_ep_agreement, edited(ep, 1, found="0", lep=""), params, js)),
        ("ep-agreement: LEP moved by 1e-5", True, failures(
            gates.check_ep_agreement, edited(ep, 2, lep=scaled(ep[2], "lep", 1 + 1e-5)),
            params, js)),
        ("ep-agreement: row missing", True, failures(
            gates.check_ep_agreement, ep[:-1], params, js)),
    ]


def validate_cases(out: Path) -> list:
    _, _, stdout = run_workload("validate", out)
    failed_line = stdout.replace(": PASS", ": FAIL", 1)
    dropped = "\n".join(line for i, line in enumerate(stdout.splitlines()) if i != 0)
    return [
        ("validate: real output", False, failures(gates.check_validate, stdout)),
        ("validate: one check fails", True, failures(gates.check_validate, failed_line)),
        ("validate: one check missing", True, failures(gates.check_validate, dropped)),
    ]


def missing_output_cases(out: Path) -> list:
    spec = workloads.build("fig2_sweep", seed=1, out_dir=str(out), smoke=True)
    return [("any workload: dataset missing", True, gates.run(spec, [0], "").failed)]


def main() -> int:
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    cases = []
    try:
        for make in (sweep_cases, map_cases, lep_cases, validate_cases, missing_output_cases):
            out = Path(tempfile.mkdtemp(dir=work))
            try:
                cases += make(out)
            finally:
                shutil.rmtree(out, ignore_errors=True)
    finally:
        with contextlib.suppress(OSError):
            work.rmdir()
    bad = 0
    for label, perturbed, n_failed in cases:
        ok = (n_failed > 0) if perturbed else (n_failed == 0)
        bad += not ok
        verdict = "rejected" if n_failed else "accepted"
        print(f"{'ok  ' if ok else 'BAD '} {label}: {verdict} ({n_failed} failed items)")
    print(f"{len(cases) - bad}/{len(cases)} gate cases behave as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
