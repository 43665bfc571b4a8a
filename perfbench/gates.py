"""Correctness gates: every dataset a workload writes is read back and checked.

Each check is one attempted item in a Tally; a violated check is a failed
item. The gates are built so that a faster but wrong solver cannot pass:

- fig2_sweep: every row has both backends, analytic and Lindblad N1, g2 and
  P_mn agree within 1 % (acceptance criterion 8), and a few seeded rows are
  re-solved through the public ``steady_state``. The re-solved state must be
  a null vector of a generator this module assembles itself from
  ``hilbert.mode_operator``, and must reproduce the CSV row.
- fig2c_map: every cell is finite unless the closed form is singular there,
  and a few seeded cells agree with the Lindblad backend within 1 %.
- lep_scan: every LEP is found, within 1e-6 of the closed-form HEP, with
  its gap under the coalescence threshold. The gap value itself is not
  compared: it depends on the BLAS thread count.
- validate: exit code 0 and 10 of 10 checks passed.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import CUTOFF, hep

AGREEMENT_TOL = 0.01  # analytic vs Lindblad, relative (acceptance criterion 8)
POPULATION_FLOOR = 1e-14  # P_mn below this are not compared relatively
# sweep CSV vs an independent re-solve of the same row: N1 and g2 relative,
# P_mn absolute (solvers agree to about 1e-18 absolute, so tiny three-photon
# populations cannot be compared relatively)
RESOLVE_TOL = 1e-8
RESOLVE_ATOL = 1e-14
RESIDUAL_TOL = 1e-12  # max |L rho| under the bench's own generator (LU: ~1e-17)
LEP_TOL = 1e-6  # |LEP - HEP| / HEP
GAP_TOL = 1e-3  # LEP coalescence gap, in units of gamma_1'
GRID_TOL = 1e-12
VALIDATE_CHECKS = 10
STATES = ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0),
          (0, 3), (1, 2), (2, 1), (3, 0))
MAX_MESSAGES = 20


@dataclass
class Tally:
    """Attempted and failed items, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_MESSAGES:
                self.failures.append(what)
        return ok


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b != 0 else abs(a - b)


def _float(text: str) -> float:
    return float(text) if text != "" else math.nan


def read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def linspace(grid) -> np.ndarray:
    return np.linspace(float(grid[0]), float(grid[1]), int(grid[2]))


# ---------------------------------------------------------------------------
# the benchmark's own generator and observables

def generator_residual(p, basis, rho: np.ndarray) -> float:
    """max |L rho| for the driven Lindblad generator in the rotating frame.

    L rho = -i[H, rho] + sum_j gamma_j' (a_j rho a_j^+ - {n_j, rho}/2), with
    H = delta (n1 + n2) + chi a1^+2 a1^2 + J (a1^+ a2 + a2^+ a1)
        + Omega e^{i phi} a1^+ + h.c.,
    applied at the operator level, so it shares no vectorisation or assembly
    code with the library.
    """
    from kerrdimer.hilbert import mode_operator

    a1 = mode_operator(basis, 1, "annihilate").data
    a2 = mode_operator(basis, 2, "annihilate").data
    c1, c2 = a1.conj().T, a2.conj().T
    drive = p.omega_drive_amp * np.exp(1j * p.drive_phase)
    h = (p.delta * (c1 @ a1 + c2 @ a2) + p.chi * (c1 @ c1 @ a1 @ a1)
         + p.J * (c1 @ a2 + c2 @ a1) + drive * c1 + np.conj(drive) * a1)
    out = -1j * (h @ rho - rho @ h)
    for rate, a, c in ((p.gamma1_prime, a1, c1), (p.gamma2_prime, a2, c2)):
        n = c @ a
        out += rate * (a @ rho @ c - 0.5 * (n @ rho + rho @ n))
    return float(np.max(np.abs(out)))


def diagonal_stats(basis, rho: np.ndarray) -> dict:
    """N1, g2 and P_mn from the diagonal of a state (exact on a Fock basis)."""
    diag = np.real(np.diag(rho))
    pops = {s: float(diag[i]) for i, s in enumerate(basis.states)}
    n1 = sum(m * pr for (m, _), pr in pops.items())
    m2 = sum(m * (m - 1) * pr for (m, _), pr in pops.items())
    return {"n1": n1, "g2": m2 / n1**2, "pops": pops}


def check_state(t: Tally, p, basis, rho: np.ndarray, where: str) -> None:
    residual = generator_residual(p, basis, rho)
    t.check(residual <= RESIDUAL_TOL,
            f"{where}: residual {residual:.3e} under the bench generator")
    t.check(abs(np.trace(rho) - 1.0) <= 1e-10, f"{where}: trace {np.trace(rho)}")


def is_singular(p0, gt: float, d: float) -> bool:
    """Whether the closed form has a vanishing denominator at (gt, d)."""
    from kerrdimer.analytic import SingularParameterError, steady_amplitudes

    try:
        steady_amplitudes(p0.with_(gamma_tip=float(gt), delta=float(d)))
    except SingularParameterError:
        return True
    return False


def solve(p):
    """Steady state through the public library path, as a dense matrix."""
    from kerrdimer.hilbert import build_basis
    from kerrdimer.liouvillian import build_liouvillian, steady_state

    basis = build_basis(per_mode=CUTOFF)
    rho = steady_state(build_liouvillian(p, basis, driven=True))
    return basis, np.asarray(rho.data)


# ---------------------------------------------------------------------------
# per-workload gates on parsed outputs

def check_exit_codes(t: Tally, codes: list[int]) -> None:
    for i, code in enumerate(codes):
        t.check(code == 0, f"command {i} exited with {code}")


def check_sweep(t: Tally, rows: list[dict], grid) -> None:
    gts = linspace(grid)
    t.check(len(rows) == len(gts), f"sweep has {len(rows)} rows, expected {len(gts)}")
    for gt, row in zip(gts, rows):
        where = f"sweep row gamma_tip={gt:.6g}"
        if not t.check(abs(_float(row.get("gamma_tip", "")) - gt) <= GRID_TOL,
                       f"{where}: grid value {row.get('gamma_tip')}"):
            continue
        if not t.check("lindblad_n1" in row and "analytic_n1" in row,
                       f"{where}: missing analytic or lindblad columns"):
            continue
        if not t.check(row["analytic_failed"] == "0" and row["lindblad_failed"] == "0",
                       f"{where}: failed flags {row['analytic_failed']}/"
                       f"{row['lindblad_failed']}"):
            continue
        worst = max(_rel(_float(row[f"lindblad_{q}"]), _float(row[f"analytic_{q}"]))
                    for q in ("n1", "g2"))
        for m, n in STATES:
            pa = _float(row[f"analytic_p{m}{n}"])
            if pa > POPULATION_FLOOR:
                worst = max(worst, _rel(_float(row[f"lindblad_p{m}{n}"]), pa))
        t.check(worst <= AGREEMENT_TOL,
                f"{where}: analytic vs lindblad deviation {worst:.3e}")


def check_resolved_row(t: Tally, row: dict, p, basis, rho: np.ndarray) -> None:
    """A re-solved sweep row: a true steady state that matches the CSV."""
    where = f"re-solved row gamma_tip={row['gamma_tip']}"
    check_state(t, p, basis, rho, where)
    stats = diagonal_stats(basis, rho)
    rel = max(_rel(_float(row["lindblad_n1"]), stats["n1"]),
              _rel(_float(row["lindblad_g2"]), stats["g2"]))
    t.check(rel <= RESOLVE_TOL, f"{where}: CSV vs re-solve N1/g2 deviation {rel:.3e}")
    diff = max(abs(_float(row[f"lindblad_p{m}{n}"]) - stats["pops"][(m, n)])
               for m, n in STATES)
    t.check(diff <= RESOLVE_ATOL, f"{where}: CSV vs re-solve P_mn deviation {diff:.3e}")


def check_map(t: Tally, rows: list[dict], peaks: list[dict], gts_grid, ds_grid,
              is_singular) -> None:
    """Every cell on its grid point and finite unless ``is_singular(gt, d)``."""
    gts, ds = linspace(gts_grid), linspace(ds_grid)
    t.check(len(rows) == gts.size * ds.size,
            f"map has {len(rows)} cells, expected {gts.size * ds.size}")
    t.check(len(peaks) == gts.size, f"peak table has {len(peaks)} rows")
    for k, row in enumerate(rows[:gts.size * ds.size]):
        gt, d = gts[k // ds.size], ds[k % ds.size]
        s1 = _float(row["s1"])
        ok = (abs(_float(row["gamma_tip"]) - gt) <= GRID_TOL
              and abs(_float(row["delta"]) - d) <= GRID_TOL
              and ((math.isfinite(s1) and s1 > 0) or (math.isnan(s1) and is_singular(gt, d))))
        t.check(ok, f"map cell ({row['gamma_tip']}, {row['delta']}): s1={row['s1']}")


def check_spot_cell(t: Tally, s1_csv: float, p, basis, rho: np.ndarray) -> None:
    """A map cell against the Lindblad steady state at the same point."""
    where = f"map cell ({p.gamma_tip:.6g}, {p.delta:.6g})"
    check_state(t, p, basis, rho, where)
    n0 = p.omega_drive_amp**2 / (p.gamma1_prime + p.gamma2_prime) ** 2
    s1_lind = diagonal_stats(basis, rho)["n1"] / n0
    dev = _rel(s1_csv, s1_lind)
    t.check(dev <= AGREEMENT_TOL, f"{where}: analytic vs lindblad S1 deviation {dev:.3e}")


def check_lep(t: Tally, prov: dict, rows: list[dict], params: dict, grid: int) -> None:
    ref = hep(params)
    g1p = params["gamma_1"] + params["gamma_ex"]
    lep = prov.get("lep")
    t.check(lep is not None and _rel(lep, ref) <= LEP_TOL,
            f"lep {lep} vs hep {ref}")
    gap = prov.get("gap")
    t.check(gap is not None and gap <= GAP_TOL * g1p, f"lep gap {gap}")
    t.check(len(rows) == 2 * grid, f"lep scan has {len(rows)} rows, expected {2 * grid}")


def check_ep_agreement(t: Tally, rows: list[dict], params: dict, js: list[float]) -> None:
    t.check(len(rows) == len(js), f"ep-agreement has {len(rows)} rows, expected {len(js)}")
    for j, row in zip(js, rows):
        ref = hep(params, j)
        where = f"ep-agreement J={j:.6g}"
        if not t.check(row["found"] == "1", f"{where}: LEP not found"):
            continue
        lep = _float(row["lep"])
        t.check(_rel(_float(row["J"]), j) <= GRID_TOL
                and _rel(_float(row["hep"]), ref) <= GRID_TOL
                and _rel(lep, ref) <= LEP_TOL,
                f"{where}: J={row['J']} hep={row['hep']} lep={row['lep']} vs hep {ref}")


_CHECK_LINE = re.compile(r"^\s+(\w+): (PASS|FAIL)\b", re.MULTILINE)


def check_validate(t: Tally, stdout: str) -> None:
    found = _CHECK_LINE.findall(stdout)
    t.check(len(found) == VALIDATE_CHECKS,
            f"validate reported {len(found)} checks, expected {VALIDATE_CHECKS}")
    for name, verdict in found:
        t.check(verdict == "PASS", f"validate check {name}: {verdict}")


# ---------------------------------------------------------------------------

def run(spec: dict, codes: list[int], stdout: str) -> Tally:
    """All gates of one workload run, on the files it wrote into out_dir."""
    from kerrdimer.model import preset

    t = Tally()
    check_exit_codes(t, codes)
    out = Path(spec["out_dir"])
    p0, _ = preset(spec["preset"])
    name = spec["workload"]
    try:
        if name == "fig2_sweep":
            rows = read_csv(out / "fig2ab.csv")
            check_sweep(t, rows, spec["gamma_tip_grid"])
            for k in spec["resolved_rows"]:
                row = rows[k]
                p = p0.with_(gamma_tip=_float(row["gamma_tip"]),
                             delta=_float(row["delta_used"]))
                basis, rho = solve(p)
                check_resolved_row(t, row, p, basis, rho)
        elif name == "fig2c_map":
            rows = read_csv(out / "fig2c_map.csv")
            peaks = read_csv(out / "fig2c_map_peaks.csv")
            check_map(t, rows, peaks, spec["gamma_tip_grid"], spec["delta_grid"],
                      functools.partial(is_singular, p0))
            gts, ds = linspace(spec["gamma_tip_grid"]), linspace(spec["delta_grid"])
            for i, j in spec["spot_cells"]:
                p = p0.with_(gamma_tip=float(gts[i]), delta=float(ds[j]))
                basis, rho = solve(p)
                check_spot_cell(t, _float(rows[i * ds.size + j]["s1"]), p, basis, rho)
        elif name == "lep_scan":
            prov = json.loads((out / "lep.provenance.json").read_text(encoding="utf-8"))
            check_lep(t, prov, read_csv(out / "lep.csv"), spec["params"], spec["lep_grid"])
            check_ep_agreement(t, read_csv(out / "fig1b_ep.csv"), spec["params"],
                               spec["j_set"])
        else:
            check_validate(t, stdout)
    except (OSError, KeyError, IndexError, ValueError, RuntimeError) as exc:
        # a missing file, column or row, or a failed re-solve, is a failed
        # output, not a crash
        t.check(False, f"{name} output unreadable: {type(exc).__name__}: {exc}")
    return t
