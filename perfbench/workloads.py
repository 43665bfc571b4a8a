"""Workload definitions: the CLI commands each workload runs, made from a seed.

A seed jitters only grid offsets, the LEP search window and the J set; every
size stays fixed, so runs with different seeds do the same amount of work.
Seed 0 reproduces the preset grids exactly.

Why each workload exists (and which layer should move its wall time):

- fig2_sweep: the production fig2 dataset. 121 dense steady-state solves of
  1296 unknowns; ``liouvillian.steady_state`` (about 80 %) and the dense
  generator update in ``experiments.sweep_loss`` (about 19 %) set its time.
- fig2c_map: 121 x 501 analytic excitation-spectrum cells and a 2.5 MB CSV.
  It never solves a master equation, so a solver change must leave it
  unchanged; ``analytic.*``, ``SystemParams.with_`` and
  ``experiments.write_csv`` set its time.
- lep_scan: ``lep`` plus ``ep-agreement`` over four couplings. 344 undriven
  81-dimensional generator builds and eigensolves and no steady-state solve:
  the small-matrix regime, where ``build_liouvillian`` and
  ``coherence_sector_pair`` set the time.
- validate: the cross-check suite. Steady states up to cutoff 7 (a 4096^2
  dense generator) make it the only large, memory-bound workload and the only
  one that runs the ``validation`` layer.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("fig2_sweep", "fig2c_map", "lep_scan", "validate")
PRESET = "paper_fig2"
CUTOFF = (5, 5)  # per-mode Fock cutoffs of the master-equation solves
J_SET = (1.0, 1.5, 2.0, 3.0)
LEP_GRID = 41
RESOLVED_ROWS = 3  # sweep rows re-solved by the correctness gate
SPOT_CELLS = 3  # map cells checked against the Lindblad backend

# reduced sizes for the smoke mode: same commands and gates, smaller grids
SMOKE_SWEEP_POINTS = 13
SMOKE_MAP_SHAPE = (13, 51)
SMOKE_LEP_GRID = 21


def load_preset() -> dict:
    path = ROOT / "src" / "kerrdimer" / "presets" / f"{PRESET}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def hep(params: dict, J: float | None = None) -> float:
    """Closed-form Hamiltonian EP, gamma_tip = 4J + gamma_1' - gamma_2."""
    J = params["J"] if J is None else J
    return 4.0 * J + params["gamma_1"] + params["gamma_ex"] - params["gamma_2"]


def _grid(block: dict, offset: float, num: int | None = None) -> tuple[float, float, int]:
    return (block["start"] + offset, block["stop"] + offset, num or block["num"])


def _grid_arg(flag: str, grid: tuple[float, float, int]) -> str:
    # '=' keeps argparse from reading a negative start as an option
    return f"{flag}={grid[0]!r}:{grid[1]!r}:{grid[2]}"


def _common(out_dir: str, backend: str, output: str | None = None) -> list[str]:
    # every shared option spelled out, so a changed CLI default cannot
    # silently change the workload
    args = ["--preset", PRESET, "--units", "normalized", "--backend", backend,
            "--cutoff", f"{CUTOFF[0]},{CUTOFF[1]}", "--protocol", "track",
            "--output-dir", out_dir]
    return args + ["--output", output] if output else args


def build(name: str, seed: int, out_dir: str, smoke: bool = False) -> dict:
    """The spec a worker process runs: CLI commands plus gate parameters."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    cfg = load_preset()
    params = cfg["params"]
    rng = random.Random(seed)

    def jitter(width: float) -> float:
        return 0.0 if seed == 0 else rng.uniform(-width, width)

    spec = {"workload": name, "preset": PRESET, "out_dir": out_dir, "params": params}
    if name == "fig2_sweep":
        num = SMOKE_SWEEP_POINTS if smoke else None
        grid = _grid(cfg["gamma_tip_grid"], abs(jitter(0.05)), num)
        spec["commands"] = [["sweep-loss", *_common(out_dir, "both", "fig2ab.csv"),
                             _grid_arg("--gamma-tip-grid", grid)]]
        spec["gamma_tip_grid"] = grid
        spec["resolved_rows"] = sorted(rng.sample(range(grid[2]), RESOLVED_ROWS))
    elif name == "fig2c_map":
        n_gt, n_d = SMOKE_MAP_SHAPE if smoke else (None, None)
        gts = _grid(cfg["gamma_tip_grid"], abs(jitter(0.05)), n_gt)
        deltas = _grid(cfg["delta_grid"], jitter(0.008), n_d)
        spec["commands"] = [["spectrum-map", *_common(out_dir, "analytic", "fig2c_map.csv"),
                             _grid_arg("--gamma-tip-grid", gts),
                             _grid_arg("--delta-grid", deltas)]]
        spec["gamma_tip_grid"] = gts
        spec["delta_grid"] = deltas
        spec["spot_cells"] = [[rng.randrange(gts[2]), rng.randrange(deltas[2])]
                              for _ in range(SPOT_CELLS)]
    elif name == "lep_scan":
        centre = hep(params)
        window = (centre - 1.0 + jitter(0.2), centre + 1.0 + jitter(0.2))
        grid = SMOKE_LEP_GRID if smoke else LEP_GRID
        js = [j + jitter(0.1) for j in J_SET]
        spec["commands"] = [
            ["lep", *_common(out_dir, "both", "lep.csv"),
             "--range", f"{window[0]!r}:{window[1]!r}", "--grid", str(grid)],
            ["ep-agreement", *_common(out_dir, "both", "fig1b_ep.csv"),
             "--j-grid", ",".join(repr(j) for j in js)],
        ]
        spec["lep_grid"] = grid
        spec["j_set"] = js
    else:
        spec["commands"] = [["validate", *_common(out_dir, "both")]]
    return spec
