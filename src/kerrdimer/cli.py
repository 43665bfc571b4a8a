"""Command-line surface: config loading, experiment dispatch, dataset writing.

Exit codes: 0 success, 1 numerical failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import SingularParameterError
from .experiments import (
    critical_points,
    ep_agreement,
    resolve_delta,
    sidecar_path,
    spectrum_map,
    sweep_loss,
    write_csv,
    write_provenance,
)
from .hilbert import build_basis
from .liouvillian import (
    DegenerateSteadyStateError,
    LepNotFoundError,
    NumericalFailureError,
    ResourceLimitError,
    build_liouvillian,
    lep_locate,
    steady_state,
)
from .model import SystemParams, apply_overrides, preset, si_reference_rates
from .observables import excitation_spectrum, photon_statistics, poisson_comparison
from .spectral import branch_sweep, hep_location, localization, subspace_eigensystem_numeric
from .validation import run_validation

USAGE_ERROR = 2
NUMERICAL_ERROR = 1

_CONFIG_ERRORS = (KeyError, ValueError, TypeError, FileNotFoundError)
_NUMERICAL_ERRORS = (
    NumericalFailureError,
    DegenerateSteadyStateError,
    LepNotFoundError,
    ResourceLimitError,
    SingularParameterError,
    np.linalg.LinAlgError,
)


@dataclass
class RunConfig:
    """Resolved runtime configuration for one experiment invocation.

    ``rate_scale`` converts grid specifications (always written as
    multiples of gamma_1') into the active unit system: 1 in normalized
    mode, gamma_1' in rad/s under ``--units si``.
    """

    experiment: str
    params: SystemParams
    preset_name: str
    preset_cfg: dict
    output_dir: Path
    output_name: str | None
    protocol: object
    backends: tuple[str, ...]
    cutoff: tuple[int, int]
    overrides: dict = field(default_factory=dict)
    rate_scale: float = 1.0


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, num = spec.split(":")
        return np.linspace(float(start), float(stop), int(num))
    except ValueError as exc:
        raise ValueError(f"grid must be start:stop:num, got {spec!r}") from exc


def _parse_protocol(spec: str):
    if spec == "track":
        return "track_upper_branch"
    if spec.startswith("fixed:"):
        return ("fixed", float(spec[6:]))
    raise ValueError(f"protocol must be 'track' or 'fixed:VALUE', got {spec!r}")


def _parse_overrides(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"override must be KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        out[key.strip()] = float(value)
    return out


def _si_params(p: SystemParams, args) -> SystemParams:
    """Rescale a normalized parameter set to rad/s from the SI inputs.

    All rates are multiplied by the SI gamma_1'; chi and Omega are replaced
    by their converted values. Frequencies stay measured from the bare
    cavity resonance (omega_c = 0).
    """
    rates = si_reference_rates(
        wavelength=args.wavelength, q_intrinsic=args.q_intrinsic,
        chi3_over_eps_r2=args.chi3, v_eff=args.v_eff, p_in=args.p_in,
    )
    g1p = rates["gamma1_prime"]
    return p.with_(
        chi=rates["chi"],
        J=p.J * g1p,
        gamma_1=rates["gamma_1"],
        gamma_ex=rates["gamma_ex"],
        gamma_2=p.gamma_2 * g1p,
        gamma_tip=p.gamma_tip * g1p,
        omega_drive_amp=rates["omega_drive_amp"],
        unit_system="si",
    )


def _build_config(args) -> RunConfig:
    params, cfg = preset(args.preset)
    overrides = _parse_overrides(args.set or [])
    rate_scale = 1.0
    if args.units == "si":
        missing = [n for n in ("wavelength", "q_intrinsic", "chi3", "v_eff", "p_in")
                   if getattr(args, n) is None]
        if missing:
            raise ValueError(f"--units si requires --{', --'.join(missing)}")
        params = _si_params(params, args)
        rate_scale = params.gamma1_prime
    if overrides:
        params = apply_overrides(params, overrides)
        print("overrides applied:", ", ".join(f"{k}={v}" for k, v in sorted(overrides.items())))

    out_dir = Path(
        args.output_dir
        or os.environ.get("KERRDIMER_OUTPUT_DIR", "datasets")
    )
    if getattr(args, "protocol", None):
        protocol = _parse_protocol(args.protocol)
    else:
        protocol = cfg.get("protocol", "track_upper_branch")
        if protocol != "track_upper_branch":
            protocol = _parse_protocol(protocol)
    backends = {"both": ("analytic", "lindblad"), "analytic": ("analytic",),
                "lindblad": ("lindblad",)}[getattr(args, "backend", "both") or "both"]
    cutoff = tuple(int(x) for x in (getattr(args, "cutoff", None) or "5,5").split(","))
    return RunConfig(
        experiment=args.command, params=params, preset_name=args.preset,
        preset_cfg=cfg, output_dir=out_dir, output_name=getattr(args, "output", None),
        protocol=protocol, backends=backends, cutoff=cutoff, overrides=overrides,
        rate_scale=rate_scale,
    )


def _grid_from(rc: RunConfig, args_value: str | None, cfg_block: dict | None,
               fallback: str) -> np.ndarray:
    if args_value:
        grid = _parse_grid(args_value)
    elif cfg_block:
        grid = np.linspace(cfg_block["start"], cfg_block["stop"], cfg_block["num"])
    else:
        grid = _parse_grid(fallback)
    return grid * rc.rate_scale


def _provenance_base(rc: RunConfig) -> dict:
    return {
        "preset": rc.preset_name,
        "params": asdict(rc.params),
        "overrides": rc.overrides,
        "code_version": __version__,
    }


# ---------------------------------------------------------------------------
# experiment runners

def _run_sweep_loss(rc: RunConfig, args) -> int:
    grid = _grid_from(rc, args.gamma_tip_grid, rc.preset_cfg.get("gamma_tip_grid"), "0:12:121")
    table = sweep_loss(rc.params, grid, protocol=rc.protocol, backends=rc.backends,
                       cutoff=rc.cutoff,
                       provenance_extra={"preset": rc.preset_name, "overrides": rc.overrides})
    name = rc.output_name or rc.preset_cfg.get("dataset", "sweep_loss.csv")
    path = rc.output_dir / name
    table.to_csv(path)
    written = [str(path)]

    if rc.preset_cfg.get("emit_fixed_delta_twin") and rc.protocol == "track_upper_branch":
        # same sweep under a frozen detuning (the tracked value at gamma_tip = 0)
        p0 = rc.params.with_(gamma_tip=float(grid[0]))
        fixed = ("fixed", resolve_delta(p0, "track_upper_branch"))
        twin = sweep_loss(rc.params, grid, protocol=fixed, backends=rc.backends,
                          cutoff=rc.cutoff,
                          provenance_extra={"preset": rc.preset_name,
                                            "overrides": rc.overrides,
                                            "note": "fixed-detuning companion sweep"})
        twin_path = rc.output_dir / name.replace(".csv", "_fixed_delta.csv")
        twin.to_csv(twin_path)
        written.append(str(twin_path))

    print(f"sweep-loss: {len(table.rows)} rows -> {', '.join(written)}")
    return 0


def _run_critical_points(rc: RunConfig, args) -> int:
    grid = _grid_from(rc, args.gamma_tip_grid, rc.preset_cfg.get("gamma_tip_grid"), "0:12:121")
    table = sweep_loss(rc.params, grid, protocol=rc.protocol, backends=rc.backends,
                       cutoff=rc.cutoff)
    cps = critical_points(table, rc.params)
    payload = _provenance_base(rc)
    payload["critical_points"] = {
        "cp_c": None if cps.cp_c is None else cps.cp_c.value,
        "cp_q_down": None if cps.cp_q_down is None else cps.cp_q_down.value,
        "cp_q_up": None if cps.cp_q_up is None else cps.cp_q_up.value,
        "ep": cps.ep,
        "lep": None if cps.lep is None else cps.lep.value,
    }
    path = rc.output_dir / (rc.output_name or "critical_points.json")
    write_provenance(path, payload)

    def show(cp):
        return "absent" if cp is None else f"{cp.value:.4f}"

    print(
        f"critical-points: cp_c={show(cps.cp_c)} cp_q_down={show(cps.cp_q_down)} "
        f"cp_q_up={show(cps.cp_q_up)} ep={cps.ep:.4f} lep={show(cps.lep)} -> {path}"
    )
    return 0


def _run_spectrum(rc: RunConfig, args) -> int:
    deltas = _grid_from(rc, args.delta_grid, rc.preset_cfg.get("delta_grid"), "-4:4:501")
    gamma_tips = [g * rc.rate_scale for g in (args.gamma_tip or [0.0])]
    backend = rc.backends[0]
    rows = []
    peak_info = []
    for gt in gamma_tips:
        spec = excitation_spectrum(rc.params.with_(gamma_tip=gt), deltas,
                                   backend=backend, cutoff=rc.cutoff)
        for j, d in enumerate(deltas):
            rows.append({"gamma_tip": gt, "delta": float(d), "s1": float(spec.s1[j]),
                         "is_peak": 1 if j in spec.peak_indices else 0})
        peak_info.append(f"gt={gt}: {spec.peak_count} peak(s)")
    meta = {**asdict(rc.params), "experiment": "spectrum", "backend": backend}
    path = rc.output_dir / (rc.output_name or "s1_cuts.csv")
    write_csv(path, ["gamma_tip", "delta", "s1", "is_peak"], rows, meta=meta)
    write_provenance(sidecar_path(path),
                     {**_provenance_base(rc), "experiment": "spectrum"})
    print(f"spectrum: {'; '.join(peak_info)} -> {path}")
    return 0


def _run_spectrum_map(rc: RunConfig, args) -> int:
    gts = _grid_from(rc, args.gamma_tip_grid, rc.preset_cfg.get("gamma_tip_grid"), "0:12:61")
    deltas = _grid_from(rc, args.delta_grid, rc.preset_cfg.get("delta_grid"), "-4:4:201")
    smap = spectrum_map(rc.params, gts, deltas, backend=rc.backends[0])
    path = rc.output_dir / (rc.output_name or "fig2c_map.csv")
    smap.to_csv(path)
    peaks_path = rc.output_dir / str(path.name).replace(".csv", "_peaks.csv")
    write_csv(peaks_path,
              ["gamma_tip", "n_peaks", "peak_delta_1", "peak_delta_2",
               "omega_plus", "omega_minus"],
              smap.peak_rows)
    print(f"spectrum-map: {len(gts)}x{len(deltas)} points -> {path}, {peaks_path}")
    return 0


def _run_eigen(rc: RunConfig, args) -> int:
    gts = _grid_from(rc, args.gamma_tip_grid, rc.preset_cfg.get("gamma_tip_grid"), "0:12:121")
    rows = branch_sweep(rc.params, gts, n_excitation=1)
    path = rc.output_dir / (rc.output_name or "figS3.csv")
    write_csv(path, ["gamma_tip", "branch", "re_lambda", "im_lambda",
                     "pop_01", "pop_10"], rows)
    write_provenance(sidecar_path(path),
                     {**_provenance_base(rc), "experiment": "eigen_branches"})

    loc_rows = []
    for gt in gts:
        pg = rc.params.with_(gamma_tip=float(gt))
        for n_exc in (1, 2):
            eig = subspace_eigensystem_numeric(pg, n_exc)
            pops = localization(eig)
            for k, label in enumerate(eig.labels):
                for s, (m, n) in enumerate(eig.basis_states):
                    loc_rows.append({
                        "gamma_tip": float(gt), "n_excitation": n_exc,
                        "branch": label, "m": m, "n": n,
                        "population": float(pops[k, s]),
                    })
    loc_path = rc.output_dir / "figS4.csv"
    write_csv(loc_path, ["gamma_tip", "n_excitation", "branch", "m", "n",
                         "population"], loc_rows)
    write_provenance(sidecar_path(loc_path),
                     {**_provenance_base(rc), "experiment": "eigen_localization"})
    print(f"eigen: {len(gts)} grid points -> {path}, {loc_path}")
    return 0


def _run_lep(rc: RunConfig, args) -> int:
    if args.range:
        lo, hi = (float(x) * rc.rate_scale for x in args.range.split(":"))
    else:
        ep = hep_location(rc.params.J, rc.params.gamma1_prime, rc.params.gamma_2)
        lo, hi = ep - 1.0, ep + 1.0
    res = lep_locate(rc.params, (lo, hi), grid=args.grid)
    path = rc.output_dir / (rc.output_name or "lep.csv")
    write_csv(path, ["gamma_tip", "branch", "re_Lambda", "im_Lambda",
                     "gap", "overlap"], res.grid_rows)
    write_provenance(sidecar_path(path),
                     {**_provenance_base(rc), "experiment": "lep",
                      "lep": res.gamma_tip, "gap": res.gap, "overlap": res.overlap})
    print(f"lep: gamma_tip={res.gamma_tip:.6f} gap={res.gap:.3e} "
          f"overlap={res.overlap:.6f} -> {path}")
    return 0


def _run_ep_agreement(rc: RunConfig, args) -> int:
    if args.j_grid:
        js = np.array([float(x) for x in args.j_grid.split(",")]) * rc.rate_scale
    elif "j_grid" in rc.preset_cfg:
        blk = rc.preset_cfg["j_grid"]
        js = np.linspace(blk["start"], blk["stop"], blk["num"]) * rc.rate_scale
    else:
        js = np.array([1.0, 1.5, 2.0, 3.0]) * rc.rate_scale
    rows = ep_agreement(rc.params, js)
    path = rc.output_dir / (rc.output_name or "fig1b_ep.csv")
    write_csv(path, ["J", "hep", "lep", "rel_discrepancy", "found"], rows)
    write_provenance(sidecar_path(path),
                     {**_provenance_base(rc), "experiment": "ep_agreement"})
    found = [r for r in rows if r["found"]]
    worst = max((r["rel_discrepancy"] for r in found), default=float("nan"))
    print(f"ep-agreement: {len(found)}/{len(rows)} LEPs located, "
          f"max |hep-lep|/hep = {worst:.3e} -> {path}")
    return 0


def _run_distribution(rc: RunConfig, args) -> int:
    points = [g * rc.rate_scale for g in
              (args.gamma_tip or rc.preset_cfg.get("distribution_points", [6.0, 8.9]))]
    basis = build_basis(per_mode=rc.cutoff)
    rows = []
    for gt in points:
        pg = rc.params.with_(gamma_tip=float(gt))
        pg = pg.with_(delta=resolve_delta(pg, rc.protocol))
        rho = steady_state(build_liouvillian(pg, basis, driven=True))
        if args.save_states:
            state_path = rc.output_dir / f"steady_state_gt_{gt:g}.json"
            state_path.write_text(rho.to_json(), encoding="utf-8")
        stats = photon_statistics(rho)
        cmp = poisson_comparison(stats.p_m)
        for m in range(len(cmp.p_m)):
            rows.append({
                "gamma_tip": float(gt), "m": m, "p_m": float(cmp.p_m[m]),
                "poisson_m": float(cmp.poisson[m]),
                "deviation": float(cmp.deviation[m]),
                "ratio": float(cmp.ratio[m]) if np.isfinite(cmp.ratio[m]) else None,
            })
    meta = {**asdict(rc.params), "experiment": "distribution",
            "gamma_tips": ",".join(str(g) for g in points)}
    path = rc.output_dir / (rc.output_name or "fig3b.csv")
    write_csv(path, ["gamma_tip", "m", "p_m", "poisson_m", "deviation", "ratio"],
              rows, meta=meta)
    write_provenance(sidecar_path(path),
                     {**_provenance_base(rc), "experiment": "distribution",
                      "gamma_tips": list(map(float, points))})
    print(f"distribution: {len(points)} loss points -> {path}")
    return 0


def _run_validate(rc: RunConfig, args) -> int:
    results = run_validation(rc.params)
    for r in results:
        print(f"  {r.name}: {'PASS' if r.passed else 'FAIL'} ({r.detail})")
    n_pass = sum(r.passed for r in results)
    pop = next(r for r in results if r.name == "liouvillian_populations_match_analytic")
    print(f"validate: {n_pass}/{len(results)} checks passed; "
          f"max analytic-vs-lindblad deviation {100 * pop.value:.3f}%")
    return 0 if n_pass == len(results) else 1


RUNNERS = {
    "sweep-loss": _run_sweep_loss,
    "spectrum": _run_spectrum,
    "spectrum-map": _run_spectrum_map,
    "eigen": _run_eigen,
    "lep": _run_lep,
    "ep-agreement": _run_ep_agreement,
    "critical-points": _run_critical_points,
    "distribution": _run_distribution,
    "validate": _run_validate,
}


def _common_parser(backend: str) -> argparse.ArgumentParser:
    """Options shared by every subcommand, with the given --backend default.

    A parent parser shares its action objects with every child, so a child's
    ``set_defaults`` would change the default of all of them; each backend
    default therefore gets its own parent.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--preset", default="paper_fig2",
                        help="shipped preset name (default: paper_fig2)")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="parameter override, applied after preset load")
    common.add_argument("--units", choices=("normalized", "si"), default="normalized")
    common.add_argument("--wavelength", type=float, help="SI mode: wavelength in m")
    common.add_argument("--q-intrinsic", dest="q_intrinsic", type=float,
                        help="SI mode: intrinsic quality factor")
    common.add_argument("--chi3", type=float,
                        help="SI mode: chi^(3)/eps_r^2 in m^2/V^2")
    common.add_argument("--v-eff", dest="v_eff", type=float,
                        help="SI mode: mode volume in m^3")
    common.add_argument("--p-in", dest="p_in", type=float,
                        help="SI mode: drive power in W")
    common.add_argument("--output-dir", default=None,
                        help="dataset directory (env KERRDIMER_OUTPUT_DIR, "
                             "default ./datasets)")
    common.add_argument("--output", default=None, help="dataset filename override")
    common.add_argument("--backend", choices=("both", "analytic", "lindblad"),
                        default=backend)
    common.add_argument("--cutoff", default="5,5",
                        help="per-mode Fock cutoffs n1,n2 for master-equation solves")
    common.add_argument("--protocol", default=None,
                        help="detuning protocol: 'track' or 'fixed:VALUE'")
    return common


def _build_parser() -> argparse.ArgumentParser:
    common = _common_parser("both")
    analytic = _common_parser("analytic")
    parser = argparse.ArgumentParser(
        prog="kerrdimer",
        description="Loss sweeps, spectra and exceptional points of a driven "
                    "Kerr/linear resonator pair",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sweep-loss", parents=[common],
                        help="observables vs nanotip loss")
    sp.add_argument("--gamma-tip-grid", default=None, metavar="START:STOP:NUM")

    sp = sub.add_parser("critical-points", parents=[analytic],
                        help="CP_c, CP_q and EP/LEP locations from a loss sweep")
    sp.add_argument("--gamma-tip-grid", default=None, metavar="START:STOP:NUM")

    sp = sub.add_parser("spectrum", parents=[analytic],
                        help="excitation spectrum S1(delta) at fixed loss")
    sp.add_argument("--gamma-tip", type=float, action="append",
                    help="loss value for a cut (repeatable)")
    sp.add_argument("--delta-grid", default=None, metavar="START:STOP:NUM")

    sp = sub.add_parser("spectrum-map", parents=[analytic],
                        help="S1 over the (gamma_tip, delta) plane")
    sp.add_argument("--gamma-tip-grid", default=None, metavar="START:STOP:NUM")
    sp.add_argument("--delta-grid", default=None, metavar="START:STOP:NUM")

    sp = sub.add_parser("eigen", parents=[common],
                        help="non-Hermitian eigenvalue branches and localization")
    sp.add_argument("--gamma-tip-grid", default=None, metavar="START:STOP:NUM")

    sp = sub.add_parser("lep", parents=[common],
                        help="locate the Liouvillian exceptional point")
    sp.add_argument("--range", default=None, metavar="LO:HI")
    sp.add_argument("--grid", type=int, default=41)

    sp = sub.add_parser("ep-agreement", parents=[common],
                        help="HEP vs LEP location over a coupling grid")
    sp.add_argument("--j-grid", default=None, metavar="J1,J2,...")

    sp = sub.add_parser("distribution", parents=[common],
                        help="photon distribution vs Poisson reference")
    sp.add_argument("--gamma-tip", type=float, action="append")
    sp.add_argument("--save-states", action="store_true",
                    help="also dump each steady state as JSON (basis labels + entries)")

    sub.add_parser("validate", parents=[common],
                   help="run the analytic-vs-numeric cross-check suite")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0

    try:
        rc = _build_config(args)
        rc.output_dir.mkdir(parents=True, exist_ok=True)
        return RUNNERS[args.command](rc, args)
    except _CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
