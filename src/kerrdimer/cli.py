"""Command-line surface: config loading, experiment dispatch, dataset writing.

Exit codes: 0 success, 1 numerical failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import SingularParameterError
from .experiments import (
    LEP_HALFWIDTH,
    companion_path,
    critical_points,
    ep_agreement,
    lep_window,
    loss_point,
    parse_protocol,
    protocol_tag,
    spectrum_map,
    sweep_loss,
    write_csv,
    write_provenance,
)
from .liouvillian import (
    DEFAULT_CUTOFF,
    DegenerateSteadyStateError,
    LepNotFoundError,
    NumericalFailureError,
    ResourceLimitError,
    driven_basis,
    excitation_cap,
    lep_locate,
    solve_points,
)
from .model import SystemParams, preset, si_reference_rates
from .observables import photon_statistics, poisson_comparison
from .spectral import branch_sweep, localization, subspace_eigensystem_numeric
from .validation import run_validation

USAGE_ERROR = 2
NUMERICAL_ERROR = 1

_CONFIG_ERRORS = (KeyError, ValueError, TypeError, FileNotFoundError)
# checked before _CONFIG_ERRORS: SingularParameterError and LinAlgError are ValueErrors
_NUMERICAL_ERRORS = (NumericalFailureError, DegenerateSteadyStateError, LepNotFoundError,
                     ResourceLimitError, SingularParameterError, np.linalg.LinAlgError)


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, num = spec.split(":")
        ends, num = [float(start), float(stop)], int(num)
    except ValueError:
        ends, num = [], 0
    if num < 1 or not np.isfinite(ends).all():
        raise ValueError(f"grid must be start:stop:num with finite start and stop "
                         f"and num >= 1, got {spec!r}")
    return np.linspace(*ends, num)


def _parse_values(spec: str) -> np.ndarray:
    try:
        values = np.array([float(x) for x in spec.split(",")])
    except ValueError:
        values = np.empty(0)
    if values.size == 0 or not np.isfinite(values).all():
        raise ValueError(f"grid must be V1,V2,... with at least one number, all finite, "
                         f"got {spec!r}")
    return values


def _parse_range(spec: str) -> tuple[float, float]:
    try:
        lo, hi = (float(x) for x in spec.split(":"))
    except ValueError:
        lo = hi = np.nan
    if not -np.inf < lo < hi < np.inf:
        raise ValueError(f"range must be LO:HI with numbers LO < HI, got {spec!r}")
    return lo, hi


def _grid_record(grid) -> dict:
    """A linspace grid as the sidecar records it."""
    return {"start": float(grid[0]), "stop": float(grid[-1]), "num": len(grid)}


def _parse_cutoff(spec: str) -> tuple[int, int]:
    try:
        cutoff = tuple(int(x) for x in spec.split(","))
    except ValueError:
        cutoff = ()
    if len(cutoff) != 2 or min(cutoff) < 0:
        raise ValueError(f"cutoff must be N1,N2 with integers N1, N2 >= 0, got {spec!r}")
    return cutoff


@dataclass
class RunConfig:
    """Resolved runtime configuration for one experiment invocation.

    ``rate_scale`` converts grid specifications (always written as
    multiples of gamma_1') into the active unit system: 1 in normalized
    mode, gamma_1' in rad/s under ``--units si``.
    """

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

    def grid(self, spec: str | None, key: str, fallback: str | None = None,
             parse=_parse_grid) -> np.ndarray:
        """Grid from the option ``spec``, else the preset's ``key`` block
        (start/stop/num), else ``fallback`` if one is given; in the active units."""
        if spec is None and (fallback is None or key in self.preset_cfg):
            block = self.preset_cfg[key]
            grid = np.linspace(block["start"], block["stop"], block["num"])
        else:
            grid = parse(fallback if spec is None else spec)
        return grid * self.rate_scale

    def path(self, default: str) -> Path:
        """Dataset path: ``--output`` if given, else ``default``, in the output
        dir, which is created here, so a run that writes nothing leaves none."""
        self.output_dir.mkdir(parents=True, exist_ok=True)
        return self.output_dir / (self.output_name or default)

    def provenance(self, **extra) -> dict:
        """Sidecar content, the same keys for every subcommand: the run
        configuration, then the runner's ``extra`` (experiment, grids,
        results, and the ``excitation_cap`` of a sweep's Lindblad solves,
        which replaces the cutoff's)."""
        return {"preset": self.preset_name, "params": asdict(self.params),
                "overrides": self.overrides, "backends": list(self.backends),
                "cutoff": list(self.cutoff), "excitation_cap": excitation_cap(self.cutoff),
                "protocol": protocol_tag(self.protocol),
                "code_version": __version__, **extra}

    def write(self, path, columns, rows, meta: dict | None = None, **extra) -> None:
        """CSV dataset plus its provenance sidecar (run config and ``extra``)."""
        write_csv(path, columns, rows, meta=meta)
        write_provenance(companion_path(path, ".provenance.json"), self.provenance(**extra))


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
            flags = ", ".join("--" + n.replace("_", "-") for n in missing)
            raise ValueError(f"--units si requires {flags}")
        params = _si_params(params, args)
        rate_scale = params.gamma1_prime
    if overrides:
        params = params.with_(**overrides)
        print("overrides applied:", ", ".join(f"{k}={v}" for k, v in sorted(overrides.items())))

    backend = args.backend or SUBCOMMANDS[args.command][1]
    rc = RunConfig(
        params=params, preset_name=args.preset, preset_cfg=cfg,
        output_dir=Path(args.output_dir or os.environ.get("KERRDIMER_OUTPUT_DIR", "datasets")),
        output_name=args.output,
        protocol=parse_protocol(args.protocol or cfg["protocol"]),
        backends=("analytic", "lindblad") if backend == "both" else (backend,),
        cutoff=_parse_cutoff(args.cutoff),
        overrides=overrides, rate_scale=rate_scale,
    )
    if len(rc.backends) > 1 and args.command in ("spectrum", "spectrum-map"):
        raise ValueError(f"{args.command} computes one backend: "
                         "use --backend analytic or --backend lindblad")
    return rc


# ---------------------------------------------------------------------------
# experiment runners

def _run_sweep_loss(rc: RunConfig, args) -> int:
    grid = rc.grid(args.gamma_tip_grid, "gamma_tip_grid")

    def sweep(run: RunConfig, **extra) -> tuple:
        return run, sweep_loss(run.params, grid, protocol=run.protocol,
                               backends=run.backends, cutoff=run.cutoff), extra

    runs = [sweep(rc)]
    if rc.preset_cfg.get("emit_fixed_delta_twin") and rc.protocol == "track_upper_branch":
        # same sweep under a frozen detuning (the tracked value at gamma_tip = 0)
        fixed = ("fixed", loss_point(rc.params, grid[0], rc.protocol).delta)
        runs.append(sweep(replace(rc, protocol=fixed), note="fixed-detuning companion sweep"))

    # the path makes the directory: only once every sweep has run
    path = rc.path(rc.preset_cfg["dataset"])
    written = [str(path), companion_path(path, "_fixed_delta.csv")][:len(runs)]
    failures = []
    for (run, table, extra), out in zip(runs, written):
        run.write(out, table.columns, table.rows, experiment="sweep_loss",
                  gamma_tip_grid=_grid_record(grid), excitation_cap=table.excitation_cap, **extra)
        failures += table.failures

    for gt, error, message in failures:
        print(f"sweep-loss: lindblad point gamma_tip={gt!r} failed: {error}: {message}",
              file=sys.stderr)
    for _, table, _ in runs:
        if table.analytic_failures:
            print(f"sweep-loss: {table.analytic_summary()}", file=sys.stderr)
    print(f"sweep-loss: {len(grid)} rows -> {', '.join(written)}")
    return 0


def _run_critical_points(rc: RunConfig, args) -> int:
    grid = rc.grid(args.gamma_tip_grid, "gamma_tip_grid")
    table = sweep_loss(rc.params, grid, protocol=rc.protocol, backends=rc.backends,
                       cutoff=rc.cutoff)
    cps = critical_points(table, rc.params)
    path = rc.path("critical_points.json")
    write_provenance(path, rc.provenance(
        experiment="critical_points", gamma_tip_grid=_grid_record(grid),
        critical_points=vars(cps), excitation_cap=table.excitation_cap))

    def show(cp):
        return "absent" if cp is None else f"{cp:.4f}"

    print(
        f"critical-points: cp_c={show(cps.cp_c)} cp_q_down={show(cps.cp_q_down)} "
        f"cp_q_up={show(cps.cp_q_up)} ep={cps.ep:.4f} lep={show(cps.lep)} -> {path}"
    )
    return 0


def _run_spectrum(rc: RunConfig, args) -> int:
    deltas = rc.grid(args.delta_grid, "delta_grid")
    gamma_tips = [g * rc.rate_scale for g in (args.gamma_tip or [0.0])]
    backend = rc.backends[0]
    smap = spectrum_map(rc.params, gamma_tips, deltas, backend=backend, cutoff=rc.cutoff)
    rows = ({"gamma_tip": gt, "delta": smap.delta, "s1": s1_row,
             "is_peak": np.isin(np.arange(smap.delta.size), peaks).astype(int)}
            for gt, s1_row, peaks in zip(gamma_tips, smap.s1, smap.peak_indices))
    meta = {**asdict(rc.params), "experiment": "spectrum", "backend": backend}
    path = rc.path("s1_cuts.csv")
    rc.write(path, ["gamma_tip", "delta", "s1", "is_peak"], rows, meta=meta,
             experiment="spectrum", gamma_tips=gamma_tips, delta_grid=_grid_record(deltas))
    peak_info = "; ".join(f"gt={gt}: {row['n_peaks']} peak(s)"
                          for gt, row in zip(gamma_tips, smap.peak_rows))
    print(f"spectrum: {peak_info} -> {path}")
    return 0


def _run_spectrum_map(rc: RunConfig, args) -> int:
    gts = rc.grid(args.gamma_tip_grid, "gamma_tip_grid")
    deltas = rc.grid(args.delta_grid, "delta_grid")
    smap = spectrum_map(rc.params, gts, deltas, backend=rc.backends[0], cutoff=rc.cutoff)
    path = rc.path("fig2c_map.csv")
    rows = ({"gamma_tip": gt, "delta": smap.delta, "s1": s1_row}
            for gt, s1_row in zip(smap.gamma_tip.tolist(), smap.s1))
    rc.write(path, ["gamma_tip", "delta", "s1"], rows, experiment="spectrum_map",
             gamma_tip_grid=_grid_record(gts), delta_grid=_grid_record(deltas))
    peaks_path = companion_path(path, "_peaks.csv")
    write_csv(peaks_path,
              ["gamma_tip", "n_peaks", "peak_delta_1", "peak_delta_2",
               "omega_plus", "omega_minus"],
              smap.peak_rows)
    print(f"spectrum-map: {len(gts)}x{len(deltas)} points -> {path}, {peaks_path}")
    return 0


def _run_eigen(rc: RunConfig, args) -> int:
    gts = rc.grid(args.gamma_tip_grid, "gamma_tip_grid")
    rows = branch_sweep(rc.params, gts)
    path = rc.path("figS3.csv")
    rc.write(path, ["gamma_tip", "branch", "re_lambda", "im_lambda", "pop_01", "pop_10"],
             rows, experiment="eigen_branches", gamma_tip_grid=_grid_record(gts))

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
    # the localization table follows an --output name, else it is figS4.csv
    loc_path = (companion_path(path, "_figS4.csv") if rc.output_name
                else rc.output_dir / "figS4.csv")
    rc.write(loc_path, ["gamma_tip", "n_excitation", "branch", "m", "n", "population"],
             loc_rows, experiment="eigen_localization", gamma_tip_grid=_grid_record(gts))
    print(f"eigen: {len(gts)} grid points -> {path}, {loc_path}")
    return 0


def _run_lep(rc: RunConfig, args) -> int:
    if args.range is not None:
        lo, hi = (x * rc.rate_scale for x in _parse_range(args.range))
    else:
        lo, hi = lep_window(rc.params, LEP_HALFWIDTH)
    res = lep_locate(rc.params, (lo, hi), grid=args.grid)
    path = rc.path("lep.csv")
    rc.write(path, ["gamma_tip", "branch", "re_Lambda", "im_Lambda", "gap", "overlap"],
             res.grid_rows, experiment="lep",
             gamma_tip_grid={"start": lo, "stop": hi, "num": args.grid},
             lep=res.gamma_tip, gap=res.gap, overlap=res.overlap)
    print(f"lep: gamma_tip={res.gamma_tip:.6f} gap={res.gap:.3e} "
          f"overlap={res.overlap:.6f} -> {path}")
    return 0


def _run_ep_agreement(rc: RunConfig, args) -> int:
    js = rc.grid(args.j_grid, "j_grid", "1.0,1.5,2.0,3.0", parse=_parse_values)
    rows = ep_agreement(rc.params, js)
    path = rc.path("fig1b_ep.csv")
    rc.write(path, ["J", "hep", "lep", "rel_discrepancy", "found"], rows,
             experiment="ep_agreement", j_grid=js.tolist())
    found = [r for r in rows if r["found"]]
    worst = max((r["rel_discrepancy"] for r in found), default=float("nan"))
    print(f"ep-agreement: {len(found)}/{len(rows)} LEPs located, "
          f"max |hep-lep|/hep = {worst:.3e} -> {path}")
    return 0


def _run_distribution(rc: RunConfig, args) -> int:
    points = [g * rc.rate_scale for g in
              (args.gamma_tip or rc.preset_cfg.get("distribution_points", [6.0, 8.9]))]
    states = solve_points([loss_point(rc.params, gt, rc.protocol) for gt in points],
                          driven_basis(rc.cutoff)).results
    rows = []
    for gt, (rho, failure) in zip(points, states):
        if failure:
            raise DegenerateSteadyStateError(
                f"loss point gamma_tip={gt!r} failed: {failure[0]}: {failure[1]}")
        if args.save_states:
            rc.output_dir.mkdir(parents=True, exist_ok=True)
            state_path = rc.output_dir / f"steady_state_gt_{gt!r}.json"
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
    path = rc.path("fig3b.csv")
    rc.write(path, ["gamma_tip", "m", "p_m", "poisson_m", "deviation", "ratio"], rows,
             meta=meta, experiment="distribution", gamma_tips=list(map(float, points)))
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


_GAMMA_TIP_GRID = {"--gamma-tip-grid": {"metavar": "START:STOP:NUM"}}
_DELTA_GRID = {"--delta-grid": {"metavar": "START:STOP:NUM"}}

# name: (runner, --backend default, help, subcommand-only options)
SUBCOMMANDS = {
    "sweep-loss": (_run_sweep_loss, "both", "observables vs nanotip loss", _GAMMA_TIP_GRID),
    "critical-points": (_run_critical_points, "analytic",
                        "CP_c, CP_q and EP/LEP locations from a loss sweep", _GAMMA_TIP_GRID),
    "spectrum": (_run_spectrum, "analytic", "excitation spectrum S1(delta) at fixed loss", {
        "--gamma-tip": {"type": float, "action": "append",
                        "help": "loss value for a cut (repeatable)"},
        **_DELTA_GRID}),
    "spectrum-map": (_run_spectrum_map, "analytic", "S1 over the (gamma_tip, delta) plane",
                     {**_GAMMA_TIP_GRID, **_DELTA_GRID}),
    "eigen": (_run_eigen, "both", "non-Hermitian eigenvalue branches and localization",
              _GAMMA_TIP_GRID),
    "lep": (_run_lep, "both", "locate the Liouvillian exceptional point", {
        "--range": {"metavar": "LO:HI"}, "--grid": {"type": int, "default": 41}}),
    "ep-agreement": (_run_ep_agreement, "both", "HEP vs LEP location over a coupling grid",
                     {"--j-grid": {"metavar": "J1,J2,..."}}),
    "distribution": (_run_distribution, "both", "photon distribution vs Poisson reference", {
        "--gamma-tip": {"type": float, "action": "append"},
        "--save-states": {"action": "store_true", "help": "also dump each steady state "
                          "as JSON (basis labels + entries)"}}),
    "validate": (_run_validate, "both",
                 "run the analytic-vs-numeric cross-check suite", {}),
}


def _common_parser() -> argparse.ArgumentParser:
    """Options shared by every subcommand."""
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
    common.add_argument("--backend", choices=("both", "analytic", "lindblad"))
    common.add_argument("--cutoff", default=",".join(map(str, DEFAULT_CUTOFF)),
                        help="per-mode Fock cutoffs n1,n2 for master-equation solves")
    common.add_argument("--protocol", default=None,
                        help="detuning protocol: 'track' or 'fixed:VALUE'")
    return common


def _build_parser(commands=SUBCOMMANDS) -> argparse.ArgumentParser:
    """The parser of every subcommand's name and help line, with the
    options of the subcommands in ``commands`` only."""
    parser = argparse.ArgumentParser(
        prog="kerrdimer",
        description="Loss sweeps, spectra and exceptional points of a driven "
                    "Kerr/linear resonator pair",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_, options) in SUBCOMMANDS.items():
        if name not in commands:
            sub.add_parser(name, help=help_)
            continue
        sp = sub.add_parser(name, parents=[_common_parser()], help=help_)
        for flag, kwargs in options.items():
            sp.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level options take no value, so the first word that is not an
    # option names the subcommand; the others' options are never parsed
    parser = _build_parser([next((a for a in argv if not a.startswith("-")), None)])
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0

    # each library warning once, as one line without a source path
    with warnings.catch_warnings():
        warnings.simplefilter("once")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            rc = _build_config(args)
            return SUBCOMMANDS[args.command][0](rc, args)
        except _NUMERICAL_ERRORS as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return NUMERICAL_ERROR
        except _CONFIG_ERRORS as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
