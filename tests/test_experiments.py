import csv
import json
import os
import subprocess
import time
import types
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kerrdimer import experiments, liouvillian, validation, workers
from kerrdimer.analytic import (
    N1_CEILING,
    AMPLITUDE_STATES,
    analytic_observables,
    shell_ratio,
    steady_amplitudes,
)
from kerrdimer.cli import main
from kerrdimer.experiments import (
    REFINE_TOL,
    SweepTable,
    critical_points,
    ep_agreement,
    format_value,
    lep_window,
    loss_point,
    resolve_delta,
    spectrum_map,
    sweep_loss,
    write_csv,
)
from kerrdimer.hilbert import FockBasis, build_basis
from kerrdimer.liouvillian import DegenerateSteadyStateError, LepNotFoundError
from kerrdimer.model import SystemParams, build_hamiltonian, preset, si_reference_rates
from kerrdimer.observables import excitation_spectrum
from kerrdimer.search import MAX_ITER, bisect_root, golden_section_minimize
from kerrdimer.spectral import hep_location


def params(**kw):
    defaults = dict(chi=2.1711386723121917, J=2.0, gamma_1=0.5, gamma_ex=0.5,
                    gamma_2=0.1, gamma_tip=0.0, omega_drive_amp=0.01)
    defaults.update(kw)
    return SystemParams(**defaults)


@dataclass(frozen=True)
class FaultyInWorker(SystemParams):
    """Parameters whose generator cannot be built outside the process that
    made them, as in a solve_points worker."""

    caller_pid: int = field(default_factory=os.getpid)

    @property
    def gamma2_prime(self) -> float:
        if os.getpid() != self.caller_pid:
            raise LookupError("no generator in a worker")
        return self.gamma_2 + self.gamma_tip


def blas_environment(rho):
    """A solve_points reduction: the BLAS thread variables its worker sees."""
    return {name: os.environ.get(name) for name in workers.BLAS_THREAD_VARS}


def exit_three(rho):
    """A solve_points reduction that ends its worker with exit status 3."""
    os._exit(3)


def child_pids() -> set:
    """The live and unreaped children of this process (Linux; empty elsewhere)."""
    return {pid for path in Path("/proc/self/task").glob("*/children")
            for pid in path.read_text().split()}


# cells as datasets hold them, with the edge cases of their text forms
FLOAT_CELLS = st.floats() | st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.2e-308])
CELL_KINDS = {
    "float": (FLOAT_CELLS, float),
    "int": (st.integers(-2**63, 2**63 - 1), np.int64),
    "bool": (st.booleans(), bool),
    "str": (st.text(st.sampled_from('ab ,"\n\r1.-'), max_size=5), str),
    "mixed": (FLOAT_CELLS | st.integers() | st.booleans() | st.none()
              | st.text(st.sampled_from('a,"\n'), max_size=3), object),
}


@st.composite
def block_table(draw):
    """Columns, ``write_csv`` items of scalar, array and missing cells, and
    the same table as one dict per row."""
    columns = [f"c{i}" for i in range(draw(st.integers(2, 5)))]
    items, rows = [], []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(1, 4))
        item, arrays = {}, {}
        for c in columns:
            cells, dtype = CELL_KINDS[draw(st.sampled_from(sorted(CELL_KINDS)))]
            shape = draw(st.sampled_from(["array", "scalar", "missing"]))
            if shape == "array":
                arrays[c] = draw(st.lists(cells, min_size=n, max_size=n))
                item[c] = np.array(arrays[c], dtype=dtype)
            elif shape == "scalar":
                item[c] = draw(cells)
        scalars = {c: v for c, v in item.items() if c not in arrays}
        rows += [{**scalars, **{c: v[i] for c, v in arrays.items()}}
                 for i in range(n if arrays else 1)]
        items.append(item)
    return columns, items, rows


def synthetic_table(gts, n1, g2):
    rows = [
        {"gamma_tip": float(g), "analytic_n1": float(a), "analytic_g2": float(b)}
        for g, a, b in zip(gts, n1, g2)
    ]
    return SweepTable(columns=list(rows[0]), rows=rows, protocol="track_upper_branch",
                      excitation_cap=liouvillian.excitation_cap(liouvillian.DEFAULT_CUTOFF))


class TestResolveDelta:
    def test_tracks_upper_branch(self):
        p = params(gamma_tip=0.0)
        beta = (p.gamma2_prime - p.gamma1_prime) / 4
        assert resolve_delta(p, "track_upper_branch") == pytest.approx(
            -np.sqrt(p.J**2 - beta**2), rel=1e-12)

    def test_zero_at_and_beyond_ep(self):
        for gt in (8.9, 10.0, 12.0):
            assert resolve_delta(params(gamma_tip=gt), "track_upper_branch") == \
                pytest.approx(0.0, abs=1e-12)

    def test_fixed_protocol(self):
        assert resolve_delta(params(), ("fixed", -1.25)) == -1.25

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            resolve_delta(params(), "chase_lower_branch")


class TestSweepLoss:
    def test_row_count_and_columns(self, loss_sweep):
        assert len(loss_sweep.rows) == 61
        for row in loss_sweep.rows:
            assert set(loss_sweep.columns) == set(row) | {
                c for c in loss_sweep.columns if c not in row}
            assert row["analytic_failed"] == 0
            assert row["lindblad_failed"] == 0

    def test_backend_cross_check(self, loss_sweep):
        # analytic vs lindblad: N1 within 1 %, g2 within 2 % on every row
        n1_a, n1_l, g2_a, g2_l = np.array(
            [[row[name] for row in loss_sweep.rows]
             for name in ("analytic_n1", "lindblad_n1", "analytic_g2", "lindblad_g2")])
        assert np.max(np.abs(n1_a - n1_l) / n1_l) < 0.01
        assert np.max(np.abs(g2_a - g2_l) / g2_l) < 0.02

    def test_branch_columns_consistent(self, loss_sweep):
        below = loss_sweep.rows[0]
        assert below["omega_plus"] > below["omega_minus"]
        assert below["kappa_plus"] == pytest.approx(below["kappa_minus"], rel=1e-9)
        above = [r for r in loss_sweep.rows if r["gamma_tip"] > 9.5][0]
        assert above["omega_plus"] == pytest.approx(above["omega_minus"], abs=1e-9)
        assert above["kappa_plus"] != pytest.approx(above["kappa_minus"], rel=0.05)

    def test_grid_must_ascend(self):
        with pytest.raises(ValueError):
            sweep_loss(params(), [1.0, 0.5], backends=("analytic",))

    def test_only_numerical_failures_blank_a_row(self, monkeypatch):
        # a degenerate or invalid steady state is a failed point that
        # carries its reason; any other RuntimeError is a fault and must
        # propagate. A monkeypatch does not reach the worker processes, so
        # this drives the chunk function they run, with the sweep's
        # reduction of a state to its row.
        pg = params(gamma_tip=4.0)
        basis = build_basis(per_mode=(3, 3))

        def invalid(rho):
            raise ValueError("N1 vanishes")

        assert liouvillian._solve_chunk([pg], basis, None, invalid) == [(
            (None, ("ValueError", "N1 vanishes")), None)]

        def degenerate(basis, mats):
            return [DegenerateSteadyStateError("two null vectors")]

        monkeypatch.setattr(liouvillian, "_steady_states", degenerate)
        assert liouvillian._solve_chunk([pg], basis, None, experiments._lindblad_columns) == [(
            (None, ("DegenerateSteadyStateError", "two null vectors")), None)]

        def broken(basis, mats):
            raise RuntimeError("not a numerical failure")

        monkeypatch.setattr(liouvillian, "_steady_states", broken)
        with pytest.raises(RuntimeError, match="not a numerical failure"):
            liouvillian._solve_chunk([pg], basis, None, experiments._lindblad_columns)

    def test_worker_exception_propagates(self):
        p = FaultyInWorker(**vars(params()))
        assert p.with_(gamma_tip=1.0).gamma2_prime == 1.1  # in the caller's process
        with pytest.raises(LookupError, match="no generator in a worker"):
            sweep_loss(p, [0.0, 4.0], backends=("lindblad",), cutoff=(3, 3))
        with pytest.raises(LookupError, match="no generator in a worker"):
            excitation_spectrum(p, [0.0, 1.0], backend="lindblad", cutoff=(3, 3))
        assert not child_pids()

    def test_dead_worker_names_its_exit_status(self):
        # a worker that dies, here in its reduction, fails the call at once,
        # and every worker is reaped, killed first if still alive
        start = time.monotonic()
        with pytest.raises(RuntimeError, match=r"a solve_points worker \(pid \d+\) "
                                               r"exited with status 3$"):
            liouvillian.solve_points([params(gamma_tip=gt) for gt in range(40)],
                                     build_basis(per_mode=(3, 3)), exit_three)
        assert time.monotonic() - start < 30
        assert not child_pids()

    def test_degenerate_point_is_listed(self):
        # no loss anywhere at gamma_tip = 0: the null space is not unique
        p = params(gamma_1=0.0, gamma_ex=0.0, gamma_2=0.0)
        table = sweep_loss(p, [0.0, 1.0], protocol=("fixed", 0.0),
                           backends=("lindblad",), cutoff=(3, 3))
        assert [r["lindblad_failed"] for r in table.rows] == [1, 0]
        assert "lindblad_n1" not in table.rows[0]  # the failed row is blank
        assert table.failures == [(0.0, "DegenerateSteadyStateError", "steady state is "
                                   "not unique: two trace-normalized null vectors differ")]

    def test_singular_point_is_listed_without_output(self, capfd):
        # the drive commutator alone: the top sector's block is exactly zero.
        # capfd reads file descriptor 2, which the workers share
        p = params(chi=0.0, J=0.0, gamma_1=0.0, gamma_ex=0.0, gamma_2=0.0, delta=0.0)
        solved = liouvillian.solve_points([p, p.with_(gamma_tip=1.0)],
                                          liouvillian.driven_basis((3, 3)))
        singular = "bordered steady-state solve is singular: zero pivot in excitation-difference"
        assert solved.results == [(None, ("DegenerateSteadyStateError", f"{singular} sector 5")),
                                  (None, ("DegenerateSteadyStateError", f"{singular} sector 3"))]
        assert solved.cap == 5  # without a start cap, the basis's own
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("cutoff", [(2, 2), (1, 1), (3, 2), (2, 5)])
    def test_lindblad_cutoff_below_three_rejected(self, cutoff):
        with pytest.raises(ValueError, match="cutoff of at least 3 per mode"):
            sweep_loss(params(), [0.0, 4.0], backends=("lindblad",), cutoff=cutoff)
        # the analytic backend has no basis and takes any cutoff
        sweep_loss(params(), [0.0, 4.0], backends=("analytic",), cutoff=cutoff)

    def test_rows_independent_of_worker_count(self, monkeypatch):
        # the worker count is one per CPU the parent may run on; five
        # workers on fewer cores may answer their uneven chunks (1 or 2 points)
        # out of order, and the rows still come back in input order
        grid = np.linspace(0.0, 12.0, 7)
        tables = []
        for cpus in ({0}, {0, 1}, set(range(5))):
            monkeypatch.setattr(liouvillian.os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            tables.append(sweep_loss(params(), grid, cutoff=(3, 3)))
        one, two, five = tables
        assert one.rows == two.rows == five.rows
        assert one == two == five

    def test_platform_without_cpu_affinity(self, monkeypatch):
        # os.sched_getaffinity is Linux-only; elsewhere the CPU count decides
        monkeypatch.delattr(liouvillian.os, "sched_getaffinity")
        results = liouvillian.solve_points([params(gamma_tip=2.0), params(gamma_tip=6.0)],
                                           build_basis(per_mode=(3, 3))).results
        assert [failure for _, failure in results] == [None, None]
        assert all(abs(rho.data.trace() - 1.0) < 1e-12 for rho, _ in results)

    def test_environment_untouched_by_sweep(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.setenv("MKL_NUM_THREADS", "")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        # a read-only os.environ during the calls: any write raises
        basis = build_basis(per_mode=(3, 3))
        with monkeypatch.context() as calls:
            calls.setattr(os, "environ", types.MappingProxyType(dict(os.environ)))
            # the workers read one BLAS thread from their own environment
            solved = liouvillian.solve_points([params()], basis, blas_environment)
            table = sweep_loss(params(), [0.0, 4.0], backends=("lindblad",), cutoff=(3, 3))
        assert solved.results == [(dict.fromkeys(workers.BLAS_THREAD_VARS, "1"), None)]
        assert [row["lindblad_failed"] for row in table.rows] == [0, 0]

    def test_analytic_columns_match_scalar_path(self):
        # eta1 = D1*D2 - J^2 vanishes at gamma_tip = 0: delta = J, nearly lossless modes
        p = params(gamma_1=5e-15, gamma_ex=5e-15, gamma_2=0.0, J=1.0, chi=1.0)
        with pytest.warns(UserWarning, match="perturbative"):
            table = sweep_loss(p, [0.0, 1.0, 4.0], protocol=("fixed", 1.0),
                               backends=("analytic",))
        assert [row["analytic_failed"] for row in table.rows] == [1, 0, 0]
        assert table.analytic_failures == [(0.0, "the closed form is singular")]
        assert table.analytic_summary() == ("1 of 3 analytic rows failed: the closed form is "
                                            "singular (1)")
        assert "analytic_n1" not in table.rows[0]
        for row in table.rows[1:]:
            with pytest.warns(UserWarning, match="perturbative"):
                amps = steady_amplitudes(p.with_(gamma_tip=row["gamma_tip"], delta=1.0))
            obs = analytic_observables(amps)
            pops = amps.populations()
            for name in ("n1", "n2", "g2", "g3", "g2_approx"):
                assert row[f"analytic_{name}"] == getattr(obs, name)
            for m, n in AMPLITUDE_STATES:
                assert row[f"analytic_p{m}{n}"] == pops[(m, n)]

    def test_vanishing_n1_fails_row(self):
        table = sweep_loss(params(omega_drive_amp=0.0), [0.0, 1.0],
                           backends=("analytic",))
        assert [row["analytic_failed"] for row in table.rows] == [1, 1]
        assert table.analytic_failures == [(0.0, "N1 vanishes"), (1.0, "N1 vanishes")]
        assert table.analytic_summary() == "2 of 2 analytic rows failed: N1 vanishes (2)"
        assert sweep_loss(params(), [0.0, 1.0], backends=("analytic",)).analytic_summary() == ""

    def test_n1_beyond_its_ceiling_fails_row_where_the_scalar_path_raises(self):
        # far past the weak-drive regime N1 grows as Omega^6 and falls with
        # gamma_tip: at Omega = 3.5e17 gamma_1' it crosses N1_CEILING, beyond
        # which N1^3, g3's denominator, overflows. Rows beyond it fail, as the
        # scalar evaluation raises there, with no numpy warning either way
        p = params(omega_drive_amp=3.5e17)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "drive exceeds", UserWarning)
            table = sweep_loss(p, np.linspace(0.0, 12.0, 13), backends=("analytic",))
            failed = [row["analytic_failed"] for row in table.rows]
            assert 0 < sum(failed) < len(failed)
            assert table.analytic_failures == [(row["gamma_tip"], "N1 is beyond N1_CEILING")
                                               for row in table.rows if row["analytic_failed"]]
            for row in table.rows:
                amps = steady_amplitudes(loss_point(p, row["gamma_tip"]))
                if row["analytic_failed"]:
                    assert "analytic_g3" not in row
                    with pytest.raises(ValueError, match=r"N1\^3, the denominator of g3, "
                                                         r"is beyond the float range"):
                        analytic_observables(amps)
                else:
                    assert row["analytic_n1"] <= N1_CEILING
                    assert row["analytic_g3"] == analytic_observables(amps).g3 > 0

    def test_csv_roundtrip_deterministic(self, loss_sweep, tmp_path):
        # the library table and the CLI's dataset of the same sweep agree
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, loss_sweep.columns, loss_sweep.rows)
        assert main(["sweep-loss", "--gamma-tip-grid", "0:12:61", "--output", "b.csv",
                     "--output-dir", str(tmp_path)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        side = json.loads((tmp_path / "b.provenance.json").read_text())
        assert side["protocol"] == "track_upper_branch"
        assert side["params"]["J"] == 2.0


def at_drive(fig2, drive):
    """The fig2 preset at its own drive ("preset") or at the drive of its SI
    reference device ("si")."""
    if drive == "preset":
        return fig2
    _, cfg = preset("paper_fig2")
    si = cfg["si_reference"]
    omega = si_reference_rates(
        wavelength=si["wavelength_m"], q_intrinsic=si["q_intrinsic"],
        chi3_over_eps_r2=si["chi3_over_eps_r2_m2_per_V2"], v_eff=si["v_eff_m3"],
        p_in=si["p_in_W"])["omega_drive_over_gamma1p"]
    return fig2.with_(omega_drive_amp=omega)


def assert_columns_match(got, ref, rtol, population_floor, where):
    """Every Lindblad column of ``got`` within ``rtol`` of ``ref``; populations
    below ``population_floor`` are compared absolutely."""
    assert got["lindblad_failed"] == ref["lindblad_failed"] == 0
    for name, value in ref.items():
        floor = population_floor if name.startswith("lindblad_p") else 0.0
        assert abs(got[name] - value) <= rtol * max(abs(value), floor), (
            name, where, got[name], value)


class TestExcitationCap:
    """The capped default basis gives the Lindblad columns of the full
    per-mode (5, 5) square, to 1e-12 relative."""

    RTOL = 1e-12
    POPULATION_FLOOR = 1e-14  # smaller populations are compared absolutely

    @pytest.mark.parametrize("drive", ["preset", "si"])
    def test_lindblad_columns_match_per_mode_basis(self, fig2, drive):
        p = at_drive(fig2, drive)
        gts = np.linspace(0.0, 12.0, 121)[::10]  # 13 points of the fig2 grid
        table = sweep_loss(p, gts, backends=("lindblad",))
        assert liouvillian.driven_basis(liouvillian.DEFAULT_CUTOFF).size == 30
        full = build_basis(per_mode=(5, 5))
        for gt, row in zip(gts, table.rows):
            rho = liouvillian.steady_state(
                liouvillian.build_liouvillian(loss_point(p, gt), full))
            assert_columns_match(row, experiments._lindblad_columns(rho),
                                 self.RTOL, self.POPULATION_FLOOR, gt)


def scan_error(got, ref, floor=1e-14):
    """The largest relative deviation of ``got``'s Lindblad columns from
    ``ref``'s; populations and the moments g2 N1^2 and g3 N1^3 below
    ``floor`` are compared absolutely."""
    error = 0.0
    for name, value in ref.items():
        new, scale = got[name], abs(value)
        if name in ("lindblad_g2", "lindblad_g3"):
            power = 2 if name == "lindblad_g2" else 3
            new, value = new * got["lindblad_n1"] ** power, value * ref["lindblad_n1"] ** power
            scale = max(abs(value), floor)
        elif name.startswith("lindblad_p"):
            scale = max(scale, floor)
        error = max(error, abs(new - value) / scale if scale else (np.inf if new != value else 0.0))
    return error


class TestCertifiedCap:
    """A sweep's Lindblad solves run at the excitation cap they certify, and
    give every lindblad_* column within 1e-12 relative of the ceiling, the
    capped basis of the cutoff."""

    RTOL = 1e-12
    GRID = np.linspace(0.0, 12.0, 13)  # every tenth point of the fig2 grid

    @staticmethod
    def omega(fig2, drive):
        return 0.5 if drive == "strong" else at_drive(fig2, drive).omega_drive_amp

    def assert_ceiling_columns(self, p, rows, population_floor=0.0):
        """Each row's Lindblad columns against an in-process ceiling solve;
        populations below ``population_floor`` are compared absolutely."""
        ceiling = liouvillian.driven_basis(liouvillian.DEFAULT_CUTOFF)
        for row in rows:
            pt = p.with_(gamma_tip=float(row["gamma_tip"]), delta=float(row["delta_used"]))
            ref = experiments._lindblad_columns(liouvillian.steady_state(
                liouvillian.build_liouvillian(pt, ceiling)))
            assert_columns_match({name: float(row[name]) for name in ref}, ref, self.RTOL,
                                 population_floor, row["gamma_tip"])

    @pytest.mark.parametrize("drive, start", [("preset", 5), ("si", 7), ("strong", 7)])
    def test_predicted_cap(self, fig2, drive, start):
        p = fig2.with_(omega_drive_amp=self.omega(fig2, drive))
        for protocol in ("track_upper_branch", ("fixed", loss_point(p, 0.0).delta)):
            deltas = [loss_point(p, gt, protocol).delta for gt in self.GRID]
            ratio = shell_ratio(p, np.array(deltas), p.gamma_2 + self.GRID)
            assert liouvillian.start_cap(ratio, 7) == start

    @pytest.mark.parametrize("name", ["paper_fig2", "paper_fig3"])
    @pytest.mark.parametrize("drive", ["preset", "si", "strong"])
    def test_columns_match_the_ceiling(self, fig2, tmp_path, capsys, name, drive):
        omega = self.omega(fig2, drive)
        assert main(["sweep-loss", "--preset", name, "--backend", "lindblad",
                     "--gamma-tip-grid", "0:12:13", "--set", f"omega_drive_amp={omega!r}",
                     "--output-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        sidecars = sorted(tmp_path.glob("*.provenance.json"))
        assert len(sidecars) == (2 if name == "paper_fig3" else 1)  # fig3: the fixed-delta twin
        for sidecar in sidecars:
            # the preset drive is certified below the ceiling; the SI drive needs it
            assert json.loads(sidecar.read_text())["excitation_cap"] == (
                5 if drive == "preset" else 7)
            with open(str(sidecar).replace(".provenance.json", ".csv"), newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 13
            self.assert_ceiling_columns(preset(name)[0].with_(omega_drive_amp=omega), rows)

    @pytest.mark.parametrize("drive, start, cap", [(0.05, 5, 6), ("si", 6, 7)])
    def test_missed_certificate_escalates_in_one_pool(self, fig2, tmp_path, monkeypatch, drive,
                                                      start, cap):
        # far below the one-photon branches (delta = -13, about -6 chi) the
        # closed-form shells 1 to 3 understate the higher ones, so at Omega =
        # 0.05 the predicted cap misses the certificate and the run goes up a
        # shell, below the ceiling. At the SI drive the predicted cap 6 is
        # solved at 5 and corrected, which leaves p03 ~ 2e-18 a remainder of
        # 2e-11 relative (5e-29 absolute, the solves' own rounding there);
        # the certificate counts it, and the run goes to the ceiling
        starts = []

        class CountedPopen(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                starts.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", CountedPopen)
        monkeypatch.setattr(liouvillian.os, "sched_getaffinity", lambda pid: {0, 1})
        p = fig2.with_(omega_drive_amp=drive) if drive == 0.05 else at_drive(fig2, drive)
        gts = self.GRID[::3]
        ratio = shell_ratio(p, np.full(gts.shape, -13.0), p.gamma_2 + gts)
        assert liouvillian.start_cap(ratio, 7) == start
        assert main(["sweep-loss", "--backend", "lindblad", "--protocol", "fixed:-13",
                     "--set", f"omega_drive_amp={p.omega_drive_amp!r}",
                     "--gamma-tip-grid=0:12:5", "--output-dir", str(tmp_path)]) == 0
        side = json.loads((tmp_path / "fig2ab.provenance.json").read_text())
        assert (side["excitation_cap"], len(starts)) == (cap, 2)  # one start of each worker
        rows = list(csv.DictReader((tmp_path / "fig2ab.csv").read_text().splitlines()))
        # p03 is about 1e-24 here, where solves on two bases differ by about
        # 1e-35 absolute (1e-11 relative) at any cap: the rounding floor
        self.assert_ceiling_columns(p, rows, population_floor=1e-14)

    def test_near_resonance(self, fig2, tmp_path, capsys):
        # Omega = 0.01 at a fixed Delta = -0.43, on the three-photon resonance
        # at -0.4335 gamma_1', where the shells above 3 outgrow the closed
        # form's: it predicts cap 5, and the certificate takes the run to cap
        # 6, below the ceiling, with every column within 1e-12 of the ceiling
        p = fig2.with_(omega_drive_amp=0.01)
        assert main(["sweep-loss", "--backend", "lindblad", "--set", "omega_drive_amp=0.01",
                     "--protocol", "fixed:-0.43", "--gamma-tip-grid", "0:12:13",
                     "--output-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        (sidecar,) = tmp_path.glob("*.provenance.json")
        cap = json.loads(sidecar.read_text())["excitation_cap"]
        ratio = shell_ratio(p, np.full(self.GRID.shape, -0.43), p.gamma_2 + self.GRID)
        assert liouvillian.start_cap(ratio, 7) < cap == 6
        with open(str(sidecar).replace(".provenance.json", ".csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        self.assert_ceiling_columns(p, rows)

    @settings(max_examples=20, deadline=None)
    @given(chi=st.floats(0.2, 10.0), J=st.floats(0.3, 4.0), gamma_2=st.floats(0.01, 1.0),
           log_omega=st.floats(np.log(0.003), np.log(0.3)), photons=st.sampled_from([2, 3]),
           branch=st.integers(0, 3), offset=st.floats(-0.3, 0.3))
    def test_random_scan_across_resonances(self, chi, J, gamma_2, log_omega, photons, branch,
                                           offset):
        # the certificate's escalation from MIN_CAP, in process, at a drawn
        # Delta within 0.3 gamma_1' of an N-photon resonance of the undriven
        # rotating-frame Hamiltonian: no certified point beyond 1e-12 of the
        # ceiling and beyond ten times the ceiling's own distance to the full
        # per-mode square, its rounding noise. Populations and the moments
        # g2 N1^2, g3 N1^3 below 1e-14 are compared absolutely.
        p = preset("paper_fig2")[0].with_(chi=chi, J=J, gamma_2=gamma_2,
                                          omega_drive_amp=float(np.exp(log_omega)))
        basis = liouvillian.driven_basis(liouvillian.DEFAULT_CUTOFF)
        h = build_hamiltonian(p.with_(omega_drive_amp=0.0, delta=0.0), basis,
                              "rotating_driven").data
        shell = [i for i, s in enumerate(basis.states) if sum(s) == photons]
        levels = np.linalg.eigvalsh(h[np.ix_(shell, shell)])
        delta = -levels[branch % len(levels)] / photons + offset * p.gamma1_prime
        points = [p.with_(gamma_tip=gt, delta=delta) for gt in (0.0, 6.0, 12.0)]
        ceiling, square = (liouvillian._solve_chunk(points, b, None, experiments._lindblad_columns)
                           for b in (basis, build_basis(per_mode=liouvillian.DEFAULT_CUTOFF)))
        cap = liouvillian.MIN_CAP
        while cap < max(map(sum, basis.states)):
            solved = liouvillian._solve_chunk(points, basis, cap, experiments._lindblad_columns)
            if all(err <= liouvillian.TRUNCATION_TOL for _, err in solved):
                break
            cap += 1
        else:
            return  # the ceiling itself
        for ((got, _), _), ((ref, _), _), ((full, _), _) in zip(solved, ceiling, square):
            error, noise = scan_error(got, ref), scan_error(ref, full)
            assert error <= 1e-12 or error <= 10 * noise, (cap, error, noise)

    def test_certified_results_are_the_corrected_states(self, fig2):
        # below the ceiling a point is solved one shell lower and reported
        # as its state corrected onto the certified cap: the columns at cap 5
        # are those of _solve_chunk's corrected cap-4 states, both run in the
        # workers at one BLAS thread, and not those of a plain cap-5 solve
        points = [loss_point(fig2, gt) for gt in self.GRID]
        basis = liouvillian.driven_basis(liouvillian.DEFAULT_CUTOFF)
        certified = liouvillian.solve_points(points, basis, experiments._lindblad_columns, 5)
        with workers.WorkerPool(1) as pool:
            (chunk,) = pool.map([points], basis, 5, experiments._lindblad_columns)
        plain = liouvillian.solve_points(
            points, FockBasis(tuple(s for s in basis.states if sum(s) <= 5)),
            experiments._lindblad_columns)
        assert certified.cap == plain.cap == 5
        assert certified.results == [result for result, _ in chunk]
        assert certified.results != plain.results

    def test_without_reduction_the_ceiling(self, fig2):
        # distribution keeps whole states: their top shells are P_m rows
        solved = liouvillian.solve_points([fig2], liouvillian.driven_basis((3, 3)),
                                          start_cap=3)
        assert solved.cap == 5
        assert solved.results[0][0].basis == liouvillian.driven_basis((3, 3))


class TestStackedChunks:
    """A worker solves its chunk of points per cap as stacks; each point's
    result must be exactly that of its stack of one."""

    @staticmethod
    def singly(points, basis, cap, reduce):
        return [liouvillian._solve_chunk([p], basis, cap, reduce)[0] for p in points]

    @pytest.fixture(autouse=True)
    def one_stack(self, monkeypatch):
        # the whole chunk in one stack at every cap, whatever its blocks take
        monkeypatch.setattr(liouvillian, "STACK_BYTES", 1 << 40)

    def test_certified_columns_and_estimates(self, fig2):
        # the preset's fig2 points at their certified cap 5: the columns at
        # cap 5 and the estimate one shell above
        points = [loss_point(fig2, gt) for gt in np.linspace(0.0, 12.0, 16)]
        basis = liouvillian.driven_basis(liouvillian.DEFAULT_CUTOFF)
        stacked = liouvillian._solve_chunk(points, basis, 5, experiments._lindblad_columns)
        assert stacked == self.singly(points, basis, 5, experiments._lindblad_columns)
        assert all(failure is None and err <= liouvillian.TRUNCATION_TOL
                   for (_, failure), err in stacked)

    @pytest.mark.parametrize("cutoff, count", [((5, 5), 6), ((7, 7), 3)])
    def test_whole_states_at_the_ceiling(self, fig2, monkeypatch, cutoff, count):
        # at (7, 7) a generator's gathered column passes numpy's 256 KiB
        # temporary-elision size, where its complex multiply swaps operands
        # and rounds otherwise. So each point's products with its generator,
        # L z (two columns) and the residual's L v, stay CSRMatrix products
        # of one point, one column at a time: a product over the stack sums
        # and rounds in another order, at every stack size.
        points = [loss_point(fig2, gt).with_(omega_drive_amp=omega)
                  for gt, omega in zip(np.linspace(0.0, 12.0, count), (0.01, 0.1131, 0.5) * 2)]
        basis = liouvillian.driven_basis(cutoff)
        products = []
        matmul = liouvillian.CSRMatrix.__matmul__

        def recorded(lmat, x):
            products.append(np.ndim(x))
            return matmul(lmat, x)

        monkeypatch.setattr(liouvillian.CSRMatrix, "__matmul__", recorded)
        stacked = liouvillian._solve_chunk(points, basis, None, None)
        assert sorted(products) == [1] * 3 * count + [2] * count
        for ((rho, failure), err), ((one, _), _) in zip(
                stacked, self.singly(points, basis, None, None)):
            assert failure is None and err is None
            assert rho.basis == one.basis == basis
            assert np.array_equal(rho.data, one.data)
            assert rho.residual == one.residual

    def test_near_equal_stacks_at_the_production_size(self, fig2, monkeypatch):
        # at the production STACK_BYTES a chunk on the 30-state ceiling takes
        # several stacks of near-equal size (not full stacks and a remainder),
        # with the results of single points
        monkeypatch.undo()
        points = [loss_point(fig2, gt)
                  for gt in np.linspace(0.0, 12.0, liouvillian.CHUNK_POINTS - 1)]
        basis = liouvillian.driven_basis(liouvillian.DEFAULT_CUTOFF)
        stacks = []
        steady_states = liouvillian._steady_states

        def recorded(basis, mats, border=None):
            stacks.append(len(mats))
            return steady_states(basis, mats, border)

        monkeypatch.setattr(liouvillian, "_steady_states", recorded)
        stacked = liouvillian._solve_chunk(points, basis, None, None)
        assert len(stacks) >= 2 and max(stacks) - min(stacks) <= 1
        assert sum(stacks) == len(points)
        for ((rho, failure), _), ((one, _), _) in zip(
                stacked, self.singly(points, basis, None, None)):
            assert failure is None
            assert np.array_equal(rho.data, one.data)
            assert rho.residual == one.residual

    def test_singular_point_among_good_ones(self, capfd):
        # chi = J = gamma = 0: the top sector's block is exactly zero, which
        # fails the stack's LAPACK call; the chunk is solved again point by
        # point, and the bad point keeps its own message, without output
        good = params(gamma_tip=2.0)
        bad = params(chi=0.0, J=0.0, gamma_1=0.0, gamma_ex=0.0, gamma_2=0.0, delta=0.0)
        points = [good, good.with_(gamma_tip=5.0), bad, good.with_(gamma_tip=9.0)]
        basis = liouvillian.driven_basis((3, 3))
        stacked = liouvillian._solve_chunk(points, basis, None, experiments._lindblad_columns)
        singular = ("bordered steady-state solve is singular: zero pivot in "
                    "excitation-difference sector 5")
        assert stacked[2] == ((None, ("DegenerateSteadyStateError", singular)), None)
        assert stacked == self.singly(points, basis, None, experiments._lindblad_columns)
        assert all(failure is None for i, ((_, failure), _) in enumerate(stacked) if i != 2)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("count, cpus, sizes", [
        (121, 2, [10] * 11 + [11]), (7, 2, [3, 4]), (2, 2, [1, 1]), (3, 1, [3]), (40, 1, [10] * 4),
    ])
    def test_chunk_sizes(self, monkeypatch, count, cpus, sizes):
        # at most CHUNK_POINTS, near-equal, and as many chunks as a multiple
        # of the workers
        tasks = []

        class NoPool:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, chunks, *args):
                tasks.extend(len(chunk) for chunk in chunks)
                return [[(None, None)] * len(chunk) for chunk in chunks]

        monkeypatch.setattr(workers, "WorkerPool", NoPool)
        monkeypatch.setattr(liouvillian.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        liouvillian.solve_points([params()] * count, liouvillian.driven_basis((3, 3)))
        assert tasks == sizes


class TestValidationReference:
    """validate's cutoff-convergence reference, the capped basis of per-mode
    cutoff 7, gives the Lindblad columns of the full per-mode (7, 7) square
    to 1e-12 relative."""

    RTOL = 1e-12
    POPULATION_FLOOR = 1e-14  # smaller populations are compared absolutely

    def test_contains_default_basis(self):
        reference = liouvillian.driven_basis(validation.REFERENCE_CUTOFF)
        assert reference.size == 49
        assert all(state in reference
                   for state in liouvillian.driven_basis(liouvillian.DEFAULT_CUTOFF).states)

    @pytest.mark.parametrize("drive", ["preset", "si"])
    def test_lindblad_columns_match_per_mode_basis(self, fig2, drive):
        p = at_drive(fig2, drive)
        capped = liouvillian.driven_basis(validation.REFERENCE_CUTOFF)
        full = build_basis(per_mode=validation.REFERENCE_CUTOFF)
        for gt in (0.0, 6.0, 12.0):
            got, ref = (experiments._lindblad_columns(liouvillian.steady_state(
                liouvillian.build_liouvillian(loss_point(p, gt), basis)))
                for basis in (capped, full))
            assert_columns_match(got, ref, self.RTOL, self.POPULATION_FLOOR, gt)


class TestCriticalPoints:
    def test_crossing_exactly_on_grid_point(self, fig2):
        gts = np.linspace(0.0, 10.0, 21)
        g2 = np.where(gts < 4.0, 0.5, np.where(gts > 4.0, 1.5, 1.0))
        table = synthetic_table(gts, np.ones_like(gts), g2)
        cps = critical_points(table, fig2)
        assert cps.cp_q_down == 4.0

    def test_monotone_table_has_no_quantum_points(self, fig2):
        gts = np.linspace(0.0, 10.0, 11)
        table = synthetic_table(gts, gts + 1.0, gts + 2.0)
        cps = critical_points(table, fig2)
        assert cps.cp_q_down is None and cps.cp_q_up is None
        assert cps.cp_c is None  # minimum sits on the grid edge

    def test_order_independence(self, loss_sweep, fig2):
        fwd = critical_points(loss_sweep, fig2)
        rev = critical_points(replace(loss_sweep, rows=loss_sweep.rows[::-1]), fig2)
        for name in ("cp_c", "cp_q_down", "cp_q_up"):
            assert getattr(fwd, name) == getattr(rev, name), name

    def test_paper_preset_values_are_floats(self, fig2):
        # the critical-points command's sweep; every point is a plain float
        # with the value critical_points.json has always held
        table = sweep_loss(fig2, np.linspace(0.0, 12.0, 121), backends=("analytic",))
        cps = vars(critical_points(table, fig2))
        assert cps == {"cp_c": 5.26393202250021, "cp_q_down": 1.7746093749999998,
                       "cp_q_up": 6.561328125000001, "ep": 8.9, "lep": 8.900000000000002}
        assert all(type(value) is float for value in cps.values())

    def test_needs_enough_rows(self, fig2):
        gts = np.linspace(0, 1, 3)
        with pytest.raises(ValueError):
            critical_points(synthetic_table(gts, gts, gts), fig2)

    @pytest.fixture(scope="class")
    def lindblad_sweep(self, fig2):
        return sweep_loss(fig2, np.linspace(0.0, 12.0, 25), backends=("lindblad",))

    @pytest.mark.parametrize("blank", [0, 3])  # gamma_tip = 0 and 1.5
    def test_failed_row_is_skipped(self, lindblad_sweep, fig2, blank):
        # a failed point leaves its Lindblad cells blank: it must neither be
        # taken as the minimum nor hide a sign change, nor decide the backend
        rows = list(lindblad_sweep.rows)
        rows[blank] = {k: v for k, v in rows[blank].items()
                       if not k.startswith("lindblad_")} | {"lindblad_failed": 1}
        intact = critical_points(lindblad_sweep, fig2)
        cps = critical_points(replace(lindblad_sweep, rows=rows), fig2)
        for name in ("cp_c", "cp_q_down", "cp_q_up"):
            assert getattr(cps, name) == pytest.approx(
                getattr(intact, name), abs=2 * REFINE_TOL), name

    def test_paper_preset_locations(self, loss_sweep, fig2):
        cps = critical_points(loss_sweep, fig2)
        assert cps.cp_c == pytest.approx(5.264, abs=0.02)
        assert cps.cp_q_down == pytest.approx(1.775, abs=0.02)
        assert cps.cp_q_up == pytest.approx(6.56, abs=0.02)
        assert cps.ep == pytest.approx(8.9, abs=1e-12)
        assert cps.lep == pytest.approx(8.9, abs=1e-3)

    def test_rad_per_second_rates_take_the_normalized_refinement(self, fig2, monkeypatch):
        # REFINE_TOL is in units of gamma_1', as the brackets are: the same
        # system in rad/s takes the same steps to the same points
        scale = si_reference_rates()["gamma1_prime"]
        p_si = fig2.with_(unit_system="si", **{name: getattr(fig2, name) * scale for name in (
            "omega_c", "delta", "chi", "J", "gamma_1", "gamma_ex", "gamma_2", "gamma_tip",
            "omega_drive_amp")})
        iterations = []

        def counted(search):
            def run(*args, **kwargs):
                res = search(*args, **kwargs)
                iterations.append(res.iterations)
                return res
            return run

        monkeypatch.setattr(experiments, "golden_section_minimize",
                            counted(golden_section_minimize))
        monkeypatch.setattr(experiments, "bisect_root", counted(bisect_root))
        gts = np.linspace(0.0, 12.0, 61)
        runs = []
        for p, unit in ((fig2, 1.0), (p_si, scale)):
            iterations.clear()
            cps = critical_points(sweep_loss(p, gts * unit, backends=("analytic",)), p)
            runs.append((list(iterations), cps))
        (norm_its, norm), (si_its, si) = runs
        assert len(norm_its) == 3 and si_its == norm_its and max(norm_its) < MAX_ITER
        for name in ("cp_c", "cp_q_down", "cp_q_up"):
            assert abs(getattr(si, name) / scale - getattr(norm, name)) \
                < REFINE_TOL, name


class TestSpectrumMap:
    def test_dimensions_and_peaks(self, fig2):
        gts = np.linspace(0.0, 12.0, 7)
        deltas = np.linspace(-4.0, 4.0, 201)
        smap = spectrum_map(fig2, gts, deltas)
        assert smap.s1.shape == (7, 201)
        for row in smap.peak_rows:
            if row["gamma_tip"] < 5.0:
                assert row["n_peaks"] == 2
                # peaks track the one-photon branches; the finite-linewidth
                # overlap of the two resonances pulls them slightly
                assert row["peak_delta_2"] == pytest.approx(row["omega_plus"], abs=0.2)
                assert row["peak_delta_1"] == pytest.approx(row["omega_minus"], abs=0.2)
            if row["gamma_tip"] >= 8.9:
                assert row["n_peaks"] == 1
                assert row["peak_delta_1"] == pytest.approx(0.0, abs=0.03)

    def test_symmetric_linear_map(self):
        # chi = 0 and balanced losses: S1 symmetric under delta -> -delta
        p = params(chi=0.0, gamma_2=1.0)
        deltas = np.linspace(-3.0, 3.0, 121)
        smap = spectrum_map(p, np.array([0.0]), deltas)
        assert np.allclose(smap.s1[0], smap.s1[0][::-1], rtol=1e-10)


class TestEpAgreement:
    def test_hep_lep_coincide(self, fig2):
        rows = ep_agreement(fig2, np.array([1.0, 1.5, 2.0, 3.0]))
        assert all(r["found"] for r in rows)
        for r in rows:
            assert r["hep"] == pytest.approx(
                hep_location(r["J"], fig2.gamma1_prime, fig2.gamma_2), abs=1e-12)
            assert r["rel_discrepancy"] < 0.02

    def test_hep_affine_slope_four(self, fig2):
        rows = ep_agreement(fig2, np.array([0.5, 1.0, 2.0, 4.0]))
        heps = {r["J"]: r["hep"] for r in rows}
        assert (heps[1.0] - heps[0.5]) == pytest.approx(2.0, abs=1e-12)
        assert (heps[4.0] - heps[2.0]) == pytest.approx(8.0, abs=1e-12)

    def test_grid_validation(self, fig2):
        with pytest.raises(ValueError):
            ep_agreement(fig2, np.array([2.0, 1.0]))

    def test_one_pair_per_search(self, fig2, monkeypatch):
        # ep_agreement and critical_points read only the located gamma_tip:
        # a search computes the whole pair at its refined minimum alone
        calls = {"search": 0, "pair": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(experiments, "lep_locate", counted("search", experiments.lep_locate))
        monkeypatch.setattr(liouvillian, "_block_pair", counted("pair", liouvillian._block_pair))
        rows = ep_agreement(fig2, np.array([1.0, 1.5, 2.0, 3.0]))
        assert all(r["found"] for r in rows)
        assert calls == {"search": 4, "pair": 4}
        table = sweep_loss(fig2, np.linspace(0.0, 12.0, 25), backends=("analytic",))
        calls.update(search=0, pair=0)
        assert critical_points(table, fig2).lep == pytest.approx(8.9, abs=1e-3)
        assert calls == {"search": 1, "pair": 1}


class TestLepWindow:
    @pytest.mark.parametrize("J, gamma_2", [(0.01, 5.0), (0.0, 2.0)])
    def test_no_window_above_zero_is_lep_not_found(self, J, gamma_2):
        # HEP + half-width is -2.96 and exactly 0: no gamma_tip > 0 to scan
        with pytest.raises(LepNotFoundError, match="no physical EP"):
            lep_window(params(J=J, gamma_2=gamma_2), 1.0)

    def test_no_gamma1_loss_is_value_error(self):
        # +- halfwidth * gamma_1' is a window of no width, not a missing EP
        with pytest.raises(ValueError, match="gamma_1' = 0"):
            lep_window(params(gamma_1=0.0, gamma_ex=0.0), 1.0)

    def test_no_gamma1_loss_and_no_physical_ep_is_lep_not_found(self):
        # HEP = 4J - gamma_2 = -2 < 0: the missing EP, not the window's width
        with pytest.raises(LepNotFoundError, match="no physical EP"):
            lep_window(params(gamma_1=0.0, gamma_ex=0.0, gamma_2=10.0), 1.0)

    def test_ep_agreement_marks_rows_without_gamma1_loss_or_physical_ep(self):
        rows = ep_agreement(params(gamma_1=0.0, gamma_ex=0.0, gamma_2=10.0), [0.5, 1.0])
        assert [(r["J"], r["hep"], r["lep"], r["found"]) for r in rows] == [
            (0.5, -8.0, None, 0), (1.0, -6.0, None, 0)]


class TestWriters:
    def test_meta_header_lines(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b"], [{"a": 1.5, "b": None}], meta={"J": 2.0, "chi": 0.1})
        text = path.read_text().splitlines()
        assert text[0] == "# J = 2.0"
        assert text[1] == "# chi = 0.1"
        assert text[2] == "a,b"
        assert text[3] == "1.5,"

    @settings(max_examples=300, deadline=None)
    @given(table=block_table())
    def test_block_items_write_the_per_cell_bytes(self, table, tmp_path_factory,
                                                  reference_write_csv):
        columns, items, rows = table
        out = tmp_path_factory.mktemp("blocks")
        write_csv(out / "blocks.csv", columns, items, meta={"J": 2.0})
        reference_write_csv(out / "rows.csv", columns, rows, meta={"J": 2.0})
        assert (out / "blocks.csv").read_bytes() == (out / "rows.csv").read_bytes()

    def test_repeated_array_cells_write_their_current_bytes(self, tmp_path,
                                                            reference_write_csv):
        # consecutive items share one array, which changes in place between
        # them (also 0.0 -> -0.0), or hold another dtype's view of its bytes
        axis = np.array([0.0, 1.5, -2.0])
        rows = []

        def items():
            for first, dtype in ((0.0, float), (0.0, float), (-0.0, float),
                                 (-0.0, np.int64), (2.5, float)):
                axis[0] = first
                x = axis.view(dtype)
                label = np.array([first, "a", None], dtype=object)
                rows.extend({"x": a, "s": 1, "label": b}
                            for a, b in zip(x.tolist(), label.tolist()))
                yield {"x": x, "s": 1, "label": label}

        write_csv(tmp_path / "items.csv", ["x", "s", "label"], items())
        reference_write_csv(tmp_path / "rows.csv", ["x", "s", "label"], rows)
        assert (tmp_path / "items.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    # cell values and the texts the datasets hold for them
    FORMATTED = [
        (None, ""), (True, "1"), (np.bool_(True), "1"), (7, "7"), (np.int64(7), "7"),
        (0.1, "0.1"), (np.float64(0.1), "0.1"), (np.float32(0.1), "0.10000000149011612"),
        (float("nan"), "nan"), (np.float32("nan"), "nan"), (float("inf"), "inf"),
        (-float("inf"), "-inf"), (-0.0, "-0.0"), (5e-324, "5e-324"),
        (1 + 2j, "(1+2j)"), (np.complex128(1 + 2j), "(1+2j)"), ("a,b", "a,b"),
    ]

    def test_format_value_texts(self):
        # the formatter lives, and is exported, next to the writer it serves
        assert "format_value" in experiments.__all__
        for value, text in self.FORMATTED:
            assert format_value(value) == text, repr(value)

    def test_bool_array_cell_writes_its_rows_bytes(self, tmp_path):
        # a bool array's elements are numpy bools; they write as Python bools do
        mask = np.array([True, False])
        write_csv(tmp_path / "block.csv", ["a", "m"], [{"a": 1.5, "m": mask}])
        write_csv(tmp_path / "rows.csv", ["a", "m"], [{"a": 1.5, "m": m} for m in mask])
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        assert (tmp_path / "block.csv").read_text() == "a,m\n1.5,1\n1.5,0\n"

    def test_array_cells_of_unequal_length_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="^zip"):
            write_csv(tmp_path / "out.csv", ["a", "b"],
                      [{"a": np.zeros(2), "b": np.zeros(3)}])
