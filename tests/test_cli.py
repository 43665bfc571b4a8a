import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kerrdimer
from kerrdimer.cli import _build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDispatch:
    def test_sweep_loss_happy_path(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "sweep-loss", "--preset", "paper_fig2",
            "--gamma-tip-grid", "0:12:13", "--backend", "analytic",
            "--output-dir", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "fig2ab.csv").exists()
        assert (tmp_path / "fig2ab.provenance.json").exists()
        assert "sweep-loss: 13 rows" in out

    def test_unknown_flag_usage_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "sweep-loss", "--no-such-flag")
        assert code == 2

    def test_unknown_preset_config_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "sweep-loss", "--preset", "paper_fig99",
                           "--output-dir", str(tmp_path))
        assert code == 2
        assert "configuration error" in err

    def test_bad_override_config_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "sweep-loss", "--set", "chi", "--output-dir",
                           str(tmp_path))
        assert code == 2
        # an empty grid is rejected before any dataset is written
        for command in ("sweep-loss", "eigen"):
            code, _, err = run(capsys, command, "--gamma-tip-grid", "0:12:0",
                               "--output-dir", str(tmp_path / command))
            assert code == 2
            assert "configuration error" in err
            assert not any((tmp_path / command).iterdir())

    def test_singular_point_is_numerical_error(self, tmp_path, capsys, monkeypatch):
        from kerrdimer import cli
        from kerrdimer.analytic import SingularParameterError

        def singular(p):
            raise SingularParameterError("eta1", 0j)

        monkeypatch.setattr(cli, "run_validation", singular)
        code, _, err = run(capsys, "validate", "--output-dir", str(tmp_path))
        assert code == 1
        assert "numerical failure" in err

    def test_companion_files_keep_their_own_names(self, tmp_path, capsys):
        # an --output name without .csv must not make companions overwrite it
        code, _, _ = run(capsys, "spectrum-map", "--gamma-tip-grid", "0:12:4",
                         "--delta-grid=-4:4:21", "--output", "map",
                         "--output-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "map").read_text().startswith("gamma_tip,delta,s1\n")
        assert (tmp_path / "map_peaks.csv").read_text().startswith("gamma_tip,n_peaks")
        code, _, _ = run(capsys, "sweep-loss", "--preset", "paper_fig3",
                         "--gamma-tip-grid", "0:12:7", "--backend", "analytic",
                         "--output", "fig3", "--output-dir", str(tmp_path))
        assert code == 0
        tracked = json.loads((tmp_path / "fig3.provenance.json").read_text())
        twin = json.loads((tmp_path / "fig3_fixed_delta.provenance.json").read_text())
        assert tracked["protocol"] == "track_upper_branch"
        assert twin["protocol"].startswith("fixed(")
        assert (tmp_path / "fig3").read_bytes() != (tmp_path / "fig3_fixed_delta.csv").read_bytes()

    def test_deterministic_output(self, tmp_path, capsys):
        for backend in ("analytic", "both"):
            args = ("sweep-loss", "--gamma-tip-grid", "0:10:6", "--backend", backend,
                    "--output-dir")
            r1, r2 = tmp_path / backend / "r1", tmp_path / backend / "r2"
            assert run(capsys, *args, str(r1))[0] == 0
            assert run(capsys, *args, str(r2))[0] == 0
            a = (r1 / "fig2ab.csv").read_bytes()
            b = (r2 / "fig2ab.csv").read_bytes()
            assert a == b
            assert (b"lindblad_g3" in a) == (backend == "both")
            pa = (r1 / "fig2ab.provenance.json").read_bytes()
            pb = (r2 / "fig2ab.provenance.json").read_bytes()
            assert pa == pb

    def test_env_output_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("KERRDIMER_OUTPUT_DIR", str(tmp_path / "envout"))
        code, _, _ = run(capsys, "sweep-loss", "--gamma-tip-grid", "0:10:6",
                         "--backend", "analytic")
        assert code == 0
        assert (tmp_path / "envout" / "fig2ab.csv").exists()

    def test_override_applied_and_logged(self, tmp_path, capsys):
        code, out, _ = run(capsys, "sweep-loss", "--set", "J=1.0",
                           "--gamma-tip-grid", "0:8:5", "--backend", "analytic",
                           "--output-dir", str(tmp_path))
        assert code == 0
        assert "overrides applied: J=1.0" in out
        side = json.loads((tmp_path / "fig2ab.provenance.json").read_text())
        assert side["params"]["J"] == 1.0

    def test_fig3_emits_fixed_delta_twin(self, tmp_path, capsys):
        code, _, _ = run(capsys, "sweep-loss", "--preset", "paper_fig3",
                         "--gamma-tip-grid", "0:12:7", "--backend", "analytic",
                         "--output-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "fig3a.csv").exists()
        assert (tmp_path / "fig3a_fixed_delta.csv").exists()
        side = json.loads((tmp_path / "fig3a_fixed_delta.provenance.json").read_text())
        assert side["protocol"].startswith("fixed(")


    def test_backend_default_per_subcommand(self):
        parser = _build_parser()
        assert parser.parse_args(["sweep-loss"]).backend == "both"
        assert parser.parse_args(["spectrum-map"]).backend == "analytic"


class TestExperimentCommands:
    def test_spectrum(self, tmp_path, capsys):
        code, out, _ = run(capsys, "spectrum", "--gamma-tip", "0.0",
                           "--delta-grid=-4:4:201", "--output-dir", str(tmp_path))
        assert code == 0
        assert "2 peak(s)" in out
        lines = (tmp_path / "s1_cuts.csv").read_text().splitlines()
        assert lines[0].startswith("# ")  # metadata header rows

    @pytest.mark.filterwarnings("ignore:drive exceeds")
    def test_spectrum_vanishing_n1_points_skipped(self, tmp_path, capsys):
        # far off the ultranarrow resonances N1 drops below the floor: those
        # cells are NaN, as singular points are, and the run succeeds
        code, _, _ = run(capsys, "spectrum", "--set", "gamma_1=5e-15",
                         "--set", "gamma_ex=5e-15", "--set", "gamma_2=1e-14",
                         "--set", "J=1.0", "--set", "chi=1.0", "--delta-grid=-2:2:401",
                         "--output-dir", str(tmp_path))
        assert code == 0
        rows = [l.split(",") for l in (tmp_path / "s1_cuts.csv").read_text().splitlines()
                if not l.startswith("#")][1:]
        assert len(rows) == 401
        assert any(r[2] == "nan" for r in rows)
        assert any(r[2] != "nan" for r in rows)

    def test_spectrum_map(self, tmp_path, capsys):
        code, out, _ = run(capsys, "spectrum-map", "--gamma-tip-grid", "0:12:4",
                           "--delta-grid=-4:4:101", "--output-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "fig2c_map.csv").exists()
        assert (tmp_path / "fig2c_map_peaks.csv").exists()

    def test_eigen(self, tmp_path, capsys):
        code, _, _ = run(capsys, "eigen", "--gamma-tip-grid", "0:12:5",
                         "--output-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "figS3.csv").exists()
        assert (tmp_path / "figS4.csv").exists()

    def test_lep(self, tmp_path, capsys):
        code, out, _ = run(capsys, "lep", "--grid", "15", "--output-dir", str(tmp_path))
        assert code == 0
        assert "gamma_tip=8.9" in out
        assert (tmp_path / "lep.csv").exists()

    def test_lep_independent_of_blas_threads(self, tmp_path):
        src = str(Path(kerrdimer.__file__).resolve().parents[1])
        for threads in ("1", "2"):
            path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            subprocess.run([sys.executable, "-m", "kerrdimer.cli", "lep",
                            "--output-dir", str(tmp_path / threads)],
                           env=env, check=True, capture_output=True, timeout=300)
        for name in ("lep.csv", "lep.provenance.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_spectrum_map_independent_of_blas_threads(self, tmp_path):
        src = str(Path(kerrdimer.__file__).resolve().parents[1])
        for threads in ("1", "2"):
            path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            subprocess.run([sys.executable, "-m", "kerrdimer.cli", "spectrum-map",
                            "--gamma-tip-grid", "0:12:7", "--delta-grid=-4:4:41",
                            "--output-dir", str(tmp_path / threads)],
                           env=env, check=True, capture_output=True, timeout=300)
        for name in ("fig2c_map.csv", "fig2c_map_peaks.csv", "fig2c_map.provenance.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_lep_not_found_is_numerical_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "lep", "--range", "0.5:3.0", "--grid", "9",
                           "--output-dir", str(tmp_path))
        assert code == 1
        assert "numerical failure" in err

    def test_ep_agreement(self, tmp_path, capsys):
        code, out, _ = run(capsys, "ep-agreement", "--j-grid", "1.0,2.0",
                           "--output-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "fig1b_ep.csv").exists()
        assert "2/2 LEPs located" in out

    def test_distribution(self, tmp_path, capsys):
        code, _, _ = run(capsys, "distribution", "--gamma-tip", "6.0",
                         "--cutoff", "4,4", "--output-dir", str(tmp_path))
        assert code == 0
        text = (tmp_path / "fig3b.csv").read_text()
        assert "p_m" in text

    def test_critical_points(self, tmp_path, capsys):
        code, out, _ = run(capsys, "critical-points", "--gamma-tip-grid", "0:12:41",
                           "--output-dir", str(tmp_path))
        assert code == 0
        assert "cp_c=5.26" in out
        assert "cp_q_down=1.77" in out
        payload = json.loads((tmp_path / "critical_points.json").read_text())
        assert payload["critical_points"]["ep"] == pytest.approx(8.9)


class TestValidate:
    def test_validate_passes_on_preset(self, tmp_path, capsys):
        code, out, _ = run(capsys, "validate", "--output-dir", str(tmp_path))
        assert code == 0
        for name in ("analytic_amplitude_scaling", "liouvillian_cutoff_convergence",
                     "observables_peak_stability"):
            assert f"{name}: PASS" in out
        assert "10/10 checks passed" in out
        # summary reports the max analytic-vs-lindblad deviation, < 2 %
        summary = [l for l in out.splitlines() if l.startswith("validate:")][0]
        deviation = float(summary.split("deviation ")[1].rstrip("%"))
        assert deviation < 2.0


class TestSiUnits:
    SI = ("--units", "si", "--wavelength", "1.55e-6", "--q-intrinsic", "2e9",
          "--chi3", "2e-17", "--v-eff", "1e-16", "--p-in", "4e-15")

    @pytest.mark.filterwarnings("ignore:drive exceeds")
    def test_si_sweep_scales_rates(self, tmp_path, capsys):
        code, _, _ = run(capsys, "sweep-loss", *self.SI,
                         "--gamma-tip-grid", "0:12:5", "--backend", "analytic",
                         "--output-dir", str(tmp_path))
        assert code == 0
        side = json.loads((tmp_path / "fig2ab.provenance.json").read_text())
        g1p = side["params"]["gamma_1"] + side["params"]["gamma_ex"]
        assert g1p == pytest.approx(1.215259e6, rel=1e-4)
        assert side["params"]["J"] == pytest.approx(2 * g1p, rel=1e-12)
        assert side["params"]["chi"] == pytest.approx(2638496.0, rel=1e-5)
        assert side["params"]["unit_system"] == "si"
        # grid specs are multiples of gamma_1' in any unit system
        assert side["gamma_tip_grid"]["stop"] == pytest.approx(12 * g1p, rel=1e-12)

    def test_si_requires_all_inputs(self, tmp_path, capsys):
        code, _, err = run(capsys, "sweep-loss", "--units", "si",
                           "--wavelength", "1.55e-6", "--output-dir", str(tmp_path))
        assert code == 2
        assert "requires" in err


class TestParamFiles:
    def test_load_params_roundtrip(self, tmp_path):
        import json as _json

        from kerrdimer.model import load_params

        cfg = {"params": {"chi": 1.5, "J": 2.5, "gamma_1": 0.5, "gamma_ex": 0.5,
                          "gamma_2": 0.2, "gamma_tip": 1.0, "omega_drive_amp": 0.02,
                          "unit_system": "normalized"}}
        path = tmp_path / "params.json"
        path.write_text(_json.dumps(cfg))
        p, raw = load_params(path)
        assert p.chi == 1.5
        assert p.J == 2.5
        assert p.gamma2_prime == pytest.approx(1.2)
        assert raw == cfg


class TestStateSerialization:
    def test_density_matrix_json(self):
        import numpy as np

        from kerrdimer.hilbert import build_basis
        from kerrdimer.liouvillian import DensityMatrix

        basis = build_basis(per_mode=(1, 1))
        rho = DensityMatrix(basis=basis, data=np.eye(4, dtype=complex) / 4)
        payload = json.loads(rho.to_json())
        assert payload["basis"] == [[0, 0], [0, 1], [1, 0], [1, 1]]
        assert payload["data"][0][0] == [0.25, 0.0]

    def test_distribution_saves_states(self, tmp_path, capsys):
        code, _, _ = run(capsys, "distribution", "--gamma-tip", "6.0",
                         "--cutoff", "3,3", "--save-states",
                         "--output-dir", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "steady_state_gt_6.json").read_text())
        assert payload["basis"][0] == [0, 0]
        assert payload["residual"] < 1e-10


class TestSiLindblad:
    @pytest.mark.filterwarnings("ignore:drive exceeds")
    def test_si_master_equation_solves(self, tmp_path, capsys):
        # rad/s rates (~1e6) must not trip the solver's scale-relative guards
        code, _, _ = run(capsys, "distribution", *TestSiUnits.SI,
                         "--gamma-tip", "6.0", "--cutoff", "3,3",
                         "--output-dir", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "fig3b.csv").read_text().splitlines()
        data = [r for r in rows if not r.startswith("#")]
        assert data[0].split(",")[0] == "gamma_tip"
        # P2/Poisson ratio stays the dimensionless bunching signature
        p2_row = data[3].split(",")
        assert float(p2_row[1]) == 2
        assert float(p2_row[2]) > float(p2_row[3])  # P2 enhanced over Poisson

    def test_spectrum_lindblad_backend(self, tmp_path, capsys):
        code, out, _ = run(capsys, "spectrum", "--gamma-tip", "0.0",
                           "--delta-grid=-3:3:31", "--backend", "lindblad",
                           "--cutoff", "3,3", "--output-dir", str(tmp_path))
        assert code == 0
        assert "2 peak(s)" in out


class TestEigenDatasets:
    def test_figS4_populations_normalized(self, tmp_path, capsys):
        import csv as _csv
        from collections import defaultdict

        code, _, _ = run(capsys, "eigen", "--gamma-tip-grid", "0:12:4",
                         "--output-dir", str(tmp_path))
        assert code == 0
        groups = defaultdict(float)
        with open(tmp_path / "figS4.csv") as fh:
            for row in _csv.DictReader(fh):
                key = (row["gamma_tip"], row["n_excitation"], row["branch"])
                groups[key] += float(row["population"])
        assert groups
        for total in groups.values():
            assert total == pytest.approx(1.0, abs=1e-10)
