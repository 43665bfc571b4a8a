import argparse
import csv
import fnmatch
import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import kerrdimer
from kerrdimer.cli import (MAX_GRID_POINTS, SUBCOMMANDS, _build_config, _build_parser,
                           _parse_args, _subcommand_parser, main)
from kerrdimer.experiments import spectrum_map
from kerrdimer import experiments, liouvillian, search
from kerrdimer.model import preset, preset_names
from kerrdimer.observables import excitation_spectrum
from kerrdimer.search import MAX_ITER, golden_section_minimize
from kerrdimer.spectral import hep_location


# spectrum over ultranarrow resonances: far from them N1 vanishes, and
# those cells are NaN
VANISHING_N1_SPECTRUM = ("spectrum", "--set", "gamma_1=5e-15", "--set", "gamma_ex=5e-15",
                         "--set", "gamma_2=1e-14", "--set", "J=1.0", "--set", "chi=1.0",
                         "--delta-grid=-2:2:401")


ROOT = Path(__file__).resolve().parents[1]
# the kerrdimer under test, which every subprocess imports first
SRC = Path(kerrdimer.__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bytecheck():
    """tools/bytecheck.py as a module; every subprocess here runs in its environment."""
    path = ROOT / "tools" / "bytecheck.py"
    spec = importlib.util.spec_from_file_location("bytecheck", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def beyond(name, value):
    """SystemParams' message for a number beyond its MAX_MAGNITUDE."""
    return f"{name} must be at most 1e+30 in magnitude, got {value}"


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
        # an empty grid is rejected before any dataset is written; so is an
        # empty grid option, which must not fall back to the preset's grid
        cases = [("sweep-loss", "--gamma-tip-grid", "0:12:0"),
                 ("eigen", "--gamma-tip-grid", "0:12:0"),
                 ("sweep-loss", "--gamma-tip-grid", ""),
                 ("spectrum", "--delta-grid", ""),
                 ("ep-agreement", "--j-grid", "")]
        for i, (command, option, spec) in enumerate(cases):
            out = tmp_path / str(i)
            code, _, err = run(capsys, command, option, spec, "--output-dir", str(out))
            assert code == 2, (command, option, spec)
            assert "configuration error" in err
            assert not out.exists()

    @pytest.mark.parametrize("override", ["J=nan", "gamma_2=inf", "chi=nan"])
    def test_non_finite_parameter_config_error(self, tmp_path, capsys, override):
        name, _, value = override.partition("=")
        code, out, err = run(capsys, "sweep-loss", "--backend", "analytic",
                             "--gamma-tip-grid", "0:12:5", "--set", override,
                             "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert err == f"configuration error: {name} must be finite, got {value}\n"
        assert out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option, value, message", [
        ("--set", "chi=abc", "override must be KEY=VALUE with a number VALUE, got 'chi=abc'"),
        ("--set", "chi", "override must be KEY=VALUE with a number VALUE, got 'chi'"),
        ("--protocol", "fixed:abc",
         "protocol must be 'track' or 'fixed:VALUE', got 'fixed:abc'"),
        ("--protocol", "fixed:", "protocol must be 'track' or 'fixed:VALUE', got 'fixed:'")])
    def test_non_number_value_names_its_form(self, tmp_path, capsys, option, value, message):
        code, out, err = run(capsys, "sweep-loss", "--backend", "analytic",
                             "--gamma-tip-grid", "0:12:5", option, value,
                             "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert err == f"configuration error: {message}\n"
        assert out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, spec", [
        (("spectrum-map", "--gamma-tip-grid", "0:12:3", "--delta-grid=0:inf:4"), "0:inf:4"),
        (("ep-agreement", "--j-grid", "1,inf"), "1,inf"),
        (("sweep-loss", "--gamma-tip-grid", "nan:12:3"), "nan:12:3"),
        (("ep-agreement", "--j-grid", "nan"), "nan")])
    def test_non_finite_grid_config_error(self, tmp_path, capsys, argv, spec):
        code, _, err = run(capsys, *argv, "--output-dir", str(tmp_path))
        assert code == 2
        assert err.startswith("configuration error: grid must be ")
        assert err.endswith(f"got {spec!r}\n")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("option, value, form", [
        ("--range", "1:2:3", "LO:HI"), ("--range", "9", "LO:HI"),
        ("--range", "9:8", "LO:HI"), ("--range", "a:9", "LO:HI"), ("--range", "", "LO:HI"),
        ("--grid", "0", "integer >= 3"), ("--grid", "1", "integer >= 3"),
        ("--grid", "2", "integer >= 3"), ("--grid", "-1", "integer >= 3")])
    def test_malformed_lep_scan_config_error(self, tmp_path, capsys, option, value, form):
        code, _, err = run(capsys, "lep", f"{option}={value}", "--output-dir", str(tmp_path))
        assert code == 2
        assert err.startswith("configuration error: ")
        assert form in err
        assert not any(tmp_path.iterdir())

    def test_lindblad_cutoff_below_three_config_error(self, tmp_path, capsys):
        for cutoff in ("2,2", "1,1", "3,2"):
            code, _, err = run(capsys, "sweep-loss", "--backend", "both",
                               "--cutoff", cutoff, "--gamma-tip-grid", "0:12:5",
                               "--output-dir", str(tmp_path))
            assert code == 2
            assert "configuration error" in err
            assert "cutoff of at least 3 per mode" in err
            assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, code", [
        (("sweep-loss", "--backend", "lindblad"), 2),
        (("critical-points", "--backend", "lindblad"), 2),
        (("spectrum", "--backend", "lindblad", "--gamma-tip", "0"), 2),
        (("spectrum-map", "--backend", "lindblad"), 2),
        (("distribution",), 2),
        (("sweep-loss", "--backend", "analytic", "--gamma-tip-grid", "0:12:5"), 0),
        (("spectrum", "--gamma-tip", "0", "--delta-grid=-1:1:3"), 0)])
    def test_cutoff_over_the_cap_config_error(self, tmp_path, capsys, argv, code):
        # (9, 9)'s driven basis has 72 states, over MAX_HILBERT_DIM: an error
        # before any point is built where the command solves on it, else unused
        out = tmp_path / "out"
        got, _, err = run(capsys, *argv, "--cutoff", "9,9", "--output-dir", str(out))
        assert got == code, err
        if code:
            assert err == ("configuration error: cutoff (9, 9) gives a driven basis of "
                           "more than 64 states, the superoperator cap\n")
            assert not out.exists()

    @pytest.mark.parametrize("argv, options, points", [
        (("lep", f"--grid={MAX_GRID_POINTS + 1}"), "--grid", MAX_GRID_POINTS + 1),
        *(((command, f"--gamma-tip-grid=0:12:{MAX_GRID_POINTS + 1}"), "--gamma-tip-grid",
           MAX_GRID_POINTS + 1) for command in ("sweep-loss", "critical-points", "eigen")),
        (("spectrum", f"--delta-grid=-4:4:{MAX_GRID_POINTS + 1}"), "--delta-grid",
         MAX_GRID_POINTS + 1),
        # maps over the cap in cells, each grid under it: the preset's 121 rows
        # of 827 cells, and 2 rows of 50001
        (("spectrum-map", "--delta-grid=-4:4:827"), "--gamma-tip-grid x --delta-grid",
         121 * 827),
        (("spectrum-map", "--gamma-tip-grid=0:12:2",
          f"--delta-grid=-4:4:{MAX_GRID_POINTS // 2 + 1}"), "--gamma-tip-grid x --delta-grid",
         MAX_GRID_POINTS + 2)])
    def test_grid_over_the_cap_config_error(self, tmp_path, capsys, monkeypatch, argv,
                                            options, points):
        # rejected before any grid is made: making one over the cap fails the test
        linspace = np.linspace

        def capped(start, stop, num=50, **kwargs):
            assert num <= MAX_GRID_POINTS, f"a grid of {num} points was made"
            return linspace(start, stop, num, **kwargs)

        monkeypatch.setattr(np, "linspace", capped)
        out = tmp_path / "out"
        got = run(capsys, *argv, "--output-dir", str(out))
        assert got == (2, "", f"configuration error: {options} must hold at most "
                              f"{MAX_GRID_POINTS} points, got {points}\n")
        assert not out.exists()

    @pytest.mark.parametrize("backend", ["analytic", "lindblad", "both"])
    @pytest.mark.parametrize("cutoff", ["5", "5,5,5", "a,5", "5,", "-1,5", "2.5,3", ""])
    def test_malformed_cutoff_config_error(self, tmp_path, capsys, backend, cutoff):
        code, _, err = run(capsys, "spectrum", "--backend", backend, f"--cutoff={cutoff}",
                           "--delta-grid=-1:1:3", "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert err.startswith("configuration error: cutoff must be N1,N2")
        assert not (tmp_path / "out").exists()

    def test_failed_lindblad_points_reported(self, tmp_path, capsys):
        # no loss at gamma_tip = 0: a degenerate steady state, one stderr line
        code, out, err = run(capsys, "sweep-loss", "--backend", "lindblad",
                             "--set", "gamma_1=0", "--set", "gamma_ex=0",
                             "--set", "gamma_2=0", "--protocol", "fixed:0",
                             "--gamma-tip-grid", "0:2:3", "--cutoff", "3,3",
                             "--output-dir", str(tmp_path))
        assert code == 0
        assert err.splitlines() == [
            "sweep-loss: lindblad point gamma_tip=0.0 failed: DegenerateSteadyStateError: "
            "steady state is not unique: two trace-normalized null vectors differ"]
        assert "DegenerateSteadyStateError" not in out
        rows = (tmp_path / "fig2ab.csv").read_text().splitlines()
        assert [r.split(",")[-1] for r in rows] == ["lindblad_failed", "1", "0", "0"]

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

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--gamma-tip", "4.0", "--delta-grid=-1:1:3"),
        ("spectrum-map", "--gamma-tip-grid", "0:4:2", "--delta-grid=-1:1:3")])
    def test_single_backend_commands_reject_both(self, tmp_path, capsys, argv):
        # these compute one backend; 'both' used to run the analytic one alone
        out = tmp_path / "out"
        code, _, err = run(capsys, *argv, "--backend", "both", "--output-dir", str(out))
        assert code == 2
        assert err.startswith("configuration error: ")
        assert "--backend analytic" in err and "--backend lindblad" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["--version"], ["bogus"], ["-4", "lep"], ["--", "lep", "--help"],
        *([name, option] for name in SUBCOMMANDS
          for option in ("--help", "-h", "--version", "--bogus")),
        *([name, "--", "x"] for name in SUBCOMMANDS),
        ["lep", "--grid", "x"], ["spectrum", "--gamma-tip", "x"],
        ["distribution", "--gamma-tip", "x"], ["lep", "--gr", "5"], ["lep", "--grid"],
        ["ep-agreement", "--j-grid"], ["lep", "--=x"], ["lep", "--", "--=x"]])
    def test_main_prints_what_the_parser_prints(self, capsys, argv):
        # a named call is answered by NAME's parser, its errors included;
        # any other argv by the top-level parser
        def outcome(parse, argv):
            try:
                result = parse(argv)
            except SystemExit as exc:
                result = exc.code or 0
            return result, capsys.readouterr()

        named = bool(argv) and argv[0] in SUBCOMMANDS
        expected = (outcome(_subcommand_parser(argv[0]).parse_args, argv[1:]) if named
                    else outcome(_build_parser().parse_args, argv))
        if isinstance(expected[0], argparse.Namespace):
            assert outcome(_parse_args, argv) == expected
            return
        # where the parser exits, main returns its code, printing the same
        assert outcome(main, argv) == expected
        if named and expected[0] == 2:
            assert f"kerrdimer {argv[0]}: error: " in expected[1].err

    @pytest.mark.parametrize("argv, code", [
        *(([name, "--help"], 0) for name in SUBCOMMANDS),
        (["spectrum", "--gamma-tip", "0", "--delta-grid=-1:1:3"], 0),
        *((["lep", *bad], 2) for bad in (["--bogus"], ["--version"], ["--", "x"], ["--=x"]))])
    def test_a_named_subcommand_builds_one_parser(self, tmp_path, capsys, monkeypatch,
                                                  argv, code):
        # its own, not a tree of one for every subcommand, even to reject an argument
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda parser, *a, **kw: built.append(init(parser, *a, **kw)))
        assert run(capsys, argv[0], "--output-dir", str(tmp_path), *argv[1:])[0] == code
        assert len(built) == 1

    def test_backend_default_per_subcommand(self):
        assert _build_config(_parse_args(["sweep-loss"])).backends == ("analytic", "lindblad")
        assert _build_config(_parse_args(["spectrum-map"])).backends == ("analytic",)

    @pytest.mark.parametrize("name", preset_names())
    def test_every_preset_defines_the_run_defaults(self, name):
        # the runners take these from the preset, with no fallback of their own
        _, cfg = preset(name)
        assert {"gamma_tip_grid", "delta_grid", "protocol", "dataset"} <= set(cfg)
        # and its map, the largest grid run, is within the cap
        assert cfg["gamma_tip_grid"]["num"] * cfg["delta_grid"]["num"] <= MAX_GRID_POINTS


class TestExperimentCommands:
    def test_spectrum(self, tmp_path, capsys):
        code, out, _ = run(capsys, "spectrum", "--gamma-tip", "0.0",
                           "--delta-grid=-4:4:201", "--output-dir", str(tmp_path))
        assert code == 0
        assert "2 peak(s)" in out
        lines = (tmp_path / "s1_cuts.csv").read_text().splitlines()
        assert lines[0].startswith("# ")  # metadata header rows

    def test_spectrum_vanishing_n1_points_skipped(self, tmp_path, capsys):
        # far off the ultranarrow resonances N1 drops below the floor: those
        # cells are NaN, as singular points are, and the run succeeds
        code, out, _ = run(capsys, *VANISHING_N1_SPECTRUM, "--output-dir", str(tmp_path))
        assert code == 0
        rows = [l.split(",") for l in (tmp_path / "s1_cuts.csv").read_text().splitlines()
                if not l.startswith("#")][1:]
        assert len(rows) == 401
        assert any(r[2] == "nan" for r in rows)
        assert any(r[2] != "nan" for r in rows)
        # the singular resonances at delta = +-1 are skipped; no skipped
        # cell is a peak or makes its neighbour (+-0.99, +-1.01) one
        skipped = [r[2] == "nan" for r in rows]
        peaks = [i for i, r in enumerate(rows) if r[3] == "1"]
        assert skipped[100] and skipped[300]
        assert peaks and f"{len(peaks)} peak(s)" in out
        for i in peaks:
            assert not (skipped[i] or skipped[i - 1] or skipped[i + 1]), rows[i]

    def test_spectrum_map_bytes_match_the_per_cell_writer(self, tmp_path, capsys,
                                                           reference_write_csv):
        argv = ["spectrum-map", "--gamma-tip-grid", "0:12:3", "--delta-grid=-4:4:41",
                "--output-dir", str(tmp_path)]
        assert run(capsys, *argv)[0] == 0
        rc = _build_config(_parse_args(argv))
        smap = spectrum_map(rc.params, np.linspace(0.0, 12.0, 3), np.linspace(-4.0, 4.0, 41))
        cells = [{"gamma_tip": gt, "delta": d, "s1": s1}
                 for gt, s1_row in zip(smap.gamma_tip.tolist(), smap.s1.tolist())
                 for d, s1 in zip(smap.delta.tolist(), s1_row)]
        reference_write_csv(tmp_path / "reference.csv", ["gamma_tip", "delta", "s1"], cells)
        assert (tmp_path / "fig2c_map.csv").read_bytes() == \
            (tmp_path / "reference.csv").read_bytes()

    def test_multi_block_map_bytes_match_the_per_row_spectra(self, tmp_path, capsys,
                                                             reference_write_csv):
        # 13 rows of 501 cells span two analytic blocks, the last one partial;
        # the written map must equal the cells of 13 single-row spectra
        argv = ["spectrum-map", "--gamma-tip-grid", "0:12:13", "--delta-grid=-4:4:501",
                "--output-dir", str(tmp_path)]
        assert run(capsys, *argv)[0] == 0
        rc = _build_config(_parse_args(argv))
        deltas = np.linspace(-4.0, 4.0, 501)
        cells = [{"gamma_tip": gt, "delta": d, "s1": s1}
                 for gt in np.linspace(0.0, 12.0, 13).tolist()
                 for d, s1 in zip(deltas.tolist(), excitation_spectrum(
                     rc.params.with_(gamma_tip=gt), deltas).s1.tolist())]
        reference_write_csv(tmp_path / "reference.csv", ["gamma_tip", "delta", "s1"], cells)
        assert (tmp_path / "fig2c_map.csv").read_bytes() == \
            (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.filterwarnings("ignore:drive exceeds")  # the spectrum_map call below
    def test_spectrum_nan_cell_bytes_match_the_per_cell_writer(self, tmp_path, capsys,
                                                                reference_write_csv):
        argv = [*VANISHING_N1_SPECTRUM, "--output-dir", str(tmp_path)]
        assert run(capsys, *argv)[0] == 0
        rc = _build_config(_parse_args(argv))
        smap = spectrum_map(rc.params, [0.0], np.linspace(-2.0, 2.0, 401))
        peaks = smap.peak_indices[0]
        cells = [{"gamma_tip": 0.0, "delta": d, "s1": s1, "is_peak": int(j in peaks)}
                 for j, (d, s1) in enumerate(zip(smap.delta.tolist(), smap.s1[0].tolist()))]
        meta = {**asdict(rc.params), "experiment": "spectrum", "backend": "analytic"}
        reference_write_csv(tmp_path / "reference.csv",
                            ["gamma_tip", "delta", "s1", "is_peak"], cells, meta=meta)
        written = (tmp_path / "s1_cuts.csv").read_bytes()
        assert b",nan,0\n" in written and b",1\n" in written
        assert written == (tmp_path / "reference.csv").read_bytes()

    def test_spectrum_map(self, tmp_path, capsys):
        code, out, _ = run(capsys, "spectrum-map", "--gamma-tip-grid", "0:12:4",
                           "--delta-grid=-4:4:101", "--output-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "fig2c_map.csv").exists()
        assert (tmp_path / "fig2c_map_peaks.csv").exists()

    def test_spectrum_map_lindblad_honours_cutoff(self, tmp_path, capsys):
        for cutoff in ("3,3", "4,4"):
            code, _, _ = run(capsys, "spectrum-map", "--backend", "lindblad",
                             "--cutoff", cutoff, "--gamma-tip-grid", "0:4:2",
                             "--delta-grid=-1:1:3", "--set", "J=1.5",
                             "--output-dir", str(tmp_path / cutoff))
            assert code == 0
            side = json.loads((tmp_path / cutoff / "fig2c_map.provenance.json").read_text())
            assert side["cutoff"] == [int(c) for c in cutoff.split(",")]
            assert side["preset"] == "paper_fig2"
            assert side["overrides"] == {"J": 1.5}
        assert (tmp_path / "3,3" / "fig2c_map.csv").read_bytes() != \
            (tmp_path / "4,4" / "fig2c_map.csv").read_bytes()

    def test_eigen(self, tmp_path, capsys):
        code, _, _ = run(capsys, "eigen", "--gamma-tip-grid", "0:12:5",
                         "--output-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "figS3.csv").exists()
        assert (tmp_path / "figS4.csv").exists()

    def test_eigen_tables_follow_output(self, tmp_path, capsys):
        grid = ("eigen", "--gamma-tip-grid", "0:12:4")
        assert run(capsys, *grid, "--output-dir", str(tmp_path / "default"))[0] == 0
        out = tmp_path / "named"
        assert run(capsys, *grid, "--output", "a.csv", "--output-dir", str(out))[0] == 0
        assert run(capsys, *grid, "--set", "J=1.0", "--output", "b.csv",
                   "--output-dir", str(out))[0] == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "a.csv", "a.provenance.json", "a_figS4.csv", "a_figS4.provenance.json",
            "b.csv", "b.provenance.json", "b_figS4.csv", "b_figS4.provenance.json"]
        assert (out / "a_figS4.csv").read_bytes() != (out / "b_figS4.csv").read_bytes()
        for suffix in (".csv", ".provenance.json"):
            assert (out / f"a_figS4{suffix}").read_bytes() == \
                (tmp_path / "default" / f"figS4{suffix}").read_bytes()

    def test_lep(self, tmp_path, capsys):
        code, out, _ = run(capsys, "lep", "--grid", "15", "--output-dir", str(tmp_path))
        assert code == 0
        assert "gamma_tip=8.9" in out
        assert (tmp_path / "lep.csv").exists()

    def test_lep_window_clamped_at_zero(self, tmp_path, capsys):
        # the HEP (0.09) lies within gamma_1' of zero, so the default window
        # starts at gamma_tip = 0 instead of failing on a negative loss
        code, out, err = run(capsys, "lep", "--set", "J=0.01", "--set", "gamma_2=0.95",
                             "--output-dir", str(tmp_path))
        assert code == 0, err
        assert "gamma_tip=0.090000" in out
        side = json.loads((tmp_path / "lep.provenance.json").read_text())
        assert side["gamma_tip_grid"]["start"] == 0.0
        assert side["gamma_tip_grid"]["stop"] == pytest.approx(1.09, rel=1e-12)
        # at J = 0.01 the gap (1.1e-6) lies above its rounding floor (6e-10)
        assert side["gap"] >= lep_gap_floor(side)
        assert f" gap={side['gap']:.3e} " in out

    # command line and the files it writes (glob patterns), per case
    BLAS_CASES = {
        "lep": (("lep",), ("lep.csv", "lep.provenance.json")),
        "sweep-loss": (("sweep-loss", "--backend", "both", "--gamma-tip-grid", "0:12:9"),
                       ("fig2ab.csv", "fig2ab.provenance.json")),
        "spectrum-map": (("spectrum-map", "--gamma-tip-grid", "0:12:7", "--delta-grid=-4:4:41"),
                         ("fig2c_map.csv", "fig2c_map_peaks.csv", "fig2c_map.provenance.json")),
        "spectrum-lindblad": (("spectrum", "--backend", "lindblad", "--gamma-tip", "0.0",
                               "--gamma-tip", "8.9", "--delta-grid=-4:4:21"),
                              ("s1_cuts.csv", "s1_cuts.provenance.json")),
        "spectrum-map-lindblad": (("spectrum-map", "--backend", "lindblad",
                                   "--gamma-tip-grid", "0:12:3", "--delta-grid=-4:4:11"),
                                  ("fig2c_map.csv", "fig2c_map_peaks.csv")),
        "distribution": (("distribution", "--save-states"),
                         ("fig3b.csv", "fig3b.provenance.json", "steady_state_gt_*.json")),
    }

    @pytest.mark.parametrize("case", list(BLAS_CASES))
    def test_independent_of_blas_threads(self, tmp_path, case, bytecheck):
        # master-equation points are solved in one-BLAS-thread workers, so
        # the caller's thread count reaches no stream and no written file
        argv, patterns = self.BLAS_CASES[case]
        one, two = (bytecheck.run_command(SRC, argv, t, tmp_path / t) for t in bytecheck.THREADS)
        assert bytecheck.compare(one, two, []) == ([], [])
        for pattern in patterns:
            assert fnmatch.filter(one["files"], f"datasets/{pattern}"), pattern

    def test_bytes_across_blas_kernels(self, tmp_path, bytecheck):
        # OPENBLAS_CORETYPE=Prescott runs another CPU's BLAS kernels: only
        # what bytecheck's KERNEL_DECLARED declares may move. The native and
        # the Prescott side of each step run at once, which pays for the
        # two BLAS probes
        with ThreadPoolExecutor(2) as pool:
            native, prescott = pool.map(lambda k: bytecheck.blas_info(SRC, k), ("", "Prescott"))
            if "DYNAMIC_ARCH" not in native["config"].split():
                pytest.skip(f"numpy's BLAS ({native['name']}) is not a DYNAMIC_ARCH OpenBLAS")
            if prescott["core"] is not None and prescott["core"] == native["core"]:
                pytest.skip(f"OPENBLAS_CORETYPE=Prescott runs the native core {native['core']}")
            for cid, argv in (("sweep-loss-both", ("sweep-loss", "--backend", "both", "--cutoff",
                                                   "3,3", "--gamma-tip-grid=0:12:5")),
                              ("eigen", ("eigen",))):
                base, other = pool.map(lambda k: bytecheck.run_command(
                    SRC, argv, None, tmp_path / f"{cid}-{k}", k), ("", "Prescott"))
                assert base["exit code"] == 0 and base["files"], base["stderr"]
                diffs, _ = bytecheck.compare(base, other, bytecheck.kernel_allow(cid),
                                             stdout_bound=bytecheck.KERNEL_STDOUT.get(cid))
                assert diffs == [], cid

    def test_import_loads_no_scipy(self, bytecheck):
        # the library runs on numpy alone; scipy is a test oracle only
        probe = ("import json, sys, kerrdimer.cli; print(json.dumps(sorted(m for m in "
                 "sys.modules if m.split('.')[0] in ('scipy', 'kerrdimer'))))")
        res = subprocess.run([sys.executable, "-c", probe], env=bytecheck.environment(SRC, None),
                             check=True, capture_output=True, text=True, timeout=300)
        loaded = set(json.loads(res.stdout))
        assert "kerrdimer.liouvillian" in loaded
        assert not {m for m in loaded if m.split(".")[0] == "scipy"}

    def test_lep_and_a_generator_build_load_no_numpy_ma(self, tmp_path, bytecheck):
        # np.unique imports numpy.ma (about 10 ms a process); neither the
        # LEP search nor a generator pattern built afterwards may need it
        probe = ("import sys\n"
                 "from kerrdimer import cli, liouvillian\n"
                 "from kerrdimer.hilbert import build_basis\n"
                 "from kerrdimer.model import preset\n"
                 f"assert cli.main(['lep', '--output-dir', {str(tmp_path)!r}]) == 0\n"
                 "p, _ = preset('paper_fig2')\n"
                 "liouvillian.build_liouvillian(p, build_basis(per_mode=(3, 2)))\n"
                 "print('numpy.ma' in sys.modules)\n")
        res = subprocess.run([sys.executable, "-c", probe], env=bytecheck.environment(SRC, None),
                             check=True, capture_output=True, text=True, timeout=300)
        assert res.stdout.splitlines()[-1] == "False"
        assert (tmp_path / "lep.csv").exists()

    def test_runs_where_scipy_cannot_be_imported(self, tmp_path, bytecheck):
        # a package named scipy that raises on import, first on PYTHONPATH,
        # whose sys.path the sweep workers receive
        shim = tmp_path / "shim" / "scipy"
        shim.mkdir(parents=True)
        (shim / "__init__.py").write_text('raise ImportError("scipy is not installed")\n')
        env = bytecheck.environment(SRC, None)
        env["PYTHONPATH"] = os.pathsep.join([str(shim.parent), env["PYTHONPATH"]])
        blocked = subprocess.run([sys.executable, "-c", "import scipy"], env=env,
                                 capture_output=True, text=True, timeout=300)
        assert blocked.returncode != 0 and "scipy is not installed" in blocked.stderr
        for argv in (["validate"],
                     ["sweep-loss", "--backend", "lindblad", "--cutoff", "3,3",
                      "--gamma-tip-grid=0:12:5", "--output-dir", str(tmp_path / "out")]):
            res = subprocess.run([sys.executable, "-m", "kerrdimer.cli", *argv], env=env,
                                 capture_output=True, text=True, timeout=300)
            assert res.returncode == 0, res.stderr
        with open(tmp_path / "out" / "fig2ab.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert len(rows) == 5
        assert all(row["lindblad_failed"] == "0" for row in rows)

    def test_decoupled_lossless_sweep_has_no_invalid_arithmetic(self, tmp_path, capsys):
        # J = 0 with no loss at all: the closed-form one-photon eigenvectors
        # once divided a zero vector by its norm here. Every Lindblad point is
        # degenerate and listed; the parent process computes no NaN.
        with warnings.catch_warnings(), np.errstate(divide="raise", invalid="raise"):
            warnings.simplefilter("error")
            code, _, err = run(capsys, "sweep-loss", "--backend", "lindblad",
                               "--set", "chi=0", "--set", "J=0", "--set", "gamma_1=0",
                               "--set", "gamma_ex=0", "--set", "gamma_2=0",
                               "--protocol", "fixed:0", "--gamma-tip-grid", "0:2:3",
                               "--cutoff", "3,3", "--output-dir", str(tmp_path))
        assert code == 0
        assert "warning" not in err
        lines = err.splitlines()  # each point, solved again alone, keeps its own failure
        assert len(lines) == 3 and all("failed: DegenerateSteadyStateError" in l for l in lines)

    def test_lep_not_found_is_numerical_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "lep", "--range", "0.5:3.0", "--grid", "9",
                           "--output-dir", str(tmp_path))
        assert code == 1
        assert "numerical failure" in err

    # gamma_2 = 5 puts the HEP of J = 0.01 at gamma_tip = -3.96, so no
    # default LEP window reaches a physical loss
    UNREACHABLE_EP = ("--set", "J=0.01", "--set", "gamma_2=5")

    def test_unreachable_lep_is_numerical_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "lep", *self.UNREACHABLE_EP,
                           "--output-dir", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith("numerical failure: no physical EP")
        assert not (tmp_path / "out").exists()

    # no loss anywhere: gamma_1' + gamma_2' = 0 at gamma_tip = 0
    LOSSLESS = ("--set", "gamma_1=0", "--set", "gamma_ex=0", "--set", "gamma_2=0")

    @pytest.mark.parametrize("command", [("spectrum", "--gamma-tip", "0"),
                                         ("spectrum-map", "--gamma-tip-grid", "0:1:3",
                                          "--delta-grid=-1:1:5")])
    @pytest.mark.parametrize("backend", ["analytic", "lindblad"])
    def test_lossless_spectrum_is_config_error(self, tmp_path, capsys, monkeypatch,
                                               command, backend):
        from kerrdimer import observables

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(observables, "solve_points", no_pool)
        code, _, err = run(capsys, *command, *self.LOSSLESS, "--backend", backend,
                           "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert err.endswith("configuration error: no loss at gamma_tip=0.0: "
                            "S1 = N1 / n0 is undefined\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [("spectrum", "--gamma-tip", "0"),
                                         ("spectrum-map", "--gamma-tip-grid", "0:1:3",
                                          "--delta-grid=-1:1:5")])
    @pytest.mark.parametrize("backend", ["analytic", "lindblad"])
    @pytest.mark.parametrize("override, message", [
        ("omega_drive_amp=1e200", beyond("omega_drive_amp", "1e+200")),
        ("gamma_2=1e200", beyond("gamma_2", "1e+200")),
    ])
    def test_overflowing_normalization_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                       command, backend, override, message):
        # n0 = Omega^2 / (gamma_1' + gamma_2')^2: a square beyond the float range
        from kerrdimer import observables

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(observables, "solve_points", no_pool)
        code, _, err = run(capsys, *command, "--set", override, "--backend", backend,
                           "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert err == f"configuration error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (("sweep-loss", "--backend", "analytic", "--set", "J=1e200"), beyond("J", "1e+200")),
        (("sweep-loss", "--backend", "analytic", "--set", "gamma_1=1e200"),
         beyond("gamma_1", "1e+200")),
        (("sweep-loss", "--backend", "analytic", "--set", "gamma_2=1e200"),
         beyond("gamma_2", "1e+200")),
        (("critical-points", "--set", "J=1e200"), beyond("J", "1e+200")),
        (("eigen", "--set", "J=1e200"), beyond("J", "1e+200")),
        (("spectrum", "--set", "J=1e200"), beyond("J", "1e+200")),
        # the LEP window: the first grid point beyond the bound
        (("lep", "--range=0:1e308", "--grid", "5"), beyond("gamma_tip", "2.5e+307")),
        (("lep", "--range=0:1e160", "--grid", "5"), beyond("gamma_tip", "2.5e+159")),
        (("lep", "--range=0:5e154", "--grid", "5"), beyond("gamma_tip", "1.25e+154")),
    ], ids=["sweep-J", "sweep-gamma_1", "sweep-gamma_2", "critical-points-J", "eigen-J",
            "spectrum-J", "lep-1e308", "lep-1e160", "lep-5e154"])
    def test_overflowing_coupling_loss_or_window_is_config_error(self, tmp_path, capsys,
                                                                 monkeypatch, argv, message):
        # one line naming the input: no traceback and no numpy warning (each
        # warning is shown once per process, so the record starts empty)
        monkeypatch.setattr(warnings, "onceregistry", {})
        code, _, err = run(capsys, *argv, "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert err == f"configuration error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        # each of these ended in a traceback
        (("sweep-loss", "--backend", "analytic", "--set", "J=1e120"), beyond("J", "1e+120")),
        (("critical-points", "--set", "J=1e120"), beyond("J", "1e+120")),
        (("sweep-loss", "--backend", "lindblad", "--cutoff", "3,3", "--gamma-tip-grid=0:12:3",
          "--set", "J=1e120"), beyond("J", "1e+120")),
        (("validate", "--set", "gamma_1=1e100"), beyond("gamma_1", "1e+100")),
        # each of these wrote NaN or junk cells behind numpy warnings
        (("sweep-loss", "--backend", "analytic", "--set", "gamma_1=1e120"),
         beyond("gamma_1", "1e+120")),
        (("spectrum", "--set", "gamma_1=1e100", "--gamma-tip", "0"), beyond("gamma_1", "1e+100")),
        (("spectrum", "--delta-grid=-1e200:1e200:5", "--gamma-tip", "0"),
         beyond("delta", "-1e+200")),
        (("eigen", "--set", "J=1e120"), beyond("J", "1e+120")),
        # each of these said "gamma_tip_range must be increasing"
        (("lep", "--set", "J=1e120"), beyond("J", "1e+120")),
        (("ep-agreement", "--j-grid", "1e120"), beyond("J", "1e+120")),
        (("lep", "--range=-1:3"), "gamma_tip must be >= 0"),  # a window below zero loss
    ], ids=["sweep-J", "critical-points-J", "sweep-lindblad-J", "validate-gamma_1",
            "sweep-gamma_1", "spectrum-gamma_1", "spectrum-delta", "eigen-J", "lep-J",
            "ep-agreement-J", "lep-negative-window"])
    def test_number_beyond_the_range_is_one_config_error(self, tmp_path, capsys, monkeypatch,
                                                         argv, message):
        # SystemParams' bound, whether the number comes from --set or a grid
        monkeypatch.setattr(warnings, "onceregistry", {})
        code, _, err = run(capsys, *argv, "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert err == f"configuration error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [("lep", "--set", "J=1e20"),
                                      ("ep-agreement", "--j-grid", "1,1e20")],
                             ids=["lep", "ep-agreement"])
    def test_lep_window_that_rounds_to_one_float_is_config_error(self, tmp_path, capsys, argv):
        # HEP +- gamma_1' = 4e20 +- 1 are one float: the window has no width
        code, _, err = run(capsys, *argv, "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert err == ("configuration error: the LEP window, the HEP 4e+20 +- 1.0 "
                       "(1.0 gamma_1'), rounds to one float: it has no width\n")
        assert "increasing" not in err
        assert not (tmp_path / "out").exists()

    def test_drive_beyond_the_ladder_fails_the_analytic_rows(self, tmp_path, capsys,
                                                             monkeypatch):
        # at Omega = 1e20 gamma_1' N1 is about 4e119 and its cube, g3's
        # denominator, leaves the float range: every analytic row fails as
        # where N1 vanishes, so critical-points has no rows to bracket. Both
        # commands say how many rows failed and why; beyond that only the
        # strong-drive warning reaches stderr, no numpy warning
        monkeypatch.setattr(warnings, "onceregistry", {})
        strong = "warning: drive exceeds 0.1*gamma_1'; perturbative amplitudes degrade\n"
        code, _, err = run(capsys, "sweep-loss", "--backend", "analytic", "--set",
                           "omega_drive_amp=1e20", "--output-dir", str(tmp_path / "sweep"))
        failed = "121 of 121 analytic rows failed: N1 is beyond N1_CEILING (121)"
        assert (code, err) == (0, f"{strong}sweep-loss: {failed}\n")
        with open(tmp_path / "sweep" / "fig2ab.csv", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert len(rows) == 121
        for row in rows:
            assert row["analytic_failed"] == "1"
            assert {row[c] for c in row if c.startswith("analytic_") and c != "analytic_failed"} \
                == {""}
        monkeypatch.setattr(warnings, "onceregistry", {})
        code, _, err = run(capsys, "critical-points", "--set", "omega_drive_amp=1e20",
                           "--output-dir", str(tmp_path / "cp"))
        assert code == 2
        assert err == strong + ("configuration error: need at least 5 sweep rows with finite "
                                f"N1 and g2; {failed}\n")
        assert not (tmp_path / "cp").exists()

    @pytest.mark.parametrize("command", [("lep",), ("ep-agreement",), ("critical-points",)])
    def test_default_lep_window_without_gamma1_loss_is_config_error(self, tmp_path, capsys,
                                                                    command):
        # the default window is the HEP +- a multiple of gamma_1', empty here
        code, _, err = run(capsys, *command, "--set", "gamma_1=0", "--set", "gamma_ex=0",
                           "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert "configuration error: gamma_1' = 0: the LEP window" in err
        assert "increasing" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, code, says", [
        (("lep",), 1, "numerical failure: no physical EP"),
        (("ep-agreement", "--j-grid", "0.5,1"), 0, "0/2 LEPs located"),
        (("critical-points", "--gamma-tip-grid", "0:12:13"), 0, "lep=absent")],
        ids=["lep", "ep-agreement", "critical-points"])
    def test_unreachable_ep_without_gamma1_loss_is_reported_as_such(self, tmp_path, capsys,
                                                                    argv, code, says):
        # gamma_1' = 0 and HEP = 4J - gamma_2 < 0: no physical EP, whatever the window
        got, out, err = run(capsys, *argv, "--set", "gamma_1=0", "--set", "gamma_ex=0",
                            "--set", "gamma_2=10", "--output-dir", str(tmp_path))
        assert got == code, err
        assert says in out + err
        assert "width" not in err

    def test_ep_agreement_marks_an_unreachable_ep(self, tmp_path, capsys):
        code, out, err = run(capsys, "ep-agreement", *self.UNREACHABLE_EP,
                             "--j-grid", "0.01,2", "--output-dir", str(tmp_path))
        assert code == 0, err
        assert "1/2 LEPs located" in out
        with open(tmp_path / "fig1b_ep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["J"], r["found"]) for r in rows] == [("0.01", "0"), ("2.0", "1")]
        assert rows[0]["lep"] == ""
        assert float(rows[1]["lep"]) == pytest.approx(4.0, abs=1e-6)

    def test_critical_points_report_an_unreachable_lep_absent(self, tmp_path, capsys):
        code, out, err = run(capsys, "critical-points", *self.UNREACHABLE_EP,
                             "--gamma-tip-grid", "0:12:13", "--output-dir", str(tmp_path))
        assert code == 0, err
        assert "ep=-3.9600 lep=absent" in out
        payload = json.loads((tmp_path / "critical_points.json").read_text())
        assert payload["critical_points"]["lep"] is None

    @pytest.mark.parametrize("argv, code", [
        (("lep",), 1), (("ep-agreement", "--j-grid", "0.01,2"), 0), (("critical-points",), 0)],
        ids=["lep", "ep-agreement", "critical-points"])
    def test_unreachable_ep_leaves_stderr_clean(self, tmp_path, argv, code, bytecheck):
        # each command reports the missing EP itself; no Python warning,
        # with its source path (``<src>`` in run_command's streams), reaches stderr
        res = bytecheck.run_command(SRC, (*argv, *self.UNREACHABLE_EP), None, tmp_path / "run")
        stderr = res["stderr"].decode()
        assert res["exit code"] == code, stderr
        lines = stderr.splitlines()
        assert len(lines) == code, lines  # lep's one "numerical failure:" line
        assert all(line.startswith("numerical failure: no physical EP") for line in lines)
        assert "UserWarning" not in stderr and "<src>" not in stderr

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


class TestOutputDirectory:
    # the output directory is made when the first file is written, so a run
    # that writes nothing leaves none behind
    def test_configuration_error_leaves_no_directory(self, tmp_path, capsys):
        code, _, _ = run(capsys, "spectrum-map", "--gamma-tip-grid", "0:12:3",
                         "--delta-grid=0:inf:4", "--output-dir", str(tmp_path / "new" / "out"))
        assert code == 2
        assert not (tmp_path / "new").exists()

    def test_numerical_failure_leaves_no_directory(self, tmp_path, capsys):
        code, _, _ = run(capsys, "lep", "--range", "0:1",
                         "--output-dir", str(tmp_path / "lepfail" / "out"))
        assert code == 1
        assert not (tmp_path / "lepfail").exists()

    @pytest.mark.parametrize("argv", [
        ("sweep-loss", "--backend", "lindblad", "--cutoff", "2,2"),
        ("sweep-loss", "--gamma-tip-grid=12:0:5"),
    ], ids=["cutoff", "descending-grid"])
    def test_failed_sweep_leaves_no_directory(self, tmp_path, capsys, argv):
        code, _, err = run(capsys, *argv, "--output-dir", str(tmp_path / "sweep" / "out"))
        assert code == 2, err
        assert not (tmp_path / "sweep").exists()

    def test_validate_leaves_no_directory(self, tmp_path, capsys):
        code, _, _ = run(capsys, "validate", "--output-dir", str(tmp_path / "vdir"))
        assert code == 0
        assert not (tmp_path / "vdir").exists()


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


def difference_rounding(J, beta):
    """The rounding that cancellation leaves in J^2 - beta^2: dx = 8 eps (J^2 + beta^2)."""
    return 8 * np.finfo(float).eps * (J * J + beta * beta)


def sqrt_rounding(J, beta):
    """The rounding that cancellation leaves in sqrt(J^2 - beta^2): the
    difference holds dx (``difference_rounding``), so the root dx over its
    size, and sqrt(dx) at the EP."""
    dx = difference_rounding(J, beta)
    return dx / max(np.sqrt(abs(J * J - beta * beta)), np.sqrt(dx))


def lep_gap_floor(side):
    """The rounding floor sqrt(dx) of the gap at the LEP of a ``lep`` sidecar."""
    p = side["params"]
    beta = (p["gamma_2"] + side["lep"] - p["gamma_1"] - p["gamma_ex"]) / 4
    return np.sqrt(difference_rounding(p["J"], beta))


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


class TestSiUnits:
    SI = ("--units", "si", "--wavelength", "1.55e-6", "--q-intrinsic", "2e9",
          "--chi3", "2e-17", "--v-eff", "1e-16", "--p-in", "4e-15")

    @staticmethod
    def normalized(params):
        """The --set options of the normalized twin of SI ``params``: chi,
        Omega, J and the gammas divided by gamma_1'."""
        g1p = params["gamma_1"] + params["gamma_ex"]
        return [arg for k in ("chi", "omega_drive_amp", "J", "gamma_1", "gamma_ex", "gamma_2")
                for arg in ("--set", f"{k}={params[k] / g1p!r}")]

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

    @pytest.mark.parametrize("p_in, cap", [("4e-15", 7), ("4e-17", 5)])
    def test_lindblad_sweep_matches_its_normalized_twin(self, tmp_path, capsys, p_in, cap):
        # the same sweep with chi, Omega, J and the gammas divided by gamma_1'
        # (--set): the same certified cap, the Lindblad columns within 1e-12
        # relative, and the rate columns once divided by gamma_1'. At the
        # paper's drive the run needs the ceiling; 10 times weaker, cap 5
        si = (*self.SI[:-1], p_in)
        grid = ("--backend", "lindblad", "--gamma-tip-grid", "0:12:7")
        assert run(capsys, "sweep-loss", *si, *grid, "--output-dir", str(tmp_path / "si"))[0] == 0
        side = json.loads((tmp_path / "si" / "fig2ab.provenance.json").read_text())
        g1p = side["params"]["gamma_1"] + side["params"]["gamma_ex"]
        assert run(capsys, "sweep-loss", *grid, *self.normalized(side["params"]),
                   "--output-dir", str(tmp_path / "norm"))[0] == 0
        twin = json.loads((tmp_path / "norm" / "fig2ab.provenance.json").read_text())
        assert side["excitation_cap"] == twin["excitation_cap"] == cap
        tables = []
        for name in ("si", "norm"):
            with open(tmp_path / name / "fig2ab.csv", newline="") as fh:
                tables.append(list(csv.DictReader(fh)))
        for row, ref in zip(*tables):
            for name, value in ref.items():
                got = float(row[name]) / (1.0 if name.startswith("lindblad_") else g1p)
                assert got == pytest.approx(float(value), rel=1e-12, abs=1e-300), name

    TWINS = {"spectrum": ("spectrum", "--gamma-tip", "0", "--gamma-tip", "8.9"),
             "spectrum-map": ("spectrum-map", "--gamma-tip-grid=0:12:13", "--delta-grid=-4:4:101"),
             "eigen": ("eigen",), "lep": ("lep",), "ep-agreement": ("ep-agreement",),
             "critical-points": ("critical-points",), "distribution": ("distribution",)}
    RATES = {"gamma_tip", "delta", "peak_delta_1", "peak_delta_2", "J", "hep", "lep",
             "omega_plus", "omega_minus", "re_lambda", "im_lambda", "re_Lambda", "im_Lambda", "gap",
             "cp_c", "cp_q_down", "cp_q_up", "ep"}
    # the one-photon branches, whose rounding near the EP is sqrt(J^2 - beta^2)'s
    BRANCH = {"omega_plus", "omega_minus", "re_lambda", "im_lambda", "re_Lambda", "im_Lambda",
              "gap", "pop_01", "pop_10", "population", "overlap"}
    TEXT = {"branch", "m", "n", "n_excitation", "is_peak", "n_peaks", "found"}

    def assert_twin_cell(self, name, got, ref, g1p, row):
        """An SI dataset's cell against its normalized twin's, both as
        written; ``row`` holds the twin's parameters and row."""
        if name in self.TEXT or "" in (got, ref) or None in (got, ref):
            assert got == ref, name
            return
        got, ref = float(got) / (g1p if name in self.RATES else 1.0), float(ref)
        bound = 1e-12 * abs(ref)
        if name == "lep":  # searched to LEP_TOL gamma_1'
            bound = liouvillian.LEP_TOL
        elif name.startswith("cp_"):  # searched to REFINE_TOL gamma_1'
            bound = experiments.REFINE_TOL
        elif name == "rel_discrepancy":  # |hep - lep| / hep
            bound = liouvillian.LEP_TOL / float(row["hep"])
        elif name in self.BRANCH:
            J, gt = float(row["J"]), float(row["gamma_tip"])
            beta = (row["gamma_2"] + gt - row["gamma_1"] - row["gamma_ex"]) / 4
            bound += sqrt_rounding(J, beta) / (1.0 if name in self.RATES else J)
        assert abs(got - ref) <= bound, (name, got, ref)

    @pytest.mark.parametrize("case", list(TWINS))
    def test_dataset_matches_its_normalized_twin(self, tmp_path, capsys, case):
        argv = self.TWINS[case]
        assert run(capsys, *argv, *self.SI, "--output-dir", str(tmp_path / "si"))[0] == 0
        # a provenance sidecar, or critical-points' one file
        sidecar = next((tmp_path / "si").glob("*.json")).name
        side = json.loads((tmp_path / "si" / sidecar).read_text())
        g1p = side["params"]["gamma_1"] + side["params"]["gamma_ex"]
        assert run(capsys, *argv, *self.normalized(side["params"]),
                   "--output-dir", str(tmp_path / "norm"))[0] == 0
        twin = json.loads((tmp_path / "norm" / sidecar).read_text())
        names = sorted(p.name for p in (tmp_path / "si").glob("*.csv"))
        assert names == sorted(p.name for p in (tmp_path / "norm").glob("*.csv"))
        for name in names:
            tables = read_rows(tmp_path / "si" / name), read_rows(tmp_path / "norm" / name)
            assert len(tables[0]) == len(tables[1]) > 0
            for got, ref in zip(*tables):
                assert got.keys() == ref.keys()
                for col in ref:
                    self.assert_twin_cell(col, got[col], ref[col], g1p, {**twin["params"], **ref})
        if case == "lep":  # the searched LEP, and its gap and overlap
            for key in ("lep", "gap", "overlap"):
                self.assert_twin_cell(key, side[key], twin[key], g1p,
                                      {**twin["params"], "gamma_tip": twin["lep"]})
        if case == "critical-points":
            assert None not in twin["critical_points"].values()
            for key, ref in twin["critical_points"].items():
                self.assert_twin_cell(key, side["critical_points"][key], ref, g1p, twin["params"])

    @pytest.mark.parametrize("units", ["normalized", "si"])
    def test_lep_gap_below_its_rounding_floor(self, tmp_path, capsys, units):
        # at the preset's EP the gap is rounding (8.4e-8 gamma_1' normalized,
        # 8.9e-8 in SI), below the floor of 1.2e-7 gamma_1': stdout gives the
        # floor in the run's units, and the sidecar keeps the gap
        code, out, _ = run(capsys, "lep", *(self.SI if units == "si" else ()),
                           "--output-dir", str(tmp_path))
        assert code == 0
        side = json.loads((tmp_path / "lep.provenance.json").read_text())
        g1p = side["params"]["gamma_1"] + side["params"]["gamma_ex"]
        floor = lep_gap_floor(side)
        assert floor / g1p == pytest.approx(1.19e-7, rel=1e-2)
        assert isinstance(side["gap"], float) and 0.0 < side["gap"] < floor
        assert f" gap<{floor:.3e} (the rounding floor) " in out
        assert " gap=" not in out

    @pytest.mark.parametrize("flag, value, name, bound", [
        ("--q-intrinsic", "0", "q_intrinsic", "> 0"),
        ("--q-intrinsic", "inf", "q_intrinsic", "> 0"),
        ("--q-intrinsic", "-1", "q_intrinsic", "> 0"),
        ("--q-intrinsic", "nan", "q_intrinsic", "> 0"),
        ("--wavelength", "0", "wavelength", "> 0"),
        ("--wavelength", "inf", "wavelength", "> 0"),
        ("--v-eff", "inf", "v_eff", "> 0"),
        ("--v-eff", "0", "v_eff", "> 0"),
        ("--chi3", "-1", "chi3_over_eps_r2", ">= 0"),
        ("--p-in", "nan", "p_in", ">= 0")])
    def test_bad_si_input_config_error(self, tmp_path, capsys, flag, value, name, bound):
        # each input is checked before any rate is derived from it
        argv = list(self.SI)
        argv[argv.index(flag) + 1] = value
        code, out, err = run(capsys, "lep", *argv, "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert err == (f"configuration error: {name} must be finite and {bound}, "
                       f"got {float(value)!r}\n")
        assert out == ""
        assert not (tmp_path / "out").exists()

    def test_si_requires_all_inputs(self, tmp_path, capsys):
        code, _, err = run(capsys, "sweep-loss", "--units", "si",
                           "--wavelength", "1.55e-6", "--output-dir", str(tmp_path))
        assert code == 2
        assert "requires" in err

    def test_si_error_names_flags_the_parser_accepts(self, tmp_path, capsys):
        code, _, err = run(capsys, "sweep-loss", "--units", "si", "--output-dir", str(tmp_path))
        assert code == 2
        flags = re.findall(r"--[a-z0-9][a-z0-9-]*", err)
        assert flags == ["--units", "--wavelength", "--q-intrinsic", "--chi3", "--v-eff",
                         "--p-in"]
        for flag in flags:
            _parse_args(["sweep-loss", flag, "si" if flag == "--units" else "1"])

    @pytest.mark.parametrize("units", ["si", "normalized"])
    def test_strong_drive_warns_in_one_line(self, tmp_path, units, bytecheck):
        # the paper's SI drive is 0.113 gamma_1': one warning line, without
        # a source path, however often the library warns
        argv = self.SI if units == "si" else ()
        res = bytecheck.run_command(SRC, ("critical-points", *argv), None, tmp_path / "run")
        assert res["exit code"] == 0, res["stderr"]
        assert res["stderr"] == (b"warning: drive exceeds 0.1*gamma_1'; perturbative "
                                 b"amplitudes degrade\n" if units == "si" else b"")

    def test_default_lep_window_is_in_gamma1_prime(self, tmp_path, capsys):
        code, out, _ = run(capsys, "lep", *self.SI, "--output-dir", str(tmp_path))
        assert code == 0, out
        side = json.loads((tmp_path / "lep.provenance.json").read_text())
        g1p = side["params"]["gamma_1"] + side["params"]["gamma_ex"]
        hep = hep_location(side["params"]["J"], g1p, side["params"]["gamma_2"])
        with open(tmp_path / "lep.csv") as fh:
            gts = [float(r["gamma_tip"]) for r in csv.DictReader(fh)]
        assert min(gts) == pytest.approx(hep - g1p, rel=1e-12)
        assert max(gts) == pytest.approx(hep + g1p, rel=1e-12)
        assert side["lep"] == pytest.approx(10815805.7736, rel=1e-9)

    def test_si_lep_search_takes_the_normalized_iterations(self, tmp_path, capsys,
                                                           monkeypatch):
        # the golden-section tolerance scales with gamma_1' as the window
        # does, so rad/s rates need no more refinement steps
        iterations = []

        def counted(*args, **kwargs):
            res = golden_section_minimize(*args, **kwargs)
            iterations.append(res.iterations)
            return res

        monkeypatch.setattr(search, "golden_section_minimize", counted)
        for name, units in (("si", self.SI), ("normalized", ())):
            code, out, _ = run(capsys, "lep", *units, "--output-dir", str(tmp_path / name))
            assert code == 0, out
        assert iterations[0] == iterations[1] < MAX_ITER


class TestRunRecord:
    """One record describes every dataset: each sidecar and
    critical_points.json carry the run configuration, then the runner's keys."""

    COMMON = ("--set", "gamma_2=0.2", "--cutoff", "3,3")
    CASES = {
        "sweep-loss": ("sweep-loss", "--backend", "both", "--protocol", "fixed:-1.3",
                       "--gamma-tip-grid", "0:12:5"),
        "sweep-loss-fig3-twin": ("sweep-loss", "--preset", "paper_fig3", "--backend",
                                 "analytic", "--gamma-tip-grid", "0:12:5"),
        "sweep-loss-si": ("sweep-loss", *TestSiUnits.SI, "--backend", "analytic",
                          "--gamma-tip-grid", "0:12:5"),
        "critical-points": ("critical-points", "--backend", "analytic",
                            "--protocol", "fixed:-1.3", "--gamma-tip-grid", "0:12:9"),
        "spectrum": ("spectrum", "--backend", "lindblad", "--gamma-tip", "4.0",
                     "--delta-grid=-3:3:7"),
        "spectrum-map": ("spectrum-map", "--backend", "analytic", "--gamma-tip-grid", "0:4:2",
                         "--delta-grid=-1:1:3"),
        "eigen": ("eigen", "--backend", "analytic", "--gamma-tip-grid", "0:12:3"),
        "lep": ("lep", "--backend", "analytic", "--grid", "15"),
        "ep-agreement": ("ep-agreement", "--backend", "both", "--j-grid", "1.0,2.0"),
        "distribution": ("distribution", "--backend", "both", "--protocol", "fixed:-1.3",
                         "--gamma-tip", "6.0", "--save-states"),
        "validate": ("validate", "--backend", "both"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_every_record_carries_the_run_configuration(self, tmp_path, capsys, case):
        argv = self.CASES[case]
        runs = (tmp_path / "r1", tmp_path / "r2")
        for out in runs:
            assert run(capsys, *argv, *self.COMMON, "--output-dir", str(out))[0] == 0
        # a run that writes nothing (validate) makes no output directory
        names = sorted(p.name for p in runs[0].glob("*"))
        assert names == sorted(p.name for p in runs[1].glob("*"))
        for name in names:
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name

        records = [n for n in names
                   if n.endswith(".provenance.json") or n == "critical_points.json"]
        assert bool(records) == (case != "validate")  # validate writes no dataset
        preset_name = argv[argv.index("--preset") + 1] if "--preset" in argv else "paper_fig2"
        backend = argv[argv.index("--backend") + 1]
        protocol = "fixed(-1.3)" if "fixed:-1.3" in argv else "track_upper_branch"
        for name in records:
            side = json.loads((runs[0] / name).read_text())
            assert side["preset"] == preset_name
            assert side["overrides"] == {"gamma_2": 0.2}
            if "--units" in argv:
                assert side["params"]["unit_system"] == "si"
                assert side["params"]["gamma_2"] == 0.2
            else:
                assert side["params"] == asdict(preset(preset_name)[0].with_(gamma_2=0.2))
            assert side["backends"] == (["analytic", "lindblad"] if backend == "both"
                                        else [backend])
            assert side["cutoff"] == [3, 3]
            assert side["excitation_cap"] == 5  # max(3, 3) + 2
            assert side["code_version"] == kerrdimer.__version__
            assert side["experiment"]
            if "_fixed_delta" in name:  # the fig3 twin: its own protocol and a note
                assert side["protocol"].startswith("fixed(")
                assert side["note"] == "fixed-detuning companion sweep"
            else:
                assert side["protocol"] == protocol


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
        # the state files are the first the run writes: they make the directory
        code, _, _ = run(capsys, "distribution", "--gamma-tip", "6.0",
                         "--cutoff", "3,3", "--save-states",
                         "--output-dir", str(tmp_path / "states"))
        assert code == 0
        payload = json.loads((tmp_path / "states" / "steady_state_gt_6.0.json").read_text())
        assert payload["basis"][0] == [0, 0]
        assert payload["residual"] < 1e-10

    def test_saved_state_lists_the_capped_basis(self, tmp_path, capsys):
        # cutoff 3,3 with m + n <= 5: the 16 per-mode states less |3,3>
        code, _, _ = run(capsys, "distribution", "--gamma-tip", "6.0",
                         "--cutoff", "3,3", "--save-states", "--output-dir", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "steady_state_gt_6.0.json").read_text())
        states = [tuple(s) for s in payload["basis"]]
        assert len(states) == len(payload["data"]) == 15
        assert (3, 3) not in states and (3, 2) in states and (2, 3) in states
        side = json.loads((tmp_path / "fig3b.provenance.json").read_text())
        assert (side["cutoff"], side["excitation_cap"]) == ([3, 3], 5)

    def test_nearby_loss_points_keep_separate_state_files(self, tmp_path, capsys):
        code, _, _ = run(capsys, "distribution", "--gamma-tip", "6.0",
                         "--gamma-tip", "6.0000001", "--cutoff", "3,3", "--save-states",
                         "--output-dir", str(tmp_path))
        assert code == 0
        names = sorted(p.name for p in tmp_path.glob("steady_state_gt_*.json"))
        assert names == ["steady_state_gt_6.0.json", "steady_state_gt_6.0000001.json"]


class TestSiLindblad:
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


class TestBenchmarkContract:
    """Every benchmark workload command is accepted by the CLI as it stands,
    and its outputs pass the benchmark's own correctness gates."""

    @staticmethod
    def load(name, monkeypatch):
        """perfbench/<name>.py, read-only, registered under its bare name for
        the test's duration (gates.py imports workloads that way)."""
        path = ROOT / "perfbench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        return module

    def test_smoke_workloads_pass_gates(self, tmp_path, capsys, monkeypatch):
        workloads = self.load("workloads", monkeypatch)
        gates = self.load("gates", monkeypatch)
        for name in workloads.NAMES:
            spec = workloads.build(name, 0, str(tmp_path / name), smoke=True)
            (tmp_path / name).mkdir()
            codes = [main(argv) for argv in spec["commands"]]
            tally = gates.run(spec, codes, capsys.readouterr().out)
            assert tally.attempted > 0, name
            assert tally.failed == 0, (name, tally.failures)

    def test_lep_scan_evaluations(self, tmp_path, monkeypatch):
        # a seed-0 lep_scan makes 339 evaluations in 5 searches: 125 grid
        # points (41 for lep, 21 for each of ep-agreement's 4 couplings) and
        # 209 golden-section steps take the gap, 5 refined minima the pair;
        # so do lep.csv's 41 rows, which ep-agreement does not write
        workloads = self.load("workloads", monkeypatch)
        spec = workloads.build("lep_scan", 0, str(tmp_path))
        calls = {"evaluation": 0, "pair": 0, "search": 0, "step": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def refine(f, a, b, tol):
            calls["search"] += 1
            return golden_section_minimize(counted("step", f), a, b, tol=tol)

        monkeypatch.setattr(liouvillian, "_coherence_block",
                            counted("evaluation", liouvillian._coherence_block))
        monkeypatch.setattr(liouvillian, "_block_pair", counted("pair", liouvillian._block_pair))
        monkeypatch.setattr(search, "golden_section_minimize", refine)
        assert [main(argv) for argv in spec["commands"]] == [0, 0]
        assert calls == {"evaluation": 339, "pair": 46, "search": 5, "step": 209}

    def test_workload_commands_parse(self, tmp_path, monkeypatch):
        workloads = self.load("workloads", monkeypatch)
        checked = 0
        for name in workloads.NAMES:
            for seed in (0, 1):
                for smoke in (True, False):
                    spec = workloads.build(name, seed, str(tmp_path), smoke)
                    for argv in spec["commands"]:
                        try:
                            args = _parse_args(argv)
                        except SystemExit as exc:
                            pytest.fail(f"{name} seed {seed} smoke {smoke}: {argv} "
                                        f"exits with {exc.code}")
                        _build_config(args)
                        checked += 1
        assert checked >= len(workloads.NAMES) * 4


class TestBytecheck:
    """tools/bytecheck.py: its command list, and how it tells a declared
    difference from any other. The harness itself takes minutes."""

    def test_commands_name_every_subcommand(self, bytecheck):
        from kerrdimer.cli import SUBCOMMANDS

        ids = [cid for cid, _ in bytecheck.COMMANDS]
        assert len(ids) == len(set(ids))
        assert set(SUBCOMMANDS) <= {argv[0] for _, argv in bytecheck.COMMANDS if argv}
        # every command parses, except the parser's own paths, which exit
        for cid, argv in bytecheck.COMMANDS:
            if (cid, argv) in bytecheck.PARSER_COMMANDS:
                with pytest.raises(SystemExit):
                    _parse_args(list(argv))
            else:
                _parse_args(list(argv))

    def test_declared_differences(self, bytecheck):
        allow = [bytecheck.parse_allow("*.csv:lindblad_*=1e-12"),
                 bytecheck.parse_allow("*.json:excitation_cap")]
        csv_old = b"gamma_tip,analytic_n1,lindblad_n1\n0.0,1.5,2.0\n"
        within = b"gamma_tip,analytic_n1,lindblad_n1\n0.0,1.5,2.000000000001\n"
        beyond = b"gamma_tip,analytic_n1,lindblad_n1\n0.0,1.5,2.00000000001\n"
        other = b"gamma_tip,analytic_n1,lindblad_n1\n0.0,1.5000000000000002,2.0\n"
        json_old = json.dumps({"cutoff": [5, 5], "excitation_cap": 7}).encode()
        json_cap = json.dumps({"cutoff": [5, 5], "excitation_cap": 5}).encode()
        json_cutoff = json.dumps({"cutoff": [3, 3], "excitation_cap": 7}).encode()

        def outcome(files_old, files_new, streams=False, **changed):
            old = {"exit code": 0, "stdout": b"", "stderr": b"", "files": files_old}
            new = {**old, "files": files_new, **changed}
            diffs, declared = bytecheck.compare(old, new, allow, streams)
            return len(diffs), len(declared)

        assert outcome({"x.csv": csv_old}, {"x.csv": csv_old}) == (0, 0)
        assert outcome({"x.csv": csv_old}, {"x.csv": within}) == (0, 1)
        assert outcome({"x.csv": csv_old}, {"x.csv": beyond}) == (1, 0)
        assert outcome({"x.csv": csv_old}, {"x.csv": other}) == (1, 0)
        assert outcome({"x.csv": csv_old}, {}) == (1, 0)
        assert outcome({"x.provenance.json": json_old}, {"x.provenance.json": json_cap}) == (0, 1)
        assert outcome({"x.provenance.json": json_old},
                       {"x.provenance.json": json_cutoff}) == (1, 0)
        assert outcome({}, {}, stderr=b"changed") == (1, 0)
        assert outcome({}, {}, streams=True, stderr=b"changed", **{"exit code": 2}) == (0, 2)

    def test_kernel_declarations(self, bytecheck):
        # the kernel axis's declarations parse and each names some command;
        # every command on the Lindblad backend, whose numbers come from
        # master-equation solves, is declared; a saved state's numbers move
        # within the bound, keeping its shape
        ids = [cid for cid, _ in bytecheck.COMMANDS]
        for glob, spec in bytecheck.KERNEL_DECLARED:
            bytecheck.parse_allow(spec)
            assert any(fnmatch.fnmatch(cid, glob) for cid in ids), glob
        assert set(bytecheck.KERNEL_STDOUT) <= set(ids)
        lindblad = [cid for cid, argv in bytecheck.COMMANDS
                    if ("--backend", "lindblad") in zip(argv, argv[1:])]
        assert [cid for cid in lindblad if not bytecheck.kernel_allow(cid)] == []
        allow = bytecheck.kernel_allow("distribution")
        name = "steady_state_gt_6.0.json"

        def state(data, residual=1e-18, basis=((0, 0), (1, 0))):
            return json.dumps({"basis": basis, "data": data, "residual": residual}).encode()

        old = state([[[1.0, 0.0], [2e-3, -1e-20]]])
        within = state([[[1.0, 0.0], [2.000000000001e-3, -1.000000000001e-20]]], 3e-18)
        beyond = state([[[1.0, 0.0], [2.00000000001e-3, -1e-20]]])
        reshaped = state([[[1.0, 0.0]], [[2e-3, -1e-20]]])
        relabeled = state([[[1.0, 0.0], [2e-3, -1e-20]]], basis=((0, 0), (0, 1)))
        diffs, declared = bytecheck.compare_json(name, old, within, allow)
        assert diffs == [] and sorted(declared) == ["data", "residual"]
        assert declared["data"].startswith("within ")
        for new in (beyond, reshaped, relabeled):
            assert len(bytecheck.compare_json(name, old, new, allow)[0]) == 1

    def test_stdout_numbers_within_bound(self, bytecheck):
        # validate's reported deviations move in the rounding noise across
        # kernels: a number may move by the bound, no other byte
        old = {"exit code": 0, "stdout": b"dev: 9.195e-16)\nok 10/10\n", "stderr": b"",
               "files": {}}

        def outcome(stdout, bound=1e-12, **changed):
            new = {**old, "stdout": stdout, **changed}
            diffs, declared = bytecheck.compare(old, new, [], stdout_bound=bound)
            return len(diffs), len(declared)

        assert outcome(b"dev: 1.103e-15)\nok 10/10\n") == (0, 1)
        assert outcome(b"dev: 1.103e-15)\nok 10/10\n", bound=None) == (1, 0)
        assert outcome(b"dev: 2.000e-12)\nok 10/10\n") == (1, 0)
        assert outcome(b"dev: 1.103e-15)\nok  9/10\n") == (1, 0)
        assert outcome(b"dev: 9.195e-16)\nok 10/10\n", **{"exit code": 1}) == (1, 0)

    def test_kernels_need_a_dynamic_arch_openblas(self, bytecheck, tmp_path, capsys,
                                                  monkeypatch):
        # without a DYNAMIC_ARCH OpenBLAS OPENBLAS_CORETYPE selects nothing:
        # the kernel axis says so, runs no command and exits 0
        def blas_info(src, kernel=None):
            return {"name": "mkl", "config": "", "core": None}

        def no_run(*args, **kwargs):
            raise AssertionError("a command was run")

        monkeypatch.setattr(bytecheck, "blas_info", blas_info)
        monkeypatch.setattr(bytecheck, "run_command", no_run)
        assert bytecheck.check_kernels(None, ["Haswell"], tmp_path) == 0
        assert capsys.readouterr().out == (
            "bytecheck: numpy's BLAS (mkl) is not a DYNAMIC_ARCH OpenBLAS, so "
            "OPENBLAS_CORETYPE selects no kernel: nothing to compare\n")

    def test_declared_floor(self, bytecheck):
        # a population far below the floor moves by 1e-11 relative, 1.5e-31
        # absolute: within 1e-12 of the floor 1e-14 (1e-26 absolute), not of
        # its own size. A cell passes if any matching declaration admits it.
        old = b"gamma_tip,lindblad_n1,lindblad_p03\n0.0,2.0,1.5e-20\n"
        tiny = b"gamma_tip,lindblad_n1,lindblad_p03\n0.0,2.0,1.5000000000150e-20\n"
        large = b"gamma_tip,lindblad_n1,lindblad_p03\n0.0,2.00000000001,1.5e-20\n"
        plain = [bytecheck.parse_allow("*.csv:lindblad_*=1e-12")]
        floored = plain + [bytecheck.parse_allow("*.csv:lindblad_p*=1e-12,1e-14")]
        assert floored[1] == ("*.csv", "lindblad_p*", (1e-12, 1e-14))
        assert plain[0] == ("*.csv", "lindblad_*", (1e-12, 0.0))
        assert len(bytecheck.compare_csv("x.csv", old, tiny, plain)[0]) == 1
        diffs, declared = bytecheck.compare_csv("x.csv", old, tiny, floored)
        assert diffs == [] and declared["lindblad_p03"] == pytest.approx(1.5e-31 / 1e-14)
        # the floor does not widen a column above it
        assert len(bytecheck.compare_csv("x.csv", old, large, floored)[0]) == 1
        for spec in ("*.csv:lindblad_p*=1e-12,", "*.csv:lindblad_p*=,1e-14",
                     "*.csv:lindblad_p*=1e-12,x", "*.csv"):
            with pytest.raises(argparse.ArgumentTypeError):
                bytecheck.parse_allow(spec)
