"""The package as installed: built offline by setuptools' ``build_py`` from a
copy of the checkout (it writes an egg-info into the tree it builds), then run
by ``python -I`` from a site directory, or through a ``.pth`` file in one."""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import kerrdimer

CHECKOUT = Path(__file__).resolve().parents[1]
CLI = "from kerrdimer.cli import main; sys.exit(main())"
# certified at cap 4, the lowest, so solved at cap 3
WEAK_SWEEP = ("sweep-loss", "--backend", "lindblad", "--set", "omega_drive_amp=0.0003",
              "--gamma-tip-grid=0:12:13", "--output-dir", "sweep")
# what a worker's sys.path holds, and where it imported the solver from
PROBE = ("sys.path.append(sys.argv[1]); from worker_probe import worker_origin; "
         "from kerrdimer.liouvillian import driven_basis, solve_points; "
         "from kerrdimer.model import preset; print(json.dumps(solve_points("
         "[preset('paper_fig2')[0]], driven_basis((3, 3)), worker_origin).results[0][0]))")


def python(site_dir, code, *args, cwd):
    """The stdout of ``code`` run by ``python -I -B`` in ``cwd``, with ``args`` as sys.argv[1:],
    once ``site.addsitedir(site_dir)`` has run; it must exit 0 with nothing on stderr."""
    cwd.mkdir(exist_ok=True)
    res = subprocess.run([sys.executable, "-I", "-B", "-c", "import json, runpy, site, sys; "
                          f"site.addsitedir({str(site_dir)!r}); {code}", *args],
                         cwd=cwd, capture_output=True, text=True, timeout=300)
    assert (res.returncode, res.stderr) == (0, ""), res.stderr
    return res.stdout


def test_built_package_runs_as_installed(tmp_path):
    # site-packages precede the built tree, so an installed kerrdimer would shadow it
    found = python(tmp_path, "import importlib.util as u; print(u.find_spec('kerrdimer'))",
                   cwd=tmp_path)
    if found != "None\n":
        pytest.skip(f"kerrdimer is installed in this interpreter: {found.strip()}")
    tree, lib, editable = tmp_path / "checkout", tmp_path / "lib", tmp_path / "editable"
    shutil.copytree(CHECKOUT / "src", tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(CHECKOUT / "pyproject.toml", tree)
    subprocess.run([sys.executable, "-I", "-B", "-c", "import setuptools; setuptools.setup()",
                    "build_py", "--build-lib", str(lib)],
                   cwd=tree, check=True, capture_output=True, timeout=300)
    editable.mkdir()
    (editable / "kerrdimer.pth").write_text(f"{lib}\n")
    for site_dir in (editable, lib):
        out = tmp_path / f"{site_dir.name}-run"
        run = functools.partial(python, site_dir, cwd=out)
        run(CLI, *WEAK_SWEEP)
        assert json.loads((out / "sweep/fig2ab.provenance.json").read_text())["excitation_cap"] == 4
        # the workers start without site and take the caller's sys.path whole
        path, solver = json.loads(run(PROBE, str(CHECKOUT / "tests")))
        assert Path(solver) == lib / "kerrdimer" / "liouvillian.py"
        assert not [p for p in path if Path(p).resolve().is_relative_to(CHECKOUT / "src")]
    assert (tmp_path / "editable-run/sweep/fig2ab.csv").read_bytes() == \
        (out / "sweep/fig2ab.csv").read_bytes()
    # the rest in the installed layout, the loop's last
    assert run(CLI, "--version") == f"{kerrdimer.__version__}\n"
    run(CLI, "critical-points", "--preset", "paper_fig3", "--output-dir", "cp")  # package data
    run(CLI, "distribution", "--save-states", "--output-dir", "states")
    assert sorted(p.name for p in out.glob("states/steady_state_gt_*")) == [
        "steady_state_gt_6.0.json", "steady_state_gt_8.9.json"]
    assert run("runpy.run_path(sys.argv[1], run_name='__main__')",
               str(CHECKOUT / "tests" / "unguarded_sweep.py")) == "unguarded sweep: 2 rows solved\n"
