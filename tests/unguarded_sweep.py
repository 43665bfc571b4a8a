"""A script without an ``if __name__ == "__main__":`` guard that runs a
Lindblad sweep, then a solve whose workers fail, and checks that neither
left a child process or imported multiprocessing or concurrent.futures.

Run with kerrdimer importable (PYTHONPATH=src, or an installed package):
    python tests/unguarded_sweep.py
It prints one line and exits 0 when every check holds.
"""

import sys
from pathlib import Path

from kerrdimer.experiments import sweep_loss
from kerrdimer.liouvillian import driven_basis, solve_points
from kerrdimer.model import SystemParams


def child_pids() -> list:
    return [pid for path in Path("/proc/self/task").glob("*/children")
            for pid in path.read_text().split()]


p = SystemParams(chi=2.0, J=2.0, gamma_1=0.5, gamma_ex=0.5, gamma_2=0.1,
                 gamma_tip=0.0, omega_drive_amp=0.01)
table = sweep_loss(p, [0.0, 4.0], backends=("lindblad",), cutoff=(3, 3))
solved = sum(1 - row["lindblad_failed"] for row in table.rows)
assert not child_pids(), child_pids()
# int() of a steady state raises TypeError in the workers, which reaches here
try:
    solve_points([p, p.with_(gamma_tip=4.0)], driven_basis((3, 3)), int)
except TypeError:
    pass
else:
    sys.exit("a worker's TypeError did not reach the caller")
assert not child_pids(), child_pids()
loaded = [name for name in ("multiprocessing", "concurrent.futures") if name in sys.modules]
assert not loaded, loaded
print(f"unguarded sweep: {solved} rows solved")
