import csv

import numpy as np
import pytest

from kerrdimer.experiments import format_value, sweep_loss
from kerrdimer.model import preset
from kerrdimer.search import golden_section_minimize
from kerrdimer.spectral import subspace_eigensystem_numeric


@pytest.fixture(scope="session")
def fig2():
    params, _ = preset("paper_fig2")
    return params


@pytest.fixture(scope="session")
def loss_sweep(fig2):
    """Shared dual-backend loss sweep over the figure range."""
    return sweep_loss(fig2, np.linspace(0.0, 12.0, 61))


def _reference_write_csv(path, columns, rows, meta=None):
    """The per-cell CSV writer: csv.writer fed ``format_value`` of every
    cell of every row dict. ``write_csv`` must write the same bytes."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if meta:
            for key in sorted(meta):
                fh.write(f"# {key} = {format_value(meta[key])}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([format_value(row.get(c)) for c in columns])


@pytest.fixture(scope="session")
def reference_write_csv():
    return _reference_write_csv


def _hep_locate_numeric(p, lo, hi, tol=1e-9):
    """The one-photon eigenvalue coalescence, located by minimizing the
    numeric eigenvalue gap over gamma_tip in [lo, hi]: an oracle for the
    closed-form ``hep_location``."""

    def gap(gt):
        eig = subspace_eigensystem_numeric(p.with_(gamma_tip=gt), 1)
        return abs(eig.eigenvalues[0] - eig.eigenvalues[1])

    return golden_section_minimize(gap, lo, hi, tol=tol).x


@pytest.fixture(scope="session")
def hep_locate_numeric():
    return _hep_locate_numeric
