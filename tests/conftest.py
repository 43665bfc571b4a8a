import csv

import numpy as np
import pytest

from kerrdimer.experiments import format_value, sweep_loss
from kerrdimer.model import preset


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
