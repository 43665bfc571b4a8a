import csv
from dataclasses import dataclass

import numpy as np
import pytest

from kerrdimer.experiments import format_value, sweep_loss
from kerrdimer.model import preset
from kerrdimer.search import golden_section_minimize
from kerrdimer.spectral import (
    DEGENERACY_TOL,
    SubspaceEigensystem,
    _dense_block_eig,
    _n_block_states,
    _two_photon_closed_roots,
    subspace_eigensystem_numeric,
)


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


@dataclass
class TwoPhotonClosed(SubspaceEigensystem):
    """A two-photon eigensystem, flagged where the closed form fell back to
    the dense eigensolver."""

    used_fallback: bool = False


def _coalesced(lam, scale):
    """Whether two eigenvalues of ``lam`` lie within ``DEGENERACY_TOL * scale``."""
    dists = [abs(a - b) for i, a in enumerate(lam) for b in lam[i + 1:]]
    return bool(dists) and min(dists) < DEGENERACY_TOL * scale


def _two_photon_eigensystem_closed(p):
    """Closed-form eigenpairs of the two-photon block (cubic roots): an
    oracle for the dense block eigensolver (acceptance criterion 9).

    Falls back to the dense 3x3 eigensolver (flagged) when the cubic-root
    intermediate or an eigenvector amplitude is too small for the closed
    expressions to be reliable.
    """
    closed = _two_photon_closed_roots(p)
    fallback = closed is None
    if not fallback:
        lam, (A, C), scale = closed
        # eigenvector (C02, C11, C20) ~ (sqrt2*J*(A-l), -(C-l)*(A-l), sqrt2*J*(C-l))
        sq2J = np.sqrt(2) * p.J
        vecs = np.empty((3, 3), dtype=complex)
        for k, l in enumerate(lam):
            v = np.array([sq2J * (A - l), -(C - l) * (A - l), sq2J * (C - l)])
            nrm = np.linalg.norm(v)
            if nrm < 1e-12 * scale**2:
                fallback = True
                break
            vecs[:, k] = v / nrm

    if fallback:
        lam_n, vecs, states = _dense_block_eig(p, 2)
        order = np.lexsort((lam_n.imag, lam_n.real))
        lam, vecs = lam_n[order], vecs[:, order]
        labels = ("b0", "b1", "b2")
    else:
        labels = ("0", "+", "-")
        states = _n_block_states(2)

    return TwoPhotonClosed(
        eigenvalues=lam,
        eigenvectors=vecs,
        labels=labels,
        basis_states=states,
        degenerate=_coalesced(lam, max(np.max(np.abs(lam)), 1e-300)),
        used_fallback=fallback,
    )


@pytest.fixture(scope="session")
def two_photon_eigensystem_closed():
    return _two_photon_eigensystem_closed
