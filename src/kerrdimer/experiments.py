"""Parameter sweeps, critical-point extraction, and figure-level datasets.

Every experiment produces a tidy row set; ``write_csv`` serializes it with
full double precision and ``write_provenance`` writes the JSON sidecar that
the caller assembles. A grid dataset is passed to ``write_csv`` as block
items, one per gamma_tip row, whose array cells stand for many CSV rows;
the bytes are those of one item per row. Re-running with the same
configuration reproduces byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .analytic import (
    N1_CEILING,
    amplitude_arrays,
    analytic_observables,
    shell_ratio,
    steady_amplitudes,
)
from .liouvillian import (
    DEFAULT_CUTOFF,
    LepNotFoundError,
    driven_basis,
    excitation_cap,
    lep_locate,
    solve_points,
    start_cap,
)
from .model import AMPLITUDE_STATES, UNDEFINED_N1_FLOOR, SystemParams
from .observables import _lindblad_columns, _spectra
from .search import bisect_root, golden_section_minimize
from .spectral import hep_location, one_photon_roots

__all__ = [
    "SweepTable",
    "CriticalPoints",
    "SpectrumMap",
    "parse_protocol",
    "protocol_tag",
    "resolve_delta",
    "loss_point",
    "lep_window",
    "sweep_loss",
    "critical_points",
    "spectrum_map",
    "ep_agreement",
    "format_value",
    "write_csv",
    "write_provenance",
    "companion_path",
]

BACKENDS = ("analytic", "lindblad")
REFINE_TOL = 1e-3  # gamma_tip critical points resolved to 1e-3 * gamma_1'
# why an analytic sweep row fails, in the order they are tested
ANALYTIC_FAILURE_CAUSES = ("the closed form is singular", "N1 vanishes",
                           "N1 is beyond N1_CEILING")
# ep_agreement searches each LEP on LEP_GRID points within LEP_HALFWIDTH
# gamma_1' of the HEP; the lep command takes the same window on its --grid
# points (default 41)
LEP_HALFWIDTH = 1.0
LEP_GRID = 21
# characters that can make csv.writer quote a cell (CR only on some Python
# versions); a cell holding one is quoted by csv.writer itself
_QUOTE_TRIGGERS = frozenset(',"\r\n')


def companion_path(path, suffix: str) -> str:
    """File next to a dataset: ``x.csv`` -> ``x<suffix>``; only a trailing
    ``.csv`` is dropped, so a companion never lands on the dataset itself."""
    s = str(path)
    return (s[:-4] if s.endswith(".csv") else s) + suffix


def parse_protocol(spec: str):
    """Protocol from ``track``, ``track_upper_branch``, ``fixed:V`` or the
    provenance tag ``fixed(V)``: ``"track_upper_branch"`` or ``("fixed", V)``."""
    if spec in ("track", "track_upper_branch"):
        return "track_upper_branch"
    value = (spec[6:] if spec.startswith("fixed:")
             else spec[6:-1] if spec.startswith("fixed(") and spec.endswith(")") else "")
    try:
        return ("fixed", float(value))
    except ValueError:
        raise ValueError(f"protocol must be 'track' or 'fixed:VALUE', got {spec!r}") from None


def protocol_tag(protocol) -> str:
    """Provenance tag of a protocol; ``parse_protocol`` reads it back."""
    if protocol == "track_upper_branch":
        return "track_upper_branch"
    return f"fixed({protocol[1]!r})"


def resolve_delta(p: SystemParams, protocol) -> float:
    """Drive detuning for one sweep point.

    ``track_upper_branch`` puts the drive on the upper one-photon branch:
    omega_l = Re lambda_1^+, i.e. delta = omega_c - Re lambda_1^+ (zero at
    and beyond the EP, where the branches coalesce at omega_c). A
    ``("fixed", value)`` protocol returns the value unchanged.
    """
    if protocol == "track_upper_branch":
        lam_plus = one_photon_roots(p)[0][0]
        return float(p.omega_c - lam_plus.real)
    if isinstance(protocol, (tuple, list)) and len(protocol) == 2 and protocol[0] == "fixed":
        return float(protocol[1])
    raise ValueError(f"unknown detuning protocol {protocol!r}")


def loss_point(p: SystemParams, gamma_tip: float, protocol="track_upper_branch") -> SystemParams:
    """Parameters at added loss ``gamma_tip``, detuned by the protocol."""
    pg = p.with_(gamma_tip=float(gamma_tip))
    return pg.with_(delta=resolve_delta(pg, protocol))


@dataclass
class SweepTable:
    """One row per sweep point under the detuning ``protocol``.

    ``excitation_cap`` is the cap that the Lindblad solves certified, or
    the cutoff's (``liouvillian.excitation_cap``) without them. ``failures``
    holds (gamma_tip, exception class, message) for each Lindblad point
    whose row was blanked, ``analytic_failures`` (gamma_tip, cause) for each
    row whose analytic cells were (``ANALYTIC_FAILURE_CAUSES``); neither is
    written to the dataset.
    """

    columns: list[str]
    rows: list[dict]
    protocol: object
    excitation_cap: int
    failures: list[tuple[float, str, str]] = field(default_factory=list)
    analytic_failures: list[tuple[float, str]] = field(default_factory=list)

    def analytic_summary(self) -> str:
        """'k of n analytic rows failed: cause (count), ...', or '' where none did."""
        if not self.analytic_failures:
            return ""
        counts = Counter(cause for _, cause in self.analytic_failures)
        causes = ", ".join(f"{cause} ({count})" for cause, count in counts.items())
        return f"{len(self.analytic_failures)} of {len(self.rows)} analytic rows failed: {causes}"


@dataclass(frozen=True)
class CriticalPoints:
    """Loss values of the intensity minimum, g2 = 1 crossings, and EPs."""

    cp_c: float | None = None
    cp_q_down: float | None = None
    cp_q_up: float | None = None
    ep: float | None = None
    lep: float | None = None


def _sweep_columns(backends) -> list[str]:
    cols = ["gamma_tip", "delta_used", "omega_plus", "omega_minus",
            "kappa_plus", "kappa_minus"]
    for bk in backends:
        cols += [f"{bk}_n1", f"{bk}_n2", f"{bk}_g2", f"{bk}_g3"]
        if bk == "analytic":
            cols.append("analytic_g2_approx")
        cols += [f"{bk}_p{m}{n}" for m, n in AMPLITUDE_STATES]
        cols.append(f"{bk}_failed")
    return cols


def lep_window(p: SystemParams, halfwidth: float) -> tuple[float, float]:
    """LEP search window: the HEP +- ``halfwidth`` gamma_1', clamped at 0.
    LepNotFoundError if no part of it lies above gamma_tip = 0; ValueError
    where it has no width: at gamma_1' = 0, or where its ends round to one float."""
    hep = hep_location(p.J, p.gamma1_prime, p.gamma_2)
    half = halfwidth * p.gamma1_prime
    if hep + half <= 0:
        raise LepNotFoundError(f"no physical EP: the HEP lies at gamma_tip = {hep!r}")
    lo, hi = max(hep - half, 0.0), hep + half
    if p.gamma1_prime == 0.0:
        raise ValueError(f"gamma_1' = 0: the LEP window, the HEP +- {halfwidth!r} gamma_1', "
                         "has no width")
    if not lo < hi:
        raise ValueError(f"the LEP window, the HEP {hep!r} +- {half!r} ({halfwidth!r} "
                         "gamma_1'), rounds to one float: it has no width")
    return lo, hi


def sweep_loss(p: SystemParams, gamma_tip_grid, protocol="track_upper_branch",
               backends=BACKENDS, cutoff=DEFAULT_CUTOFF) -> SweepTable:
    """Evaluate all observables over an ascending gamma_tip grid.

    The detuning is resolved per point by the protocol. Lindblad points are
    solved on ``liouvillian.driven_basis(cutoff)`` by
    ``liouvillian.solve_points``, at the excitation cap it certifies,
    starting from the cap that the closed-form shell ratio predicts
    (``liouvillian.start_cap``); a point it reports as failed blanks its
    row and is listed in ``failures``. A basis that lacks one of the
    reported populations (``AMPLITUDE_STATES``) or is over the size cap
    fails the whole sweep before any point is built.
    """
    gts = np.asarray(gamma_tip_grid, dtype=float)
    if gts.size == 0:
        raise ValueError("gamma_tip grid must be nonempty")
    if np.any(np.diff(gts) <= 0):
        raise ValueError("gamma_tip grid must be strictly ascending")
    for bk in backends:
        if bk not in BACKENDS:
            raise ValueError(f"unknown backend {bk!r}")
    if "lindblad" in backends:
        basis = driven_basis(cutoff)
        missing = [state for state in AMPLITUDE_STATES if state not in basis]
        if missing:
            raise ValueError(
                f"a Lindblad sweep needs a cutoff of at least "
                f"{max(map(max, AMPLITUDE_STATES))} per mode: cutoff {tuple(cutoff)} "
                f"lacks the reported populations {missing}")

    points = [loss_point(p, gt, protocol) for gt in gts]
    rows = []
    for gt, pg in zip(gts, points):
        lam = one_photon_roots(pg)[0]
        rows.append({
            "gamma_tip": float(gt),
            "delta_used": pg.delta,
            "omega_plus": float(lam[0].real),
            "omega_minus": float(lam[1].real),
            "kappa_plus": float(-2.0 * lam[0].imag),
            "kappa_minus": float(-2.0 * lam[1].imag),
        })
    failures = []
    cap = excitation_cap(cutoff)
    if "lindblad" in backends:
        ratio = shell_ratio(p, np.array([pg.delta for pg in points]), p.gamma_2 + gts)
        solved = solve_points(points, basis, _lindblad_columns, start_cap(ratio, cap))
        for row, (columns, failure) in zip(rows, solved.results):
            row.update(columns or {"lindblad_failed": 1})
            if failure:
                failures.append((row["gamma_tip"], *failure))
        cap = solved.cap
    analytic_failures = _fill_analytic(rows, p, gts) if "analytic" in backends else []
    return SweepTable(columns=_sweep_columns(backends), rows=rows, protocol=protocol,
                      excitation_cap=cap, failures=failures,
                      analytic_failures=analytic_failures)


def _fill_analytic(rows: list[dict], p: SystemParams, gts: np.ndarray) -> list:
    """Analytic columns of every sweep row from one closed-form evaluation;
    returns (gamma_tip, cause) of each failed row.

    A row whose closed form is singular, or whose N1 vanishes or exceeds
    ``N1_CEILING`` (where g2 and g3 are undefined, as
    ``analytic_observables`` raises for a scalar point), gets
    ``analytic_failed = 1`` and blank analytic cells; its cause is the
    first of ``ANALYTIC_FAILURE_CAUSES`` that holds.
    """
    deltas = np.array([row["delta_used"] for row in rows])
    amps, singular = amplitude_arrays(p, deltas, p.gamma_2 + gts)
    obs = analytic_observables(amps)
    causes = np.select([singular, obs.n1 < UNDEFINED_N1_FLOOR, ~(obs.n1 <= N1_CEILING)],
                       ANALYTIC_FAILURE_CAUSES, "")
    failed = causes != ""
    columns = {"analytic_n1": obs.n1, "analytic_n2": obs.n2, "analytic_g2": obs.g2,
               "analytic_g3": obs.g3, "analytic_g2_approx": obs.g2_approx}
    columns.update({f"analytic_p{m}{n}": pr for (m, n), pr in amps.populations().items()})
    columns = {k: np.broadcast_to(v, gts.shape) for k, v in columns.items()}
    for i, row in enumerate(rows):
        if not failed[i]:
            row.update({k: v[i] for k, v in columns.items()})
        row["analytic_failed"] = int(failed[i])
    return [(row["gamma_tip"], str(cause)) for row, cause in zip(rows, causes) if cause]


def critical_points(table: SweepTable, p: SystemParams) -> CriticalPoints:
    """Extract CP_c, CP_q(down/up), the Eq.-(3) EP and the located LEP.

    Brackets come from the (sorted) table's Lindblad columns if it has them,
    else its analytic ones; a row with a blank N1 or g2 cell (a failed
    point) is skipped. Each bracket is refined to ``REFINE_TOL`` gamma_1' on
    the analytic evaluator of ``p`` under the table's protocol. Missing sign
    changes leave the corresponding fields unset rather than fabricated.
    """
    backend = "lindblad" if "lindblad_n1" in table.columns else "analytic"
    rows = sorted(table.rows, key=lambda r: r["gamma_tip"])
    gts = np.array([r["gamma_tip"] for r in rows])
    n1 = np.array([r.get(f"{backend}_n1", np.nan) for r in rows], dtype=float)
    g2 = np.array([r.get(f"{backend}_g2", np.nan) for r in rows], dtype=float)
    finite = np.isfinite(n1) & np.isfinite(g2)
    gts, n1, g2 = gts[finite], n1[finite], g2[finite]
    if len(gts) < 5:
        failed = table.analytic_summary() if backend == "analytic" else ""
        raise ValueError("need at least 5 sweep rows with finite N1 and g2"
                         + (f"; {failed}" if failed else ""))

    obs = lambda gt: analytic_observables(steady_amplitudes(loss_point(p, gt, table.protocol)))
    tol = REFINE_TOL * p.gamma1_prime

    # classical critical point: discrete minimum + golden-section refinement
    cp_c = None
    imin = int(np.argmin(n1))
    if 0 < imin < len(gts) - 1:
        lo, hi = float(gts[imin - 1]), float(gts[imin + 1])
        cp_c = golden_section_minimize(lambda gt: obs(gt).n1, lo, hi, tol=tol).x

    # quantum critical points: bisection inside g2 - 1 sign-change brackets;
    # a grid point sitting exactly on the crossing is taken as-is
    sgn = np.sign(g2 - 1.0)
    crossings = [float(gts[i]) for i in np.where(sgn == 0.0)[0]]
    crossings += [bisect_root(lambda gt: obs(gt).g2 - 1.0, float(gts[i]),
                              float(gts[i + 1]), tol=tol).x
                  for i in np.where(sgn[:-1] * sgn[1:] < 0)[0]]
    crossings.sort()
    cp_q_down = crossings[0] if crossings else None
    cp_q_up = crossings[-1] if len(crossings) >= 2 else None

    ep = hep_location(p.J, p.gamma1_prime, p.gamma_2)
    try:
        lep = lep_locate(p, lep_window(p, 0.5), grid=LEP_GRID).gamma_tip
    except LepNotFoundError:
        lep = None

    return CriticalPoints(cp_c=cp_c, cp_q_down=cp_q_down, cp_q_up=cp_q_up,
                          ep=ep, lep=lep)


@dataclass
class SpectrumMap:
    """S1 over a (gamma_tip, delta) grid with per-row peak positions."""

    gamma_tip: np.ndarray
    delta: np.ndarray
    s1: np.ndarray  # shape (len(gamma_tip), len(delta))
    peak_rows: list[dict]
    peak_indices: list[tuple[int, ...]]  # per gamma_tip row


def spectrum_map(p: SystemParams, gamma_tip_grid, delta_grid,
                 backend: str = "analytic", cutoff=DEFAULT_CUTOFF) -> SpectrumMap:
    """Excitation-spectrum map with peak positions and branch overlay.

    ``cutoff`` is the per-mode Fock cutoff of the 'lindblad' backend, which
    solves every cell on ``liouvillian.driven_basis(cutoff)`` through
    ``liouvillian.solve_points``.
    """
    gts = np.asarray(gamma_tip_grid, dtype=float)
    deltas = np.asarray(delta_grid, dtype=float)
    if gts.size == 0 or deltas.size == 0:
        raise ValueError("grids must be nonempty")

    s1, specs = _spectra(p, gts, deltas, backend, cutoff)
    peak_rows = []
    for gt, spec in zip(gts, specs):
        lam = one_photon_roots(p.with_(gamma_tip=float(gt)))[0]
        peak_rows.append({
            "gamma_tip": float(gt),
            "n_peaks": spec.peak_count,
            "peak_delta_1": spec.peak_deltas[0] if spec.peak_count > 0 else None,
            "peak_delta_2": spec.peak_deltas[1] if spec.peak_count > 1 else None,
            "omega_plus": float(lam[0].real),
            "omega_minus": float(lam[1].real),
        })
    return SpectrumMap(gamma_tip=gts, delta=deltas, s1=s1, peak_rows=peak_rows,
                       peak_indices=[s.peak_indices for s in specs])


def ep_agreement(p: SystemParams, j_grid) -> list[dict]:
    """Hamiltonian vs Liouvillian EP location per coupling strength.

    Rows carry the closed-form HEP, the located LEP and their relative
    discrepancy; a failed LEP search marks the row instead of aborting.
    """
    js = np.asarray(j_grid, dtype=float)
    if np.any(np.diff(js) <= 0) or np.any(js <= 0):
        raise ValueError("J grid must be ascending and positive")
    rows = []
    for j in js:
        pj = p.with_(J=float(j))
        hep = hep_location(pj.J, pj.gamma1_prime, pj.gamma_2)
        row = {"J": float(j), "hep": hep, "lep": None, "rel_discrepancy": None,
               "found": 0}
        try:
            res = lep_locate(pj, lep_window(pj, LEP_HALFWIDTH), grid=LEP_GRID)
            row.update(lep=res.gamma_tip,
                       rel_discrepancy=abs(res.gamma_tip - hep) / hep, found=1)
        except LepNotFoundError:
            pass
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# dataset writers

def format_value(v) -> str:
    """Shortest round-trip text for a cell; None becomes the empty string."""
    if isinstance(v, float):  # np.float64 too; its repr would name the type
        return repr(float(v))
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, numbers.Integral):
        return str(int(v))
    if isinstance(v, numbers.Real):
        return repr(float(v))
    if isinstance(v, numbers.Complex):
        return repr(complex(v))
    return str(v)


def write_csv(path, columns, rows, meta: dict | None = None) -> None:
    """CSV with shortest round-trip float formatting; optional '#' metadata
    header lines carrying the full parameter set.

    Each item of ``rows`` maps column names to cells; a missing column is a
    blank cell. A cell is a scalar or a 1-D numpy array, and the array cells
    of one item have equal length: such a block item stands for one row per
    array element, its scalar cells repeated on each. An item without array
    cells is one row. Every cell reads as ``format_value`` writes it, a text
    cell quoted as csv's minimal quoting does, so a block item writes the
    same bytes as its rows one at a time.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if meta:
            for key in sorted(meta):
                fh.write(f"# {key} = {format_value(meta[key])}\n")
        fh.write(",".join(map(_cell_text, columns)) + "\n")
        previous = {}
        for item in rows:
            fh.write(_item_lines(columns, item, previous))


def _item_lines(columns, item: dict, previous: dict) -> str:
    """The CSV lines of one ``write_csv`` item, each ending in a newline.

    ``previous`` maps a column to the bytes and cell texts of its array cell
    in the last item that had one there, so an array that repeats from item
    to item (a grid's axis) is formatted once.
    """
    cells = [item.get(c) for c in columns]
    n = next((len(v) for v in cells if isinstance(v, np.ndarray)), None)
    if n is None:
        return ",".join(map(_cell_text, cells)) + "\n"
    texts = []
    for c, v in zip(columns, cells):
        if isinstance(v, np.ndarray):
            # equal bytes of one dtype are equal values, except where the
            # bytes are object pointers
            key = None if v.dtype.hasobject else (v.dtype.str, v.tobytes())
            if key is None or previous.get(c, (None,))[0] != key:
                previous[c] = (key, _array_texts(v))
            texts.append(previous[c][1])
        else:
            texts.append([_cell_text(v)] * n)
    return "\n".join(map(",".join, zip(*texts, strict=True))) + "\n" if n else ""


def _array_texts(values: np.ndarray) -> list[str]:
    """Cell texts of an array cell; a float64 element's text is its repr,
    as ``format_value`` gives it."""
    if values.dtype == float:
        return list(map(repr, values.tolist()))
    return list(map(_cell_text, values.tolist()))


def _cell_text(v) -> str:
    """``format_value(v)`` as csv.writer writes it under minimal quoting."""
    text = format_value(v)
    if _QUOTE_TRIGGERS.isdisjoint(text):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


def write_provenance(path, provenance: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(provenance, fh, indent=2, sort_keys=True)
        fh.write("\n")
