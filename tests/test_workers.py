"""The sweep workers' start, and the package's lazy exports."""

import functools
from importlib import import_module

import pytest

import kerrdimer
from kerrdimer import experiments, liouvillian, workers
from kerrdimer.model import SystemParams

from worker_probe import worker_report


def params(**kw) -> SystemParams:
    return SystemParams(**{**dict(chi=2.0, J=2.0, gamma_1=0.5, gamma_ex=0.5, gamma_2=0.1,
                                  gamma_tip=0.0, omega_drive_amp=0.01), **kw})


@pytest.mark.parametrize("reduce", [None, experiments._lindblad_columns])
def test_worker_runs_without_site_and_loads_only_the_solver(reduce):
    # the report comes from inside a real worker, after it unpickled its
    # task and ran the reduction the sweep passes to solve_points
    solved = liouvillian.solve_points([params(), params(gamma_tip=4.0)],
                                      liouvillian.driven_basis((3, 3)),
                                      functools.partial(worker_report, reduce=reduce))
    assert solved.results == [({"no_site": 1, "loaded": []}, None)] * 2


def test_empty_input_starts_no_worker(monkeypatch):
    def no_pool(count):
        raise AssertionError(f"a pool of {count} started for no points")

    monkeypatch.setattr(workers, "WorkerPool", no_pool)
    basis = liouvillian.driven_basis((3, 3))
    assert liouvillian.solve_points([], basis) == liouvillian.SolvedPoints([], 5)
    assert liouvillian.solve_points([], basis, worker_report, start_cap=3) == (
        liouvillian.SolvedPoints([], liouvillian.MIN_CAP))


def test_every_export_resolves():
    for module, names in kerrdimer._EXPORTS.items():
        for name in names:
            assert getattr(kerrdimer, name) is getattr(import_module(f"kerrdimer.{module}"), name)
    assert set(kerrdimer.__all__) <= set(dir(kerrdimer))
    namespace = {}
    exec("from kerrdimer import *", namespace)
    assert set(kerrdimer.__all__) <= set(namespace)
    assert len(set(kerrdimer.__all__)) == 30
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        kerrdimer.no_such_name
