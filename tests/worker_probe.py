"""A ``solve_points`` reduction that reports what its worker loaded.

It imports nothing beyond ``sys``, so that unpickling it in a worker adds
nothing to what the report sees.
"""

import sys

# modules that only the caller, or only the CLI, needs
NOT_IN_WORKER = ("kerrdimer.experiments", "kerrdimer.cli", "kerrdimer.validation",
                 "kerrdimer.analytic", "kerrdimer.spectral", "kerrdimer.search",
                 "subprocess", "selectors", "importlib.resources", "multiprocessing")


def worker_report(rho, reduce=None) -> dict:
    """Whether ``site`` ran in this worker, and which of ``NOT_IN_WORKER``
    it has imported, after ``reduce(rho)`` where given (a sweep's reduction,
    bound with ``functools.partial``, which the worker imports to unpickle)."""
    if reduce is not None:
        reduce(rho)
    return {"no_site": sys.flags.no_site,
            "loaded": [name for name in NOT_IN_WORKER if name in sys.modules]}
