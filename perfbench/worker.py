"""One workload run in a fresh process: set up, run the CLI, check the outputs.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

The parent writes SPEC.json (see workloads.build) and reads RESULT.json.
The process marks the moment the CLI is ready (``kerrdimer.cli`` imported
and the preset loaded) on the system-wide monotonic clock, so the parent can
subtract its own spawn time. Only the CLI calls are timed; the gates run
afterwards and their cost is not part of the workload.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(spec_path: str, result_path: str) -> None:
    import kerrdimer.cli
    from kerrdimer.model import preset

    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    preset(spec["preset"])
    result = {"ready": time.monotonic()}

    if spec.get("mode") != "setup":
        import gates
        from tracer import Tracer

        tracer = Tracer() if spec.get("trace") else None
        if tracer:
            tracer.install()
        stdout = io.StringIO()
        codes = []
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            for argv in spec["commands"]:
                codes.append(kerrdimer.cli.main(argv))
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.uninstall()
            result["trace"] = tracer.dump()
        tally = gates.run(spec, codes, stdout.getvalue())
        result.update(codes=codes, attempted=tally.attempted, failed=tally.failed,
                      failures=tally.failures, env=environment())
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
