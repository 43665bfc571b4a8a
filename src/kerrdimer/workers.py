"""The worker processes of ``liouvillian.solve_points``.

A worker is a plain interpreter on two pipes: no ``multiprocessing``, so
no resource tracker, and no import of the caller's ``__main__``, so no
entry-point guard in the caller. It runs without ``site`` and imports
numpy and the solver alone: only ``WorkerPool``, in the caller, imports
``subprocess`` and ``selectors``. Imported only where a call starts workers.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import sys

from .liouvillian import _solve_chunk

# set to 1 in the environment of the workers
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# a worker's program: the caller's sys.path from the first frame, then serve
_WORKER_MAIN = f"""\
import pickle, sys
stdin = sys.stdin.buffer
sys.path[:] = pickle.loads(stdin.read(int.from_bytes(stdin.read(8), "little")))
from {__name__} import serve
serve()
"""


def _write_frame(stream, data: bytes) -> None:
    """``data`` as one frame, its length in 8 little-endian bytes before it."""
    stream.write(len(data).to_bytes(8, "little"))
    stream.write(data)
    stream.flush()


def _read_frame(stream) -> bytes:
    """The next frame's bytes; EOFError where the stream ends before a whole frame."""
    head = stream.read(8)
    size = int.from_bytes(head, "little")
    data = stream.read(size) if len(head) == 8 else b""
    if len(head) < 8 or len(data) < size:
        raise EOFError
    return data


class WorkerPool:
    """``count`` worker processes, started at once.

    Each is ``sys.executable`` with this interpreter's flags and ``-S``, this
    process's environment with ``BLAS_THREAD_VARS`` at 1, and ``sys.path``
    in its first frame: without ``site``, that is its whole path. It
    answers each frame of ``_solve_chunk``'s arguments on its stdin with
    one frame on its stdout (``serve``). Leaving the
    ``with`` block closes both pipes of every worker and reaps it, killing
    it first where the block raised.
    """

    def __init__(self, count: int):
        import subprocess

        argv = [sys.executable, *subprocess._args_from_interpreter_flags(), "-S", "-c",
                _WORKER_MAIN]
        env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1")}
        self.procs = []
        try:
            for _ in range(count):
                self.procs.append(subprocess.Popen(argv, stdin=subprocess.PIPE,
                                                   stdout=subprocess.PIPE, env=env))
                self._send(self.procs[-1], pickle.dumps(sys.path))
        except BaseException:
            self._close(kill=True)
            raise

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._close(kill=exc_type is not None)

    def _close(self, kill: bool) -> None:
        for proc in self.procs:
            with contextlib.suppress(OSError):
                proc.stdin.close()  # a worker exits when its input ends
            if kill:
                proc.kill()
        for proc in self.procs:
            proc.stdout.close()
            proc.wait()

    def map(self, chunks, *args) -> list:
        """``_solve_chunk(chunk, *args)`` of each chunk, in input order; a
        worker takes the next chunk when it has answered its last."""
        import selectors

        results = [None] * len(chunks)
        tasks = iter(enumerate(chunks))
        running = {}  # worker -> index of the chunk it solves

        def give(proc) -> None:
            task = next(tasks, None)
            if task is not None:
                running[proc] = task[0]
                self._send(proc, pickle.dumps((task[1], *args)))

        with selectors.DefaultSelector() as ready:
            for proc in self.procs:
                ready.register(proc.stdout, selectors.EVENT_READ, proc)
                give(proc)
            while running:
                for key, _ in ready.select():
                    # an idle worker is ready only where it died: _receive raises
                    results[running.pop(key.data)] = self._receive(key.data)
                    give(key.data)
        return results

    @staticmethod
    def _send(proc, data: bytes) -> None:
        try:
            _write_frame(proc.stdin, data)
        except BrokenPipeError:
            raise _worker_died(proc) from None

    @staticmethod
    def _receive(proc):
        try:
            reply = pickle.loads(_read_frame(proc.stdout))
        except EOFError:
            raise _worker_died(proc) from None
        if reply[0]:
            return reply[1]
        raise reply[1] from RuntimeError(f"in a solve_points worker:\n{reply[2]}")


def _worker_died(proc) -> RuntimeError:
    status = proc.wait()
    how = f"was killed by signal {-status}" if status < 0 else f"exited with status {status}"
    return RuntimeError(f"a solve_points worker (pid {proc.pid}) {how}")


def serve() -> None:
    """A worker's loop: each frame of stdin holds ``_solve_chunk``'s
    arguments, answered by a frame of ``(True, result)``, or ``(False,
    exception, traceback)``, on the stdout it started with. Meanwhile file
    descriptor 1 is stderr, so that nothing printed reaches the frames.
    Exits without teardown when stdin ends; ignores SIGINT, since its
    parent ends it."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    while True:
        try:
            task = _read_frame(sys.stdin.buffer)
        except EOFError:
            sys.stdout.flush()
            os._exit(0)
        try:
            reply = (True, _solve_chunk(*pickle.loads(task)))
        except Exception as exc:
            import traceback

            reply = (False, exc, traceback.format_exc())
        _write_frame(replies, pickle.dumps(reply))
