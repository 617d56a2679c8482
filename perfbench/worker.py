"""The process that runs the program: one per benchmark run.

The benchmark process is the client. It sends one task at a time over a
pipe and waits for the result before it checks the output and sends the
next, so the loop stays closed and the checks, with their scipy oracles,
neither share this process's memory nor overlap its timed work. The peak
resident memory of this process is the program's.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import signal
import subprocess
import sys
from multiprocessing.connection import Connection
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


class ProgramMissing(Exception):
    """This checkout has no gkstates source to benchmark."""


class WorkerError(Exception):
    """The worker process died or stopped answering."""


def require_source() -> None:
    if not (SRC / "gkstates" / "cli.py").is_file():
        raise ProgramMissing(f"no gkstates source at {SRC}; run from the root of a source checkout")


def load_program():
    """Import gkstates from the checkout's ``src/`` and nowhere else."""
    require_source()
    sys.path.insert(0, str(SRC))
    import gkstates
    import gkstates.cli

    if Path(gkstates.__file__).resolve().parent != (SRC / "gkstates").resolve():
        raise ProgramMissing(f"imported gkstates from {gkstates.__file__}, not from {SRC}")
    return gkstates


def execute(gk, task, tracer=None, clock=perf_counter):
    """Run one task in the timed span, timed by ``clock``.

    Returns (seconds, output, failure, e_n calls): output is the captured
    stdout of a CLI task or the return value of a library call, failure is
    None or why the call did not complete.
    """
    failure = None
    output = None
    e_n_before = tracer.e_n_calls if tracer is not None else 0
    if task.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        start = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = gk.cli.main(list(task.argv))
        except (Exception, SystemExit) as exc:
            rc = None
            failure = f"raised {exc!r}"
        seconds = clock() - start
        output = out.getvalue()
        if failure is None and rc != 0:
            lines = err.getvalue().strip().splitlines()
            failure = f"exit {rc}: {lines[-1] if lines else ''}"
    else:
        start = clock()
        try:
            model = gk.QuasiHarmonic(upsilon=task.params["upsilon"])
            output = getattr(gk, task.call)(int(task.params["n"]), model)
        except Exception as exc:
            failure = f"raised {exc!r}"
        seconds = clock() - start
    e_n_calls = tracer.e_n_calls - e_n_before if tracer is not None else 0
    return seconds, output, failure, e_n_calls


def reference_kernel():
    """A fixed piece of work that does not use gkstates: a Python loop, float
    formatting and numpy element-wise maths, as in the program.

    It runs inside the program's process, between and during its calls, so
    it allocates nothing that outlives a call on the C heap: its arrays and
    list are made here, once, and numpy writes into them in place. (Fresh
    temporaries there raised the program's peak memory by up to 10 MB.)
    """
    import numpy as np

    x = np.linspace(0.0, 8.0, 4096)
    a, b = np.empty_like(x), np.empty_like(x)
    values = x[:1000].tolist()

    def kernel() -> float:
        start = perf_counter()
        s = 0.0
        for i in range(10000):
            s += i * 0.5
        for v in values:
            "%.17g" % v
        for _ in range(10):
            np.multiply(x, -0.3, out=a)
            np.exp(a, out=a)
            np.cos(x, out=b)
            np.multiply(a, b, out=a)
            a.sum()
        return perf_counter() - start

    return kernel


class SpeedProbe:
    """How fast the host runs while a task runs.

    The speed of a small shared host changes by a third within a second, in
    the same way for the program and for any other work. The probe times
    ``reference_kernel`` just before and just after a task and, from a
    SIGALRM handler, every INTERVAL seconds while it runs; ``kernel_s`` is
    the mean of those timings. ``clock`` is ``perf_counter`` less the time
    spent in the handler, so the task's own timing leaves the probe out.
    """

    INTERVAL = 0.05

    def __init__(self):
        self.kernel = reference_kernel()
        self.spent = 0.0
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(self.kernel())
        self.spent += perf_counter() - start

    def clock(self) -> float:
        return perf_counter() - self.spent

    def __enter__(self) -> "SpeedProbe":
        self.samples = [self.kernel()]
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.samples.append(self.kernel())

    @property
    def kernel_s(self) -> float:
        return sum(self.samples) / len(self.samples)


def serve(requests, replies) -> None:
    """Answer requests until told to stop; every request gets one reply."""
    from tracing import Tracer, wrapped_attributes

    gk = load_program()
    probe = SpeedProbe()
    tracer = Tracer(clock=probe.clock)
    tracing = False
    task_id = 0
    while True:
        op, *args = requests.recv()
        if op == "run":
            tracer.task = task_id
            with probe:
                result = execute(gk, args[0], tracer if tracing else None, probe.clock)
            replies.send((task_id,) + result + (probe.kernel_s,))
            task_id += 1
        elif op == "trace":
            if args[0]:
                tracer.install()
            else:
                tracer.uninstall()
            tracing = bool(args[0])
            replies.send(wrapped_attributes())
        elif op == "layer_metrics":
            replies.send(tracer.layer_metrics(args[0]))
        elif op == "self_sum_gap":
            replies.send(max(tracer.task_gaps().values(), default=0.0))
        elif op == "write_spans":
            tracer.write(*args)
            replies.send(len(tracer.spans))
        elif op == "peak_rss_mb":
            replies.send(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        elif op == "stop":
            replies.send(None)
            return


class Worker:
    """Client side of a worker process; use as a context manager.

    The worker is this file run as a script in a fresh interpreter, talking
    over two pipes; a plain subprocess leaves no helper process behind.
    """

    def __init__(self):
        to_child, from_parent = os.pipe()
        to_parent, from_child = os.pipe()
        self._proc = subprocess.Popen(
            [sys.executable, __file__, str(to_child), str(from_child)],
            pass_fds=(to_child, from_child), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        os.close(to_child)
        os.close(from_child)
        self._send = Connection(from_parent, readable=False)
        self._recv = Connection(to_parent, writable=False)

    def call(self, op: str, *args):
        try:
            self._send.send((op,) + args)
            if not self._recv.poll(150):
                raise WorkerError(f"worker gave no reply to {op!r} within 150 s")
            return self._recv.recv()
        except (EOFError, OSError) as exc:
            raise WorkerError(f"worker process ended during {op!r} (its traceback is above)") from exc

    def close(self) -> None:
        try:
            if self._proc.poll() is None:
                self.call("stop")
        except WorkerError:
            pass
        finally:
            self._send.close()
            self._recv.close()
            try:
                self._proc.wait(30)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    _requests = Connection(int(sys.argv[1]), writable=False)
    _replies = Connection(int(sys.argv[2]), readable=False)
    serve(_requests, _replies)
