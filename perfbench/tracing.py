"""Spans around the public functions of each gkstates module, from outside.

``Tracer.install`` replaces every public function of the layers below with a
wrapper, in every gkstates module that binds it: modules import with
``from .x import y``, so ``gkstates.cli.solve_j`` and ``gkstates.stats.build_state``
are separate bindings of the same function and each must be wrapped, or calls
through them would go untraced. ``SpectrumModel.e_n`` is called about 10^5
times per wide solve, so it is counted, not spanned. ``uninstall`` puts every
original back.

Spans are kept in memory as lists ``[id, parent, task, name, start, end,
error, size]``. ``error`` is "origin" for the innermost span an exception left
and "propagated" for the spans it then passed through. ``size`` is the work
count of the call where one is defined (see ``_SIZES``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("spectrum", "specfun", "coherent", "stats", "dynamics", "wavefunctions", "cli")

# Work counts taken from a call's arguments and result.
_SIZES = {
    "coherent.build_state": lambda args, kw, res: res.truncation_n,
    "dynamics.autocorrelation": lambda args, kw, res: len(res.times) * args[0].truncation_n,
    "dynamics.detect_revivals": lambda args, kw, res: len(res),
    "wavefunctions.coherent_density": lambda args, kw, res: args[0].truncation_n,
    "wavefunctions.residual_grid": lambda args, kw, res: len(res.points),
    "cli.main": lambda args, kw, res: res,
}


def public_functions(module) -> dict[str, object]:
    """Functions defined in ``module`` whose names do not start with '_'."""
    return {name: fn for name, fn in vars(module).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and fn.__module__ == module.__name__}


class Tracer:
    """Spans of the wrapped functions, timed by ``clock``."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.task: int | None = None
        self.e_n_calls = 0
        self._stack: list[int] = []
        self._last_exc: BaseException | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"gkstates.{layer}")
            for fn in public_functions(module).values():
                wrappers[id(fn)] = self._wrap(f"{layer}.{fn.__name__}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gkstates" and not mod_name.startswith("gkstates."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        model_cls = importlib.import_module("gkstates.spectrum").SpectrumModel
        original = model_cls.__dict__["e_n"]

        def e_n(model, n):
            self.e_n_calls += 1
            return original(model, n)

        e_n._perfbench_wrapper = True
        self._patched.append((model_cls, "e_n", original))
        model_cls.e_n = e_n

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn):
        size_of = _SIZES.get(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, self.task, name,
                   clock(), 0.0, None, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = clock()
                rec[6] = "propagated" if exc is self._last_exc else "origin"
                self._last_exc = exc
                raise
            else:
                rec[5] = clock()
            finally:
                stack.pop()
            if size_of is not None:
                rec[7] = size_of(args, kwargs, result)
            return result

        wrapper._perfbench_wrapper = True
        return wrapper

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [rec[5] - rec[4] for rec in self.spans]
        for rec in self.spans:
            if rec[1] is not None:
                own[rec[1]] -= rec[5] - rec[4]
        return own

    def task_gaps(self) -> dict[int, float]:
        """Per task: |sum of root durations - sum of all self times| in seconds."""
        roots: dict[int, float] = defaultdict(float)
        selfs: dict[int, float] = defaultdict(float)
        for rec, own in zip(self.spans, self.self_times()):
            selfs[rec[2]] += own
            if rec[1] is None:
                roots[rec[2]] += rec[5] - rec[4]
        return {task: abs(roots[task] - selfs[task]) for task in roots}

    def layer_metrics(self, tasks: list[int]) -> dict[str, float]:
        """Totals over ``tasks``: calls, self ms and sizes per function,
        self ms and errors per layer, and the two nested counts below."""
        wanted = set(tasks)
        names = {rec[0]: rec[3] for rec in self.spans}
        out: dict[str, float] = defaultdict(float)
        origins: set[int] = set()
        mains = []
        for rec, own in zip(self.spans, self.self_times()):
            if rec[2] not in wanted:
                continue
            name, parent = rec[3], names.get(rec[1])
            layer = name.split(".", 1)[0]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_ms"] += own * 1e3
            out[f"{layer}.self_ms"] += own * 1e3
            if rec[6] == "origin":
                out[f"{layer}.errors"] += 1
                origins.add(rec[2])
            if name == "cli.main":
                mains.append(rec)
            elif rec[7] is not None:
                out[f"{name}.size"] += rec[7]
            # the solver's iterations, and the residual's grid points
            if name == "stats.distribution" and parent == "stats.solve_j":
                out["stats.solve_j.distribution_calls"] += 1
            if name == "wavefunctions.residual_grid" and parent == "wavefunctions.hamiltonian_residual":
                out["wavefunctions.hamiltonian_residual.size"] += rec[7]
        # A failed main() with no library exception under it failed in cli itself.
        for rec in mains:
            if (rec[6] is not None or rec[7] != 0) and rec[2] not in origins:
                out["cli.errors"] += 1
        return dict(out)

    def write(self, path, meta: dict) -> None:
        """Write the spans as JSON lines, after one line of run metadata."""
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for rec, s in zip(self.spans, own):
                sid, parent, task, name, start, end, err, size = rec
                fh.write(json.dumps({"id": sid, "parent": parent, "task": task, "name": name,
                                     "start": start, "end": end, "self": s, "error": err,
                                     "size": size}) + "\n")


def wrapped_attributes() -> list[str]:
    """Names of gkstates attributes that are still tracing wrappers."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "gkstates" and not mod_name.startswith("gkstates."):
            continue
        for attr, value in vars(module).items():
            if getattr(value, "_perfbench_wrapper", False):
                found.append(f"{mod_name}.{attr}")
            if inspect.isclass(value):
                for cattr, cval in vars(value).items():
                    if getattr(cval, "_perfbench_wrapper", False):
                        found.append(f"{mod_name}.{attr}.{cattr}")
    return found
