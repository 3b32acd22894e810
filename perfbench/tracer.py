"""Span tracer that wraps the public functions of each fixedprice layer.

Every public function of a layer module is replaced, under every module
attribute that refers to it (``mechanism_lp.solve_lp`` and
``extensions.solve_lp`` as well as ``lp.solve_lp``), by a wrapper that
records a span.  Calls made by one wrapped function into another become
child spans, so a layer's self time is its span time minus the time its
child spans cover.

Spans are kept in memory as tuples and written out when the run ends.
Count hooks (LP sizes, tight IC rows, ...) run only while ``counting`` is
on; the time they take is removed from every span and from the operation
that is being timed, through the tracer's own clock.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

PACKAGE = "fixedprice"
LAYERS = (
    "cli",
    "core",
    "choice_models",
    "lp",
    "mechanism_lp",
    "lotteries",
    "stopping",
    "extensions",
)


class Tracer:
    """Wraps layer functions on ``install`` and restores them on ``uninstall``.

    Create it after the package is imported: the functions to wrap, and every
    module attribute that refers to one, are found once, here.
    """

    def __init__(self):
        self.excluded = 0.0  # seconds spent in count hooks, removed from clock()
        self.counting = False
        self.op_id: Optional[int] = None
        self.spans: List[Tuple] = []  # (span id, parent id, op id, name, start, end)
        self.total = defaultdict(float)  # name -> inclusive seconds
        self.self_time = defaultdict(float)  # name -> self seconds
        self.counts = defaultdict(int)  # exact counts gathered while counting
        self._stack: List[list] = []  # [span id, child seconds, name]
        self._hooks: Dict[str, Tuple[Optional[Callable], Optional[Callable]]] = {}

        wrappers: Dict[int, Tuple[Callable, Callable]] = {}  # id -> (function, wrapper)
        self.names: List[str] = []  # "layer.function" of every wrapped function
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    self.names.append(f"{layer}.{attr}")
                    wrappers[id(value)] = (value, self._wrap(self.names[-1], value))
        # (module, attribute, function, wrapper) for every name a function is looked up by
        self._patches = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in vars(module).items():
                pair = wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    self._patches.append((module, attr) + pair)

    def clock(self) -> float:
        return time.perf_counter() - self.excluded

    def hook(self, name: str, pre: Optional[Callable] = None,
             post: Optional[Callable] = None) -> None:
        """Register count hooks for a wrapped function, e.g. ``"lp.solve_lp"``.

        ``pre(tracer, args, kwargs)`` runs before the call and ``post(tracer,
        args, kwargs, result, state)`` after it, where ``state`` is what
        ``pre`` returned.  Both run only while ``counting`` is on.
        """
        self._hooks[name] = (pre, post)

    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span (the caller of a hooked call)."""
        return self._stack[-1][2] if self._stack else None

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, function, _ in self._patches:
            setattr(module, attr, function)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hooks = None
            if tracer.counting:
                hooks = tracer._hooks.get(name)
                tracer.counts[("calls", name, tracer.parent_name())] += 1
            state = None
            if hooks and hooks[0]:
                h0 = time.perf_counter()
                state = hooks[0](tracer, args, kwargs)
                tracer.excluded += time.perf_counter() - h0
            span_id = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer.spans.append(None)
            frame = [span_id, 0.0, name]
            tracer._stack.append(frame)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, parent, name, start)
                if tracer.counting:
                    tracer.counts[("escaped", name)] += 1
                raise
            tracer._close(frame, parent, name, start)
            if hooks and hooks[1]:
                h0 = time.perf_counter()
                hooks[1](tracer, args, kwargs, result, state)
                tracer.excluded += time.perf_counter() - h0
            return result

        return wrapper

    def _close(self, frame: list, parent: int, name: str, start: float) -> None:
        end = self.clock()
        self._stack.pop()
        duration = end - start
        self.spans[frame[0]] = (frame[0], parent, self.op_id, name, start, end)
        self.total[name] += duration
        self.self_time[name] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration

    def write(self, path: str) -> int:
        """Write every span as a tab-separated line; returns the span count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for span in self.spans:
                if span is None:
                    continue
                sid, parent, op, name, start, end = span
                fh.write(f"{sid}\t{parent}\t{op}\t{name}\t{start:.9f}\t{end:.9f}\n")
        return len(self.spans)
