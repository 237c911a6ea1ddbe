"""Span and call-count wrappers for the traced run.

Only the traced run imports this module; the end-to-end runs install
nothing.  A wrapper replaces a function at every place it is looked up:
module globals (``from .x import f`` makes a separate binding in each
importing module), class dictionaries (``__rmul__ = __mul__`` is a second
binding of the same function) and dictionaries held in module globals,
such as the CLI's family tables.  Every binding of one function gets the
same wrapper, so a call is counted once whichever name it came through.

A span's self time is its duration minus the durations of the spans it
directly contains.
"""

from __future__ import annotations

import functools
import sys
import time


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self._stack: list[float] = []
        self._undo: list[tuple] = []

    def span(self, name: str, fn):
        """Return ``fn`` wrapped in a span called ``name``."""
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        self.total_s.setdefault(name, 0.0)
        calls, self_s, total_s, stack = self.calls, self.self_s, self.total_s, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - stack.pop()
                total_s[name] += dt
                calls[name] += 1
                if stack:
                    stack[-1] += dt

        return functools.update_wrapper(wrapper, fn)

    def install(self, targets: list[tuple[str, object]]) -> None:
        """Wrap each (span name, function) at every binding inside the degenbell package."""
        wrappers = {}
        for name, fn in targets:
            if id(fn) not in wrappers:
                wrappers[id(fn)] = (fn, self.span(name, fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "degenbell" and not mod_name.startswith("degenbell."):
                continue
            for key, value in list(vars(module).items()):
                if isinstance(value, type) and value.__module__ == mod_name:
                    for attr, member in list(vars(value).items()):
                        self._swap(wrappers, member, setattr, value, attr)
                elif isinstance(value, dict):
                    for dkey, member in list(value.items()):
                        self._swap(wrappers, member, dict.__setitem__, value, dkey)
                else:
                    self._swap(wrappers, value, setattr, module, key)

    def wrap_catalog(self, catalog: dict) -> None:
        """Give each identity-check entry ``{id: (description, checker)}`` its own span."""
        for ident, (desc, checker) in list(catalog.items()):
            catalog[ident] = (desc, self.span(f"identities.{ident}", checker))
            self._undo.append((dict.__setitem__, catalog, ident, (desc, checker)))

    def _swap(self, wrappers, value, setter, owner, key) -> None:
        hit = wrappers.get(id(value))
        if hit is not None and hit[0] is value:
            setter(owner, key, hit[1])
            self._undo.append((setter, owner, key, value))

    def restore(self) -> None:
        """Put every original binding back."""
        while self._undo:
            setter, owner, key, value = self._undo.pop()
            setter(owner, key, value)
