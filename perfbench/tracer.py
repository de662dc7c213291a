"""Spans around calls into hilbstrat's public functions, installed from outside.

The package itself carries no tracing.  ``Tracer.install`` replaces a
function by a timing wrapper in every loaded ``hilbstrat`` module that holds
it, so calls made through ``from .x import f`` bindings are caught as well as
calls through the defining module.  Each call becomes a span (name, start,
end, parent span); a span's self time is its duration minus the time its
child spans cover.  Spans and results stay in memory until the pass ends.

Leaf arithmetic (``symcalc``, ``semigroup_core`` membership tests) is not
wrapped: it runs millions of times per pass, and a wrapper there would cost
more than the work it measures.  Its time lands in the self time of the
wrapped function that called it.
"""

import sys
import time

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # (span id, parent id or None, name, start, end)
        self.calls = {}  # name -> [(duration, self time, result)]
        self._stack = []  # open spans: [span id, time covered by children]
        self._next_id = 0

    def wrap(self, name, fn):
        calls = self.calls.setdefault(name, [])
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                spans.append((span_id, parent[0] if parent else None, name, start, end))
            calls.append((duration, duration - frame[1], result))
            return result

        return traced

    def install(self, targets):
        """Wrap each ``(name, owner, attr)``.

        ``owner`` is a module or a class.  For a module function every
        ``hilbstrat`` module that imported the same object is patched too.
        """
        for name, owner, attr in targets:
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "hilbstrat" or mod_name.startswith("hilbstrat.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def self_s(self, name):
        return sum((s for _, s, _ in self.calls.get(name, ())), 0.0)

    def ncalls(self, name):
        return len(self.calls.get(name, ()))

    def results(self, name):
        return [r for _, _, r in self.calls.get(name, ())]

    def covered_s(self):
        """Time inside top-level spans, i.e. the sum of every span's self time."""
        return sum(end - start for _, parent, _, start, end in self.spans if parent is None)
