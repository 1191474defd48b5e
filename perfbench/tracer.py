"""In-memory span tracer used only by the benchmark's traced run.

Wrappers are installed on the module (or class) attribute that the calling
code resolves at call time, e.g. ``cli.separation_profile`` rather than
``variety.separation_profile``, because ``from .variety import ...`` binds a
second name that a patch of the defining module would miss.  ``uninstall``
restores every original object, so untraced jobs run the unmodified code.

A span is ``[name, start, end, parent_index, phase]``; a layer's self time is
its duration minus the durations of its direct children (spans on one thread
nest, so children never overlap).  Work counters are keyed by
``(counter_name, phase)``; counters derived from arguments are evaluated
after the job, outside every span.
"""

import functools
import inspect
import time
from collections import Counter
from contextlib import contextmanager

ROOT_SPAN = "job"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.phase = None
        self._stack = []
        self._deferred = []
        self._undo = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.phase])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def phase_span(self, phase):
        """Tag every span and counter inside with ``phase`` (e.g. a weight profile)."""
        prev, self.phase = self.phase, phase
        try:
            with self.span("phase:" + phase):
                yield
        finally:
            self.phase = prev

    def install(self, owner, attr, name, timed=True, work=None):
        """Wrap ``owner.attr``: count calls as ``name.calls``, record a span when
        ``timed``, and defer ``work(bound_args, result) -> {key: count}``."""
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        sig = inspect.signature(fn) if work else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[(name + ".calls", tracer.phase)] += 1
            if timed:
                idx = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
            else:
                result = fn(*args, **kwargs)
            if work is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer._deferred.append((name, tracer.phase, work,
                                         bound.arguments, result))
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._undo.append((owner, attr, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self._deferred = []

    def finish(self):
        """Evaluate deferred work counters and drop the argument references."""
        for name, phase, work, arguments, result in self._deferred:
            for key, value in work(arguments, result).items():
                self.counts[(f"{name}.{key}", phase)] += value
        self._deferred = []

    def self_times(self):
        """Per-span self time, in span order."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own
