"""Span tracing by attribute wrapping, for the traced benchmark run.

A :class:`Tracer` replaces functions and methods at their module or
class attribute with wrappers that record one span per call: calls,
inclusive time and self time (inclusive time minus the time of the
child spans it contains).  Spans are kept per thread in memory and
merged by :meth:`Tracer.snapshot`.  :meth:`Tracer.restore` puts every
replaced attribute back.  Nothing here knows about podag; the mapping
from podag's modules to layers lives in ``layers.py``.
"""

from __future__ import annotations

import functools
import threading
from collections import Counter, defaultdict
from time import perf_counter

_MISSING = object()


class _Frame:
    __slots__ = ("name", "layer", "dispatcher", "child")

    def __init__(self, name, layer, dispatcher):
        self.name = name
        self.layer = layer
        self.dispatcher = dispatcher
        self.child = 0.0


class ThreadLog:
    """Spans and counters recorded on one thread.

    ``fit`` is the label of the innermost open fit span (None outside
    fits); spans and layer times are keyed by it so that the caller can
    split the work of different estimators.
    """

    def __init__(self):
        self.stack = []
        self.fit = None
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # (fit, name) -> calls, total, self
        self.layer_time = defaultdict(float)  # (fit, layer) -> time at layer boundaries
        self.errors = Counter()  # (name, exception type name) -> count
        self.counts = Counter()  # free-form counters filled by hooks
        self.hist = defaultdict(Counter)  # histogram name -> value -> count
        self.busy = 0.0  # time in spans not nested in another non-dispatcher span

    def inside(self, names):
        """True when a span with one of ``names`` is open on this thread."""
        return any(frame.name in names for frame in self.stack)

    def _close(self, frame, elapsed):
        parent = self.stack[-1] if self.stack else None
        record = self.spans[(self.fit, frame.name)]
        record[0] += 1
        record[1] += elapsed
        record[2] += elapsed - frame.child
        if parent is not None:
            parent.child += elapsed
        if parent is None or parent.layer != frame.layer:
            self.layer_time[(self.fit, frame.layer)] += elapsed
        if not frame.dispatcher and (parent is None or parent.dispatcher):
            self.busy += elapsed


class Tracer:
    """Wraps attributes in place and records spans for every call.

    Call :meth:`wrap` for each target, then use the tracer as a context
    manager: entering installs the wrappers, leaving restores the
    original attributes.  ``fit`` marks spans that open an estimator
    fit, ``dispatcher`` marks spans that only dispatch work to a pool (they
    do not count as busy time), and ``hook(log, args, kwargs, result,
    elapsed)`` runs after a successful call, before the fit label of a
    fit span is closed.
    """

    def __init__(self):
        self._targets = []  # (owners, attr, original, name, layer, options)
        self._extra = []  # (owner, attr, value)
        self._saved = []  # (owner, attr, previous value or _MISSING)
        self._local = threading.local()
        self._logs = []
        self._logs_lock = threading.Lock()

    def wrap(self, owners, attr, name, layer, fit=None, dispatcher=False, hook=None):
        """Register ``attr`` on each of ``owners`` (all bound to one callable)."""
        owners = list(owners)
        original = getattr(owners[0], attr)
        for owner in owners[1:]:
            if getattr(owner, attr) is not original:
                raise ValueError(f"{name}: owners bind different objects")
        self._targets.append((owners, attr, original, name, layer, (fit, dispatcher, hook)))

    def set_attribute(self, owner, attr, value):
        """Set an extra attribute while installed (removed again on restore)."""
        self._extra.append((owner, attr, value))

    @property
    def names(self):
        return [t[3] for t in self._targets]

    def log(self):
        """This thread's log, created and registered on first use."""
        log = getattr(self._local, "log", None)
        if log is None:
            log = ThreadLog()
            self._local.log = log
            with self._logs_lock:
                self._logs.append(log)
        return log

    def _wrapper(self, original, name, layer, fit, dispatcher, hook):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            log = tracer.log()
            frame = _Frame(name, layer, dispatcher)
            log.stack.append(frame)
            outer_fit = log.fit
            if fit is not None:
                log.fit = fit
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as err:
                elapsed = perf_counter() - start
                log.stack.pop()
                log._close(frame, elapsed)
                log.errors[(name, type(err).__name__)] += 1
                log.fit = outer_fit
                raise
            elapsed = perf_counter() - start
            log.stack.pop()
            log._close(frame, elapsed)
            if hook is not None:
                hook(log, args, kwargs, result, elapsed)
            log.fit = outer_fit
            return result

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for owners, attr, original, name, layer, (fit, dispatcher, hook) in self._targets:
                wrapper = self._wrapper(original, name, layer, fit, dispatcher, hook)
                for owner in owners:
                    self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
                    setattr(owner, attr, wrapper)
            for owner, attr, value in self._extra:
                self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
                setattr(owner, attr, value)
        except BaseException:
            self.restore()  # never leave a half-installed tracer behind
            raise

    def restore(self):
        """Put back every replaced attribute and check that it took."""
        for owner, attr, previous in reversed(self._saved):
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        for owner, attr, previous in self._saved:
            now = owner.__dict__.get(attr, _MISSING)
            if now is not previous:
                raise RuntimeError(f"attribute {attr!r} of {owner!r} was not restored")
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def snapshot(self):
        """Merge every thread's log into one :class:`ThreadLog`."""
        merged = ThreadLog()
        with self._logs_lock:
            logs = list(self._logs)
        for log in logs:
            for key, (calls, total, own) in log.spans.items():
                record = merged.spans[key]
                record[0] += calls
                record[1] += total
                record[2] += own
            for key, value in log.layer_time.items():
                merged.layer_time[key] += value
            merged.errors.update(log.errors)
            merged.counts.update(log.counts)
            for key, hist in log.hist.items():
                merged.hist[key].update(hist)
            merged.busy += log.busy
        return merged
