"""Span tracer that times calls into the package's public functions from outside.

Each hook replaces a module attribute with a wrapper, at the place where
the caller looks the name up (``optimizer.eval_nonparametric``, not
``objective.eval_nonparametric``, because the optimizer imported the name).
A wrapper records one span per call: name, parent span, start, end, the
section (set-up or block) it ran in and the exception type it raised, if
any.  Spans are kept in memory and aggregated when the run ends; self time
is a span's duration minus the duration of its direct children.

Hooks whose target attribute is missing are recorded as absent instead of
failing, so a later refactor that renames a private helper only drops that
layer from the report.
"""

import contextlib
import csv
import gzip
import importlib
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names = []  # span name per name id
        self._name_ids = {}
        # one tuple per span: (name_id, parent, section, start, end, error)
        self.spans = []
        self.sections = []  # (label, start, end)
        self.absent = []  # "module:attr" targets that were not found
        self.results = {}  # name -> [(section, return value)], for observed hooks
        self.active = False
        self._stack = []
        self._section = -1
        self._patched = []  # (module, attr, original)

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name, fn, observe):
        name_id = self._name_id(name)
        spans = self.spans
        stack = self._stack
        sink = self.results.setdefault(name, []) if observe else None

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            error = None
            start = _clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = _clock()
                stack.pop()
                spans[idx] = (name_id, parent, self._section, start, end, error)
            if sink is not None:
                sink.append((self._section, out))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def hook(self, name, targets, observe=False):
        """Wrap every "module:attr" in targets under one span name.

        The same function reached through several modules gets one wrapper,
        so a call is never counted twice.
        """
        wrappers = {}
        for target in targets:
            mod_name, attr = target.split(":")
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                self.absent.append(target)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(target)
                continue
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(name, fn, observe)
            self._patched.append((module, attr, fn))
            setattr(module, attr, wrappers[id(fn)])

    def unpatch(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    @contextlib.contextmanager
    def section(self, label):
        """Trace everything called inside; the section's wall time is the
        denominator of the unattributed share."""
        self._section = len(self.sections)
        self.active = True
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self.active = False
            self.sections.append((label, start, end))
            self._section = -1

    def span_root(self, name):
        """Open a span from the benchmark itself, around a call it makes
        into a layer whose entry point is not a module attribute."""
        return _RootSpan(self, self._name_id(name))

    def summary(self):
        """Per span name: calls, busy seconds, self seconds, errors by type
        and the individual durations; per parent > child pair: calls and
        seconds; the sections' wall time and the part of it no span covers."""
        n = len(self.spans)
        child_time = [0.0] * n
        for name_id, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table = {}
        edges = {}
        top_level = 0.0
        for i, (name_id, parent, _, start, end, error) in enumerate(self.spans):
            row = table.setdefault(
                self.names[name_id],
                {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": {}, "durations": []},
            )
            dur = end - start
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child_time[i]
            row["durations"].append(dur)
            if error is not None:
                row["errors"][error] = row["errors"].get(error, 0) + 1
            if parent < 0:
                top_level += dur
            else:
                key = f"{self.names[self.spans[parent][0]]} > {self.names[name_id]}"
                edge = edges.setdefault(key, {"calls": 0, "s": 0.0})
                edge["calls"] += 1
                edge["s"] += dur
        wall = sum(end - start for _, start, end in self.sections)
        return table, edges, wall, wall - top_level

    def write_spans(self, path):
        """Every span as one CSV row: id, parent id (-1 for none), name,
        section label, start and end in seconds, exception type."""
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "section", "start", "end", "error"])
            for i, (name_id, parent, section, start, end, error) in enumerate(self.spans):
                label = self.sections[section][0] if section >= 0 else ""
                writer.writerow([i, parent, self.names[name_id], label,
                                 f"{start:.6f}", f"{end:.6f}", error or ""])


class _RootSpan:
    def __init__(self, tracer, name_id):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        tr = self.tracer
        self.idx = None
        if not tr.active:
            return self
        self.idx = len(tr.spans)
        self.parent = tr._stack[-1] if tr._stack else -1
        tr.spans.append(None)
        tr._stack.append(self.idx)
        self.start = _clock()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = _clock()
        tr = self.tracer
        if self.idx is None:
            return False
        tr._stack.pop()
        error = exc_type.__name__ if exc_type is not None else None
        tr.spans[self.idx] = (self.name_id, self.parent, tr._section, self.start, end, error)
        return False
