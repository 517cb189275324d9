"""In-memory span tracer for the benchmark's traced runs.

The tracer never edits the program. It installs timing wrappers by
rebinding the names that callers look up: module globals such as
``dyadreg.harness.run_iteration`` and class attributes such as
``Agent.efe_per_action``. Every call through a wrapped name becomes a span
with its name, start, end, parent span and trial. Spans live in flat
``array`` columns so a traced run of a few hundred thousand calls stays
small; they are written out once, when the benchmark ends.
"""

from __future__ import annotations

import gzip
import time
from array import array
from contextlib import contextmanager

NO_SPAN = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.trials: list[str] = []
        self.reset()

    def reset(self):
        """Drop every recorded span, keeping the name and trial tables."""
        self.name_col = array("i")
        self.parent_col = array("i")
        self.trial_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.stack = [NO_SPAN]
        self.trial = [NO_SPAN]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_trial(self, label: str):
        self.trial[0] = len(self.trials)
        self.trials.append(label)

    def wrap(self, fn, name: str, before=None, after=None):
        """`fn` timed as span `name`. `before(args)` runs ahead of the call
        and `after(result)` behind it, both outside the span."""
        nid = self.name_id(name)
        names, parents, trials = self.name_col, self.parent_col, self.trial_col
        starts, ends, stack, trial = self.start_col, self.end_col, self.stack, self.trial
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            trials.append(trial[0])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a call it makes."""
        sid = len(self.start_col)
        self.name_col.append(self.name_id(name))
        self.parent_col.append(self.stack[-1])
        self.trial_col.append(self.trial[0])
        self.end_col.append(0.0)
        self.stack.append(sid)
        self.start_col.append(time.perf_counter())
        try:
            yield
        finally:
            self.end_col[sid] = time.perf_counter()
            self.stack.pop()

    @contextmanager
    def installed(self, points):
        """Rebind each (owner, attribute, span name[, before[, after]])
        point for the duration of the block, then restore the originals."""
        saved = []
        try:
            for owner, attr, name, *hooks in points:
                # A name the program no longer has is simply not traced.
                if not hasattr(owner, attr):
                    continue
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, *hooks))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self.start_col)

    def summary(self, since: int = 0) -> dict:
        """Per span name, over the spans recorded from index `since` on:
        calls, total, self and child seconds, the duration of every call,
        and how many calls opened a child of each name.

        Self time is a span's duration minus the time its children cover.
        """
        n = len(self)
        names, parents = self.name_col, self.parent_col
        durations = [self.end_col[i] - self.start_col[i] for i in range(n)]
        child_time = [0.0] * n
        child_names: list[set | None] = [None] * n
        for i in range(since, n):
            p = parents[i]
            if p >= since:
                child_time[p] += durations[i]
                if child_names[p] is None:
                    child_names[p] = set()
                child_names[p].add(names[i])
        out: dict[str, dict] = {}
        for i in range(since, n):
            entry = out.get(self.names[names[i]])
            if entry is None:
                entry = out[self.names[names[i]]] = {
                    "calls": 0,
                    "total_s": 0.0,
                    "self_s": 0.0,
                    "child_s": 0.0,
                    "durations": [],
                    "with_child": {},
                }
            entry["calls"] += 1
            entry["total_s"] += durations[i]
            entry["self_s"] += durations[i] - child_time[i]
            entry["child_s"] += child_time[i]
            entry["durations"].append(durations[i])
            for c in child_names[i] or ():
                key = self.names[c]
                entry["with_child"][key] = entry["with_child"].get(key, 0) + 1
        return out

    def count_within(self, name: str, ancestor: str, since: int = 0) -> int:
        """Calls of `name` made anywhere beneath a span named `ancestor`,
        among the spans recorded from index `since` on."""
        target, root = self._ids.get(name), self._ids.get(ancestor)
        inside = [False] * len(self)
        count = 0
        for i in range(since, len(self)):
            p = self.parent_col[i]
            within = p >= since and inside[p]
            inside[i] = self.name_col[i] == root or within
            if self.name_col[i] == target and within:
                count += 1
        return count

    def write(self, path):
        """All spans as gzipped tab-separated rows: id, parent, name,
        trial, start and end in seconds of the perf_counter clock."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\ttrial\tstart\tend\n")
            for i in range(len(self)):
                t = self.trial_col[i]
                fh.write(
                    f"{i}\t{self.parent_col[i]}\t{self.names[self.name_col[i]]}\t"
                    f"{self.trials[t] if t != NO_SPAN else ''}\t"
                    f"{self.start_col[i]:.9f}\t{self.end_col[i]:.9f}\n"
                )
