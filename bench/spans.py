"""In-memory spans around the calls into each trusslab layer.

Spans are recorded only from the benchmark's files: ``Tracer.call`` wraps a
call the benchmark makes itself, and ``Tracer.patch`` replaces a function
as a calling module sees it (for example ``trusslab.enumeration.verify``)
for the length of a traced round, and puts the original back afterwards.
Nothing is recorded when tracing is off: ``call`` then calls straight
through and no module attribute is touched.

Each span is ``[id, parent, name, start, end, round, info]``.

Time is charged to the outermost traced call that is not a dispatcher
(``cli.job``, ``enumeration.enumerate``): a layer's time includes what its
call does below it, and the two dispatchers keep only their self time, the
part of their span that no traced child covers. The charged times of a round add
up to the time its root spans cover.
"""

from __future__ import annotations

import json
import time

DISPATCHERS = ("cli.job", "enumeration.enumerate")


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.round = -1  # -1 is set-up
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def call(self, name: str, fn, *args, info=None, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        rec = [sid, self._stack[-1] if self._stack else None, name, time.perf_counter(), None,
               self.round, None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            rec[4] = time.perf_counter()
        if info is not None:
            rec[6] = info(result)
        return result

    def patch(self, module, attr: str, name: str, info=None) -> None:
        """Trace ``module.attr`` as the module's own code sees it."""
        if not self.enabled:
            return
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            return self.call(name, original, *args, info=info, **kwargs)

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def charge(spans, rounds) -> dict:
    """Per round: {'charged': {name: s}, 'calls': {name: n}, 'info': [info...],
    'nested': {(owner, name): s}}, where 'nested' is the time of spans inside
    another layer's call, by that layer."""
    out = {r: {"charged": {}, "calls": {}, "info": [], "nested": {}} for r in rounds}
    owner: dict[int, str] = {}
    child_time: dict[int, float] = {}
    for sid, parent, _name, start, end, _r, _i in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    for sid, parent, name, start, end, r, info in spans:
        parent_owner = owner.get(parent) if parent is not None else None
        if parent_owner is not None and parent_owner not in DISPATCHERS:
            owner[sid] = parent_owner
        else:
            owner[sid] = name
        if r not in out:
            continue
        rec = out[r]
        dur = end - start
        rec["calls"][name] = rec["calls"].get(name, 0) + 1
        if owner[sid] != name:
            k = (owner[sid], name)
            rec["nested"][k] = rec["nested"].get(k, 0.0) + dur
        self_time = dur - child_time.get(sid, 0.0)
        rec["charged"][owner[sid]] = rec["charged"].get(owner[sid], 0.0) + self_time
        if info is not None:
            rec["info"].append(info)
    return out

