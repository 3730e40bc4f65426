"""In-memory spans around the public calls of each layer.

:func:`install` wraps the functions named in :data:`LAYER_CALLS` (plus
``os.fsync``) in the *server* process the benchmark launches; nothing in
``src/`` changes.  Each call becomes a :class:`Span` ``(name, start,
end, parent, rid)`` kept in a :class:`SpanStore` and written out as JSON
lines when the server exits.  ``rid`` is the request id: the commit's
idempotency token or the ``rid`` query parameter the load generator
sends, inherited by child spans, so client round trips can be matched to
the server-side spans of the same request.

Wrapped calls are all synchronous, so a per-thread stack gives every
span its parent even though the server is an asyncio program.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    rid: Optional[str]
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanStore:
    """Spans of one process, in start order; ``parent`` is an index."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, *,
             rid_of: Optional[Callable] = None,
             attrs_of: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call.  ``rid_of(args, kwargs)``
        names the request (else the parent's is inherited);
        ``attrs_of(result)`` adds attributes from the return value."""
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            rid = rid_of(args, kwargs) if rid_of is not None else None
            if rid is None and parent is not None:
                rid = spans[parent].rid
            span = Span(name, time.perf_counter(), 0.0, parent, rid)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs_of is not None:
                span.attrs = attrs_of(result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(
                    [s.name, s.start, s.end, s.parent, s.rid, s.attrs]
                ) + "\n")


def load(path) -> list[Span]:
    with open(path) as fh:
        return [Span(*json.loads(line)) for line in fh if line.strip()]


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(s.seconds - covered)
    return out


def _token(args, kwargs):
    return kwargs.get("token")


def _query_rid(args, kwargs):
    params = args[2] if len(args) > 2 else kwargs.get("params", {})
    return params.get("rid")


def _counters(result) -> dict:
    return dict(result.counters, ops=result.ops)


def _materialize_iter(orig):
    def iterate(self):
        return iter(list(orig(self)))
    return iterate


#: (span name, owner, attribute) of every wrapped public call.
LAYER_CALLS = (
    ("session.apply", "repro.service.session:CoreService", "apply"),
    ("session.query", "repro.service.server:TenantSession", "query"),
    ("batch.validate", "repro.engine.batch:Batch", "check_applicable"),
    ("wal.append", "repro.service.wal:WriteAheadLog", "append"),
    ("engine.apply", "repro.engine.schedule:RunScheduledMaintainer",
     "apply_batch"),
    ("events.take", "repro.service.events:Subscription", "take"),
    ("kcore_views.core", "repro.service.session:CoreService", "core"),
    ("kcore_views.top", "repro.service.session:CoreService", "top"),
    ("kcore_views.spectrum", "repro.service.session:CoreService",
     "spectrum"),
    ("kcore_views.degeneracy", "repro.service.session:CoreService",
     "degeneracy"),
    ("kcore_views.kcore", "repro.service.session:CoreService", "kcore"),
    ("kcore_views.kcore", "repro.analysis.kcore_views:KCoreView",
     "__iter__"),
    ("snapshot.recover", "repro.service.session:CoreService", "recover"),
)


def install(store: SpanStore) -> None:
    """Wrap every :data:`LAYER_CALLS` entry, ``os.fsync`` and the
    ``CommitReceipt.events`` property so they record into ``store``."""
    import importlib

    from repro.core.simplified import SimplifiedCoreMaintainer
    from repro.engine.schedule import RunScheduledMaintainer
    from repro.service.transactions import CommitReceipt

    if (SimplifiedCoreMaintainer.apply_batch
            is not RunScheduledMaintainer.apply_batch):
        raise RuntimeError("the default engine overrides apply_batch; "
                           "move the engine span to its class")
    for name, owner, attr in LAYER_CALLS:
        module, cls_name = owner.split(":")
        cls = getattr(importlib.import_module(module), cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(store.wrap(name, raw.__func__)))
            continue
        fn = raw
        if attr == "__iter__":
            fn = _materialize_iter(raw)
        rid_of = {"session.apply": _token,
                  "session.query": _query_rid}.get(name)
        attrs_of = _counters if name == "engine.apply" else None
        setattr(cls, attr, store.wrap(name, fn, rid_of=rid_of,
                                      attrs_of=attrs_of))
    events = CommitReceipt.events.fget
    CommitReceipt.events = property(store.wrap(
        "events.materialize", events,
        attrs_of=lambda result: {"events": len(result)},
    ))
    os.fsync = store.wrap("wal.fsync", os.fsync)
