"""In-memory span tracing installed from outside the program.

A :class:`Tracer` replaces functions and methods of the ``repro`` package
with thin wrappers that record one span per call: name, start, end,
parent span and request id.  Spans stay in memory and are written out as
one file per process when the run ends (:meth:`Tracer.dump`).

Nothing under ``src/`` knows about tracing: targets are patched where
callers look them up.  A function imported by name into another module
(``from repro.core.inter_strip import plan_route``) is patched in the
importing module, because patching its home module would not reach that
caller.

Self time follows the usual definition: a span's duration minus the part
of its interval that its child spans cover.  Children are linked in four
ways: the per-thread call stack, a request id (a server-side top-level
span becomes a child of the client's request span with the same id), an
explicit ``link`` key (a shard worker's message handler becomes a child
of the router's IPC call that carried the message), and time (a top-level
span of another process that ran inside the client's set-up span, such as
a shard worker building its planner, becomes a child of that span).  All spans use
:func:`time.perf_counter`, which is one monotonic clock across the
processes of one host, so cross-process children are comparable.
"""

from __future__ import annotations

import collections
import importlib
import itertools
import os
import pickle
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: ``(args, kwargs, result) -> request id or None``
RidOf = Callable[[tuple, dict, Any], Optional[int]]
#: ``(args, kwargs) -> span name`` for wrappers whose name depends on the call
NameOf = Callable[[tuple, dict], str]
#: ``(args, kwargs) -> hashable key prefix`` for cross-process links
LinkOf = Callable[[tuple, dict], Optional[Tuple[Any, ...]]]


class Target:
    """One patch point: ``attr`` on the object found at ``owner``.

    ``owner`` is a dotted path to a module, optionally followed by a class
    name (``"repro.core.planner.SRPPlanner"``).
    """

    __slots__ = ("owner", "attr", "name", "rid_of", "name_of", "link_of")

    def __init__(
        self,
        owner: str,
        attr: str,
        name: str,
        rid_of: Optional[RidOf] = None,
        name_of: Optional[NameOf] = None,
        link_of: Optional[LinkOf] = None,
    ) -> None:
        self.owner = owner
        self.attr = attr
        self.name = name
        self.rid_of = rid_of
        self.name_of = name_of
        self.link_of = link_of


def resolve(owner: str) -> Any:
    """The module or class named by a dotted path."""
    parts = owner.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj: Any = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part)
        return obj
    raise ImportError(f"cannot resolve {owner!r}")


class Tracer:
    """Records spans for the calls of patched functions."""

    def __init__(self, role: str = "main") -> None:
        self.role = role
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._link_seen: Dict[Tuple[Any, ...], int] = collections.Counter()
        self._link_lock = threading.Lock()

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _link_key(self, prefix: Optional[Tuple[Any, ...]]) -> Optional[list]:
        """``prefix`` plus its occurrence number, so repeated keys stay unique."""
        if prefix is None:
            return None
        with self._link_lock:
            n = self._link_seen[prefix]
            self._link_seen[prefix] = n + 1
        return [*prefix, n]

    def begin(self, name: str, rid: Optional[int] = None, link: Optional[list] = None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent[5]
        rec = [next(self._ids), name, time.perf_counter(), 0.0,
               parent[0] if parent is not None else None, rid, link]
        stack.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is rec:
            stack.pop()
        # A tuple of plain values drops out of the cyclic collector's
        # scans, so hundreds of thousands of spans do not slow the run.
        self.spans.append(tuple(rec))

    def span(self, name: str, rid: Optional[int] = None) -> "_SpanContext":
        """Context manager recording one span of the benchmark's own code."""
        return _SpanContext(self, name, rid)

    def wrap(self, fn: Callable[..., Any], target: Target) -> Callable[..., Any]:
        """A wrapper recording a span around each call of ``fn``.

        A call made while a span of the same name is already the innermost
        open span is not recorded again (a wrapped method calling another
        wrapped method of the same layer counts once).
        """
        tracer = self
        name, rid_of, name_of, link_of = (
            target.name, target.rid_of, target.name_of, target.link_of
        )

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_name = name_of(args, kwargs) if name_of is not None else name
            stack = tracer._stack()
            if stack and stack[-1][1] == span_name:
                return fn(*args, **kwargs)
            link = tracer._link_key(link_of(args, kwargs)) if link_of is not None else None
            rec = tracer.begin(span_name, None, link)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if rid_of is not None:
                    rid = rid_of(args, kwargs, result)
                    if rid is not None:
                        rec[5] = rid
                tracer.end(rec)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__module__ = getattr(fn, "__module__", __name__)
        return traced

    # -- patching ----------------------------------------------------------
    def install(self, targets: Iterable[Target]) -> None:
        for target in targets:
            owner = resolve(target.owner)
            if isinstance(owner, type) and target.attr in owner.__dict__:
                original = owner.__dict__[target.attr]
            else:
                original = getattr(owner, target.attr)
            if isinstance(original, (staticmethod, classmethod)):
                raise TypeError(f"{target.owner}.{target.attr}: wrap plain functions only")
            setattr(owner, target.attr, self.wrap(original, target))
            self._patches.append((owner, target.attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------
    def records(self) -> List["Span"]:
        pid = os.getpid()
        return [Span.from_record(self.role, pid, rec) for rec in self.spans]

    def dump(self, directory: str) -> str:
        """Write this process's spans to ``directory``; returns the path."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"spans-{self.role}-{os.getpid()}.pkl")
        with open(path, "wb") as fh:
            pickle.dump((self.role, os.getpid(), self.spans), fh, protocol=pickle.HIGHEST_PROTOCOL)
        return path


class Span:
    """One recorded span; ids are ``(pid, n)`` so processes never collide."""

    __slots__ = ("id", "name", "start", "end", "parent", "rid", "link", "role")

    def __init__(
        self,
        id: Tuple[int, int],
        name: str,
        start: float,
        end: float,
        parent: Optional[Tuple[int, int]] = None,
        rid: Optional[int] = None,
        link: Optional[Tuple[Any, ...]] = None,
        role: str = "",
    ) -> None:
        self.id, self.name, self.start, self.end = id, name, start, end
        self.parent, self.rid, self.link, self.role = parent, rid, link, role

    @classmethod
    def from_record(cls, role: str, pid: int, rec: Sequence[Any]) -> "Span":
        n, name, start, end, parent, rid, link = rec
        return cls(
            (pid, n), name, start, end,
            None if parent is None else (pid, parent),
            rid,
            None if link is None else tuple(link),
            role,
        )


class _SpanContext:
    __slots__ = ("tracer", "name", "rid", "rec")

    def __init__(self, tracer: Tracer, name: str, rid: Optional[int]) -> None:
        self.tracer, self.name, self.rid = tracer, name, rid
        self.rec: Optional[list] = None

    def __enter__(self) -> list:
        self.rec = self.tracer.begin(self.name, self.rid)
        return self.rec

    def __exit__(self, *exc: Any) -> None:
        assert self.rec is not None
        self.tracer.end(self.rec)


def load_spans(directory: str) -> List[Span]:
    """Every span file written to ``directory`` by this benchmark's processes."""
    spans: List[Span] = []
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("spans-") and entry.endswith(".pkl"):
            with open(os.path.join(directory, entry), "rb") as fh:
                role, pid, records = pickle.load(fh)
            spans.extend(Span.from_record(role, pid, rec) for rec in records)
    return spans


def build_tree(
    spans: Sequence[Span], request_span: str = "bench.request", setup_span: str = "bench.setup"
) -> Dict[Any, List[Span]]:
    """Children lists keyed by parent span id.

    Top-level spans (no stack parent) that carry a request id become
    children of the ``request_span`` span with that id; spans with a
    ``link`` key become children of the span in another process with the
    same key.  Any other top-level span that ran inside a ``setup_span``
    (a server or shard worker starting up) becomes its child.  The rest
    stay roots (key ``None``).
    """
    by_rid = {s.rid: s.id for s in spans if s.name == request_span and s.rid is not None}
    setups = [s for s in spans if s.name == setup_span]
    links: Dict[Any, List[Span]] = collections.defaultdict(list)
    for s in spans:
        if s.link is not None:
            links[s.link].append(s)
    by_link: Dict[Any, Any] = {}
    for group in links.values():
        if len(group) == 2:
            caller, callee = sorted(group, key=lambda s: s.start)
            by_link[callee.id] = caller.id
    children: Dict[Any, List[Span]] = collections.defaultdict(list)
    for s in spans:
        parent = s.parent
        if parent is None:
            parent = by_link.get(s.id)
        if parent is None and s.rid is not None and s.name != request_span:
            parent = by_rid.get(s.rid)
        if parent is None and s.rid is None:
            parent = next(
                (u.id for u in setups if u is not s and u.start <= s.start and s.end <= u.end), None
            )
        children[parent].append(s)
    return children


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[Span], children: Dict[Any, List[Span]]) -> Dict[Any, float]:
    """Self time of every span: duration minus the child-covered part."""
    return {
        s.id: (s.end - s.start)
        - covered(s.start, s.end, ((k.start, k.end) for k in children.get(s.id, ())))
        for s in spans
    }


def parallel_time(spans: Sequence[Span], children: Dict[Any, List[Span]]) -> float:
    """Seconds in which children of one span ran in several processes at once.

    Per span: the child-covered time of each process, summed, minus the
    child-covered time of all processes together.  Two shard workers
    building their planners side by side add their overlap here; children
    of one process never add anything.
    """
    total = 0.0
    for s in spans:
        kids = children.get(s.id, ())
        if not kids:
            continue
        by_pid: Dict[int, List[Tuple[float, float]]] = collections.defaultdict(list)
        for k in kids:
            by_pid[k.id[0]].append((k.start, k.end))
        if len(by_pid) < 2:
            continue
        each = sum(covered(s.start, s.end, iv) for iv in by_pid.values())
        total += each - covered(s.start, s.end, ((k.start, k.end) for k in kids))
    return total


def subtree(root: Span, children: Dict[Any, List[Span]]) -> List[Span]:
    """``root`` and every span below it."""
    out, todo = [], [root]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(children.get(s.id, ()))
    return out


def layer_totals(spans: Sequence[Span], selfs: Dict[Any, float]) -> Dict[str, Tuple[int, float]]:
    """Per span name: ``(calls, summed self seconds)``."""
    totals: Dict[str, List[float]] = collections.defaultdict(lambda: [0, 0.0])
    for s in spans:
        entry = totals[s.name]
        entry[0] += 1
        entry[1] += selfs[s.id]
    return {name: (int(c), t) for name, (c, t) in totals.items()}
