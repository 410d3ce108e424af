"""Span recorder for the traced run.

Spans are aggregated on the fly into a call tree keyed by (name, parent
node), so a 100k-row sweep producing millions of spans keeps only a few
dozen nodes.  Self time is a span's duration minus the durations of its
direct children, net of the tracer's own measured cost per span.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from typing import Callable


class Node:
    __slots__ = ("name", "parent", "children", "calls", "total_ns", "self_ns")

    def __init__(self, name: str, parent: "Node | None"):
        self.name = name
        self.parent = parent
        self.children: dict[str, Node] = {}
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0

    def path(self) -> tuple[str, ...]:
        names = []
        node = self
        while node.parent is not None:
            names.append(node.name)
            node = node.parent
        return tuple(reversed(names))


class SpanRecorder:
    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self.root = Node("", None)
        # Open spans, innermost last, as parallel stacks of nodes, start
        # times and ns covered by finished children.  The root stays at the
        # bottom.  Unlike a record per span, pushing onto them allocates
        # nothing the garbage collector tracks.
        self._nodes = [self.root]
        self._starts = [0]
        self._covered = [0]
        # Tracer cost per span in ns (see calibrate): `inside` falls within
        # the span's own clock reads, `outside` in its parent's self time.
        self.inside_ns = 0.0
        self.outside_ns = 0.0

    def enter(self, name: str) -> None:
        parent = self._nodes[-1]
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = Node(name, parent)
        self._nodes.append(node)
        self._covered.append(0)
        self._starts.append(self._clock())

    def exit(self) -> None:
        duration = self._clock() - self._starts.pop()
        node = self._nodes.pop()
        node.calls += 1
        node.total_ns += duration
        node.self_ns += duration - self._covered.pop()
        self._covered[-1] += duration

    def wrap(self, name: str, fn):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced

    def nodes(self):
        pending = list(self.root.children.values())
        while pending:
            node = pending.pop()
            yield node
            pending.extend(node.children.values())

    def net_self_ns(self, node: Node) -> float:
        """Self time of a node less the tracer cost of its own and its direct children's spans."""
        direct = sum(child.calls for child in node.children.values())
        return max(0.0, node.self_ns - self.inside_ns * node.calls - self.outside_ns * direct)

    def totals(self, name: str) -> tuple[int, float]:
        """(calls, net self ns) of every span called `name`, whatever its parent."""
        calls = own = 0
        for node in self.nodes():
            if node.name == name:
                calls += node.calls
                own += self.net_self_ns(node)
        return calls, own

    def span_count(self) -> int:
        return sum(node.calls for node in self.nodes())

    def calls_within(self, name: str, ancestor: str) -> int:
        """Calls of `name` made, at any depth, inside a span called `ancestor`."""
        return sum(
            node.calls for node in self.nodes() if node.name == name and ancestor in node.path()[:-1]
        )

    def dump(self, path) -> None:
        records = sorted(
            (
                {
                    "path": ">".join(node.path()),
                    "calls": node.calls,
                    "total_ns": node.total_ns,
                    "self_ns": node.self_ns,
                    "net_self_ns": self.net_self_ns(node),
                }
                for node in self.nodes()
            ),
            key=lambda r: r["path"],
        )
        payload = {"span_cost_ns": {"inside": self.inside_ns, "outside": self.outside_ns}, "spans": records}
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")


def _noop(a, b, c):
    return None


CALIBRATION_CALLS, CALIBRATION_TRIALS = 20000, 7


def calibrate() -> tuple[float, float]:
    """Tracer cost per span, (inside_ns, outside_ns), as medians over trials.

    A wrapped three-argument no-op is called CALIBRATION_CALLS times inside
    one parent span.  Its self time beyond a bare call of the no-op is the
    inside cost; the parent's self time beyond an empty loop is the outside
    cost.
    """
    clock = time.perf_counter_ns
    inside, outside = [], []
    for _ in range(CALIBRATION_TRIALS):
        start = clock()
        for _ in range(CALIBRATION_CALLS):
            pass
        empty = clock() - start
        start = clock()
        for _ in range(CALIBRATION_CALLS):
            _noop(1, 2, 3)
        bare = clock() - start
        recorder = SpanRecorder(clock)
        wrapped = recorder.wrap("noop", _noop)
        recorder.enter("parent")
        for _ in range(CALIBRATION_CALLS):
            wrapped(1, 2, 3)
        recorder.exit()
        parent = recorder.root.children["parent"]
        inside.append((parent.children["noop"].self_ns - (bare - empty)) / CALIBRATION_CALLS)
        outside.append((parent.self_ns - empty) / CALIBRATION_CALLS)
    return max(0.0, statistics.median(inside)), max(0.0, statistics.median(outside))


def public_functions(module):
    """Functions a module defines at top level under a name without a leading underscore."""
    for name, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
            yield name, obj


def instrument(recorder: SpanRecorder, package: str, names) -> Callable[[], None]:
    """Wrap the functions of `package` whose span name is in `names`, in every module that binds them.

    A span is named "<defining module>.<function>".  Modules bind each
    other's functions with `from .x import f`, so patching only the defining
    module would miss those calls.  Returns a callable that restores the
    originals.
    """
    modules = [m for key, m in sorted(sys.modules.items()) if key == package or key.startswith(package + ".")]
    wrappers = {}
    for module in modules:
        short = module.__name__.rpartition(".")[2]
        for name, fn in public_functions(module):
            span = f"{short}.{name}"
            if span in names:
                wrappers[id(fn)] = (fn, recorder.wrap(span, fn))
    patched = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))

    def restore():
        for module, attr, value in patched:
            setattr(module, attr, value)

    return restore
