import sys
import types

import pytest

from spans import SpanRecorder, calibrate, instrument


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children_only():
    # outer [0,100] holds a [10,30] and b [40,90]; b holds c [50,60].
    rec = SpanRecorder(clock=FakeClock([0, 10, 30, 40, 50, 60, 90, 100]))
    rec.enter("outer")
    rec.enter("a")
    rec.exit()
    rec.enter("b")
    rec.enter("c")
    rec.exit()
    rec.exit()
    rec.exit()
    assert rec.totals("outer") == (1, 30)
    assert rec.totals("a") == (1, 20)
    assert rec.totals("b") == (1, 40)
    assert rec.totals("c") == (1, 10)


def test_net_self_time_removes_tracer_cost_per_span():
    # Same tree; each span costs 1 ns inside its clock reads and 2 ns in its parent.
    rec = SpanRecorder(clock=FakeClock([0, 10, 30, 40, 50, 60, 90, 100]))
    rec.inside_ns, rec.outside_ns = 1.0, 2.0
    rec.enter("outer")
    rec.enter("a")
    rec.exit()
    rec.enter("b")
    rec.enter("c")
    rec.exit()
    rec.exit()
    rec.exit()
    assert rec.totals("outer") == (1, 30 - 1 - 2 * 2)
    assert rec.totals("b") == (1, 40 - 1 - 2)
    assert rec.totals("c") == (1, 10 - 1)


def test_calibrated_span_cost_is_small_and_nonnegative():
    inside, outside = calibrate()
    assert 0.0 <= inside < 100_000 and 0.0 < outside < 100_000


def test_spans_aggregate_by_parent_and_count_within_ancestor():
    rec = SpanRecorder(clock=FakeClock(range(0, 1000, 5)))
    for _ in range(3):
        rec.enter("point")
        rec.enter("classify")
        rec.exit()
        rec.enter("entropy")
        rec.enter("classify")
        rec.exit()
        rec.exit()
        rec.exit()
    rec.enter("classify")
    rec.exit()
    assert sorted(node.path() for node in rec.nodes()) == [
        ("classify",),
        ("point",),
        ("point", "classify"),
        ("point", "entropy"),
        ("point", "entropy", "classify"),
    ]
    assert rec.totals("classify")[0] == 7
    assert rec.calls_within("classify", "point") == 6


@pytest.fixture
def fake_package():
    pkg = types.ModuleType("fakepkg")
    low = types.ModuleType("fakepkg.low")
    high = types.ModuleType("fakepkg.high")
    exec("def leaf(x):\n    return x + 1\n", low.__dict__)
    # `from .low import leaf`: high holds its own binding of the function.
    high.leaf = low.leaf
    exec("def top(x):\n    return leaf(x) * 2\n", high.__dict__)
    pkg.top = high.top
    modules = {"fakepkg": pkg, "fakepkg.low": low, "fakepkg.high": high}
    sys.modules.update(modules)
    yield pkg, low, high
    for name in modules:
        del sys.modules[name]


def test_instrument_wraps_every_binding_and_restores(fake_package):
    pkg, low, high = fake_package
    original_leaf = low.leaf
    rec = SpanRecorder()
    restore = instrument(rec, "fakepkg", {"high.top", "low.leaf"})
    try:
        assert pkg.top(1) == 4
    finally:
        restore()
    assert rec.totals("high.top")[0] == 1
    assert rec.calls_within("low.leaf", "high.top") == 1
    assert high.leaf is original_leaf and low.leaf is original_leaf
    pkg.top(1)
    assert rec.totals("high.top")[0] == 1


def test_instrument_wraps_only_the_named_functions(fake_package):
    pkg, low, high = fake_package
    rec = SpanRecorder()
    restore = instrument(rec, "fakepkg", {"high.top"})
    try:
        assert pkg.top(1) == 4
    finally:
        restore()
    assert rec.totals("high.top")[0] == 1
    assert rec.totals("low.leaf")[0] == 0


def test_every_spanned_name_is_a_spinosc_function():
    import spinosc.cli  # noqa: F401  (loads every module the CLI binds)
    from spans import public_functions
    from trace_run import SPANNED

    defined = {
        f"{key.rpartition('.')[2]}.{name}"
        for key, module in list(sys.modules.items())
        if key.startswith("spinosc.")
        for name, _ in public_functions(module)
    }
    assert SPANNED <= defined
