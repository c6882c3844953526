"""Self-time arithmetic of the span tracer."""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402


def test_self_time_on_a_synthetic_tree():
    # 0: root [0, 10]; 1: [1, 4] and 2: [3, 6] overlap under the root;
    # 3: [2, 3] under 1; 4: [9, 12] under the root, clipped at its end
    start = [0.0, 1.0, 3.0, 2.0, 9.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    assert spans.self_times(start, end, parent) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_sequential_children_sum_to_parent():
    start = [0.0, 0.5, 2.0, 2.5]
    end = [5.0, 1.5, 4.0, 3.0]
    parent = [-1, 0, 0, 2]
    selfs = spans.self_times(start, end, parent)
    assert sum(selfs) == pytest.approx(5.0)
    assert selfs == pytest.approx([2.0, 1.0, 1.5, 0.5])


def fake_modules() -> dict:
    """Stand-ins for the hopcav modules, binding every name in PATCHES."""
    modules = {name: types.SimpleNamespace() for name in ("cli", "engine", "stability")}
    for module, attr, _ in spans.PATCHES:
        setattr(modules[module], attr, lambda *args, **kwargs: None)
    return modules


def test_installed_wrappers_nest_and_restore():
    modules = fake_modules()
    inner_mod = modules["cli"]
    outer_mod = modules["engine"]

    def solve_lyapunov(x):
        return types.SimpleNamespace(residual_norm=x)

    def run_point(x):
        return outer_mod.solve_lyapunov(x).residual_norm

    inner_mod.run_point = run_point
    outer_mod.solve_lyapunov = solve_lyapunov
    tracer = spans.Tracer()
    with spans.installed(tracer, modules):
        assert inner_mod.run_point(3e-12) == 3e-12
        assert inner_mod.run_point(1e-12) == 1e-12
    assert inner_mod.run_point is run_point
    assert outer_mod.solve_lyapunov is solve_lyapunov

    totals = tracer.layer_totals()
    assert totals["engine.run_point"]["calls"] == 2
    assert totals["lyapunov.solve"]["calls"] == 2
    assert list(tracer.parent) == [-1, 0, -1, 2]
    run_point_total = totals["engine.run_point"]["s"]
    accounted = totals["engine.run_point"]["self_s"] + totals["lyapunov.solve"]["self_s"]
    assert accounted == pytest.approx(run_point_total)
    assert tracer.counters["lyapunov.worst_residual"] == 3e-12


def test_layer_totals_within_a_span():
    tracer = spans.Tracer()
    solve = tracer.wrap("lyapunov.solve", lambda: None)
    run_point = tracer.wrap("engine.run_point", solve)

    def main():
        run_point()
        solve()

    tracer.wrap("cli", main)()
    assert tracer.layer_totals()["lyapunov.solve"]["calls"] == 2
    inside = tracer.layer_totals("engine.run_point")
    assert set(inside) == {"engine.run_point", "lyapunov.solve"}
    assert inside["lyapunov.solve"]["calls"] == 1
    total = sum(v["self_s"] for v in inside.values())
    assert total == pytest.approx(inside["engine.run_point"]["s"])


def test_installed_refuses_a_missing_binding():
    modules = fake_modules()
    solve = modules["engine"].solve_lyapunov
    del modules["engine"].is_hurwitz
    with pytest.raises(LookupError, match="hopcav.engine.is_hurwitz"):
        with spans.installed(spans.Tracer(), modules):
            pass
    assert modules["engine"].solve_lyapunov is solve
