"""The layer entry points that perfbench's tracer wraps still exist, and
the calls its workloads make still bind.

perfbench/spans.py names them by module and attribute, and
perfbench/workloads.py calls them with fixed argument shapes.  A rename,
a removal or a signature change would also fail perfbench/tests, but
deep inside a workload run; these tests fail naming the broken binding
itself.  The spans module is loaded by path and only read.
"""

import importlib
import importlib.util
import inspect
import math
from pathlib import Path

import pytest

from monopoly_control import hamiltonian, oracle, strategy, value
from monopoly_control.config import load_problem
from monopoly_control.problem import ProblemSpec, validate_problem
from test_call_budget import HULL_POINTS

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_exist(spans):
    for mod_name, attr, _ in spans.TRACED_FUNCTIONS:
        mod = importlib.import_module(f"monopoly_control.{mod_name}")
        assert callable(getattr(mod, attr, None)), f"{mod_name}.{attr}"
    for mod_name, cls_name, attr, _ in spans.TRACED_METHODS:
        mod = importlib.import_module(f"monopoly_control.{mod_name}")
        assert attr in vars(getattr(mod, cls_name)), \
            f"{mod_name}.{cls_name}.{attr}"


def test_strategy_controls_alias_is_hamiltonians():
    # convexified_static reads hamiltonian.controls_at under this alias,
    # and perfbench's test_uninstall_restores_every_binding checks that
    # the tracer rebinds and restores it there
    assert strategy._h_controls is hamiltonian.controls_at


# (function, positional args, keyword args) as perfbench/workloads.py
# passes them; the values are placeholders, only the shape is bound
WORKLOAD_CALLS = (
    (hamiltonian.build_hamiltonian, ("p",), {}),
    (value.build_value, ("model",), {}),
    (strategy.static_optimality_test, ("p", "model"), {}),
    (strategy.convexified_static, ("p", "model"), {}),
    (strategy.relaxed_static, ("p", "model", "u_tilde"), {}),
    (hamiltonian.controls_at, ("model", "d"), {}),
    (oracle.dp_value, ("p",), {"x_max": 0.5}),
    (ProblemSpec, (), {"beta": "b", "demand_set": "q", "production_set": "a",
                       "revenue": "r", "cost": "c", "grid_n": "n"}),
)


@pytest.mark.parametrize("fn, args, kwargs", WORKLOAD_CALLS,
                         ids=[call[0].__name__ for call in WORKLOAD_CALLS])
def test_workload_call_shapes_bind(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


def test_traced_oracle_measures_bind(spans, linear_cost_problem):
    # the traced oracle run reads dp_value's arguments by name (problem,
    # nx, dt, x_max, na, nq) to size a sweep; renaming one would break
    # run.py --trace 1
    kwargs = dict(x_max=0.25, nx=64, dt=0.01, na=9, nq=9)
    dp = oracle.dp_value(linear_cost_problem, **kwargs)
    got = spans._dp_measures((linear_cost_problem,), kwargs, dp)
    assert got["oracle.sweeps"] == dp.iterations
    assert all(math.isfinite(got[k]) for k in ("oracle.sweeps",
                                               "oracle.bytes"))


@pytest.mark.parametrize("name", sorted(HULL_POINTS))
def test_traced_q_hi_is_the_demand_sets_top(configs_dir, name):
    # the tracer takes q_hi as the last of the revenue's points
    spec = load_problem(configs_dir / f"{name}.cfg")
    assert validate_problem(spec).q_grid[-1] == spec.demand_set.hi


@pytest.mark.parametrize("name", ["linear_cost", "table_curves"])
def test_traced_hull_points_count_the_samples(spans, configs_dir, name):
    # the hull measure counts len(args[0]), so every hull call must pass
    # its points first and positionally; one build is half of the
    # solve + simulate count in test_call_budget
    problem = load_problem(configs_dir / f"{name}.cfg")
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.current_op = 0
        hamiltonian.build_hamiltonian(problem)
    finally:
        tracer.uninstall()
    assert tracer.measures["envelope.hull_points"] == HULL_POINTS[name] / 2
