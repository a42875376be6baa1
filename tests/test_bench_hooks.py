"""The layer entry points that perfbench's tracer wraps still exist.

perfbench/spans.py names them by module and attribute; a rename or removal
here would break ``perfbench/run.py --trace 1`` without failing any other
test in this suite.  The module is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from monopoly_control import hamiltonian, strategy

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


def test_drawdown_controls_alias_is_traced():
    # the tracer finds hamiltonian.controls_at inside the drawdown by
    # identity under this alias
    assert strategy._h_controls is hamiltonian.controls_at
