"""The benchmark's span tracer (``perfbench/spans.py``) wraps names as they
are bound in ``hopcav.engine``, ``hopcav.stability`` and ``hopcav.cli``, and
refuses to run when one is missing; every binding it names must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("module, name", [(m, n) for m, n, _ in spans.PATCHES],
                         ids=[f"{m}.{n}" for m, n, _ in spans.PATCHES])
def test_patched_name_is_bound(module, name):
    assert callable(getattr(importlib.import_module(f"hopcav.{module}"), name, None))
