"""The benchmark's span tracer (``perfbench/spans.py``) wraps names as they
are bound in ``hopcav.engine``, ``hopcav.stability`` and ``hopcav.cli``, and
refuses to run when one is missing; every binding it names must exist."""

import importlib

import pytest

# the benchmark's modules, from perfbench/ on the test path (pyproject.toml)
import spans


@pytest.mark.parametrize("module, name", [(m, n) for m, n, _ in spans.PATCHES],
                         ids=[f"{m}.{n}" for m, n, _ in spans.PATCHES])
def test_patched_name_is_bound(module, name):
    assert callable(getattr(importlib.import_module(f"hopcav.{module}"), name, None))
