"""README.md names only what the package has: every backticked
``module.name`` whose module is a hopcav module, and every name of the
README's ``from hopcav import (...)`` block, resolves by ``getattr``."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import hopcav

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
MODULES = {info.name for info in pkgutil.iter_modules(hopcav.__path__)}


def dotted_names() -> list[str]:
    """``module.name`` of every inline code span of README.md that starts
    with ``module.name`` of a hopcav module."""
    # fenced blocks hold backticks of their own, which would pair with spans
    text = re.sub(r"```.*?```", "", README, flags=re.S)
    found = []
    for span in re.findall(r"`([^`]+)`", text):
        match = re.match(r"(\w+)\.(\w+)", span)
        if match and match[1] in MODULES:
            found.append(match[0])
    return sorted(set(found))


def imported_names() -> list[str]:
    """Every name of README.md's ``from hopcav import (...)`` block."""
    (block,) = re.findall(r"from hopcav import \((.*?)\)", README, flags=re.S)
    return [name for line in block.splitlines()
            for name in re.sub(r"#.*", "", line).replace(",", " ").split()]


def test_the_readme_names_some_of_each():
    # the extraction itself works: a README without these would pass vacuously
    assert len(dotted_names()) >= 10
    assert {"run_point", "stability_map"} <= set(imported_names())


@pytest.mark.parametrize("dotted", dotted_names())
def test_dotted_name_resolves(dotted):
    module, name = dotted.split(".")
    assert hasattr(importlib.import_module(f"hopcav.{module}"), name), dotted


@pytest.mark.parametrize("name", imported_names())
def test_imported_name_resolves(name):
    assert hasattr(hopcav, name), name
