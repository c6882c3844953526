"""README.md names only what the package has: every backticked
``module.name`` whose module is a hopcav module, and every name of the
README's ``from hopcav import (...)`` block, resolves by ``getattr``.  So
does every ``:func:``, ``:class:``, ``:data:`` and ``:meth:`` reference of the
package's docstrings and comments."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import hopcav

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
MODULES = {info.name for info in pkgutil.iter_modules(hopcav.__path__)}
PACKAGE = Path(hopcav.__file__).parent


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


def cross_references() -> list[tuple[str, str]]:
    """(module, target) of every ``:func:``, ``:class:``, ``:data:`` and
    ``:meth:`` reference in the package's sources."""
    return [(path.stem, target) for path in sorted(PACKAGE.glob("*.py"))
            for target in re.findall(r":(?:func|class|data|meth):`~?([^`]+)`",
                                     path.read_text(encoding="utf-8"))]


def resolves(module: str, names: list[str]) -> bool:
    """Whether ``names`` is an attribute path of the hopcav module ``module``."""
    found = importlib.import_module(f"hopcav.{module}")
    for name in names:
        if not hasattr(found, name):
            return False
        found = getattr(found, name)
    return True


def test_the_sources_hold_cross_references():
    # the extraction itself works: without references the check passes vacuously
    assert len(cross_references()) >= 50


@pytest.mark.parametrize("module, target", cross_references())
def test_cross_reference_resolves(module, target):
    # relative to its own module, or as hopcav.module.name
    names = target.split(".")
    if names[0] == "hopcav" and len(names) > 2 and names[1] in MODULES:
        module, names = names[1], names[2:]
    assert resolves(module, names), f"{module}: {target}"
