"""The README's Python examples run as written, and the docs name only code that exists."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import lcdunkl

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
MODULES = {m.name: importlib.import_module(f"lcdunkl.{m.name}") for m in pkgutil.iter_modules(lcdunkl.__path__)}


def resolves(module, name: str) -> bool:
    """name is defined in module or in a class of it; a dotted name's head may be an lcdunkl module to look in.

    A function or class imported from elsewhere does not count: it must have been defined in module.
    """
    head, _, rest = name.partition(".")
    if head in MODULES:
        return not rest or resolves(MODULES[head], rest)
    if rest:
        return False
    classes = [c for _, c in inspect.getmembers(module, inspect.isclass) if c.__module__ == module.__name__]
    obj = vars(module).get(name)
    imported = (inspect.isroutine(obj) or inspect.isclass(obj)) and obj.__module__ != module.__name__
    return (name in vars(module) and not imported) or any(hasattr(c, name) or name in getattr(c, "__dataclass_fields__", ()) for c in classes)


def readme_references():
    """Every `module.name` (or `lcdunkl.module.name`) in an inline code span of README.md, outside code blocks."""
    text = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.M | re.S)
    refs = set()
    for span in re.findall(r"`([^`\n]+)`", text):
        for module, name in re.findall(r"\b(?:lcdunkl\.)?(\w+)\.(\w+)", span):
            if module in MODULES:
                refs.add(f"{module}.{name}")
    return sorted(refs)


def docstring_references():
    """Every `name` or ``name`` (dotted or not) in the docstring of an lcdunkl module, as (module, name)."""
    refs = set()
    for module_name, module in MODULES.items():
        doc = ast.get_docstring(ast.parse(Path(module.__file__).read_text())) or ""
        refs.update((module_name, name) for _, name in re.findall(r"(`+)([A-Za-z_][\w.]*)\1", doc))
    return sorted(refs)


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS)
def test_readme_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_references_are_found_and_a_missing_name_is_not():
    assert "transform._lcdt_folded" in readme_references() and ("specfun", "_clenshaw") in docstring_references()
    assert not resolves(MODULES["specfun"], "_no_such_table") and not resolves(MODULES["paleywiener"], "to_csv")
    # a name counts only where it is defined, not in a module that imports it
    assert resolves(MODULES["transform"], "_lcdt_lp_norms") and not resolves(MODULES["operators"], "_lcdt_lp_norms")
    assert not resolves(MODULES["sobolev"], "lcdt_forward") and not resolves(MODULES["operators"], "_FOLD_ROWS")


@pytest.mark.parametrize("ref", readme_references())
def test_readme_names_only_code_that_exists(ref):
    module, name = ref.split(".")
    assert resolves(MODULES[module], name), ref


@pytest.mark.parametrize("module, name", docstring_references())
def test_module_docstrings_name_only_code_that_exists(module, name):
    assert resolves(MODULES[module], name), (module, name)
