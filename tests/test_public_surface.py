"""The public surface: each module's __all__, re-exported by the package."""

import ast
import importlib
import inspect
import pkgutil
import textwrap

import pytest

import chancap

# The modules the package re-exports; numeric's helpers stay in chancap.numeric.
REEXPORTED = ("arimoto", "backward_em", "channel", "errors", "infogeo", "probability", "verify")
MODULES = {info.name: importlib.import_module(f"chancap.{info.name}") for info in pkgutil.iter_modules(chancap.__path__)}
DECLARING = {name: module.__all__ for name, module in MODULES.items() if hasattr(module, "__all__")}


def test_every_declaring_module_is_reexported_but_numeric():
    assert set(DECLARING) == {*REEXPORTED, "numeric"}


def test_no_name_is_declared_by_two_modules():
    # A star re-export would let the later module's name shadow the earlier's.
    owners: dict[str, str] = {}
    for module, names in DECLARING.items():
        assert len(set(names)) == len(names), module
        for name in names:
            assert owners.setdefault(name, module) == module, (name, owners[name], module)


def test_the_package_exports_the_union_of_the_modules_lists():
    union = [(name, module) for module in REEXPORTED for name in DECLARING[module]]
    assert chancap.__all__ == sorted(name for name, _ in union)
    for name, module in union:
        assert getattr(chancap, name) is getattr(MODULES[module], name)
    assert not set(DECLARING["numeric"]) & set(dir(chancap))


@pytest.mark.parametrize("name", chancap.__all__)
def test_every_public_name_has_a_docstring_of_its_own(name):
    # Read from the source, so the docstring dataclass or NamedTuple
    # generates from the fields does not count.
    node = ast.parse(textwrap.dedent(inspect.getsource(getattr(chancap, name)))).body[0]
    assert ast.get_docstring(node), name
