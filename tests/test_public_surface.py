"""The public surface: each module's __all__, re-exported by the package.

The package binds the names on first use, so the contract tests that need
the first lookup run in a fresh interpreter.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import pkgutil
import textwrap

import pytest

import chancap
from support import fresh_python

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


# The package's public names.  Removing one needs a deprecation note in
# README.md, which names what replaces it.
PUBLIC = [
    "AbsoluteContinuityViolation", "BackwardFamilyMember", "Bracket", "CapacityResult", "ChancapError", "Channel",
    "CircumcenterReport", "DimensionMismatch", "Distribution", "DroppedOutputColumnWarning",
    "GeometricMixtureResult", "InvalidDistribution", "IterationTrace", "JointDistribution", "MStepOutcome",
    "MStepStatus", "NegativeEntry", "NonInteriorInput", "ParameterOutOfRange", "ParseError", "ProductPoint",
    "RowNotStochastic", "Termination", "TooManyInputs", "TraceRecord", "approximate_m_step", "arimoto_step",
    "backward_e_member", "bec", "brute_force_capacity", "bsc", "capacity_bracket", "circumcenter_check",
    "converse_check", "e_project_to_channel", "exact_backward_m_step", "geometric_mixture_check",
    "identity_channel", "joint", "kl_divergence", "load_channel", "m_project_to_independence",
    "noisy_typewriter", "output_marginal", "per_input_divergences", "save_channel", "solve_arimoto",
    "solve_backward_em", "uniform_rows", "z_channel",
]


def test_the_public_names_are_pinned():
    assert len(PUBLIC) == 50
    assert chancap.__all__ == PUBLIC


@pytest.mark.parametrize(
    "name, module",
    [("marginals", "probability"), ("mutual_information", "probability"), ("canonical", "channel")],
)
def test_a_removed_name_is_gone(name, module):
    # Their replacements: m_project_to_independence for marginals, the
    # divergence from a joint to that projection for mutual_information,
    # and the constructor of each kind for canonical.
    assert not hasattr(chancap, name)
    assert not hasattr(MODULES[module], name)
    assert name not in DECLARING[module]


def test_a_channel_has_no_row_accessor():
    # Distribution(ch.matrix[x]) is the law of row x.
    assert not hasattr(chancap.Channel, "row")


def test_a_channel_is_its_matrix():
    # Labels for inputs or outputs are kept beside the channel.
    assert [f.name for f in dataclasses.fields(chancap.Channel)] == ["matrix"]
    identity = [[1.0, 0.0], [0.0, 1.0]]
    ch = chancap.Channel(identity)
    for field in ("input_labels", "output_labels"):
        assert not hasattr(ch, field)
        with pytest.raises(TypeError):
            chancap.Channel(identity, **{field: ("a", "b")})


@pytest.mark.parametrize("name", chancap.__all__)
def test_every_public_name_has_a_docstring_of_its_own(name):
    # Read from the source, so the docstring dataclass or NamedTuple
    # generates from the fields does not count.
    node = ast.parse(textwrap.dedent(inspect.getsource(getattr(chancap, name)))).body[0]
    assert ast.get_docstring(node), name


def test_a_fresh_import_loads_no_submodule():
    out = fresh_python("import json, sys, chancap; print(json.dumps(sorted(sys.modules)))")
    assert [name for name in json.loads(out) if name.startswith("chancap")] == ["chancap"]


def test_a_star_import_binds_exactly_all():
    # The star import is the package's first lookup, so it reads the __all__
    # that lookup binds.
    out = fresh_python(
        "import json\n"
        "namespace = {}\n"
        "exec('from chancap import *', namespace)\n"
        "print(json.dumps(sorted(set(namespace) - {'__builtins__'})))"
    )
    assert json.loads(out) == chancap.__all__


def loaded_submodules(code: str) -> list:
    """The chancap modules that a fresh interpreter has loaded after code."""
    out = fresh_python(f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)))")
    return [name for name in json.loads(out) if name.startswith("chancap")]


@pytest.mark.parametrize("module", ["arimoto", "numeric", "cli"])
def test_a_submodule_imports_from_the_package(module):
    assert fresh_python(f"from chancap import {module}; print({module}.__name__)").strip() == f"chancap.{module}"
    # The package's lookup of a module's name imports that module alone,
    # and what it imports, as `import chancap.<module>` does: a re-exported
    # module and one that is not alike.
    assert loaded_submodules(f"from chancap import {module}") == loaded_submodules(f"import chancap.{module}")
    assert chancap.__getattr__(module) is MODULES[module]


def test_dir_lists_every_public_name():
    out = fresh_python("import json, chancap; print(json.dumps(dir(chancap)))")
    assert set(chancap.__all__) <= set(json.loads(out))
    assert set(chancap.__all__) <= set(dir(chancap))


def test_an_unknown_name_raises_attribute_error():
    out = fresh_python(
        "import chancap\n"
        "try:\n"
        "    chancap.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)"
    )
    assert out.strip() == "module 'chancap' has no attribute 'no_such_name'"
    with pytest.raises(AttributeError):
        chancap.no_such_name
    assert not hasattr(chancap, "no_such_name")
