"""The package keeps only what its own code runs or documents: every
top-level function and class, and every method that is not a dunder,
of ``src/multishift`` has a caller inside the package, is a name of
``multishift.__all__``, or is one of the names the benchmark's tracer
wraps.  Test references and input builders live in ``conftest.py``."""

import ast
from collections import Counter
from pathlib import Path

import multishift

SRC = Path(multishift.__file__).resolve().parent

# Names that perfbench/tracer.py lists in TARGETS and that no code in the
# package calls; the tracer looks each one up by name, so they stay until
# the tracer drops them.
TRACED = {"langmodel.weighted_count_ending_with", "langmodel.weighted_count_forbidden_suffix",
          "genfun.correlation_matrix", "ratfield.RatMat.inverse", "ratfield.RatMat.solve",
          "spectral.eigenvector_normalization"}


# Names with more than one definition in the package.  The scan matches
# uses by bare name, so a call of any one of them counts for all.  Each
# definition of these has a caller in the package, checked by hand, except
# ShiftSpec.to_json, which perfbench/gen.py calls to write its item sets.
SHARED = {"to_json", "word", "entry", "exact", "scalar", "entropy"}


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def used_names(trees) -> set[str]:
    """Every name the package reads, as a bare name or as an attribute;
    the names an import binds do not count."""
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def definitions(trees) -> list[str]:
    """``module.name`` of each top-level def and class and
    ``module.Class.method`` of each method that is not a dunder."""
    out = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append(f"{mod}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out += [f"{mod}.{node.name}.{m.name}" for m in node.body
                        if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__"))]
    return out


def test_every_definition_is_called_exported_or_traced():
    trees = _trees()
    used = used_names(trees)
    unreached = [name for name in definitions(trees)
                 if name.rsplit(".", 1)[1] not in used
                 and name.rsplit(".", 1)[1] not in multishift.__all__
                 and name not in TRACED]
    assert unreached == []


def test_every_shared_name_is_listed():
    # a new definition that shares a name hides behind the other one's
    # callers; check it by hand and list it in SHARED
    names = Counter(name.rsplit(".", 1)[1] for name in definitions(_trees()))
    assert {name for name, n in names.items() if n > 1} == SHARED


def test_the_traced_names_exist_and_are_uncalled():
    # a traced name that gained a caller, or went, leaves the allow-list
    trees = _trees()
    used, defined = used_names(trees), set(definitions(trees))
    assert TRACED <= defined
    assert not {name.rsplit(".", 1)[1] for name in TRACED} & used


def test_all_names_the_package_namespace():
    assert len(set(multishift.__all__)) == len(multishift.__all__)
    assert all(hasattr(multishift, name) for name in multishift.__all__)
