"""The package keeps only what its own code runs or documents: every
top-level function and class, and every method that is not a dunder,
of ``src/multishift`` has a caller inside the package, is a name of
``multishift.__all__``, or is one of the names the benchmark's tracer
wraps.  A use is an attribute read (``x.name``) or a bare name that no
enclosing function binds, so a local named like a method keeps nothing
alive.  Test references and input builders live in ``conftest.py``."""

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
# uses by name, not by what they resolve to, so a call of any one of them
# counts for all.  Each definition of these has a caller in the package,
# checked by hand, except ShiftSpec.to_json, which perfbench/gen.py calls
# to write its item sets.
SHARED = {"to_json", "word", "entry", "exact", "scalar", "entropy"}


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def body_of(scope) -> list:
    """The nodes that run inside a function or comprehension scope; a
    function's decorators, defaults and annotations run outside it."""
    if isinstance(scope, COMPREHENSIONS):
        return list(ast.iter_child_nodes(scope))
    return scope.body if isinstance(scope.body, list) else [scope.body]


def local_names(scope) -> set[str]:
    """The names a function or comprehension scope binds: its parameters
    and every name its own body stores, defines, imports or catches,
    less the names it declares global or nonlocal.  Nested scopes are
    not entered."""
    names, free = set(), set()
    if isinstance(scope, FUNCTIONS):
        a = scope.args
        names |= {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x}
    todo = list(body_of(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            free |= set(node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if not isinstance(node, FUNCTIONS + COMPREHENSIONS + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(node))
    return names - free


def used_names(trees) -> set[str]:
    """Every name the package reads as an attribute (``x.name``), and every
    bare name it loads where no enclosing function binds it as a
    parameter or local; the names an import binds do not count."""
    used = set()

    def visit(node, bound: frozenset) -> None:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        children = list(ast.iter_child_nodes(node))
        if isinstance(node, FUNCTIONS + COMPREHENSIONS):
            body = body_of(node)
            for child in children:
                if not any(child is b for b in body):
                    visit(child, bound)
            bound, children = bound | local_names(node), body
        for child in children:
            visit(child, bound)

    for tree in trees.values():
        visit(tree, frozenset())
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


def test_a_local_named_like_a_definition_is_not_a_use():
    def uses(source: str) -> bool:
        return "derivative" in used_names({"m": ast.parse(source)})

    assert not uses("def derivative(): pass\n"
                    "def normalization(derivative):\n    return derivative\n"
                    "def report():\n    derivative = 1\n"
                    "    def inner():\n        return derivative\n"
                    "    return [derivative for derivative in ()], lambda derivative: derivative\n")
    assert uses("def f():\n    return x.derivative\n")
    assert uses("def f():\n    global derivative\n    derivative = 1\n    return derivative\n")
    # a default runs in the enclosing scope, which does not bind the name
    assert uses("def f(x=derivative):\n    derivative = 1\n")
