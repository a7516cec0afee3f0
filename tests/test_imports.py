"""No module or function imports a name that it never uses, no module of
the package defines one that nothing reads, the modules that build and
emit problems load neither the solver machinery nor numpy, and no
function of the modules that walk LTL bodies calls itself.

An unused import hides a dependency that is gone, or a test that was
meant to use it.  The package's ``__init__.py`` imports only to re-export,
so it is left out.  A module-level function, class or constant that no
module of the package, the tests or the benchmark reads, other than in its
own definition, is dead code.
"""

import ast
import builtins
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import make_stub_solver

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "hypersat").glob("*.py"))
MODULES = sorted([p for p in PACKAGE if p.name != "__init__.py"]
                 + list((ROOT / "tests").glob("*.py")))
READERS = PACKAGE + sorted((ROOT / "tests").glob("*.py")) \
    + sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each import whose name is never read in the scope
    that imports it: the module, or a function and the functions nested
    in it."""
    tree = ast.parse(source)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, functions)]
    unused = []
    for scope in scopes:
        bound = {}
        stack = list(scope.body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = \
                        node.lineno
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
            elif not isinstance(node, functions + (ast.ClassDef,)):
                stack.extend(ast.iter_child_nodes(node))
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        unused += [(line, name) for name, line in bound.items()
                   if name not in used]
    return sorted(unused)


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys as system\nfrom a.b import c, d as e\n" \
             "print(system, e.f)\n"
    assert unused_imports(source) == [(1, "os"), (3, "c")]


def test_the_check_sees_an_unused_import_in_a_function():
    source = """
def f():
    import os
    from a import b, c
    if os:
        import json
    def g():
        import re
        return b
    return g

def h():
    return json.dumps(c)
"""
    # a name that only another function reads is unused where it is
    # imported, and a nested function's read counts for its encloser
    assert unused_imports(source) == [(4, "c"), (6, "json"), (8, "re")]


@pytest.mark.parametrize("path", MODULES,
                         ids=[f"{p.parent.name}/{p.name}" for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def names_read(node) -> set:
    """The names node reads: names and attributes it loads, names it
    imports, and strings that are identifiers, as getattr and
    monkeypatch.setattr take them."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            names.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and n.value.isidentifier():
            names.add(n.value)
    return names


@functools.cache
def names_read_in(path: Path) -> frozenset:
    return frozenset(names_read(ast.parse(path.read_text())))


def defined_names(statement) -> list:
    """The functions, classes and constants a module-level statement
    defines, but dunders such as __all__."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) \
            else [statement.target]
        names = [n.id for t in targets for n in ast.walk(t)
                 if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def dead_definitions(source: str, read_elsewhere: set) -> list:
    """(line, name) of each module-level definition of source whose name
    neither read_elsewhere nor another statement of source reads."""
    body = ast.parse(source).body
    reads = [names_read(statement) for statement in body]
    dead = []
    for i, statement in enumerate(body):
        for name in defined_names(statement):
            if name not in read_elsewhere and not any(
                    name in r for j, r in enumerate(reads) if j != i):
                dead.append((statement.lineno, name))
    return dead


def test_the_check_sees_a_dead_definition():
    source = ("import os\nLIMIT = 3\n_A, B = 1, 2\n__all__ = ['h']\n"
              "def f(n):\n    return f(n - 1) if n else LIMIT\n"
              "def g():\n    return os.sep\nclass K:\n    B = 0\n"
              "def h():\n    pass\n")
    # f only calls itself, and K's own B is not the module's; g is read
    # in another module, and h by its name in __all__, which is exempt
    assert dead_definitions(source, {"g"}) == [(3, "_A"), (3, "B"),
                                                (5, "f"), (9, "K")]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[p.name for p in PACKAGE])
def test_no_dead_definitions(path):
    read_elsewhere = set()
    for reader in READERS:
        if reader != path:
            read_elsewhere |= names_read_in(reader)
    assert dead_definitions(path.read_text(), read_elsewhere) == []


def self_reaching_functions(source: str) -> list:
    """The qualified names of the functions of a module that reach
    themselves through calls inside it, sorted.

    A function reaches every function it names, called or not, so an alias
    such as ``step = self.walk`` counts: a bare name reaches the nested
    function of that name in an enclosing function, or else the module's
    function or class of that name (a class reaches its __init__ and
    __new__), and an attribute reaches every method of that name in the
    module, but on a builtin (``tuple.__new__``) or on ``super()``.
    """
    tree = ast.parse(source)
    scopes = {}  # qualified name -> (function node, enclosing qualified names)
    methods = {}  # method name -> qualified names
    top = {}  # module-level name -> qualified names it reaches

    def collect(body, prefix, enclosing, in_class):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + node.name
                scopes[name] = (node, enclosing)
                if in_class:
                    methods.setdefault(node.name, []).append(name)
                elif not prefix:
                    top[node.name] = [name]
                collect(node.body, name + ".", [name] + enclosing, False)
            elif isinstance(node, ast.ClassDef):
                if not prefix:
                    top[node.name] = [f"{node.name}.{m}"
                                      for m in ("__init__", "__new__")]
                collect(node.body, prefix + node.name + ".", enclosing, True)

    collect(tree.body, "", [], False)

    def own_nodes(func):
        """The nodes of func's body, without those of nested definitions."""
        stack = list(func.body)
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef, ast.Lambda)):
                stack.extend(ast.iter_child_nodes(node))
            elif isinstance(node, ast.Lambda):
                stack.append(node.body)

    edges = {}
    for name, (func, enclosing) in scopes.items():
        reached = set()
        for node in own_nodes(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                nested = [f"{outer}.{node.id}" for outer in [name] + enclosing
                          if f"{outer}.{node.id}" in scopes]
                reached.update(nested[:1] or top.get(node.id, ()))
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                owner = node.value
                if isinstance(owner, ast.Name) and hasattr(builtins, owner.id) \
                        or isinstance(owner, ast.Call) \
                        and getattr(owner.func, "id", None) == "super":
                    continue
                reached.update(methods.get(node.attr, ()))
        edges[name] = reached & scopes.keys()

    found = []
    for name in scopes:
        seen, stack = set(), list(edges[name])
        while stack:
            callee = stack.pop()
            if callee not in seen:
                seen.add(callee)
                stack.extend(edges[callee])
        if name in seen:
            found.append(name)
    return sorted(found)


def test_the_check_sees_self_reaching_functions():
    source = """
def direct(n):
    return direct(n - 1) if n else 0

def ping(n):
    return pong(n)

def pong(n):
    return ping(n - 1) if n else 0

def outer(xs):
    def walk(x):
        return [walk(y) for y in x]
    return walk(xs)

class Tree:
    def __new__(cls, kids):
        return tuple.__new__(cls, kids)

    def __init__(self, kids):
        super().__init__()

    def size(self):
        return 1 + sum(k.size() for k in self)

    def depth(self):
        step = self.depth
        return 1 + max(step() for _ in self)

def leaf(n):
    return n

def caller(n):
    walk = lambda t: t.size()
    return leaf(n) + walk(Tree([]))
"""
    # caller reaches the recursive Tree.size but not itself; __new__ and
    # __init__ name their base's methods, not their own
    assert self_reaching_functions(source) == [
        "Tree.depth", "Tree.size", "direct", "outer.walk", "ping", "pong"]


# the modules whose functions walk LTL bodies
BODY_WALKERS = ["formula.py", "automaton.py", "kernel.py"]


@pytest.mark.parametrize("name", BODY_WALKERS)
def test_no_function_reaches_itself(name):
    # a body as deep as the input cannot cost Python frames
    source = (ROOT / "src" / "hypersat" / name).read_text()
    assert self_reaching_functions(source) == []


_WORKER_IMPORTS = """
import sys
from hypersat import (automaton, emit, encoder, fol, formula, kernel, oracle,
                      pipeline)
print("hypersat.solvers" in sys.modules)
from hypersat import Verdict
print("hypersat.solvers" in sys.modules, Verdict.SAT.value)
"""


def test_building_problems_does_not_import_the_solvers():
    # the solver machinery (subprocess, signal, configparser, ...) loads
    # where a portfolio runs, in pipeline.solve; hypersat.Verdict lives in
    # fol, beside the problems it answers
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", _WORKER_IMPORTS], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.split("\n")[:2] == ["False", "False sat"]


_GEN_SUITE = """
import sys
from hypersat import cli
code = cli.main(["gen", "handcrafted", "--case", "gni_leak"])
print(code, [name in sys.modules
             for name in ("hypersat.solvers", "subprocess")])
import hypersat
from hypersat import bench, solvers
kinds = {type(case.expected) for family in bench.FAMILIES.values()
         for case in family()}
print(kinds == {solvers.Verdict} and hypersat.Verdict is solvers.Verdict)
"""


def test_bench_suites_do_not_import_the_solvers():
    # every suite's expected verdicts are the solvers' Verdict, which the
    # suites reach without the solver machinery
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", _GEN_SUITE], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-2:] == ["0 [False, False]", "True"]


_NUMPY_ON_USE = """
import sys
import hypersat
loaded = ["numpy" in sys.modules]
from hypersat import cli
phi = 'forall p. exists q. G ("a"_p <-> "a"_q)'
codes = [cli.main(["emit", "-f", phi, "-o", sys.argv[1]])]
machinery = [name in sys.modules for name in
             ("hypersat.solvers", "hypersat.bench", "concurrent.futures")]
codes.append(cli.main(["gen", "qn"]))
machinery.append("hypersat.solvers" in sys.modules)
codes.append(cli.main(["check", "-f", phi, "--config", sys.argv[2]]))
machinery.append("hypersat.solvers" in sys.modules)
loaded.append("numpy" in sys.modules)
codes.append(cli.main(["oracle", "-f", phi]))
loaded.append("numpy" in sys.modules)
found = hypersat.bounded_find_model(hypersat.parse(phi), 1, 0, 1)
names = [getattr(hypersat, name) for name in hypersat.__all__]
print(machinery)
print(loaded, codes, type(found).__name__, len(names))
"""


def test_numpy_loads_only_where_the_oracle_runs(tmp_path):
    # emit, gen and check never evaluate lassos; the oracle and the names
    # the package re-exports from it still work, and load numpy on use.
    # emit loads neither the solver machinery, nor the bench module and
    # its thread pool, and gen does not load the solver machinery either
    stub = make_stub_solver(tmp_path, "stub", "echo sat\n")
    config = tmp_path / "solvers.ini"
    config.write_text(f"[stub]\ncommand = {stub} {{input}}\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", _NUMPY_ON_USE,
                          str(tmp_path / "out.smt2"), str(config)],
                         env=env, capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-2:] == [
        "[False, False, False, False, True]",
        "[False, False, True] [0, 0, 0, 0] Found 10"]
