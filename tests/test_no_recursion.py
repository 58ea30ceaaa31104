"""No function in ``algebra`` or ``dtree`` calls itself, directly or
through other functions of its module, except the sum-of-products normal
form behind ``algebra.equivalent`` and ``make_msum``'s one restart: every
walk over expressions or trees keeps its own stack, so a deep input does
not meet Python's recursion limit."""

import ast
import builtins
import pathlib

import pytest

import pvcdb

SRC = pathlib.Path(pvcdb.__file__).parent

ALLOWED = {
    "algebra.py": {"_clauses_key", "_side_key", "norm_semiring", "norm_semimodule", "make_msum"},
    "dtree.py": set(),
}


def _call_graph(tree):
    """Function name -> the names of the module's functions it calls.

    A module-level function calls another by its bare name; a method
    calls one by attribute (``self.f()``, ``child.f()``), as a method
    that recurses over child nodes does, unless the attribute is taken
    of an imported module or a builtin (``alg.f()``, ``dict.f()``).
    Calls inside nested functions count as calls of the function they
    are nested in."""
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    modules = set(dir(builtins)) | {
        alias.asname or alias.name
        for n in tree.body
        if isinstance(n, (ast.Import, ast.ImportFrom))
        for alias in n.names
    }
    methods = {}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for n in cls.body:
                if isinstance(n, ast.FunctionDef):
                    methods.setdefault(n.name, []).append(n)
    graph = {}
    for name, nodes in [(k, [v]) for k, v in functions.items()] + list(methods.items()):
        calls = graph.setdefault(name, set())
        for node in nodes:
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                if isinstance(f, ast.Name) and f.id in functions:
                    calls.add(f.id)
                elif (
                    isinstance(f, ast.Attribute)
                    and f.attr in methods
                    and node in methods.get(name, ())
                    and not (isinstance(f.value, ast.Name) and f.value.id in modules)
                ):
                    calls.add(f.attr)
    return graph


def _recursive(graph):
    """The functions that can reach themselves in ``graph``."""
    out = set()
    for start in graph:
        seen, todo = set(), list(graph[start])
        while todo:
            f = todo.pop()
            if f == start:
                out.add(start)
                break
            if f not in seen:
                seen.add(f)
                todo.extend(graph.get(f, ()))
    return out


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_only_the_normal_form_recurses(module):
    graph = _call_graph(ast.parse((SRC / module).read_text()))
    assert _recursive(graph) <= ALLOWED[module]


def test_the_check_sees_recursion():
    source = '''
from . import algebra as alg

def direct(e):
    return [direct(c) for c in e.parts]

def ping(e):
    return pong(e)

def pong(e):
    return ping(e) if e else 0

def compile(e):
    return Compiler().compile(e)

class Compiler:
    def substitute(self, e):
        return alg.substitute(e)

class Memo(dict):
    def __contains__(self, e):
        return dict.__contains__(self, e)

class Node:
    def occ(self):
        return sum(child.occ() for child in self.children())

    def compile(self, e):
        return e
'''
    graph = _call_graph(ast.parse(source))
    assert _recursive(graph) == {"direct", "ping", "pong", "occ"}
    recursive_here = _recursive(_call_graph(ast.parse((SRC / "algebra.py").read_text())))
    assert "make_msum" in recursive_here
