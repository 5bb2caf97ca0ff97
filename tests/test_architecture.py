"""Two design rules of the package, read from its source with ``ast``.

* Each module imports only the package modules listed for it in
  ``IMPORTS``, so the layering stays as documented.
* The closed-form route and the bimodule-tensor oracle share no code:
  nothing reachable from ``cobordism._closed_coeff`` through
  package-level names belongs to the oracle, and the oracle does not
  reach ``_closed_coeff``.

Reachability follows every name a module-level function or class body
loads, resolved through the module's own definitions and its imports
from the package (re-exports included).  A class counts as one node, so
reaching it reaches all of its methods.
"""

import ast
from pathlib import Path

import pytest

import abtqft

PACKAGE = Path(abtqft.__file__).resolve().parent

IMPORTS = {
    "__init__": set(),
    "value": set(),
    "cyclotomic": set(),
    "homology": {"value"},
    "surgery": {"cyclotomic"},
    "heisenberg": {"cyclotomic", "homology", "value"},
    "cobordism": {"cyclotomic", "heisenberg", "homology", "surgery",
                  "value"},
    "mcg": {"cyclotomic", "heisenberg", "homology", "value"},
    "cli": {"cobordism", "cyclotomic", "heisenberg", "mcg", "surgery",
            "value"},
}

ORACLE = {
    ("heisenberg", "induced_map_oracle"),
    ("heisenberg", "_tensor_quotient"),
    ("heisenberg", "_echelonize"),
    ("heisenberg", "right_act_boundary"),
    ("homology", "index2_correspondence"),
}
CLOSED = ("cobordism", "_closed_coeff")


def _trees(root=PACKAGE):
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(root.glob("*.py"))}


def imported_modules(tree):
    """The package modules a file imports, at any depth of the file,
    relative (``from .x import y``, ``from . import x``) or absolute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                parts = [node.module] if node.module else []
            elif (node.module or "").split(".")[0] == "abtqft":
                parts = node.module.split(".")[1:2]
            else:
                continue
            out.update(parts or [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names
                       if a.name.startswith("abtqft."))
    return out


def call_graph(trees):
    """{(module, name): set of (module, name)} over the module-level
    functions and classes of the package."""
    defs = {}
    aliases = {}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[(mod, node.name)] = node
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 \
                    and node.module:
                for a in node.names:
                    aliases[(mod, a.asname or a.name)] = (node.module, a.name)

    def resolve(key):
        seen = set()
        while key not in defs and key in aliases and key not in seen:
            seen.add(key)
            key = aliases[key]
        return key if key in defs else None

    graph = {}
    for (mod, name), node in defs.items():
        targets = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                hit = resolve((mod, sub.id))
                if hit is not None and hit != (mod, name):
                    targets.add(hit)
        graph[(mod, name)] = targets
    return graph


def reachable(graph, start):
    seen, todo = set(), [start]
    while todo:
        key = todo.pop()
        for nxt in graph.get(key, ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def test_every_module_has_an_import_rule():
    assert set(_trees()) == set(IMPORTS)


@pytest.mark.parametrize("module", sorted(IMPORTS))
def test_module_imports_only_its_listed_modules(module):
    assert imported_modules(_trees()[module]) <= IMPORTS[module]


def test_closed_route_and_oracle_share_no_code():
    graph = call_graph(_trees())
    assert CLOSED in graph and all(key in graph for key in ORACLE)
    closed = reachable(graph, CLOSED)
    # the closed route does reach the shared field arithmetic
    assert ("cyclotomic", "q_power") in closed
    assert not closed & ORACLE
    assert CLOSED not in reachable(graph, ("heisenberg",
                                           "induced_map_oracle"))
