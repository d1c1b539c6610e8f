"""Guards on the package source itself."""

from __future__ import annotations

import ast
import pathlib

import aspw

SOURCES = sorted(pathlib.Path(aspw.__file__).parent.glob("*.py"))


def test_no_tuple_of_a_generator_expression():
    # CPython 3.11 builds tuple(<generator>) in a 10-slot tuple and shrinks
    # it to size.  Freed, it joins the free list of its final size, which no
    # later tuple(<generator>) takes from, so each call on a per-query path
    # leaves one more entry there, up to the 2,000-entry cap, and peak RSS
    # grows with it.  tuple([...]) allocates the final size once.
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "tuple" and node.args
                    and isinstance(node.args[0], ast.GeneratorExp)):
                found.append(f"{path.name}:{node.lineno}")
    assert SOURCES and found == []


def test_oracle_imports_nothing_from_asext():
    # the brute-force oracle checks asext's answers, so it may not share
    # asext's code; importing any of it, even lazily, would
    path = pathlib.Path(aspw.__file__).parent / "oracle.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names = {alias.name for alias in node.names}
            if (module in (".asext", "aspw.asext")
                    or module in (".", "aspw") and "asext" in names):
                found.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(alias.name.startswith("aspw.asext") for alias in node.names):
                found.append(node.lineno)
    assert found == []


def test_only_the_oracle_builds_unchecked_places():
    # object.__new__(Place) skips Place()'s irreducibility test; only the
    # oracle's residue fields may do it, because each root they list
    # proves its place irreducible
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "__new__" and node.args
                    and isinstance(node.args[0], ast.Name) and node.args[0].id == "Place"):
                found.append(f"{path.name}:{node.lineno}")
    assert [f for f in found if not f.startswith("oracle.py:")] == []
    assert found  # the guard still sees the oracle's own use


def _calls_of(tree, name: str) -> list:
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name]


def test_field_arithmetic_takes_and_returns_codes():
    # every method of the two arithmetic classes works on int codes; only
    # the table build makes elements, the shared ones that it hands to
    # FieldCtx._elem, the one place where a result code becomes an element
    path = pathlib.Path(aspw.__file__).parent / "gf.py"
    tree = ast.parse(path.read_text(), str(path))
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    found = []
    for cls in ("_Tables", "_Digits"):
        for fn in classes[cls].body:
            if not isinstance(fn, ast.FunctionDef) or (cls, fn.name) == ("_Tables", "__init__"):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Name) and node.id == "FFElem"
                        or isinstance(node, ast.Attribute) and node.attr in ("elems", "_elem")):
                    found.append(f"{cls}.{fn.name}:{node.lineno}")
    assert found == []
    assert _calls_of(classes["_Tables"], "FFElem")  # the guard still sees the build


def test_polynomials_make_no_elements():
    # a Poly holds codes; elements come only from FieldCtx._elem at the
    # API boundary (leading(), values, display)
    path = pathlib.Path(aspw.__file__).parent / "upoly.py"
    assert _calls_of(ast.parse(path.read_text(), str(path)), "FFElem") == []
