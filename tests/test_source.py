"""Guards on the package source itself."""

from __future__ import annotations

import ast
import collections
import pathlib
import re

import pytest

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


def _imports_from(importer: str, layer: str) -> list:
    """Lines of aspw/<importer>.py that import anything of aspw.<layer>."""
    path = pathlib.Path(aspw.__file__).parent / f"{importer}.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names = {alias.name for alias in node.names}
            if (module in (f".{layer}", f"aspw.{layer}")
                    or module in (".", "aspw") and layer in names):
                found.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(alias.name.startswith(f"aspw.{layer}") for alias in node.names):
                found.append(node.lineno)
    return found


def test_oracle_imports_nothing_from_asext():
    # the brute-force oracle checks asext's answers, so it may not share
    # asext's code; importing any of it, even lazily, would
    assert _imports_from("oracle", "asext") == []


def test_addpoly_imports_nothing_from_upoly():
    # additive polynomials rest on gf alone: additive_eval takes any value
    # with a ctx, so addpoly needs no polynomial or rational-function class
    assert _imports_from("addpoly", "upoly") == []


def test_package_stays_within_the_line_ceiling():
    # ROADMAP.md caps src/aspw for this round; a change that needs more
    # lines removes some first
    total = sum(path.read_bytes().count(b"\n") for path in SOURCES)
    assert total <= 5565, (f"src/aspw has {total} lines, over the 5,565-line "
                           "ceiling that ROADMAP.md sets for this round")


def test_no_module_imports_dataclasses():
    # import dataclasses pulls in inspect, which a worker pays for in
    # import time and peak RSS; the package's records are NamedTuples
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Import)
                    and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_oracle_check_decomposes_each_spec_in_one_batch():
    # the places where u is regular share their verdict rows only within
    # one call, so cli's oracle check makes one call per spec
    path = pathlib.Path(aspw.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), str(path))
    check = next(fn for fn in tree.body
                 if isinstance(fn, ast.FunctionDef) and fn.name == "_oracle_check")
    called = [node.func.attr for node in ast.walk(check)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)]
    assert "place_decompositions" in called and "place_decomposition" not in called


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


def test_verify_oracle_takes_the_shared_residue_fields():
    # a ResidueField built per command would redo its orbit pass, image
    # scan and fibre tables; cli reads the process's fields instead
    path = pathlib.Path(aspw.__file__).parent / "cli.py"
    found = [node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "ResidueField"]
    assert found == []
    assert "oracle.residue_field(" in path.read_text()


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


def test_only_the_packed_kernels_pack_integers():
    # one helper per idea: prime-field polynomial products and divisions
    # pack their codes into integers in gf's one kernel pair and nowhere else
    kernels = {"_pack", "_unpack", "_packed_mul", "_packed_divmod"}
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        owners = {id(node): fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("from_bytes", "to_bytes"):
                found.append((path.name, owners.get(id(node))))
    assert [f for f in found if f[0] != "gf.py" or f[1] not in kernels] == []
    assert {owner for _, owner in found} == kernels  # the guard still sees them


def test_no_prime_field_reaches_the_zech_loop(monkeypatch):
    # the log-domain loop serves only extension fields; every prime field
    # multiplies, divides, takes gcds and inverts mod on packed integers
    from aspw import gf
    from aspw.upoly import Poly, poly_gcd, poly_inverse_mod

    def zech_loop(*args):
        raise AssertionError("a polynomial kernel ran the Zech-logarithm loop")

    monkeypatch.setattr(gf._Tables, "_add_scaled", zech_loop)
    for p in (2, 3, 5, 7, 17, 257, 65521, 4294967291):
        ctx = gf.make_field(p, 1)
        a = Poly(ctx, [ctx.from_int(c) for c in (3, 1, 4, 1, 5, 9, 2, 6)])
        m = Poly(ctx, [ctx.from_int(c) for c in (2, 7, 1, 8)])
        assert divmod(a * m, m) == (a, Poly(ctx))
        poly_gcd(a, m)
        poly_inverse_mod(a, m)
    # the guard still sees the loop where it runs
    f9 = gf.make_field(3, 2)
    with pytest.raises(AssertionError, match="Zech"):
        Poly(f9, [f9.gen(), f9.one()]) * Poly(f9, [f9.one(), f9.gen()])


def _function_owners(tree) -> dict:
    """id(node) -> name of the module-level function or class it sits in."""
    return {id(node): top.name for top in tree.body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) for node in ast.walk(top)}


def test_one_square_and_multiply_loop():
    # one helper per idea: every power by squaring goes through gf.power,
    # whose loop halves its exponent with the package's only `e >>= 1`
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        owners = _function_owners(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.RShift):
                found.append((path.name, owners.get(id(node))))
    assert found == [("gf.py", "power")]


def test_one_replayable_reduction_log():
    # one-variable and Witt-vector reductions share asext's log class
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(fn, ast.FunctionDef) and fn.name == "replay" for fn in node.body):
                found.append(f"{path.stem}.{node.name}")
    assert found == ["asext.SubstitutionLog"]


def test_one_reduction_entry_point_per_generator_kind():
    # one function per generator kind builds a reduction log; power descent
    # is a flag of that function, for f(y) = u as for Witt vectors
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        owners = _function_owners(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "SubstitutionLog"):
                found.append(f"{path.stem}.{owners.get(id(node))}")
    assert sorted(found) == ["asext.reduce_global", "witt.witt_reduce"]


def test_one_writer_of_the_kept_decomposition():
    # a RatFunc keeps its decomposition in the slot _pf.  upoly._keep is its
    # one writer; partial_fractions serves it only after a check (the
    # recombination of a computed one, the shape of a carried one), and
    # RatFunc.scale_const reads it only to carry a scaled copy.  Any other
    # reader or writer could serve or store a decomposition nothing checked
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        owners = _function_owners(tree)
        methods = {id(node): fn.name for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for fn in cls.body if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        slots = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for stmt in cls.body if isinstance(stmt, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets)
                 for node in ast.walk(stmt.value)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_pf":
                kind = "write" if isinstance(node.ctx, ast.Store) else "read"
            elif isinstance(node, ast.Constant) and node.value == "_pf" and id(node) not in slots:
                kind = "read"  # getattr(u, "_pf", None); any other use is one entry more
            else:
                continue
            owner = ".".join(filter(None, (owners.get(id(node)), methods.get(id(node)))))
            found.append((path.name, owner, kind))
    assert sorted(found) == [("upoly.py", "RatFunc.scale_const", "read"),
                             ("upoly.py", "_keep", "write"),
                             ("upoly.py", "partial_fractions", "read")]


def test_no_dead_api():
    # every module-level function and class of the package, and every
    # method, is named somewhere outside its own definition, in the package
    # or in perfbench; Python itself calls the dunder methods
    bench = sorted((pathlib.Path(__file__).parents[1] / "perfbench").glob("*.py"))
    words = collections.Counter(word for path in SOURCES + bench
                                for word in re.findall(r"\w+", path.read_text()))
    unused = []
    for path in SOURCES:
        lines = path.read_text().splitlines()
        tops = [node for node in ast.parse("\n".join(lines), str(path)).body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        methods = [fn for cls in tops if isinstance(cls, ast.ClassDef)
                   for fn in cls.body if isinstance(fn, ast.FunctionDef)]
        for node in tops + methods:
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
            own = re.findall(rf"\b{node.name}\b", "\n".join(lines[start:node.end_lineno]))
            if words[node.name] == len(own):
                unused.append(node.name)
    assert bench and unused == []


def test_every_record_field_is_read():
    # every field of a NamedTuple record of the package is read as an
    # attribute somewhere in the package or in perfbench; a field that
    # nothing reads is stored for no one
    bench = sorted((pathlib.Path(__file__).parents[1] / "perfbench").glob("*.py"))
    trees = [ast.parse(path.read_text(), str(path)) for path in SOURCES + bench]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = [f"{cls.name}.{stmt.target.id}" for tree in trees[:len(SOURCES)]
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              and any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in cls.bases)
              for stmt in cls.body if isinstance(stmt, ast.AnnAssign)]
    assert bench and fields  # the guard still sees the records
    assert [f for f in fields if f.partition(".")[2] not in read] == []


def _unused_imports(source: str, name: str) -> list:
    """Names that a module-level import of the source binds and that nothing
    reads: not the code, not an annotation (a string one included) and not
    __all__."""
    tree = ast.parse(source, name)
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound[alias.asname or alias.name.partition(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                bound[alias.asname or alias.name] = stmt.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns]
    for ann in annotations:
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                 for t in stmt.targets)):
            used |= {node.value for node in ast.walk(stmt.value) if isinstance(node, ast.Constant)}
    return [f"{name}:{line} {word}" for word, line in bound.items() if word not in used]


def test_no_unused_module_level_import():
    # an import that nothing reads costs import time in every worker and
    # hides which layer a module leans on
    found = [hit for path in SOURCES for hit in _unused_imports(path.read_text(), path.name)]
    assert found == []
    # the guard still sees a leftover import, and an annotation as a use
    asext_src = (pathlib.Path(aspw.__file__).parent / "asext.py").read_text()
    assert _unused_imports("import math\n" + asext_src, "asext.py") == ["asext.py:1 math"]
    assert _unused_imports("from x import A, B\ndef f(a: A) -> 'list[B]': pass\n", "m") == []
