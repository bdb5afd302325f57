"""src/symq: every import used, none samples, none asserts, one factors, one axiom pass,
one reader of the boundary, one lister of subgroups, one place that builds the CLI parser,
one builder of the fiber-table layout, one gluing path of affine tables, one guard of the
glued table in wells.py, one check of a dynamical cocycle's glued table, one caller of the
constructor that skips that check, one symmetry search with three callers, and modules.py
below cohomology.py."""

import ast
from pathlib import Path

import pytest

import symq

SRC = Path(symq.__file__).parent
# imported only so that callers can keep importing them from this module
REEXPORTS = {"wells.py": {"coboundary_witness"}}


def unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - REEXPORTS.get(path.name, set()))


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def imported_modules(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_random(path):
    # every verdict covers its whole domain, so the library never samples
    assert "random" not in imported_modules(path)


def test_the_check_sees_a_nested_random_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("def f():\n    from random import Random\n    return Random\n")
    assert imported_modules(path) == {"random"}


def symq_imports(path):
    """The symq modules a file imports, relatively or through the package name, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names if a.name.startswith("symq.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "symq":
                    continue
                module = module[len("symq."):]
            names |= {module.split(".")[0]} if module else {a.name for a in node.names}
    return names


def test_modules_sits_below_cohomology():
    # a module keeps its own pieces; cohomology and wells read them through _kept
    assert symq_imports(SRC / "modules.py") <= {"abelian", "errors", "racks"}


def test_the_check_sees_an_import_from_above(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import os.path\n"
        "import symq.wells\n"
        "from . import limits\n"
        "from .abelian import AbHom\n"
        "from symq import dynamical\n\n"
        "def pieces(m):\n"
        "    from symq.cohomology import _kept_delta\n"
        "    from .cohomology import _witness_map\n"
        "    return _kept_delta(m, 1, 0), _witness_map(m, 1, 'sr')\n"
    )
    assert symq_imports(path) == {"abelian", "cohomology", "dynamical", "limits", "wells"}


def has_assert(path):
    return any(isinstance(node, ast.Assert) for node in ast.walk(ast.parse(path.read_text())))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_asserts(path):
    # python -O strips assert statements; every verification is an explicit raise
    assert not has_assert(path)


def test_the_check_sees_a_nested_assert(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("class C:\n    def f(self, x):\n        assert x, 'never under -O'\n")
    assert has_assert(path)


def test_the_check_sees_an_unused_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import os\nimport sys.path\nfrom a import b as c, d\n\nprint(sys, d)\n")
    assert unused_imports(path) == ["c", "os"]


def elimination_calls(path):
    """Lines calling smith_normal_form: by name, as an attribute or under an import alias."""
    tree = ast.parse(path.read_text())
    names = {"smith_normal_form"} | {
        a.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for a in node.names if a.name == "smith_normal_form" and a.asname
    }
    return sorted(
        node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) in names or getattr(node.func, "attr", None) in names)
    )


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "abelian.py"),
    ids=lambda p: p.name,
)
def test_one_elimination_core(path):
    # every factorization goes through abelian.py, where the pins watch it;
    # __init__.py only re-exports smith_normal_form
    assert elimination_calls(path) == []


def test_the_check_sees_a_second_elimination_path(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from . import abelian\n"
        "from .abelian import smith_normal_form as snf\n\n"
        "def f(M):\n"
        "    return abelian.smith_normal_form(M), snf(M)\n"
    )
    assert elimination_calls(path) == [5, 5]


def call_sites(path, name):
    """(enclosing definition, line) of each call to name, aliases included."""
    tree = ast.parse(path.read_text())
    names = {name} | {
        a.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for a in node.names if a.name == name and a.asname
    }
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            func = getattr(child, "func", None) if isinstance(child, ast.Call) else None
            if getattr(func, "id", None) in names or getattr(func, "attr", None) in names:
                found.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(tree, ())
    return sorted(found)


def callers_in_src(name):
    """(file name, enclosing definition) of each call to name in src/symq."""
    return {(path.name, scope) for path in SRC.glob("*.py") for scope, _ in call_sites(path, name)}


def test_one_axiom_pass_per_cocycle():
    # a DynamicalCocycle is valid by construction, so nothing else reruns the
    # axioms; the CLI's validate action reports on tables it never builds
    callers = callers_in_src("dynamical_diagnostics")
    assert callers == {("dynamical.py", "DynamicalCocycle.__init__"), ("cli.py", "cmd_dynamical")}


def test_the_check_sees_a_second_axiom_pass(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from . import dynamical\n"
        "from .dynamical import dynamical_diagnostics as axioms\n\n"
        "class C:\n"
        "    def __init__(self, X):\n"
        "        dynamical.dynamical_diagnostics(X)\n\n"
        "def build(dc):\n"
        "    return [axioms(dc)]\n"
    )
    assert call_sites(path, "dynamical_diagnostics") == [("C.__init__", 6), ("build", 9)]


def test_one_check_of_the_glued_table():
    # a dynamical cocycle's glued table is written by _glue and checked by the
    # rack and good-involution checks once, in dynamical_diagnostics;
    # build_extension reads a table its cocycle's constructor already checked
    assert callers_in_src("rack_diagnostics") == {
        ("racks.py", "validate_rack"), ("dynamical.py", "dynamical_diagnostics")}
    assert callers_in_src("good_involution_diagnostics") == {
        ("racks.py", "validate_good_involution"), ("racks.py", "enumerate_good_involutions"),
        ("dynamical.py", "dynamical_diagnostics")}
    assert callers_in_src("_glue") == {
        ("dynamical.py", "dynamical_diagnostics"), ("dynamical.py", "build_extension")}


def test_the_check_sees_a_second_check_of_the_glued_table(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from . import racks\n"
        "from .racks import good_involution_diagnostics as s123\n\n"
        "def build_extension(dc):\n"
        "    labels, table, rho = _glue(dc.base, dc.sizes, dc.alpha, dc.beta)\n"
        "    if racks.rack_diagnostics(table) or s123(table, rho):\n"
        "        raise ValueError('glued table')\n"
    )
    assert call_sites(path, "rack_diagnostics") == [("build_extension", 6)]
    assert call_sites(path, "good_involution_diagnostics") == [("build_extension", 6)]
    assert call_sites(path, "_glue") == [("build_extension", 5)]


def test_one_caller_skips_the_walk():
    # DynamicalCocycle._proven stores tables without walking them; only from_cocycle
    # holds the affine proof it needs, and nothing else runs that proof
    assert callers_in_src("_proven") == {("dynamical.py", "from_cocycle")}
    assert callers_in_src("_affine_axioms") == {("dynamical.py", "from_cocycle")}


def test_the_check_sees_a_second_caller_of_the_proven_constructor(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from .dynamical import DynamicalCocycle\n\n"
        "def from_cocycle(tables):\n"
        "    return DynamicalCocycle._proven(*tables)\n\n"
        "class Gauge:\n"
        "    def transport(self, dc, tables):\n"
        "        return type(dc)._proven(*tables)\n"
    )
    assert call_sites(path, "_proven") == [("Gauge.transport", 8), ("from_cocycle", 4)]


def test_one_symmetry_search():
    # automorphisms, gauge equivalence and the brute-force fiber symmetries
    # all run the one closure-order search of racks.py
    assert callers_in_src("_isomorphisms") == {
        ("racks.py", "enumerate_automorphisms"), ("dynamical.py", "are_cohomologous_dynamical"),
        ("wells.py", "brute_force_fiber_automorphisms")}


def test_the_check_sees_a_second_caller_of_the_search(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from . import racks\n"
        "from .racks import _isomorphisms as search\n\n"
        "def enumerate_automorphisms(X):\n"
        "    return list(racks._isomorphisms(X, X, 10))\n\n"
        "class Census:\n"
        "    def symmetries(self, S, T):\n"
        "        return next(search(S, T, 10), None)\n"
    )
    assert call_sites(path, "_isomorphisms") == [("Census.symmetries", 9), ("enumerate_automorphisms", 5)]


def test_one_statement_of_the_boundary():
    # delta, the cocycle reports and the d o d check all read the kept delta
    # rows, so the boundary formula is expanded in one place
    readers = callers_in_src("boundary")
    assert readers == {("cohomology.py", "_delta_rows")}


def test_the_check_sees_a_second_boundary_reader(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from . import cohomology\n"
        "from .cohomology import boundary as d\n\n"
        "def _delta_rows(X):\n"
        "    return cohomology.boundary(X, 2, (0, 0))\n\n"
        "def verify(X, tuples):\n"
        "    return [d(X, 3, t) for t in tuples]\n"
    )
    assert call_sites(path, "boundary") == [("_delta_rows", 5), ("verify", 8)]


def test_one_gluing_path():
    # affine tables are glued only by from_cocycle, which checks the module
    # and the cocycle before them and the dynamical axioms on them
    callers = callers_in_src("affine_tables")
    assert callers == {("dynamical.py", "from_cocycle")}


def test_the_check_sees_a_second_gluing_path(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from . import dynamical\n"
        "from .dynamical import affine_tables as tables\n\n"
        "def build_abelian_extension(m, sigma):\n"
        "    return DynamicalCocycle(m.base, *tables(m, sigma))\n\n"
        "class E:\n"
        "    def glue(self):\n"
        "        return dynamical.affine_tables(self.m, self.sigma)\n"
    )
    assert call_sites(path, "affine_tables") == [("E.glue", 9), ("build_abelian_extension", 5)]


def test_one_guard_of_the_glued_table():
    # every reader of E's table refuses an infinite fiber group through
    # _glued; module_automorphisms refuses free rank two, a different rule
    raisers = {scope for scope, _ in call_sites(SRC / "wells.py", "InfiniteGroupUnsupported")}
    assert raisers == {"_glued", "module_automorphisms"}


def test_the_check_sees_a_second_guard(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from . import errors\n"
        "from .errors import InfiniteGroupUnsupported as Infinite\n\n"
        "def _glued(ext):\n"
        "    if ext.extension is None:\n"
        "        raise Infinite('no table')\n"
        "    return ext.extension\n\n"
        "class Lift:\n"
        "    def __call__(self, i):\n"
        "        if self.perm is None:\n"
        "            raise errors.InfiniteGroupUnsupported('no table')\n"
        "        return self.perm[i]\n"
    )
    assert call_sites(path, "InfiniteGroupUnsupported") == [("Lift.__call__", 12), ("_glued", 6)]


def listings_in(path, func):
    """Lines of the named top-level function that list elements or hold a size literal.

    A listing is a call to subgroup_elements or to a group's elements(); a
    size literal is any integer constant above 1.
    """
    listed = [line for name in ("subgroup_elements", "elements")
              for scope, line in call_sites(path, name) if scope.split(".")[0] == func]
    node = next(n for n in ast.parse(path.read_text()).body if getattr(n, "name", None) == func)
    sizes = [n.lineno for n in ast.walk(node)
             if isinstance(n, ast.Constant) and type(n.value) is int and n.value > 1]
    return sorted(listed + sizes)


def test_one_lister_of_subgroups():
    # Z^1 is the only subgroup listed; solve reads the echelon basis instead
    callers = callers_in_src("subgroup_elements")
    assert callers == {("wells.py", "z1_elements")}
    assert listings_in(SRC / "abelian.py", "solve") == []


def test_the_check_sees_an_enumerating_solve(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from .abelian import subgroup_elements as listing\n\n"
        "def solve(f, b, x, ker):\n"
        "    def least(els):\n"
        "        return min(els + f.source.elements())\n"
        "    return least(listing(f.source, ker, cap=4096))\n"
    )
    assert listings_in(path, "solve") == [5, 6, 6]
    assert call_sites(path, "subgroup_elements") == [("solve", 6)]


def test_the_parser_is_built_on_request():
    # main builds the cached parser on the first request; a module-level
    # build would be paid by every import of symq.cli
    callers = callers_in_src("_build_parser")
    assert callers == {("cli.py", "main")}


def test_the_check_sees_a_parser_built_at_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from .cli import _build_parser as build\n\n"
        "PARSER = build()\n\n"
        "def main(argv):\n"
        "    return _build_parser().parse_args(argv)\n"
    )
    assert call_sites(path, "_build_parser") == [("", 3), ("main", 6)]


COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def for_depth(node):
    """Most `for` clauses on one path down the comprehensions under node."""
    inner = max((for_depth(child) for child in ast.iter_child_nodes(node)), default=0)
    return inner + len(node.generators) if isinstance(node, COMPREHENSIONS) else inner


def deep_comprehensions(path):
    """(enclosing definition, line) of each outermost comprehension four `for` levels deep."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
            elif isinstance(child, COMPREHENSIONS) and for_depth(child) >= 4:
                found.append((".".join(scope), child.lineno))
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return sorted(found)


def test_one_builder_of_the_fiber_tables():
    # alpha[x][y][s][t] is laid out in one place; affine tables, gauge
    # transport and regluing each pass it a formula for one entry
    builders = {(path.name, scope) for path in SRC.glob("*.py")
                for scope, _ in deep_comprehensions(path)}
    assert builders == {("dynamical.py", "_fiber_tables")}


def test_the_check_sees_a_second_table_builder(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "def gauge(n, f):\n"
        "    cube = [[[f(x, y, s) for s in n] for y in n] for x in n]\n"
        "    return [[[[f(x, y, s, t) for t in n] for s in n]\n"
        "             for y in n] for x in n], cube\n\n"
        "class C:\n"
        "    def reglue(self, n, f):\n"
        "        return {(x, y): [f(s, t) for s in n for t in n] for x in n for y in n}\n\n"
        "TABLE = [f(x, y, s, t) for x in n for y in n for s in n for t in n]\n"
    )
    assert deep_comprehensions(path) == [("", 10), ("C.reglue", 8), ("gauge", 3)]
