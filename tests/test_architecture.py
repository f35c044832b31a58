"""Layout rules of the library, checked on its source."""

import ast
import dataclasses
import pathlib

import pytest

import mkdiv

SRC = pathlib.Path(mkdiv.__file__).parent

# where the library may ask whether a law is empirical: the law's own module,
# and the spec renderer, which names the kind
ALLOWED = {("distributions.py", None), ("specs.py", "render_distribution")}


def empirical_type_tests(source: str):
    """(outermost enclosing function, line) of each ``isinstance(x, ...)``
    whose types name ``Empirical``, plainly, through a module or in a tuple."""
    hits, scope = [], []

    class Finder(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            scope.append(node.name)
            self.generic_visit(node)
            scope.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Call(self, node):
            if (isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                    and len(node.args) == 2):
                names = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
                names |= {n.attr for n in ast.walk(node.args[1]) if isinstance(n, ast.Attribute)}
                if "Empirical" in names:
                    hits.append((scope[0] if scope else None, node.lineno))
            self.generic_visit(node)

    Finder().visit(ast.parse(source))
    return hits


def test_the_finder_sees_every_spelling():
    source = (
        "def f(d):\n"
        "    return isinstance(d, Empirical)\n"
        "class C:\n"
        "    def g(self, d):\n"
        "        return isinstance(d, (Normal, distributions.Empirical))\n"
        "ok = isinstance(x, Normal)\n"
    )
    assert empirical_type_tests(source) == [("f", 2), ("g", 5)]


def json_layouts(source: str):
    """Sorted lines of the functions and methods named ``to_json_dict``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == "to_json_dict"
    )


def test_the_layout_finder_sees_methods_and_functions():
    source = (
        "class C:\n"
        "    def to_json_dict(self):\n"
        "        return {}\n"
        "def to_json_dict(x):\n"
        "    return {}\n"
        "def to_json(x):\n"
        "    return {}\n"
    )
    assert json_layouts(source) == [2, 4]


def test_only_the_cli_lays_out_json():
    # result objects are plain data; cli.py builds every payload from their fields
    found = [
        (path.name, line)
        for path in sorted(SRC.glob("*.py"))
        for line in json_layouts(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_only_the_law_asks_whether_it_is_empirical():
    # every other module reads a law through its methods: atoms,
    # _upper_quantile, quantile, cdf and mean
    found = [
        (path.name, func, line)
        for path in sorted(SRC.glob("*.py"))
        for func, line in empirical_type_tests(path.read_text(encoding="utf-8"))
        if (path.name, None) not in ALLOWED and (path.name, func) not in ALLOWED
    ]
    assert found == []


# where the library may import scipy: the two oracle solvers that need it,
# so that a process that never calls them never loads scipy
SCIPY_ALLOWED = {("transport.py", "oracle_optimal"), ("transport.py", "_oracle_lp")}


def scipy_imports(source: str):
    """(enclosing top-level function or None, line) of each import of
    ``scipy`` or a submodule, in any spelling; an import inside a class, or
    in a function nested in one, has no top-level function."""
    hits, scope = [], []

    class Finder(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            scope.append(node.name)
            self.generic_visit(node)
            scope.pop()

        visit_AsyncFunctionDef = visit_FunctionDef
        visit_ClassDef = visit_FunctionDef

        def visit_Import(self, node):
            self.record(node, [alias.name for alias in node.names])

        def visit_ImportFrom(self, node):
            self.record(node, [node.module or ""] if node.level == 0 else [])

        def record(self, node, modules):
            if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                top = scope[0] if scope else None
                hits.append((top if top in top_level else None, node.lineno))

    tree = ast.parse(source)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    top_level = {n.name for n in tree.body if isinstance(n, functions)}
    Finder().visit(tree)
    return hits


def test_the_scipy_finder_sees_every_spelling():
    source = (
        "import scipy\n"
        "from scipy.optimize import linprog\n"
        "def f():\n"
        "    import numpy, scipy.optimize as so\n"
        "    def g():\n"
        "        from scipy import special\n"
        "class C:\n"
        "    def f(self):\n"
        "        from scipy.optimize import linear_sum_assignment\n"
        "from scipyish import x\n"
        "from .scipy import y\n"
    )
    assert scipy_imports(source) == [(None, 1), (None, 2), ("f", 4), ("f", 6), (None, 9)]


def test_only_the_oracle_solvers_import_scipy():
    # numpy serves every other path: a default verify, and every other
    # subcommand, load no scipy module
    found = [
        (path.name, func, line)
        for path in sorted(SRC.glob("*.py"))
        for func, line in scipy_imports(path.read_text(encoding="utf-8"))
        if (path.name, func) not in SCIPY_ALLOWED
    ]
    assert found == []


def describe_calls(source: str):
    """(innermost enclosing function or None, line) of each ``x.describe()``
    call."""
    hits, scope = [], []

    class Finder(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            scope.append(node.name)
            self.generic_visit(node)
            scope.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Call(self, node):
            if isinstance(node.func, ast.Attribute) and node.func.attr == "describe":
                hits.append((scope[-1] if scope else None, node.lineno))
            self.generic_visit(node)

    Finder().visit(ast.parse(source))
    return hits


def test_the_describe_finder_sees_every_call():
    source = (
        "class C:\n"
        "    def describe(self):\n"
        "        return f'c[{self.inner.describe()}]'\n"
        "def certify(score):\n"
        "    return Result(score=score.describe())\n"
        "name = Score().describe()\n"
        "def describe_all(items):\n"
        "    return [describe(x) for x in items]\n"
    )
    assert describe_calls(source) == [("describe", 3), ("certify", 5), (None, 6)]


def test_only_describe_methods_and_the_cli_call_describe():
    # a result holds what its call computed; the name of the score or
    # functional it ran on is the caller's, and the cli renders it
    found = [
        (path.name, func, line)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "cli.py"
        for func, line in describe_calls(path.read_text(encoding="utf-8"))
        if func != "describe"
    ]
    assert found == []


@pytest.mark.parametrize(
    "result, names",
    [
        (mkdiv.CouplingReport, ["value", "plan", "method"]),
        (mkdiv.transport.CertificationResult, ["max_deviation", "passed"]),
        (mkdiv.AxiomReport, ["checks"]),
        (mkdiv.WorstCaseSolution,
         ["lambda_star", "worst_quantile", "worst_value", "divergence_at_solution", "binding"]),
        (mkdiv.PayoffSolution,
         ["lambda_star", "payoff_quantile", "cost", "divergence_at_solution", "binding",
          "nonneg_violation"]),
    ],
)
def test_results_hold_only_what_their_call_computed(result, names):
    # the arguments of the call (score, seed, tolerance, budget, ...) stay
    # with the caller
    assert [f.name for f in dataclasses.fields(result)] == names
