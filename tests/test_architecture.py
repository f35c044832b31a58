"""Layout rules of the library, checked on its source."""

import ast
import dataclasses
import importlib
import json
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
SCIPY_ALLOWED = {("transport.py", "_optimal_assignments"), ("transport.py", "_oracle_lp")}


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


# what a fresh interpreter has loaded after running some statements: the
# mkdiv submodules by name, and "scipy" for any scipy module
LOADED = (
    "\nimport json, sys\n"
    "print(json.dumps(sorted({m[6:] if m.startswith('mkdiv.') else 'scipy' for m in sys.modules\n"
    "                         if m.startswith(('mkdiv.', 'scipy.')) or m == 'scipy'})))\n"
)
MAIN = "import io\nfrom mkdiv import cli\nassert cli.main({!r}, out=io.StringIO()) == 0\n"

# each subcommand, the module that runs it and the modules it must not load
SUBCOMMANDS = [
    (["divergence", "--score", "score:bregman,phi=quadratic", "--from", "normal:mu=0,sigma=1",
      "--to", "normal:mu=1,sigma=2"], "transport", {"functionals", "robust", "payoff", "scipy"}),
    (["verify", "--score", "score:gpl,alpha=0.9,g=identity"],
     "transport", {"functionals", "robust", "payoff", "scipy"}),
    (["worst-case", "--phi", "phi:quadratic", "--distortion", "distortion:dualpower,k=2",
      "--ref", "uniform:a=0,b=1", "--eps", "0.03"],
     "robust", {"scores", "transport", "functionals", "scipy"}),
    (["payoff", "--phi", "phi:quadratic", "--benchmark", "uniform:a=0,b=1",
      "--market", "market:spd=uniform:a=0,b=1;r=0;T=1", "--eps", "0.02"],
     "payoff", {"scores", "transport", "functionals", "scipy"}),
    (["elicit-check", "--functional", "functional:mean", "--score", "score:bregman,phi=quadratic",
      "--dist", "normal:mu=0,sigma=1"], "functionals", {"transport", "robust", "payoff", "scipy"}),
    (["axioms", "--functional", "functional:expectile,alpha=0.3", "--seed", "3"],
     "functionals", {"transport", "robust", "payoff", "scipy"}),
]


@pytest.fixture
def loaded(run_python):
    """The modules a fresh interpreter has loaded after ``statements``."""

    def run(statements: str) -> set:
        proc = run_python("-c", statements + LOADED)
        assert proc.returncode == 0, proc.stderr
        return set(json.loads(proc.stdout))

    return run


def test_importing_the_package_loads_no_module(loaded):
    assert loaded("import mkdiv") == set()


def test_importing_the_cli_loads_only_what_parsing_needs(loaded):
    assert loaded("import mkdiv.cli") == {"cli", "errors", "numerics"}


@pytest.mark.parametrize("argv, runner, forbidden", SUBCOMMANDS,
                         ids=[argv[0] for argv, _, _ in SUBCOMMANDS])
def test_a_subcommand_loads_only_the_modules_it_runs(argv, runner, forbidden, loaded):
    modules = loaded(MAIN.format(argv))
    assert runner in modules
    assert modules & forbidden == set()


# one parse per spec kind and the exact modules it loads: its own, and what
# they import
SPEC_KINDS = [
    ("parse_distribution('normal:mu=0,sigma=1')", {"distributions", "numerics"}),
    ("parse_generator('phi:quadratic')", {"generators", "numerics"}),
    ("parse_distortion('distortion:dualpower,k=2')", {"generators", "numerics"}),
    ("parse_score('score:gpl,alpha=0.9,g=identity')", {"scores", "generators", "numerics"}),
    ("parse_functional('functional:shortfall,loss=power')",
     {"functionals", "scores", "distributions", "generators", "numerics"}),
    ("parse_market('market:spd=uniform:a=0,b=1;r=0;T=1')",
     {"payoff", "robust", "distributions", "generators", "numerics"}),
]


@pytest.mark.parametrize("call, modules", SPEC_KINDS,
                         ids=[call.split("(")[0] for call, _ in SPEC_KINDS])
def test_a_spec_kind_loads_only_its_own_modules(call, modules, loaded):
    assert loaded(f"from mkdiv import specs\nspecs.{call}\n") == {"specs", "errors", *modules}


def test_every_public_name_is_its_module_object():
    # importing every module binds each name wherever it is defined or
    # imported; the package resolves each name to that one object
    modules = [importlib.import_module(f"mkdiv.{path.stem}")
               for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
    for name in mkdiv.__all__:
        bound = [vars(module)[name] for module in modules if name in vars(module)]
        assert bound and all(obj is getattr(mkdiv, name) for obj in bound), name
    assert len(set(mkdiv.__all__)) == len(mkdiv.__all__) == 84


def test_star_import_dir_and_submodules_resolve(run_python):
    proc = run_python("-c", (
        "import mkdiv\n"
        "assert set(mkdiv.__all__) <= set(dir(mkdiv))\n"
        "assert mkdiv.transport.__name__ == 'mkdiv.transport'\n"
        "from mkdiv import *\n"
        "assert all(globals()[name] is getattr(mkdiv, name) for name in mkdiv.__all__)\n"
    ))
    assert proc.returncode == 0, proc.stderr


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


def fold_references(source: str):
    """(innermost enclosing function or None, line) of each reference to
    ``_fold``: a call, a bare name, an attribute or an import."""
    hits, scope = [], []

    class Finder(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            scope.append(node.name)
            self.generic_visit(node)
            scope.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Name(self, node):
            if node.id == "_fold" and isinstance(node.ctx, ast.Load):
                self.record(node)

        def visit_Attribute(self, node):
            if node.attr == "_fold":
                self.record(node)
            self.generic_visit(node)

        def visit_ImportFrom(self, node):
            if any(alias.name == "_fold" for alias in node.names):
                self.record(node)

        def record(self, node):
            hits.append((scope[-1] if scope else None, node.lineno))

    Finder().visit(ast.parse(source))
    return hits


def test_the_fold_finder_sees_every_spelling():
    source = (
        "from .numerics import _fold\n"
        "def _fold(a):\n"
        "    return a\n"
        "def pairwise_sum(a):\n"
        "    return _fold(a)\n"
        "class S:\n"
        "    def add(self, b):\n"
        "        return numerics._fold(b)\n"
        "fold = _fold\n"
        "_fold_count = 0\n"
    )
    assert fold_references(source) == [(None, 1), ("pairwise_sum", 5), ("add", 8), (None, 9)]


def test_only_pairwise_sum_folds():
    # every reduction, the blocked ones included, goes through pairwise_sum,
    # which fixes the summation tree and which a tracer can wrap
    found = [
        (path.name, func, line)
        for path in sorted(SRC.glob("*.py"))
        for func, line in fold_references(path.read_text(encoding="utf-8"))
        if (path.name, func) != ("numerics.py", "pairwise_sum")
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


def check_calls(source: str):
    """(innermost enclosing function or None, callee, keyword, value) of each
    keyword argument of a call to a ``_check_*`` function, plainly or
    through a module."""
    hits, scope = [], []

    class Finder(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            scope.append(node.name)
            self.generic_visit(node)
            scope.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Call(self, node):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name.startswith("_check_"):
                hits.extend((scope[-1] if scope else None, name, kw.arg, ast.unparse(kw.value))
                            for kw in node.keywords)
            self.generic_visit(node)

    Finder().visit(ast.parse(source))
    return hits


def test_the_check_finder_sees_every_spelling():
    source = (
        "def _cmd_a(args):\n"
        "    _check_size('grid', 2, m=args.grid_m)\n"
        "    numerics._check_count('x', 0, seed=args.seed, n=n)\n"
        "    functional._check_law(dist)\n"
        "    check_size('grid', 2, m=m)\n"
        "_check_tolerance('t', tol=1.0)\n"
    )
    assert check_calls(source) == [
        ("_cmd_a", "_check_size", "m", "args.grid_m"),
        ("_cmd_a", "_check_count", "seed", "args.seed"),
        ("_cmd_a", "_check_count", "n", "n"),
        (None, "_check_tolerance", "tol", "1.0"),
    ]


def test_the_cli_checks_only_the_flags_it_reads_itself():
    # every other flag goes to a library call, which checks it on every
    # input it takes: --grid-m, say, is checked by the law reading its atoms
    assert check_calls((SRC / "cli.py").read_text(encoding="utf-8")) == [
        ("_cmd_elicit_check", "_check_tolerance", "tol", "args.tol"),
        ("_cmd_axioms", "_check_count", "seed", "args.seed"),
        ("_cmd_axioms", "_check_size", "size", "args.size"),
    ]


# where the library may sort: the law's one sort of samples, which every
# reader of sorted atoms shares, and three sorts of things that are not
# samples: the lattice grids, a permutation and the matching's stable order
SORT_ALLOWED = {
    ("distributions.py", "_sorted_sample"),
    ("scores.py", "check_submodular"),
    ("transport.py", "coupling_value"),
    ("transport.py", "_sorted_matching"),
}


def named_calls(source: str, names):
    """(innermost enclosing function or None, line) of each call of a
    function or method named in ``names``, plainly, through a module or on
    an object."""
    hits, scope = [], []

    class Finder(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            scope.append(node.name)
            self.generic_visit(node)
            scope.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Call(self, node):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name in names:
                hits.append((scope[-1] if scope else None, node.lineno))
            self.generic_visit(node)

    Finder().visit(ast.parse(source))
    return hits


def test_the_sort_finder_sees_every_spelling():
    source = (
        "def f(x):\n"
        "    return np.sort(x)\n"
        "def g(x):\n"
        "    return numpy.sort(x, kind='stable')\n"
        "class C:\n"
        "    def h(self, x):\n"
        "        x.sort()\n"
        "        return np.argsort(x)\n"
        "y = sort(x)\n"
        "z = sorted(x)\n"
    )
    assert named_calls(source, {"sort", "argsort"}) == [
        ("f", 2), ("g", 4), ("h", 7), ("h", 8), (None, 9)]


def test_one_sort_orders_every_sample():
    # numpy's default sort picks its kernel by CPU and may mix tied zeros;
    # samples are sorted only by the law's stable sort
    found = [
        (path.name, func, line)
        for path in sorted(SRC.glob("*.py"))
        for func, line in named_calls(path.read_text(encoding="utf-8"), {"sort", "argsort"})
        if (path.name, func) not in SORT_ALLOWED
    ]
    assert found == []


def method_definitions(source: str):
    """{class name: (names of its bases, names of the methods it defines)}
    for each class of ``source``."""
    return {
        node.name: ({ast.unparse(b) for b in node.bases},
                    {f.name for f in node.body
                     if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))})
        for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)
    }


def test_the_method_finder_and_the_call_finder_see_every_spelling():
    source = (
        "class Mean(Functional):\n"
        "    def evaluate(self, dist):\n"
        "        return _mean_scores(dist)\n"
        "    async def describe(self):\n"
        "        return 'mean'\n"
        "    kind = 'mean'\n"
        "class Outer(base.Functional, Mixin):\n"
        "    def _evaluate_rows(self, rows):\n"
        "        return functionals._mean_scores(rows)\n"
        "def _mean_scores(z):\n"
        "    return z\n"
        "x = _mean_scores\n"
    )
    assert method_definitions(source) == {
        "Mean": ({"Functional"}, {"evaluate", "describe"}),
        "Outer": ({"base.Functional", "Mixin"}, {"_evaluate_rows"}),
    }
    assert named_calls(source, {"_mean_scores"}) == [("evaluate", 3), ("_evaluate_rows", 9)]


def test_one_evaluation_path_per_functional():
    # an atom functional defines only its kernel on rows of sorted atoms,
    # which the base evaluate runs on one law's atoms; a law reader defines
    # only evaluate, which the base row loop calls on each row's law
    source = (SRC / "functionals.py").read_text(encoding="utf-8")
    paths = {
        name: methods & {"evaluate", "_evaluate_rows"}
        for name, (bases, methods) in method_definitions(source).items()
        if "Functional" in bases
    }
    functional = importlib.import_module("mkdiv.functionals").Functional
    assert set(paths) == {c.__name__ for c in functional.__subclasses__()}
    assert paths == {
        "Mean": {"evaluate"},
        "Quantile": {"evaluate"},
        "LambdaQuantile": {"evaluate"},
        "Expectile": {"_evaluate_rows"},
        "Shortfall": {"_evaluate_rows"},
        "Entropic": {"_evaluate_rows"},
    }


def test_one_objective_for_the_argmin():
    # the grid and the end game minimise one objective, which maps a
    # non-finite mean to inf in one place
    source = (SRC / "functionals.py").read_text(encoding="utf-8")
    defined = {node.name for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_finite_or_inf", "_one_mean_score"}
    assert {func for func, _ in named_calls(source, {"_mean_scores"})} == {
        "expected_score", "_objective"}
