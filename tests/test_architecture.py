"""Layout rules of the library, its tests and its CI workflows, checked on
their source, and checks of the probes that ``conftest.py`` gives the tests.

A rule on the library's source is one ``match(node)`` generator, which
yields a record tuple for each AST node that breaks the rule, a scope mode
(:func:`innermost`, :func:`outermost` or :func:`top_level`), which names the
function a hit sits in, and a set of the (module, function) pairs where a hit
is allowed.  :func:`library_occurrences` runs the match over every module;
give the match a spelling test, which runs it through :func:`occurrences` on
one source that holds every spelling of its pattern.
"""

import ast
import dataclasses
import importlib
import json
import pathlib
import re
import sys

import numpy as np
import pytest

import mkdiv
from mkdiv import numerics

SRC = pathlib.Path(mkdiv.__file__).parent
LIBRARY = sorted(SRC.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def innermost(scopes):
    """The innermost function of ``scopes`` (the functions and classes
    enclosing a node, outermost first), or None; a class opens no scope."""
    return next((node.name for node in reversed(scopes) if isinstance(node, FUNCTIONS)), None)


def outermost(scopes):
    """The outermost function of ``scopes``, or None."""
    return next((node.name for node in scopes if isinstance(node, FUNCTIONS)), None)


def top_level(scopes):
    """The top-level function of ``scopes``, or None where the outermost
    scope is a class."""
    return scopes[0].name if scopes and isinstance(scopes[0], FUNCTIONS) else None


def occurrences(source: str, match, scope=innermost):
    """(enclosing function or None, *record) of each record that
    ``match(node)`` yields, over the nodes of ``source`` in the order
    ``ast.NodeVisitor.generic_visit`` visits them; ``scope`` names the
    function from the enclosing functions and classes."""

    def walk(node, scopes):
        for record in match(node):
            yield (scope(scopes), *record)
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            scopes = [*scopes, node]
        for child in ast.iter_child_nodes(node):
            yield from walk(child, scopes)

    return list(walk(ast.parse(source), []))


def library_occurrences(match, scope=innermost):
    """(module file name, enclosing function or None, *record) of each
    occurrence of ``match`` in the library's modules."""
    return [(path.name, *hit) for path in LIBRARY
            for hit in occurrences(path.read_text(encoding="utf-8"), match, scope)]


def name_of(node) -> str:
    """The name a node names: plainly, through a module or on an object."""
    return getattr(node, "id", getattr(node, "attr", ""))


def named_calls(names):
    """A match of each call of a function or method named in ``names``,
    with its line."""

    def match(node):
        if isinstance(node, ast.Call) and name_of(node.func) in names:
            yield (node.lineno,)

    return match


def test_the_walker_names_the_scope_as_each_mode_says():
    source = (
        "hit()\n"
        "def f():\n"
        "    hit()\n"
        "    class K:\n"
        "        hit()\n"
        "        def m(self):\n"
        "            hit()\n"
        "    return lambda: hit()\n"
        "class C:\n"
        "    hit()\n"
        "    def method(self):\n"
        "        def nested():\n"
        "            return [hit() for _ in ()]\n"
        "        return nested\n"
        "async def g():\n"
        "    hit()\n"
    )
    lines = [1, 3, 5, 7, 8, 10, 13, 16]
    scopes = {
        innermost: [None, "f", "f", "m", "f", None, "nested", "g"],
        outermost: [None, "f", "f", "f", "f", None, "method", "g"],
        top_level: [None, "f", "f", "f", "f", None, None, "g"],
    }
    for scope, names in scopes.items():
        assert occurrences(source, named_calls({"hit"}), scope) == list(zip(names, lines))


# where the library may ask whether a law is empirical: the law's own module,
# and the spec renderer, which names the kind
ALLOWED = {("distributions.py", None), ("specs.py", "render_distribution")}


def empirical_type_tests(node):
    """The line of an ``isinstance(x, ...)`` whose types name ``Empirical``,
    plainly, through a module or in a tuple; read with :func:`outermost`."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        if "Empirical" in {name_of(n) for n in ast.walk(node.args[1])}:
            yield (node.lineno,)


def test_the_finder_sees_every_spelling():
    source = (
        "def f(d):\n"
        "    return isinstance(d, Empirical)\n"
        "class C:\n"
        "    def g(self, d):\n"
        "        return isinstance(d, (Normal, distributions.Empirical))\n"
        "ok = isinstance(x, Normal)\n"
    )
    assert occurrences(source, empirical_type_tests, outermost) == [("f", 2), ("g", 5)]


def json_layouts(node):
    """The line of a function or method named ``to_json_dict``."""
    if isinstance(node, FUNCTIONS) and node.name == "to_json_dict":
        yield (node.lineno,)


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
    assert [line for _, line in occurrences(source, json_layouts)] == [2, 4]


def test_only_the_cli_lays_out_json():
    # result objects are plain data; cli.py builds every payload from their fields
    assert library_occurrences(json_layouts) == []


def test_only_the_law_asks_whether_it_is_empirical():
    # every other module reads a law through its methods: atoms,
    # _upper_quantile, quantile, cdf and mean
    found = [hit for hit in library_occurrences(empirical_type_tests, outermost)
             if (hit[0], None) not in ALLOWED and hit[:2] not in ALLOWED]
    assert found == []


# where the library may import scipy: the two oracle solvers that need it,
# so that a process that never calls them never loads scipy
SCIPY_ALLOWED = {("transport.py", "_optimal_assignments"), ("transport.py", "_oracle_lp")}


def imports_of(package):
    """A match of each import of ``package`` or a submodule, in any
    spelling, with its line."""

    def match(node):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            return
        if any(m == package or m.startswith(package + ".") for m in modules):
            yield (node.lineno,)

    return match


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
    assert occurrences(source, imports_of("scipy"), top_level) == [
        (None, 1), (None, 2), ("f", 4), ("f", 6), (None, 9)]


def test_only_the_oracle_solvers_import_scipy():
    # numpy serves every other path: a default verify, and every other
    # subcommand, load no scipy module
    found = [hit for hit in library_occurrences(imports_of("scipy"), top_level)
             if hit[:2] not in SCIPY_ALLOWED]
    assert found == []


def test_the_tracemalloc_finder_sees_every_spelling():
    source = (
        "import tracemalloc\n"
        "def f():\n"
        "    import tracemalloc as tm\n"
        "from tracemalloc import start\n"
        "import tracemallocx\n"
    )
    assert occurrences(source, imports_of("tracemalloc")) == [(None, 1), ("f", 3), (None, 4)]


def test_only_the_conftest_imports_tracemalloc():
    # every peak-memory pin goes through the peak_bytes fixture, which
    # measures one way: the peak a call holds beyond what was traced
    found = [(path.name, *hit) for path in sorted(pathlib.Path(__file__).parent.glob("*.py"))
             if path.name != "conftest.py"
             for hit in occurrences(path.read_text(encoding="utf-8"), imports_of("tracemalloc"))]
    assert found == []


def test_peak_bytes_counts_what_the_call_holds(peak_bytes):
    held = np.ones(2**20)  # 8 MiB, allocated before the call started
    assert 8 * 2**20 <= peak_bytes(lambda: np.ones(2**20)) < 9 * 2**20
    assert peak_bytes(lambda: held.sum()) < 2**20
    assert not sys.modules["tracemalloc"].is_tracing()  # the module conftest loaded


@pytest.fixture
def wrapped():
    """The functions the calls_to test wraps, which are the originals again
    once the test's later fixtures are torn down."""
    originals = (numerics.pairwise_sum, numerics.Rule.integrate, numerics.midpoint_rule)
    yield originals
    assert (numerics.pairwise_sum, numerics.Rule.integrate, numerics.midpoint_rule) == originals


def test_calls_to_records_each_call_and_runs_the_original(wrapped, calls_to):
    # a module's function, a class's method and a dotted path; wrapped is
    # set up before calls_to, so it checks after calls_to is undone
    sums = calls_to(numerics, "pairwise_sum", pick=np.size)
    integrals = calls_to(numerics.Rule, "integrate", pick=lambda rule, values: rule.total)
    rules = calls_to("mkdiv.numerics.midpoint_rule")
    assert numerics.midpoint_rule(4).integrate(np.arange(4.0)) == 1.5
    assert numerics.pairwise_sum(np.ones(3)) == 3.0
    assert numerics.midpoint_rule(2, 0.1).total == 2
    # the integral's fold calls the wrapped pairwise_sum too
    assert (sums, integrals, rules) == ([4, 3], [4], [(4,), (2, 0.1)])


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
               for path in LIBRARY if path.stem != "__init__"]
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


def describe_calls(node):
    """The line of an ``x.describe()`` call."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "describe"):
        yield (node.lineno,)


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
    assert occurrences(source, describe_calls) == [("describe", 3), ("certify", 5), (None, 6)]


def test_only_describe_methods_and_the_cli_call_describe():
    # a result holds what its call computed; the name of the score or
    # functional it ran on is the caller's, and the cli renders it
    found = [hit for hit in library_occurrences(describe_calls)
             if hit[0] != "cli.py" and hit[1] != "describe"]
    assert found == []


def fold_references(node):
    """The line of a reference to ``_fold``: a call, a bare name, an
    attribute or an import."""
    if ((isinstance(node, ast.Name) and node.id == "_fold" and isinstance(node.ctx, ast.Load))
            or (isinstance(node, ast.Attribute) and node.attr == "_fold")
            or (isinstance(node, ast.ImportFrom)
                and any(alias.name == "_fold" for alias in node.names))):
        yield (node.lineno,)


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
    assert occurrences(source, fold_references) == [
        (None, 1), ("pairwise_sum", 5), ("add", 8), (None, 9)]


def test_only_pairwise_sum_folds():
    # every fold of values goes through pairwise_sum, which fixes the
    # summation tree and which a tracer can wrap.  Two levels of the same
    # tree are written by hand outside it: Rule.fold's merge of the block
    # sums and _split_sums' level loop, each pinned bit for bit against
    # pairwise_sum by TestPairwise::test_block_sum_is_the_fold_of_the_whole
    # and ::test_split_sums_are_each_segments_own_fold in test_numerics.py
    found = [hit for hit in library_occurrences(fold_references)
             if hit[:2] != ("numerics.py", "pairwise_sum")]
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


def check_calls(node):
    """(callee, keyword, value) of each keyword argument of a call to a
    ``_check_*`` function, plainly or through a module."""
    if isinstance(node, ast.Call) and name_of(node.func).startswith("_check_"):
        for kw in node.keywords:
            yield name_of(node.func), kw.arg, ast.unparse(kw.value)


def test_the_check_finder_sees_every_spelling():
    source = (
        "def _cmd_a(args):\n"
        "    _check_size('grid', 2, m=args.grid_m)\n"
        "    numerics._check_count('x', 0, seed=args.seed, n=n)\n"
        "    functional._check_law(dist)\n"
        "    check_size('grid', 2, m=m)\n"
        "_check_tolerance('t', tol=1.0)\n"
    )
    assert occurrences(source, check_calls) == [
        ("_cmd_a", "_check_size", "m", "args.grid_m"),
        ("_cmd_a", "_check_count", "seed", "args.seed"),
        ("_cmd_a", "_check_count", "n", "n"),
        (None, "_check_tolerance", "tol", "1.0"),
    ]


def test_the_cli_checks_only_the_flags_it_reads_itself():
    # every other flag goes to a library call, which checks it on every
    # input it takes: --grid-m, say, is checked by the law reading its atoms
    assert occurrences((SRC / "cli.py").read_text(encoding="utf-8"), check_calls) == [
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
    assert occurrences(source, named_calls({"sort", "argsort"})) == [
        ("f", 2), ("g", 4), ("h", 7), ("h", 8), (None, 9)]


def test_one_sort_orders_every_sample():
    # numpy's default sort picks its kernel by CPU and may mix tied zeros;
    # samples are sorted only by the law's stable sort
    found = [hit for hit in library_occurrences(named_calls({"sort", "argsort"}))
             if hit[:2] not in SORT_ALLOWED]
    assert found == []


def method_definitions(source: str):
    """{class name: (names of its bases, names of the methods it defines)}
    for each class of ``source``."""
    return {
        node.name: ({ast.unparse(b) for b in node.bases},
                    {f.name for f in node.body if isinstance(f, FUNCTIONS)})
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
    assert occurrences(source, named_calls({"_mean_scores"})) == [
        ("evaluate", 3), ("_evaluate_rows", 9)]


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
    assert {func for func, _ in occurrences(source, named_calls({"_mean_scores"}))} == {
        "expected_score", "_objective"}


def block_loops(node):
    """The line of a loop or comprehension over ``range(0, ..., _BLOCK)``,
    with ``range`` and the block size named plainly or through a module."""
    it = getattr(node, "iter", None)  # of a for, an async for or a comprehension
    if (isinstance(it, ast.Call) and name_of(it.func) == "range" and len(it.args) == 3
            and isinstance(it.args[0], ast.Constant) and it.args[0].value == 0
            and name_of(it.args[2]) == "_BLOCK"):
        yield (it.lineno,)


def test_the_block_loop_finder_sees_every_spelling():
    source = (
        "def f(x):\n"
        "    for start in range(0, x.size, _BLOCK):\n"
        "        pass\n"
        "def g(n):\n"
        "    return [i for i in range(0, n, numerics._BLOCK)]\n"
        "class C:\n"
        "    async def h(self, n):\n"
        "        async for i in range(0, n, _BLOCK):\n"
        "            pass\n"
        "for i in builtins.range(0, 9, _BLOCK):\n"
        "    pass\n"
        "for i in range(1, 9, _BLOCK):\n"
        "    pass\n"
        "for i in range(0, 9, BLOCK):\n"
        "    pass\n"
        "blocks = range(0, 9, _BLOCK)\n"
    )
    assert occurrences(source, block_loops) == [("f", 2), ("g", 5), ("h", 8), (None, 10)]


def test_only_the_rule_steps_through_blocks():
    # every integral over u is one Rule.fold, and every other loop over
    # aligned blocks takes the slices of Rule.blocks: the slicing is written
    # once, in numerics
    found = library_occurrences(block_loops)
    assert [func for module, func, _ in found if module == "numerics.py"] == ["blocks"]
    assert [hit for hit in found if hit[0] != "numerics.py"] == []


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def environment_reads(node):
    """The line of an attribute named ``environ``, ``environb``, ``getenv``,
    ``getenvb``, ``putenv`` or ``unsetenv``, however it is then used, or of
    an import of one of them from ``os``."""
    if ((isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT)
            or (isinstance(node, ast.ImportFrom) and node.module == "os"
                and any(alias.name in ENVIRONMENT for alias in node.names))):
        yield (node.lineno,)


def test_the_environment_finder_sees_every_spelling():
    source = (
        "import os\n"
        "from os import environ, getenv as ge\n"
        "from os import path\n"
        "def f():\n"
        "    return os.environ['X'], os.environ.get('X'), os.environb[b'X']\n"
        "class C:\n"
        "    def g(self):\n"
        "        os.putenv('X', '1')\n"
        "        os.unsetenv('X')\n"
        "        return os.getenv('X') or os.getenvb(b'X')\n"
        "m = int(os.environ.get('MKDIV_GRID_M', '0'))\n"
        "p = os.path.join('a', 'b')\n"
        "environment = {}\n"
    )
    assert occurrences(source, environment_reads) == [
        (None, 2), ("f", 5), ("f", 5), ("f", 5), ("g", 8), ("g", 9), ("g", 10), ("g", 10),
        (None, 11)]


def test_the_library_reads_no_environment_variable():
    # a run is set by its arguments alone: the same call or argv gives the
    # same result in every environment
    assert library_occurrences(environment_reads) == []


ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_source_parses_as_python_3_10():
    # the CI matrix runs Python 3.10, the oldest version pyproject admits;
    # ast's feature_version check is best-effort, so this pins the grammar
    # the parser knows to be newer, not the runtime behaviour
    paths = [path for folder in ("src", "tests", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(paths) >= 30
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


# what a workflow step must not run itself: each is a check that no local
# run makes, which belongs in a test
INLINE_CHECKS = re.compile(r"\bpython3? - <<|\bjson\.load|\bsys\.exit")


def inline_checks(text: str):
    """Lines of a workflow, read as text (pyyaml is no test dependency),
    outside comments, that run a Python heredoc, load JSON or call
    ``sys.exit``."""
    return [i for i, line in enumerate(text.splitlines(), 1)
            if not line.lstrip().startswith("#") and INLINE_CHECKS.search(line)]


def test_the_inline_check_finder_sees_every_spelling():
    source = (
        "steps:\n"
        "  - run: python -c \"import numpy; numpy.show_runtime()\"\n"
        "  - run: |\n"
        "      python3 - <<'PY'\n"
        "      print(1)\n"
        "      PY\n"
        "  - run: tail -n 1 out | python -c 'import json, sys; json.loads(sys.stdin.read())'\n"
        "  - run: >\n"
        "      python -c 'import sys; sys.exit(1)'\n"
        "  # a comment naming json.load runs nothing\n"
        "  - run: python - <<EOF\n"
    )
    assert inline_checks(source) == [4, 7, 9, 11]


def test_the_workflows_run_no_inline_checks():
    # a workflow installs, runs pytest and what needs more time than
    # tier-1 has; every check it makes lives in a test
    found = {path.name: inline_checks(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / ".github" / "workflows").glob("*.y*ml"))}
    assert found and not any(found.values()), found
