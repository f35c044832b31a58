"""Command-line front end.

Subcommands
-----------
divergence    closed-form transport divergence between two distributions
verify        seeded random closed-form-vs-oracle certification for a score
worst-case    calibrated worst-case distortion risk over a divergence ball
payoff        calibrated cheapest payoff under a benchmark constraint
elicit-check  expected-score argmin vs direct functional evaluation
axioms        empirical risk-measure axiom report

This module alone lays out the JSON payloads: each ``_cmd_*`` builds its
subcommand's payload from its arguments and the computed fields of the
library's plain result objects, which know nothing of the output format.
Each ``_cmd_*`` also imports the modules its subcommand runs, so that a
process loads only those.

All JSON output is canonical: sorted keys, compact separators, floats at 17
significant digits.  A fixed seed therefore yields byte-identical output.

Exit status: 0 on success (and for ``--help``), 1 on usage, domain or
configuration errors, 2 when a verification deviates beyond tolerance,
and 141 (128 + SIGPIPE), with nothing on stderr, when the ``mkdiv`` script's
stdout is a pipe its reader closed before the output was written.
stderr holds only JSON lines: the ``{"error": ...}`` object of a failed run,
usage errors included, or one ``{"warning": ...}`` object per warning of a
successful one.
Each subcommand takes only the flags it reads; ``--out FILE`` also writes
the JSON payload to a file, and on ``worst-case`` and ``payoff``
``--format csv`` writes the quantile curve there instead (without ``--out``
it is a usage error).  ``--tol`` sets pass or fail on ``verify``,
``elicit-check`` and ``axioms``; ``binding`` is ``|divergence - eps| <= 1e-8 * eps``.

Randomized subcommands draw from numpy's PCG64 generator.  ``verify`` keys
one child stream per instance as ``default_rng([seed, k])`` and draws the
size ``n ~ integers(n_min, n_max+1)`` followed by the two atom vectors
``uniform(lo, hi, n)``; ``axioms`` uses ``default_rng(seed)`` and draws the
pairs sequentially as standard-normal samples.  This pins the instance sets
independently of this implementation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

from .errors import MkdivError
from .numerics import _DEFAULT_M, _check_count, _check_size, _check_tolerance

__all__ = ["main", "canonical_json"]


def canonical_json(obj) -> str:
    """Render JSON with sorted keys and fixed 17-significant-digit floats."""
    return _emit(obj)


def _emit(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            raise MkdivError(f"non-finite value in JSON output: {x}")
        return format(x, ".17g")
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim == 1:
        bad = np.flatnonzero(~np.isfinite(obj))
        if bad.size:
            raise MkdivError(f"non-finite value in JSON output: {float(obj[bad[0]])}")
        return "[" + ",".join(map("{:.17g}".format, obj.tolist())) + "]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = (json.dumps(str(key)) + ":" + _emit(obj[key]) for key in sorted(obj))
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(map(_emit, obj)) + "]"
    raise MkdivError(f"cannot serialize {type(obj).__name__} to JSON")


def _write_artifact(path: str, text: str, curve):
    """The JSON ``text``, or ``curve`` as ``u,value`` CSV rows, written to ``path``."""
    if curve is not None:
        rows = [f"{format(float(ui), '.17g')},{format(float(vi), '.17g')}"
                for ui, vi in zip(curve.rule.u, curve.nodes)]
        text = "\n".join(["u,value", *rows])
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise MkdivError(f"cannot write {path}: {exc.strerror}") from exc


def _cmd_divergence(args):
    from . import specs
    from .transport import mk_divergence

    score = specs.parse_score(args.score)
    f1 = specs.parse_distribution(args.from_spec)
    f2 = specs.parse_distribution(args.to_spec)
    _check_size("grid", 2, m=args.grid_m)  # checked here too: an empirical law does not read m
    value = mk_divergence(score, f1, f2, m=args.grid_m)
    return {
        "value": value,
        "coupling": score.coupling,
        "score": specs.render_score(score),
        "grid": {"M": args.grid_m},
    }, None


def _cmd_verify(args):
    from . import specs
    from .transport import certify_optimal_coupling

    score = specs.parse_score(args.score)
    result = certify_optimal_coupling(
        score,
        instances=args.instances,
        n_min=2,
        n_max=args.n,
        seed=args.seed,
        tolerance=args.tol,
    )
    return {
        "score": specs.render_score(score),
        "coupling": score.coupling,
        "instances": args.instances,
        "n_min": 2,
        "n_max": args.n,
        "seed": args.seed,
        "max_deviation": result.max_deviation,
        "tolerance": args.tol,
        "passed": result.passed,
    }, None


def _solution_payload(sol, curve, args, **own):
    """The payload of a calibrated solution whose quantile curve is ``curve``:
    the keys both solvers share, then ``own``; and the curve, which
    ``--format csv`` writes.  The grid hands over the curve's own node array."""
    return {
        "lambda_star": sol.lambda_star,
        "epsilon": args.eps,
        "binding": sol.binding,
        "divergence_at_solution": sol.divergence_at_solution,
        "grid": {"M": curve.m, "nodes": curve.nodes},
        **own,
    }, curve if args.format == "csv" else None


def _cmd_worst_case(args):
    from . import specs
    from .robust import solve_worst_case

    gen = specs.parse_generator(args.phi)
    d = specs.parse_distortion(args.distortion)
    ref = specs.parse_distribution(args.ref)
    sol = solve_worst_case(gen, d, ref, args.eps, m=args.grid_m)
    return _solution_payload(sol, sol.worst_quantile, args, worst_value=sol.worst_value)


def _cmd_payoff(args):
    from . import specs
    from .payoff import cheapest_payoff

    gen = specs.parse_generator(args.phi)
    benchmark = specs.parse_distribution(args.benchmark)
    market = specs.parse_market(args.market)
    sol = cheapest_payoff(gen, benchmark, market, args.eps, m=args.grid_m)
    return _solution_payload(sol, sol.payoff_quantile, args,
                             cost=sol.cost, nonneg_violation=sol.nonneg_violation)


def _cmd_elicit_check(args):
    from . import specs
    from .distributions import Empirical
    from .functionals import argmin_expected_score

    _check_tolerance("elicit-check", tol=args.tol)
    functional = specs.parse_functional(args.functional)
    score = specs.parse_score(args.score)
    dist = specs.parse_distribution(args.dist)
    m = args.grid_m
    # a bound that is not given defaults to one unit beyond the 0.1% tail
    z_lo = float(dist.quantile(0.001)) - 1.0 if args.z_lo is None else args.z_lo
    z_hi = float(dist.quantile(0.999)) + 1.0 if args.z_hi is None else args.z_hi
    # the functional and the argmin both read one law: a parametric law's m
    # grid atoms, which is what the argmin could score anyway; only the law
    # itself can tell whether the functional is defined on it
    functional._check_law(dist)
    _check_size("grid", 2, m=m)
    law = Empirical(dist.atoms(m))
    direct = functional.evaluate(law)
    indirect = argmin_expected_score(score, law, z_lo, z_hi, steps=args.steps)
    deviation = abs(direct - indirect)
    return {
        "functional": specs.render_functional(functional),
        "score": specs.render_score(score),
        "dist": specs.render_distribution(dist),
        "functional_value": direct,
        "argmin": indirect,
        "deviation": deviation,
        "tolerance": args.tol,
        "passed": bool(deviation <= args.tol),
    }, None


def _cmd_axioms(args):
    from . import specs
    from .functionals import check_axioms

    functional = specs.parse_functional(args.functional)
    _check_count("axiom check", 0, seed=args.seed)
    _check_size("axiom check", 0, size=args.size)
    rng = np.random.default_rng(args.seed)
    pairs = [
        (rng.normal(0.0, 1.0, args.size), rng.normal(0.0, 1.0, args.size))
        for _ in range(args.pairs)
    ]
    report = check_axioms(functional, pairs, tol=args.tol)
    return {
        "functional": functional.describe(),
        "tol": args.tol,
        "all_passed": report.all_passed,
        "checks": [
            {"name": c.name, "passed": c.passed, "max_violation": c.max_violation,
             **({} if c.witness is None else {"witness": c.witness})}
            for c in report.checks
        ],
        "pairs": args.pairs,
        "size": args.size,
        "seed": args.seed,
    }, None


def _add_grid(parser):
    parser.add_argument("--grid-m", type=int, default=_DEFAULT_M,
                        help="u-grid size (default %(default)s)")


def _add_solver(parser):
    _add_grid(parser)
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="artifact format; csv writes the quantile curve as u,value rows")


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as an MkdivError, which ``main`` reports as one
    JSON line, where argparse would print its usage text; subparsers inherit
    the class."""

    def error(self, message):
        raise MkdivError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mkdiv",
        description="Transport divergences from scoring functions: "
        "computation, certification and robust-optimization solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("divergence", help="closed-form divergence between distributions")
    p.add_argument("--score", required=True)
    p.add_argument("--from", dest="from_spec", required=True, metavar="DIST")
    p.add_argument("--to", dest="to_spec", required=True, metavar="DIST")
    _add_grid(p)
    p.set_defaults(func=_cmd_divergence)

    p = sub.add_parser("verify", help="seeded random oracle certification")
    p.add_argument("--score", required=True)
    p.add_argument("--n", type=int, default=8, help="largest instance size")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="largest closed-form vs oracle deviation (default %(default)s)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("worst-case", help="worst-case distortion risk measure")
    p.add_argument("--phi", required=True)
    p.add_argument("--distortion", required=True)
    p.add_argument("--ref", required=True, metavar="DIST")
    p.add_argument("--eps", type=float, required=True)
    _add_solver(p)
    p.set_defaults(func=_cmd_worst_case)

    p = sub.add_parser("payoff", help="cheapest payoff under a benchmark constraint")
    p.add_argument("--phi", required=True)
    p.add_argument("--benchmark", required=True, metavar="DIST")
    p.add_argument("--market", required=True)
    p.add_argument("--eps", type=float, required=True)
    _add_solver(p)
    p.set_defaults(func=_cmd_payoff)

    p = sub.add_parser("elicit-check", help="argmin-vs-functional deviation")
    p.add_argument("--functional", required=True)
    p.add_argument("--score", required=True)
    p.add_argument("--dist", required=True, metavar="DIST")
    p.add_argument("--z-lo", type=float, default=None)
    p.add_argument("--z-hi", type=float, default=None)
    p.add_argument("--steps", type=int, default=513)
    _add_grid(p)
    p.add_argument("--tol", type=float, default=1e-5,
                   help="largest argmin vs functional deviation (default %(default)s)")
    p.set_defaults(func=_cmd_elicit_check)

    p = sub.add_parser("axioms", help="risk-measure axiom report")
    p.add_argument("--functional", required=True)
    p.add_argument("--pairs", type=int, default=50)
    p.add_argument("--size", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="largest axiom violation counted as a pass (default %(default)s)")
    p.set_defaults(func=_cmd_axioms)

    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="also write the artifact to this file")
    return parser


def main(argv=None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:  # --help printed its text; a usage error raises instead
            return 0
        if getattr(args, "format", "json") == "csv" and args.out is None:
            raise MkdivError(f"mkdiv {args.command}: --format csv needs --out FILE")
        # each _cmd_* returns its payload and the curve --format csv asks for;
        # a non-finite intermediate ends in an MkdivError, so NumPy's warnings
        # about it would only precede the JSON error on stderr.  Other warnings
        # are held back: a failed run reports only its error, a successful one
        # each warning as a JSON line after the payload
        with warnings.catch_warnings(record=True) as caught, \
                np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            payload, curve = args.func(args)
        text = canonical_json(payload)
        if args.out is not None:
            _write_artifact(args.out, text, curve)
        print(text, file=out)
    except (MkdivError, MemoryError) as exc:
        print(canonical_json({"error": str(exc) or "out of memory"}), file=err)
        return 1
    for w in caught:
        print(canonical_json({"warning": str(w.message)}), file=err)
    return 0 if payload.get("passed", True) else 2  # verify and elicit-check pass or fail


def console_main() -> None:
    """The ``mkdiv`` script: :func:`main` on the process's own streams.  A
    reader that closes stdout early ends the run quietly with status 141."""
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the flush at interpreter exit would raise again on the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended
    sys.exit(status)


if __name__ == "__main__":
    console_main()
