"""Command-line front end.

Subcommands
-----------
divergence    closed-form transport divergence between two distributions
verify        seeded random closed-form-vs-oracle certification for a score
worst-case    calibrated worst-case distortion risk over a divergence ball
payoff        calibrated cheapest payoff under a benchmark constraint
elicit-check  expected-score argmin vs direct functional evaluation
axioms        empirical risk-measure axiom report

All JSON output is canonical: sorted keys, compact separators, floats at 17
significant digits.  A fixed seed therefore yields byte-identical output.

Exit status: 0 on success, 1 on domain/configuration errors, 2 when a
verification deviates beyond tolerance.

The grid size defaults to 10000 and may be overridden globally with the
``MKDIV_GRID_M`` environment variable; explicit ``--grid-m`` wins.

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

import numpy as np

from . import specs
from .errors import MkdivError
from .functionals import argmin_expected_score, check_axioms
from .numerics import midpoint_u
from .payoff import cheapest_payoff
from .robust import solve_worst_case
from .transport import certify_optimal_coupling, mk_divergence

__all__ = ["main", "canonical_json"]

_DEFAULT_M = 10_000
_DEFAULT_DELTA = 1e-7
_DEFAULT_TOL = 1e-8


def canonical_json(obj) -> str:
    """Render JSON with sorted keys and fixed 17-significant-digit floats."""
    pieces: list[str] = []
    _emit(obj, pieces)
    return "".join(pieces)


def _emit(obj, out: list):
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            raise MkdivError(f"non-finite value in JSON output: {x}")
        out.append(format(x, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for k, key in enumerate(sorted(obj)):
            if k:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for k, item in enumerate(obj):
            if k:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise MkdivError(f"cannot serialize {type(obj).__name__} to JSON")


def _grid_m(args) -> int:
    if args.grid_m is not None:
        return args.grid_m
    env = os.environ.get("MKDIV_GRID_M")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise MkdivError(f"MKDIV_GRID_M={env!r} is not an integer") from exc
    return _DEFAULT_M


def _write_artifact(args, payload: dict, nodes=None, delta=None):
    if args.out is None:
        return
    if args.format == "csv":
        if nodes is None:
            raise MkdivError("csv output is only available for quantile curves")
        u = midpoint_u(len(nodes), delta or 0.0)
        lines = ["u,value"]
        lines += [
            f"{format(float(ui), '.17g')},{format(float(vi), '.17g')}"
            for ui, vi in zip(u, nodes)
        ]
        text = "\n".join(lines) + "\n"
    else:
        text = canonical_json(payload) + "\n"
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_divergence(args, out) -> int:
    score = specs.parse_score(args.score)
    f1 = specs.parse_distribution(args.from_spec)
    f2 = specs.parse_distribution(args.to_spec)
    m = _grid_m(args)
    value = mk_divergence(score, f1, f2, m=m, delta=args.delta)
    payload = {
        "value": value,
        "coupling": score.coupling,
        "score": specs.render_score(score),
        "grid": {"M": m, "delta": args.delta},
    }
    print(canonical_json(payload), file=out)
    _write_artifact(args, payload)
    return 0


def _cmd_verify(args, out) -> int:
    score = specs.parse_score(args.score)
    result = certify_optimal_coupling(
        score,
        instances=args.instances,
        n_min=2,
        n_max=args.n,
        seed=args.seed,
        tolerance=args.tol,
    )
    payload = result.to_json_dict()
    payload["score"] = specs.render_score(score)
    print(canonical_json(payload), file=out)
    _write_artifact(args, payload)
    return 0 if result.passed else 2


def _cmd_worst_case(args, out) -> int:
    gen = specs.parse_generator(args.phi)
    d = specs.parse_distortion(args.distortion)
    ref = specs.parse_distribution(args.ref)
    m = _grid_m(args)
    sol = solve_worst_case(gen, d, ref, args.eps, m=m, delta=args.delta, tol=args.tol)
    payload = sol.to_json_dict()
    print(canonical_json(payload), file=out)
    _write_artifact(args, payload, nodes=sol.worst_quantile.nodes, delta=sol.worst_quantile.delta)
    return 0


def _cmd_payoff(args, out) -> int:
    gen = specs.parse_generator(args.phi)
    benchmark = specs.parse_distribution(args.benchmark)
    market = specs.parse_market(args.market)
    m = _grid_m(args)
    sol = cheapest_payoff(
        gen, benchmark, market, args.eps, m=m, delta=args.delta, tol=args.tol
    )
    payload = sol.to_json_dict()
    print(canonical_json(payload), file=out)
    _write_artifact(args, payload, nodes=sol.payoff_quantile.nodes, delta=sol.payoff_quantile.delta)
    return 0


def _cmd_elicit_check(args, out) -> int:
    functional = specs.parse_functional(args.functional)
    score = specs.parse_score(args.score)
    dist = specs.parse_distribution(args.dist)
    m = _grid_m(args)
    if args.z_lo is not None and args.z_hi is not None:
        z_lo, z_hi = args.z_lo, args.z_hi
    else:
        z_lo = float(dist.quantile(0.001)) - 1.0
        z_hi = float(dist.quantile(0.999)) + 1.0
    direct = functional.evaluate(dist, m=m, delta=args.delta)
    indirect = argmin_expected_score(
        score, dist, z_lo, z_hi, steps=args.steps, m=m, delta=args.delta
    )
    deviation = abs(direct - indirect)
    payload = {
        "functional": specs.render_functional(functional),
        "score": specs.render_score(score),
        "dist": specs.render_distribution(dist),
        "functional_value": direct,
        "argmin": indirect,
        "deviation": deviation,
        "tolerance": args.tol,
        "passed": bool(deviation <= args.tol),
    }
    print(canonical_json(payload), file=out)
    _write_artifact(args, payload)
    return 0 if deviation <= args.tol else 2


def _cmd_axioms(args, out) -> int:
    functional = specs.parse_functional(args.functional)
    rng = np.random.default_rng(args.seed)
    pairs = [
        (rng.normal(0.0, 1.0, args.size), rng.normal(0.0, 1.0, args.size))
        for _ in range(args.pairs)
    ]
    report = check_axioms(functional, pairs, tol=args.tol)
    payload = report.to_json_dict()
    payload["pairs"] = args.pairs
    payload["size"] = args.size
    payload["seed"] = args.seed
    print(canonical_json(payload), file=out)
    _write_artifact(args, payload)
    return 0


def _add_common(parser, tol=_DEFAULT_TOL):
    parser.add_argument("--grid-m", type=int, default=None,
                        help="u-grid size (default 10000 or $MKDIV_GRID_M)")
    parser.add_argument("--delta", type=float, default=_DEFAULT_DELTA,
                        help="tail truncation level (default 1e-7)")
    parser.add_argument("--tol", type=float, default=tol)
    parser.add_argument("--out", default=None, help="write the artifact to a file")
    parser.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mkdiv",
        description="Transport divergences from scoring functions: "
        "computation, certification and robust-optimization solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("divergence", help="closed-form divergence between distributions")
    p.add_argument("--score", required=True)
    p.add_argument("--from", dest="from_spec", required=True, metavar="DIST")
    p.add_argument("--to", dest="to_spec", required=True, metavar="DIST")
    _add_common(p)
    p.set_defaults(func=_cmd_divergence)

    p = sub.add_parser("verify", help="seeded random oracle certification")
    p.add_argument("--score", required=True)
    p.add_argument("--n", type=int, default=8, help="largest instance size")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, tol=1e-9)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("worst-case", help="worst-case distortion risk measure")
    p.add_argument("--phi", required=True)
    p.add_argument("--distortion", required=True)
    p.add_argument("--ref", required=True, metavar="DIST")
    p.add_argument("--eps", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_worst_case)

    p = sub.add_parser("payoff", help="cheapest payoff under a benchmark constraint")
    p.add_argument("--phi", required=True)
    p.add_argument("--benchmark", required=True, metavar="DIST")
    p.add_argument("--market", required=True)
    p.add_argument("--eps", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_payoff)

    p = sub.add_parser("elicit-check", help="argmin-vs-functional deviation")
    p.add_argument("--functional", required=True)
    p.add_argument("--score", required=True)
    p.add_argument("--dist", required=True, metavar="DIST")
    p.add_argument("--z-lo", type=float, default=None)
    p.add_argument("--z-hi", type=float, default=None)
    p.add_argument("--steps", type=int, default=513)
    _add_common(p, tol=1e-5)
    p.set_defaults(func=_cmd_elicit_check)

    p = sub.add_parser("axioms", help="risk-measure axiom report")
    p.add_argument("--functional", required=True)
    p.add_argument("--pairs", type=int, default=50)
    p.add_argument("--size", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, tol=1e-9)
    p.set_defaults(func=_cmd_axioms)

    return parser


def main(argv=None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, out)
    except MkdivError as exc:
        print(canonical_json({"error": str(exc)}), file=err)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
