"""Rewrite the seeded CLI corpus that ``test_cli_corpus.py`` replays.

    PYTHONPATH=src python tests/write_cli_corpus.py

The corpus is 147 argvs, each with the exit code, stdout and stderr of
``cli.main`` run in process from the repository root, and the fingerprint of
the platform that ran them:

* the 42 argvs of the ``cli-oneshot`` benchmark workload at seeds 1 and 2, as
  ``perfbench/workloads.py`` builds them, with the sample and step files they
  read, written under ``tests/data/cli_corpus/seed<N>/``;
* 24 argvs whose grids span several calibration blocks: ``worst-case`` with
  a dual-power and a TVaR distortion, and ``payoff``, for each catalog
  generator at ``--grid-m`` 16385 and 50001;
* 5 argvs that fail: an unknown flag, a zero budget, an infinite moment and
  a malformed spec exit 1 with a JSON error line on stderr, and a ``verify``
  whose nonzero deviation exceeds ``--tol 0`` exits 2;
* the 6 seeded calls of ``test_cli.py``: a ``verify`` and three ``axioms``
  reports, and the two negative seeds that exit 1;
* 55 argvs that run every score family and every functional: ``divergence``
  for each of the 14 catalog scores on a parametric pair and on two samples
  of unequal sizes, written under ``tests/data/cli_corpus/families/``;
  ``elicit-check`` for each of the 8 functionals with its score at the
  default grid and at ``--grid-m`` 1000 and 40001 (several reports per tile,
  one report per row, and rows taken in blocks), whatever exit code each
  gives; and ``verify`` for the shortfall, decomposable and entropic scores;
* 6 argvs of the stable sort and of input checks: an ``elicit-check``
  median on a sample of tied ``0`` and ``-0`` lines, written as
  ``tests/data/cli_corpus/tied_zeros.csv``, whose sign the law's stable sort
  fixes on every CPU; ``--z-lo -1e-3``, a negative float in exponent form; a
  bracket whose width overflows; ``--eps inf``; ``axioms --pairs 0``; and
  ``verify --n 1``;
* 9 argvs of the evaluation path and the argmin's end game: ``axioms`` for
  the mean, a quantile, the linear and power shortfall, a lambda-quantile
  and the entropic functional, which evaluate rows as the law does; and
  ``elicit-check`` on a quantile over +-1e60, which Brent's search must
  bring down from that bracket, on a mean over +-1e200, whose expected
  score overflows at every probe of the end game, and on an entropic score
  whose sum overflows at the grid's last report.

Rewrite it only in a change that lists each output it moves; ``git diff``
of ``corpus.json`` names them.
"""

import json
import os
import shutil
import sys

import numpy as np

from test_cli_corpus import CORPUS, ROOT, fingerprint, run

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import CliOneshot  # noqa: E402

SEEDS = (1, 2)
GENERATORS = ("quadratic", "quartic", "exp", "xlogx")
GRID_MS = (16385, 50001)  # one block and one past it; three blocks and part of a fourth


def oneshot_argvs(seed: int) -> list:
    """The argvs of the workload's pool of rounds at ``seed``; its set-up
    writes the files they read into the corpus directory."""
    work_dir = CORPUS.parent / f"seed{seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    workload = CliOneshot(seed, str(work_dir), refs=None, root=str(ROOT), env={})
    workload.setup()
    return [argv for argvs in workload.pool for _, argv in argvs]


def multi_block_argvs() -> list:
    argvs = []
    for m in GRID_MS:
        for phi in GENERATORS:
            for distortion in ("distortion:dualpower,k=2", "distortion:tvar,alpha=0.9"):
                argvs.append(["worst-case", "--phi", f"phi:{phi}", "--distortion", distortion,
                              "--ref", "uniform:a=0.5,b=1.5", "--eps", "0.02",
                              "--grid-m", str(m)])
            argvs.append(["payoff", "--phi", f"phi:{phi}", "--benchmark", "uniform:a=0.5,b=1.5",
                          "--market", "market:spd=lognormal:mu=-0.1,sigma=0.3;r=0;T=1",
                          "--eps", "0.01", "--grid-m", str(m)])
    return argvs


FAILING_ARGVS = [
    ["divergence", "--score", "score:bregman,phi=quadratic", "--from", "normal:mu=0,sigma=1",
     "--to", "normal:mu=1,sigma=2", "--bogus"],
    ["worst-case", "--phi", "phi:quadratic", "--distortion", "distortion:dualpower,k=2",
     "--ref", "uniform:a=0.5,b=1.5", "--eps", "0"],
    ["elicit-check", "--functional", "functional:entropic,gamma=1",
     "--score", "score:entropic,gamma=1,phi=quadratic", "--dist", "exponential:rate=1"],
    ["divergence", "--score", "score:bregman,phi=quadratic", "--from", "normal:mu=0,sigma",
     "--to", "normal:mu=1,sigma=2"],
    ["verify", "--score", "score:bregman,phi=quartic", "--seed", "3", "--tol", "0"],
]

STEPS = "tests/data/cli_corpus/seed1/steps.json"
FAMILY_SCORES = (
    *(f"score:bregman,phi={phi}" for phi in GENERATORS),
    *(f"score:gpl,alpha=0.9,g={g}" for g in ("identity", "exp", "log")),
    "score:expectile,alpha=0.7,phi=quadratic",
    *(f"score:shortfall,loss={loss}" for loss in ("linear", "exponential,gamma=1", "power,p=3")),
    f"score:lambda,file={STEPS}",
    "score:decomposable,phi=quadratic,alpha=0.7,beta=0.3",
    "score:entropic,gamma=1,phi=quadratic",
)
FUNCTIONAL_SCORES = (
    ("functional:mean", "score:bregman,phi=quadratic"),
    ("functional:quantile,alpha=0.9", "score:gpl,alpha=0.9,g=identity"),
    ("functional:expectile,alpha=0.7", "score:expectile,alpha=0.7,phi=quadratic"),
    *((f"functional:shortfall,loss={loss}", f"score:shortfall,loss={loss}")
      for loss in ("linear", "exponential,gamma=1", "power,p=3")),
    (f"functional:lambda,file={STEPS}", f"score:lambda,file={STEPS}"),
    ("functional:entropic,gamma=1", "score:entropic,gamma=1,phi=quadratic"),
)


def family_argvs() -> list:
    """The argvs that run every score family and every functional; the two
    samples they read, of 23 and 37 positive values, are written first."""
    work_dir = CORPUS.parent / "families"
    work_dir.mkdir(exist_ok=True)
    rng = np.random.default_rng(11)
    pairs = [("lognormal:mu=0,sigma=0.25", "uniform:a=0.5,b=1.5")]
    paths = []
    for name, n in (("x", 23), ("y", 37)):
        path = work_dir / f"{name}.csv"
        path.write_text("value\n" + "".join(f"{v!r}\n" for v in rng.uniform(0.5, 2.0, n).tolist()),
                        encoding="utf-8")
        paths.append(f"empirical:path={path.relative_to(ROOT)}")
    pairs.append(tuple(paths))
    argvs = [["divergence", "--score", score, "--from", f1, "--to", f2]
             for score in FAMILY_SCORES for f1, f2 in pairs]
    for m in (None, 1000, 40001):
        for functional, score in FUNCTIONAL_SCORES:
            argvs.append(["elicit-check", "--functional", functional, "--score", score,
                          "--dist", "normal:mu=-1,sigma=1",
                          *(() if m is None else ("--grid-m", str(m)))])
    for score in FAMILY_SCORES:
        if score.startswith(("score:shortfall,loss=power", "score:decomposable", "score:entropic")):
            argvs.append(["verify", "--score", score, "--seed", "1"])
    return argvs


SEEDED_ARGVS = [
    ["verify", "--score", "score:gpl,alpha=0.9,g=identity", "--n", "8", "--instances", "100",
     "--seed", "7"],
    ["axioms", "--functional", "functional:expectile,alpha=0.3", "--pairs", "50", "--size", "40",
     "--seed", "3"],
    ["axioms", "--functional", "functional:expectile,alpha=0.3", "--pairs", "5", "--size", "40",
     "--seed", "3"],
    ["axioms", "--functional", "functional:expectile,alpha=0.7", "--pairs", "10", "--size", "20",
     "--seed", "5"],
    ["verify", "--score", "score:gpl,alpha=0.9", "--seed", "-1"],
    ["axioms", "--functional", "functional:mean", "--seed", "-1"],
]


# tied zeros whose median numpy's default sort gave as 0 with its AVX-512
# kernels and as -0 without them; the law's stable sort gives -0 on every CPU
TIED_ZEROS = "+++++--+-+-++-+-++---+"


def elicit_quantile(alpha: float) -> list:
    return ["elicit-check", "--functional", f"functional:quantile,alpha={alpha}",
            "--score", f"score:gpl,alpha={alpha},g=identity", "--dist", "normal:mu=0,sigma=1"]


def one_sort_argvs() -> list:
    """The argvs of the stable sort and the input checks; the sample of
    tied zeros they read is written first."""
    path = CORPUS.parent / "tied_zeros.csv"
    path.write_text("".join("-0\n" if c == "-" else "0\n" for c in TIED_ZEROS), encoding="utf-8")
    return [
        ["elicit-check", "--functional", "functional:quantile,alpha=0.5",
         "--score", "score:gpl,alpha=0.5,g=identity",
         "--dist", f"empirical:path={path.relative_to(ROOT)}"],
        [*elicit_quantile(0.6), "--z-lo", "-1e-3", "--z-hi", "1"],
        [*elicit_quantile(0.3), "--z-lo=-1e308", "--z-hi=1e308"],
        ["worst-case", "--phi", "phi:quadratic", "--distortion", "distortion:dualpower,k=2",
         "--ref", "uniform:a=0.5,b=1.5", "--eps", "inf"],
        ["axioms", "--functional", "functional:mean", "--pairs", "0"],
        ["verify", "--score", "score:gpl,alpha=0.9", "--n", "1"],
    ]


AXIOM_FUNCTIONALS = (
    "functional:mean",
    "functional:quantile,alpha=0.3",
    "functional:shortfall,loss=linear",
    "functional:shortfall,loss=power,p=3",
    f"functional:lambda,file={STEPS}",
    "functional:entropic,gamma=1",
)


def evaluation_argvs() -> list:
    """The argvs of the one evaluation path and of the argmin's end game."""
    near = "normal:mu=0.25,sigma=1"
    return [
        *(["axioms", "--functional", functional, "--pairs", "5", "--size", "40", "--seed", "11"]
          for functional in AXIOM_FUNCTIONALS),
        [*elicit_quantile(0.3), "--z-lo=-1e60", "--z-hi=1e60"],
        ["elicit-check", "--functional", "functional:mean", "--score",
         "score:bregman,phi=quadratic", "--dist", near, "--z-lo=-1e200", "--z-hi=1e200"],
        ["elicit-check", "--functional", "functional:entropic,gamma=1", "--score",
         "score:entropic,gamma=1,phi=quadratic", "--dist", near, "--z-lo=-5", "--z-hi=352"],
    ]


def main() -> int:
    os.chdir(ROOT)  # the argvs name their files relative to the root
    argvs = ([argv for seed in SEEDS for argv in oneshot_argvs(seed)] + multi_block_argvs()
             + FAILING_ARGVS + SEEDED_ARGVS + family_argvs() + one_sort_argvs() + evaluation_argvs())
    corpus = {"fingerprint": fingerprint(), "cases": [run(argv) for argv in argvs]}
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(argvs)} cases to {CORPUS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
