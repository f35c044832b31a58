import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mkdiv import (
    ConfigError,
    DecomposableScore,
    EntropicScore,
    Exponential,
    ExpectileScore,
    GPLScore,
    LogNormal,
    MarketSpec,
    Normal,
    PointMass,
    ShortfallScore,
    Uniform,
    dual_power,
    generator_catalog,
    power_distortion,
    tvar_distortion,
)
from mkdiv.functionals import Entropic, Expectile, Quantile, Shortfall
from mkdiv.scores import LossFunction, transform_catalog
from mkdiv.specs import (
    parse_distortion,
    parse_distribution,
    parse_functional,
    parse_generator,
    parse_market,
    parse_score,
    render_distortion,
    render_distribution,
    render_functional,
    render_generator,
    render_market,
    render_score,
)

DIST_SPECS = [
    "uniform:a=0,b=1",
    "normal:mu=0,sigma=1",
    "lognormal:mu=0,sigma=0.2",
    "exponential:rate=1",
    "point:c=2",
]

GEN_SPECS = ["phi:quadratic", "phi:quartic", "phi:exp", "phi:xlogx"]

DISTORTION_SPECS = [
    "distortion:identity",
    "distortion:dualpower,k=2",
    "distortion:tvar,alpha=0.9",
    "distortion:power,c=0.5",
]

SCORE_SPECS = [
    "score:bregman,phi=quadratic",
    "score:gpl,alpha=0.9,g=identity",
    "score:gpl,alpha=0.5,g=cube",
    "score:expectile,alpha=0.7,phi=quadratic",
    "score:shortfall,loss=linear",
    "score:shortfall,loss=exponential,gamma=1",
    "score:shortfall,loss=power,p=3",
    "score:decomposable,phi=quadratic,alpha=0.7,beta=0.3",
    "score:entropic,gamma=1,phi=quadratic",
]

FUNCTIONAL_SPECS = [
    "functional:mean",
    "functional:quantile,alpha=0.9",
    "functional:expectile,alpha=0.7",
    "functional:shortfall,loss=exponential,gamma=1",
    "functional:entropic,gamma=1",
]


def _roundtrip(parse, render, spec):
    """parse -> render -> parse must reach a fixpoint of render."""
    first = render(parse(spec))
    second = render(parse(first))
    assert first == second
    return first


class TestRoundTrips:
    @pytest.mark.parametrize("spec", DIST_SPECS)
    def test_distributions(self, spec):
        _roundtrip(parse_distribution, render_distribution, spec)

    @pytest.mark.parametrize("spec", GEN_SPECS)
    def test_generators(self, spec):
        assert _roundtrip(parse_generator, render_generator, spec) == spec

    @pytest.mark.parametrize("spec", DISTORTION_SPECS)
    def test_distortions(self, spec):
        _roundtrip(parse_distortion, render_distortion, spec)

    @pytest.mark.parametrize("spec", SCORE_SPECS)
    def test_scores(self, spec):
        _roundtrip(parse_score, render_score, spec)

    @pytest.mark.parametrize("spec", FUNCTIONAL_SPECS)
    def test_functionals(self, spec):
        _roundtrip(parse_functional, render_functional, spec)

    def test_empirical_with_path(self, tmp_path):
        p = tmp_path / "vals.csv"
        p.write_text("value\n1\n2\n3\n")
        spec = f"empirical:path={p}"
        canonical = _roundtrip(parse_distribution, render_distribution, spec)
        assert canonical == spec
        d = parse_distribution(spec)
        assert d.n == 3

    def test_empirical_shorthand(self, tmp_path):
        p = tmp_path / "vals.csv"
        p.write_text("1\n2\n")
        d = parse_distribution(f"empirical:{p}")
        assert d.n == 2
        assert render_distribution(d) == f"empirical:path={p}"

    def test_lambda_score_with_file(self, tmp_path):
        p = tmp_path / "steps.json"
        p.write_text(json.dumps({"breakpoints": [0.0], "levels": [0.3, 0.7]}))
        spec = f"score:lambda,file={p}"
        assert _roundtrip(parse_score, render_score, spec) == spec
        fspec = f"functional:lambda,file={p}"
        assert _roundtrip(parse_functional, render_functional, fspec) == fspec

    def test_market(self):
        spec = "market:spd=lognormal:mu=0,sigma=0.2;r=0.01;T=1"
        canonical = _roundtrip(parse_market, render_market, spec)
        m = parse_market(canonical)
        assert m.rate == 0.01 and m.horizon == 1.0
        assert m.spd.kind == "lognormal"

    def test_market_defaults(self):
        m = parse_market("market:spd=uniform:a=0,b=1")
        assert m.rate == 0.0 and m.horizon == 1.0


class TestErrors:
    @pytest.mark.parametrize(
        "spec,parser",
        [
            ("score:nonsense", parse_score),
            ("score:bregman,phi=unknown", parse_score),
            ("score:bregman", parse_score),
            ("distortion:dualpower", parse_distortion),
            ("functional:quantile", parse_functional),
            ("uniform:a=0", parse_distribution),
            ("uniform:a=zero,b=1", parse_distribution),
            ("phi:cubic", parse_generator),
            ("market:r=0.01", parse_market),
            ("banana", parse_distribution),
        ],
    )
    def test_bad_specs_name_the_problem(self, spec, parser):
        with pytest.raises(ConfigError):
            parser(spec)

    def test_extra_parameters_rejected(self):
        with pytest.raises(ConfigError, match="unexpected"):
            parse_score("score:bregman,phi=quadratic,alpha=0.5")


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(0.0, 1e300, exclude_min=True)
LEVEL = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
WEIGHT = st.floats(0.0, 1.0)
ORDERED = st.tuples(FINITE, FINITE).filter(lambda t: t[0] < t[1])
GENERATORS = sorted(generator_catalog())
INCREASING = ["identity", "exp", "log", "cube"]
LOSSES = st.one_of(
    st.just(("linear", ())),
    POSITIVE.map(lambda g: ("exponential", (g,))),
    POSITIVE.map(lambda p: ("power", (p,))),
)


def _loss(kind, params):
    key = {"linear": (), "exponential": ("gamma",), "power": ("p",)}[kind]
    return LossFunction(kind, **dict(zip(key, params)))


def _loss_params(loss):
    return {"linear": (), "exponential": (loss.gamma,), "power": (loss.p,)}[loss.kind]


# each case: a strategy for the parameters, parameters -> object, and
# object -> the same parameters read back
ROUND_TRIP_CASES = {
    "uniform": (ORDERED, lambda t: Uniform(*t), lambda d: (d.a, d.b)),
    "normal": (st.tuples(FINITE, POSITIVE), lambda t: Normal(*t), lambda d: (d.mu, d.sigma)),
    "lognormal": (
        st.tuples(FINITE, POSITIVE), lambda t: LogNormal(*t), lambda d: (d.mu, d.sigma)
    ),
    "exponential": (st.tuples(POSITIVE), lambda t: Exponential(*t), lambda d: (d.rate,)),
    "point": (st.tuples(FINITE), lambda t: PointMass(*t), lambda d: (d.c,)),
    "dualpower": (
        st.tuples(st.floats(1.0, 1e300)), lambda t: dual_power(*t),
        lambda d: tuple(v for _, v in d.params),
    ),
    "tvar": (st.tuples(LEVEL), lambda t: tvar_distortion(*t),
             lambda d: tuple(v for _, v in d.params)),
    "power": (st.tuples(LEVEL), lambda t: power_distortion(*t),
              lambda d: tuple(v for _, v in d.params)),
    "score:gpl": (
        st.tuples(LEVEL, st.sampled_from(INCREASING)),
        lambda t: GPLScore(t[0], transform_catalog()[t[1]]),
        lambda s: (s.alpha, s.transform.name),
    ),
    "score:expectile": (
        st.tuples(LEVEL, st.sampled_from(GENERATORS)),
        lambda t: ExpectileScore(t[0], generator_catalog()[t[1]]),
        lambda s: (s.alpha, s.gen.name),
    ),
    "score:shortfall": (
        st.tuples(LOSSES), lambda t: ShortfallScore(_loss(*t[0])),
        lambda s: ((s.loss.kind, _loss_params(s.loss)),),
    ),
    "score:decomposable": (
        st.tuples(st.sampled_from(["quadratic", "quartic"]), WEIGHT, WEIGHT),
        lambda t: DecomposableScore(generator_catalog()[t[0]], t[1], t[2]),
        lambda s: (s.gen.name, s.alpha, s.beta),
    ),
    "score:entropic": (
        st.tuples(POSITIVE, st.sampled_from(GENERATORS)),
        lambda t: EntropicScore(t[0], generator_catalog()[t[1]]),
        lambda s: (s.gamma, s.gen.name),
    ),
    "functional:quantile": (st.tuples(LEVEL), lambda t: Quantile(*t), lambda f: (f.alpha,)),
    "functional:expectile": (st.tuples(LEVEL), lambda t: Expectile(*t), lambda f: (f.alpha,)),
    "functional:shortfall": (
        st.tuples(LOSSES), lambda t: Shortfall(_loss(*t[0])),
        lambda f: ((f.loss.kind, _loss_params(f.loss)),),
    ),
    "functional:entropic": (st.tuples(POSITIVE), lambda t: Entropic(*t), lambda f: (f.gamma,)),
    # the state-price density needs support in [0, inf) and a finite mean
    "market": (
        st.tuples(
            st.one_of(
                st.tuples(st.floats(0.0, 1e6), st.floats(0.0, 1e6))
                .filter(lambda t: t[0] < t[1]).map(lambda t: Uniform(*t)),
                st.floats(1e-6, 1e6).map(Exponential),
                st.tuples(st.floats(-5.0, 5.0), st.floats(0.0, 3.0, exclude_min=True))
                .map(lambda t: LogNormal(*t)),
                st.floats(0.0, 1e6).map(PointMass),
            ),
            FINITE,
            POSITIVE,
        ),
        lambda t: MarketSpec(*t),
        lambda mk: (mk.spd, mk.rate, mk.horizon),
    ),
}

_KIND = {
    "score": (parse_score, render_score),
    "functional": (parse_functional, render_functional),
    "market": (parse_market, render_market),
    "dualpower": (parse_distortion, render_distortion),
    "tvar": (parse_distortion, render_distortion),
    "power": (parse_distortion, render_distortion),
}


@pytest.mark.parametrize("case", sorted(ROUND_TRIP_CASES))
@given(data=st.data())
def test_render_parse_round_trip_keeps_drawn_parameters(case, data):
    drawn, build, params = ROUND_TRIP_CASES[case]
    parse, render = _KIND.get(case.split(":")[0], (parse_distribution, render_distribution))
    drawn_params = data.draw(drawn)
    text = render(build(drawn_params))
    parsed = parse(text)
    assert render(parsed) == text
    assert params(parsed) == drawn_params
