import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mkdiv.errors
import mkdiv.specs
from mkdiv import (
    ConfigError,
    DecomposableScore,
    EntropicScore,
    Exponential,
    ExpectileScore,
    IngestionError,
    GPLScore,
    LambdaQuantileScore,
    LogNormal,
    MarketSpec,
    Normal,
    PointMass,
    ShortfallScore,
    StepFunction,
    Uniform,
    dual_power,
    from_samples,
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

    @pytest.mark.parametrize("name, form", [
        ("a,b.csv", "empirical:{p}"),
        ("x=y.csv", "empirical:path={p}"),
        ("plain.csv", "empirical:path={p}"),
    ])
    def test_empirical_path_renders_in_a_form_that_carries_it(self, tmp_path, name, form):
        # the shorthand cannot carry '=' and 'path=' cannot carry ','
        p = tmp_path / name
        p.write_text("value\n3\n1\n")
        spec = form.format(p=p)
        assert _roundtrip(parse_distribution, render_distribution, spec) == spec
        assert parse_distribution(spec).values.tolist() == [1.0, 3.0]

    def test_a_path_no_spec_string_carries_is_not_rendered(self):
        with pytest.raises(ConfigError, match="^empirical has no path to render as a spec string$"):
            render_distribution(from_samples([1.0], source_path="a,b=c.csv"))
        step = StepFunction([0.0], [0.3, 0.7], source_path="s,t.json")
        with pytest.raises(ConfigError, match="^score:lambda has no file to render as a spec string$"):
            render_score(LambdaQuantileScore(step))
        market = MarketSpec(spd=from_samples([1.0], source_path="a;b.csv"))
        with pytest.raises(ConfigError, match="^market has no spd to render as a spec string$"):
            render_market(market)

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

    @pytest.mark.parametrize(
        "spec,parser",
        [
            ("distortion:dualpower,k=2,k=3", parse_distortion),
            ("score:shortfall,loss=exponential,gamma=1,gamma=2", parse_score),
            ("market:spd=uniform:a=0,b=1;spd=exponential:rate=1", parse_market),
        ],
    )
    def test_repeated_parameter_rejected(self, spec, parser):
        with pytest.raises(ConfigError, match="repeated parameter"):
            parser(spec)

    @pytest.mark.parametrize(
        "spec,parser",
        [
            ("empirical:path={tmp}/none.csv", parse_distribution),
            ("empirical:{tmp}", parse_distribution),
            ("empirical:{tmp}/latin.csv", parse_distribution),
            ("score:lambda,file={tmp}/none.json", parse_score),
            ("functional:lambda,file={tmp}/list.json", parse_functional),
            ("functional:lambda,file={tmp}/bad.json", parse_functional),
        ],
    )
    def test_unreadable_file_raises_ingestion_error(self, spec, parser, tmp_path):
        (tmp_path / "latin.csv").write_bytes(b"\xff\xfe1\n")
        (tmp_path / "list.json").write_text("[1,2]")
        (tmp_path / "bad.json").write_text("{bad")
        with pytest.raises(IngestionError, match="cannot read|must be an object"):
            parser(spec.replace("{tmp}", str(tmp_path)))


# Spec corpus: every catalog kind with defaults and reordered parameters,
# then missing, extra, non-numeric and malformed parameters, unknown names,
# domain errors and repeated keys.  Each row is (kind, spec, outcome, text):
# "ok" pins the canonical render, otherwise the exception type and its exact
# message.  "{tmp}" stands for the directory holding the corpus files.
SPEC_CORPUS = [
    ('distribution', 'uniform:a=0,b=1', 'ok', 'uniform:a=0.0,b=1.0'),
    ('distribution', 'uniform:b=2,a=-1', 'ok', 'uniform:a=-1.0,b=2.0'),
    ('distribution', 'uniform:a=0.5,b=1e3', 'ok', 'uniform:a=0.5,b=1000.0'),
    ('distribution', 'uniform:a=1_0,b=20', 'ok', 'uniform:a=10.0,b=20.0'),
    ('distribution', 'normal:mu=0,sigma=1', 'ok', 'normal:mu=0.0,sigma=1.0'),
    ('distribution', 'normal:sigma=2,mu=-1.5', 'ok', 'normal:mu=-1.5,sigma=2.0'),
    ('distribution', 'normal:mu= 1,sigma=1', 'ok', 'normal:mu=1.0,sigma=1.0'),
    ('distribution', 'lognormal:mu=0,sigma=0.2', 'ok', 'lognormal:mu=0.0,sigma=0.2'),
    ('distribution', 'lognormal:sigma=1,mu=0.5', 'ok', 'lognormal:mu=0.5,sigma=1.0'),
    ('distribution', 'exponential:rate=1', 'ok', 'exponential:rate=1.0'),
    ('distribution', 'exponential:rate=2.5', 'ok', 'exponential:rate=2.5'),
    ('distribution', 'point:c=2', 'ok', 'point:c=2.0'),
    ('distribution', 'point:c=-0.0', 'ok', 'point:c=-0.0'),
    ('distribution', 'empirical:path={tmp}/vals.csv', 'ok', 'empirical:path={tmp}/vals.csv'),
    ('distribution', 'empirical:{tmp}/vals.csv', 'ok', 'empirical:path={tmp}/vals.csv'),
    ('distribution', 'banana', 'ConfigError', "malformed distribution spec 'banana'"),
    ('distribution', 'uniform', 'ConfigError', "malformed distribution spec 'uniform'"),
    ('distribution', 'uniform:', 'ConfigError', "malformed distribution spec 'uniform:'"),
    ('distribution', ':a=0', 'ConfigError', "unknown distribution kind '' in spec ':a=0'"),
    ('distribution', 'uniform:a=0', 'ConfigError', "spec 'uniform:a=0' is missing parameter 'b'"),
    ('distribution', 'uniform:b=1', 'ConfigError', "spec 'uniform:b=1' is missing parameter 'a'"),
    ('distribution', 'uniform:a=zero,b=1', 'ConfigError', "parameter a='zero' in 'uniform:a=zero,b=1' is not numeric"),
    ('distribution', 'uniform:a=0,b=', 'ConfigError', "parameter b='' in 'uniform:a=0,b=' is not numeric"),
    ('distribution', 'uniform:a=0,b=1,c=2', 'ConfigError', "unexpected parameter(s) c in spec 'uniform:a=0,b=1,c=2'"),
    ('distribution', 'uniform:a=0,b=1,d=3,c=2', 'ConfigError', "unexpected parameter(s) c, d in spec 'uniform:a=0,b=1,d=3,c=2'"),
    ('distribution', 'uniform:a=1,b=0', 'DomainError', 'uniform requires finite a < b, got (1.0, 0.0)'),
    ('distribution', 'uniform:a=0,,b=1', 'ConfigError', "malformed parameter '' in spec 'uniform:a=0,,b=1'"),
    ('distribution', 'uniform:a=0,b', 'ConfigError', "malformed parameter 'b' in spec 'uniform:a=0,b'"),
    ('distribution', 'uniform:=1,a=0,b=1', 'ConfigError', "malformed parameter '=1' in spec 'uniform:=1,a=0,b=1'"),
    ('distribution', 'normal:mu=0,sigma=0', 'DomainError', 'normal requires sigma > 0, got sigma=0.0'),
    ('distribution', 'normal:mu=0,sigma=-1', 'DomainError', 'normal requires sigma > 0, got sigma=-1.0'),
    ('distribution', 'normal:mu=inf,sigma=1', 'DomainError', 'normal needs a finite mu, got mu=inf'),
    ('distribution', 'normal:mu=nan,sigma=1', 'DomainError', 'normal needs a finite mu, got mu=nan'),
    ('distribution', 'normal:mu=0,sigma=inf', 'DomainError', 'normal needs a finite sigma, got sigma=inf'),
    ('distribution', 'lognormal:mu=0,sigma=0', 'DomainError', 'lognormal requires sigma > 0, got sigma=0.0'),
    ('distribution', 'lognormal:mu=nan,sigma=1', 'DomainError', 'lognormal needs a finite mu, got mu=nan'),
    ('distribution', 'exponential:rate=0', 'DomainError', 'exponential requires rate > 0, got 0.0'),
    ('distribution', 'exponential:rate=-1', 'DomainError', 'exponential requires rate > 0, got -1.0'),
    ('distribution', 'exponential:rate=inf', 'DomainError', 'exponential needs a finite rate, got rate=inf'),
    ('distribution', 'exponential:lambda=1', 'ConfigError', "spec 'exponential:lambda=1' is missing parameter 'rate'"),
    ('distribution', 'point:c=inf', 'DomainError', 'point mass needs a finite c, got c=inf'),
    ('distribution', 'gamma:k=1', 'ConfigError', "unknown distribution kind 'gamma' in spec 'gamma:k=1'"),
    ('distribution', 'empirical:path={tmp}/bad.csv', 'IngestionError', "{tmp}/bad.csv: line 2 is not numeric: 'x'"),
    ('distribution', 'empirical:path={tmp}/empty.csv', 'IngestionError', '{tmp}/empty.csv: no numeric values found'),
    ('distribution', 'empirical:path={tmp}/nan.csv', 'IngestionError', '{tmp}/nan.csv: non-finite sample value at index 1: nan'),
    ('distribution', 'empirical:{tmp}/bad.csv', 'IngestionError', "{tmp}/bad.csv: line 2 is not numeric: 'x'"),
    ('distribution', 'empirical:path={tmp}/vals.csv,x=1', 'ConfigError', "unexpected parameter(s) x in spec 'empirical:path={tmp}/vals.csv,x=1'"),
    ('distribution', 'empirical:x=1', 'ConfigError', "spec 'empirical:x=1' is missing parameter 'path'"),
    ('distribution', 'uniform:a=0,b=1,b=2', 'ConfigError', "repeated parameter 'b' in spec 'uniform:a=0,b=1,b=2'"),
    ('distribution', 'normal:mu=0,sigma=1,mu=0', 'ConfigError', "repeated parameter 'mu' in spec 'normal:mu=0,sigma=1,mu=0'"),
    ('generator', 'phi:quadratic', 'ok', 'phi:quadratic'),
    ('generator', 'phi:quartic', 'ok', 'phi:quartic'),
    ('generator', 'phi:exp', 'ok', 'phi:exp'),
    ('generator', 'phi:xlogx', 'ok', 'phi:xlogx'),
    ('generator', 'phi:cubic', 'ConfigError', "unknown generator 'cubic'; choose from ['exp', 'quadratic', 'quartic', 'xlogx']"),
    ('generator', 'phi', 'ConfigError', "malformed spec 'phi': missing ':'"),
    ('generator', 'phi:', 'ConfigError', "unknown generator ''; choose from ['exp', 'quadratic', 'quartic', 'xlogx']"),
    ('generator', 'gen:quadratic', 'ConfigError', "expected a 'phi:' spec, got 'gen:quadratic'"),
    ('generator', 'phi:quadratic,k=1', 'ConfigError', "unknown generator 'quadratic,k=1'; choose from ['exp', 'quadratic', 'quartic', 'xlogx']"),
    ('distortion', 'distortion:identity', 'ok', 'distortion:identity'),
    ('distortion', 'distortion:dualpower,k=2', 'ok', 'distortion:dualpower,k=2.0'),
    ('distortion', 'distortion:dualpower,k=1', 'ok', 'distortion:dualpower,k=1.0'),
    ('distortion', 'distortion:dualpower,k=3.5', 'ok', 'distortion:dualpower,k=3.5'),
    ('distortion', 'distortion:tvar,alpha=0.9', 'ok', 'distortion:tvar,alpha=0.9'),
    ('distortion', 'distortion:power,c=0.5', 'ok', 'distortion:power,c=0.5'),
    ('distortion', 'distortion:dualpower,k=0.5', 'DomainError', 'dual-power distortion needs k >= 1, got 0.5'),
    ('distortion', 'distortion:dualpower,k=nan', 'DomainError', 'dual-power distortion needs a finite k, got k=nan'),
    ('distortion', 'distortion:dualpower,k=inf', 'DomainError', 'dual-power distortion needs a finite k, got k=inf'),
    ('distortion', 'distortion:tvar,alpha=1', 'DomainError', 'tail level must lie in (0, 1), got 1.0'),
    ('distortion', 'distortion:tvar,alpha=0', 'DomainError', 'tail level must lie in (0, 1), got 0.0'),
    ('distortion', 'distortion:power,c=1', 'DomainError', 'power distortion needs 0 < c < 1, got 1.0'),
    ('distortion', 'distortion:dualpower', 'ConfigError', "spec 'distortion:dualpower' is missing parameter 'k'"),
    ('distortion', 'distortion:dualpower,k=two', 'ConfigError', "parameter k='two' in 'distortion:dualpower,k=two' is not numeric"),
    ('distortion', 'distortion:identity,k=2', 'ConfigError', "unexpected parameter(s) k in spec 'distortion:identity,k=2'"),
    ('distortion', 'distortion:tvar,alpha=0.9,beta=1', 'ConfigError', "unexpected parameter(s) beta in spec 'distortion:tvar,alpha=0.9,beta=1'"),
    ('distortion', 'distortion:wang,lam=1', 'ConfigError', "unknown distortion 'wang' in spec 'distortion:wang,lam=1'"),
    ('distortion', 'distortion', 'ConfigError', "malformed spec 'distortion': missing ':'"),
    ('distortion', 'distortion:', 'ConfigError', "unknown distortion '' in spec 'distortion:'"),
    ('distortion', 'distort:identity', 'ConfigError', "expected a 'distortion:' spec, got 'distort:identity'"),
    ('distortion', 'distortion:dualpower,k', 'ConfigError', "malformed parameter 'k' in spec 'distortion:dualpower,k'"),
    ('distortion', 'distortion:dualpower,k=2,k=3', 'ConfigError', "repeated parameter 'k' in spec 'distortion:dualpower,k=2,k=3'"),
    ('score', 'score:bregman,phi=quadratic', 'ok', 'score:bregman,phi=quadratic'),
    ('score', 'score:bregman,phi=quartic', 'ok', 'score:bregman,phi=quartic'),
    ('score', 'score:bregman,phi=exp', 'ok', 'score:bregman,phi=exp'),
    ('score', 'score:bregman,phi=xlogx', 'ok', 'score:bregman,phi=xlogx'),
    ('score', 'score:gpl,alpha=0.9,g=identity', 'ok', 'score:gpl,alpha=0.9,g=identity'),
    ('score', 'score:gpl,alpha=0.9', 'ok', 'score:gpl,alpha=0.9,g=identity'),
    ('score', 'score:gpl,g=cube,alpha=0.5', 'ok', 'score:gpl,alpha=0.5,g=cube'),
    ('score', 'score:gpl,alpha=0.3,g=log', 'ok', 'score:gpl,alpha=0.3,g=log'),
    ('score', 'score:gpl,alpha=0.3,g=exp', 'ok', 'score:gpl,alpha=0.3,g=exp'),
    ('score', 'score:gpl,alpha=0.3,g=reciprocal', 'ConfigError', 'gpl transform must be increasing'),
    ('score', 'score:gpl,alpha=0.3,g=negate', 'ConfigError', 'gpl transform must be increasing'),
    ('score', 'score:expectile,alpha=0.7,phi=quadratic', 'ok', 'score:expectile,alpha=0.7,phi=quadratic'),
    ('score', 'score:expectile,phi=exp,alpha=0.2', 'ok', 'score:expectile,alpha=0.2,phi=exp'),
    ('score', 'score:shortfall,loss=linear', 'ok', 'score:shortfall,loss=linear'),
    ('score', 'score:shortfall,loss=exponential', 'ok', 'score:shortfall,loss=exponential,gamma=1.0'),
    ('score', 'score:shortfall,loss=exponential,gamma=2', 'ok', 'score:shortfall,loss=exponential,gamma=2.0'),
    ('score', 'score:shortfall,gamma=0.5,loss=exponential', 'ok', 'score:shortfall,loss=exponential,gamma=0.5'),
    ('score', 'score:shortfall,loss=power', 'ok', 'score:shortfall,loss=power,p=3.0'),
    ('score', 'score:shortfall,loss=power,p=2', 'ok', 'score:shortfall,loss=power,p=2.0'),
    ('score', 'score:lambda,file={tmp}/steps.json', 'ok', 'score:lambda,file={tmp}/steps.json'),
    ('score', 'score:decomposable,phi=quadratic,alpha=0.7,beta=0.3', 'ok', 'score:decomposable,phi=quadratic,alpha=0.7,beta=0.3'),
    ('score', 'score:decomposable,beta=0.3,alpha=0.7,phi=quartic', 'ok', 'score:decomposable,phi=quartic,alpha=0.7,beta=0.3'),
    ('score', 'score:entropic,gamma=1,phi=quadratic', 'ok', 'score:entropic,gamma=1.0,phi=quadratic'),
    ('score', 'score:entropic,phi=exp,gamma=0.5', 'ok', 'score:entropic,gamma=0.5,phi=exp'),
    ('score', 'score:nonsense', 'ConfigError', "unknown score family 'nonsense' in spec 'score:nonsense'"),
    ('score', 'score:', 'ConfigError', "unknown score family '' in spec 'score:'"),
    ('score', 'score', 'ConfigError', "malformed spec 'score': missing ':'"),
    ('score', 'scores:bregman,phi=quadratic', 'ConfigError', "expected a 'score:' spec, got 'scores:bregman,phi=quadratic'"),
    ('score', 'score:bregman', 'ConfigError', "spec 'score:bregman' is missing parameter 'phi'"),
    ('score', 'score:bregman,phi=unknown', 'ConfigError', "unknown generator 'unknown' in spec 'score:bregman,phi=unknown'"),
    ('score', 'score:bregman,phi=quadratic,alpha=0.5', 'ConfigError', "unexpected parameter(s) alpha in spec 'score:bregman,phi=quadratic,alpha=0.5'"),
    ('score', 'score:bregman,phi', 'ConfigError', "malformed parameter 'phi' in spec 'score:bregman,phi'"),
    ('score', 'score:gpl', 'ConfigError', "spec 'score:gpl' is missing parameter 'alpha'"),
    ('score', 'score:gpl,alpha=x', 'ConfigError', "parameter alpha='x' in 'score:gpl,alpha=x' is not numeric"),
    ('score', 'score:gpl,alpha=0.5,g=sqrt', 'ConfigError', "unknown transform 'sqrt' in spec 'score:gpl,alpha=0.5,g=sqrt'"),
    ('score', 'score:gpl,alpha=1.5', 'DomainError', 'gpl level must lie in (0, 1), got 1.5'),
    ('score', 'score:gpl,alpha=1.5,g=sqrt', 'ConfigError', "unknown transform 'sqrt' in spec 'score:gpl,alpha=1.5,g=sqrt'"),
    ('score', 'score:expectile,alpha=0.7', 'ConfigError', "spec 'score:expectile,alpha=0.7' is missing parameter 'phi'"),
    ('score', 'score:expectile,phi=quadratic', 'ConfigError', "spec 'score:expectile,phi=quadratic' is missing parameter 'alpha'"),
    ('score', 'score:expectile,alpha=0,phi=quadratic', 'DomainError', 'expectile level must lie in (0, 1), got 0.0'),
    ('score', 'score:expectile,alpha=0.7,phi=cubic', 'ConfigError', "unknown generator 'cubic' in spec 'score:expectile,alpha=0.7,phi=cubic'"),
    ('score', 'score:shortfall', 'ConfigError', "spec 'score:shortfall' is missing parameter 'loss'"),
    ('score', 'score:shortfall,loss=cubic', 'ConfigError', "unknown loss 'cubic' in spec 'score:shortfall,loss=cubic'"),
    ('score', 'score:shortfall,loss=exponential,gamma=0', 'ConfigError', 'exponential loss needs gamma > 0, got 0.0'),
    ('score', 'score:shortfall,loss=exponential,gamma=abc', 'ConfigError', "parameter gamma='abc' in 'score:shortfall,loss=exponential,gamma=abc' is not numeric"),
    ('score', 'score:shortfall,loss=power,p=-1', 'ConfigError', 'power loss needs p > 0, got -1.0'),
    ('score', 'score:shortfall,loss=power,p=inf', 'DomainError', 'power loss needs a finite p, got p=inf'),
    ('score', 'score:shortfall,loss=exponential,gamma=inf', 'DomainError', 'exponential loss needs a finite gamma, got gamma=inf'),
    ('score', 'score:shortfall,loss=linear,gamma=1', 'ConfigError', "unexpected parameter(s) gamma in spec 'score:shortfall,loss=linear,gamma=1'"),
    ('score', 'score:shortfall,loss=power,gamma=1', 'ConfigError', "unexpected parameter(s) gamma in spec 'score:shortfall,loss=power,gamma=1'"),
    ('score', 'score:lambda', 'ConfigError', "spec 'score:lambda' is missing parameter 'file'"),
    ('score', 'score:lambda,file={tmp}/steps_nokey.json', 'ConfigError', "{tmp}/steps_nokey.json: step-function JSON needs 'levels'"),
    ('score', 'score:lambda,file={tmp}/steps_out.json', 'ConfigError', '{tmp}/steps_out.json: levels must lie strictly inside (0, 1)'),
    ('score', 'score:lambda,file={tmp}/steps_len.json', 'ConfigError', '{tmp}/steps_len.json: need len(levels) == len(breakpoints) + 1, got 2 and 2'),
    ('score', 'score:lambda,file={tmp}/steps_nan.json', 'ConfigError', '{tmp}/steps_nan.json: breakpoints must be finite, got nan at index 1'),
    ('score', 'score:lambda,file={tmp}/steps.json,x=1', 'ConfigError', "unexpected parameter(s) x in spec 'score:lambda,file={tmp}/steps.json,x=1'"),
    ('score', 'score:decomposable,phi=quadratic,alpha=0.7', 'ConfigError', "spec 'score:decomposable,phi=quadratic,alpha=0.7' is missing parameter 'beta'"),
    ('score', 'score:decomposable,phi=quadratic,alpha=1.5,beta=0.3', 'DomainError', 'decomposable weights must lie in [0, 1], got alpha=1.5, beta=0.3'),
    ('score', 'score:decomposable,phi=quadratic,alpha=0.7,beta=nan', 'DomainError', 'decomposable weights must lie in [0, 1], got alpha=0.7, beta=nan'),
    ('score', 'score:entropic,phi=quadratic', 'ConfigError', "spec 'score:entropic,phi=quadratic' is missing parameter 'gamma'"),
    ('score', 'score:entropic,gamma=0,phi=quadratic', 'DomainError', 'entropic parameter must be positive, got 0.0'),
    ('score', 'score:entropic,gamma=inf,phi=quadratic', 'DomainError', 'entropic score needs a finite gamma, got gamma=inf'),
    ('score', 'score:entropic,gamma=1,phi=quadratic,phi=quartic', 'ConfigError', "repeated parameter 'phi' in spec 'score:entropic,gamma=1,phi=quadratic,phi=quartic'"),
    ('score', 'score:gpl,alpha=0.9,g=identity,alpha=0.8', 'ConfigError', "repeated parameter 'alpha' in spec 'score:gpl,alpha=0.9,g=identity,alpha=0.8'"),
    ('functional', 'functional:mean', 'ok', 'functional:mean'),
    ('functional', 'functional:quantile,alpha=0.9', 'ok', 'functional:quantile,alpha=0.9'),
    ('functional', 'functional:expectile,alpha=0.7', 'ok', 'functional:expectile,alpha=0.7'),
    ('functional', 'functional:shortfall,loss=linear', 'ok', 'functional:shortfall,loss=linear'),
    ('functional', 'functional:shortfall,loss=exponential', 'ok', 'functional:shortfall,loss=exponential,gamma=1.0'),
    ('functional', 'functional:shortfall,loss=exponential,gamma=1', 'ok', 'functional:shortfall,loss=exponential,gamma=1.0'),
    ('functional', 'functional:shortfall,p=2,loss=power', 'ok', 'functional:shortfall,loss=power,p=2.0'),
    ('functional', 'functional:lambda,file={tmp}/steps.json', 'ok', 'functional:lambda,file={tmp}/steps.json'),
    ('functional', 'functional:entropic,gamma=1', 'ok', 'functional:entropic,gamma=1.0'),
    ('functional', 'functional:entropic,gamma=2.5', 'ok', 'functional:entropic,gamma=2.5'),
    ('functional', 'functional:median', 'ConfigError', "unknown functional 'median' in spec 'functional:median'"),
    ('functional', 'functional:mean,alpha=0.5', 'ConfigError', "unexpected parameter(s) alpha in spec 'functional:mean,alpha=0.5'"),
    ('functional', 'functional:quantile', 'ConfigError', "spec 'functional:quantile' is missing parameter 'alpha'"),
    ('functional', 'functional:quantile,alpha=1', 'DomainError', 'quantile level must lie in (0, 1), got 1.0'),
    ('functional', 'functional:quantile,alpha=high', 'ConfigError', "parameter alpha='high' in 'functional:quantile,alpha=high' is not numeric"),
    ('functional', 'functional:expectile,alpha=-0.1', 'DomainError', 'expectile level must lie in (0, 1), got -0.1'),
    ('functional', 'functional:shortfall', 'ConfigError', "spec 'functional:shortfall' is missing parameter 'loss'"),
    ('functional', 'functional:shortfall,loss=quadratic', 'ConfigError', "unknown loss 'quadratic' in spec 'functional:shortfall,loss=quadratic'"),
    ('functional', 'functional:shortfall,loss=power,p=0', 'ConfigError', 'power loss needs p > 0, got 0.0'),
    ('functional', 'functional:lambda', 'ConfigError', "spec 'functional:lambda' is missing parameter 'file'"),
    ('functional', 'functional:lambda,file={tmp}/steps_out.json', 'ConfigError', '{tmp}/steps_out.json: levels must lie strictly inside (0, 1)'),
    ('functional', 'functional:entropic', 'ConfigError', "spec 'functional:entropic' is missing parameter 'gamma'"),
    ('functional', 'functional:entropic,gamma=0', 'DomainError', 'entropic parameter must be positive, got 0.0'),
    ('functional', 'functional:entropic,gamma=inf', 'DomainError', 'entropic functional needs a finite gamma, got gamma=inf'),
    ('functional', 'functional', 'ConfigError', "malformed spec 'functional': missing ':'"),
    ('functional', 'func:mean', 'ConfigError', "expected a 'functional:' spec, got 'func:mean'"),
    ('functional', 'functional:quantile,alpha=0.9,alpha=0.1', 'ConfigError', "repeated parameter 'alpha' in spec 'functional:quantile,alpha=0.9,alpha=0.1'"),
    ('market', 'market:spd=uniform:a=0,b=1', 'ok', 'market:spd=uniform:a=0.0,b=1.0;r=0.0;T=1.0'),
    ('market', 'market:spd=lognormal:mu=0,sigma=0.2;r=0.01;T=1', 'ok', 'market:spd=lognormal:mu=0.0,sigma=0.2;r=0.01;T=1.0'),
    ('market', 'market:T=2;r=0.05;spd=exponential:rate=1', 'ok', 'market:spd=exponential:rate=1.0;r=0.05;T=2.0'),
    ('market', 'market:spd=point:c=1;r=-0.01', 'ok', 'market:spd=point:c=1.0;r=-0.01;T=1.0'),
    ('market', 'market:r=0.01', 'ConfigError', "market spec 'market:r=0.01' is missing the spd"),
    ('market', 'market:spd=uniform:a=0,b=1;r=abc', 'ConfigError', "market rate 'abc' is not numeric"),
    ('market', 'market:spd=uniform:a=0,b=1;T=x', 'ConfigError', "market horizon 'x' is not numeric"),
    ('market', 'market:spd=uniform:a=0,b=1;q=1', 'ConfigError', "unknown market parameter 'q' in 'market:spd=uniform:a=0,b=1;q=1'"),
    ('market', 'market:spd=uniform:a=0,b=1;r', 'ConfigError', "malformed market token 'r' in 'market:spd=uniform:a=0,b=1;r'"),
    ('market', 'market:spd=banana', 'ConfigError', "malformed distribution spec 'banana'"),
    ('market', 'market:spd=uniform:a=0,b=1;T=0', 'DomainError', 'horizon must be positive, got 0.0'),
    ('market', 'market:spd=uniform:a=0,b=1;T=inf', 'DomainError', 'market needs a finite horizon, got horizon=inf'),
    ('market', 'market:spd=uniform:a=0,b=1;r=nan', 'DomainError', 'market needs a finite rate, got rate=nan'),
    ('market', 'market:spd=uniform:a=0,b=1;r=inf', 'DomainError', 'market needs a finite rate, got rate=inf'),
    ('market', 'market', 'ConfigError', "malformed spec 'market': missing ':'"),
    ('market', 'mkt:spd=uniform:a=0,b=1', 'ConfigError', "expected a 'market:' spec, got 'mkt:spd=uniform:a=0,b=1'"),
    ('market', 'market:spd=uniform:a=0,b=1;spd=exponential:rate=1', 'ConfigError', "repeated parameter 'spd' in spec 'market:spd=uniform:a=0,b=1;spd=exponential:rate=1'"),
    ('market', 'market:spd=uniform:a=0,b=1;r=0.01;r=0.02', 'ConfigError', "repeated parameter 'r' in spec 'market:spd=uniform:a=0,b=1;r=0.01;r=0.02'"),
]

CORPUS_FILES = {
    "vals.csv": "value\n3\n1\n2\n",
    "bad.csv": "1\nx\n",
    "empty.csv": "value\n",
    "nan.csv": "1\nnan\n",
    "steps.json": json.dumps({"breakpoints": [0.0], "levels": [0.3, 0.7]}),
    "steps_nokey.json": json.dumps({"breakpoints": [0.0]}),
    "steps_out.json": json.dumps({"breakpoints": [0.0], "levels": [0.3, 1.0]}),
    "steps_len.json": json.dumps({"breakpoints": [0.0, 1.0], "levels": [0.3, 0.7]}),
    "steps_nan.json": json.dumps({"breakpoints": [0.0, float("nan")], "levels": [0.3, 0.5, 0.7]}),
}


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    for name, text in CORPUS_FILES.items():
        (root / name).write_text(text)
    return str(root)


@pytest.mark.parametrize("kind,spec,outcome,text", SPEC_CORPUS)
def test_spec_corpus(kind, spec, outcome, text, corpus_dir):
    parse, render = (getattr(mkdiv.specs, f"{verb}_{kind}") for verb in ("parse", "render"))
    spec, text = (s.replace("{tmp}", corpus_dir) for s in (spec, text))
    if outcome == "ok":
        assert render(parse(spec)) == text
        return
    with pytest.raises(getattr(mkdiv.errors, outcome)) as info:
        parse(spec)
    assert type(info.value).__name__ == outcome
    assert str(info.value) == text


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
