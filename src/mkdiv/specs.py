"""Parse and render the textual spec strings used by the CLI and configs.

Every parser has a matching renderer and the pair is a round trip: parsing
the rendered form of a parsed spec yields the same object configuration.
Renderers emit a canonical parameter order, so rendered strings are also a
fixpoint of parse-then-render.

Grammar (informal)::

    distribution   uniform:a=0,b=1 | normal:mu=0,sigma=1 |
                   lognormal:mu=0,sigma=0.2 | exponential:rate=1 |
                   point:c=2 | empirical:path=values.csv
    generator      phi:quadratic | phi:quartic | phi:exp | phi:xlogx
    distortion     distortion:identity | distortion:dualpower,k=2 |
                   distortion:tvar,alpha=0.9 | distortion:power,c=0.5
    score          score:bregman,phi=quadratic |
                   score:gpl,alpha=0.9,g=identity |
                   score:expectile,alpha=0.7,phi=quadratic |
                   score:shortfall,loss=linear |
                   score:shortfall,loss=exponential,gamma=1 |
                   score:shortfall,loss=power,p=3 |
                   score:lambda,file=steps.json |
                   score:decomposable,phi=quadratic,alpha=0.7,beta=0.3 |
                   score:entropic,gamma=1,phi=quadratic
    functional     functional:mean | functional:quantile,alpha=0.9 |
                   functional:expectile,alpha=0.7 |
                   functional:shortfall,loss=exponential,gamma=1 |
                   functional:lambda,file=steps.json |
                   functional:entropic,gamma=1
    market         market:spd=<distribution>;r=0.01;T=1

The step-function JSON referenced by ``file=`` is
``{"breakpoints": [...], "levels": [...]}`` with one more level than
breakpoints.
"""

from __future__ import annotations

from .distributions import (
    Distribution,
    Empirical,
    Exponential,
    LogNormal,
    Normal,
    PointMass,
    Uniform,
    from_samples,
    read_value_csv,
)
from .errors import ConfigError
from .functionals import (
    Entropic,
    Expectile,
    Functional,
    LambdaQuantile,
    Mean,
    Quantile,
    Shortfall,
)
from .generators import (
    ConvexGenerator,
    DistortionSpec,
    dual_power,
    generator_catalog,
    identity_distortion,
    power_distortion,
    tvar_distortion,
)
from .payoff import MarketSpec
from .scores import (
    BregmanScore,
    DecomposableScore,
    EntropicScore,
    ExpectileScore,
    GPLScore,
    LambdaQuantileScore,
    LossFunction,
    Score,
    ShortfallScore,
    StepFunction,
    transform_catalog,
)

__all__ = [
    "parse_distribution",
    "render_distribution",
    "parse_generator",
    "render_generator",
    "parse_distortion",
    "render_distortion",
    "parse_score",
    "render_score",
    "parse_functional",
    "render_functional",
    "parse_market",
    "render_market",
]


def _split_head(text: str, expected: str) -> str:
    head, sep, body = text.partition(":")
    if head != expected:
        raise ConfigError(f"expected a '{expected}:' spec, got {text!r}")
    if not sep:
        raise ConfigError(f"malformed spec {text!r}: missing ':'")
    return body


def _parse_pairs(tokens, spec: str) -> dict:
    """Parameter dict of 'k=v' tokens."""
    params = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or not key:
            raise ConfigError(f"malformed parameter {token!r} in spec {spec!r}")
        params[key] = value
    return params


def _parse_params(body: str, spec: str) -> tuple[str, dict]:
    """Split 'name,k1=v1,k2=v2' into the name and a parameter dict."""
    name, *tokens = body.split(",")
    return name, _parse_pairs(tokens, spec)


def _pop_float(params: dict, key: str, spec: str) -> float:
    if key not in params:
        raise ConfigError(f"spec {spec!r} is missing parameter {key!r}")
    raw = params.pop(key)
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"parameter {key}={raw!r} in {spec!r} is not numeric") from exc


def _pop_str(params: dict, key: str, spec: str) -> str:
    if key not in params:
        raise ConfigError(f"spec {spec!r} is missing parameter {key!r}")
    return params.pop(key)


def _reject_extras(params: dict, spec: str):
    if params:
        extra = ", ".join(sorted(params))
        raise ConfigError(f"unexpected parameter(s) {extra} in spec {spec!r}")


def _num(x: float) -> str:
    return repr(float(x))


def parse_distribution(spec: str) -> Distribution:
    name, sep, body = spec.partition(":")
    if not sep or not body:
        raise ConfigError(f"malformed distribution spec {spec!r}")
    if name == "empirical" and "=" not in body:
        # shorthand: empirical:<file.csv>
        return from_samples(read_value_csv(body), source_path=body)
    params = _parse_pairs(body.split(","), spec)
    if name == "uniform":
        a = _pop_float(params, "a", spec)
        b = _pop_float(params, "b", spec)
        _reject_extras(params, spec)
        return Uniform(a, b)
    if name == "normal":
        mu = _pop_float(params, "mu", spec)
        sigma = _pop_float(params, "sigma", spec)
        _reject_extras(params, spec)
        return Normal(mu, sigma)
    if name == "lognormal":
        mu = _pop_float(params, "mu", spec)
        sigma = _pop_float(params, "sigma", spec)
        _reject_extras(params, spec)
        return LogNormal(mu, sigma)
    if name == "exponential":
        rate = _pop_float(params, "rate", spec)
        _reject_extras(params, spec)
        return Exponential(rate)
    if name == "point":
        c = _pop_float(params, "c", spec)
        _reject_extras(params, spec)
        return PointMass(c)
    if name == "empirical":
        path = _pop_str(params, "path", spec)
        _reject_extras(params, spec)
        return from_samples(read_value_csv(path), source_path=path)
    raise ConfigError(f"unknown distribution kind {name!r} in spec {spec!r}")


def render_distribution(dist: Distribution) -> str:
    if isinstance(dist, Uniform):
        return f"uniform:a={_num(dist.a)},b={_num(dist.b)}"
    if isinstance(dist, Normal):
        return f"normal:mu={_num(dist.mu)},sigma={_num(dist.sigma)}"
    if isinstance(dist, LogNormal):
        return f"lognormal:mu={_num(dist.mu)},sigma={_num(dist.sigma)}"
    if isinstance(dist, Exponential):
        return f"exponential:rate={_num(dist.rate)}"
    if isinstance(dist, PointMass):
        return f"point:c={_num(dist.c)}"
    if isinstance(dist, Empirical):
        if dist.source_path is None:
            raise ConfigError("empirical distribution without a source path "
                              "cannot be rendered as a spec string")
        return f"empirical:path={dist.source_path}"
    raise ConfigError(f"cannot render distribution {dist!r}")


def parse_generator(spec: str) -> ConvexGenerator:
    name = _split_head(spec, "phi")
    catalog = generator_catalog()
    if name not in catalog:
        raise ConfigError(
            f"unknown generator {name!r}; choose from {sorted(catalog)}"
        )
    return catalog[name]


def render_generator(gen: ConvexGenerator) -> str:
    return f"phi:{gen.name}"


def parse_distortion(spec: str) -> DistortionSpec:
    body = _split_head(spec, "distortion")
    name, params = _parse_params(body, spec)
    if name == "identity":
        _reject_extras(params, spec)
        return identity_distortion()
    if name == "dualpower":
        k = _pop_float(params, "k", spec)
        _reject_extras(params, spec)
        return dual_power(k)
    if name == "tvar":
        alpha = _pop_float(params, "alpha", spec)
        _reject_extras(params, spec)
        return tvar_distortion(alpha)
    if name == "power":
        c = _pop_float(params, "c", spec)
        _reject_extras(params, spec)
        return power_distortion(c)
    raise ConfigError(f"unknown distortion {name!r} in spec {spec!r}")


def render_distortion(d: DistortionSpec) -> str:
    suffix = "".join(f",{k}={_num(v)}" for k, v in d.params)
    return f"distortion:{d.name}{suffix}"


def _pop_generator(params: dict, spec: str, key: str = "phi") -> ConvexGenerator:
    name = _pop_str(params, key, spec)
    catalog = generator_catalog()
    if name not in catalog:
        raise ConfigError(f"unknown generator {name!r} in spec {spec!r}")
    return catalog[name]


def _pop_loss(params: dict, spec: str) -> LossFunction:
    kind = _pop_str(params, "loss", spec)
    if kind == "linear":
        return LossFunction("linear")
    if kind == "exponential":
        gamma = _pop_float(params, "gamma", spec) if "gamma" in params else 1.0
        return LossFunction("exponential", gamma=gamma)
    if kind == "power":
        p = _pop_float(params, "p", spec) if "p" in params else 3.0
        return LossFunction("power", p=p)
    raise ConfigError(f"unknown loss {kind!r} in spec {spec!r}")


def _render_loss(loss: LossFunction) -> str:
    if loss.kind == "linear":
        return "loss=linear"
    if loss.kind == "exponential":
        return f"loss=exponential,gamma={_num(loss.gamma)}"
    return f"loss=power,p={_num(loss.p)}"


def parse_score(spec: str) -> Score:
    body = _split_head(spec, "score")
    name, params = _parse_params(body, spec)
    if name == "bregman":
        gen = _pop_generator(params, spec)
        _reject_extras(params, spec)
        return BregmanScore(gen=gen)
    if name == "gpl":
        alpha = _pop_float(params, "alpha", spec)
        gname = params.pop("g", "identity")
        catalog = transform_catalog()
        if gname not in catalog:
            raise ConfigError(f"unknown transform {gname!r} in spec {spec!r}")
        _reject_extras(params, spec)
        return GPLScore(alpha=alpha, transform=catalog[gname])
    if name == "expectile":
        alpha = _pop_float(params, "alpha", spec)
        gen = _pop_generator(params, spec)
        _reject_extras(params, spec)
        return ExpectileScore(alpha=alpha, gen=gen)
    if name == "shortfall":
        loss = _pop_loss(params, spec)
        _reject_extras(params, spec)
        return ShortfallScore(loss=loss)
    if name == "lambda":
        path = _pop_str(params, "file", spec)
        _reject_extras(params, spec)
        return LambdaQuantileScore(step=StepFunction.from_json(path))
    if name == "decomposable":
        gen = _pop_generator(params, spec)
        alpha = _pop_float(params, "alpha", spec)
        beta = _pop_float(params, "beta", spec)
        _reject_extras(params, spec)
        return DecomposableScore(gen=gen, alpha=alpha, beta=beta)
    if name == "entropic":
        gamma = _pop_float(params, "gamma", spec)
        gen = _pop_generator(params, spec)
        _reject_extras(params, spec)
        return EntropicScore(gamma=gamma, gen=gen)
    raise ConfigError(f"unknown score family {name!r} in spec {spec!r}")


def render_score(score: Score) -> str:
    if isinstance(score, BregmanScore):
        return f"score:bregman,phi={score.gen.name}"
    if isinstance(score, GPLScore):
        return f"score:gpl,alpha={_num(score.alpha)},g={score.transform.name}"
    if isinstance(score, ExpectileScore):
        return f"score:expectile,alpha={_num(score.alpha)},phi={score.gen.name}"
    if isinstance(score, ShortfallScore):
        return f"score:shortfall,{_render_loss(score.loss)}"
    if isinstance(score, LambdaQuantileScore):
        if score.step.source_path is None:
            raise ConfigError("lambda score without a source file cannot be rendered")
        return f"score:lambda,file={score.step.source_path}"
    if isinstance(score, DecomposableScore):
        return (
            f"score:decomposable,phi={score.gen.name},"
            f"alpha={_num(score.alpha)},beta={_num(score.beta)}"
        )
    if isinstance(score, EntropicScore):
        return f"score:entropic,gamma={_num(score.gamma)},phi={score.gen.name}"
    raise ConfigError(f"cannot render score {score.describe()!r} as a spec string")


def parse_functional(spec: str) -> Functional:
    body = _split_head(spec, "functional")
    name, params = _parse_params(body, spec)
    if name == "mean":
        _reject_extras(params, spec)
        return Mean()
    if name == "quantile":
        alpha = _pop_float(params, "alpha", spec)
        _reject_extras(params, spec)
        return Quantile(alpha)
    if name == "expectile":
        alpha = _pop_float(params, "alpha", spec)
        _reject_extras(params, spec)
        return Expectile(alpha)
    if name == "shortfall":
        loss = _pop_loss(params, spec)
        _reject_extras(params, spec)
        return Shortfall(loss)
    if name == "lambda":
        path = _pop_str(params, "file", spec)
        _reject_extras(params, spec)
        return LambdaQuantile(step=StepFunction.from_json(path))
    if name == "entropic":
        gamma = _pop_float(params, "gamma", spec)
        _reject_extras(params, spec)
        return Entropic(gamma)
    raise ConfigError(f"unknown functional {name!r} in spec {spec!r}")


def render_functional(t: Functional) -> str:
    if isinstance(t, Mean):
        return "functional:mean"
    if isinstance(t, Quantile):
        return f"functional:quantile,alpha={_num(t.alpha)}"
    if isinstance(t, Expectile):
        return f"functional:expectile,alpha={_num(t.alpha)}"
    if isinstance(t, Shortfall):
        return f"functional:shortfall,{_render_loss(t.loss)}"
    if isinstance(t, LambdaQuantile):
        if t.step.source_path is None:
            raise ConfigError("lambda functional without a source file "
                              "cannot be rendered")
        return f"functional:lambda,file={t.step.source_path}"
    if isinstance(t, Entropic):
        return f"functional:entropic,gamma={_num(t.gamma)}"
    raise ConfigError(f"cannot render functional {t.describe()!r}")


def parse_market(spec: str) -> MarketSpec:
    body = _split_head(spec, "market")
    spd = None
    rate = 0.0
    horizon = 1.0
    for token in body.split(";"):
        key, sep, value = token.partition("=")
        if not sep:
            raise ConfigError(f"malformed market token {token!r} in {spec!r}")
        if key == "spd":
            spd = parse_distribution(value)
        elif key == "r":
            try:
                rate = float(value)
            except ValueError as exc:
                raise ConfigError(f"market rate {value!r} is not numeric") from exc
        elif key == "T":
            try:
                horizon = float(value)
            except ValueError as exc:
                raise ConfigError(f"market horizon {value!r} is not numeric") from exc
        else:
            raise ConfigError(f"unknown market parameter {key!r} in {spec!r}")
    if spd is None:
        raise ConfigError(f"market spec {spec!r} is missing the spd")
    return MarketSpec(spd=spd, rate=rate, horizon=horizon)


def render_market(market: MarketSpec) -> str:
    return (
        f"market:spd={render_distribution(market.spd)}"
        f";r={_num(market.rate)};T={_num(market.horizon)}"
    )
