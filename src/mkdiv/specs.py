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
                   score:gpl,alpha=0.9[,g=identity] |
                   score:expectile,alpha=0.7,phi=quadratic |
                   score:shortfall,loss=linear |
                   score:shortfall,loss=exponential[,gamma=1] |
                   score:shortfall,loss=power[,p=3] |
                   score:lambda,file=steps.json |
                   score:decomposable,phi=quadratic,alpha=0.7,beta=0.3 |
                   score:entropic,gamma=1,phi=quadratic
    functional     functional:mean | functional:quantile,alpha=0.9 |
                   functional:expectile,alpha=0.7 |
                   functional:shortfall,loss=linear|exponential[,gamma=1]|power[,p=3] |
                   functional:lambda,file=steps.json |
                   functional:entropic,gamma=1
    market         market:spd=<distribution>;r=0.01;T=1

Parameters may come in any order, each at most once.  Bracketed ones are
optional and default to the value shown (``g=identity``, ``gamma=1``,
``p=3``; a market's ``r=0`` and ``T=1``); renderers always write them.
``empirical:values.csv`` is shorthand for ``empirical:path=values.csv``; only
the shorthand carries a path with a comma, and only ``path=`` one with ``=``,
so a path with both, a step file's path with a comma, or a state-price
density's path with ``;`` has no spec string.
The step-function JSON referenced by ``file=`` is
``{"breakpoints": [...], "levels": [...]}`` with one more level than
breakpoints.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import mkdiv

from .errors import ConfigError

if TYPE_CHECKING:  # annotations only: the package imports a maker's module on first use
    from .distributions import Distribution, Empirical
    from .functionals import Functional
    from .generators import ConvexGenerator, DistortionSpec
    from .payoff import MarketSpec
    from .scores import Score, StepFunction

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


def _put(params: dict, key: str, value, spec: str):
    if key in params:
        raise ConfigError(f"repeated parameter {key!r} in spec {spec!r}")
    params[key] = value


def _parse_pairs(tokens, spec: str) -> dict:
    """Parameter dict of 'k=v' tokens."""
    params = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or not key:
            raise ConfigError(f"malformed parameter {token!r} in spec {spec!r}")
        _put(params, key, value, spec)
    return params


def _lookup(catalog: dict, name: str, what: str, where: str):
    if name not in catalog:
        raise ConfigError(f"unknown {what} {name!r}{where}")
    return catalog[name]


def _float(raw: str, what: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{what} is not numeric") from exc


def _num(x: float) -> str:
    return repr(float(x))


def _read(fields, params: dict, spec: str) -> dict:
    """Keyword arguments of ``fields``, popped from ``params`` in field order."""
    kwargs = {}
    for key, attr, (parse, _, default) in fields:
        raw = params.pop(key, default)
        if raw is None:
            raise ConfigError(f"spec {spec!r} is missing parameter {key!r}")
        kwargs[attr] = parse(raw, key, params, spec)
    return kwargs


def _maker(make):
    """The maker a table entry names by its public name; a function passes through."""
    return getattr(mkdiv, make) if isinstance(make, str) else make


def _build(table: dict, what: str, spec: str, name: str, *tokens: str):
    """The ``name`` entry of ``table`` made from 'k=v' ``tokens``; leftovers are rejected."""
    params = _parse_pairs(tokens, spec)
    make, fields = _lookup(table, name, what, f" in spec {spec!r}")
    kwargs = _read(fields, params, spec)
    if params:
        extra = ", ".join(sorted(params))
        raise ConfigError(f"unexpected parameter(s) {extra} in spec {spec!r}")
    return _maker(make)(**kwargs)


def _render(table: dict, obj, head: str = "", sep: str = ",", name: str | None = None) -> str:
    """``head``, the entry name, ``sep`` and the fields of ``obj`` in field order."""
    name = name or next((n for n, (make, _) in table.items() if _maker(make) is type(obj)), None)
    if name is None:
        raise ConfigError(f"cannot render {obj!r} as a spec string")
    pairs = []
    for key, attr, (_, render, _) in table[name][1]:
        text = render(getattr(obj, attr))
        if text is None:
            raise ConfigError(f"{head}{name} has no {key} to render as a spec string")
        pairs.append(f"{key}={text}")
    return head + name + (sep + ",".join(pairs) if pairs else "")


def _loss(raw, key, params, spec):
    """The ``raw`` loss made from its own fields; the caller rejects leftovers."""
    make, fields = _lookup(_LOSSES, raw, "loss", f" in spec {spec!r}")
    return _maker(make)(**_read(fields, params, spec))


def _catalog(catalog, what: str, default: str | None = None) -> tuple:
    """Kind of a name looked up in ``catalog()`` and rendered back as its ``.name``."""
    return (lambda raw, _, __, spec: _lookup(catalog(), raw, what, f" in spec {spec!r}"),
            lambda obj: obj.name, default)


def _empirical(source_path: str) -> Empirical:
    return mkdiv.from_samples(mkdiv.read_value_csv(source_path), source_path=source_path)


def _step_file(raw: str, *_) -> StepFunction:
    return mkdiv.StepFunction.from_json(raw)


def _carried(path: str | None) -> str | None:
    """``path`` as the value of a 'k=v' token, or None where it has none: a
    comma would split the token."""
    return None if path is None or "," in path else path


# A kind is (parse, render, default): ``parse(raw, key, params, spec)`` turns
# the raw string into the value, ``render`` turns the attribute back into
# text, and ``default`` is the raw string taken when the key is absent (None:
# the key is required).  A field is (spec key, attribute, kind): the entry is
# made with the attribute as a keyword and rendered back from it.
_FLOAT = (lambda raw, key, _, spec: _float(raw, f"parameter {key}={raw!r} in {spec!r}"),
          _num, None)
_LOSS = (_loss, lambda loss: _render(_LOSSES, loss, name=loss.kind), None)
_STEP_FILE = (_step_file, lambda step: _carried(step.source_path), None)
_PATH = (lambda raw, *_: raw, _carried, None)

_ALPHA = ("alpha", "alpha", _FLOAT)
_PHI = ("phi", "gen", _catalog(lambda: mkdiv.generator_catalog(), "generator"))
# transform_catalog is not a public name, so it is reached through its module
_TRANSFORM = _catalog(lambda: mkdiv.scores.transform_catalog(), "transform", "identity")

# An entry is (maker, fields).  The maker is named by its public name, which
# the package imports from its module on first use; a spec kind thus loads
# only the modules that make it.  A plain function passes through as itself.
_LOSSES = {
    "linear": ("linear_loss", ()),
    "exponential": ("exponential_loss", (("gamma", "gamma", (_FLOAT[0], _num, "1")),)),
    "power": ("power_loss", (("p", "p", (_FLOAT[0], _num, "3")),)),
}

_DISTRIBUTIONS = {
    "uniform": ("Uniform", (("a", "a", _FLOAT), ("b", "b", _FLOAT))),
    "normal": ("Normal", (("mu", "mu", _FLOAT), ("sigma", "sigma", _FLOAT))),
    "lognormal": ("LogNormal", (("mu", "mu", _FLOAT), ("sigma", "sigma", _FLOAT))),
    "exponential": ("Exponential", (("rate", "rate", _FLOAT),)),
    "point": ("PointMass", (("c", "c", _FLOAT),)),
    # made by a function that reads the file, so render_distribution picks it by type
    "empirical": (_empirical, (("path", "source_path", _PATH),)),
}

_DISTORTIONS = {
    "identity": ("identity_distortion", ()),
    "dualpower": ("dual_power", (("k", "k", _FLOAT),)),
    "tvar": ("tvar_distortion", (_ALPHA,)),
    "power": ("power_distortion", (("c", "c", _FLOAT),)),
}

_SCORES = {
    "bregman": ("BregmanScore", (_PHI,)),
    "gpl": ("GPLScore", (_ALPHA, ("g", "transform", _TRANSFORM))),
    "expectile": ("ExpectileScore", (_ALPHA, _PHI)),
    "shortfall": ("ShortfallScore", (("loss", "loss", _LOSS),)),
    "lambda": ("LambdaQuantileScore", (("file", "step", _STEP_FILE),)),
    "decomposable": ("DecomposableScore", (_PHI, _ALPHA, ("beta", "beta", _FLOAT))),
    "entropic": ("EntropicScore", (("gamma", "gamma", _FLOAT), _PHI)),
}

_FUNCTIONALS = {
    "mean": ("Mean", ()),
    "quantile": ("Quantile", (_ALPHA,)),
    "expectile": ("Expectile", (_ALPHA,)),
    "shortfall": ("Shortfall", (("loss", "loss", _LOSS),)),
    "lambda": ("LambdaQuantile", (("file", "step", _STEP_FILE),)),
    "entropic": ("Entropic", (("gamma", "gamma", _FLOAT),)),
}


def parse_distribution(spec: str) -> Distribution:
    name, sep, body = spec.partition(":")
    if not sep or not body:
        raise ConfigError(f"malformed distribution spec {spec!r}")
    if name == "empirical" and "=" not in body:
        return _empirical(body)  # shorthand: empirical:<file.csv>
    return _build(_DISTRIBUTIONS, "distribution kind", spec, name, *body.split(","))


def render_distribution(dist: Distribution) -> str:
    if not isinstance(dist, mkdiv.Empirical):
        return _render(_DISTRIBUTIONS, dist, sep=":")
    path = dist.source_path
    if path is not None and "," in path and "=" not in path:
        return f"empirical:{path}"  # only the shorthand carries a comma
    return _render(_DISTRIBUTIONS, dist, sep=":", name="empirical")


def parse_generator(spec: str) -> ConvexGenerator:
    name = _split_head(spec, "phi")
    catalog = mkdiv.generator_catalog()
    return _lookup(catalog, name, "generator", f"; choose from {sorted(catalog)}")


def render_generator(gen: ConvexGenerator) -> str:
    return f"phi:{gen.name}"


def parse_distortion(spec: str) -> DistortionSpec:
    return _build(_DISTORTIONS, "distortion", spec, *_split_head(spec, "distortion").split(","))


def render_distortion(d: DistortionSpec) -> str:
    suffix = "".join(f",{k}={_num(v)}" for k, v in d.params)
    return f"distortion:{d.name}{suffix}"


def parse_score(spec: str) -> Score:
    return _build(_SCORES, "score family", spec, *_split_head(spec, "score").split(","))


def render_score(score: Score) -> str:
    return _render(_SCORES, score, "score:")


def parse_functional(spec: str) -> Functional:
    return _build(_FUNCTIONALS, "functional", spec, *_split_head(spec, "functional").split(","))


def render_functional(t: Functional) -> str:
    return _render(_FUNCTIONALS, t, "functional:")


def parse_market(spec: str) -> MarketSpec:
    body = _split_head(spec, "market")
    values = {}
    for token in body.split(";"):
        key, sep, value = token.partition("=")
        if not sep:
            raise ConfigError(f"malformed market token {token!r} in {spec!r}")
        if key == "spd":
            value = parse_distribution(value)
        elif key in ("r", "T"):
            value = _float(value, f"market {'rate' if key == 'r' else 'horizon'} {value!r}")
        else:
            raise ConfigError(f"unknown market parameter {key!r} in {spec!r}")
        _put(values, key, value, spec)
    if "spd" not in values:
        raise ConfigError(f"market spec {spec!r} is missing the spd")
    return mkdiv.MarketSpec(spd=values["spd"], rate=values.get("r", 0.0),
                            horizon=values.get("T", 1.0))


def render_market(market: MarketSpec) -> str:
    spd = render_distribution(market.spd)
    if ";" in spd:  # it would end the spd token
        raise ConfigError("market has no spd to render as a spec string")
    return f"market:spd={spd};r={_num(market.rate)};T={_num(market.horizon)}"
