"""Standard curve fixtures and config-dict constructors shared by the test
suite, the CLI, and the experiment scripts."""

from __future__ import annotations

import math
from functools import lru_cache

from .curve import ArcLengthCurve, CircularArc, CubicArc, EllipseArc, make_arclength
from .errors import ConfigError
from .wavefield import (ArcLocalized, CoefficientModel, GaussianRandom,
                        SinglePair, UniformRandom)


def circular_fixture() -> ArcLengthCurve:
    return make_arclength(CircularArc(center=(3.0, 3.0), radius=1.0,
                                      angle0=0.3, angle1=1.5))


def ellipse_fixture() -> ArcLengthCurve:
    return make_arclength(EllipseArc(center=(2.0, 2.0), a=2.0, b=1.0,
                                     angle0=0.2, angle1=0.9))


def cubic_fixture() -> ArcLengthCurve:
    return make_arclength(CubicArc(x_coeffs=(0.0, 1.0, 0.0, 0.0),
                                   y_coeffs=(0.0, 0.0, 0.3, 0.05),
                                   angle0=0.0, angle1=0.8))


FIXTURES = {
    "circular": circular_fixture,
    "ellipse": ellipse_fixture,
    "cubic": cubic_fixture,
}


@lru_cache(maxsize=None)
def _memo_fixture(name: str) -> ArcLengthCurve:
    return FIXTURES[name]()


def config_value(name: str, value, kind: type, ok=None, what: str = ""):
    """value, when it is a kind (an int, or a finite number for float; a bool
    is neither) that passes ok; ConfigError otherwise."""
    if kind is float:
        good = isinstance(value, (int, float)) and math.isfinite(value)
    else:
        good = isinstance(value, kind)
    if (isinstance(value, bool) and kind is not bool) or not good or (ok and not ok(value)):
        raise ConfigError(f"{name} must be {what or kind.__name__}, got {value!r}")
    return value


def curve_from_config(cfg: dict) -> ArcLengthCurve:
    """A curve from its JSON form: either {"fixture": name} or an explicit
    kind with numeric parameters.  Named fixtures are shared instances
    (curves are immutable)."""
    if "fixture" in cfg:
        name = cfg["fixture"]
        if name not in FIXTURES:
            raise ConfigError(f"unknown curve fixture {name!r}")
        return _memo_fixture(name)
    kind = cfg.get("kind")
    try:
        if kind == "circular-arc":
            spec = CircularArc(center=tuple(cfg["center"]), radius=cfg["radius"],
                               angle0=cfg["angles"][0], angle1=cfg["angles"][1])
        elif kind == "ellipse-arc":
            spec = EllipseArc(center=tuple(cfg["center"]), a=cfg["a"], b=cfg["b"],
                              angle0=cfg["angles"][0], angle1=cfg["angles"][1])
        elif kind == "cubic-parametric":
            spec = CubicArc(x_coeffs=tuple(cfg["x_coeffs"]),
                            y_coeffs=tuple(cfg["y_coeffs"]),
                            angle0=cfg["range"][0], angle1=cfg["range"][1])
        else:
            raise ConfigError(f"unknown curve kind {kind!r}")
        return make_arclength(spec)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad curve config: {exc}") from exc


def model_from_config(cfg: dict, seed: int) -> CoefficientModel:
    """A coefficient model from its JSON form; the per-run seed is injected."""
    kind = cfg.get("kind", "uniform-random")
    if kind == "uniform-random":
        return UniformRandom(seed=seed)
    if kind == "gaussian-random":
        return GaussianRandom(seed=seed)
    if kind == "arc-localized":
        return ArcLocalized(
            center_angle=config_value("center_angle", cfg.get("center_angle", 0.0), float),
            fraction=config_value("fraction", cfg.get("fraction", 0.01), float,
                                  lambda x: 0.0 < x <= 1.0, "a number in (0, 1]"),
            seed=seed)
    if kind == "single-pair":
        mu = cfg.get("mu")
        if not (isinstance(mu, list) and len(mu) == 2):
            raise ConfigError(f"single-pair mu must be a lattice point [x, y], got {mu!r}")
        return SinglePair(mu=tuple(config_value("mu", v, int) for v in mu),
                          phase=config_value("phase", cfg.get("phase", 0.0), float))
    raise ConfigError(f"unknown coefficient model {kind!r}")
