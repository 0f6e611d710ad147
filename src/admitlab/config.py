"""Experiment configuration: YAML parsing, validation, object construction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import yaml

from .admittivity import (AdmittivityFamily, AprioriData, ParameterField, WindowResult,
                          best_frequency_window)
from .errors import ConfigError
from .families import FIELD_KEYS, build_family, build_field
from .geometry import BoundaryPatch, BoxDomain, make_tau_grid

_DEFAULT_APRIORI = {
    "p": 6.0,
    "lambda": 2.0,
    "e1": 2.0,
    "e2": 1.25,
    "bigE": 60.0,
    "dcal": 1.5,
    "fcal": 10.0,
    "alpha": 0.25,
}

_FORMATS = ("csv", "json", "svg")

# The keys each config section may hold; None for family.params, whose
# keys its family checks.
_KEYS = {
    "": ("seed", "geometry", "family", "apriori", "fields", "discretization", "sweep",
         "output"),
    "geometry.": ("box", "patch", "eta", "tau_grid"),
    "geometry.box.": ("lo", "hi"),
    "geometry.patch.": ("face", "rect_lo", "rect_hi"),
    "geometry.tau_grid.": ("start", "ratio", "count"),
    "discretization.": ("h", "rho", "order", "x0"),
    "family.": ("template", "k", "params", "enforce_window"),
    "family.params.": None,
    "apriori.": (*_DEFAULT_APRIORI, "r0", "L"),
    "fields.": ("a1", "a2"),
    "sweep.": ("scales", "delta"),
    "output.": ("formats",),
}


@dataclass
class ExperimentConfig:
    raw: dict
    path: Optional[str]
    seed: int
    box: BoxDomain
    patch: BoundaryPatch
    eta: float
    tau_grid: tuple
    family_template: str
    family: AdmittivityFamily
    k: float
    k_was_auto: bool
    enforce_window: bool
    window: WindowResult
    apriori: AprioriData
    a1: ParameterField
    a2: Optional[ParameterField]
    h: float
    rho: float
    order: int
    x0: tuple
    sweep_scales: tuple
    sweep_delta: Optional[ParameterField]
    formats: tuple


def _get(section: dict, key: str, default=None, required=False, where=""):
    if key in section:
        return section[key]
    if required:
        raise ConfigError(f"missing config key '{where}{key}'")
    return default


def _known(section: dict, where: str) -> dict:
    """`section`, or a ConfigError naming its first key that `_KEYS` does
    not list for `where`."""
    allowed = _KEYS[where]
    unknown = [key for key in section if allowed is not None and key not in allowed]
    if unknown:
        raise ConfigError(f"unknown config key '{where}{unknown[0]}', expected one of "
                          f"{list(allowed)}")
    return section


def _section(section: dict, key: str, where="", required=False) -> dict:
    """A mapping-valued config entry ({} when absent and optional); a null
    or non-mapping entry, or one with an unknown key, is a ConfigError
    naming the key."""
    value = _get(section, key, {}, required=required, where=where)
    if not isinstance(value, dict):
        raise ConfigError(f"config key '{where}{key}' must be a mapping, got {value!r}")
    return _known(value, f"{where}{key}.")


def _number(value, key: str, finite: bool = True) -> float:
    """`float(value)`, or a ConfigError naming the config key; a non-finite
    number is one too unless `finite` is false."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config key '{key}' must be a number, got {value!r}") from None
    if finite and not math.isfinite(number):
        raise ConfigError(f"config key '{key}' must be a finite number, got {value!r}")
    return number


def _integer(value, key: str) -> int:
    """An integral config number as int; a boolean, a fraction or a
    non-number is a ConfigError naming the config key."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    number = _number(value, key)
    if isinstance(value, bool) or not number.is_integer():
        raise ConfigError(f"config key '{key}' must be an integer, got {value!r}")
    return int(number)


def _numbers(values, key: str, finite: bool = True) -> tuple:
    """Floats of a config list, or a ConfigError naming the config key."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"config key '{key}' must be a list of numbers, got {values!r}")
    return tuple(_number(v, key, finite) for v in values)


def _number_or_list(value, key: str) -> None:
    """ConfigError naming the config key unless `value` is a finite number
    or a list of them."""
    _numbers(value if isinstance(value, (list, tuple)) else [value], key)


def _field(spec, key: str) -> ParameterField:
    """Parameter field of a config mapping, malformed entries named by key."""
    if not isinstance(spec, dict):
        raise ConfigError(f"config key '{key}' must be a mapping, got {spec!r}")
    allowed = FIELD_KEYS.get(spec.get("kind"))
    unknown = [name for name in spec if allowed is not None and name not in ("kind", *allowed)]
    if unknown:
        raise ConfigError(f"unknown config key '{key}.{unknown[0]}', expected one of "
                          f"{['kind', *allowed]}")
    for name, value in spec.items():
        if name != "kind":
            _number_or_list(value, key)
    try:
        return build_field(spec)
    except KeyError as exc:
        raise ConfigError(f"missing config key '{key}.{exc.args[0]}'") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key '{key}' is malformed: {exc}") from None


def load_config(path=None, data: dict = None, seed: int = None, mesh_h: float = None) -> ExperimentConfig:
    """Parse and cross-validate an experiment config.

    Command-line overrides (seed, mesh pitch) are applied before validation
    and are reflected in the canonical dict used for hashing.
    """
    if data is None:
        if path is None:
            raise ConfigError("either a path or a config mapping is required")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = yaml.safe_load(fh)
        except OSError:
            raise
        except yaml.YAMLError as exc:
            raise ConfigError(f"config parse error in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    data = dict(_known(data, ""))
    if seed is not None:
        data["seed"] = _integer(seed, "seed")

    geo = _section(data, "geometry", required=True)
    box_spec = (_section(geo, "box", "geometry.") if "box" in geo
                else {"lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0, 1.0]})
    box = BoxDomain(_numbers(_get(box_spec, "lo", required=True, where="geometry.box."),
                             "geometry.box.lo"),
                    _numbers(_get(box_spec, "hi", required=True, where="geometry.box."),
                             "geometry.box.hi"))
    patch_spec = _section(geo, "patch", "geometry.", required=True)
    patch = BoundaryPatch(
        box=box,
        face=_get(patch_spec, "face", "z+"),
        rect_lo=_numbers(_get(patch_spec, "rect_lo", required=True, where="geometry.patch."),
                         "geometry.patch.rect_lo"),
        rect_hi=_numbers(_get(patch_spec, "rect_hi", required=True, where="geometry.patch."),
                         "geometry.patch.rect_hi"),
    )
    eta = _number(_get(geo, "eta", required=True, where="geometry."), "geometry.eta")

    disc = _section(data, "discretization")
    h = _number(_get(disc, "h", 0.0625), "discretization.h")
    if mesh_h is not None:
        h = _number(mesh_h, "discretization.h")
        # A new section: the caller's own mapping is left as it was.
        data["discretization"] = {**disc, "h": h}
    if not (math.isfinite(h) and h > 0.0):
        raise ConfigError(f"config key 'discretization.h' must be finite and positive, "
                          f"got {h!r}")
    rho = _get(disc, "rho", None)
    rho = eta / 4.0 if rho is None else _number(rho, "discretization.rho")
    # The estimator's own bound, with its tolerance.
    if not 0.0 < rho <= eta / 4.0 + 1e-12:
        raise ConfigError(f"config key 'discretization.rho' must lie in (0, eta/4] = "
                          f"(0, {eta / 4.0}], got {rho!r}")
    order = _integer(_get(disc, "order", 0), "discretization.order")
    if order < 0:
        raise ConfigError(f"config key 'discretization.order' must be >= 0, got {order!r}")
    x0 = _numbers(_get(disc, "x0", (0.5, 0.5, 1.0)), "discretization.x0")
    if len(x0) != 3:
        raise ConfigError(f"config key 'discretization.x0' must have 3 entries, got {x0!r}")

    tau_spec = _section(geo, "tau_grid", "geometry.")
    tau_start = _get(tau_spec, "start", None)
    tau_start = (eta / 16.0 if tau_start is None
                 else _number(tau_start, "geometry.tau_grid.start"))
    tau_grid = make_tau_grid(
        tau_start,
        _number(_get(tau_spec, "ratio", 0.5), "geometry.tau_grid.ratio"),
        _integer(_get(tau_spec, "count", 5), "geometry.tau_grid.count"),
    )

    ap = dict(_DEFAULT_APRIORI)
    ap.update(_section(data, "apriori"))
    ap = {key: _number(value, f"apriori.{key}") for key, value in ap.items()}
    fam_spec = _section(data, "family", required=True)
    template = _get(fam_spec, "template", required=True, where="family.")
    params = _section(fam_spec, "params", "family.")
    n = 3
    window = best_frequency_window(ap["e1"], ap["e2"], n)
    k_raw = _get(fam_spec, "k", "auto")
    k_was_auto = isinstance(k_raw, str)
    if k_was_auto:
        if k_raw != "auto":
            raise ConfigError(f"family.k must be a number or 'auto', got {k_raw!r}")
        if window.empty:
            raise ConfigError(
                "family.k is 'auto' but the frequency window is empty; "
                "set an explicit k"
            )
        k = 0.9 * window.k_max
    else:
        k = _number(k_raw, "family.k")
    enforce_window = _get(fam_spec, "enforce_window", False)
    if not isinstance(enforce_window, bool):
        raise ConfigError(f"config key 'family.enforce_window' must be true or false, "
                          f"got {enforce_window!r}")

    eta0 = patch.eta0()
    apriori = AprioriData(
        n=n, p=ap["p"], k=k, lam=ap["lambda"],
        e1=ap["e1"], e2=ap["e2"], bigE=ap["bigE"],
        dcal=ap["dcal"], fcal=ap["fcal"], alpha=ap["alpha"],
        r0=ap.get("r0", float(min(box.hi_arr - box.lo_arr)) / 2.0),
        L=ap.get("L", 1.0),
        eta=eta, eta0=eta0 * (1.0 - 1e-12), tau0=eta / 8.0, diam=box.diameter,
    )
    for name, value in params.items():
        _number_or_list(value, f"family.params.{name}")
    try:
        family = build_family(template, k, params, t_range=apriori.t_range)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key 'family.params' is malformed: {exc}") from None

    fields = _section(data, "fields", required=True)
    a1 = _field(_get(fields, "a1", required=True, where="fields."), "fields.a1")
    a2_spec = _get(fields, "a2", None)
    a2 = _field(a2_spec, "fields.a2") if a2_spec is not None else None

    sweep = _section(data, "sweep")
    scales = _numbers(_get(sweep, "scales", ()), "sweep.scales", finite=False)
    for s in scales:
        if not math.isfinite(s) or s == 0.0:
            raise ConfigError(f"sweep.scales entries must be finite and nonzero, got {s!r}")
    # A log-log slope needs two points.
    if scales and len(set(scales)) < 2:
        raise ConfigError(f"config key 'sweep.scales' must hold at least two distinct "
                          f"scales, got {list(scales)!r}")
    delta_spec = _get(sweep, "delta", None)
    delta = _field(delta_spec, "sweep.delta") if delta_spec is not None else None

    out = _section(data, "output")
    formats = _get(out, "formats", list(_FORMATS))
    if not isinstance(formats, list) or any(f not in _FORMATS for f in formats):
        raise ConfigError(f"config key 'output.formats' must be a list of names from "
                          f"{list(_FORMATS)}, got {formats!r}")
    formats = tuple(formats)

    return ExperimentConfig(
        raw=data, path=str(path) if path else None,
        seed=_integer(_get(data, "seed", 0), "seed"),
        box=box, patch=patch, eta=eta, tau_grid=tau_grid,
        family_template=template, family=family,
        k=k, k_was_auto=k_was_auto, enforce_window=enforce_window, window=window,
        apriori=apriori, a1=a1, a2=a2, h=h, rho=rho, order=order, x0=x0,
        sweep_scales=scales, sweep_delta=delta, formats=formats,
    )
