"""Run configuration: strict INI-style key/value files with nested sections.

Unknown sections or keys are hard errors -- a silently ignored typo in a phi
entry would corrupt a whole study.  SCHEMA converts and range-checks every
key; command-line flags override file values as raw text parsed the same way.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass

from .model import MarketParams
from .svg import MARGIN_BOTTOM, MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP


class ConfigError(ValueError):
    pass


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _checked(conv, ok, need: str):
    """conv, then a range check: a value that fails ok must be `need`."""
    def parse(raw: str):
        value = conv(raw)
        if not ok(value):
            raise ConfigError(f"must be {need}")
        return value
    return parse


_FINITE = _checked(float, math.isfinite, "finite")
_POSITIVE = _checked(float, lambda v: 0 < v < math.inf, "positive and finite")
_COUNT = _checked(int, lambda v: v >= 1, "at least 1")


def _svg_size(margins: float):
    """An SVG side in px that leaves a plot area inside margins px."""
    return _checked(int, lambda v: v > margins, f"more than {margins:g} (the SVG margins)")


REGIMES = ("cne", "ce", "both")
# sweep axis -> (MarketParams field, the cells of that field it sets)
SWEEP_AXES = {
    "u0": ("u0", (0, 1)), "u0_b": ("u0", (0,)), "u0_s": ("u0", (1,)),
    "beta": ("beta", (0, 1)), "beta_b": ("beta", (0,)), "beta_s": ("beta", (1,)),
    "phi_own": ("phi", ((0, 0), (1, 1))), "phi_bb": ("phi", ((0, 0),)),
    "phi_ss": ("phi", ((1, 1),)), "phi_bs": ("phi", ((0, 1),)), "phi_sb": ("phi", ((1, 0),)),
    "n_platforms": ("n_platforms", ()),
}
_AXIS = f"a sweep axis ({', '.join(SWEEP_AXES)})"


# section -> key -> (type converter, default); default None means required
SCHEMA: dict[str, dict[str, tuple]] = {
    "market": {  # in the order of the parameter echo and the CSV input columns
        "n_platforms": (int, None),
        "beta_b": (float, None),
        "beta_s": (float, None),
        "phi_bb": (float, 0.0),
        "phi_bs": (float, 0.0),
        "phi_sb": (float, 0.0),
        "phi_ss": (float, 0.0),
        "u0_b": (float, 0.0),
        "u0_s": (float, 0.0),
        "mu_b": (float, 0.0),
        "mu_s": (float, 0.0),
    },
    "solve": {
        "regime": (_checked(str, REGIMES.__contains__, "cne, ce or both"), "both"),
    },
    "sweep": {
        "axis": (_checked(str, SWEEP_AXES.__contains__, _AXIS), "u0"),
        "start": (_FINITE, -5.0),
        "stop": (_FINITE, 5.0),
        "step": (_FINITE, 0.1),
        "axis2": (_checked(str, lambda v: v == "" or v in SWEEP_AXES, "empty or " + _AXIS), ""),
        "start2": (_FINITE, 0.0),
        "stop2": (_FINITE, 0.0),
        "step2": (_FINITE, 0.0),
        "derivatives": (_bool, True),
    },
    "grid": {
        "phi_min": (_FINITE, -2.0),
        "phi_max": (_FINITE, 2.0),
        "beta_min": (_FINITE, 0.0),
        "beta_max": (_FINITE, 2.0),
        "resolution": (_COUNT, 200),
    },
    "figure": {
        "id": (str, ""),
        # 0 or empty: the figure's own N or panels
        "n_platforms": (_checked(int, lambda v: v == 0 or v >= 2, "0 or at least 2"), 0),
        "u0": (_checked(lambda raw: float(raw) if raw.strip() else "",
                        lambda v: v == "" or math.isfinite(v), "empty or finite"), ""),
    },
    "verify": {
        "radius": (_POSITIVE, 0.5),
        "grid_n": (_COUNT, 41),
        "tolerance": (_POSITIVE, 1e-6),
        "perturb_price": (_FINITE, 0.0),
    },
    "output": {
        "dir": (str, ""),
        "seed": (int, 0),
        "jobs": (int, 1),  # accepted and ignored: existing configs and scripts still set it
        "width": (_svg_size(MARGIN_LEFT + MARGIN_RIGHT), 640),
        "height": (_svg_size(MARGIN_TOP + MARGIN_BOTTOM), 480),
    },
}

MARKET_KEYS = tuple(SCHEMA["market"])
MAX_SWEEP_POINTS = 1_000_000  # over both sweep axes


def axis_count(start: float, stop: float, step: float) -> int:
    """The number of sweep points start + i step, i = 0, 1, ..., up to stop
    (with a 1e-9 slack for rounding); MAX_SWEEP_POINTS + 1 for any larger
    count, an overflowing one included."""
    return math.floor(min((stop - start) / step, MAX_SWEEP_POINTS) + 1e-9) + 1


@dataclass
class RunConfig:
    """Validated configuration with the raw text's hash for output headers."""

    values: dict[str, dict[str, object]]
    sha256: str

    def get(self, section: str, key: str):
        return self.values[section][key]

    @property
    def market(self) -> MarketParams:
        m = self.values["market"]
        try:
            return MarketParams(
                n_platforms=m["n_platforms"],
                beta=(m["beta_b"], m["beta_s"]),
                phi=((m["phi_bb"], m["phi_bs"]), (m["phi_sb"], m["phi_ss"])),
                u0=(m["u0_b"], m["u0_s"]),
                mu=(m["mu_b"], m["mu_s"]),
            )
        except ValueError as exc:
            raise ConfigError(f"invalid market parameters: {exc}") from exc

    def echo(self) -> str:
        m = self.values["market"]
        return " ".join(f"{k}={m[k]:g}" if isinstance(m[k], float) else f"{k}={m[k]}"
                        for k in MARKET_KEYS)


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse and validate configuration text against SCHEMA.  overrides maps
    (section, key) to raw text that takes the place of the file's value."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if cp.defaults():
        raise ConfigError("top-level keys are not allowed; use [section] headers")
    for (section, key), raw in (overrides or {}).items():
        cp.read_dict({section: {key: raw}})

    values: dict[str, dict[str, object]] = {}
    for section in cp.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        values[section] = {}
        for key, raw in cp.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            conv, _ = SCHEMA[section][key]
            try:
                values[section][key] = conv(raw)
            except ConfigError as exc:
                raise ConfigError(f"[{section}] {key} {exc}, not {raw!r}") from None
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc

    for section, keys in SCHEMA.items():
        values.setdefault(section, {})
        for key, (_, default) in keys.items():
            if key not in values[section]:
                if default is None:
                    raise ConfigError(f"missing required key {key!r} in section [{section}]")
                values[section][key] = default

    # a positive whole step keeps an n_platforms axis >= 2 if its whole start is
    sweep = values["sweep"]
    points = 1
    for suffix in ("", "2") if sweep["axis2"] else ("",):
        if not sweep["step" + suffix] > 0:
            raise ConfigError(f"[sweep] step{suffix} must be positive")
        if sweep["stop" + suffix] < sweep["start" + suffix]:
            raise ConfigError(f"[sweep] stop{suffix} must not be below start{suffix}")
        points *= axis_count(sweep["start" + suffix], sweep["stop" + suffix],
                             sweep["step" + suffix])
        if sweep["axis" + suffix] == "n_platforms":
            if not (sweep["start" + suffix].is_integer() and sweep["step" + suffix].is_integer()):
                raise ConfigError(f"[sweep] start{suffix} and step{suffix} of an n_platforms"
                                  " axis must be whole numbers")
            if sweep["start" + suffix] < 2:
                raise ConfigError(f"[sweep] start{suffix} of an n_platforms axis must be >= 2")
    if points > MAX_SWEEP_POINTS:
        raise ConfigError(f"[sweep] has more than {MAX_SWEEP_POINTS:,} points over its axes;"
                          " use a coarser step")
    grid = values["grid"]
    for axis in ("phi", "beta"):
        if not grid[axis + "_min"] < grid[axis + "_max"]:
            raise ConfigError(f"[grid] {axis}_min must be below {axis}_max")

    digest = hashlib.sha256(text.encode()).hexdigest()
    return RunConfig(values=values, sha256=digest)


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, overrides)
