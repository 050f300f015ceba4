"""Run configuration: strict INI-style key/value files with nested sections.

Unknown sections or keys are hard errors -- a silently ignored typo in a phi
entry would corrupt a whole study.  The documented schema lives in SCHEMA;
every command reads [market] plus its own section, and command-line flags
override file values.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass

from .model import MarketParams


class ConfigError(ValueError):
    pass


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


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
        "regime": (str, "both"),
        "tol": (float, 1e-10),
    },
    "sweep": {
        "axis": (str, "u0"),
        "start": (float, -5.0),
        "stop": (float, 5.0),
        "step": (float, 0.1),
        "axis2": (str, ""),
        "start2": (float, 0.0),
        "stop2": (float, 0.0),
        "step2": (float, 0.0),
        "derivatives": (_bool, True),
    },
    "grid": {
        "phi_min": (float, -2.0),
        "phi_max": (float, 2.0),
        "beta_min": (float, 0.0),
        "beta_max": (float, 2.0),
        "resolution": (int, 200),
    },
    "figure": {
        "id": (str, ""),
        "n_platforms": (int, 0),  # 0: use the figure's own default
        "u0": (str, ""),          # empty: use the figure's default panels
    },
    "verify": {
        "radius": (float, 0.5),
        "grid_n": (int, 41),
        "tolerance": (float, 1e-6),
        "perturb_price": (float, 0.0),
    },
    "output": {
        "dir": (str, ""),
        "seed": (int, 0),
        "jobs": (int, 1),  # accepted and ignored: existing configs and scripts still set it
        "width": (int, 640),
        "height": (int, 480),
    },
}

MARKET_KEYS = tuple(SCHEMA["market"])
REGIMES = ("cne", "ce", "both")

# sweep axis -> (MarketParams field, the cells of that field it sets)
SWEEP_AXES = {
    "u0": ("u0", (0, 1)), "u0_b": ("u0", (0,)), "u0_s": ("u0", (1,)),
    "beta": ("beta", (0, 1)), "beta_b": ("beta", (0,)), "beta_s": ("beta", (1,)),
    "phi_own": ("phi", ((0, 0), (1, 1))), "phi_bb": ("phi", ((0, 0),)),
    "phi_ss": ("phi", ((1, 1),)), "phi_bs": ("phi", ((0, 1),)), "phi_sb": ("phi", ((1, 0),)),
    "n_platforms": ("n_platforms", ()),
}


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


def parse_config(text: str) -> RunConfig:
    """Parse and validate configuration text against SCHEMA."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if cp.defaults():
        raise ConfigError("top-level keys are not allowed; use [section] headers")

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
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc

    for section, keys in SCHEMA.items():
        values.setdefault(section, {})
        for key, (_, default) in keys.items():
            if key not in values[section]:
                if default is None:
                    raise ConfigError(f"missing required key {key!r} in section [{section}]")
                values[section][key] = default

    axis = values["sweep"]["axis"]
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose from {tuple(SWEEP_AXES)}")
    axis2 = values["sweep"]["axis2"]
    if axis2 and axis2 not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis2 {axis2!r}")
    regime = values["solve"]["regime"]
    if regime not in REGIMES:
        raise ConfigError(f"regime must be cne, ce or both, not {regime!r}")

    digest = hashlib.sha256(text.encode()).hexdigest()
    return RunConfig(values=values, sha256=digest)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
