"""Run configuration: flat INI-style text with [section] headers.

Each key is one RunConfig field whose metadata gives its section, INI
name and value type; FIELDS is derived from those fields and drives
parsing, writing, the `frontlab` flags and `sweep --set`.  A config
round-trips bit-identically through to_ini/from_ini once in canonical
form.  RunConfig's defaults are the only ones: library signatures name
them as `RunConfig.<field>`.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, fields

from .symbols import MultiplierSpec, preset, spec_from_text

__all__ = ["FIELDS", "KEYS", "RunConfig", "operator_from_config", "parse_value",
           "set_key"]


def _key(section: str, default, kind: str = "", name: str = ""):
    """The field of INI key `section.name`, name being the field's own
    unless given, with value type `kind`, its annotation unless given.
    Types: str, int, float, bool, floats (comma list) and pairs (comma
    list of a:alpha).  A key whose default is empty (None, "" or ()) is
    optional: to_ini leaves it out while it is empty."""
    return field(default=default,
                 metadata={"section": section, "kind": kind, "name": name})


@dataclass
class RunConfig:
    preset: str = _key("operator", "burgers")
    nu: float | None = _key("operator", None, "float")
    terms: tuple = _key("operator", (), "pairs")  # ((a, alpha), ...) for frac
    expression: str = _key("operator", "")        # overrides preset when nonempty
    n: int = _key("grid", 1024)
    length: float = _key("grid", 80.0)
    front_tol: float = _key("front", 1e-8, name="tol")
    eps_samples: tuple = _key("certificate", (0.01, 0.05, 0.1, 0.2, 0.4, 0.8),
                              "floats", "eps")
    fd_points: int = _key("certificate", 2000)
    kind: str = _key("perturbation", "gaussian")
    amplitude: float = _key("perturbation", 0.5)
    width: float = _key("perturbation", 1.0)
    seed: int = _key("perturbation", 0)
    dt: float = _key("stepper", 2e-3)
    gamma: float = _key("stepper", 1.1)
    dealias: bool = _key("stepper", True)
    t_end: float = _key("stepper", 50.0)
    record_every: int = _key("stepper", 25)
    snapshot_every: int = _key("stepper", 0)
    p_list: tuple = _key("diagnostics", (1.5, 3.0, 4.0), "floats")
    fit_window: tuple = _key("diagnostics", (), "floats")  # empty -> (t_end/4, t_end)
    delta: float = _key("diagnostics", 0.05)
    model: str = _key("diagnostics", "")          # kdvb|frac_odd|empty
    directory: str = _key("output", "run")

    def window(self) -> tuple[float, float]:
        window = tuple(self.fit_window) or (self.t_end / 4.0, self.t_end)
        if len(window) != 2 or not 0.0 < window[0] < window[1]:  # fits take ln t
            raise ValueError(f"diagnostics.fit_window: need two times "
                             f"0 < t0 < t1, got {window}")
        return window

    # -- serialization ----------------------------------------------------

    def to_ini(self) -> str:
        cp = configparser.ConfigParser(interpolation=None)
        for section, key, attr, kind in FIELDS:
            value = getattr(self, attr)
            # canonical form: an expression replaces the preset keys, and
            # empty optional keys are left out
            if (self.expression and section == "operator" and key != "expression"
                    or value in _EMPTY and getattr(RunConfig, attr) in _EMPTY):
                continue
            if not cp.has_section(section):
                cp.add_section(section)
            cp[section][key] = _format_value(kind, value)
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    @staticmethod
    def from_ini(text: str) -> "RunConfig":
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(text)
        cfg = RunConfig()
        for section in cp.sections():
            if section not in _SECTIONS:
                raise ValueError(f"unknown config section [{section}]")
            for key, raw in cp[section].items():
                set_key(cfg, f"{section}.{key}", raw)
        return cfg


# One row per key, in field order: (section, key, RunConfig attribute,
# value type); an annotation is its own text under postponed evaluation
FIELDS = tuple((f.metadata["section"], f.metadata["name"] or f.name, f.name,
                f.metadata["kind"] or f.type) for f in fields(RunConfig))
# "section.key" -> (RunConfig attribute, value type)
KEYS = {f"{section}.{key}": (attr, kind) for section, key, attr, kind in FIELDS}
_SECTIONS = {section for section, _, _, _ in FIELDS}
_EMPTY = (None, "", ())


def parse_value(kind: str, text: str):
    """Parse the text of one value of a FIELDS type; an empty list is ()."""
    text = text.strip()
    if kind == "floats":
        return tuple(float(x) for x in text.split(",")) if text else ()
    if kind == "pairs":
        pairs = tuple(tuple(float(x) for x in pair.split(":"))
                      for pair in text.split(",")) if text else ()
        if any(len(pair) != 2 for pair in pairs):
            raise ValueError(f"expected a:alpha pairs, got {text!r}")
        return pairs
    if kind == "bool":
        states = configparser.ConfigParser.BOOLEAN_STATES
        if text.lower() not in states:
            raise ValueError(f"not a boolean: {text!r}")
        return states[text.lower()]
    return {"str": str, "int": int, "float": float}[kind](text)


def set_key(cfg: RunConfig, key: str, text: str) -> None:
    """Set the field of config key "section.key" from its INI text."""
    if key not in KEYS:
        raise ValueError(f"unknown config key {key}")
    attr, kind = KEYS[key]
    try:
        setattr(cfg, attr, parse_value(kind, text))
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _format_value(kind: str, value) -> str:
    if kind == "floats":
        return ",".join(repr(x) for x in value)
    if kind == "pairs":
        return ",".join(f"{a!r}:{alpha!r}" for a, alpha in value)
    if kind == "bool":
        return "true" if value else "false"
    return repr(value) if kind == "float" else str(value)


def operator_from_config(cfg: RunConfig) -> MultiplierSpec:
    if cfg.expression:
        return spec_from_text(cfg.expression)
    if cfg.preset == "kdvb":
        return preset("kdvb", nu=cfg.nu)
    if cfg.preset == "frac":
        return preset("frac", terms=list(cfg.terms))
    return preset(cfg.preset)
