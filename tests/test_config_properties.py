"""Property tests of the config schema over every FIELDS row."""

import string

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from frontlab import RunConfig  # noqa: E402
from frontlab.config import FIELDS  # noqa: E402

_FLOATS = st.floats(allow_nan=False)
_VALUES = {
    "str": st.text(string.ascii_letters + string.digits + "_-./*()^%;#:,",
                   max_size=12),
    "int": st.integers(),
    "float": _FLOATS,
    "bool": st.booleans(),
    "floats": st.lists(_FLOATS, max_size=4).map(tuple),
    "pairs": st.lists(st.tuples(_FLOATS, _FLOATS), max_size=3).map(tuple),
}


@st.composite
def canonical_configs(draw):
    values = {}
    for _, _, attr, kind in FIELDS:
        strategy = _VALUES[kind]
        if getattr(RunConfig, attr) is None:
            strategy = st.none() | strategy
        values[attr] = draw(strategy)
    if values["expression"]:  # an expression replaces the preset keys
        values.update(preset=RunConfig.preset, nu=None, terms=())
    return RunConfig(**values)


@given(canonical_configs())
@example(RunConfig(p_list=(), eps_samples=()))
def test_config_round_trips_over_every_field(cfg):
    text = cfg.to_ini()
    again = RunConfig.from_ini(text)
    assert again == cfg
    assert again.to_ini() == text
