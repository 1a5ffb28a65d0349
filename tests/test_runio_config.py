import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest

from frontlab import (Field, NormSeries, RunConfig, certify_front, make_grid,
                      preset)
from frontlab.cli import main
from frontlab.config import FIELDS, KEYS, operator_from_config
from frontlab.evolution import StepperConfig
from frontlab.fronts import reference_front
from frontlab.runio import (RunWriter, read_certificate, read_field_csv,
                            read_json, read_profile, read_run, read_series_csv,
                            to_json, write_certificate, write_field_csv,
                            write_json, write_profile, write_series_csv)


@pytest.fixture
def sample_field():
    g = make_grid(64, 16.0)
    rng = np.random.default_rng(0)
    return Field(g, rng.standard_normal(g.n))


def test_field_csv_round_trip(tmp_path, sample_field):
    path = tmp_path / "field.csv"
    write_field_csv(path, sample_field)
    again = read_field_csv(path)
    assert again.grid == sample_field.grid
    assert np.array_equal(again.values, sample_field.values)
    # a length whose spacing is not a binary fraction comes back exactly
    odd = Field(make_grid(512, 10.1), sample_field.values.repeat(8))
    write_field_csv(path, odd)
    assert read_field_csv(path).grid == odd.grid


def test_profile_round_trip(tmp_path, burgers_front):
    base = tmp_path / "prof"
    write_profile(base, burgers_front)
    again = read_profile(base)
    assert np.array_equal(again.phi.values, burgers_front.phi.values)
    assert np.array_equal(again.phi_prime.values, burgers_front.phi_prime.values)
    assert again.endpoints == burgers_front.endpoints
    assert again.residual_sup == burgers_front.residual_sup
    assert again.method == burgers_front.method
    assert again.operator.is_zero


def test_profile_round_trip_with_params(tmp_path, kdvb_front):
    base = tmp_path / "prof"
    write_profile(base, kdvb_front)
    again = read_profile(base)
    assert again.operator.params["nu"] == pytest.approx(-6.0 / 25.0)
    ks = np.linspace(-10, 10, 41)
    assert np.max(np.abs(again.operator.values(ks)
                         - kdvb_front.operator.values(ks))) <= 1e-13


def test_profile_reads_older_files_with_a_hypothesis_report(tmp_path,
                                                             burgers_front,
                                                             burgers_cert):
    """profile.json once carried a "hypothesis" object of localization
    numbers; such files still load and certify as before."""
    base = tmp_path / "prof"
    write_profile(base, burgers_front)
    meta = read_json(f"{base}.json")
    meta["hypothesis"] = {
        "phi_prime_l2": 0.8164965809277259, "phi_second_l2": 0.3651483716701107,
        "first_moment": 4.772080018289854, "tail_fraction": 7.407213932568861e-15,
        "edge_derivative": 9.933658651448207e-18}
    write_json(f"{base}.json", meta)
    again = read_profile(base)
    assert np.array_equal(again.phi.values, burgers_front.phi.values)
    assert np.array_equal(again.phi_prime.values, burgers_front.phi_prime.values)
    assert certify_front(again) == burgers_cert


def test_profile_base_with_dot(tmp_path, grid_std, burgers_front, kdvb_front,
                               frac_half_front):
    """A dot in the base name is part of the name, not a suffix; the
    operator reads back whole, a fractional one's terms included."""
    fronts = {"a_0.1": burgers_front, "a_0.2": kdvb_front,
              "a_0.3": reference_front(grid_std, preset("hilbert")),
              "a_0.4": frac_half_front}
    for name, front in fronts.items():
        paths = write_profile(tmp_path / name, front)
        assert paths == (tmp_path / f"{name}.csv", tmp_path / f"{name}.json")
    assert len(list(tmp_path.iterdir())) == 2 * len(fronts)
    for name, front in fronts.items():
        again = read_profile(tmp_path / name)
        assert np.array_equal(again.phi.values, front.phi.values)
        assert again.method == front.method
        assert again.operator.params == front.operator.params
        assert again.operator.label == front.operator.label
        assert again.operator.text == front.operator.text
    again = read_profile(tmp_path / "a_0.3")  # the reference profile
    assert again.exact is False and np.isnan(again.residual_sup)


def test_certificate_round_trip(tmp_path, burgers_cert):
    path = tmp_path / "cert.json"
    write_certificate(path, burgers_cert)
    assert read_certificate(path) == burgers_cert


def test_series_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    names = list(NormSeries((1.5, 4.0)).data)
    data = {name: rng.random(12).tolist() for name in names}
    data["t"] = [0.1 * i for i in range(12)]
    s = NormSeries((1.5, 4.0), data)
    path = tmp_path / "series.csv"
    write_series_csv(path, s)
    again = read_series_csv(path)
    assert again.p_list == (1.5, 4.0)
    assert list(again.data) == names and again.data == s.data


def test_run_directory_round_trips(tmp_path):
    """Every artifact of a small `frontlab simulate` run, read back through
    runio and written again, gives the same bytes."""
    run_dir, copy = tmp_path / "run", tmp_path / "copy"
    cfg = RunConfig(preset="kdvb", nu=-0.24, n=256, length=40.0, dt=0.01,
                    t_end=0.5, record_every=5, snapshot_every=50,
                    p_list=(1.5, 4.0), model="kdvb", directory=str(run_dir))
    ini = tmp_path / "run.ini"
    ini.write_text(cfg.to_ini())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["simulate", "--config", str(ini)]) == 0
    fields = sorted((run_dir / "fields").glob("t_*.csv"))
    assert len(fields) == 2
    series, run_cfg = read_run(run_dir)
    assert run_cfg == cfg
    again = RunWriter(copy, run_cfg, read_profile(run_dir / "profile"),
                      read_certificate(run_dir / "certificate.json"))
    snapshot = (float(fields[-1].stem[2:]), read_field_csv(fields[-1]))
    again.write_trajectory(series, [snapshot])
    again.finalize(**read_json(run_dir / "meta.json"))
    for name in ("profile.csv", "profile.json", "certificate.json",
                 "config.ini", "series.csv", "meta.json",
                 f"fields/{fields[-1].name}"):
        assert (copy / name).read_bytes() == (run_dir / name).read_bytes(), name
    # tables end their rows in CRLF; JSON files end in one newline
    assert (run_dir / "series.csv").read_bytes().endswith(b"\r\n")
    assert (run_dir / "meta.json").read_bytes().endswith(b"}\n")


def test_json_encoder_types(tmp_path):
    """numpy scalars are stored as plain values; unknown objects raise."""
    text = to_json({"b": np.bool_(True), "i": np.int64(3),
                    "f": np.float32(0.5), "x": [np.float64(0.25)]})
    assert text == ('{\n  "b": true,\n  "f": 0.5,\n  "i": 3,\n'
                    '  "x": [\n    0.25\n  ]\n}')
    with pytest.raises(TypeError):
        write_json(tmp_path / "meta.json", {"summary": {"when": object()}})
    with pytest.raises(TypeError):
        to_json({"values": np.zeros(3)})


def test_config_ini_round_trip():
    cfg = RunConfig(preset="frac", terms=((1.0, 0.5), (0.25, 0.75)),
                    n=2048, length=160.0, kind="odd_gaussian_derivative",
                    amplitude=0.35, seed=7, dt=1e-3, t_end=12.5,
                    p_list=(1.5, 3.0), model="frac_odd",
                    fit_window=(5.0, 12.5), directory="runs/frac")
    text = cfg.to_ini()
    again = RunConfig.from_ini(text)
    assert again == cfg
    # canonical text is a fixed point
    assert again.to_ini() == text


def test_config_values_are_validated():
    assert RunConfig.from_ini("[stepper]\ndealias = on\n").dealias is True
    assert RunConfig.from_ini("[stepper]\ndealias = 0\n").dealias is False
    for text in ("[stepper]\ndealias = ture\n", "[stepper]\nt_ends = 5\n",
                 "[steper]\nt_end = 5\n", "[operator]\nterms = 1.0\n",
                 "[grid]\nn = 1024.5\n"):
        with pytest.raises(ValueError):
            RunConfig.from_ini(text)


def test_readme_config_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = RunConfig.from_ini(block)
    assert (cfg.preset, cfg.nu, cfg.n, cfg.kind, cfg.amplitude) == \
        ("kdvb", -0.24, 2048, "gaussian", 0.5)
    assert (cfg.p_list, cfg.model) == ((1.5, 4.0), "kdvb")
    assert RunConfig.from_ini(cfg.to_ini()) == cfg


# (section, INI key, RunConfig attribute, value type, default), in file order
KEY_TABLE = (
    ("operator", "preset", "preset", "str", "burgers"),
    ("operator", "nu", "nu", "float", None),
    ("operator", "terms", "terms", "pairs", ()),
    ("operator", "expression", "expression", "str", ""),
    ("grid", "n", "n", "int", 1024),
    ("grid", "length", "length", "float", 80.0),
    ("front", "tol", "front_tol", "float", 1e-8),
    ("certificate", "eps", "eps_samples", "floats", (0.01, 0.05, 0.1, 0.2, 0.4, 0.8)),
    ("certificate", "fd_points", "fd_points", "int", 2000),
    ("perturbation", "kind", "kind", "str", "gaussian"),
    ("perturbation", "amplitude", "amplitude", "float", 0.5),
    ("perturbation", "width", "width", "float", 1.0),
    ("perturbation", "seed", "seed", "int", 0),
    ("stepper", "dt", "dt", "float", 2e-3),
    ("stepper", "gamma", "gamma", "float", 1.1),
    ("stepper", "dealias", "dealias", "bool", True),
    ("stepper", "t_end", "t_end", "float", 50.0),
    ("stepper", "record_every", "record_every", "int", 25),
    ("stepper", "snapshot_every", "snapshot_every", "int", 0),
    ("diagnostics", "p_list", "p_list", "floats", (1.5, 3.0, 4.0)),
    ("diagnostics", "fit_window", "fit_window", "floats", ()),
    ("diagnostics", "delta", "delta", "float", 0.05),
    ("diagnostics", "model", "model", "str", ""),
    ("output", "directory", "directory", "str", "run"),
)


def test_config_key_table_is_pinned():
    assert FIELDS == tuple(row[:4] for row in KEY_TABLE)
    assert list(KEYS) == [f"{section}.{key}" for section, key, *_ in KEY_TABLE]
    defaults = RunConfig()
    for _, _, attr, _, default in KEY_TABLE:
        assert getattr(RunConfig, attr) == default, attr
        assert type(getattr(defaults, attr)) is type(default), attr
        assert getattr(defaults, attr) == default, attr


def test_stepper_settings_are_run_settings():
    """`_check_config` copies StepperConfig's fields from RunConfig by name."""
    run_settings = {f.name for f in dataclasses.fields(RunConfig)}
    for field in dataclasses.fields(StepperConfig):
        assert field.name in run_settings
        if field.default is not dataclasses.MISSING:
            assert field.default == getattr(RunConfig, field.name), field.name


def test_operator_from_config_variants():
    assert operator_from_config(RunConfig(preset="burgers")).is_zero
    spec = operator_from_config(RunConfig(preset="kdvb", nu=0.3))
    assert spec.params["nu"] == 0.3
    spec = operator_from_config(RunConfig(expression="i*sgn(k)"))
    assert spec.values(2.0) == pytest.approx(1j)
    spec = operator_from_config(RunConfig(preset="frac", terms=((1.0, 0.5),)))
    assert spec.values(2.0) == pytest.approx(-2.0)
