import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import frontlab
from frontlab import cli
from frontlab.cli import main
from frontlab.config import RunConfig
from frontlab.runio import read_profile, read_series_csv
from frontlab.spectral import Field, trig_interpolate

CONFIG = """\
[operator]
preset = kdvb
nu = -0.24

[grid]
n = 512
length = 80.0

[perturbation]
kind = gaussian
amplitude = 0.3
width = 1.0
seed = 5

[stepper]
dt = 0.004
t_end = 2.0
record_every = 25
snapshot_every = 250

[diagnostics]
p_list = 1.5,4
model = kdvb
"""


def short_config(t_end):
    """CONFIG cut to t_end, with no model: its default fit window holds
    under 8 records, so with a model `simulate` rejects it."""
    return CONFIG.replace("t_end = 2.0", f"t_end = {t_end}").replace(
        "model = kdvb\n", "")


def run_cli(args):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(args)


def test_front_and_certify(tmp_path, capsys):
    base = tmp_path / "prof"
    assert run_cli(["front", "--preset", "burgers", "--out", str(base)]) == 0
    out = capsys.readouterr().out
    assert "residual_sup" in out and "monotone      True" in out
    prof = read_profile(base)
    assert prof.endpoints == (1.0, -1.0)

    cert_path = tmp_path / "cert.json"
    code = run_cli(["certify", "--profile", str(base), "--out", str(cert_path)])
    assert code == 0
    assert "satisfied: True" in capsys.readouterr().out


def test_front_nonmonotone_reported(tmp_path, capsys):
    base = tmp_path / "prof03"
    assert run_cli(["front", "--preset", "kdvb", "--nu", "0.3",
                    "--out", str(base)]) == 0
    assert "monotone      False" in capsys.readouterr().out


def test_certify_missing_profile_exit_code(tmp_path):
    assert run_cli(["certify", "--profile", str(tmp_path / "nope")]) == 1


def test_front_out_in_missing_directory(tmp_path, capsys):
    """An unwritable output path is an input error, not a traceback."""
    assert run_cli(["front", "--preset", "burgers", "--n", "256",
                    "--out", str(tmp_path / "missing" / "prof")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_usage_error_exit_code(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["rates", "--run", str(tmp_path), "--model", "bogus"])
    assert exc.value.code == 1


def test_usage_error_says_what_was_wrong(capsys):
    """A leading '-' makes argparse read the operator as an option; the
    usage error names the flag, not just the usage block."""
    with pytest.raises(SystemExit) as exc:
        run_cli(["front", "--operator", "-(abs(k))^1"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: frontlab front")
    assert "frontlab front: error: argument --operator: expected one argument" in err


def test_flags_set_their_config_keys():
    """Each flag overrides its config key, parsed as that key's INI value."""
    args = argparse.Namespace(preset="kdvb", nu="0.3", terms="1.0:0.5",
                              operator="-(abs(k))^1", n="256", length="40",
                              seed="4", tol="1e-9", eps="0.1,0.5",
                              fd_points="300")
    cfg = cli._config_from_args(args)
    assert (cfg.preset, cfg.nu, cfg.terms, cfg.expression) == \
        ("kdvb", 0.3, ((1.0, 0.5),), "-(abs(k))^1")
    assert (cfg.n, cfg.length, cfg.seed, cfg.front_tol) == (256, 40.0, 4, 1e-9)
    assert (cfg.eps_samples, cfg.fd_points) == ((0.1, 0.5), 300)
    with pytest.raises(ValueError, match="grid.n"):
        cli._config_from_args(argparse.Namespace(n="256.5"))


@pytest.mark.parametrize("text,offset", [
    ("k^^2", 2), ("k^(1/0)", 1), ("k^(0^-1)", 1),
    ("abs(k)^(10^400)", 6), ("abs(k)^(1e308*10)", 6),
])
def test_bad_operator_exit_code(tmp_path, capsys, text, offset):
    assert run_cli(["front", "--operator", text,
                    "--out", str(tmp_path / "x")]) == 1
    assert f"(offset {offset})" in capsys.readouterr().err


def test_simulate_run_directory(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    out = tmp_path / "run1"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "monotonicity           0 violations" in printed
    for name in ("config.ini", "series.csv", "meta.json",
                 "profile.csv", "profile.json", "certificate.json"):
        assert (out / name).exists()
    assert list((out / "fields").glob("t_*.csv"))
    meta = json.loads((out / "meta.json").read_text())
    assert set(meta) == {"version", "certificate_satisfied", "summary"}
    assert meta["summary"]["monotonicity_violations"] == 0
    assert meta["certificate_satisfied"] is True


def test_simulate_zero_perturbation(tmp_path):
    cfg_text = CONFIG.replace("amplitude = 0.3", "amplitude = 1e-300")
    cfg = tmp_path / "zero.ini"
    cfg.write_text(cfg_text)
    out = tmp_path / "zero_run"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    series = read_series_csv(out / "series.csv")
    assert max(series.l2) <= 1e-250


def test_simulate_reproducible(tmp_path):
    """Two runs of one config, and a run of the config.ini a run wrote,
    give the same bytes."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
    assert run_cli(["simulate", "--config", str(a / "config.ini"),
                    "--out", str(c)]) == 0
    assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()
    for name in ("series.csv", "profile.csv", "certificate.json"):
        assert (c / name).read_bytes() == (a / name).read_bytes(), name


def test_rates_self_describing(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    out = tmp_path / "run_rates"
    run_cli(["simulate", "--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    # no model/p-list flags: everything comes from the run directory
    code = run_cli(["rates", "--run", str(out), "--window", "0.5,2.0"])
    printed = capsys.readouterr().out
    assert code in (0, 2)
    assert "model kdvb" in printed
    assert (out / "verdicts.csv").exists()

    svg = out / "plot.svg"
    run_cli(["rates", "--run", str(out), "--window", "0.5,2.0",
             "--svg", str(svg)])
    assert svg.read_text().startswith("<svg")


def test_rates_missing_series(tmp_path):
    assert run_cli(["rates", "--run", str(tmp_path)]) == 1


def test_rates_bad_window_names_key(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    out = tmp_path / "run_w"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    for window in ("5", "1.0,0.5", "0,2"):
        assert run_cli(["rates", "--run", str(out), "--window", window]) == 1
        assert capsys.readouterr().err.startswith(
            "error: diagnostics.fit_window: ")


def test_oracle_thresholds(tmp_path, capsys):
    args = ["oracle", "--preset", "burgers", "--times", "0.5",
            "--n", "512", "--length", "80"]
    assert run_cli(args + ["--threshold", "1e-6"]) == 0
    # documented over-strict case: same run, absurd threshold
    assert run_cli(args + ["--threshold", "1e-15"]) == 2


def no_front(*args, **kwargs):
    raise AssertionError("front solved for settings that cannot run")


@pytest.mark.parametrize("threshold", ["nan", "inf", "-0.5"])
def test_oracle_rejects_bad_threshold(monkeypatch, capsys, threshold):
    """`worst > nan` is False, so a nan threshold once passed every run."""
    monkeypatch.setattr(cli, "front_for_operator", no_front)
    assert run_cli(["oracle", "--preset", "burgers", "--n", "256",
                    "--length", "40", "--times", "0.5",
                    "--threshold", threshold]) == 1
    assert capsys.readouterr().err.startswith("error: --threshold ")


@pytest.mark.parametrize("text", ["nan", "0.5,", "inf", "0", "-0.5", "x", ""])
def test_oracle_rejects_bad_times(monkeypatch, capsys, text):
    monkeypatch.setattr(cli, "front_for_operator", no_front)
    assert run_cli(["oracle", "--preset", "burgers", "--times", text]) == 1
    assert capsys.readouterr().err.startswith(f"error: --times {text!r}: ")


def test_oracle_nan_discrepancy_fails(monkeypatch, capsys):
    """A nan discrepancy is not dropped by the max over times: it fails."""
    monkeypatch.setattr(cli, "cole_hopf_exact",
                        lambda u0, t: SimpleNamespace(values=np.full(u0.grid.n,
                                                                     np.nan)))
    assert run_cli(["oracle", "--preset", "burgers", "--n", "256",
                    "--length", "40", "--times", "0.5,1"]) == 2
    assert "discrepancy nan exceeds threshold" in capsys.readouterr().err


def test_oracle_rejects_nonzero_operator(capsys):
    """A non-zero operator is an expected failure: exit 1 on an `error:`
    line, before any front work."""
    assert run_cli(["oracle", "--preset", "kdvb", "--nu", "0.2",
                    "--times", "0.5"]) == 1
    assert capsys.readouterr().err == (
        "error: the exact solution applies to the pure Burgers case only "
        "(operator must be 0)\n")
    assert run_cli(["oracle", "--preset", "bo", "--times", "0.5"]) == 1


def test_oracle_lattice_matches_dense_interpolation(monkeypatch, capsys):
    """`oracle` samples phi + v on the grid shifted by x0 with one chirp-z
    transform. With the run replaced by a fixed v and shift x0 (one of them
    negative), and the exact solution by the dense `phi_at +
    trig_interpolate` pair, each printed discrepancy is the gap between the
    two samplings: at most 1e-12 of max|u|."""
    shifts = {0.5: 0.37, 1.0: -2.71, 1.5: 6.4}
    dense = {}

    def fixed_run(v0, front, spec, config):
        grid, x0 = v0.grid, shifts[config.t_end]
        v = Field(grid, 0.3 * np.exp(-(grid.x - 1.0) ** 2) * np.cos(2.0 * grid.x))
        y = grid.x - x0
        dense[config.t_end] = front.phi_at(y) + trig_interpolate(grid, v.values, y)
        return SimpleNamespace(snapshots=[(config.t_end, v)], x0_final=x0)

    monkeypatch.setattr(cli, "evolve", fixed_run)
    monkeypatch.setattr(cli, "cole_hopf_exact",
                        lambda u0, t: Field(u0.grid, dense[t]))
    assert run_cli(["oracle", "--preset", "burgers", "--times", "0.5,1,1.5"]) == 0
    gaps = [float(line.split()[-1]) for line in capsys.readouterr().out.splitlines()]
    assert len(gaps) == 3
    scale = max(float(np.max(np.abs(u))) for u in dense.values())
    assert max(gaps) <= 1e-12 * scale


def test_sweep_runs(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(short_config(0.5))
    out = tmp_path / "sw"
    code = run_cli(["sweep", "--config", str(cfg),
                    "--set", "perturbation.amplitude=0.1,0.2",
                    "--out", str(out)])
    assert code == 0
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert len(summary) == 3
    assert (out / "summary.csv").read_bytes().startswith(
        b"directory,status,monotonicity_violations,l2_final,error\n")
    assert (out / "amplitude_0.1" / "series.csv").exists()
    assert (out / "amplitude_0.2" / "series.csv").exists()


def test_sweep_threads_match_serial(tmp_path):
    """Runs sent to worker processes write the same series as serial runs."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(short_config(0.5))
    for threads in ("1", "2"):
        assert run_cli(["sweep", "--config", str(cfg),
                        "--set", "perturbation.amplitude=0.1,0.2",
                        "--out", str(tmp_path / threads),
                        "--threads", threads]) == 0
    for run in ("amplitude_0.1", "amplitude_0.2"):
        assert ((tmp_path / "2" / run / "series.csv").read_bytes()
                == (tmp_path / "1" / run / "series.csv").read_bytes())


def test_sweep_workers_capped_at_runs(tmp_path, monkeypatch, serial_pool):
    """A pool starts all its workers at once, so it gets no more than one
    per run, and one run or one thread runs with no pool at all."""
    monkeypatch.setattr(cli, "_simulate_worker",
                        lambda job: (job[0].directory, 0, {}, ""))
    cfg = tmp_path / "run.ini"
    cfg.write_text(short_config(0.5))
    for threads, values in (("5000", "0.1,0.2,0.3"), ("2", "0.1,0.2,0.3"),
                            ("8", "0.1"), ("1", "0.1,0.2")):
        assert run_cli(["sweep", "--config", str(cfg),
                        "--set", f"perturbation.amplitude={values}",
                        "--out", str(tmp_path / threads),
                        "--threads", threads]) == 0
    assert serial_pool == [3, 2]
    summary = (tmp_path / "5000" / "summary.csv").read_text().splitlines()
    assert len(summary) == 4


def test_sweep_keeps_finished_runs(tmp_path):
    """A run that raises becomes a row; the finished runs stay listed."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(short_config(0.5))
    out = tmp_path / "sw"
    code = run_cli(["sweep", "--config", str(cfg),
                    "--set", "perturbation.kind=gaussian,nonsense",
                    "--out", str(out)])
    assert code == 1
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["0", "1"]
    assert rows[0]["error"] == "" and float(rows[0]["l2_final"]) > 0.0
    assert "nonsense" in rows[1]["error"]
    assert rows[1]["l2_final"] == ""
    assert (out / "kind_gaussian" / "series.csv").exists()


def test_sweep_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    assert run_cli(["sweep", "--config", str(cfg),
                    "--set", "grid.nonsense=1,2"]) == 1
    assert capsys.readouterr().err == "error: not a sweepable key: 'grid.nonsense'\n"
    # the sweep names each run's directory itself
    assert run_cli(["sweep", "--config", str(cfg),
                    "--set", "output.directory=a,b"]) == 1
    assert capsys.readouterr().err == "error: not a sweepable key: 'output.directory'\n"


def test_sweep_reaches_every_key_type(tmp_path):
    """A bool key and a list key, whose values are separated by ';'."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(short_config(0.2).replace("preset = kdvb\nnu = -0.24",
                                             "preset = frac\nterms = 1.0:0.5"))
    out = tmp_path / "sw"
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(out),
                    "--set", "stepper.dealias=false"]) == 0
    snap = RunConfig.from_ini((out / "dealias_false" / "config.ini").read_text())
    assert snap.dealias is False
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(out),
                    "--set", "operator.terms=1.0:0.5;0.5:0.5,0.5:0.75"]) == 0
    snap = RunConfig.from_ini((out / "terms_0.5:0.5,0.5:0.75" / "config.ini")
                              .read_text())
    assert snap.terms == ((0.5, 0.5), (0.5, 0.75))
    assert (out / "terms_1.0:0.5" / "series.csv").exists()


def test_certify_sweep_nu(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli(["certify", "--sweep-nu", "0.1:0.2:0.1",
                    "--fd-points", "1200", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "threshold estimate" in printed
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "nu,satisfied,min_count,argmin_eps,error"
    assert len(lines) == 3
    assert out.read_bytes().startswith(
        b"nu,satisfied,min_count,argmin_eps,error\r\n")


def test_rates_idempotent_verdicts(tmp_path):
    """A run directory is self-describing: repeated rate analysis without
    the original config reproduces byte-identical verdicts."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    out = tmp_path / "run_idem"
    run_cli(["simulate", "--config", str(cfg), "--out", str(out)])
    run_cli(["rates", "--run", str(out), "--window", "0.5,2.0"])
    first = (out / "verdicts.csv").read_bytes()
    assert first.startswith(
        b"p,rate,beta,envelope_ratio,fitted_exponent,satisfied\n")
    run_cli(["rates", "--run", str(out), "--window", "0.5,2.0"])
    assert (out / "verdicts.csv").read_bytes() == first


def test_rates_p_list(tmp_path, capsys):
    """--p-list reads inf; a p the model has no rate for, or the series
    has no column for, is an input error."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    out = tmp_path / "run_p"
    run_cli(["simulate", "--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    assert run_cli(["rates", "--run", str(out), "--p-list", "2,4"]) == 0
    assert run_cli(["rates", "--run", str(out), "--p-list", "2,inf"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "p = inf" in err
    assert run_cli(["rates", "--run", str(out), "--p-list", "3.7"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_simulate_instability_exit_code(tmp_path):
    # amplitude far past the advective step limit trips the guard
    cfg_text = CONFIG.replace("amplitude = 0.3", "amplitude = 30.0")
    cfg = tmp_path / "blow.ini"
    cfg.write_text(cfg_text)
    out = tmp_path / "blow_run"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    # the run directory still holds the inputs for post-mortem work
    assert (out / "config.ini").exists()
    assert (out / "profile.csv").exists()
    # and the run up to the abort: the guard fires before the first step
    assert read_series_csv(out / "series.csv").t == [0.0]
    assert (out / "fields" / "t_0000000.000000.csv").exists()
    summary = json.loads((out / "meta.json").read_text())["summary"]
    assert summary["aborted"] is True
    assert summary["l2_final"] > 0.0


def test_sweep_keeps_aborted_run(tmp_path):
    """An instability abort is a row with status 3 and the run so far."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(short_config(0.5))
    out = tmp_path / "sw"
    code = run_cli(["sweep", "--config", str(cfg),
                    "--set", "perturbation.amplitude=0.3,30",
                    "--out", str(out)])
    assert code == 3
    with open(out / "summary.csv", newline="") as fh:
        rows = {r["directory"]: r for r in csv.DictReader(fh)}
    aborted = rows[str(out / "amplitude_30")]
    assert aborted["status"] == "3"
    assert float(aborted["l2_final"]) > 0.0
    assert "last good state at t=" in aborted["error"]
    assert rows[str(out / "amplitude_0.3")]["status"] == "0"


def test_certify_sweep_nu_rejects_flags_it_ignores(tmp_path, capsys, monkeypatch):
    """sweep_nu sizes its own fronts and grids, so operator, grid and
    profile flags are refused before any front is shot."""
    def no_front(*args, **kwargs):
        raise AssertionError("front shot for flags the sweep ignores")

    monkeypatch.setattr("frontlab.certify.shoot_local_front", no_front)
    out = tmp_path / "sweep.csv"
    assert run_cli(["certify", "--sweep-nu", "4:4:1", "--n", "64", "--length",
                    "1", "--preset", "kdvb", "--nu", "0.3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: --sweep-nu ignores --preset, --nu, --n, --length\n")
    assert run_cli(["certify", "--sweep-nu", "4:4:1", "--profile", "p",
                    "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --sweep-nu ignores --profile\n"
    assert not out.exists()


@pytest.mark.parametrize("text", ["0:1e300:1e-300", "0:2e6:1"])
def test_sweep_range_refuses_more_rows_than_it_builds(text):
    """An infinite count, or one above MAX_SWEEP_ROWS, is refused before
    the list of values is built."""
    with pytest.raises(ValueError, match="^--sweep-nu "):
        cli._parse_sweep_range(text)


@pytest.mark.parametrize("text", ["0.4:1.6:0", "0.4:1.6:-0.6", "1.6:0.4:0.6",
                                  "1:2", "1:2:0.5:4", "1:x:0.5",
                                  "0:1e300:1e-300"])
def test_certify_sweep_nu_bad_range(tmp_path, capsys, text):
    out = tmp_path / "sweep.csv"
    assert run_cli(["certify", "--sweep-nu", text, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: --sweep-nu {text!r}: ")
    assert not out.exists()


def test_oracle_reads_config(tmp_path):
    cfg = tmp_path / "oracle.ini"
    cfg.write_text(CONFIG.replace("preset = kdvb\nnu = -0.24", "preset = burgers"))
    assert run_cli(["oracle", "--config", str(cfg), "--times", "0.5",
                    "--threshold", "1e-6"]) == 0


def test_oracle_runs_on_config_grid(tmp_path, monkeypatch):
    grids = []
    make_grid = cli.make_grid

    def recording_make_grid(n, length):
        grids.append((n, length))
        return make_grid(n, length)

    monkeypatch.setattr(cli, "make_grid", recording_make_grid)
    cfg = tmp_path / "oracle.ini"
    cfg.write_text(CONFIG.replace("preset = kdvb\nnu = -0.24", "preset = burgers")
                   .replace("length = 80.0", "length = 40.0"))
    assert run_cli(["oracle", "--config", str(cfg), "--times", "0.1",
                    "--threshold", "1e-6"]) == 0
    assert grids and set(grids) == {(512, 40.0)}


def test_malformed_config_exit_code(tmp_path):
    cfg = tmp_path / "bad.ini"
    for text in ("n = 512\n", CONFIG.replace("t_end = 2.0", "t_ends = 2.0"),
                 CONFIG.replace("kind = gaussian", "kind = gaussian ; comment")):
        cfg.write_text(text)
        assert run_cli(["simulate", "--config", str(cfg),
                        "--out", str(tmp_path / "bad_run")]) == 1


def test_front_method_key_rejected(tmp_path, capsys):
    """The front comes from the configured operator; no key picks another
    solver, which once gave a Burgers front for a kdvb run."""
    cfg = tmp_path / "fork.ini"
    cfg.write_text(CONFIG + "\n[front]\nmethod = closed_form\n")
    out = tmp_path / "fork_run"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: unknown config key front.method\n"
    assert not out.exists()


def test_simulate_bad_cadence_fails_before_front(tmp_path, monkeypatch):
    def no_front(*args, **kwargs):
        raise AssertionError("front solved for a config that cannot run")

    monkeypatch.setattr(cli, "front_for_operator", no_front)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(CONFIG.replace("snapshot_every = 250", "snapshot_every = 60"))
    assert run_cli(["simulate", "--config", str(cfg),
                    "--out", str(tmp_path / "bad_run")]) == 1


@pytest.mark.parametrize("p_list", ["0.5", "1.5,1.5000001", "1,4"])
def test_simulate_bad_p_list_fails_before_front(tmp_path, monkeypatch, capsys,
                                                p_list):
    """p < 1, two p that share one lp_<p:g> column, or a p the model makes
    no claim for (kdvb at p = 1), is rejected before the front is solved
    and before the run directory is made."""
    def no_front(*args, **kwargs):
        raise AssertionError("front solved for a config that cannot run")

    monkeypatch.setattr(cli, "front_for_operator", no_front)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(CONFIG.replace("p_list = 1.5,4", f"p_list = {p_list}"))
    out = tmp_path / "bad_run"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("diagnostics", ["fit_window = 5", "fit_window = 0.3,0.1",
                                         "model = bogus", "fit_window = 0,2"])
def test_simulate_bad_diagnostics_fail_before_front(tmp_path, monkeypatch, capsys,
                                                    diagnostics):
    """A fit window or model that `rates` would reject fails before the
    front is solved, not after the whole run."""
    def no_front(*args, **kwargs):
        raise AssertionError("front solved for a config that cannot run")

    monkeypatch.setattr(cli, "front_for_operator", no_front)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(CONFIG.replace("model = kdvb", diagnostics))
    out = tmp_path / "bad_run"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("old, new, named", [
    ("t_end = 2.0", "t_end = inf", "t_end = inf"), ("dt = 0.004", "dt = inf", "dt = inf"),
    ("dt = 0.004", "dt = nan", "dt = nan"), ("dt = 0.004", "dt = 0.004\ngamma = nan", "nan"),
    ("snapshot_every = 250", "snapshot_every = -250", "-250"),
    ("dt = 0.004\nt_end = 2.0", "dt = 1e-300\nt_end = 1e300", "t_end = 1e+300"),
    ("t_end = 2.0\nrecord_every = 25", "t_end = 1e6\nrecord_every = 1",
     "at most 1000000 records")],
    ids=["t_end_inf", "dt_inf", "dt_nan", "gamma_nan", "snapshot_negative",
         "steps_overflow", "too_many_records"])
def test_simulate_bad_step_settings_fail_before_front(tmp_path, monkeypatch, capsys,
                                                      old, new, named):
    """Step settings that cannot run are one `error:` line and exit 1,
    before the front is solved and before the run directory is made."""
    def no_front(*args, **kwargs):
        raise AssertionError("front solved for a config that cannot run")

    monkeypatch.setattr(cli, "front_for_operator", no_front)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(CONFIG.replace(old, new))
    out = tmp_path / "bad_run"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("width", ["0.1", "0.05"])
def test_simulate_band_past_nyquist_fails_before_front(tmp_path, monkeypatch, capsys,
                                                       width):
    """A random_bandlimited width whose band reaches n/2 is refused before
    the front is solved: at n = 256 width 0.1 ran with energy at the
    Nyquist mode, and 0.05 failed on an array shape."""
    def no_front(*args, **kwargs):
        raise AssertionError("front solved for a config that cannot run")

    monkeypatch.setattr(cli, "front_for_operator", no_front)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(CONFIG.replace("n = 512", "n = 256").replace(
        "kind = gaussian", "kind = random_bandlimited").replace(
        "width = 1.0", f"width = {width}"))
    out = tmp_path / "bad_run"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: perturbation.width = {width}")
    assert not out.exists()


@pytest.mark.parametrize("diagnostics, message", [
    # frac_odd's log-corrected claims; the default window starts at t = 0.5
    ("model = frac_odd", "log-corrected fits need window start >= 2 in [0.5, 2]"),
    # records every 0.1 up to t_end = 2: none in [10, 20], 7 in [1.35, 2]
    ("model = kdvb\nfit_window = 10,20", "under 8 samples in [10, 20]"),
    ("model = kdvb\nfit_window = 1.35,2", "under 8 samples in [1.35, 2]")])
def test_simulate_window_rates_cannot_fit_fails_before_front(
        tmp_path, monkeypatch, capsys, diagnostics, message):
    """A fit window that `rates` could not fit on the run's own records
    fails before the front is solved, with the error that `rates` gives."""
    def no_front(*args, **kwargs):
        raise AssertionError("front solved for a config that cannot run")

    monkeypatch.setattr(cli, "front_for_operator", no_front)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(CONFIG.replace("model = kdvb", diagnostics))
    out = tmp_path / "bad_run"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: diagnostics.fit_window: {message}\n"
    assert not out.exists()


def test_simulate_window_check_counts_what_rates_counts(tmp_path, capsys):
    """A window with exactly 8 records passes the check, and `rates` fits it;
    one record fewer is the failing case of the test above."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG + "fit_window = 1.3,2\n")
    out = tmp_path / "run8"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert run_cli(["rates", "--run", str(out)]) in (0, 2)
    assert "model kdvb, window [1.3, 2]" in capsys.readouterr().out
    assert run_cli(["rates", "--run", str(out), "--window", "1.35,2"]) == 1
    assert capsys.readouterr().err == (
        "error: diagnostics.fit_window: under 8 samples in [1.35, 2]\n")
    # t_end = 2.02 is off the record grid: [1.4, 2.02] holds the records at
    # 1.4, ..., 2.0 and the last one, 8 only if the last record counts
    cfg.write_text(CONFIG.replace("t_end = 2.0", "t_end = 2.02")
                   + "fit_window = 1.4,2.02\n")
    out = tmp_path / "run_last"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_series_csv(out / "series.csv").t[-8:] == pytest.approx(
        [1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0, 2.02])
    assert run_cli(["rates", "--run", str(out)]) in (0, 2)
    assert "model kdvb, window [1.4, 2.02]" in capsys.readouterr().out


@pytest.mark.parametrize("setting", ["eps =", "fd_points = 100"])
def test_simulate_bad_certificate_settings_fail_before_front(
        tmp_path, monkeypatch, capsys, setting):
    """Certificate settings are checked with the rest of the config, before
    the front is solved and before the run directory is made."""
    def no_front(*args, **kwargs):
        raise AssertionError("front solved for a config that cannot run")

    monkeypatch.setattr(cli, "front_for_operator", no_front)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"{CONFIG}\n[certificate]\n{setting}\n")
    out = tmp_path / "bad_run"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_certify_sweep_bad_fd_points_fails_fast(tmp_path, monkeypatch, capsys):
    """Too small a lattice is one error before any front is shot, not one
    failed row per nu, and no table is written."""
    def no_front(*args, **kwargs):
        raise AssertionError("front shot for settings that cannot certify")

    monkeypatch.setattr("frontlab.certify.shoot_local_front", no_front)
    out = tmp_path / "sweep.csv"
    assert run_cli(["certify", "--sweep-nu", "0.4:2.2:0.6", "--fd-points", "100",
                    "--out", str(out)]) == 1
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == "error: need at least 200 interior points\n"
    assert not out.exists()


def test_sweep_checks_every_run_before_starting_any(tmp_path, monkeypatch):
    """A run whose config fails the check is a status-1 row that no worker
    starts; only the other runs solve a front."""
    fronts = []
    front_for_operator = cli.front_for_operator

    def counting_front(*args, **kwargs):
        fronts.append(args)
        return front_for_operator(*args, **kwargs)

    monkeypatch.setattr(cli, "front_for_operator", counting_front)
    cfg = tmp_path / "run.ini"
    cfg.write_text(short_config(0.5))
    out = tmp_path / "sw"
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(out),
                    "--set", "certificate.fd_points=100,1200"]) == 1
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["1", "0"]
    assert rows[0]["error"] == "need at least 200 interior points"
    assert len(fronts) == 1
    assert not (out / "fd_points_100").exists()


def fresh_python(script: str) -> str:
    """stdout of `script` run by a new interpreter that imports this frontlab."""
    src = str(Path(frontlab.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    return done.stdout


SCIPY_MODULES = ("sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy')")


def test_import_and_rates_load_no_scipy(tmp_path):
    """`import frontlab` and `rates` on a finished run load no scipy
    module, with scipy installed and importable."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG)
    out = tmp_path / "run"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    printed = fresh_python(f"""
import sys
import frontlab, frontlab.cli
print({SCIPY_MODULES})
code = frontlab.cli.main(["rates", "--run", {str(out)!r}])
print(code, {SCIPY_MODULES})
""").splitlines()
    assert printed[0] == "[]"
    assert printed[-1] in ("0 []", "2 []")


def test_oracle_loads_no_scipy():
    """`frontlab oracle` on pure Burgers is numpy only: the closed-form
    front, the stepper and the Cole-Hopf quadrature load no scipy module."""
    printed = fresh_python(f"""
import sys
from frontlab import cli
code = cli.main(["oracle", "--preset", "burgers", "--n", "256", "--length", "40",
                 "--times", "0.5"])
print(code, {SCIPY_MODULES})
""").splitlines()
    assert printed[-1] == "0 []"


def test_shot_and_kdvb_front_load_no_scipy(tmp_path):
    """One shooting front is one call through `fronts.solve_ivp`, and
    neither it nor `frontlab front --preset kdvb` loads any scipy module."""
    printed = fresh_python(f"""
import sys
from frontlab import cli, fronts, make_grid
calls = []
solve_ivp = fronts.solve_ivp
fronts.solve_ivp = lambda *a: calls.append(1) or solve_ivp(*a)
fronts.shoot_local_front(-0.24, make_grid(512, 80.0))
print(len(calls), {SCIPY_MODULES})
code = cli.main(["front", "--preset", "kdvb", "--nu", "-0.24", "--n", "512",
                 "--out", {str(tmp_path / "p")!r}])
print(code, len(calls), {SCIPY_MODULES})
""").splitlines()
    assert printed[0] == "1 []"
    assert printed[-1] == "0 2 []"


def test_every_command_runs_with_scipy_blocked(tmp_path):
    """scipy is a test-only dependency: with `import scipy` raising
    ImportError, every command exits 0 and loads no scipy module: fronts by
    closed form, shooting and Newton (a preset and an expression), both
    certify modes, simulate and sweep on a Newton front, simulate on a
    shooting front, the oracle and rates."""
    frac = tmp_path / "frac.ini"
    frac.write_text(short_config(0.4).replace("preset = kdvb\nnu = -0.24",
                                              "preset = frac\nterms = 1.0:0.5"))
    kdvb = tmp_path / "kdvb.ini"
    kdvb.write_text(CONFIG)
    out = str(tmp_path)
    commands = [
        ["front", "--preset", "burgers", "--n", "256", "--length", "40",
         "--out", f"{out}/pb"],
        ["front", "--preset", "kdvb", "--nu", "-0.24", "--n", "512",
         "--out", f"{out}/pk"],
        ["front", "--preset", "bo", "--n", "512", "--out", f"{out}/pbo"],
        ["front", "--operator=-(abs(k))^1", "--n", "256", "--length", "40",
         "--out", f"{out}/pf"],
        ["certify", "--profile", f"{out}/pbo", "--fd-points", "400",
         "--out", f"{out}/c.json"],
        ["certify", "--sweep-nu", "4.0:4.6:0.6", "--fd-points", "1500",
         "--out", f"{out}/s.csv"],
        ["simulate", "--config", str(frac), "--out", f"{out}/rf"],
        ["simulate", "--config", str(kdvb), "--out", f"{out}/rk"],
        ["sweep", "--config", str(frac), "--out", f"{out}/sw",
         "--set", "stepper.dealias=true,false"],
        ["oracle", "--preset", "burgers", "--n", "256", "--length", "40",
         "--times", "0.5"],
        ["rates", "--run", f"{out}/rk"],
    ]
    printed = fresh_python(f"""
import sys, warnings

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {{name}}")

sys.meta_path.insert(0, NoScipy())
warnings.simplefilter("ignore")
from frontlab import cli
print([cli.main(args) for args in {commands!r}])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
""").splitlines()
    assert printed[-2:] == [str([0] * len(commands)), "[]"]
