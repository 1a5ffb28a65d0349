"""Serialization: the formats and the layout of every run artifact.

No other module knows an artifact's file name, column order or JSON
options, and identical inputs give byte-identical files.

- Tables: `write_table` and `read_table` serve every CSV file: field
  snapshots, profiles, series.csv, the `certify --sweep-nu` table,
  verdicts.csv and the sweep summary.csv.  A header row comes first.
  Floats, numpy ones too, are written with repr (the shortest text that
  reads back to the same double), booleans as 0/1, anything else with
  str.  Rows end in "\\r\\n", except in verdicts.csv and summary.csv,
  where they end in "\\n".
- JSON: `to_json` serves the profile sidecar, certificate.json and
  meta.json, with sorted keys, a two-space indent, NaN as `NaN` and a
  final newline in the file.  A numpy scalar is stored as the plain value
  it holds; any other object without a JSON form raises TypeError.

`RunWriter` writes a run directory: config.ini, profile.csv/.json,
certificate.json (the `SpectralCertificate` fields), series.csv,
fields/t_<stamp>.csv and meta.json; `frontlab rates` adds verdicts.csv.
config.ini (`RunConfig.to_ini()`) is the one copy of the run's settings,
and `frontlab simulate --config` runs it again; meta.json holds version,
certificate_satisfied and summary.  series.csv holds `NormSeries.data`,
whose keys are its header: t, x0, x0_dot, l1, l2, linf, lp_<p:g> for
each p of the run's p list, dv_l2, weighted, m_sup.  A sweep directory
holds one run directory per value and summary.csv.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .certify import SpectralCertificate
from .config import RunConfig
from .diagnostics import NormSeries
from .fronts import FrontProfile
from .spectral import Field, make_grid
from .symbols import spec_from_text

__all__ = [
    "write_table", "read_table", "to_json", "write_json", "read_json",
    "write_field_csv", "read_field_csv", "write_profile", "read_profile",
    "write_certificate", "read_certificate", "write_sweep_csv",
    "write_series_csv", "read_series_csv", "RunWriter", "read_run",
    "write_verdicts", "write_sweep_summary",
]


def _cell(value):
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, np.floating):
        return repr(float(value))
    return value


def write_table(path, header, rows, terminator="\r\n"):
    """Write a header and rows of cells as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator=terminator)
        writer.writerow(header)
        # the csv module writes a Python float with repr
        writer.writerows([v if type(v) is float else _cell(v) for v in row]
                         for row in rows)


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """The header and the rows of a CSV file, as text."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def _float_rows(rows) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in rows])


def _plain(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} object has no JSON form")


def to_json(obj) -> str:
    """The JSON text of `obj`."""
    return json.dumps(obj, indent=2, sort_keys=True, default=_plain)


def write_json(path, obj):
    Path(path).write_text(to_json(obj) + "\n")


def read_json(path):
    return json.loads(Path(path).read_text())


def write_field_csv(path, field: Field):
    write_table(path, ["x", "value"],
                zip(field.grid.x.tolist(), field.values.tolist()))


def read_field_csv(path) -> Field:
    data = _float_rows(read_table(path)[1])
    # x[0] = -length/2 exactly, so the grid's nodes come back bit for bit
    return Field(make_grid(len(data), -2.0 * data[0, 0]), data[:, 1])


def write_profile(base, profile: FrontProfile) -> tuple[Path, Path]:
    """Persist a front as <base>.csv (x, phi, phi') plus a <base>.json
    sidecar; returns the two paths.  The suffixes are appended to the
    whole base name, so a dot in it does not start a suffix."""
    paths = Path(f"{base}.csv"), Path(f"{base}.json")
    write_table(paths[0], ["x", "phi", "phi_prime"],
                zip(profile.grid.x.tolist(), profile.phi.values.tolist(),
                    profile.phi_prime.values.tolist()))
    write_json(paths[1], {
        "operator": profile.operator.text,
        "label": profile.operator.label,
        "params": profile.operator.params,
        "endpoints": profile.endpoints,
        "residual_sup": (None if np.isnan(profile.residual_sup)
                         else float(profile.residual_sup)),
        "method": profile.method,
        "exact": profile.exact,
        "grid": {"n": profile.grid.n, "length": profile.grid.length},
    })
    return paths


def read_profile(base) -> FrontProfile:
    meta = read_json(f"{base}.json")
    data = _float_rows(read_table(f"{base}.csv")[1])
    grid = make_grid(meta["grid"]["n"], meta["grid"]["length"])
    params = meta.get("params", {})
    if "terms" in params:
        params["terms"] = [tuple(t) for t in params["terms"]]
    spec = replace(spec_from_text(meta["operator"], meta["label"]),
                   params=params)
    return FrontProfile(
        grid=grid,
        phi=Field(grid, data[:, 1]),
        phi_prime=Field(grid, data[:, 2]),
        operator=spec,
        residual_sup=meta["residual_sup"] if meta["residual_sup"] is not None
        else float("nan"),
        method=meta["method"],
    )


def write_certificate(path, cert: SpectralCertificate):
    write_json(path, asdict(cert))


def read_certificate(path) -> SpectralCertificate:
    raw = read_json(path)
    for key in ("eps_samples", "counts", "near_zero_flags"):
        raw[key] = tuple(raw[key])
    return SpectralCertificate(**raw)


def write_sweep_csv(path, rows):
    """The `certify --sweep-nu` table, one row per nu."""
    write_table(path, ["nu", "satisfied", "min_count", "argmin_eps", "error"],
                [(r.nu, r.satisfied, r.min_count, r.argmin_eps, r.error)
                 for r in rows])


def write_series_csv(path, series: NormSeries):
    write_table(path, list(series.data), zip(*series.data.values()))


def read_series_csv(path) -> NormSeries:
    """The series of a series.csv, each column by its header name."""
    header, rows = read_table(path)
    columns = _float_rows(rows).T.tolist() if rows else [[] for _ in header]
    try:
        return NormSeries(p_list=[float(name[3:]) for name in header
                                  if name.startswith("lp_")],
                          data=dict(zip(header, columns)))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


class RunWriter:
    """Writes a run directory: its inputs when created, then the
    trajectory and meta.json."""

    def __init__(self, directory, config: RunConfig, front: FrontProfile,
                 cert: SpectralCertificate | None):
        self.dir = Path(directory)
        (self.dir / "fields").mkdir(parents=True, exist_ok=True)
        (self.dir / "config.ini").write_text(config.to_ini())
        write_profile(self.dir / "profile", front)
        if cert is not None:
            write_certificate(self.dir / "certificate.json", cert)

    def write_trajectory(self, series: NormSeries, snapshots):
        write_series_csv(self.dir / "series.csv", series)
        for t, field in snapshots:
            write_field_csv(self.dir / "fields" / f"t_{t:014.6f}.csv", field)

    def finalize(self, **meta):
        write_json(self.dir / "meta.json", meta)


def read_run(directory) -> tuple[NormSeries, RunConfig]:
    """The series and the settings of a run directory.  A missing
    series.csv or config.ini raises FileNotFoundError."""
    directory = Path(directory)
    return (read_series_csv(directory / "series.csv"),
            RunConfig.from_ini((directory / "config.ini").read_text()))


def write_verdicts(directory, verdicts) -> Path:
    """Write `frontlab rates`' verdicts into a run directory."""
    path = Path(directory) / "verdicts.csv"
    write_table(path, ["p", "rate", "beta", "envelope_ratio",
                       "fitted_exponent", "satisfied"],
                [(v.p, v.rate, v.beta, v.ratio, v.fitted_exponent, v.satisfied)
                 for v in verdicts], terminator="\n")
    return path


def write_sweep_summary(directory, results) -> Path:
    """One row per sweep run from (directory, status, summary, error)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "summary.csv"
    write_table(path, ["directory", "status", "monotonicity_violations",
                       "l2_final", "error"],
                [(run_dir, status, summary.get("monotonicity_violations", ""),
                  summary.get("l2_final", ""), error)
                 for run_dir, status, summary, error in results],
                terminator="\n")
    return path
