"""Command-line pipeline: front -> certify -> simulate -> oracle -> rates.

Exit codes: 0 success, 1 usage or input error, 2 certification or
verification failure, 3 numerical instability.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__, runio
from .certify import (CertificationError, certify_front, check_settings,
                      map_jobs, sweep_nu)
from .config import KEYS, RunConfig, operator_from_config, set_key
from .diagnostics import (check_energy_inequality, compare_to_theorem,
                          predicted_rate, weighted_bound_monitor, window_mask)
from .evolution import (StabilityError, StepperConfig, cole_hopf_exact, evolve,
                     make_perturbation)
from .fronts import FrontError, front_for_operator, ref_profile
from .spectral import Field, make_grid, trig_interpolate_lattice
from .symbols import SymbolError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERTIFICATION = 2
EXIT_INSTABILITY = 3

# expected failures and their exit codes, for main and for each sweep run
FAILURE_EXIT = {SymbolError: EXIT_USAGE, FrontError: EXIT_USAGE,
                ValueError: EXIT_USAGE, configparser.Error: EXIT_USAGE,
                OSError: EXIT_USAGE, StabilityError: EXIT_INSTABILITY}


def _failure_exit(exc: Exception) -> int:
    return next(code for kind, code in FAILURE_EXIT.items()
                if isinstance(exc, kind))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# flag -> the config key it sets; its text parses as that key's INI value,
# so RunConfig holds the only defaults
FLAG_KEYS = {"--preset": "operator.preset", "--nu": "operator.nu",
             "--terms": "operator.terms", "--operator": "operator.expression",
             "--n": "grid.n", "--length": "grid.length",
             "--seed": "perturbation.seed", "--tol": "front.tol",
             "--eps": "certificate.eps", "--fd-points": "certificate.fd_points",
             "--model": "diagnostics.model", "--window": "diagnostics.fit_window",
             "--delta": "diagnostics.delta"}
_OPERATOR_FLAGS = ("--preset", "--nu", "--terms", "--operator", "--n", "--length")
MAX_SWEEP_ROWS = 10 ** 6  # --sweep-nu values, refused before the list is built


def _add_key_flags(p, *flags):
    for flag in flags:
        key = FLAG_KEYS[flag]
        default = getattr(RunConfig, KEYS[key][0])
        p.add_argument(flag, default=None, help=f"sets {key} (default {default!r})")


def _config_from_args(args) -> RunConfig:
    """The defaults, then --config (rates: the run's config), then flags."""
    cfg = getattr(args, "config", None) or RunConfig()
    if not isinstance(cfg, RunConfig):
        cfg = RunConfig.from_ini(Path(cfg).read_text())
    for flag, key in FLAG_KEYS.items():
        text = getattr(args, flag[2:].replace("-", "_"), None)
        if text is not None:
            set_key(cfg, key, text)
    if getattr(args, "out", None):
        cfg.directory = args.out
    return cfg


def _check_config(cfg: RunConfig):
    """(spec, grid, StepperConfig, perturbation) of a config, after checking
    all of it, certificate and rate settings included: a setting that
    cannot run fails here, before any front work."""
    spec = operator_from_config(cfg)
    grid = make_grid(cfg.n, cfg.length)
    stepper_cfg = StepperConfig(**{f.name: getattr(cfg, f.name)
                                   for f in fields(StepperConfig)})
    v0 = make_perturbation(cfg.kind, cfg.amplitude, cfg.width, grid, cfg.seed)
    check_settings(cfg.eps_samples, cfg.fd_points)
    window = cfg.window()
    if cfg.model:  # `rates` on the run's own settings
        times = cfg.dt * np.array(stepper_cfg.record_steps())  # evolve's record times
        for p in _rates_p_list(cfg):
            window_mask(times, window, predicted_rate(cfg.model, p, cfg.delta)[1])
    return spec, grid, stepper_cfg, v0


def _rates_p_list(cfg: RunConfig, text: str | None = None) -> list:
    """The p values `rates` judges: the comma list `text` or, by default,
    the config's p list and the derivative for frac_odd; p = 2 first when
    missing."""
    p_list = ([p if p == "derivative" else float(p)
               for p in map(str.strip, text.split(","))] if text else
              list(cfg.p_list) + (["derivative"] if cfg.model == "frac_odd" else []))
    return p_list if 2.0 in p_list else [2.0] + p_list


# ---------------------------------------------------------------------------
# Subcommands


def cmd_front(args) -> int:
    cfg = _config_from_args(args)
    spec, grid, _, _ = _check_config(cfg)
    front = front_for_operator(spec, grid, tol=cfg.front_tol)
    saved = runio.write_profile(args.out or "profile", front)
    monotone = float(np.max(front.phi_prime.values)) <= 1e-10
    print(f"operator      {front.operator.label}")
    print(f"method        {front.method}")
    print(f"residual_sup  {front.residual_sup:.3e}")
    print(f"endpoints     ({front.endpoints[0]:g}, {front.endpoints[1]:g})")
    print(f"monotone      {monotone}")
    print(f"saved         {saved[0]}, {saved[1]}")
    return EXIT_OK


def _parse_sweep_range(text: str) -> list[float]:
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError:  # not three fields, or a field that is no number
        start = stop = step = np.nan
    if not (np.all(np.isfinite([start, stop, step])) and step > 0.0
            and start <= stop):
        raise ValueError(f"--sweep-nu {text!r}: need finite START:STOP:STEP "
                         "with START <= STOP and STEP > 0")
    count = np.floor((stop - start) / step + 1e-9) + 1
    if not count <= MAX_SWEEP_ROWS:  # also refuses an infinite count
        raise ValueError(f"--sweep-nu {text!r}: {count:.0f} values, more than "
                         f"{MAX_SWEEP_ROWS}")
    return [start + i * step for i in range(int(count))]


def cmd_certify(args) -> int:
    if args.sweep_nu:  # sweep_nu sizes its own kdvb fronts and grids
        ignored = [flag for flag in (*_OPERATOR_FLAGS, "--profile")
                   if getattr(args, flag[2:]) is not None]
        if ignored:
            raise ValueError(f"--sweep-nu ignores {', '.join(ignored)}")
    cfg = _config_from_args(args)
    spec, grid, _, _ = _check_config(cfg)
    if args.sweep_nu:
        values = _parse_sweep_range(args.sweep_nu)
        rows, threshold = sweep_nu(values, eps_samples=cfg.eps_samples,
                                   m=cfg.fd_points, threads=args.threads)
        out = Path(args.out or "sweep.csv")
        runio.write_sweep_csv(out, rows)
        for r in rows:
            note = f"  [{r.error}]" if r.error else ""
            print(f"nu={r.nu:8.3f}  satisfied={str(r.satisfied):5s} "
                  f"min_count={r.min_count}  argmin_eps={r.argmin_eps:g}{note}")
        print(f"threshold estimate: largest satisfied |nu| = {threshold:g}")
        print(f"saved {out}")
        return EXIT_OK if any(not r.error for r in rows) else EXIT_USAGE

    if args.profile:
        front = runio.read_profile(args.profile)
    else:
        front = front_for_operator(spec, grid, tol=cfg.front_tol)
    try:
        cert = certify_front(front, eps_samples=cfg.eps_samples, m=cfg.fd_points)
    except CertificationError as exc:
        print(f"unresolved certificate: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    out = Path(args.out or "certificate.json")
    runio.write_certificate(out, cert)
    for e, c, flag in zip(cert.eps_samples, cert.counts, cert.near_zero_flags):
        mark = "  (near-zero eigenvalue)" if flag else ""
        ref = "  [reference]" if e == 0.0 else ""
        print(f"eps={e:4.2f}  negative eigenvalues: {c}{mark}{ref}")
    print(f"satisfied: {cert.satisfied}  (saved {out})")
    return EXIT_OK if cert.satisfied else EXIT_CERTIFICATION


def _run_pipeline(cfg: RunConfig) -> tuple[int, dict, str]:
    """Exit status, summary and the instability abort's message ("" if none)
    of a config, which `_check_config` checks before any front work."""
    spec, grid, stepper_cfg, v0 = _check_config(cfg)
    front = front_for_operator(spec, grid, tol=cfg.front_tol)
    cert = None
    try:
        cert = certify_front(front, eps_samples=cfg.eps_samples, m=cfg.fd_points)
    except CertificationError as exc:
        print(f"warning: certificate unresolved ({exc})", file=sys.stderr)
    writer = runio.RunWriter(cfg.directory, cfg, front, cert)

    status, error = EXIT_OK, ""
    try:
        traj = evolve(v0, front, spec, stepper_cfg, certificate=cert)
    except StabilityError as exc:
        print(f"instability abort: {exc}", file=sys.stderr)
        traj = exc.partial
        status, error = EXIT_INSTABILITY, str(exc)
    writer.write_trajectory(traj.series, traj.snapshots)
    summary = {
        "monotonicity_violations": traj.monotonicity_violations,
        "max_relative_uptick": traj.max_uptick,
        "boundary_warnings": traj.boundary_warnings,
        "peak_advective": traj.peak_advective,
        "peak_contamination": traj.peak_contamination,
        "x0_final": traj.x0_final,
        "l2_initial": traj.series.l2[0],
        "l2_final": traj.series.l2[-1],
        "aborted": traj.aborted,
    }
    try:
        energy = check_energy_inequality(traj.series)
        summary["energy_c_fit"] = energy.c_fit
        summary["energy_violations"] = energy.violations
    except ValueError:
        pass
    weighted = weighted_bound_monitor(traj.series)
    summary["weighted_sup_sq"] = weighted.sup_weighted_sq
    summary["cumulative_l2_sq"] = weighted.cumulative_l2_sq
    writer.finalize(
        version=__version__,
        certificate_satisfied=None if cert is None else cert.satisfied,
        summary=summary,
    )
    return status, summary, error


def cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    status, summary, _ = _run_pipeline(cfg)
    print(f"run directory          {cfg.directory}")
    print(f"monotonicity           {summary['monotonicity_violations']} violations "
          f"(max uptick {summary['max_relative_uptick']:.2e})")
    if "energy_c_fit" in summary:
        print(f"energy inequality      C_fit = {summary['energy_c_fit']:.4f}, "
              f"{summary['energy_violations']} violations")
    print(f"||v||_2                {summary['l2_initial']:.6g} -> "
          f"{summary['l2_final']:.6g}")
    print(f"x0(t_end)              {summary['x0_final']:.6g}")
    return status


def _parse_times(text: str) -> list[float]:
    try:
        times = sorted(float(t) for t in text.split(","))
    except ValueError:  # an empty field, or a field that is no number
        times = [np.nan]
    if not all(0.0 < t < np.inf for t in times):
        raise ValueError(f"--times {text!r}: need a comma list of finite "
                         "times > 0")
    return times


def cmd_oracle(args) -> int:
    cfg = _config_from_args(args)
    spec, grid, stepper_cfg, v0 = _check_config(cfg)
    if not spec.is_zero:
        raise ValueError("the exact solution applies to the pure Burgers case "
                         "only (operator must be 0)")
    times = _parse_times(args.times)
    if not 0.0 <= args.threshold < np.inf:
        raise ValueError(f"--threshold {args.threshold!r}: need a finite "
                         "value >= 0")
    front = front_for_operator(spec, grid, tol=cfg.front_tol)
    u0 = Field(grid, front.phi.values + v0.values)
    errors = []
    for t in times:
        steps = max(1, int(round(t / cfg.dt)))
        run_cfg = replace(stepper_cfg, dt=t / steps, t_end=t, record_every=steps,
                          snapshot_every=steps, p_list=())
        traj = evolve(v0, front, spec, run_cfg)
        _, vf = traj.snapshots[-1]
        y = grid.x - traj.x0_final  # a lattice: one chirp-z transform
        u_num = ref_profile(y) + trig_interpolate_lattice(
            grid, front.correction + vf.values, y[0], grid.h, grid.n)
        exact = cole_hopf_exact(u0, t)
        errors.append(float(np.max(np.abs(u_num - exact.values))))
        print(f"t={t:g}  sup discrepancy {errors[-1]:.3e}")
    worst = float(np.max(errors))  # a nan discrepancy stays nan and fails
    if not worst <= args.threshold:
        print(f"discrepancy {worst:.3e} exceeds threshold {args.threshold:g}",
              file=sys.stderr)
        return EXIT_CERTIFICATION
    return EXIT_OK


def cmd_rates(args) -> int:
    series, args.config = runio.read_run(args.run)
    cfg = _config_from_args(args)
    model, window, delta = cfg.model, cfg.window(), cfg.delta
    if not model:
        raise ValueError("no theorem model given (use --model kdvb|frac_odd)")
    verdicts = compare_to_theorem(series, model, _rates_p_list(cfg, args.p_list),
                                  window, delta=delta)
    print(f"model {model}, window [{window[0]:g}, {window[1]:g}], delta {delta:g}")
    print(f"{'p':>12} {'rate':>7} {'beta':>6} {'envelope':>9} {'fitted':>8}  verdict")
    for v in verdicts:
        print(f"{str(v.p):>12} {v.rate:7.4f} {v.beta:6.3f} {v.ratio:9.3f} "
              f"{v.fitted_exponent:8.3f}  "
              f"{'bound satisfied' if v.satisfied else 'VIOLATED'}")
    out = runio.write_verdicts(args.run, verdicts)
    if args.svg:
        from .svgplot import write_loglog_svg
        t = series.column("t")
        mask = t > 0
        curves, guides = [], []
        for v in verdicts:
            norm = series.norm(v.p)
            curves.append((f"p={v.p}", t[mask], norm[mask]))
            i0 = np.argmin(np.abs(t - window[0]))
            guides.append((f"slope -{v.rate:g}", -v.rate, t[i0],
                           max(norm[i0], 1e-300)))
        write_loglog_svg(args.svg, curves, guides,
                         title=f"decay vs predictions ({model})")
        print(f"saved {args.svg}")
    print(f"saved {out}")
    return EXIT_OK if all(v.satisfied for v in verdicts) else EXIT_CERTIFICATION


def _simulate_worker(cfg: RunConfig) -> tuple[str, int, dict, str]:
    try:
        return (cfg.directory, *_run_pipeline(cfg))
    except tuple(FAILURE_EXIT) as exc:
        return cfg.directory, _failure_exit(exc), {}, str(exc)


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    key, _, values = args.set.partition("=")
    key = key.strip()
    # every key but output.directory, which the sweep sets per run
    if key not in KEYS or key == "output.directory":
        raise ValueError(f"not a sweepable key: {key!r}")
    attr, kind = KEYS[key]
    base_dir = Path(args.out or "sweep_runs")
    runs = []
    # list values contain commas, so list keys separate sweep values with ';'
    for raw in values.split(";" if kind in ("floats", "pairs") else ","):
        raw = raw.strip()
        runs.append(replace(cfg, directory=str(base_dir / f"{attr}_{raw}")))
        set_key(runs[-1], key, raw)
    # a run whose config fails its check is a row, before any front work
    results = map_jobs(_simulate_worker, runs, args.threads)
    runio.write_sweep_summary(base_dir, results)
    worst = max((status for _, status, _, _ in results), default=0)
    print(f"{len(results)} runs under {base_dir} (worst exit {worst})")
    return worst


def main(argv=None) -> int:
    parser = _Parser(prog="frontlab",
                     description="Front construction, certification, and "
                                 "perturbation dynamics for dispersive-"
                                 "diffusive Burgers equations")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("front", help="solve a steady front profile")
    _add_key_flags(p, *_OPERATOR_FLAGS, "--tol")
    p.add_argument("--out", default=None, help="output base path")
    p.set_defaults(func=cmd_front)

    p = sub.add_parser("certify", help="count negative eigenvalues of the "
                                       "front's Schrodinger operators")
    _add_key_flags(p, *_OPERATOR_FLAGS, "--eps", "--fd-points")
    p.add_argument("--profile", default=None, help="existing profile base path")
    p.add_argument("--sweep-nu", default=None, metavar="START:STOP:STEP")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("simulate", help="evolve a perturbation and persist "
                                        "the run directory")
    p.add_argument("--config", required=True, help="INI configuration file")
    p.add_argument("--out", default=None, help="override output directory")
    _add_key_flags(p, "--seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", help="compare the solver against the exact "
                                      "pure-Burgers solution")
    _add_key_flags(p, *_OPERATOR_FLAGS, "--seed")
    p.add_argument("--config", default=None)
    p.add_argument("--times", default="1.0", help="comma list of times")
    p.add_argument("--threshold", type=float, default=1e-6)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("rates", help="fit decay exponents and check them "
                                     "against the predicted bounds")
    p.add_argument("--run", required=True, help="run directory")
    p.add_argument("--model", default=None, choices=["kdvb", "frac_odd"],
                   help="sets diagnostics.model")
    _add_key_flags(p, "--window", "--delta")
    p.add_argument("--p-list", default=None,
                   help="comma list of p values (also: inf, derivative)")
    p.add_argument("--svg", default=None, help="write a log-log SVG plot")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("sweep", help="run simulate over a list of parameter "
                                     "values, one directory per run")
    p.add_argument("--config", required=True)
    p.add_argument("--set", required=True, metavar="SECTION.KEY=V1,V2,...",
                   help="any config key but output.directory; list-valued "
                        "keys separate their values with ';'")
    p.add_argument("--out", default=None)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(FAILURE_EXIT) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _failure_exit(exc)


if __name__ == "__main__":
    sys.exit(main())
