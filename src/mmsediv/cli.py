"""Batch front-end: regime prediction, outage sweeps and verification suites.

Subcommands
-----------
``predict``
    Print the resolved rate regime (index m, per-stream rate interval,
    diversity bounds, tight flag) for a flat (L=1) or cyclic-prefix
    selective (L>1) configuration.
``outage``
    Run a Monte Carlo outage sweep over an SNR grid, write the curve as
    CSV, and print/write a fit report comparing the fitted decay exponent
    against the closed-form prediction.
``verify-haar`` / ``verify-sinr`` / ``verify-wishart``
    Run the corresponding module self-check suite and report one pass/fail
    line per invariant.

Every subcommand takes the options of `_OPTIONS`, the one list of them:
flag, type, default and help.  ``--config`` names a flat ``key=value``
file whose keys are the other option names, spelt with ``-`` or ``_``
(e.g. ``snr-stop=30`` or ``snr_stop=30``).  Precedence: flags over file
values over the table's defaults.  Exit codes: 0 success, 1
configuration/applicability/boundary error or a numerical breakdown (e.g.
an SNR so high that the MMSE elimination overflows), 2 completed but
unconverged or outside the requested tolerance.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import __version__, diversity, mmse, verify
from .exceptions import ConfigurationError, InsufficientDataError, NumericalError
from .montecarlo import TrialPolicy, resolve_workers

__all__ = [
    "CSV_HEADER",
    "build_parser",
    "entry_point",
    "main",
    "write_curve_csv",
]


def _float_repr(x):
    return repr(float(x))


# the CSV columns after ``scenario``, in order, as (CurvePoint field,
# formatter); formatted by column, not by value type, since numpy scalars
# print as np.float64(...) and fail isinstance checks against int and bool
_CSV_COLUMNS = (
    ("snr_db", _float_repr), ("rho", _float_repr),
    ("trials", str), ("outages", str),
    ("p_out", _float_repr), ("ci_low", _float_repr), ("ci_high", _float_repr),
    ("converged", lambda flag: "true" if flag else "false"),
)

CSV_HEADER = ",".join(["scenario"] + [name for name, _ in _CSV_COLUMNS])

# largest SNR grid `outage` accepts, checked before the grid is allocated
_MAX_GRID_POINTS = 10_000


def _worker_count(text):
    """The process count that ``--workers`` (a positive int or ``auto``) names."""
    try:
        return resolve_workers(text if text == "auto" else int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid positive int or 'auto' value: {text!r}") from None


# flag, type (a tuple lists the allowed values), default, help
_OPTIONS = (
    ("--M", int, 2, "transmit antennas"),
    ("--N", int, 2, "receive antennas"),
    ("--L", int, 1, "channel taps (1 = flat fading)"),
    ("--K", int, 64, "cyclic-prefix block length (selective only)"),
    ("--rate", float, None, "target rate R in bits/s/Hz"),
    ("--snr-start", float, 0.0, "grid start, dB"),
    ("--snr-stop", float, 35.0, "grid stop, dB"),
    ("--snr-step", float, 2.5, "grid step, dB"),
    ("--seed", int, 0, "master seed"),
    ("--workers", _worker_count, 1, "worker processes, or 'auto'"),
    ("--max-trials", int, 10_000_000, "trial budget per SNR point"),
    ("--target-events", int, 200,
     "outage events per point before early stopping"),
    ("--scaling", mmse.SCALING_CONVENTIONS, "per-tap",
     "noise-scaling convention: rho/(M*L) or rho/M"),
    ("--config", str, None, "flat key=value configuration file"),
    ("--out", str, "outage_curve.csv", "output CSV path"),
    ("--d-tolerance", float, 0.5,
     "allowed |d_hat - prediction| before exit code 2"),
)

_CONFIG_KEYS = frozenset(flag[2:].replace("-", "_") for flag, *_ in _OPTIONS
                         if flag != "--config")


class _Parser(argparse.ArgumentParser):
    # route usage errors through the package's exit-code convention
    def error(self, message):
        raise ConfigurationError(message)


def build_parser(file_values=None):
    """Parser of every subcommand; ``file_values`` become option defaults."""
    parser = _Parser(prog="mmsediv",
                     description="MMSE receiver outage and diversity toolkit")
    parser.add_argument("--version", action="version",
                        version=f"mmsediv {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for flag, kind, default, text in _OPTIONS:
            convert = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            sub.add_argument(flag, default=default, help=text, **convert)
        # string defaults go through each option's type when argparse uses them
        sub.set_defaults(**(file_values or {}))
    return parser


def _parse_config_file(path):
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigurationError(
                        f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                key = key.strip().replace("-", "_")
                if key not in _CONFIG_KEYS:
                    raise ConfigurationError(
                        f"{path}:{lineno}: unknown configuration key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    return values


def _system_config(spec):
    if spec.rate is None:
        raise ConfigurationError("a target rate is required (--rate or rate=...)")
    return diversity.SystemConfig(M=spec.M, N=spec.N, R=spec.rate, L=spec.L,
                                  K=spec.K if spec.L > 1 else 1,
                                  scaling=spec.scaling)


def _snr_grid(spec):
    if not all(map(math.isfinite, (spec.snr_start, spec.snr_stop, spec.snr_step))):
        raise ConfigurationError(
            f"snr-start, snr-stop and snr-step must be finite, got "
            f"{spec.snr_start}, {spec.snr_stop}, {spec.snr_step}")
    if spec.snr_step <= 0.0:
        raise ConfigurationError(f"snr-step must be positive, got {spec.snr_step}")
    if not spec.snr_start < spec.snr_stop:
        raise ConfigurationError(
            f"need snr-start < snr-stop, got {spec.snr_start} >= {spec.snr_stop}")
    steps = (spec.snr_stop - spec.snr_start) / spec.snr_step + 1e-9
    if not steps < _MAX_GRID_POINTS:  # also an overflow to inf
        raise ConfigurationError(
            f"the SNR grid would have more than {_MAX_GRID_POINTS} points; "
            f"raise snr-step or narrow snr-start..snr-stop")
    return spec.snr_start + spec.snr_step * np.arange(int(steps) + 1)


def write_curve_csv(curve, path):
    """Write a curve in the fixed CSV schema at full float precision."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(CSV_HEADER + "\n")
        for pt in curve.points:
            cells = [fmt(getattr(pt, name)) for name, fmt in _CSV_COLUMNS]
            handle.write(",".join([curve.scenario] + cells) + "\n")


def cmd_predict(spec):
    cfg = _system_config(spec)
    regime = diversity.resolve_rate_regime(cfg)
    low, high = regime.rate_interval
    print(f"scenario: {cfg.label()}")
    print(regime.describe())
    print(f"per-stream rate interval: ({low:.6g}, {high:.6g}) bits/s/Hz")
    if cfg.selective:
        print(f"applicability: K > M^2(L-1) holds ({cfg.K} > {cfg.M**2 * (cfg.L - 1)})")
    return 0


def _fit_report(spec, cfg, regime, curve, window, fit, verdict, detail):
    converged_db = [pt.snr_db for pt in curve.points if pt.converged]
    lines = [
        "== outage fit report ==",
        f"scenario: {cfg.label()}",
        f"tool: mmsediv {__version__}",
        f"seed: {spec.seed}",
        f"scaling: {cfg.scaling} "
        f"(c = rho/(M*L) if per-tap else rho/M)",
        f"grid: {spec.snr_start:g}..{spec.snr_stop:g} dB step {spec.snr_step:g} "
        f"({len(curve.points)} points)",
        f"policy: target_events={spec.target_events} max_trials={spec.max_trials}",
        f"workers: {spec.workers}",
        f"prediction: {regime.describe()}",
    ]
    if converged_db:
        lines.append(f"converged points: {len(converged_db)} "
                     f"({converged_db[0]:g}..{converged_db[-1]:g} dB)")
    else:
        lines.append("converged points: none")
    if fit is not None:
        lines.append(
            f"fit: d_hat={fit.d_hat:.4f} intercept={fit.intercept:.4f} "
            f"points_used={fit.points_used} residual={fit.residual:.4f}")
        lines.append(
            f"fit window used: {fit.window_db[0]:g}..{fit.window_db[1]:g} dB "
            f"(converged, p_out <= {window.p_max:g})")
    lines.append(f"verdict: {verdict.upper()}: {detail}")
    lines.append("== machine-readable ==")
    kv = {
        "scenario": cfg.label(),
        "version": __version__,
        "seed": spec.seed,
        "scaling": cfg.scaling,
        "M": cfg.M, "N": cfg.N, "L": cfg.L, "K": cfg.K, "rate": cfg.R,
        "snr_start": spec.snr_start, "snr_stop": spec.snr_stop,
        "snr_step": spec.snr_step,
        "target_events": spec.target_events, "max_trials": spec.max_trials,
        "workers": spec.workers,
        "predicted_diversity_low": regime.diversity_low,
        "predicted_diversity_high": regime.diversity_high,
        "regime_m": regime.m,
        "tight": str(regime.tight).lower(),
        "d_hat": "" if fit is None else repr(fit.d_hat),
        "points_used": 0 if fit is None else fit.points_used,
        "verdict": verdict,
    }
    lines.extend(f"{key}={value}" for key, value in kv.items())
    return "\n".join(lines) + "\n"


def _check_writable(path):
    """Fail before a sweep whose output could not be written afterwards."""
    existed = os.path.exists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc.strerror}") from exc
    if not existed:
        os.remove(path)


def cmd_outage(spec):
    cfg = _system_config(spec)
    regime = diversity.resolve_rate_regime(cfg)
    grid = _snr_grid(spec)
    if grid.size < 3:
        raise ConfigurationError(
            f"slope fitting needs at least 3 grid points, grid has {grid.size}")
    if not (math.isfinite(spec.d_tolerance) and spec.d_tolerance >= 0.0):
        raise ConfigurationError(
            f"d-tolerance must be finite and >= 0, got {spec.d_tolerance}")
    report_path = spec.out + ".report.txt"
    for path in (spec.out, report_path):
        _check_writable(path)
    policy = TrialPolicy(max_trials=spec.max_trials,
                         target_events=spec.target_events)
    curve = diversity.estimate_outage(cfg, grid, policy=policy,
                                      master_seed=spec.seed,
                                      workers=spec.workers)
    write_curve_csv(curve, spec.out)
    print(f"wrote {spec.out} ({len(curve.points)} points)")
    window = diversity.FitWindow()
    try:
        fit = diversity.fit_diversity_slope(curve, window)
    except InsufficientDataError as exc:
        fit, verdict, detail = None, "unconverged", str(exc)
    else:
        lo = regime.diversity_low - spec.d_tolerance
        hi = regime.diversity_high + spec.d_tolerance
        inside = lo <= fit.d_hat <= hi
        verdict = "pass" if inside else "fail"
        detail = (f"d_hat={fit.d_hat:.4f} {'within' if inside else 'outside'} "
                  f"[{lo:g}, {hi:g}]")
    report = _fit_report(spec, cfg, regime, curve, window, fit, verdict, detail)
    with open(report_path, "w", encoding="utf-8") as handle:
        handle.write(report)
    print(report, end="")
    print(f"wrote {report_path}")
    return 0 if verdict == "pass" else 2


def _run_checks(suite, spec):
    results = suite(seed=spec.seed)
    failed = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"{tag} {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 2


# subcommand name -> (help, handler)
_COMMANDS = {
    "predict": ("print the closed-form rate regime and diversity", cmd_predict),
    "outage": ("Monte Carlo outage sweep, CSV output and slope fit", cmd_outage),
    "verify-haar": ("self-checks of the Haar unitary samplers",
                    functools.partial(_run_checks, verify.verify_haar)),
    "verify-sinr": ("self-checks of the SINR paths",
                    functools.partial(_run_checks, verify.verify_sinr)),
    "verify-wishart": ("self-checks of the Wishart spectrum module",
                       functools.partial(_run_checks, verify.verify_wishart)),
}


def main(argv=None):
    """Run the CLI; returns the process exit code."""
    try:
        spec = build_parser().parse_args(argv)
        if spec.config:
            spec = build_parser(_parse_config_file(spec.config)).parse_args(argv)
        return _COMMANDS[spec.command][1](spec)
    # ConfigurationError is a ValueError; NumericalError is a breakdown such
    # as an SNR so high that the elimination overflows
    except (ValueError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
