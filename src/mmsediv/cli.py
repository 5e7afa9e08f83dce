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

Options may come from flags and/or a flat ``key=value`` config file
(``--config``); flags override file values.  Exit codes: 0 success, 1
configuration/applicability/boundary error, 2 completed but unconverged or
outside the requested tolerance.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, diversity, verify
from .exceptions import (ConfigurationError, InsufficientDataError)
from .montecarlo import BinomialCurve, CurvePoint, TrialPolicy

__all__ = [
    "CSV_HEADER",
    "build_parser",
    "entry_point",
    "main",
    "read_curve_csv",
    "write_curve_csv",
]

CSV_HEADER = "scenario,snr_db,rho,trials,outages,p_out,ci_low,ci_high,converged"

_DEFAULTS = {
    "M": 2,
    "N": 2,
    "L": 1,
    "K": 64,
    "rate": None,
    "snr_start": 0.0,
    "snr_stop": 35.0,
    "snr_step": 2.5,
    "seed": 0,
    "workers": "1",
    "max_trials": 10_000_000,
    "target_events": 200,
    "scaling": "per-tap",
    "out": "outage_curve.csv",
    "d_tolerance": 0.5,
}

_INT_KEYS = ("M", "N", "L", "K", "seed", "max_trials", "target_events")
_FLOAT_KEYS = ("rate", "snr_start", "snr_stop", "snr_step", "d_tolerance")


class _Parser(argparse.ArgumentParser):
    # route usage errors through the package's exit-code convention
    def error(self, message):
        raise ConfigurationError(message)


def _add_common_options(sub):
    sub.add_argument("--M", type=int, default=None, help="transmit antennas")
    sub.add_argument("--N", type=int, default=None, help="receive antennas")
    sub.add_argument("--L", type=int, default=None,
                     help="channel taps (1 = flat fading)")
    sub.add_argument("--K", type=int, default=None,
                     help="cyclic-prefix block length (selective only)")
    sub.add_argument("--rate", type=float, default=None,
                     help="target rate R in bits/s/Hz")
    sub.add_argument("--snr-start", type=float, default=None, help="grid start, dB")
    sub.add_argument("--snr-stop", type=float, default=None, help="grid stop, dB")
    sub.add_argument("--snr-step", type=float, default=None, help="grid step, dB")
    sub.add_argument("--seed", type=int, default=None, help="master seed")
    sub.add_argument("--workers", type=str, default=None,
                     help="worker processes, or 'auto'")
    sub.add_argument("--max-trials", type=int, default=None,
                     help="trial budget per SNR point")
    sub.add_argument("--target-events", type=int, default=None,
                     help="outage events per point before early stopping")
    sub.add_argument("--scaling", choices=["per-tap", "paper"], default=None,
                     help="noise-scaling convention: rho/(M*L) or rho/M")
    sub.add_argument("--config", type=str, default=None,
                     help="flat key=value configuration file")
    sub.add_argument("--out", type=str, default=None, help="output CSV path")
    sub.add_argument("--d-tolerance", type=float, default=None,
                     help="allowed |d_hat - prediction| before exit code 2")


def build_parser():
    parser = _Parser(prog="mmsediv",
                     description="MMSE receiver outage and diversity toolkit")
    parser.add_argument("--version", action="version",
                        version=f"mmsediv {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("predict", "print the closed-form rate regime and diversity"),
            ("outage", "Monte Carlo outage sweep, CSV output and slope fit"),
            ("verify-haar", "self-checks of the Haar unitary samplers"),
            ("verify-sinr", "self-checks of the SINR paths"),
            ("verify-wishart", "self-checks of the Wishart spectrum module")):
        sub = subs.add_parser(name, help=help_text)
        _add_common_options(sub)
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
                if key not in _DEFAULTS:
                    raise ConfigurationError(
                        f"{path}:{lineno}: unknown configuration key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    return values


def _coerce(key, value):
    if value is None:
        return None
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
    except ValueError as exc:
        raise ConfigurationError(f"bad value for {key}: {value!r}") from exc
    return value


@dataclass
class RunSpec:
    """Fully resolved options of one invocation (flags over file over defaults)."""

    command: str
    M: int
    N: int
    L: int
    K: int
    rate: float | None
    snr_start: float
    snr_stop: float
    snr_step: float
    seed: int
    workers: str
    max_trials: int
    target_events: int
    scaling: str
    out: str
    d_tolerance: float


def resolve_spec(ns):
    """Merge flags, config file and defaults into a `RunSpec`."""
    file_values = _parse_config_file(ns.config) if ns.config else {}
    merged = {}
    for key, default in _DEFAULTS.items():
        flag = getattr(ns, key, None)
        if flag is not None:
            merged[key] = flag
        elif key in file_values:
            merged[key] = _coerce(key, file_values[key])
        else:
            merged[key] = default
    return RunSpec(command=ns.command, **merged)


def _system_config(spec):
    if spec.rate is None:
        raise ConfigurationError("a target rate is required (--rate or rate=...)")
    return diversity.SystemConfig(M=spec.M, N=spec.N, R=spec.rate, L=spec.L,
                                  K=spec.K if spec.L > 1 else 1,
                                  scaling=spec.scaling)


def _snr_grid(spec):
    if spec.snr_step <= 0.0:
        raise ConfigurationError(f"snr-step must be positive, got {spec.snr_step}")
    if not spec.snr_start < spec.snr_stop:
        raise ConfigurationError(
            f"need snr-start < snr-stop, got {spec.snr_start} >= {spec.snr_stop}")
    count = int(math.floor((spec.snr_stop - spec.snr_start) / spec.snr_step + 1e-9)) + 1
    return spec.snr_start + spec.snr_step * np.arange(count)


def _float_repr(x):
    return repr(float(x))


def write_curve_csv(curve, path):
    """Write a curve in the fixed CSV schema at full float precision."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(CSV_HEADER + "\n")
        for pt in curve.points:
            handle.write(",".join([
                curve.scenario,
                _float_repr(pt.snr_db),
                _float_repr(pt.rho),
                str(pt.trials),
                str(pt.outages),
                _float_repr(pt.p_out),
                _float_repr(pt.ci_low),
                _float_repr(pt.ci_high),
                "true" if pt.converged else "false",
            ]) + "\n")


def read_curve_csv(path):
    """Read a curve written by `write_curve_csv` (exact value round-trip)."""
    points = []
    scenario = ""
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip()
        if header != CSV_HEADER:
            raise ConfigurationError(f"{path}: unexpected CSV header {header!r}")
        for raw in handle:
            line = raw.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 9:
                raise ConfigurationError(f"{path}: malformed row {line!r}")
            scenario = fields[0]
            points.append(CurvePoint(
                snr_db=float(fields[1]), rho=float(fields[2]),
                trials=int(fields[3]), outages=int(fields[4]),
                p_out=float(fields[5]), ci_low=float(fields[6]),
                ci_high=float(fields[7]), converged=fields[8] == "true"))
    return BinomialCurve(scenario=scenario, points=points, master_seed=None)


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


def _policy(spec):
    return TrialPolicy(max_trials=spec.max_trials, target_events=spec.target_events)


def _fit_report(spec, cfg, regime, curve, fit, verdict_line):
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
            f"(converged, p_out <= 0.1)")
    lines.append(verdict_line)
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
        "verdict": verdict_line.split(":")[1].strip().lower(),
    }
    lines.extend(f"{key}={value}" for key, value in kv.items())
    return "\n".join(lines) + "\n"


def cmd_outage(spec):
    cfg = _system_config(spec)
    regime = diversity.resolve_rate_regime(cfg)
    grid = _snr_grid(spec)
    if grid.size < 3:
        raise ConfigurationError(
            f"slope fitting needs at least 3 grid points, grid has {grid.size}")
    curve = diversity.estimate_outage(cfg, grid, policy=_policy(spec),
                                      master_seed=spec.seed,
                                      workers=spec.workers)
    write_curve_csv(curve, spec.out)
    print(f"wrote {spec.out} ({len(curve.points)} points)")
    status = 0
    try:
        fit = diversity.fit_diversity_slope(curve)
    except InsufficientDataError as exc:
        fit = None
        verdict = f"verdict: UNCONVERGED: {exc}"
        status = 2
    else:
        lo = regime.diversity_low - spec.d_tolerance
        hi = regime.diversity_high + spec.d_tolerance
        if lo <= fit.d_hat <= hi:
            verdict = (f"verdict: PASS: d_hat={fit.d_hat:.4f} within "
                       f"[{lo:g}, {hi:g}]")
        else:
            verdict = (f"verdict: FAIL: d_hat={fit.d_hat:.4f} outside "
                       f"[{lo:g}, {hi:g}]")
            status = 2
    report = _fit_report(spec, cfg, regime, curve, fit, verdict)
    report_path = spec.out + ".report.txt"
    with open(report_path, "w", encoding="utf-8") as handle:
        handle.write(report)
    print(report, end="")
    print(f"wrote {report_path}")
    return status


def _run_checks(results):
    failed = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"{tag} {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 2


def cmd_verify_haar(spec):
    return _run_checks(verify.verify_haar(seed=spec.seed))


def cmd_verify_sinr(spec):
    return _run_checks(verify.verify_sinr(seed=spec.seed))


def cmd_verify_wishart(spec):
    return _run_checks(verify.verify_wishart(seed=spec.seed))


_COMMANDS = {
    "predict": cmd_predict,
    "outage": cmd_outage,
    "verify-haar": cmd_verify_haar,
    "verify-sinr": cmd_verify_sinr,
    "verify-wishart": cmd_verify_wishart,
}


def main(argv=None):
    """Run the CLI; returns the process exit code."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        spec = resolve_spec(ns)
        return _COMMANDS[spec.command](spec)
    except ValueError as exc:  # ConfigurationError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point():
    raise SystemExit(main())
