"""Command-line interface: solve, sweep, heatmap, oracle-check, calibrate,
optimize.

Exit codes: 0 success, 1 validation error (arguments, config files,
model preconditions), 2 numerical failure. Every failure prints a
single line starting with ``error:`` to stderr. File and stdout output
is byte-deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import replace

from . import calibrate as cal
from .closed_form import RobotConfig, solve_velocity
from .config_io import _write_csv, load_config
from .errors import BiflagError, DomainError, NumericalError
from .oracle import OracleSettings, oracle_full_solve
from .presets import AMPLITUDE_BY_LENGTH, default_config, smooth_config, with_params
from .svgplot import emit_plot
from .sweep import (
    AXIS_COLUMNS,
    BACKENDS,
    SOLVERS,
    SweepSpec,
    heatmap,
    sweep,
)

#: built-in ladder for oracle-check: flagellum length (a whole number of
#: wavelengths, where the closed form is cleanest), shape coefficients
#: with their speed tolerances, and the probed frequencies
ORACLE_CHECK_LENGTH_WAVELENGTHS = 2
ORACLE_CHECK_RUNGS = ((0.04, 0.01), (0.075, 0.02), (0.08, 0.02), (0.12, 0.05))
ORACLE_CHECK_FREQUENCIES = (2.0, 4.41, 5.28)

#: the JSON keys of solve, one per SolveResult field, in its order
_SOLVE_KEYS = ("U_X_m_s", "F1_N", "F2_N", "F_body_N", "residual_N", "P1_W",
               "P2_W", "P0_W", "eta", "CoT", "Re")

_QUANTITY_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*([a-zA-Z/]*)\s*$")
_UNIT_FACTORS = {
    "": 1.0,
    "m": 1.0, "cm": 0.01, "mm": 0.001,
    "hz": 1.0,
    "m/s": 1.0, "cm/s": 0.01,
}


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2)
        raise _ArgumentError(message)


def parse_quantity(text: str) -> float:
    """Parse a finite number with an optional unit into SI ('12cm', '4.41hz')."""
    match = _QUANTITY_RE.match(text)
    if not match:
        raise _ArgumentError(f"cannot parse quantity {text!r}")
    number, unit = match.groups()
    factor = _UNIT_FACTORS.get(unit.lower())
    if factor is None:
        raise _ArgumentError(f"unknown unit suffix {unit!r} in {text!r}")
    try:
        value = float(number) * factor
    except ValueError:
        raise _ArgumentError(f"cannot parse quantity {text!r}") from None
    if not math.isfinite(value):
        raise _ArgumentError(f"quantity {text!r} exceeds double-precision range")
    return value


def _parse_bounds(text: str) -> dict[str, tuple[float, float]]:
    """Parse 'f1=0.5:6,L=6.5cm:12cm' into design intervals."""
    intervals = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item or ":" not in item:
            raise _ArgumentError(
                f"bounds item {item!r} must look like name=low:high")
        name, span = item.split("=", 1)
        name = name.strip()
        if name in intervals:
            raise _ArgumentError(f"bounds: {name} given twice")
        lo_text, hi_text = span.split(":", 1)
        intervals[name] = (parse_quantity(lo_text), parse_quantity(hi_text))
    if not intervals:
        raise _ArgumentError("bounds: no intervals given")
    return intervals


def build_parser() -> _Parser:
    parser = _Parser(prog="biflag",
                     description="Biflagellated swimmer model tools")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add_config(p, default="default"):
        p.add_argument("--config", default=default,
                       help="config file path, or 'default' for built-in "
                            "defaults (calibrate uses the smooth baseline)")

    p = sub.add_parser("solve", help="solve one configuration, JSON to stdout")
    add_config(p)
    p.add_argument("--backend", choices=BACKENDS,
                   default="closed_form")

    p = sub.add_parser("sweep", help="1-D parameter sweep to CSV")
    add_config(p)
    p.add_argument("--axis", required=True,
                   choices=tuple(AXIS_COLUMNS))
    p.add_argument("--from", dest="start", required=True,
                   help="axis start (unit suffixes allowed, e.g. 6.5cm)")
    p.add_argument("--to", dest="stop", required=True, help="axis stop")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--backend", choices=BACKENDS,
                   default="closed_form")
    p.add_argument("--coupling", choices=("none", "builtin"), default="none",
                   help="amplitude-vs-length coupling preset (axis L only)")
    p.add_argument("--out", default="sweep.csv")
    p.add_argument("--plot", default=None, help="optional SVG output path")

    p = sub.add_parser("heatmap", help="(f1, f2) grid of one output to CSV")
    add_config(p)
    p.add_argument("--f1-from", dest="f1_start", required=True)
    p.add_argument("--f1-to", dest="f1_stop", required=True)
    p.add_argument("--f1-count", dest="f1_count", type=int, required=True)
    p.add_argument("--f2-from", dest="f2_start", required=True)
    p.add_argument("--f2-to", dest="f2_stop", required=True)
    p.add_argument("--f2-count", dest="f2_count", type=int, required=True)
    p.add_argument("--output", choices=("U_X", "eta"), default="eta")
    p.add_argument("--backend", choices=BACKENDS,
                   default="closed_form")
    p.add_argument("--out", default="heatmap.csv")

    p = sub.add_parser("oracle-check",
                       help="closed form vs numerical oracle, JSON to stdout")
    add_config(p)

    p = sub.add_parser("calibrate",
                       help="fit thrust_scale to measured speeds, JSON to stdout")
    add_config(p, default="smooth")
    p.add_argument("--dataset", default=None,
                   help="CSV file of experimental points "
                        "(default: built-in dataset)")

    p = sub.add_parser("optimize",
                       help="derivative-free design search, JSON to stdout")
    add_config(p)
    p.add_argument("--objective", choices=("speed", "efficiency"),
                   required=True)
    p.add_argument("--bounds", required=True,
                   help="comma-separated name=low:high intervals, names from "
                        "f1,f2,L,A,lambda")
    p.add_argument("--constraint-sum", dest="constraint_sum", default=None,
                   help="hold f1+f2 at this value [Hz]")
    return parser


def _load(config_value: str) -> tuple[RobotConfig, OracleSettings]:
    if config_value == "default":
        return default_config(), OracleSettings()
    if config_value == "smooth":
        return smooth_config(), OracleSettings()
    return load_config(config_value)


def _dump_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _cmd_solve(args) -> int:
    cfg, settings = _load(args.config)
    result = SOLVERS[args.backend](cfg, settings)
    _dump_json(dict(zip(_SOLVE_KEYS, result, strict=True)))
    return 0


def _cmd_sweep(args) -> int:
    cfg, settings = _load(args.config)
    coupling = AMPLITUDE_BY_LENGTH if args.coupling == "builtin" else None
    spec = SweepSpec(axis=args.axis,
                     start=parse_quantity(args.start),
                     stop=parse_quantity(args.stop),
                     count=args.count,
                     backend=args.backend,
                     coupling=coupling)
    table = sweep(cfg, spec, settings)
    _write_csv(args.out, table.columns, table.rows)
    if args.plot:
        emit_plot(table, args.plot)
    return 0


def _cmd_heatmap(args) -> int:
    cfg, settings = _load(args.config)
    grid = heatmap(cfg,
                   (parse_quantity(args.f1_start), parse_quantity(args.f1_stop)),
                   (parse_quantity(args.f2_start), parse_quantity(args.f2_stop)),
                   (args.f1_count, args.f2_count),
                   output=args.output, backend=args.backend,
                   settings=settings)
    rows = [[f1, f2, grid.values[i][j]]
            for i, f1 in enumerate(grid.f1)
            for j, f2 in enumerate(grid.f2)]
    _write_csv(args.out, ["f1_hz", "f2_hz", grid.output], rows)
    return 0


def _cmd_oracle_check(args) -> int:
    cfg, settings = _load(args.config)
    lam = cfg.anterior.lam
    length = ORACLE_CHECK_LENGTH_WAVELENGTHS * lam
    points = []
    worst_by_beta = {}
    for beta, tolerance in ORACLE_CHECK_RUNGS:
        worst = 0.0
        for f in ORACLE_CHECK_FREQUENCIES:
            point = with_params(cfg, {"L": length, "A": beta * lam, "f_sym": f})
            u_closed = solve_velocity(point)
            u_oracle = oracle_full_solve(point, settings).U_X
            if u_closed != 0.0:
                rel = abs(u_oracle - u_closed) / abs(u_closed)
            elif u_oracle == 0.0:
                rel = 0.0  # both backends stand still, as at gamma = 1
            else:
                raise DomainError(
                    f"oracle-check point beta={beta:g}, f_hz={f:g}: relative"
                    f" difference needs a nonzero closed-form speed (oracle"
                    f" speed {u_oracle!r})")
            worst = max(worst, rel)
            points.append({"beta": beta, "f_hz": f,
                           "U_closed_m_s": u_closed,
                           "U_oracle_m_s": u_oracle,
                           "rel_diff": rel})
        worst_by_beta[f"{beta:g}"] = {"max_rel_diff": worst,
                                      "tolerance": tolerance,
                                      "pass": worst <= tolerance}
    payload = {
        "L_m": length,
        "points": points,
        "by_beta": worst_by_beta,
        "pass": all(v["pass"] for v in worst_by_beta.values()),
    }
    _dump_json(payload)
    return 0


def _cmd_calibrate(args) -> int:
    cfg, _ = _load(args.config)
    dataset = (cal.load_dataset_csv(args.dataset) if args.dataset
               else cal.builtin_dataset())
    fit_points = cal.symmetric_points(dataset)
    result = cal.fit_thrust_scale(fit_points, cfg,
                                  coupling=AMPLITUDE_BY_LENGTH)
    fitted = replace(cfg, thrust_scale=result.thrust_scale)
    report = []
    for point in dataset:
        if point.speed == 0:
            raise DomainError(
                f"point {point.source!r}: relative error needs speed > 0")
        model = cal.model_speed(fitted, point, coupling=AMPLITUDE_BY_LENGTH)
        report.append({
            "source": point.source,
            "L_m": point.L,
            "f1_hz": point.f1,
            "f2_hz": point.f2,
            "speed_m_s": point.speed,
            "model_speed_m_s": model,
            "rel_error": (model - point.speed) / point.speed,
            "used_in_fit": point in fit_points,
        })
    _dump_json({
        "thrust_scale": result.thrust_scale,
        "max_rel_error": result.max_rel_error,
        "fit_residuals": list(result.residuals),
        "points": report,
    })
    return 0


def _cmd_optimize(args) -> int:
    cfg, _ = _load(args.config)
    constraint = (parse_quantity(args.constraint_sum)
                  if args.constraint_sum is not None else None)
    bounds = cal.DesignBounds(intervals=_parse_bounds(args.bounds),
                              constraint_sum=constraint)
    result = cal.optimize_design(cfg, bounds, args.objective)
    payload = {
        "objective": result.objective,
        "params": {name: result.params[name] for name in sorted(result.params)},
        "value": result.value,
    }
    if constraint is not None:
        payload["constraint_sum_hz"] = constraint
        payload["params"]["f2"] = constraint - result.params["f1"]
    _dump_json(payload)
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "heatmap": _cmd_heatmap,
    "oracle-check": _cmd_oracle_check,
    "calibrate": _cmd_calibrate,
    "optimize": _cmd_optimize,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (_ArgumentError, BiflagError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, NumericalError) else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
