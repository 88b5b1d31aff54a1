"""End-to-end acceptance ladder for the package.

Each test checks one numbered acceptance criterion at its stated
tolerance and prints a single PASS line with the measured numbers
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).
"""

import json
import math
import random
import time
from dataclasses import replace

import pytest

from biflag.calibrate import (
    DesignBounds,
    builtin_dataset,
    fit_thrust_scale,
    model_speed,
    optimize_design,
)
from biflag.cli import run as cli_run
from biflag.closed_form import assemble_result, full_solve, solve_velocity
from biflag.oracle import OracleSettings, oracle_full_solve
from biflag.presets import (
    AMPLITUDE_BY_LENGTH,
    default_config,
    smooth_config,
    with_params,
)
from biflag.sweep import SweepSpec, heatmap, linear_grid, sweep

import quadrature
from conftest import random_config

LADDER_FREQUENCIES = (2.0, 4.41, 5.28)


def report(number: int, name: str, detail: str) -> None:
    print(f"[criterion {number:2d}] {name}: PASS ({detail})")


def test_c01_speed_form_equivalence():
    rng = random.Random(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        cfg = random_config(rng)
        u1 = solve_velocity(cfg)
        u2 = quadrature.solve_velocity_unreduced(cfg)
        rel = abs(u1 - u2) / max(abs(u1), abs(u2), 1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "speed form equivalence",
           f"worst rel diff {worst:.2e} over 1000 configs in {elapsed:.2f}s")


def test_c02_force_balance_root_property():
    rng = random.Random(101)  # same population as criterion 1
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        result = full_solve(random_config(rng))
        scale = max(abs(result.F1), abs(result.F2), abs(result.F_body), 1e-30)
        rel = abs(result.residual) / scale
        worst = max(worst, rel)
        assert rel <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, "force balance root property",
           f"worst residual {worst:.2e} relative in {elapsed:.2f}s")


def test_c03_oracle_speed_ladder():
    # identical flagella, L = 2*lambda (a whole number of wavelengths),
    # default composite drag, default oracle resolution
    rungs = ((0.04, 0.01), (0.08, 0.02), (0.12, 0.05))
    settings = OracleSettings()
    start = time.perf_counter()
    measured = {}
    for beta, tolerance in rungs:
        worst = 0.0
        for f in LADDER_FREQUENCIES:
            cfg = with_params(
                default_config(L=0.2, A=beta * 0.1), {"f_sym": f})
            u_closed = solve_velocity(cfg)
            u_oracle = oracle_full_solve(cfg, settings).U_X
            worst = max(worst, abs(u_oracle - u_closed) / abs(u_closed))
        measured[beta] = worst
        assert worst <= tolerance, (
            f"beta={beta}: rel speed diff {worst:.4f} > {tolerance}")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, "oracle speed ladder",
           " ".join(f"beta={b}:{measured[b]:.4f}" for b, _ in rungs)
           + f" in {elapsed:.1f}s")


def test_c04_oracle_power_cross_check():
    # smooth baseline (hinge-free drag), L = 2*lambda, three frequencies;
    # per-flagellum powers against the closed-form expressions and the
    # efficiencies against each other.
    # The closed form is the small-beta average: expanding the oracle's
    # phase averages <c^2j/sqrt(1+B^2 c^2)>, B = 2*pi*beta, with
    # 1/sqrt(1+B^2 c^2) ~ 1 - B^2 c^2/2, <c^2> = 1/2 and <c^4> = 3/8 gives
    # its relative gap g_k = q(1/4+gamma/2) + 2(1-s_k)(gamma-1)U/v_w with
    # q = 2*pi^2*beta^2 (s_k = -1 anterior, +1 posterior), up to O(q^2).
    settings = OracleSettings()
    rows = []
    worst_power = {}
    worst_eta = {}
    for beta in (0.04, 0.06, 0.08):
        checks = []  # (|r_k - g_k|, bound) per flagellum and frequency
        we = 0.0
        for f in LADDER_FREQUENCIES:
            cfg = with_params(
                smooth_config(L=0.2, A=beta * 0.1), {"f_sym": f})
            u_closed = solve_velocity(cfg)
            oracle = oracle_full_solve(cfg, settings)
            u_oracle, p1, p2 = oracle.U_X, oracle.P1, oracle.P2
            closed = full_solve(cfg)
            p0 = 6 * math.pi * cfg.fluid.mu * cfg.body.a * u_oracle ** 2
            cells = []
            for spec, p_oracle, p_closed in zip(
                    cfg.flagella, (p1, p2), (closed.P1, closed.P2)):
                gamma = cfg.effective_drag(spec).gamma
                q = 2 * math.pi ** 2 * spec.beta ** 2
                gap = (q * (0.25 + gamma / 2)
                       + 2 * (1 - spec.axis_sign) * (gamma - 1)
                       * u_closed / spec.v_w)
                bound = q ** 2 * (0.25 + gamma / 2)
                r = (p_oracle - p_closed) / p_closed
                remainder = abs(r - gap)
                checks.append((remainder, bound))
                cells.append(f"{spec.role} {r:.4f} vs {gap:.4f}"
                             f" (|r-g| {remainder:.1e} <= {bound:.1e}?)")
            eta_closed = closed.P0 / (closed.P1 + closed.P2)
            eta_oracle = p0 / (p1 + p2)
            de = abs(eta_oracle - eta_closed) / eta_closed
            we = max(we, de)
            rows.append(f"beta={beta} f={f}: power gap " + ", ".join(cells)
                        + f"; eta {de:.4f}")
        worst_power[beta] = max(checks, key=lambda rb: rb[0] / rb[1])
        worst_eta[beta] = we
    table = "\n".join(rows)
    assert all(v <= 0.05 for v in worst_eta.values()), (
        "efficiency deviation above 5%:\n" + table)
    assert all(rem <= bound for rem, bound in worst_power.values()), (
        "per-flagellum power gap off its predicted value by more than"
        " q^2(1/4+gamma/2):\n" + table)
    report(4, "oracle power cross-check",
           " ".join(f"beta={b}:P{worst_power[b][0]:.1e}/{worst_power[b][1]:.1e}"
                    f"/eta{worst_eta[b]:.4f}" for b in worst_power))


def test_c05_efficiency_peak_on_diagonal():
    start = time.perf_counter()
    n = 41
    grid = heatmap(default_config(), (0.5, 6.0), (0.5, 6.0), (n, n),
                   output="eta")
    checked = 0
    for total in range(2 * n - 1):
        cells = [(i, total - i) for i in range(n) if 0 <= total - i < n]
        if len(cells) < 2:
            continue
        values = [grid.values[i][j] for i, j in cells]
        best = cells[values.index(max(values))]
        nearest = min(abs(i - j) for i, j in cells)
        assert abs(best[0] - best[1]) == nearest, (
            f"anti-diagonal {total}: argmax {best} is not nearest to f1=f2")
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(5, "efficiency peak at synchronized frequencies",
           f"{checked} anti-diagonals on a 41x41 grid in {elapsed:.1f}s")


def test_c06_speed_symmetry_and_linearity():
    cfg = default_config()
    grid = linear_grid(0.0, 6.0, 21)
    speeds = {}
    for f1 in grid:
        for f2 in grid:
            speeds[(f1, f2)] = solve_velocity(
                replace(cfg, anterior=replace(cfg.anterior, f=f1),
                        posterior=replace(cfg.posterior, f=f2)))
    worst_sym = worst_lin = 0.0
    for f1 in grid:
        for f2 in grid:
            u = speeds[(f1, f2)]
            sym = abs(u - speeds[(f2, f1)]) / max(abs(u), 1e-300)
            mid = 0.5 * (f1 + f2)
            u_sum = solve_velocity(with_params(cfg, {"f_sym": mid}))
            lin = abs(u - u_sum) / max(abs(u), abs(u_sum), 1e-300)
            worst_sym, worst_lin = max(worst_sym, sym), max(worst_lin, lin)
            assert sym <= 1e-12
            assert lin <= 1e-12
    report(6, "speed symmetry and linearity",
           f"worst symmetry {worst_sym:.2e}, worst linearity {worst_lin:.2e}")


def calibrated_smooth_config():
    fit = fit_thrust_scale(builtin_dataset()[0:3], smooth_config(),
                           coupling=AMPLITUDE_BY_LENGTH)
    return replace(smooth_config(), thrust_scale=fit.thrust_scale), fit


def test_c07_monotonic_trends():
    cfg, _ = calibrated_smooth_config()
    table = sweep(cfg, SweepSpec(axis="f_sym", start=0.0, stop=5.28, count=23))
    speed = table.columns.index("U_m_s")
    speeds = [row[speed] for row in table.rows]
    assert all(b >= a for a, b in zip(speeds, speeds[1:])), (
        "speed not non-decreasing in frequency")
    lengths = (0.065, 0.10, 0.12)
    table = sweep(cfg, SweepSpec(axis="L", start=0.065, stop=0.12, count=12,
                                 coupling=AMPLITUDE_BY_LENGTH))
    swept = [row[speed] for row in table.rows]
    assert all(b > a for a, b in zip(swept, swept[1:]))
    by_length = [
        solve_velocity(replace(
            cfg,
            anterior=replace(cfg.anterior, L=L,
                             A=AMPLITUDE_BY_LENGTH[L]),
            posterior=replace(cfg.posterior, L=L,
                              A=AMPLITUDE_BY_LENGTH[L])))
        for L in lengths]
    assert by_length[0] < by_length[1] < by_length[2]
    report(7, "monotonic trends",
           "U(f) non-decreasing on [0, 5.28] Hz; U strictly increasing over "
           + "/".join(f"{L:g}" for L in lengths)
           + " m with the amplitude coupling")


def test_c08_measured_speed_reproduction():
    points = builtin_dataset()
    fit = fit_thrust_scale(points[0:3], smooth_config(),
                           coupling=AMPLITUDE_BY_LENGTH)
    assert fit.max_rel_error <= 0.30, (
        f"fit residuals {fit.residuals} exceed 30%")
    fitted = replace(smooth_config(), thrust_scale=fit.thrust_scale)
    # length study at 4.41 Hz with the amplitude coupling preset
    u_65 = model_speed(fitted, points[4], coupling=AMPLITUDE_BY_LENGTH)
    u_10 = model_speed(fitted, points[3], coupling=AMPLITUDE_BY_LENGTH)
    u_12 = model_speed(fitted, points[1], coupling=AMPLITUDE_BY_LENGTH)
    assert u_65 < u_10 < u_12, "experimental length ordering not preserved"
    ratio = u_12 / u_65
    assert 2.5 <= ratio <= 5.0, f"length speed ratio {ratio:.2f} outside [2.5, 5]"
    # the cost-of-transport definition is verified arithmetically on the
    # measured dual-actuation electrical numbers; the measured CoT values
    # themselves include motor losses outside this model: 9.82 W in
    # total (4.91 W per flagellum) at 0.0309 m/s for the 0.256 kg robot
    cot = assemble_result(fitted, 0.0309, 0.0, 0.0, 4.91, 4.91).CoT
    assert cot == pytest.approx(126.544721884082, rel=1e-12)
    report(8, "measured speed reproduction",
           f"scale {fit.thrust_scale:.2f}, max fit residual "
           f"{fit.max_rel_error:.1%}, length ratio {ratio:.2f}, "
           f"CoT check {cot:.1f}")


def test_c09_calibration_round_trip():
    base = smooth_config()
    worst = 0.0
    for scale in (0.5, 1.0, 2.0):
        generator = replace(base, thrust_scale=scale)
        synthetic = [replace(p, speed=model_speed(generator, p,
                                                  coupling=AMPLITUDE_BY_LENGTH))
                     for p in builtin_dataset()[0:3]]
        fit = fit_thrust_scale(synthetic, base, coupling=AMPLITUDE_BY_LENGTH)
        rel = abs(fit.thrust_scale - scale) / scale
        worst = max(worst, rel)
        assert rel <= 1e-3, f"scale {scale} recovered as {fit.thrust_scale}"
    report(9, "calibration round trip", f"worst recovery error {worst:.2e}")


def test_c10_optimizer_matches_brute_force():
    rng = random.Random(987)
    start = time.perf_counter()

    def interval(lo, hi):
        a = rng.uniform(lo, hi)
        b = rng.uniform(lo, hi)
        lo_v, hi_v = min(a, b), max(a, b)
        if hi_v - lo_v < 0.05 * (hi - lo):
            hi_v = min(hi, lo_v + 0.05 * (hi - lo))
        return (lo_v, hi_v)

    def apply_point(cfg, values):
        anterior, posterior = cfg.anterior, cfg.posterior
        if "L" in values:
            anterior = replace(anterior, L=values["L"])
            posterior = replace(posterior, L=values["L"])
        if "A" in values:
            anterior = replace(anterior, A=values["A"])
            posterior = replace(posterior, A=values["A"])
        if "lambda" in values:
            anterior = replace(anterior, lam=values["lambda"])
            posterior = replace(posterior, lam=values["lambda"])
        if "f1" in values:
            anterior = replace(anterior, f=values["f1"])
        if "f2" in values:
            posterior = replace(posterior, f=values["f2"])
        return replace(cfg, anterior=anterior, posterior=posterior)

    def objective_value(cfg, objective, values):
        point = apply_point(cfg, values)
        if objective == "speed":
            return abs(solve_velocity(point))
        return full_solve(point).eta

    cases = [
        ("speed", smooth_config(), {"f1": interval(0.0, 8.0)}, None),
        ("speed", smooth_config(), {"A": interval(0.001, 0.012)}, None),
        ("efficiency", default_config(), {"f1": interval(0.5, 8.0)}, None),
        ("speed", smooth_config(), {"L": interval(0.03, 0.25)}, None),
        ("efficiency", default_config(),
         {"f1": interval(0.5, 6.0), "f2": interval(0.5, 6.0)}, None),
        ("speed", default_config(),
         {"f1": interval(0.5, 6.0), "f2": interval(0.5, 6.0)}, None),
        ("efficiency", smooth_config(), {"f1": (0.5, 7.0)}, 7.5),
        ("speed", smooth_config(), {"lambda": interval(0.06, 0.2)}, None),
        ("efficiency", smooth_config(), {"A": interval(0.001, 0.012)}, None),
        ("speed", smooth_config(), {"f2": interval(0.0, 8.0)}, None),
    ]
    assert len(cases) == 10
    for objective, cfg, intervals, constraint in cases:
        bounds = DesignBounds(intervals, constraint_sum=constraint)
        result = optimize_design(cfg, bounds, objective)
        axes = sorted(intervals)
        grids = {name: linear_grid(*intervals[name], 201) for name in axes}
        grid_best = -math.inf
        if constraint is not None:
            for f1 in grids["f1"]:
                values = {"f1": f1, "f2": constraint - f1}
                grid_best = max(grid_best,
                                objective_value(cfg, objective, values))
        elif len(axes) == 1:
            name = axes[0]
            for v in grids[name]:
                grid_best = max(grid_best,
                                objective_value(cfg, objective, {name: v}))
        else:
            for v1 in grids[axes[0]]:
                for v2 in grids[axes[1]]:
                    grid_best = max(grid_best, objective_value(
                        cfg, objective, {axes[0]: v1, axes[1]: v2}))
        assert result.value >= grid_best - 1e-9, (
            f"{objective} over {intervals}: optimizer {result.value!r} "
            f"below grid best {grid_best!r}")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(10, "optimizer vs brute force",
           f"10 randomized bound sets in {elapsed:.1f}s")


def test_c11_oracle_convergence():
    # the quadrature reference that the exact oracle is checked against
    # must converge; the exact oracle itself ignores the resolution
    cfg = default_config()  # L = 0.12 m is not a whole number of wavelengths
    speeds = []
    for n_seg, n_time in ((64, 8), (128, 16), (256, 32)):
        settings = OracleSettings(n_segments=n_seg, n_time=n_time,
                                  tol_u=1e-14, tol_force=1e-15)
        speeds.append(quadrature.oracle_solve(cfg, settings).U)
    d1 = abs(speeds[1] - speeds[0])
    d2 = abs(speeds[2] - speeds[1])
    assert d1 > 0, "the reference does not depend on its resolution"
    assert d1 >= 3.0 * d2, f"changes {d1:.3e} -> {d2:.3e} shrink by < 3x"
    report(11, "oracle quadrature convergence",
           f"speed change {d1:.2e} -> {d2:.2e} on doubling resolution")


def test_c12_cli_contract(tmp_path, capsys):
    def invoke(*argv):
        code = cli_run(list(argv))
        out = capsys.readouterr().out
        assert code == 0, f"{argv} exited {code}"
        return out

    def sweep_args(tag):
        csv = tmp_path / f"sweep_{tag}.csv"
        svg = tmp_path / f"sweep_{tag}.svg"
        return ("sweep", "--axis", "f_sym", "--from", "0", "--to", "6",
                "--count", "13", "--out", str(csv), "--plot", str(svg)), csv, svg

    def heatmap_args(tag):
        csv = tmp_path / f"heatmap_{tag}.csv"
        return ("heatmap", "--f1-from", "0.5", "--f1-to", "6",
                "--f1-count", "5", "--f2-from", "0.5", "--f2-to", "6",
                "--f2-count", "5", "--out", str(csv)), csv

    outputs = {}
    for run_tag in ("one", "two"):
        solve_out = invoke("solve", "--config", "default")
        sweep_argv, sweep_csv, sweep_svg = sweep_args(run_tag)
        invoke(*sweep_argv)
        heatmap_argv, heatmap_csv = heatmap_args(run_tag)
        invoke(*heatmap_argv)
        oracle_out = invoke("oracle-check", "--config", "default")
        calibrate_out = invoke("calibrate")  # smooth calibration baseline
        calibrate_default_out = invoke("calibrate", "--config", "default")
        optimize_out = invoke("optimize", "--objective", "efficiency",
                              "--bounds", "f1=0.5:8.32,f2=0.5:8.32",
                              "--constraint-sum", "8.82",
                              "--config", "default")
        outputs[run_tag] = (solve_out, sweep_csv.read_bytes(),
                            sweep_svg.read_bytes(), heatmap_csv.read_bytes(),
                            oracle_out, calibrate_out, calibrate_default_out,
                            optimize_out)
    assert outputs["one"] == outputs["two"], "CLI outputs are not deterministic"
    solve_payload = json.loads(outputs["one"][0])
    assert list(solve_payload.keys()) == [
        "U_X_m_s", "F1_N", "F2_N", "F_body_N", "residual_N",
        "P1_W", "P2_W", "P0_W", "eta", "CoT", "Re"]
    oracle_payload = json.loads(outputs["one"][4])
    assert oracle_payload["pass"] is True
    report(12, "CLI contract",
           "six subcommands byte-deterministic across two runs")
