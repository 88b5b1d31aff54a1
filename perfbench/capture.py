"""Capture the correctness reference from the checked-out biflag.

The reference was captured at the commit that defined this benchmark, and
later commits are checked against it, so do not re-run this to make a check
pass. Usage, from the repository root:

    python3 perfbench/capture.py

It writes perfbench/reference.json with:

* ``freq_grid``: the reference cells of every freq-grid pool job;
* ``population``: full_solve and oracle_full_solve on every population item,
  with the oracle's implied absolute tolerance per field;
* ``geom_search``: fit and optimize results of every pool item;
* ``cli``: parsed outputs of the C12 argument sets;
* solver calls (``points``) per geom-search item and CLI argument set.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from dataclasses import replace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
import workloads as wl  # noqa: E402
import worker  # noqa: E402


def outcome(fn, *args, bf):
    """Values, or {"error": class name, "raw": not a BiflagError}."""
    try:
        return fn(*args)
    except Exception as exc:
        return {"error": type(exc).__name__,
                "raw": not isinstance(exc, bf.BiflagError)}


def oracle_atol(bf, cfg, result, settings) -> list[float]:
    """Absolute tolerance per SOLVE_FIELDS implied by tol_u and tol_force.

    Bisection stops within tol_u of the root or where |force| <= tol_force,
    i.e. within tol_force / slope of it, so |dU| <= tol_u + tol_force /
    slope_lb with slope_lb = 6*pi*mu*a + sum(min(K_N, K_L)*L) a lower bound
    of the force's slope. Every other field is propagated to first order in
    dU with bounds on its derivative along the sampled waveform.
    """
    mu, a = cfg.fluid.mu, cfg.body.a
    body = 6.0 * math.pi * mu * a
    drags = [cfg.effective_drag(spec) for spec in cfg.flagella]
    slope_lb = body + sum(min(d.K_N, d.K_L) * s.L for d, s in zip(drags, cfg.flagella))
    du = settings.tol_u + (settings.tol_force / slope_lb if slope_lb > 0 else 0.0)
    U = abs(result.U_X)
    forces, powers = [], []
    for d, spec in zip(drags, cfg.flagella):
        k_max = max(d.K_N, d.K_L)
        s_max = 2.0 * math.pi * spec.A / spec.lam
        yt_max = 2.0 * math.pi * spec.f * spec.A
        forces.append(k_max * spec.L * math.sqrt(1.0 + s_max ** 2) * du)
        powers.append(2.0 * k_max * spec.L
                      * (U * (1.0 + s_max ** 2) + 2.0 * yt_max * s_max) * du)
    p0 = body * (2.0 * U * du + du ** 2)
    total = result.P1 + result.P2
    rel_p = (powers[0] + powers[1]) / total if total > 0 else 0.0
    eta = result.eta * ((p0 / result.P0 if result.P0 > 0 else 0.0) + rel_p)
    cot = result.CoT * (rel_p + du / U) if U > 0 else 0.0
    re = cfg.fluid.rho * 2.0 * a / mu * du
    return [du, forces[0], forces[1], body * du, powers[0], powers[1], p0,
            eta, cot, re]


def main() -> None:
    bf = worker.import_biflag()
    tracer = spans.Tracer()
    spans.install(tracer)

    def solver_calls(fn, *args):
        tracer.spans.clear()
        result = fn(*args)
        stats = spans.LayerStats()
        stats.add(tracer.spans)
        tracer.spans.clear()
        return result, stats.cf_outer + stats.oracle_outer

    freq = worker.FreqGrid(0)
    cells = []
    for index in range(wl.FREQ_BLOCKS * wl.FREQ_BLOCK):
        job = freq.prepare(index)
        result = freq.run(job)
        if isinstance(result, Exception):
            raise SystemExit(f"freq-grid item {index} raised: {result!r}")
        if job["kind"] == "heatmap":
            flat = [value for row in result.values for value in row]
            cells.append([flat[i] for i in job["cells"]])
        else:
            cells.append([value for i in job["cells"] for value in result.rows[i][1:]])
        tracer.spans.clear()
    ref: dict = {"freq_grid": cells}

    settings = bf.OracleSettings()
    population = []
    for index in range(wl.POP_BLOCKS * wl.POP_BLOCK):
        cfg = wl.build_config(bf, wl.population_item(index))
        entry = {}
        for backend, fn in (("closed", bf.full_solve), ("oracle", bf.oracle_full_solve)):
            result = outcome(fn, cfg, bf=bf)
            entry[backend] = (result if isinstance(result, dict)
                              else wl.solve_values(result))
            if backend == "oracle" and not isinstance(result, dict):
                entry["atol"] = oracle_atol(bf, cfg, result, settings)
        population.append(entry)
        tracer.spans.clear()
    ref["population"] = population

    geom = worker.GeomSearch(0)
    items = []
    for index in range(wl.GEOM_BLOCKS * wl.GEOM_BLOCK):
        (fit, opt), points = solver_calls(geom.run, geom.prepare(index))
        if isinstance(fit, Exception) or isinstance(opt, Exception):
            raise SystemExit(f"geom-search item {index} raised: {fit!r} {opt!r}")
        items.append({"fit": [fit.thrust_scale, fit.max_rel_error, *fit.residuals],
                      "params": opt.params, "value": opt.value, "points": points})
    ref["geom_search"] = items

    workdir = wl.workdir("capture")
    cli = {}
    for kind in wl.CLI_KINDS:
        if kind == "solve-yaml":
            cli[kind] = {"points": 1}
            continue
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code, points = solver_calls(bf.cli.run, wl.cli_argv(kind, workdir))
        if code != 0:
            raise SystemExit(f"{kind} exited {code}")
        files = {}
        for name in wl.CLI_FILES.get(kind, ()):
            with open(os.path.join(workdir, name), encoding="utf-8") as fh:
                text = fh.read()
            files[name] = text if name.endswith(".svg") else wl.parse_csv(text)
        text = stdout.getvalue()
        cli[kind] = {"stdout": json.loads(text) if text else None,
                     "files": files, "points": points}
    ref["cli"] = cli

    # oracle-check: the oracle's implied speed tolerance over its rungs
    base = bf.default_config()
    lam = base.anterior.lam
    du = []
    for beta, _ in bf.cli.ORACLE_CHECK_RUNGS:
        geometry = dict(L=bf.cli.ORACLE_CHECK_LENGTH_WAVELENGTHS * lam, A=beta * lam)
        cfg = replace(base, anterior=replace(base.anterior, **geometry),
                      posterior=replace(base.posterior, **geometry))
        du.append(oracle_atol(bf, cfg, bf.full_solve(cfg), settings)[0])
    closed = [p["U_closed_m_s"] for p in cli["oracle-check"]["stdout"]["points"]]
    ref["cli_oracle_tol"] = {"U": max(du), "rel": max(du) / min(map(abs, closed))}

    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
