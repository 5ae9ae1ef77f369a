"""Command-line harness: config-driven experiments emitting CSV/JSON tables.

Subcommands
-----------
solve1d / solve2d   one solve per N; error metrics against the exact solution
convergence         alias of the above, dispatching on the problem dimension
widths              covering-count and bump-scaling diagnostics
lebesgue            measured Lebesgue constants for a node family
oracle-check        solver vs product-integration oracle deviation

Every subcommand takes --config PATH plus optional --out PATH and --format
{csv,json}. Exit codes: 0 full success, 1 config error, 2 any row failure.

Config schema (JSON), convergence/solve commands::

    {
      "problem": "corner-power-2d" | "corner-power-1d" | "abel-1d"
                 | "cos-rhs-1d" | "poly-k0-1d" | "poly-k0-2d",
      "class_params": {"r": 2, "gamma": 0.5, "kind": "b_star", "bound": 1.0},
      "N": [1, 2, 3],
      "samples_per_axis": 201    # dense grid for eps2, at least 50
    }

Integer fields must hold integers in range, or the command exits 1. Each
moment row's rule is fixed by its node count, so the removed keys
``singular_rule`` and ``quad_n`` are accepted only as "legendre" and null.

widths:    {"mode": "counts", "style": "boundary", "l": 2, "v": 3.0, "N": [8, 16, 32]}
           {"mode": "bumps", "class_params": {...}, "l": 2, "N": [4, 8, 16]}
lebesgue:  {"family": "chebyshev1_closed", "m": [8, 16, 32, 64]}
oracle-check: {"problem": "cos-rhs-1d", "class_params": {...}, "N": 16, "uniform_n": 200}
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .funclass import derive_class_params
from .interp import build_nodes, lebesgue_constant
from .quad import power_moment
from .solver import (ORACLE_MAX_N, KernelSpec, VieProblem, oracle_solve, preset_1d,
                     preset_2d, residual, solve_1d, solve_2d)
from .spline import MIN_SAMPLES, max_node_error, n_functionals, sup_error
from .widths import covering_count, fit_loglog_slope, layer_cube_bump, bump_sup


class ConfigError(ValueError):
    """Raised for malformed configuration files; maps to exit code 1."""


# ---------------------------------------------------------------------------
# built-in problem catalogue
# ---------------------------------------------------------------------------

def _power_problem(l: int, p: float, q: float) -> VieProblem:
    # exact solution (t_1 ... t_l)^q; the kernel prod_i (t_i - tau_i)^p maps it to
    # power_moment(p, q, 1)^l (t_1 ... t_l)^(q + p + 1), which gives the rhs, so
    # the stated solution solves the equation identically
    c = power_moment(p, q, 1.0) ** l

    def exact(*t):
        return math.prod(t) ** q

    def rhs(*t):
        return exact(*t) - c * math.prod(t) ** (q + p + 1)

    return VieProblem(l=l, T=1.0, kernel=KernelSpec(exponents=(p,) * l), rhs=rhs, exact=exact)


def _cos_rhs_1d() -> VieProblem:
    return VieProblem(l=1, T=1.0, kernel=KernelSpec(exponents=(2.5,)),
                      rhs=np.cos, exact=None)


def _poly_k0_1d() -> VieProblem:
    def rhs(t):
        return 1.0 + 0.5 * t

    return VieProblem(l=1, T=1.0, kernel=None, rhs=rhs, exact=rhs)


def _poly_k0_2d() -> VieProblem:
    def rhs(t1, t2):
        return 1.0 + t1 * t2 + 0.25 * (t1 ** 2 - t2 ** 2)

    return VieProblem(l=2, T=1.0, kernel=None, rhs=rhs, exact=rhs)


PROBLEMS = {
    "corner-power-2d": partial(_power_problem, 2, 2.5, 2.5),
    "corner-power-1d": partial(_power_problem, 1, 2.5, 2.5),
    "abel-1d": partial(_power_problem, 1, -0.5, 0.5),   # the Abel kernel (t - tau)^(-1/2)
    "cos-rhs-1d": _cos_rhs_1d,
    "poly-k0-1d": _poly_k0_1d,
    "poly-k0-2d": _poly_k0_2d,
}

# named expressions usable as rhs/exact selectors in inline problem configs
EXPRESSIONS = {
    "zero": lambda *cs: 0.0 * sum(cs),
    "one": lambda *cs: 1.0 + 0.0 * sum(cs),
    "cos-sum": lambda *cs: np.cos(sum(cs)),
    "affine-sum": lambda *cs: 1.0 + 0.5 * sum(cs),
}


def get_problem(name: str) -> VieProblem:
    try:
        return PROBLEMS[name]()
    except KeyError:
        raise ConfigError(f"unknown problem {name!r}; known: {sorted(PROBLEMS)}") from None


def _resolve_function(selector, params, what: str):
    """rhs/exact selector: an expression id or {"catalogue": index}."""
    if selector is None:
        return None
    if isinstance(selector, str):
        try:
            return EXPRESSIONS[selector]
        except KeyError:
            raise ConfigError(f"config: unknown {what} expression {selector!r}; "
                              f"known: {sorted(EXPRESSIONS)}") from None
    if isinstance(selector, dict) and "catalogue" in selector:
        from .funclass import sample_member

        index = _integer(selector["catalogue"], f"{what} field 'catalogue'", 0)
        try:
            return sample_member(params, index)
        except ValueError as exc:
            raise ConfigError(f"config: {what}: {exc}") from exc
    raise ConfigError(f"config: {what} must be an expression id or {{'catalogue': k}}")


def _inline_problem(defn: dict, params) -> VieProblem:
    for key in ("l", "T"):
        if key not in defn:
            raise ConfigError(f"config: inline problem missing field {key!r}")
    kspec = defn.get("kernel")
    if kspec is not None and not (isinstance(kspec, dict) and "exponents" in kspec):
        raise ConfigError(f"config: inline kernel must be an object with field 'exponents', "
                          f"got {kspec!r}")
    rhs = _resolve_function(defn.get("rhs"), params, "rhs")
    if rhs is None:
        raise ConfigError("config: inline problem missing field 'rhs'")
    exact = _resolve_function(defn.get("exact"), params, "exact")
    try:
        kernel = None if kspec is None else KernelSpec(
            exponents=tuple(float(p) for p in kspec["exponents"]))
        return VieProblem(l=int(defn["l"]), T=float(defn["T"]), kernel=kernel,
                          rhs=rhs, exact=exact)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config: inline problem invalid: {exc}") from exc


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class ReportRow:
    N: int
    n: int | None = None
    eps1: float | None = None
    eps2: float | None = None
    eoc: float | None = None
    wall_time_ms: int = 0
    error: str | None = None


@dataclass
class ConvergenceReport:
    metadata: dict
    rows: list = field(default_factory=list)


CSV_HEADER = "N,n,eps1,eps2,eoc,wall_time_ms"


def _fmt(x) -> str:
    return "" if x is None else f"{x:.5e}"


def emit_report(report: ConvergenceReport, format: str = "csv") -> str:
    """Render a report as CSV (fixed columns) or JSON (metadata + rows)."""
    if format == "csv":
        lines = [CSV_HEADER]
        for r in report.rows:
            lines.append(f"{r.N},{'' if r.n is None else r.n},{_fmt(r.eps1)},"
                         f"{_fmt(r.eps2)},{_fmt(r.eoc)},{r.wall_time_ms}")
        return "\n".join(lines) + "\n"
    if format == "json":
        payload = {
            "metadata": report.metadata,
            "rows": [{"N": r.N, "n": r.n, "eps1": r.eps1, "eps2": r.eps2,
                      "eoc": r.eoc, "wall_time_ms": r.wall_time_ms, "error": r.error}
                     for r in report.rows],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    raise ConfigError(f"unknown format {format!r}; expected csv or json")


def parse_report_json(text: str) -> ConvergenceReport:
    data = json.loads(text)
    rows = [ReportRow(N=r["N"], n=r["n"], eps1=r["eps1"], eps2=r["eps2"],
                      eoc=r["eoc"], wall_time_ms=r["wall_time_ms"],
                      error=r.get("error")) for r in data["rows"]]
    return ConvergenceReport(metadata=data["metadata"], rows=rows)


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------

def _require(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"config: missing field {key!r}")
    return config[key]


def _integer(value, what: str, lo: int, hi: int | None = None) -> int:
    """``value``, a whole number and no bool or string, as an int in [lo, hi];
    a ConfigError names ``what`` otherwise."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value or isinstance(value, bool):
        raise ConfigError(f"config: {what} must be an integer, got {value!r}")
    if n < lo or (hi is not None and n > hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigError(f"config: {what} must be {bound}, got {n}")
    return n


def _integer_list(config: dict, key: str, lo: int) -> list:
    """Field ``key``: a non-empty list of integers >= lo."""
    values = _require(config, key)
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError(f"config: field {key!r} must be a non-empty list")
    return [_integer(v, f"field {key!r}", lo) for v in values]


def _class_from_config(config: dict, l: int, T=None):
    cp = _require(config, "class_params")
    for key in ("r", "gamma", "kind"):
        if key not in cp:
            raise ConfigError(f"config: class_params missing field {key!r}")
    if T is not None and "T" in cp and cp["T"] != T:   # the class lives on the problem's [0, T]
        raise ConfigError(f"config: class_params field 'T' must equal the problem's T = {T!r}")
    r = _integer(cp["r"], "class_params field 'r'", 1)
    try:
        return derive_class_params(r, float(cp["gamma"]), str(cp["kind"]),
                                   l=l, T=float(cp.get("T", 1.0) if T is None else T),
                                   bound=float(cp.get("bound", 1.0)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config: class_params invalid: {exc}") from exc


def _problem_and_params(config: dict):
    """Resolve the problem field (catalogue name or inline dict) plus class params."""
    if config.get("singular_rule", "legendre") != "legendre":
        raise ConfigError("config: 'singular_rule' is no longer an option (the moment "
                          "rules are fixed); old configs may keep it as 'legendre'")
    if config.get("quad_n") is not None:
        raise ConfigError("config: 'quad_n' is no longer an option (each moment row takes "
                          "max(m + 4, 9) Gauss points, at most 64, m the node count of its "
                          "interval); old configs may keep it as null")
    defn = _require(config, "problem")
    if isinstance(defn, dict):
        l = _integer(defn.get("l"), "inline problem field 'l'", 1, 2)
        params = _class_from_config(config, l, defn.get("T", 1.0))
        problem, problem_id = _inline_problem(defn, params), "inline"
    else:
        problem, problem_id = get_problem(str(defn)), str(defn)
        params = _class_from_config(config, problem.l, problem.T)
    if problem.l == 2 and params.kind == "b_double_star":   # see preset_2d
        raise ConfigError("config: kind 'b_double_star' has no covering construction in 2D")
    return problem, params, problem_id


def _preset_solve(problem: VieProblem, params, N: int):
    """Solve ``problem`` on the preset mesh or covering of its dimension at level N."""
    preset, solve = (preset_1d, solve_1d) if problem.l == 1 else (preset_2d, solve_2d)
    return solve(problem, *preset(params, N))


def run_convergence(config: dict) -> ConvergenceReport:
    """One report row per N; failures are recorded per row, not raised.

    With an exact solution, eps1 is the max error over the solver's own
    collocation nodes and eps2 the dense-grid sup error. Without one, the
    equation residual at those grids is reported instead (noted in metadata).
    """
    problem, params, problem_id = _problem_and_params(config)
    n_list = _integer_list(config, "N", 1)
    samples = _integer(config.get("samples_per_axis", 201), "field 'samples_per_axis'",
                       MIN_SAMPLES)
    metric = "error" if problem.exact is not None else "residual"
    report = ConvergenceReport(metadata={
        "problem": problem_id,
        "preset": params.kind,
        "class_params": {"r": params.r, "gamma": params.gamma, "kind": params.kind,
                         "s": params.s, "grading_exponent": params.grading_exponent,
                         "bound": params.bound_constant},
        "samples_per_axis": samples,
        "metric": metric,
        "eps1_grid": "solver collocation nodes",
        "deterministic": True,
    })
    prev = None
    for N in n_list:
        t0 = time.perf_counter()
        row = ReportRow(N=N)
        try:
            sol = _preset_solve(problem, params, N)
            row.n = n_functionals(sol)
            if problem.exact is not None:
                row.eps1 = max_node_error(sol, problem.exact, owned_only=problem.l == 2)
                row.eps2 = sup_error(sol, problem.exact, samples)
            else:
                if problem.l == 1:
                    nodes = np.unique(sol.node_points())
                    row.eps1 = residual(problem, sol, nodes)
                    row.eps2 = residual(problem, sol, np.linspace(0, problem.T, samples))
                else:
                    ax = np.linspace(0, problem.T, min(samples, 41))
                    row.eps1 = row.eps2 = residual(problem, sol, (ax, ax))
            if prev is not None and row.eps2 and prev[1]:
                row.eoc = float(np.log(prev[1] / row.eps2) / np.log(row.N / prev[0]))
            prev = (row.N, row.eps2)
        except Exception as exc:  # row failure must not abort the sweep
            row.error = f"{type(exc).__name__}: {exc}"
            prev = None
        row.wall_time_ms = int(round((time.perf_counter() - t0) * 1000))
        report.rows.append(row)
    return report


def run_widths(config: dict) -> ConvergenceReport:
    mode = str(config.get("mode", "counts"))
    n_list = _integer_list(config, "N", 1)
    report = ConvergenceReport(metadata={"mode": mode, "deterministic": True})
    if mode == "counts":
        style = str(config.get("style", "boundary"))
        if style not in ("boundary", "corner", "geometric"):
            raise ConfigError(f"config: unknown covering style {style!r}; "
                              "known: boundary, corner, geometric")
        l = _integer(config.get("l", 2), "field 'l'", 2)
        try:
            v = float(config.get("v", 2.0))
        except (TypeError, ValueError):
            raise ConfigError(f"config: field 'v' must be a number, got {config['v']!r}") from None
        if not v >= 1:
            raise ConfigError(f"config: field 'v' must be >= 1, got {v}")
        counts = []
        for N in n_list:
            t0 = time.perf_counter()
            c = covering_count(N, l, v, style)
            counts.append(c)
            report.rows.append(ReportRow(N=N, n=c, eps1=float(c),
                                         wall_time_ms=int(round((time.perf_counter() - t0) * 1000))))
        report.metadata.update(style=style, l=l, v=v)
        if len(counts) >= 2:
            report.metadata["loglog_slope"] = fit_loglog_slope(
                [float(N) for N in n_list], [float(c) for c in counts],
                drop_edges=len(counts) > 3)
        return report
    if mode == "bumps":
        l = _integer(config.get("l", 2), "field 'l'", 1)
        params = _class_from_config(config, l)
        for N in n_list:
            t0 = time.perf_counter()
            sups = [bump_sup(layer_cube_bump(params, N, k, l)) for k in range(N)]
            scaled = [s * N ** params.s for s in sups]
            report.rows.append(ReportRow(N=N, n=len(sups), eps1=min(scaled),
                                         eps2=max(scaled),
                                         wall_time_ms=int(round((time.perf_counter() - t0) * 1000))))
        report.metadata.update(l=l, quantity="bump_sup * N^s (min/max over layers)")
        return report
    raise ConfigError(f"unknown widths mode {mode!r}")


def run_lebesgue(config: dict) -> ConvergenceReport:
    family = str(_require(config, "family"))
    m_list = _integer_list(config, "m", 1)
    try:
        nodesets = [build_nodes((-1.0, 1.0), family, m) for m in m_list]
    except ValueError as exc:   # an unknown family, or too few nodes for it
        raise ConfigError(f"config: {exc}") from exc
    report = ConvergenceReport(metadata={"family": family, "deterministic": True})
    for ns in nodesets:
        t0 = time.perf_counter()
        lam = lebesgue_constant(ns)
        report.rows.append(ReportRow(N=ns.m, n=ns.m, eps1=lam,
                                     wall_time_ms=int(round((time.perf_counter() - t0) * 1000))))
    return report


def run_oracle_check(config: dict) -> ConvergenceReport:
    problem, params, problem_id = _problem_and_params(config)
    N = _integer(_require(config, "N"), "field 'N'", 1)
    uniform_n = _integer(_require(config, "uniform_n"), "field 'uniform_n'", 1,
                         ORACLE_MAX_N[problem.l])
    report = ConvergenceReport(metadata={"problem": problem_id,
                                         "N": N, "uniform_n": uniform_n,
                                         "deterministic": True})
    t0 = time.perf_counter()
    oracle = oracle_solve(problem, uniform_n)
    sol = _preset_solve(problem, params, N)
    dev = float(np.max(np.abs(sol.eval_grid(oracle.axes) - oracle.values)))
    report.rows.append(ReportRow(N=N, n=n_functionals(sol), eps1=dev, eps2=dev,
                                 wall_time_ms=int(round((time.perf_counter() - t0) * 1000))))
    return report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "solve1d": run_convergence,
    "solve2d": run_convergence,
    "convergence": run_convergence,
    "widths": run_widths,
    "lebesgue": run_lebesgue,
    "oracle-check": run_oracle_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="wsvie",
                                     description="graded-mesh collocation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", default="csv", choices=("csv", "json"))
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            try:
                config = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config: invalid JSON at line {exc.lineno}, "
                                  f"column {exc.colno}: {exc.msg}") from exc
        report = _COMMANDS[args.command](config)
        text = emit_report(report, args.format)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if any(r.error for r in report.rows):
        for r in report.rows:
            if r.error:
                print(f"row N={r.N} failed: {r.error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
