"""Benchmark of the wsvie solver: convergence sweeps timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload qstar-2d --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload abel-1d --seed 1 --seconds 5 --trace 1 --smoke

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (rungs) and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. A fuller record (environment stamp, every rung,
counter anchors) goes to ``perfbench/out/``; a traced run also writes its
spans there. ``--smoke`` runs the rungs N = 1, 2 only.

Workloads. Each is a closed-loop, single-process, single-threaded
convergence sweep over a fixed N ladder; BLAS/OpenMP threads are pinned to 1
before numpy is imported, because two BLAS threads made the same solve vary
by a third between repeats.

* ``qstar-2d`` -- ``corner-power-2d`` with the Q* preset (r=2, gamma=2.5):
  boundary-layer covering, m=5 Legendre-closed nodes, N in {2, 4, 8}. The top
  rung has 522 cells and 59,868 (cell, predecessor) pairs, so its cost is
  many small moment calls, a cells^2 history loop and dense-grid evaluation
  over 522 cells. Moment tables, call-count cuts and a vectorised
  ``cell_of`` show here.
* ``bstar-2d`` -- the same problem with the B* preset (r=2, gamma=0.5):
  geometric covering, one global m up to 14, N in {1, ..., 5}. Same code as
  ``qstar-2d`` with a fifth of the moment calls, each about 3x larger in m,
  the largest local LU systems and the most inherited nodes. A change tuned
  for small m that costs large m shows here.
* ``abel-1d`` -- the Abel kernel (t-s)^(-1/2) with exact solution of the
  form t^(1/2), B* geometric mesh with degrees up to 40, N in {8, 16, 32}.
  All cost is large-m quadrature and basis evaluation; there is no covering,
  ``cell_of``, inheritance or causal order, so it is the bypass workload for
  every 2D-only change, and the only one that runs the p < 0 Gauss-Jacobi
  branch.

The seed picks the manufactured exact solution within the workload's
smoothness class (``workloads.member``); it never changes the mesh,
covering or ladder, so work counts do not depend on it.

Why not ``wsvie.cli.run_convergence``: its catalogue-problem path raises
NameError at this commit, and it would hide the seconds spent in set-up
inside its per-row wall time. The benchmark performs the same steps itself:
``preset_*``, ``solve_*``, ``max_node_error``, ``sup_error`` and
``n_functionals``.

End-to-end metrics (``--trace 0``, no wrappers installed). Their times are
reference seconds: CPU seconds of the benchmark process, rescaled by a speed
probe that runs alongside (``speed.py``). CPU time rather than wall time,
because the process is single-threaded and reads no files after its first
import, so the two differ only by the stretches in which the host has taken
the virtual CPU away (steal time); on a shared 2-vCPU host these added up to
a fifth of a sweep's wall time in some runs and to nothing in others. The
probe then divides out how fast the CPU ran while it was ours. The record in
``perfbench/out/`` keeps the wall and CPU times as well.

* ``setup_s``: median over the set-ups of one run (eight before each sweep,
  each block of eight rescaled by the probes that ran during it) of: import
  wsvie, build the problem and class parameters, build every rung's mesh or
  covering with its causal rank.
* ``sweep_s``: everything after set-up, per rung the solve, max_node_error,
  sup_error and n_functionals; the run's sweep time divided by its sweeps.
  Sweep times on a shared machine swing by a quarter within one run, so
  this mean over the run steadies the figure more than a median of two to
  five sweeps does.
* ``solve_top_s``: the top rung's solve call, averaged in the same way.
* ``accuracy_digits``: -log10(eps2) at the top rung.
* ``peak_rss_mb``: peak resident memory of the process.

A rung fails when it raises or misses its eps2 tolerance; the failed and
attempted rung counts are the result's ``failed`` and ``attempted``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # must precede the numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import LAYER_METRICS, Tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import SMOKE_LADDER, WORKLOADS, build_problem  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

E2E_UNITS = {"setup_s": "s", "sweep_s": "s", "solve_top_s": "s",
             "accuracy_digits": "digits", "peak_rss_mb": "MB"}
SETUPS_PER_SWEEP = 8


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# set-up and sweep
# ---------------------------------------------------------------------------

def import_wsvie():
    """Fresh import of the package from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "wsvie" or m.startswith("wsvie.")]:
        del sys.modules[name]
    ws = importlib.import_module("wsvie")
    if not Path(ws.__file__).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported wsvie from {ws.__file__}, not from this checkout")
    return ws


def setup(workload, seed, ladder, probe, tracer=None):
    """(state, work CPU seconds): package, problem and every rung's discretisation."""
    mark = probe.mark()
    ws = import_wsvie()
    if tracer is not None:
        tracer.install(ws)
    problem, params = build_problem(ws, workload, seed)
    rungs = []
    for N in ladder:
        if workload.dim == 1:
            rungs.append((N, ws.preset_1d(params, N)))
        else:
            cov, degree, family = ws.preset_2d(params, N)
            cov.causal_rank()
            rungs.append((N, (cov, degree, family)))
    return (ws, problem, rungs), probe.elapsed(mark)[0]


def work_counts(ws, workload, disc) -> dict:
    """Cells and (cell, predecessor) pairs of one rung: the history trip count."""
    if workload.dim == 1:
        n = disc[0].nsegments
        return {"mesh.cells": n, "mesh.pairs": n * (n - 1) // 2}
    cov = disc[0]
    return {"mesh.cells": cov.ncells, "mesh.pairs": int(ws.mesh.shadow_matrix(cov).sum())}


def sweep(state, workload, probe, tracer=None) -> dict:
    """One pass over the ladder; every rung is checked against its tolerance.

    Times are kept as wall, work CPU and reference seconds (``speed``).
    """
    ws, problem, rungs = state
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    rows = []
    t_start, m_start = time.perf_counter(), probe.mark()
    for N, disc in rungs:
        row = {"N": N, "tol": workload.tolerance(N)}
        before = dict(tracer.counts) if tracer is not None else None
        try:
            with span("bench.rung"):
                t0, m0 = time.perf_counter(), probe.mark()
                if workload.dim == 1:
                    sol = ws.solve_1d(problem, *disc)
                else:
                    sol = ws.solve_2d(problem, *disc)
                row["solve_wall_s"] = time.perf_counter() - t0
                row["solve_cpu_s"], row["solve_ref_s"] = probe.elapsed(m0)
                row["eps1"] = ws.max_node_error(sol, problem.exact,
                                                owned_only=workload.dim == 2)
                row["eps2"] = ws.sup_error(sol, problem.exact, workload.samples)
                row["n"] = ws.n_functionals(sol)
            row["ok"] = math.isfinite(row["eps2"]) and row["eps2"] <= row["tol"]
        except Exception as exc:  # a failing rung is counted; the sweep goes on
            traceback.print_exc(file=sys.stderr)
            row["error"] = f"{type(exc).__name__}: {exc}"
            row["ok"] = False
        if tracer is not None:
            for key, value in work_counts(ws, workload, disc).items():
                tracer.add(key, value)
            row["counts"] = {k: v - before.get(k, 0) for k, v in tracer.counts.items()
                             if v != before.get(k, 0)}
        rows.append(row)
    wall = time.perf_counter() - t_start
    cpu, ref = probe.elapsed(m_start)
    return {"wall_s": wall, "cpu_s": cpu, "ref_s": ref, "rows": rows}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def timed_run(workload, seed, ladder, seconds) -> dict:
    """Untraced: cycles of set-ups and a sweep for about ``seconds``.

    A further cycle starts while at least half of it still fits, so a run
    measures ``seconds`` on average and at most half a cycle more. Set-ups
    are spread over the run, like the sweeps, so that both figures sample
    the same stretch of machine time.
    """
    setup_cpu, setup_ref, sweeps = [], [], []
    t_start = time.perf_counter()
    with SpeedProbe() as probe:
        while True:
            t_cycle = time.perf_counter()
            _, first_probe = probe.mark()
            block = []
            for _ in range(SETUPS_PER_SWEEP):
                state, dt = setup(workload, seed, ladder, probe)
                block.append(dt)
            scale = probe.scale(first_probe)  # one set-up is too short to probe
            setup_cpu += block
            setup_ref += [dt * scale for dt in block]
            sweeps.append(sweep(state, workload, probe))
            now = time.perf_counter()
            if now - t_start + (now - t_cycle) / 2 > seconds:
                break
    top = [s["rows"][-1] for s in sweeps if s["rows"][-1]["ok"]]
    metrics = {
        "setup_s": statistics.median(setup_ref),
        "sweep_s": statistics.fmean(s["ref_s"] for s in sweeps),
        "solve_top_s": statistics.fmean(r["solve_ref_s"] for r in top) if top else 0.0,
        "accuracy_digits": (-math.log10(statistics.median(r["eps2"] for r in top))
                            if top else 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {"metrics": metrics, "units": E2E_UNITS, "setup_cpu_s": setup_cpu,
            "probe_scale": probe.scale(), "probes": len(probe.cpu), "sweeps": sweeps}


def traced_run(workload, seed, ladder) -> dict:
    """One untraced sweep, then one traced set-up and sweep; per-layer metrics.

    The speed probe is not started, so no probe runs inside a span.
    """
    probe = SpeedProbe()
    state, _ = setup(workload, seed, ladder, probe)
    plain = sweep(state, workload, probe)
    tracer = Tracer()
    try:
        with tracer.span("bench.setup"):
            state, _ = setup(workload, seed, ladder, probe, tracer)
        with tracer.span("bench.sweep"):
            traced = sweep(state, workload, probe, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = traced["cpu_s"] - plain["cpu_s"]
    top = traced["rows"][-1].get("counts", {})
    anchors = {}
    if tuple(ladder) == workload.ladder:
        anchors = {k: {"anchor": v, "measured": top.get(k), "match": top.get(k) == v}
                   for k, v in workload.anchors.items()}
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload.name}-spans.json")
    return {"metrics": metrics, "units": {k: v[0] for k, v in LAYER_METRICS.items()},
            "sweeps": [plain, traced], "unwrapped": tracer.unwrapped, "anchors": anchors}


# ---------------------------------------------------------------------------
# environment stamp, output
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    sources = sorted((ROOT / "src" / "wsvie").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": git_commit(),
        "source_sha256": digest,
        "machine": platform.machine(),
    }


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit that BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run the rungs N = 1, 2 only")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    ladder = SMOKE_LADDER if args.smoke else workload.ladder
    try:
        if not (ROOT / "src" / "wsvie" / "__init__.py").is_file():
            raise BenchError(f"no wsvie sources under {ROOT / 'src'}")
        declared = declared_metrics(args.trace)
        sys.path.insert(0, str(ROOT / "src"))
        env = environment()
        run = (traced_run(workload, args.seed, ladder) if args.trace
               else timed_run(workload, args.seed, ladder, args.seconds))
    except (BenchError, OSError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    emitted = {k: run["units"][k] for k in run["metrics"]}
    if emitted != declared:
        print(f"perfbench: emitted metrics {emitted} differ from BENCHMARK.json "
              f"{declared}", file=sys.stderr)
        return 2

    sweeps = run.pop("sweeps")
    rows = [r for s in sweeps for r in s["rows"]]
    failed = sum(not r["ok"] for r in rows)
    for r in sweeps[-1]["rows"]:
        print(f"{workload.name} N={r['N']:<3d} solve {r.get('solve_wall_s', float('nan')):8.3f} s"
              f"  eps2 {r.get('eps2', float('nan')):.3e} (tol {r['tol']:.1e})"
              f"  {'ok' if r['ok'] else 'FAILED ' + r.get('error', 'tolerance')}")
    for name, a in run.get("anchors", {}).items():
        if not a["match"]:
            print(f"{name} at the top rung is {a['measured']}; it was {a['anchor']} "
                  f"at commit ae39632", file=sys.stderr)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "ladder": list(ladder), "env": env,
              "failed_frac": failed / len(rows),
              "sweeps": [{k: v for k, v in s.items() if k != "rows"} for s in sweeps],
              "rows": sweeps[-1]["rows"],
              "failed_rows": [r for s in sweeps[:-1] for r in s["rows"] if not r["ok"]],
              **run}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float))
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": emitted[k]}
                    for k, v in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
