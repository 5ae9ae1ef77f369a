"""Time the large corner-power-2d solves, each in a process of its own.

Run from the repository root:

    python3 scripts/large_solves.py                    # B* N = 8 and Q* N = 16
    python3 scripts/large_solves.py bstar-6 qstar-8    # any preset-N pairs

Each case builds its covering with the preset of the benchmark's workload
(``bstar``: B*, r = 2, gamma = 1/2; ``qstar``: Q*, r = 2, gamma = 5/2) and
solves ``corner-power-2d`` on it once, in a fresh Python process with one BLAS
thread. The script prints a Markdown table, one row per case: the cells, the
CPU seconds of covering + solve and the process's peak resident memory. CPU
rather than wall time, because the solve is single-threaded and wall time on a
shared host also counts the stretches in which the CPU was taken away. It only
reports: there is no bound to miss, and it exits 1 only if a case fails to run.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

PRESETS = {"bstar": ("b_star", 0.5), "qstar": ("q_star", 2.5)}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def solve_one(case: str) -> str:
    """Build and solve one case in this process; its table row."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from wsvie import preset_2d, solve_2d
    from wsvie.cli import get_problem
    from wsvie.funclass import derive_class_params

    name, N = case.rsplit("-", 1)
    kind, gamma = PRESETS[name]
    problem = get_problem("corner-power-2d")
    start = time.process_time()
    covering, degree, family = preset_2d(derive_class_params(2, gamma, kind, l=2), int(N))
    solve_2d(problem, covering, degree, family)
    cpu = time.process_time() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KB on Linux
    return f"| {case} | {covering.ncells:,} | {cpu:.2f} | {rss:.0f} |"


def main(argv) -> int:
    if argv[:1] == ["--one"]:
        print(solve_one(argv[1]), flush=True)
        return 0
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    print("| solve | cells | CPU s, covering + solve | peak RSS MB |")
    print("|---|---|---|---|", flush=True)
    failed = 0
    for case in argv or ["bstar-8", "qstar-16"]:
        failed |= subprocess.run([sys.executable, __file__, "--one", case], env=env).returncode
    return int(failed != 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
