"""The three convergence-sweep workloads of the benchmark.

Each workload fixes a problem family, a class preset and an N ladder. The
seed picks one member of the family: it scales the singular part of the
manufactured exact solution and adds a polynomial that every spline space of
the ladder contains. It never changes the mesh, the covering or the ladder,
so every work count is the same for every seed.

The eps2 tolerances are 4x the dense-grid errors that the seed member
(c = 1, d = 0, the catalogue problem) reached at commit ae39632. A seeded
member's singular part is at most as large, so it has at most that error up
to rounding.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

EPS2_MARGIN = 4.0
SMOKE_LADDER = (1, 2)


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    kind: str          # smoothness-class preset
    r: int
    gamma: float
    ladder: tuple
    samples: int       # sup_error samples per axis
    eps2_recorded: dict  # N -> eps2 of the seed member at commit ae39632
    anchors: dict        # top-rung counter -> value at commit ae39632

    def tolerance(self, N: int) -> float:
        return EPS2_MARGIN * self.eps2_recorded[N]


WORKLOADS = {
    w.name: w for w in (
        Workload("qstar-2d", 2, "q_star", 2, 2.5, (2, 4, 8), 201,
                 {1: 6.463e-04, 2: 1.068e-04, 4: 5.253e-06, 8: 2.334e-07},
                 {"mesh.cells": 522, "mesh.pairs": 59868, "quad.moment_calls": 61760}),
        Workload("bstar-2d", 2, "b_star", 2, 0.5, (1, 2, 3, 4, 5), 201,
                 {1: 4.375e-03, 2: 8.739e-06, 3: 1.549e-07, 4: 4.516e-09, 5: 3.919e-10},
                 {"mesh.cells": 235, "mesh.pairs": 11427, "quad.moment_calls": 12479}),
        Workload("abel-1d", 1, "b_star", 2, 0.5, (8, 16, 32), 2001,
                 {1: 9.364e+00, 2: 1.709e+00, 8: 1.588e-02, 16: 1.442e-06, 32: 8.193e-14},
                 {"mesh.cells": 33, "quad.moment_calls": 561}),
    )
}


def member(seed: int) -> tuple[float, float]:
    """(c, d): scale of the singular part and weight of the polynomial part."""
    rng = random.Random(seed)
    return 0.75 + 0.25 * rng.random(), rng.uniform(-0.5, 0.5)


def build_problem(ws, workload: Workload, seed: int):
    """Manufactured problem of the workload's family for this seed.

    2D: kernel (t1-s1)^2.5 (t2-s2)^2.5, exact c (t1 t2)^2.5 + d t1 t2^2;
    c = 1, d = 0 is the catalogue problem ``corner-power-2d``.
    1D: Abel kernel (t-s)^(-1/2), exact c t^(1/2) + d t.
    The right sides come from ``power_moment``: the kernel applied to
    t^q is power_moment(p, q, 1) t^(q+p+1) per axis.
    """
    c, d = member(seed)
    pm = ws.power_moment
    if workload.dim == 2:
        c0 = pm(2.5, 2.5, 1.0)
        c1, c2 = pm(2.5, 1.0, 1.0), pm(2.5, 2.0, 1.0)

        def exact(t1, t2):
            return c * (t1 * t2) ** 2.5 + d * t1 * t2 ** 2

        def rhs(t1, t2):
            return (exact(t1, t2) - c * c0 * c0 * (t1 * t2) ** 6
                    - d * c1 * c2 * t1 ** 4.5 * t2 ** 5.5)

        kernel = ws.KernelSpec(exponents=(2.5, 2.5))
    else:
        h0, h1 = pm(-0.5, 0.5, 1.0), pm(-0.5, 1.0, 1.0)

        def exact(t):
            return c * t ** 0.5 + d * t

        def rhs(t):
            return exact(t) - c * h0 * t - d * h1 * t ** 1.5

        kernel = ws.KernelSpec(exponents=(-0.5,))
    problem = ws.VieProblem(l=workload.dim, T=1.0, kernel=kernel, rhs=rhs, exact=exact)
    params = ws.derive_class_params(workload.r, workload.gamma, workload.kind,
                                    l=workload.dim)
    return problem, params
