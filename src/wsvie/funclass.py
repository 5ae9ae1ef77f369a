"""Smoothness-class parameters and representative member functions.

A function class on [0, T]^l is described by (r, gamma, kind): derivatives up
to order r are uniformly bounded, while orders r < |v| <= s may blow up like a
negative power of the distance to the singular part of the boundary. The
derived quantities are

* ``s``     -- top controlled derivative order: r + gamma for integer gamma,
  r + floor(gamma) + 1 otherwise;
* ``zeta``  -- exponent shift: 0 for integer gamma, 1 - mu otherwise, where
  mu = gamma - floor(gamma);
* ``grading_exponent`` -- s / (s - gamma) for integer gamma and
  s / (s - floor(gamma) - 1) otherwise; drives mesh grading and coverings.

Class membership of the catalogue fixtures is guaranteed by construction and
can be smoke-tested with the finite-difference helper ``fd_derivative``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KINDS = ("q_star", "q_double_star", "b_star", "b_double_star")

_B_KINDS = ("b_star", "b_double_star")


@dataclass(frozen=True)
class ClassParams:
    """Parameters of a smoothness class plus all derived constants."""

    r: int
    gamma: float
    kind: str
    l: int
    T: float
    bound_constant: float
    s: int
    zeta: float
    mu: float | None
    grading_exponent: float


def _is_integer(x: float) -> bool:
    return float(x).is_integer()


def derive_class_params(r: int, gamma: float, kind: str, l: int = 1,
                        T: float = 1.0, bound: float = 1.0) -> ClassParams:
    """Derive all class constants from (r, gamma, kind).

    Raises
    ------
    ValueError
        For gamma or bound outside (0, inf), B-kinds with gamma > 1 or
        r < 1, unknown kinds, or r = 0 (the grading exponent is undefined
        there).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be > 0 and finite, got {gamma}")
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if not 0 < T < math.inf:
        raise ValueError(f"T must be > 0 and finite, got {T}")
    if not 0 < bound < math.inf:
        raise ValueError(f"bound must be > 0 and finite, got {bound}")
    if kind in _B_KINDS:
        if gamma > 1:
            raise ValueError(f"B-kinds require gamma <= 1, got {gamma}")
        if r < 1:
            raise ValueError(f"B-kinds require r >= 1, got {r}")
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if r == 0:
        # s/(s - gamma) and s/(s - floor(gamma) - 1) both reduce to s/0 at r = 0
        raise ValueError("r = 0 leaves the grading exponent undefined; use r >= 1")

    if _is_integer(gamma):
        s = r + int(gamma)
        zeta = 0.0
        mu = None
        q = s / (s - gamma)
    else:
        s = r + int(math.floor(gamma)) + 1
        mu = gamma - math.floor(gamma)
        zeta = 1.0 - mu
        q = s / (s - math.floor(gamma) - 1.0)
    return ClassParams(r=r, gamma=float(gamma), kind=kind, l=l, T=float(T),
                       bound_constant=float(bound), s=s, zeta=zeta, mu=mu,
                       grading_exponent=q)


def _power_member(params: ClassParams):
    e = params.r + params.gamma

    def f(*coords):
        prod = np.asarray(coords[0], dtype=float)
        for c in coords[1:]:
            prod = prod * np.asarray(c, dtype=float)
        return prod ** e

    return f


def _polynomial_member(params: ClassParams):
    r, T, l = params.r, params.T, params.l
    norm = 2.0 ** (r * l)

    def f(*coords):
        out = np.ones_like(np.asarray(coords[0], dtype=float))
        for c in coords:
            out = out * (1.0 + np.asarray(c, dtype=float) / T) ** r
        return out / norm

    return f


def _sin_modulated_member(params: ClassParams):
    power = _power_member(params)

    def f(*coords):
        out = power(*coords)
        for c in coords:
            out = out * (1.0 + 0.5 * np.sin(np.asarray(c, dtype=float)))
        return out

    return f


# index -> (builder, description); membership holds for a suitable bound constant
_CATALOGUE = {
    0: (_power_member,
        "(t_1...t_l)^(r+gamma); member of all four kinds for its (r, gamma)"),
    1: (_polynomial_member,
        "prod (1 + t_i/T)^r / 2^(rl); polynomial of per-axis degree r, member of all kinds"),
    2: (_sin_modulated_member,
        "(t_1...t_l)^(r+gamma) * prod (1 + sin(t_i)/2); sin-modulated corner singularity"),
}


def catalogue() -> dict[int, str]:
    """Descriptions of the available member-function fixtures."""
    return {idx: desc for idx, (_, desc) in _CATALOGUE.items()}


def sample_member(params: ClassParams, index: int):
    """Return catalogue member ``index`` as a vectorized function of l coordinates."""
    try:
        builder, _ = _CATALOGUE[index]
    except KeyError:
        raise ValueError(f"unknown catalogue index {index}; known: {sorted(_CATALOGUE)}") from None
    return builder(params)


def fd_derivative(f, t: float, k: int, h: float) -> float:
    """Central finite-difference estimate of the k-th derivative of f at t."""
    if k < 1:
        raise ValueError("k must be >= 1")
    acc = 0.0
    for j in range(k + 1):
        acc += (-1.0) ** j * math.comb(k, j) * float(f(t + (k / 2.0 - j) * h))
    return acc / h ** k
