"""Graded-mesh spline collocation for weakly singular Volterra integral equations.

The package builds power-graded and geometric meshes (1D) and layered box
coverings of [0, T]^l, interpolates on Legendre/Chebyshev node systems, and
solves one- and two-dimensional second-kind Volterra equations with product
kernels by step-by-step collocation. Diagnostics quantify the underlying
approximation theory: convergence orders, Lebesgue constants, covering-count
asymptotics and bump-function scaling.
"""

from .funclass import ClassParams, catalogue, derive_class_params, sample_member
from .interp import NodeSet, build_nodes, chebyshev1_roots, lebesgue_constant, legendre_roots
from .mesh import (Covering, GradedMesh, boundary_layer_covering, causal_order,
                   corner_layer_covering, geometric_covering, geometric_mesh,
                   power_graded_mesh, verify_causal_order)
from .quad import QuadRule, gauss_jacobi, gauss_legendre, integrate_box, power_moment
from .solver import (KernelSpec, OracleSolution, VieProblem, collocation_residual,
                     oracle_solve, preset_1d, preset_2d, residual, solve_1d, solve_2d)
from .spline import (LocalSpline, TensorSpline, build_tensor_spline, max_node_error,
                     n_functionals, sup_error)


def __getattr__(name):   # ``widths``, which no solve uses, is imported on first use
    if name != "widths" and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    widths = import_module(".widths", __name__)
    return widths if name == "widths" else getattr(widths, name)


__version__ = "0.1.0"

__all__ = [
    "ClassParams", "derive_class_params", "sample_member", "catalogue",
    "NodeSet", "legendre_roots", "chebyshev1_roots", "build_nodes", "lebesgue_constant",
    "GradedMesh", "Covering", "power_graded_mesh", "geometric_mesh",
    "boundary_layer_covering", "corner_layer_covering", "geometric_covering",
    "causal_order", "verify_causal_order",
    "QuadRule", "gauss_legendre", "gauss_jacobi", "integrate_box", "power_moment",
    "LocalSpline", "TensorSpline", "build_tensor_spline",
    "sup_error", "max_node_error", "n_functionals",
    "KernelSpec", "VieProblem", "solve_1d", "solve_2d", "oracle_solve",
    "residual", "collocation_residual", "preset_1d", "preset_2d", "OracleSolution",
    "BumpSpec", "bump_eval", "bump_sup", "layer_cube_bump", "bump_membership_scale",
    "covering_count", "width_upper_estimate", "fit_loglog_slope",
    "__version__",
]
