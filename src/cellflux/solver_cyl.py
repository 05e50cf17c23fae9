"""Aliases of solver1d functions under the five names that
perfbench/child.py wraps.  solver1d.step and solver1d.compute_a serve both
geometries, and nothing in the package calls these names.
"""

from .solver1d import _f_at_trace as _f_np  # noqa: F401
from .solver1d import adapt_dt as adapt_dt_cyl  # noqa: F401
from .solver1d import compute_a as compute_a_cyl  # noqa: F401
from .solver1d import solve_banded  # noqa: F401
from .solver1d import step as step_cyl  # noqa: F401
