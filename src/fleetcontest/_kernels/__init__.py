"""Hot numeric kernels.

BACKEND names the implementation. There is one, in numpy; the constant
stays because benchmark run records report it.
"""

from ._grid_py import two_region_scan

BACKEND = "python"

__all__ = ["BACKEND", "two_region_scan"]
