"""Kept only for the benchmark's tracer (perfbench/tracing.py), which
patches trace_norm and epsilon_norm on this module by name. No library
module imports it, so those patches reach no run; the XOR games live in
`states` and their report is norms.hiding_ratio.
"""

from .linalg import trace_norm  # noqa: F401
from .norms import epsilon_norm  # noqa: F401
