"""Experiment runners: one module per paper table/figure.

Each module exposes ``run(fast=False)`` returning a structured result
and ``render(result)`` producing the paper-style text table; running a
module as a script prints the rendered table.  The benchmark harness in
``benchmarks/`` wraps these with pytest-benchmark and asserts the
expected qualitative shapes.

``fast=True`` shrinks simulated scales (fewer children / smaller
vectors) for CI-speed smoke runs; the shapes the paper reports must
hold in both modes.
"""

from repro import _lazy_exports

#: Each runner module, imported on first access.
_EXPORTS = {
    name: f"repro.figures.{name}"
    for name in ("fig7", "fig10", "fig11", "fig13", "fig14", "fig15", "table1")
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
