"""Product-form kernels: the block walk in ``_shiftcore_py``.

``block_values`` is the package's one product-form tiling of a range of
cells: it finds the range's maximal aligned blocks on the two paths to
the cells beside the range and values each one, the full range being the
one block λ.  ``subtree_sum`` totals those blocks and values the two cells
beside the range, in at most 2n factor steps; the same walk values a
product form's pullback cover (``martingale.ProductFormApprox``).  With
``savings`` set, both walk the savings wrapper of the form instead,
carrying its level and reserve down each path at the same cost: the
brackets and pullback covers of ``martingale.savings_wrapper`` of a
product form.  There is one pure-Python implementation.  Single values
for ``ExactMartingale.at`` come from ``martingale.product_fold`` and
``martingale.savings_fold``, which adds to its reserve with the savings
walk's ``sum_pow2``.

``range_sum_max`` (the range's largest cell in O(n * n_states)) and
``cell_value`` (one cell from the root) have no caller in the package.
This module keeps them, its names and ``BACKEND`` for the benchmark
harness (``perfbench/``): it wraps ``cell_value`` and ``range_sum_max`` by
name both here and in ``_shiftcore_py``, and stamps each result file with
``BACKEND``, refusing to compare files stamped differently.
"""

from ._shiftcore_py import _block_values as block_values
from ._shiftcore_py import _sum_pow2 as sum_pow2
from ._shiftcore_py import cell_value, range_sum_max, subtree_sum, validate

BACKEND = "python"

__all__ = ["BACKEND", "block_values", "cell_value", "range_sum_max",
           "subtree_sum", "sum_pow2", "validate"]
