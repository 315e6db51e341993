"""Product-form kernels: the block walk in ``_shiftcore_py``.

``aligned_blocks`` is the one aligned-block decomposition; ``subtree_sum``
sums a range in O(n) factor steps, ``range_sum_max`` adds its largest cell
in O(n * n_states), ``PathCursor`` answers ``ExactMartingale.at`` (a
left-to-right cover costs about 3n steps) and ``cell_value`` walks one
cell from the root.  There is one pure-Python implementation.

This module keeps its names and ``BACKEND`` for the benchmark harness
(``perfbench/``): it wraps ``cell_value`` and ``range_sum_max`` by name
both here and in ``_shiftcore_py``, and stamps each result file with
``BACKEND``, refusing to compare files stamped differently.
"""

from ._shiftcore_py import (PathCursor, aligned_blocks, cell_value,
                            range_sum_max, subtree_sum, validate)

BACKEND = "python"

__all__ = ["BACKEND", "PathCursor", "aligned_blocks", "cell_value",
           "range_sum_max", "subtree_sum", "validate"]
