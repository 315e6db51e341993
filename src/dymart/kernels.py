"""Product-form kernels: the block walk, and the cell scan's backends.

The block walk is pure Python and always used: ``aligned_blocks`` (the one
aligned-block decomposition), ``subtree_sum`` (O(n) factor steps per range)
and ``PathCursor`` (behind ``ExactMartingale.at``; a left-to-right cover
costs about 3n steps).  None of them dispatches to the compiled kernel.

``cell_value`` and ``range_sum_max`` (the literal scan behind
``method="enumerate"``) use the compiled extension when it is built and
the call passes :func:`fits_compiled`, else pure Python, with
bit-identical exact results.  Set ``DYMART_PURE=1`` in the environment to
force the pure-Python backend.
"""

import os

from . import _shiftcore_py as _py

if os.environ.get("DYMART_PURE"):
    _cy = None
else:
    try:
        from . import _shiftcore as _cy
    except ImportError:
        _cy = None

BACKEND = "cython" if _cy is not None else "python"

validate = _py.validate
aligned_blocks = _py.aligned_blocks
subtree_sum = _py.subtree_sum
PathCursor = _py.PathCursor


def fits_compiled(desc, n):
    """Every path product must fit int64 and every partial sum int128."""
    n_states, _, edges, max_num, max_dexp = desc
    if n > 63 or n_states > 64:
        return False
    if any(len(per_state) > 32 for per_state in edges):
        return False
    if max_num ** n >= 1 << 62:
        return False
    if (max_num ** n) << (n + max_dexp * n) >= 1 << 124:
        return False
    return True


def cell_value(desc, classes, n, k):
    if _cy is not None and fits_compiled(desc, n):
        return _cy.cell_value(desc, classes, n, k)
    return _py.cell_value(desc, classes, n, k)


def range_sum_max(desc, classes, n, a, b, want_max=True):
    if _cy is not None and fits_compiled(desc, n):
        return _cy.range_sum_max(desc, classes, n, a, b, want_max)
    return _py.range_sum_max(desc, classes, n, a, b, want_max)
