"""Pure-Python kernels for sums/maxima of product-form betting strategies.

A *product-form* strategy assigns to a word ``w`` the value

    d(w) = prod_i factor(state_i, class(i), w[i])

where the factors are nonnegative dyadics ``num / 2**dexp``, the state
machine starts in ``start`` and steps along the bits, and ``class(i)`` is a
per-position tag (pattern phase, insertion-set membership, ...).  The
normalization d(empty) = 1 is the kernel's convention.

Descriptor layout (plain tuples so the compiled twin can unpack cheaply)::

    desc = (n_states, start, edges, max_num, max_dexp)
    edges[state][cls][bit] = (num, dexp, next_state)

The fairness condition -- the two child factors of every (state, class)
average to one -- is what makes block sums collapsible; ``validate``
checks it exactly and ``subtree_sum`` relies on it.

All arithmetic is exact integer arithmetic.

``aligned_blocks`` is the one aligned-block decomposition in the package:
covers, block sums and the pullback all tile a range with it.  Every block
hangs off one of the two root-to-leaf paths to the ends of the range, so
two walks give all block values in O(n) factor steps (``subtree_sum``),
and a ``PathCursor`` fed the blocks left to right reuses the prefix it
shares with the previous path, so a whole cover costs about 3n steps
instead of n per word.  Both are pure Python; the compiled twin in
``_shiftcore.pyx`` only implements the cell scan behind
``cell_value``/``range_sum_max`` (same signatures, bit-identical results
within its overflow guard).
"""


def validate(desc):
    """Check the exact fairness identity f0 + f1 == 2 per (state, class)."""
    _, _, edges, _, _ = desc
    for state, per_state in enumerate(edges):
        for cls, ((n0, d0, _), (n1, d1, _)) in enumerate(per_state):
            if n0 < 0 or n1 < 0:
                raise ValueError(f"negative factor at state {state} "
                                 f"class {cls}")
            if (n0 << (d1 + 1)) + (n1 << (d0 + 1)) != 1 << (d0 + d1 + 2):
                raise ValueError(f"factors at state {state} class {cls} "
                                 "do not average to one")
    return True


def cell_value(desc, classes, n, k):
    """d(word) for the depth-n cell with index k, as a (num, dexp) pair."""
    _, state, edges, _, _ = desc
    num, dexp = 1, 0
    for i in range(n):
        bit = (k >> (n - 1 - i)) & 1
        fnum, fdexp, state = edges[state][classes[i]][bit]
        num *= fnum
        dexp += fdexp
        if num == 0:
            return 0, 0
    return num, dexp


def range_sum_max(desc, classes, n, a, b, want_max=True):
    """Literal cell-by-cell scan over k in [a, b) at depth n.

    Returns (sum_num, sum_dexp, max_num, max_dexp).  The scan walks the
    cells in order, reusing the unchanged prefix of the previous path, so
    the total work is O(b - a) factor steps.
    """
    if a >= b:
        return 0, 0, 0, 0
    _, start, edges, _, _ = desc
    states = [start] * (n + 1)
    nums = [1] * (n + 1)
    dexps = [0] * (n + 1)

    def descend(frm, k):
        for i in range(frm, n):
            bit = (k >> (n - 1 - i)) & 1
            fnum, fdexp, nxt = edges[states[i]][classes[i]][bit]
            nums[i + 1] = nums[i] * fnum
            dexps[i + 1] = dexps[i] + fdexp
            states[i + 1] = nxt

    descend(0, a)
    s_num, s_dexp = 0, 0
    m_num, m_dexp = 0, 0
    k = a
    while True:
        p_num, p_dexp = nums[n], dexps[n]
        if p_num:
            if s_dexp < p_dexp:
                s_num <<= p_dexp - s_dexp
                s_dexp = p_dexp
            s_num += p_num << (s_dexp - p_dexp)
            if want_max and (p_num << m_dexp) > (m_num << p_dexp):
                m_num, m_dexp = p_num, p_dexp
        k += 1
        if k >= b:
            break
        descend(n - ((k ^ (k - 1)).bit_length()), k)
    return s_num, s_dexp, m_num, m_dexp


def aligned_blocks(a, b):
    """Maximal aligned blocks tiling [a, b), left to right.

    Block (lev, idx) covers [idx << lev, (idx + 1) << lev); no level holds
    more than two.  A full range [0, 2**n) is the one block (n, 0).
    Otherwise a block with odd idx is the right child of a node on the path
    to a - 1, and one with even idx the left child of a node on the path to
    b.  The odd blocks come bottom-up, then the even ones top-down.
    """
    left, right = [], []
    lev = 0
    while a < b:
        if a & 1:
            left.append((lev, a))
            a += 1
        if b & 1:
            b -= 1
            right.append((lev, b))
        a >>= 1
        b >>= 1
        lev += 1
    left.extend(reversed(right))
    return left


def _hanging_values(edges, start, classes, n, hanging):
    """Yield (num, dexp, lev) per block, for blocks given top-down that all
    hang off one root-to-leaf path.

    Walks the path once holding only the running product; one factor
    lookup per level serves both the path step and the block beside it.
    Stops at the first zero product: every deeper block is then zero.
    """
    num, dexp, state, depth = 1, 0, start, 0
    pair = edges[start][classes[0]]
    for lev, idx in hanging:
        parent_depth = n - lev - 1
        while depth < parent_depth:
            fnum, fdexp, state = pair[(idx >> (parent_depth - depth)) & 1]
            num *= fnum
            dexp += fdexp
            depth += 1
            pair = edges[state][classes[depth]]
        if not num:
            return
        fnum, fdexp, _ = pair[idx & 1]
        yield num * fnum, dexp + fdexp, lev


def subtree_sum(desc, classes, n, a, b):
    """Sum of d over cells [a, b) at depth n via aligned-block collapse.

    A block of 2**lev cells below the word w contributes 2**lev * d(w) by
    the fairness identity.  The blocks come from ``aligned_blocks`` and are
    valued by one top-down walk along each of the two paths they hang off:
    O(n) factor steps and O(1) running products.  Exact for any depth.
    """
    if a >= b:
        return 0, 0
    if b - a == 1 << n:
        return 1 << n, 0
    _, start, edges, _, _ = desc
    blocks = aligned_blocks(a, b)
    s_num, s_dexp = 0, 0
    for hanging in ([blk for blk in reversed(blocks) if blk[1] & 1],
                    [blk for blk in blocks if not blk[1] & 1]):
        if not hanging:
            continue
        for num, dexp, lev in _hanging_values(edges, start, classes, n,
                                              hanging):
            if not num:
                continue
            num <<= lev
            if s_dexp < dexp:
                s_num <<= dexp - s_dexp
                s_dexp = dexp
            s_num += num << (s_dexp - dexp)
    return s_num, s_dexp


class PathCursor:
    """d(w) one word at a time, re-walking only below the prefix w shares
    with the previous word.

    Keeps the product along the last path and, per level, the state and
    the factor taken there; moving up a level divides that factor back out
    (exactly: the product is a multiple of it), so no per-level big
    integers are held.  Fed the words of a cover left to right, each word
    shares all but O(1) levels of its path with the one before, apart from
    the first word on each side of the split, so the cover costs about 3n
    factor steps in all.  ``classes_of(n)`` must return the class tags of
    at least n positions.
    """

    def __init__(self, desc, classes_of):
        _, start, self._edges, _, _ = desc
        self._classes_of = classes_of
        self._classes = ()
        self._k = 0
        self._states = [start]   # state at each depth of the last path
        self._factors = []       # (num, dexp) of the step into each depth
        self._num = 1            # product of the factors before the first 0
        self._dexp = 0
        self._zero = None        # depth of the first zero factor, if any

    def value(self, k, n):
        """d of the depth-n word with index k, as (num, dexp) like
        ``cell_value``."""
        states, factors = self._states, self._factors
        depth = len(factors)
        common = min(depth, n)
        common -= ((self._k >> (depth - common))
                   ^ (k >> (n - common))).bit_length()
        num, dexp, zero = self._num, self._dexp, self._zero
        for i in range(depth, common, -1):
            fnum, fdexp = factors[i - 1]
            if zero is None or i < zero:
                num //= fnum
            dexp -= fdexp
        if zero is not None and zero > common:
            zero = None
        del states[common + 1:], factors[common:]
        if n > len(self._classes):
            self._classes = self._classes_of(max(n, 2 * len(self._classes)))
        edges, classes = self._edges, self._classes
        state = states[common]
        for i in range(common, n):
            fnum, fdexp, state = \
                edges[state][classes[i]][(k >> (n - 1 - i)) & 1]
            if not fnum:
                if zero is None:
                    zero = i + 1
            elif zero is None:
                num *= fnum
            dexp += fdexp
            states.append(state)
            factors.append((fnum, fdexp))
        self._k, self._num, self._dexp, self._zero = k, num, dexp, zero
        return (num, dexp) if zero is None else (0, 0)
