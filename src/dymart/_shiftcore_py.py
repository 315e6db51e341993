"""Pure-Python kernels for sums/maxima of product-form betting strategies.

A *product-form* strategy assigns to a word ``w`` the value

    d(w) = prod_i factor(state_i, class(i), w[i])

where the factors are nonnegative dyadics ``num / 2**dexp``, the state
machine starts in state 0 and steps along the bits, and ``class(i)`` is a
per-position tag (pattern phase, insertion-set membership, ...).  The
normalization d(empty) = 1 is the kernel's convention.

Every kernel takes the strategy's ``martingale.ProductForm`` ``pf`` first
and reads one of its fields::

    pf.edges[state][cls][bit] = (num, dexp, next_state)

The fairness condition -- the two child factors of every (state, class)
average to one -- is what makes block sums collapsible; ``validate``
checks it exactly (``ProductForm`` calls it once, on construction) and
``subtree_sum`` relies on it.

All arithmetic is exact integer arithmetic.

A range of cells is tiled by maximal aligned blocks, and every block hangs
off one of the two root-to-leaf paths to the cells just outside the range.
So one walk down each of those paths finds the blocks from the path's own
bits and values them, and at its leaf the cell beside the range: at most
2n factor steps (``subtree_sum``).  The full range has no cell beside it
and is the one block λ.  The same walk (``_block_values``)
gives each block's own value, zero ones included, which is how a product
form values every word of a pullback cover for that word's d-query, with
one running product per path.

The savings wrapper of a product form (``martingale.savings_fold``) is a
fold along the path too, so its blocks hang off the same two paths: a
second walker (``_savings_path_values``), in its own loop beside the
product one, carries the wrapper's capital, level and reserve down each
path and values each block and the leaf as the reserve plus the capital
over 2^level.  ``subtree_sum`` and ``_block_values`` take it with
``savings`` set, at the same at most 2n factor steps.

The largest cell below a block is its value times the best product of
the factors still to come, read from a table built once per call in
O(n * n_states) steps (``range_sum_max``).
"""


def validate(pf):
    """Check the exact fairness identity f0 + f1 == 2 per (state, class)."""
    for state, per_state in enumerate(pf.edges):
        for cls, ((n0, d0, _), (n1, d1, _)) in enumerate(per_state):
            if n0 < 0 or n1 < 0:
                raise ValueError(f"negative factor at state {state} "
                                 f"class {cls}")
            if (n0 << (d1 + 1)) + (n1 << (d0 + 1)) != 1 << (d0 + d1 + 2):
                raise ValueError(f"factors at state {state} class {cls} "
                                 "do not average to one")
    return True


def cell_value(pf, classes, n, k):
    """d(word) for the depth-n cell with index k, as a (num, dexp) pair."""
    state, edges = 0, pf.edges
    num, dexp = 1, 0
    for i in range(n):
        bit = (k >> (n - 1 - i)) & 1
        fnum, fdexp, state = edges[state][classes[i]][bit]
        num *= fnum
        dexp += fdexp
        if num == 0:
            return 0, 0
    return num, dexp


def _path_values(pf, classes, n, end, away, top):
    """Walk the root-to-leaf path to the depth-n cell ``end``: yield
    (num, dexp, lev, state) for the ``away``-child of each node below depth
    ``top`` where the path steps the other way (state is the one below the
    block's word), then return d(cell end) as (num, dexp), (0, 0) when it
    is zero.

    One factor-pair lookup per level serves both the path step and the
    block beside it, so the walk costs at most n lookups; the bits come
    from one binary string of ``end``, not a shift of it per level.  Makes
    no lookup past the first zero product: every deeper block and the leaf
    are then zero, and the deeper blocks are yielded as (0, 0, lev, state)
    from the bits alone, so every block gets its value.
    """
    num, dexp, state, edges = 1, 0, 0, pf.edges
    # the path's bits, top-down; b"0" and b"1" are bytes 48 and 49, and
    # format(0, "00b") would be "0", one bit too many
    bits = format(end, f"0{n}b").encode() if n else b""
    for depth, byte in enumerate(bits):
        pair = edges[state][classes[depth]]
        bit = byte & 1
        if bit != away and depth > top:
            fnum, fdexp, below = pair[away]
            yield num * fnum, dexp + fdexp, n - 1 - depth, below
        fnum, fdexp, state = pair[bit]
        num *= fnum
        if not num:
            for depth in range(depth + 1, n):
                if (bits[depth] & 1) != away and depth > top:
                    yield 0, 0, n - 1 - depth, state
            return 0, 0
        dexp += fdexp
    return num, dexp


def _sum_pow2(a, i, b, j):
    """a / 2^i + b / 2^j as (num, max(i, j)) for num / 2^max(i, j)."""
    if j > i:
        return (a << (j - i)) + b, j
    return a + (b << (i - j)), i


def _savings_path_values(pf, classes, n, end, away, top):
    """``_path_values`` for the savings wrapper of ``pf``: the same blocks
    and leaf, each valued as ``martingale.savings_fold`` values its word,
    the reserve plus the capital over 2^level.

    The walk carries the fold's state down the path: the capital
    num / 2^dexp, the machine state, the level reached and the reserve
    rnum / 2^rexp, with the fold's crossings.  One factor-pair lookup per
    level serves the path step and the block beside it.  A block needs no
    crossing of its own: a crossing of capital c at level L adds c/2^(L+1)
    to the reserve R and leaves c/2^(L+1) at stake, so the value
    R + c/2^L of the word where it happens is unchanged, and a block is
    worth the reserve plus its capital over 2^level with the reserve and
    level of its parent on the path.  Past a zero capital the reserve is
    frozen, so every deeper block and the leaf are worth the reserve, and
    no lookup is made.
    """
    num, dexp, state, edges = 1, 0, 0, pf.edges
    level = rnum = rexp = 0
    bits = format(end, f"0{n}b").encode() if n else b""
    for depth, byte in enumerate(bits):
        pair = edges[state][classes[depth]]
        bit = byte & 1
        if bit != away and depth > top:
            fnum, fdexp, below = pair[away]
            # reserve + capital / 2^level: _sum_pow2, inline
            c_num, e = num * fnum, dexp + fdexp + level
            if e > rexp:
                yield (rnum << (e - rexp)) + c_num, e, n - 1 - depth, below
            else:
                yield rnum + (c_num << (rexp - e)), rexp, n - 1 - depth, below
        fnum, fdexp, state = pair[bit]
        num *= fnum
        if not num:
            for depth in range(depth + 1, n):
                if (bits[depth] & 1) != away and depth > top:
                    yield rnum, rexp, n - 1 - depth, state
            return rnum, rexp
        dexp += fdexp
        while num.bit_length() > dexp + level + 1:
            level += 1
            rnum, rexp = _sum_pow2(rnum, rexp, num, dexp + level)
    return _sum_pow2(rnum, rexp, num, dexp + level)


def _block_values(pf, classes, n, a, b, ends, savings=False):
    """``_path_values`` for every maximal aligned block of [a, b): the
    1-children off the path to a - 1 where it steps to 0 and the
    0-children off the path to b where it steps to 1, below the depth
    where the two paths part (all along the one path when a = 0 or
    b = 2**n).  Each walk goes down to its leaf: sets ``ends`` to
    [d(cell a - 1), d(cell b)], None for a cell that does not exist.  The
    full range has no end path: it is the one block λ, d(λ) = 1, with no
    walk.  With ``savings`` set the values are those of the savings
    wrapper of ``pf`` (``_savings_path_values``; d(λ) = 1 there too).
    Serves the block sums and maxima here and the pullback cover of a
    product form or of its savings wrapper
    (``martingale.ProductFormApprox.cover_replies``)."""
    if b - a == 1 << n:
        yield 1, 0, n, 0
        return
    top = n - ((a - 1) ^ b).bit_length() if 0 < a and b < 1 << n else -1
    path = _savings_path_values if savings else _path_values
    if a > 0:
        ends[0] = yield from path(pf, classes, n, a - 1, 1, top)
    if b < 1 << n:
        ends[1] = yield from path(pf, classes, n, b, 0, top)


def _block_total(values):
    """Sum of 2**lev * d(w) over the block values, as (num, dexp)."""
    s_num, s_dexp = 0, 0
    for num, dexp, lev, _ in values:
        if not num:
            continue
        num <<= lev
        if s_dexp < dexp:
            s_num <<= dexp - s_dexp
            s_dexp = dexp
        s_num += num << (s_dexp - dexp)
    return s_num, s_dexp


def subtree_sum(pf, classes, n, a, b, savings=False):
    """Sum of d over cells [a, b) at depth n via aligned-block collapse,
    and the cells on either side: (sum_num, sum_dexp, left, right) with
    left = d(cell a - 1) and right = d(cell b) as (num, dexp) pairs, None
    where the cell does not exist (a = 0, b = 2**n).

    A block of 2**lev cells below the word w contributes 2**lev * d(w) by
    the fairness identity.  One top-down walk along each path to a cell
    beside the range finds the blocks hanging off it and values them, one
    at a time, and ends at that cell: at most 2n factor steps and O(1)
    running products; the full range is the one block λ, with no walk.
    Exact for any depth.  With ``savings`` set, d is the savings wrapper
    of ``pf`` and the same two walks carry its reserve and level
    (``_savings_path_values``), at the same cost.
    """
    ends = [None, None]
    total = _block_total(_block_values(pf, classes, n, a, b, ends, savings))
    return total + tuple(ends)


def _max_products(edges, classes, n):
    """best[i][s]: the largest product of the factors at depths i..n-1 over
    the paths that are in state s at depth i, as (num, dexp).

    Built bottom-up with one factor-pair lookup per (depth, state).  Every
    entry is positive: fairness leaves a nonzero factor at each step.
    """
    row = [(1, 0)] * len(edges)
    best = [row]
    for i in range(n - 1, -1, -1):
        cls = classes[i]
        below = row
        row = []
        for state in range(len(edges)):
            b_num, b_dexp = 0, 0
            for fnum, fdexp, nxt in edges[state][cls]:
                t_num, t_dexp = below[nxt]
                t_num *= fnum
                t_dexp += fdexp
                if (t_num << b_dexp) > (b_num << t_dexp):
                    b_num, b_dexp = t_num, t_dexp
            row.append((b_num, b_dexp))
        best.append(row)
    best.reverse()
    return best


def range_sum_max(pf, classes, n, a, b):
    """Sum and maximum of d over cells [a, b) at depth n, as
    (sum_num, sum_dexp, max_num, max_dexp); (0, 0, 0, 0) when empty.

    The sum is ``subtree_sum``'s.  The largest cell below the block word w
    is d(w) * best[|w|][state below w] (``_max_products``), so the walk
    that values the blocks also gives the maximum, the full range's block
    λ included: O(n * n_states) factor steps in all, for any depth.
    """
    if a >= b:
        return 0, 0, 0, 0
    best = _max_products(pf.edges, classes, n)
    values = list(_block_values(pf, classes, n, a, b, [None, None]))
    m_num, m_dexp = 0, 0
    for num, dexp, lev, state in values:
        t_num, t_dexp = best[n - lev][state]
        num *= t_num
        dexp += t_dexp
        if (num << m_dexp) > (m_num << dexp):
            m_num, m_dexp = num, dexp
    return _block_total(values) + (m_num, m_dexp)
