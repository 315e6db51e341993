"""Betting strategies on binary words and their conservative transforms.

A martingale here is a total, exactly evaluable map from words to
nonnegative exact rationals obeying the fair-bet identity
``d(w) = (d(w0) + d(w1)) / 2`` with ``d(λ) <= 1``.  Built-ins are
*product-form*: the value along a path is a product of per-step dyadic
factors driven by a tiny state machine, which is what the kernels in
:mod:`dymart.kernels` exploit.  Values of derived strategies (conservative
transform, savings wrapper) may be general rationals.

An ``ExactMartingale`` has one source: a reply function, a product
form, or the product form whose savings wrapper it is.  The folds, the
level reader and the block walks all read that one source, so no two of
them can disagree.  Every exact strategy answers ``exact`` through one
``PrefixFold`` stack: a state for λ, one state per longer prefix of the
last word asked, and the value read off the last state.  ``exact`` is the fold's reply
function itself, ``at`` is the same value as a ``Fraction``, and the
approximation wrapper ``as_approx`` binds ``exact`` once and replies from
it.  A product form folds (num, dexp, machine state), one factor per
level, and the savings wrapper of a product form folds the same factors
with its level and reserve in integers: both descend inline, with no call
per level, and answer ``exact`` with a ``Dyadic``.  Every other derived
strategy folds its input's ``at`` values in ``Fraction``s.  The fold
keeps the states along the last word asked and steps forward only below
the prefix the next word shares with it.  A cover's words lie on its two
end paths, so a cover costs O(m) steps in all: O(1) amortized per cover
word.  The approximator of a product form or of its savings wrapper
(``ProductFormApprox``) values a pullback's whole cover without the fold:
one block walk down the two end paths values every cover word, at most
2m factor steps with one running product (for the savings wrapper, one
capital and one reserve) per path, so the retained state is O(m) bits,
not the fold's one state per level.  Each value is still the reply of
its own ``query``.  The savings wrapper of a product form records the
form as its ``savings_form`` for that walk.

The exhaustive checks (``verify_martingale``, ``verify_conservative``
and the ``verify`` suites' domination, shift-chain and methods checks)
read whole levels, not words, through ``exact_levels``: a product form
grows each level from the one above, two factors per cell, with no fold
and no ``exact`` call; any other strategy is asked ``exact`` once per
word, one level at a time.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import kernels
from .dyadic import (EMPTY, Cover, Dyadic, Word, lcm_scales,
                     level_numerators)
from .errors import PrecisionContractError
from .report import Report, Violation


def _one_class(i):
    return 0


class ProductForm(namedtuple("ProductForm", "edges classes_fn tags")):
    """Finite-state product description of a martingale with d(λ) = 1.

    The machine is in state 0 at λ, and
    ``edges[state][cls][bit] = (num, dexp, next_state)`` gives the per-step
    capital factor num/2**dexp; ``classes_fn(i)`` tags position i (pattern
    phase, insertion-set membership).  Construction validates, once, that
    the two factors at every (state, class) average to one; the kernels
    take the form itself.  ``tags`` is the form's one grow-only list of
    ``classes_fn`` values, shared with its transformed form.
    """

    __slots__ = ()

    def __new__(cls, edges, classes_fn=_one_class):
        self = super().__new__(cls, edges, classes_fn, [])
        kernels.validate(self)
        return self

    def classes(self, n):
        """``tags``, grown to cover positions 0..n-1: each position's tag
        is computed once, and only when a caller reaches it."""
        tags = self.tags
        if n > len(tags):
            tags.extend(map(self.classes_fn, range(len(tags), n)))
        return tags

    def transformed(self):
        """Factor map f -> (1+f)/2; implements the half-bet damping.

        Once capital is 0 the damped strategy stops betting (ρ := 1), so a
        zero factor leads to a state whose factors are all 1: its own
        target when that already is one, else one added state.
        """
        edges = self.edges
        dead = len(edges)

        def flat(state):
            return all(f == (1, 0, state)
                       for per_cls in edges[state] for f in per_cls)

        def damp(factor):
            num, dexp, nxt = factor
            if not num and not flat(nxt):
                nxt = dead
            return _halfbet((num, dexp, nxt))

        new_edges = [
            tuple(tuple(damp(f) for f in per_cls) for per_cls in per_state)
            for per_state in edges]
        if any(f[2] == dead for per_state in new_edges
               for per_cls in per_state for f in per_cls):
            new_edges.append(tuple(((1, 0, dead), (1, 0, dead))
                                   for _ in edges[0]))
        # _replace builds the tuple directly, so the tag list is shared
        damped = self._replace(edges=tuple(new_edges))
        kernels.validate(damped)
        return damped


def _halfbet(factor):
    num, dexp, nxt = factor
    half = Dyadic(num + (1 << dexp), dexp + 1)
    return (half.num, half.exp, nxt)


class ExactMartingale:
    """Total exact-valued strategy; the oracle role in every check.

    A strategy has one source, exactly one of: ``fn``, its reply function;
    ``product_form``, whose ``product_fold`` it is; ``savings_form``, the
    product form whose savings wrapper (``savings_fold``) it is.  Any
    other count raises ``ValueError``.  ``exact(w)`` is the exact d(w),
    the reply function itself: a ``Dyadic`` from a form, else whatever
    ``fn`` gives (a ``Fraction`` for the derived wrappers).  The folds
    answer through a per-instance ``PrefixFold``, so words asked in
    left-to-right order (a cover) share their walks, and the block walks
    (brackets, ``as_approx``'s whole-cover replies) read the form that
    ``block_walk`` names.

    ``conservative`` is True when every single-step bet ratio is certified
    to lie in [1/2, 3/2], the hypothesis of the pullback gap bound.
    """

    def __init__(self, name, fn=None, *, product_form=None,
                 savings_form=None, conservative=False):
        if sum(s is not None for s in (fn, product_form, savings_form)) != 1:
            raise ValueError(f"ExactMartingale({name!r}) needs exactly one of "
                             "fn, product_form and savings_form")
        if product_form is not None:
            fn = product_fold(product_form)
        elif savings_form is not None:
            fn = savings_fold(savings_form)
        self.name = name
        self.exact = fn
        self.product_form = product_form
        self.savings_form = savings_form
        self.conservative = conservative

    @property
    def block_walk(self):
        """What the block walks read: (``product_form``, False), else
        (``savings_form``, True), the kernels' ``savings`` flag; None for
        a strategy with neither form."""
        if self.product_form is not None:
            return self.product_form, False
        if self.savings_form is not None:
            return self.savings_form, True
        return None

    def at(self, w):
        """Exact d(w) as a Fraction: ``Fraction(exact(w))``."""
        return Fraction(self.exact(w))

    def __repr__(self):
        return f"ExactMartingale({self.name!r})"


def uniform():
    pf = ProductForm(((((1, 0, 0), (1, 0, 0)),),))
    return ExactMartingale("uniform", product_form=pf, conservative=True)


def allin_zeros():
    """Doubles on every 0 while the prefix is all zeros; dies at the first 1."""
    edges = (
        (((2, 0, 0), (0, 0, 1)),),   # alive: all-zero prefix so far
        (((1, 0, 1), (1, 0, 1)),),   # dead: value is already 0
    )
    return ExactMartingale("allin_zeros", product_form=ProductForm(edges))


def pattern_bettor(pattern):
    """Bets half its capital that the next bit continues ``pattern`` cyclically."""
    pattern = Word.parse(pattern)
    if len(pattern) == 0:
        raise ValueError("pattern must be nonempty")
    bits = tuple(pattern)
    per_state = tuple(
        ((3, 1, 0), (1, 1, 0)) if b == 0 else ((1, 1, 0), (3, 1, 0))
        for b in bits)
    pf = ProductForm((per_state,), classes_fn=lambda i: i % len(bits))
    return ExactMartingale(f"pattern:{pattern}", product_form=pf,
                           conservative=True)


class PrefixFold:
    """The stack of a fold along the prefixes of a word, one word at a time.

    ``states[i]`` is the fold state after the length-i prefix of the word
    the stack runs along (the last word asked); ``root()`` gives the state
    of λ, on the first call, not on construction.  Each fold supplies its
    own descent loop: ``shared(k, n)`` pops the stack back to the longest
    prefix that the depth-n word with index k shares with that word and
    returns its length i, and the loop appends the states of the prefixes
    of lengths i + 1..n.  Words asked in left-to-right order (a cover) so
    cost O(1) amortized steps each.  If a step raises partway down a word,
    the stack keeps the states it finished and runs along that prefix of
    the word.
    """

    __slots__ = ("states", "_root", "_k", "_n")

    def __init__(self, root):
        self.states = []
        self._root = root
        self._k = self._n = 0   # the last word asked, by its bits

    def shared(self, k, n):
        """Pop back to the prefix the depth-n word k shares with the
        stack's word, and return that prefix's length."""
        states = self.states
        if not states:
            states.append(self._root())
        depth = len(states) - 1
        common = depth if depth < n else n
        common -= ((self._k >> (self._n - common))
                   ^ (k >> (n - common))).bit_length()
        del states[common + 1:]
        self._k, self._n = k, n
        return common


def product_fold(pf):
    """d of the product form ``pf`` as a reply function: the ``Dyadic``
    value of a word.

    A ``PrefixFold`` whose states are (num, dexp, machine state) for the
    product num / 2^dexp.  The descent runs inline, one factor lookup and
    one multiply per level, and the class tags are ``pf.tags``, grown only
    when a word is longer than the list.
    """
    edges, tags = pf.edges, pf.tags
    fold = PrefixFold(lambda: (1, 0, 0))
    states, shared = fold.states, fold.shared

    def exact(w):
        k, n = w.k, w.n
        if n > len(tags):
            pf.classes(n)
        i = shared(k, n)
        num, dexp, at = states[i]
        while i < n:
            fnum, fdexp, at = edges[at][tags[i]][(k >> (n - 1 - i)) & 1]
            num *= fnum
            dexp += fdexp
            i += 1
            states.append((num, dexp, at))
        return Dyadic(num, dexp)

    return exact


def _value_fold(mart, start, step, answer):
    """A reply function over mart's values through a ``PrefixFold``:
    ``answer`` of the state that ``start(d(λ))`` and then
    ``step(state, d(p))`` per longer prefix p give."""
    at = mart.at
    fold = PrefixFold(lambda: start(at(EMPTY)))
    states, shared = fold.states, fold.shared

    def exact(w):
        k, n = w.k, w.n
        i = shared(k, n)
        state = states[i]
        while i < n:
            i += 1
            state = step(state, at(Word(k >> (n - i), i)))
            states.append(state)
        return answer(state)

    return exact


def conservative_transform(mart):
    """Half-bet damping: d'(λ) = d(λ), d'(wb) = d'(w) (1 + ρ(wb)) / 2
    with ρ(wb) = d(wb)/d(w), and ρ := 1 once capital hits zero.

    Output ratios live in [1/2, 3/2]; moreover d'(w)^2 >= d(w) d(λ) while
    capital is positive (AM-GM on the step factors).  A product form is
    damped factor by factor; any other strategy is folded over its prefix
    values with the state (d'(w), d(w)), through a ``PrefixFold``.
    """
    if mart.product_form is not None:
        return ExactMartingale(f"conservative:{mart.name}",
                               product_form=mart.product_form.transformed(),
                               conservative=True)

    def step(state, cur):
        v, prev = state
        rho = cur / prev if prev > 0 else Fraction(1)
        return v * ((1 + rho) / 2), cur

    return ExactMartingale(f"conservative:{mart.name}",
                           _value_fold(mart, lambda v: (v, v), step,
                                       lambda state: state[0]),
                           conservative=True)


def _savings_step(state, v):
    level, reserve, _ = state
    while v >= 1 << (level + 1):
        level += 1
        reserve += v / (1 << level)
    return level, reserve, v


def _savings_value(state):
    level, reserve, v = state
    return reserve + v / (1 << level)


def savings_fold(pf):
    """The savings wrapper of the product form ``pf`` as a reply function:
    the ``Dyadic`` value of a word, in integers throughout.

    A ``PrefixFold`` whose states are (num, dexp, machine state, level,
    rnum, rexp): the input's capital num / 2^dexp as in ``product_fold``,
    the level reached, and the reserve rnum / 2^rexp, kept over the
    largest exponent it has been added at.  The descent runs inline: one
    factor lookup and one multiply per level; capital at or above
    2^(level+1), that is ``num >> (dexp + level + 1) != 0``, crosses a
    level and adds capital / 2^level, at the new level, to the reserve.
    The value is reserve + capital / 2^level.  It answers ``exact`` and
    ``at``, word by word; the wrapper's brackets and pullback covers take
    the same values from the block walk down the two end paths instead
    (``kernels.subtree_sum`` and ``kernels.block_values`` with
    ``savings`` set), which carries this state along each path and keeps
    no stack.
    """
    edges, tags, sum_pow2 = pf.edges, pf.tags, kernels.sum_pow2
    # d(λ) = 1 crosses no level
    fold = PrefixFold(lambda: (1, 0, 0, 0, 0, 0))
    states, shared = fold.states, fold.shared

    def exact(w):
        k, n = w.k, w.n
        if n > len(tags):
            pf.classes(n)
        i = shared(k, n)
        num, dexp, at, level, rnum, rexp = states[i]
        while i < n:
            fnum, fdexp, at = edges[at][tags[i]][(k >> (n - 1 - i)) & 1]
            num *= fnum
            dexp += fdexp
            while num >> (dexp + level + 1):
                level += 1
                rnum, rexp = sum_pow2(rnum, rexp, num, dexp + level)
            i += 1
            states.append((num, dexp, at, level, rnum, rexp))
        return Dyadic(*sum_pow2(rnum, rexp, num, dexp + level))

    return exact


def savings_wrapper(mart):
    """Moves half the live stake into a frozen reserve each time the input's
    capital crosses the next power of two.

    The reserve never shrinks, so once d has reached 2^k (crossing every
    level up to k) the wrapper's capital stays >= k on every extension.  A
    hard floor of half the running peak is unattainable for any martingale
    (averaging pulls the off-branch down), so the guarantee is the classic
    one-unit-per-doubling reserve.

    The value is a fold along the prefixes of w through a ``PrefixFold``.
    Over a product form the wrapper is given only the form, as its
    ``savings_form``: ``exact`` is its ``savings_fold``, in integers, a
    ``Dyadic``, and its brackets and pullback covers come from the block
    walk.  Over any other strategy it folds the input's ``at`` values
    with the state (level, reserve, d(prefix)) and the answer
    reserve + d(w) / 2^level, in ``Fraction``s.
    """
    name = f"savings:{mart.name}"
    if mart.product_form is not None:
        return ExactMartingale(name, savings_form=mart.product_form,
                               conservative=mart.conservative)
    start = (0, Fraction(0), None)
    return ExactMartingale(
        name, _value_fold(mart, lambda v: _savings_step(start, v),
                          _savings_step, _savings_value),
        conservative=mart.conservative)


def exact_levels(mart, top):
    """The levels n = 0..top of mart's exact values, in order, each as
    integer numerators in index order over one common denominator:
    (nums, den), the same rationals as ``dyadic.level_numerators`` of
    ``mart.exact``.

    A product form grows each level from the one above, with no ``Word``,
    no ``Dyadic`` and no ``exact`` call: the cell with index k and machine
    state s has the children 2k and 2k + 1, its numerator times the two
    factors of ``edges[s][tags[n]]``.  Level n + 1 sits over 2^e times
    the denominator of level n, with e the largest factor exponent at
    ``tags[n]``, each factor brought over 2^e once per level.  Its
    ``exact`` is the same form's ``product_fold``, the strategy's one
    source.  Any other strategy is asked ``exact`` once per word, level
    by level.
    """
    pf = mart.product_form
    if pf is None:
        exact = mart.exact
        for n in range(top + 1):
            yield level_numerators(exact, n)
        return
    edges, tags = pf.edges, pf.classes(top)
    nums, states, den = [1], [0], 1
    yield nums, den
    for n in range(top):
        pairs = [per_state[tags[n]] for per_state in edges]
        e = max(dexp for pair in pairs for _, dexp, _ in pair)
        steps = [(n0 << (e - d0), s0, n1 << (e - d1), s1)
                 for (n0, d0, s0), (n1, d1, s1) in pairs]
        below, below_states = [], []
        for num, at in zip(nums, states):
            f0, s0, f1, s1 = steps[at]
            below += (num * f0, num * f1)
            below_states += (s0, s1)
        nums, states, den = below, below_states, den << e
        yield nums, den


def verify_martingale(mart, depth):
    """Exact averaging identity and nonnegativity on all |w| <= depth.

    Reports violations instead of raising; also flags d(λ) > 1.  Values
    are swept level by level from ``exact_levels``, two levels alive at a
    time, each as integer numerators over one common denominator: the
    children of the word with index k are entries 2k and 2k + 1 of the
    next level, and the identity is 2 p == c0 + c1 once both levels are
    brought to their lcm.  A ``Fraction`` is built only for d(λ), from
    level 0, and for the text of a violation.
    """
    violations = []
    checked = 0
    levels = exact_levels(mart, depth + 1)
    level, den = next(levels)
    root = Fraction(level[0], den)
    if root > 1:
        violations.append(Violation("λ", "root",
                                    f"d(λ) = {root} exceeds 1"))
    for n, (below, den_below) in enumerate(levels):
        up, down = lcm_scales(den, den_below)
        checked += len(level)
        for k, p in enumerate(level):
            if p < 0:
                violations.append(Violation(str(Word(k, n)), "nonneg",
                                            f"d = {Fraction(p, den)}"))
            pair = below[2 * k] + below[2 * k + 1]
            if 2 * p * up != pair * down:
                violations.append(Violation(
                    str(Word(k, n)), "identity",
                    f"d = {Fraction(p, den)}, children average "
                    f"{Fraction(pair, 2 * den_below)}"))
        level, den = below, den_below
    return Report(f"martingale identity for {mart.name} (depth {depth})",
                  checked, violations)


def verify_conservative(mart, depth):
    """Exact ratio bounds d(w)/2 <= d(wb) <= 3 d(w)/2 and the derived cap
    d(w) <= (3/2)^|w| on all |w| <= depth, swept level by level from
    ``exact_levels``, two levels alive at a time.  Each level is integer
    numerators over one common denominator: with parent p and child c
    over their lcm the bounds read p <= 2c <= 3p, and the cap of a
    depth-n numerator over den reads num 2^n <= 3^n den."""
    violations = []
    checked = 0
    levels = exact_levels(mart, depth)
    level, den = next(levels)
    for n in range(depth + 1):
        cap = 3 ** n * den
        # the deepest level has no level below it
        below, den_below = next(levels, ([], den))
        up, down = lcm_scales(den, den_below)
        checked += len(level)
        for k, p in enumerate(level):
            if p << n > cap:
                violations.append(Violation(
                    str(Word(k, n)), "cap",
                    f"d = {Fraction(p, den)} > (3/2)^{n}"))
            if not below:
                continue
            scaled = p * up
            for j in (2 * k, 2 * k + 1):
                c = 2 * below[j] * down
                if not scaled <= c <= 3 * scaled:
                    violations.append(Violation(
                        str(Word(j, n + 1)), "ratio",
                        f"parent {Fraction(p, den)}, "
                        f"child {Fraction(below[j], den_below)}"))
        level, den = below, den_below
    return Report(f"conservative bounds for {mart.name} (depth {depth})",
                  checked, violations)


class ApproxMartingale:
    """Approximation contract: query(w, r) is within 2^-r of the true d(w).

    A reply is a ``Fraction`` or a ``Dyadic``, passed through as it came;
    any other rational (an int) becomes a ``Fraction``.
    """

    def __init__(self, name, query_fn, *, conservative=False):
        self.name = name
        self._query = query_fn
        self.conservative = conservative

    def query(self, w, r):
        v = self._query(w, r)
        # Dyadic first: a plain type check, where a miss on Fraction runs
        # ABCMeta's instance check
        if not isinstance(v, (Dyadic, Fraction)):
            v = Fraction(v)
        # a true martingale is nonnegative, so a reply below -2^-r is
        # detectable; the sign settles every nonnegative one
        if v.numerator < 0 and v < -Fraction(1, 1 << r):
            raise PrecisionContractError(
                f"{self.name}: query({w}, {r}) = {Fraction(v)} "
                f"is below -2^-{r}")
        return v


class ProductFormApprox(ApproxMartingale):
    """``as_approx`` of a product form or of its savings wrapper: ``query``
    replies from the strategy's fold, except for the word a block walk has
    just valued (``cover_replies``)."""

    def __init__(self, mart):
        exact = mart.exact
        # the last word the walk valued, and its value
        walked = self._walked = [None, None]

        def reply(w, r):
            return walked[1] if w is walked[0] else exact(w)

        super().__init__(mart.name, reply, conservative=mart.conservative)
        self._walk = mart.block_walk

    def cover_replies(self, cover, m):
        """(query(w, m), |w|) for each word w of ``cover``, each once.

        A ``Cover`` (what ``minimal_cover`` gives) is valued by
        ``kernels.block_values`` on the two end paths of its grid range,
        the product form's or its savings wrapper's values, at most 2m
        factor steps in all, and asked in walk order: the words
        off the path to the cell before the range, then those off the path
        to the cell after it, each top-down; zero ones are asked too.  The
        full range is the one word λ.  An empty one has no words and
        returns before any walk.  Each word is made from the walk's level
        and asked of ``query``, which replies with the walk's value and
        checks it.  Any other cover (a word list) is asked word by word,
        in its own order.
        """
        if type(cover) is not Cover:
            for w in cover:
                yield self.query(w, m), w.n
            return
        if cover.lo == cover.hi:
            return
        lo, hi, before = cover.lo, cover.hi, cover.lo - 1
        (pf, savings), ends, walked, query = self._walk, [None, None], \
            self._walked, self.query
        try:
            for num, dexp, lev, _ in kernels.block_values(
                    pf, pf.classes(m), m, lo, hi, ends, savings):
                # the walk to the cell before the range comes first and
                # sets ends[0] when it is done
                k = (before >> lev) + 1 if lo and ends[0] is None \
                    else (hi >> lev) - 1
                w = walked[0] = Word(k, m - lev)
                walked[1] = Dyadic(num, dexp)
                yield query(w, m), m - lev
        finally:
            walked[0] = walked[1] = None


def as_approx(mart):
    """Trivial wrapper: exact values at every precision, from
    ``mart.exact`` (a ``Dyadic`` for a product form and its savings
    wrapper), bound once.  For a product form or its savings wrapper it
    is a ``ProductFormApprox``, which also values a pullback's whole cover
    from one block walk for the cover's queries."""
    if mart.block_walk is not None:
        return ProductFormApprox(mart)
    exact = mart.exact
    return ApproxMartingale(mart.name, lambda w, r: exact(w),
                            conservative=mart.conservative)


def capital_trace(approx, s, r):
    """Approximate capital along all prefixes of s (length |s| + 1)."""
    return [approx.query(p, r) for p in s.prefixes()]


BUILTIN_NAMES = ("uniform", "allin_zeros", "pattern:<word>",
                 "zbettor:<zset>", "conservative:<name>", "savings:<name>")


def by_name(name):
    """Resolve a strategy name: uniform | allin_zeros | pattern:w |
    zbettor:zspec | conservative:inner | savings:inner."""
    if name == "uniform":
        return uniform()
    if name == "allin_zeros":
        return allin_zeros()
    if name.startswith("pattern:"):
        return pattern_bettor(name.split(":", 1)[1])
    if name.startswith("zbettor:"):
        from .tightness import z_bettor
        return z_bettor(name.split(":", 1)[1])
    if name.startswith("conservative:"):
        return conservative_transform(by_name(name.split(":", 1)[1]))
    if name.startswith("savings:"):
        return savings_wrapper(by_name(name.split(":", 1)[1]))
    raise ValueError(f"unknown martingale {name!r}; "
                     f"known forms: {', '.join(BUILTIN_NAMES)}")
