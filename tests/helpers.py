"""Shared test oracles and adversarial wrappers.

Everything here is deliberately independent of the implementation paths it
checks: covers are found by exhaustive enumeration, shifts by literal cell
loops (over Fractions, or over integer cell products for product forms),
and reference constants come from plain partial sums with explicit
remainder bounds.
"""

from fractions import Fraction

from dymart.dyadic import Dyadic, Word, all_words, gamma


def greedy_cover(a, b, m):
    """Greedy prefix-minimal cover of [a, b] on the 2^-m grid, by Dyadics.

    At each position takes the shortest word that starts there and stays
    inside [a, b]; O(m) exact Dyadic steps, so it reaches grids far beyond
    ``brute_force_cover``.
    """
    a, b = Dyadic(a), Dyadic(b)
    cover = []
    z = a
    while z < b:
        for length in range(z.exp, m + 1):
            step = Dyadic(1, length)
            if z + step <= b:
                cover.append(Word(z.num << (length - z.exp), length))
                z = z + step
                break
        else:
            raise AssertionError("greedy cover failed to advance")
    return cover


def brute_force_cover(a, b, m):
    """Prefix-minimal words of length <= m whose interval lies in [a, b]."""
    af, bf = Fraction(a), Fraction(b)
    inside = [w for w in all_words(m)
              if af <= Fraction(gamma(w)[0]) and Fraction(gamma(w)[1]) <= bf]
    minimal = [w for w in inside
               if not any(p is not w and p.is_prefix_of(w) for p in inside)]
    return sorted(minimal, key=lambda w: (Fraction(w.value()), len(w)))


def brute_force_shift(d, lo, hi, x_len, n, inner):
    """2^(x_len-n) * sum of d(y) over depth-n cells against [lo, hi].

    ``inner`` selects containment (lower shift) vs closed-interval
    intersection (upper shift).  Plain loop over all 2^n cells.
    """
    lo = Fraction(lo)
    hi = Fraction(hi)
    total = Fraction(0)
    for k in range(1 << n):
        c_lo = Fraction(k, 1 << n)
        c_hi = Fraction(k + 1, 1 << n)
        if inner:
            take = lo <= c_lo and c_hi <= hi
        else:
            take = c_lo <= hi and c_hi >= lo
        if take:
            total += Fraction(d.at(Word(k, n)))
    return total * Fraction(2 ** x_len, 2 ** n) if n <= x_len else \
        total * Fraction(1, 2 ** (n - x_len))


def scan_sum_max(desc, classes, n, a, b):
    """Sum and maximum of a product form over cells [a, b) at depth n, by
    a literal in-order scan; same (sum_num, sum_dexp, max_num, max_dexp)
    convention as ``kernels.range_sum_max``.

    Each cell's path reuses the unchanged prefix of the previous one, so
    the scan costs O(b - a) factor steps.
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
            if (p_num << m_dexp) > (m_num << p_dexp):
                m_num, m_dexp = p_num, p_dexp
        k += 1
        if k >= b:
            break
        descend(n - ((k ^ (k - 1)).bit_length()), k)
    return s_num, s_dexp, m_num, m_dexp


class NoisyWeakFn:
    """Adversarial weak approximator: exact value +/- exactly 2^-r.

    The sign is a deterministic function of the query so reruns agree.
    """

    has_one = True

    def __init__(self, oracle, anchor=None):
        self.oracle = oracle
        self.anchor = anchor
        self.name = f"noisy({oracle.name})"

    def _sign(self, w, r):
        return 1 if (bin(w.k).count("1") + len(w) + r) % 2 == 0 else -1

    def query(self, w, r):
        exact = Fraction(self.oracle.at(w.value()))
        return exact + self._sign(w, r) * Fraction(1, 1 << r)

    def query_one(self, r):
        exact = Fraction(self.oracle.at_one())
        return exact + (1 if r % 2 == 0 else -1) * Fraction(1, 1 << r)


class NoisyApproxMartingale:
    """Adversarial martingale approximator: exact +/- exactly 2^-r."""

    def __init__(self, mart):
        self.mart = mart
        self.name = f"noisy({mart.name})"

    @property
    def conservative(self):
        return self.mart.conservative

    def query(self, w, r):
        exact = Fraction(self.mart.at(w))
        sign = 1 if (w.k + w.n + r) % 2 == 0 else -1
        return exact + sign * Fraction(1, 1 << r)


def exp_interval(t, terms=60):
    """[lo, hi] containing exp(t) for rational t in [0, 1], exact."""
    t = Fraction(t)
    s = Fraction(0)
    term = Fraction(1)
    for n in range(terms):
        s += term
        term = term * t / (n + 1)
    # remaining tail < term * sum (1/ (terms+1))^i <= term * 2 for t <= 1
    return s, s + 2 * term


def sin_interval(t, terms=40):
    """[lo, hi] containing sin(t); alternating series remainder bound."""
    t = Fraction(t)
    s = Fraction(0)
    term = t
    n = 1
    for _ in range(terms):
        s += term
        term = -term * t * t / ((n + 1) * (n + 2))
        n += 2
    lo, hi = sorted((s, s + term))
    return lo, hi


def cos_interval(t, terms=40):
    t = Fraction(t)
    s = Fraction(0)
    term = Fraction(1)
    n = 0
    for _ in range(terms):
        s += term
        term = -term * t * t / ((n + 1) * (n + 2))
        n += 2
    lo, hi = sorted((s, s + term))
    return lo, hi


def ln1p_interval(t, terms=80):
    """[lo, hi] containing ln(1+t) for rational 0 <= t <= 1/2."""
    t = Fraction(t)
    s = Fraction(0)
    term = t
    for n in range(1, terms + 1):
        s += term / n
        term = -term * t
    lo, hi = sorted((s, s + term / (terms + 1)))
    return lo, hi


def in_interval(v, lo, hi, slack):
    """Distance from v to [lo, hi] is at most slack."""
    return lo - slack <= v <= hi + slack


def dyadic_grid(exp):
    """All dyadics k/2^exp in [0, 1]."""
    return [Dyadic(k, exp) for k in range((1 << exp) + 1)]
