"""dymart: exact dyadic-rational martingale machinery.

Modules follow the functional split:

- ``dyadic``     exact numbers, words, the interval of a word (``gamma``),
                 grid rounding, covers
- ``martingale`` betting strategies, conservative transform, traces,
                 the exhaustive martingale checks
- ``report``     the reports of the exhaustive checks (``Report``,
                 ``Violation``)
- ``kernels``    the product-form block walk (block sums and maxima)
- ``funcs``      exact/approximate real-function contracts and the image
                 of a word's interval (``word_image``)
- ``tightness``  zero-insertion functions and their betting strategies
- ``pullback``   interval shifts and the pullback martingale approximation
- ``patch``      monotonization of non-monotone functions
- ``analytic``   certified power-series evaluation and root finding
- ``measure``    probability measures on words vs. cumulative functions
- ``verify``     the invariant suites behind ``dymart verify``
- ``config``     textual specs of named objects and config files
- ``errors``     the package's exception types
- ``cli``        command-line front end

Importing the package loads only ``dyadic`` and ``errors``.
"""

from .dyadic import (Dyadic, Word, gamma, lex_successor,
                     round_to_grid, clamp_unit, minimal_cover,
                     parse_rational, fmt_rational)

__all__ = [
    "Dyadic", "Word", "gamma", "lex_successor",
    "round_to_grid", "clamp_unit", "minimal_cover", "parse_rational",
    "fmt_rational",
]

__version__ = "0.1.0"
