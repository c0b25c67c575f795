"""Fraction references for values mod 2Z: the canonical representative and
the one forms display, against which the integer display and JSON of
FiniteQuadraticForm are checked."""

import math
from fractions import Fraction


def canon_mod2(x: Fraction) -> Fraction:
    """Canonical representative of x mod 2Z in [0, 2)."""
    return x - 2 * math.floor(x / 2)


def display_rep(x: Fraction) -> Fraction:
    """Representative of x mod 2Z in (-1, 1], the human-display convention."""
    y = canon_mod2(x)
    return y - 2 if y > 1 else y
