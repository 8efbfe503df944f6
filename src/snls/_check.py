"""Argument checks for the Python API: each returns its argument as a
Python int or float or raises a ValueError "<name> must be <must>, got
<value>".  numpy numbers pass, a bool does not."""

import math
import numbers

# seeds are the first word of the uint64 Philox key
MAX_SEED = 2**64 - 1


def integer(name: str, value, lo=None, hi=None, must=None) -> int:
    """value as an int in lo..hi, each bound where given; `must` words every failure."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be {must or 'an integer'}, got {value!r}")
    n = int(value)
    if (lo is not None and n < lo) or (hi is not None and n > hi):
        bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"{name} must be {must or bounds}, got {n}")
    return n


def real(name: str, value, gt=-math.inf, within=(-math.inf, math.inf), must=None) -> float:
    """value as a finite float > gt in the closed interval `within`; `must` as above."""
    # a float first: the ABC test alone takes about 0.4 us
    is_real = type(value) is float or (
        isinstance(value, numbers.Real) and not isinstance(value, bool))
    try:
        x = float(value) if is_real else math.nan
    except OverflowError:  # an int past the float range
        x = math.nan
    if not (math.isfinite(x) and x > gt and within[0] <= x <= within[1]):
        bounds = "finite" if gt == -math.inf else f"finite and > {gt:g}"
        raise ValueError(f"{name} must be {must or bounds}, got {value!r}")
    return x


def seed(value) -> int:
    """value as an int in 0..2^64-1."""
    return integer("seed", integer("seed", value), 0, MAX_SEED, must="in 0..2^64-1")
