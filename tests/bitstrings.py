"""Bitstring literals for tests.

Outcome distributions and counts are arrays indexed by basis state; these
helpers let a test write them as `{bitstring: value}` literals and read
them back the same way.
"""

import numpy as np


def dist(literal: dict, dtype=float) -> np.ndarray:
    """The basis-indexed array of a `{bitstring: value}` literal; width from the keys."""
    (n,) = {len(s) for s in literal}
    array = np.zeros(2**n, dtype=dtype)
    for s, v in literal.items():
        array[int(s, 2)] = v
    return array


def labelled(array: np.ndarray) -> dict:
    """`{bitstring: value}` of the array's nonzero entries, for readable asserts."""
    n = len(array).bit_length() - 1
    return {format(i, f"0{n}b"): v for i, v in enumerate(array.tolist()) if v}
