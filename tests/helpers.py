"""Box helpers that only the tests use, kept out of the package."""

import numpy as np

from milp_safeguard.sets import Hypercube


def intersect(a: Hypercube, b: Hypercube) -> Hypercube | None:
    """Componentwise intersection; None when empty."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    lo = np.maximum(a.lo, b.lo)
    hi = np.minimum(a.hi, b.hi)
    if np.any(lo > hi):
        return None
    return Hypercube(lo, hi)
