"""Box, dataset and solve helpers that only the tests use, kept out of the
package."""

import numpy as np

from milp_safeguard.encoder import OPTIMAL, solve_tracking
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


def inflate(h: Hypercube, eps) -> Hypercube:
    """Minkowski sum with the center-zero box of half-widths eps >= 0."""
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    if eps.shape != (h.dim,):
        raise ValueError(f"dimension mismatch: {h.dim} vs {eps.shape}")
    if np.any(eps < 0):
        raise ValueError(f"negative inflation: {eps}")
    return Hypercube(h.lo - eps, h.hi + eps)


def center(h: Hypercube) -> np.ndarray:
    """The midpoint of the box."""
    return 0.5 * (h.lo + h.hi)


def concat(a: Hypercube, b: Hypercube) -> Hypercube:
    """The product box a x b."""
    return Hypercube(np.concatenate([a.lo, b.lo]),
                     np.concatenate([a.hi, b.hi]))


def contains_box(outer: Hypercube, inner: Hypercube, tol: float = 0.0) -> bool:
    """Whether outer holds inner, within tol."""
    return bool(np.all(inner.lo >= outer.lo - tol)
                and np.all(inner.hi <= outer.hi + tol))


def inputs(data) -> np.ndarray:
    """A learner.Dataset's net inputs, one row [x, u] per sample."""
    return np.hstack([data.x, data.u])


def decide(p, y, x_ref, cfg=None, **kwargs):
    """The decision of a tracking step (encoder.solve_tracking) that must
    reach Optimal."""
    out = solve_tracking(p, y, x_ref, cfg, **kwargs)
    assert out.status == OPTIMAL, f"{out.status}: {out.reason}"
    return out.decision
