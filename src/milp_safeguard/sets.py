"""Axis-aligned box geometry.

Hypercubes house every set in the toolkit: state/control feasible sets,
the center-zero uncertainty sets (via their half-width vectors), box
obstacles, and reachable-set over-approximations.  An UnsafeRegion holds
its K obstacles as (K, n) arrays, and one separation test answers for all
of them at once: the reach presolve, the audit, the violation check and
the grid oracle all ask it.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np


def _as_vector(v, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr}")
    return arr


def in_box(x, lo, hi, tol: float = 0.0) -> bool:
    """Whether the box [lo, hi], given as arrays, holds x, within tol."""
    return bool(np.all(x >= lo - tol) and np.all(x <= hi + tol))


@dataclass(frozen=True)
class Hypercube:
    """Box [lo, hi] in R^n with lo <= hi elementwise."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _as_vector(self.lo, "lo")
        hi = _as_vector(self.hi, "hi")
        if lo.shape != hi.shape:
            raise ValueError(f"lo/hi shape mismatch: {lo.shape} vs {hi.shape}")
        if np.any(lo > hi):
            raise ValueError(f"inverted bounds: lo={lo} hi={hi}")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def contains(self, x, tol: float = 0.0) -> bool:
        return in_box(np.asarray(x, dtype=float), self.lo, self.hi, tol)

    def sample(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        """Uniform samples; shape (dim,) if n is None else (n, dim)."""
        size = self.dim if n is None else (n, self.dim)
        return rng.uniform(self.lo, self.hi, size=size)


@dataclass(frozen=True)
class UnsafeRegion:
    """Union of K box obstacles of one dimension n, held as the (K, n)
    arrays lo and hi; iterating yields each obstacle as a Hypercube."""

    boxes: InitVar[tuple] = ()
    lo: np.ndarray = field(init=False)
    hi: np.ndarray = field(init=False)

    def __post_init__(self, boxes):
        boxes = tuple(boxes)
        dims = {b.dim for b in boxes}
        if len(dims) > 1:
            raise ValueError(f"obstacle dimensions differ: {sorted(dims)}")
        # With no obstacles, (0, 1) broadcasts against a box of any dimension.
        shape = (len(boxes), dims.pop() if dims else 1)
        for end in ("lo", "hi"):
            arr = np.array([getattr(b, end) for b in boxes]).reshape(shape)
            arr.setflags(write=False)
            object.__setattr__(self, end, arr)

    def __len__(self) -> int:
        return self.lo.shape[0]

    def __iter__(self):
        return map(Hypercube, self.lo, self.hi)

    def separated(self, lo, hi, tol: float = 0.0) -> np.ndarray:
        """Mask of shape (..., K): whether some coordinate separates the box
        [lo, hi], or each box of an (..., n) stack, from each obstacle,
        hi <= o.lo or lo >= o.hi there, within tol.

        These are the MILP's separating rows, which are non-strict, so
        boundary contact counts as separated.  A box flat in some coordinate
        is not separated by that coordinate when it crosses the obstacle's
        open range there.  A box meets no obstacle's interior iff its mask
        is all true.
        """
        lo = np.asarray(lo, dtype=float)[..., None, :]
        hi = np.asarray(hi, dtype=float)[..., None, :]
        return ((hi <= self.lo + tol) | (lo >= self.hi - tol)).any(axis=-1)

    def contains_interior(self, x, tol: float = 0.0) -> bool:
        """True iff x lies in the open interior of some obstacle: no
        coordinate separates the point box [x, x] from it."""
        return not self.separated(x, x, tol).all()
