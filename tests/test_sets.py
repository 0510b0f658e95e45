import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from milp_safeguard.sets import (
    Hypercube,
    UnsafeRegion,
    disjoint_from_region,
    inflate,
    intersect,
    measurement_box,
)


def box(lo, hi):
    return Hypercube(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))


def test_basic_properties():
    h = box([0, -1], [2, 3])
    assert h.dim == 2
    assert np.allclose(h.center, [1, 1])
    assert np.allclose(h.half_width, [1, 2])
    assert h.contains(np.array([0.0, 3.0]))
    assert not h.contains(np.array([2.1, 0.0]))


def test_degenerate_box_allowed():
    h = Hypercube.point(np.array([1.0, 2.0]))
    assert h.contains(np.array([1.0, 2.0]))
    assert np.allclose(h.half_width, 0.0)


def test_inverted_bounds_rejected():
    with pytest.raises(ValueError):
        box([1.0], [0.0])


def test_lo_hi_read_only():
    h = box([0.0], [1.0])
    with pytest.raises(ValueError):
        h.lo[0] = 5.0


def test_intersect():
    a = box([0, 0], [2, 2])
    b = box([1, 1], [3, 3])
    c = intersect(a, b)
    assert np.allclose(c.lo, [1, 1]) and np.allclose(c.hi, [2, 2])
    assert intersect(a, box([3, 3], [4, 4])) is None
    # Touching boxes intersect in a degenerate box, not None.
    touch = intersect(a, box([2, 0], [3, 2]))
    assert touch is not None
    assert np.allclose(touch.lo, [2, 0]) and np.allclose(touch.hi, [2, 2])


def test_inflate():
    h = inflate(box([0, 0], [1, 1]), np.array([0.5, 0.25]))
    assert np.allclose(h.lo, [-0.5, -0.25])
    assert np.allclose(h.hi, [1.5, 1.25])


def test_concat():
    h = box([0], [1]).concat(box([2, 3], [4, 5]))
    assert np.allclose(h.lo, [0, 2, 3])
    assert np.allclose(h.hi, [1, 4, 5])


def test_unsafe_region_interior():
    region = UnsafeRegion((box([0, 0], [1, 1]),))
    assert region.contains_interior(np.array([0.5, 0.5]))
    # Boundary points are not in the open interior.
    assert not region.contains_interior(np.array([0.0, 0.5]))
    assert not region.contains_interior(np.array([2.0, 2.0]))


def test_disjointness_boundary_contact_is_safe():
    region = UnsafeRegion((box([1, 0], [2, 1]),))
    assert disjoint_from_region(box([0, 0], [1, 1]), region)
    assert not disjoint_from_region(box([0.5, 0], [1.5, 1]), region)


def test_flat_box_across_an_obstacle_is_not_disjoint():
    region = UnsafeRegion((box([1, 0], [2, 1]),))
    # Flat in y inside the open y range: only x could separate it.
    assert not disjoint_from_region(box([0, 0.5], [3, 0.5]), region)
    assert not disjoint_from_region(box([1.5, 0.5], [1.5, 0.5]), region)
    # Flat on the obstacle's face, or beside it.
    assert disjoint_from_region(box([0, 1], [3, 1]), region)
    assert disjoint_from_region(box([0.5, 0.5], [1, 0.5]), region)


def test_measurement_box_clamps_to_state_set():
    X = box([0, 0], [10, 10])
    mb = measurement_box(np.array([0.02, 5.0]), np.array([0.05, 0.05]), X)
    assert np.allclose(mb.lo, [0.0, 4.95])
    assert np.allclose(mb.hi, [0.07, 5.05])


def test_measurement_box_outside_state_set_is_none():
    X = box([0, 0], [10, 10])
    assert measurement_box(np.array([-1.0, 5.0]), np.array([0.05, 0.05]), X) is None


finite = st.floats(-50, 50, allow_nan=False)


@st.composite
def hypercubes(draw, dim=2):
    lo = draw(arrays(float, dim, elements=finite))
    width = draw(arrays(float, dim, elements=st.floats(0, 20)))
    return Hypercube(lo, lo + width)


@given(hypercubes(), hypercubes())
@settings(max_examples=200)
def test_intersect_commutes_and_is_contained(a, b):
    c = intersect(a, b)
    c2 = intersect(b, a)
    if c is None:
        assert c2 is None
        return
    assert np.allclose(c.lo, c2.lo) and np.allclose(c.hi, c2.hi)
    assert a.contains_box(c, tol=1e-12)
    assert b.contains_box(c, tol=1e-12)


@given(hypercubes(), st.integers(0, 2**32 - 1), st.integers(1, 20))
@settings(max_examples=100)
def test_samples_are_members(h, seed, n):
    pts = h.sample(np.random.default_rng(seed), n)
    assert pts.shape == (n, h.dim)
    for p in pts:
        assert h.contains(p, tol=1e-12)


@given(hypercubes(), arrays(float, 2, elements=st.floats(0, 5)))
@settings(max_examples=100)
def test_inflate_contains_original(h, eps):
    assert inflate(h, eps).contains_box(h, tol=1e-12)
