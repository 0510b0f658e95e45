import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from milp_safeguard.sets import Hypercube, UnsafeRegion

from helpers import center, concat, contains_box, inflate, intersect


def box(lo, hi):
    return Hypercube(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))


def disjoint(h, region, tol=0.0):
    """Whether h meets no obstacle's interior, by the region's mask."""
    return bool(region.separated(h.lo, h.hi, tol).all())


# The one-box loops that the region's mask replaced, kept as its reference.
def separated_reference(h, obs, tol=0.0):
    return bool(np.any(h.hi <= obs.lo + tol) or np.any(h.lo >= obs.hi - tol))


def contains_interior_reference(boxes, x, tol=0.0):
    for b in boxes:
        if np.all(x > b.lo + tol) and np.all(x < b.hi - tol):
            return True
    return False


def test_basic_properties():
    h = box([0, -1], [2, 3])
    assert h.dim == 2
    assert np.allclose(center(h), [1, 1])
    assert h.contains(np.array([0.0, 3.0]))
    assert not h.contains(np.array([2.1, 0.0]))


def test_degenerate_box_allowed():
    x = np.array([1.0, 2.0])
    h = Hypercube(x, x)
    assert h.contains(x)
    assert not h.contains(np.array([1.0, 2.0 + 1e-12]))
    assert np.array_equal(h.lo, h.hi)


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
    h = concat(box([0], [1]), box([2, 3], [4, 5]))
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
    assert disjoint(box([0, 0], [1, 1]), region)
    assert not disjoint(box([0.5, 0], [1.5, 1]), region)


def test_flat_box_across_an_obstacle_is_not_disjoint():
    region = UnsafeRegion((box([1, 0], [2, 1]),))
    # Flat in y inside the open y range: only x could separate it.
    assert not disjoint(box([0, 0.5], [3, 0.5]), region)
    assert not disjoint(box([1.5, 0.5], [1.5, 0.5]), region)
    # Flat on the obstacle's face, or beside it.
    assert disjoint(box([0, 1], [3, 1]), region)
    assert disjoint(box([0.5, 0.5], [1, 0.5]), region)


def test_region_holds_its_obstacles_as_arrays():
    obstacles = (box([1, 0], [2, 1]), box([-3, 4], [-2, 6]))
    region = UnsafeRegion(obstacles)
    assert len(region) == 2
    assert np.array_equal(region.lo, [[1, 0], [-3, 4]])
    assert np.array_equal(region.hi, [[2, 1], [-2, 6]])
    with pytest.raises(ValueError):
        region.lo[0, 0] = 5.0
    for got, want in zip(region, obstacles, strict=True):
        assert isinstance(got, Hypercube)
        assert np.array_equal(got.lo, want.lo)
        assert np.array_equal(got.hi, want.hi)
    # A stack of boxes gets one row of the mask per box.
    lo = np.array([[[0, 0], [1.5, 0.5]], [[-2.5, 5], [0, 1]]], dtype=float)
    mask = region.separated(lo, lo + 0.5)
    assert mask.shape == (2, 2, 2)
    assert mask.tolist() == [[[True, True], [False, True]],
                             [[True, False], [True, True]]]


def test_mixed_obstacle_dimensions_rejected():
    with pytest.raises(ValueError, match="dimensions differ"):
        UnsafeRegion((box([0, 0], [1, 1]), box([0], [1])))


def test_empty_region_separates_every_box():
    region = UnsafeRegion(())
    assert len(region) == 0 and list(region) == []
    for n in (1, 3):
        assert region.separated(np.zeros(n), np.ones(n)).shape == (0,)
        assert not region.contains_interior(np.zeros(n))
    assert region.separated(np.zeros((4, 2)), np.ones((4, 2))).shape == (4, 0)


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
    assert contains_box(a, c, tol=1e-12)
    assert contains_box(b, c, tol=1e-12)


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
    assert contains_box(inflate(h, eps), h, tol=1e-12)


def _coordinates(draw, n, k):
    # Coordinates on a coarse grid make face contact and shared ends
    # common; some widths are zero, so flat boxes and points come up.
    return draw(arrays(float, (k, n), elements=st.sampled_from(
        [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 1e-9, -1e-9])))


@st.composite
def obstacles_and_boxes(draw):
    n = draw(st.integers(1, 3))
    K = draw(st.integers(0, 20))
    corner = _coordinates(draw, n, K)
    width = np.abs(_coordinates(draw, n, K))
    obstacles = tuple(Hypercube(a, a + w) for a, w in zip(corner, width))
    m = draw(st.integers(1, 6))
    lo = _coordinates(draw, n, m)
    hi = lo + np.abs(_coordinates(draw, n, m)) * draw(st.sampled_from([0, 1]))
    return obstacles, lo, hi


@given(obstacles_and_boxes(), st.sampled_from([0.0, 1e-9]))
@settings(max_examples=300)
def test_mask_matches_the_one_box_loops(case, tol):
    obstacles, lo, hi = case
    region = UnsafeRegion(obstacles)
    mask = region.separated(lo, hi, tol)
    assert mask.shape == (len(lo), len(obstacles))
    for i, (a, b) in enumerate(zip(lo, hi)):
        h = Hypercube(a, b)
        assert mask[i].tolist() == [separated_reference(h, obs, tol)
                                    for obs in obstacles]
        assert np.array_equal(region.separated(a, b, tol), mask[i])
        assert (region.contains_interior(a, tol)
                == contains_interior_reference(obstacles, a, tol))
