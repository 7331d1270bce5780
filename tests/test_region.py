"""Region algebra: pinned examples plus algebraic property tests."""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from boxmodal import (
    OMEGA,
    Box,
    DimensionMismatch,
    EmptyRegionError,
    Interval,
    OrderKind,
    Region,
    box,
    empty_region,
    full,
    point_region,
    region,
    upper_quadrant,
)

LE = OrderKind.REFLEXIVE
LT = OrderKind.STRICT


def grid_points(dim, bound):
    return itertools.product(range(bound + 1), repeat=dim)


def same_on_grid(a: Region, b: Region, bound: int) -> bool:
    return all(a.member(u) == b.member(u) for u in grid_points(a.dim, bound))


@st.composite
def regions(draw, dim=None, max_const=6, max_boxes=3):
    if dim is None:
        dim = draw(st.integers(1, 3))
    boxes = []
    for _ in range(draw(st.integers(0, max_boxes))):
        ivs = []
        for _ in range(dim):
            lo = draw(st.integers(0, max_const))
            hi = draw(st.one_of(st.none(), st.integers(lo, max_const)))
            ivs.append(Interval(lo, hi))
        boxes.append(Box(tuple(ivs)))
    return Region(dim, tuple(boxes))


class TestBasics:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            Interval(3, 1)
        with pytest.raises(ValueError):
            Interval(-1, 2)
        assert Interval(2, OMEGA).contains(10**9)

    def test_intersect_example(self):
        a = region(box((2, OMEGA), (0, 5)))
        b = region(box((0, 3), (3, OMEGA)))
        assert a.intersect(b).equal(region(box((2, 3), (3, 5))))

    def test_complement_of_quadrant(self):
        co = upper_quadrant(2, 1).complement()
        expected = region(box(0, (0, OMEGA)), box((1, OMEGA), 0))
        assert co.equal(expected)

    def test_subset_reflexive_origin(self):
        origin = point_region(0, 0)
        assert origin.subset(origin.downset(LE))

    def test_member(self):
        assert region(box((0, 2), (3, OMEGA))).member((2, 3))
        assert not region(box((0, 2), (3, OMEGA))).member((3, 3))
        with pytest.raises(DimensionMismatch):
            region(box((0, 2), (3, OMEGA))).member((1,))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            full(2).union(full(3))

    def test_empty_region_ops(self):
        e = empty_region(2)
        assert e.is_empty()
        assert e.complement().equal(full(2))
        assert e.downset(LE).is_empty()


class TestDownset:
    def test_reflexive(self):
        v = region(box((2, OMEGA), (3, 5)))
        assert v.downset(LE).equal(region(box((0, OMEGA), (0, 5))))

    def test_strict(self):
        v = region(box((2, 4), (3, 5)))
        assert v.downset(LT).equal(region(box((0, 3), (0, 4))))

    def test_strict_at_zero(self):
        assert point_region(0).downset(LT).is_empty()

    def test_empty(self):
        assert empty_region(2).downset(LE).is_empty()


class TestCoordinateAnalysis:
    def test_fiber(self):
        v = region(box(2, (1, OMEGA)))
        assert v.varying_coords() == {1}
        assert v.hull().equal(region(box(2, (0, OMEGA))))

    def test_singleton(self):
        v = point_region(3, 4)
        assert v.varying_coords() == frozenset()
        assert v.hull().equal(v)

    def test_two_points(self):
        v = point_region(0, 0).union(point_region(1, 1))
        assert v.varying_coords() == {0, 1}
        assert v.hull().equal(full(2))

    def test_empty_rejected(self):
        with pytest.raises(EmptyRegionError):
            empty_region(2).hull()
        with pytest.raises(EmptyRegionError):
            empty_region(2).varying_coords()


class TestCofinality:
    def test_two_points_not_precofinal(self):
        # Independent check by grid enumeration: hull is the whole plane,
        # the down-closure only reaches [0,1]^2.
        v = point_region(0, 0).union(point_region(1, 1))
        down = v.downset(LE)
        hull = v.hull()
        witnesses = [u for u in grid_points(2, 3) if hull.member(u) and not down.member(u)]
        assert witnesses
        assert not hull.subset(down)

    def test_cofinal_in_space(self):
        assert upper_quadrant(2, 1).is_cofinal_in_space()
        assert not region(box((0, 3), (0, OMEGA))).is_cofinal_in_space()


class TestGeometryHelpers:
    def test_upper_quadrant(self):
        assert upper_quadrant(2, 2).equal(region(box((2, OMEGA), (2, OMEGA))))

    def test_max_constant(self):
        assert region(box((2, OMEGA), (3, 5))).max_constant() == 5
        assert empty_region(2).max_constant() == 0
        assert full(3).max_constant() == 0

    def test_translate(self):
        v = region(box((1, 3), (2, OMEGA)))
        assert v.translate(2).equal(region(box((3, 5), (4, OMEGA))))
        assert v.translate(2).translate(-2).equal(v)
        with pytest.raises(ValueError):
            v.translate(-2)

    def test_drop_insert_roundtrip(self):
        # The face x0 = 0 of [1, w) on the line: inserting the dropped coordinate.
        line = region(box((1, OMEGA)))
        assert line.insert_coords({0}, 0).equal(region(box(0, (1, OMEGA))))

    def test_insert_positions_are_result_indexed(self):
        v = region(box((1, 2)))
        out = v.insert_coords({0, 2}, 5)
        assert out.equal(region(box(5, (1, 2), 5)))


class TestJson:
    def test_roundtrip(self):
        v = region(box((2, OMEGA), (0, 5)), box(1, (3, 3)))
        back = Region.from_json(v.to_json())
        assert back.equal(v)

    def test_null_is_unbounded(self):
        r = Region.from_json({"dim": 1, "boxes": [[[2, None]]]})
        assert r.equal(upper_quadrant(1, 2))

    def test_errors(self):
        with pytest.raises(ValueError):
            Region.from_json({"dim": 0, "boxes": []})
        with pytest.raises(ValueError):
            Region.from_json({"dim": 2, "boxes": [[[0, 1]]]})
        with pytest.raises(ValueError):
            Region.from_json({"dim": 1, "boxes": [[[3, 1]]]})


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(regions())
    def test_double_complement(self, r):
        assert r.complement().complement().equal(r)

    @settings(max_examples=60, deadline=None)
    @given(regions(dim=2), regions(dim=2))
    def test_de_morgan(self, a, b):
        assert a.union(b).complement().equal(a.complement().intersect(b.complement()))
        assert a.intersect(b).complement().equal(a.complement().union(b.complement()))

    @settings(max_examples=60, deadline=None)
    @given(regions(dim=2), regions(dim=2))
    def test_subset_antisymmetry(self, a, b):
        if a.subset(b) and b.subset(a):
            assert a.equal(b)

    @settings(max_examples=150, deadline=None)
    @given(regions(dim=2), st.data())
    def test_equal_is_subset_both_ways(self, a, data):
        # Equal boxes (a copy) take the fast path; the others compare point sets.
        b = data.draw(st.sampled_from([
            Region(2, tuple(a.boxes)),
            Region(2, a.boxes[::-1]),
            a.normalize(),
            a.union(data.draw(regions(dim=2))),
            data.draw(regions(dim=2)),
        ]))
        assert a.equal(b) == (a.subset(b) and b.subset(a))
        assert b.equal(a) == a.equal(b)

    def test_equal_regions_of_other_dimensions_raise(self):
        with pytest.raises(DimensionMismatch):
            empty_region(2).equal(empty_region(3))

    @settings(max_examples=60, deadline=None)
    @given(regions())
    def test_normalize_preserves_semantics(self, r):
        assert r.normalize().equal(r)

    @settings(max_examples=60, deadline=None)
    @given(regions())
    def test_downset_laws(self, r):
        le = r.downset(LE)
        lt = r.downset(LT)
        assert r.subset(le)
        assert le.downset(LE).equal(le)
        assert lt.subset(le)

    @settings(max_examples=40, deadline=None)
    @given(regions(dim=2), regions(dim=2))
    def test_downset_monotone(self, a, b):
        u = a.union(b)
        for order in (LE, LT):
            assert a.downset(order).subset(u.downset(order))

    @settings(max_examples=40, deadline=None)
    @given(regions(dim=2, max_const=4))
    def test_min_point_is_least_member(self, r):
        if r.is_empty():
            return
        mp = r.min_point()
        assert r.member(mp)
        bound = r.max_constant() + 1
        members = [u for u in grid_points(2, bound) if r.member(u)]
        assert mp == min(members)

    @settings(max_examples=40, deadline=None)
    @given(regions(dim=2, max_const=4))
    def test_downset_against_bruteforce(self, r):
        # Independent witness search on a safely clamped grid.
        bound = 5
        m = max(bound, r.max_constant()) + 1
        pts = [v for v in grid_points(2, m) if r.member(v)]
        for order, sees in ((LE, lambda u, v: all(x <= y for x, y in zip(u, v))),
                            (LT, lambda u, v: all(x < y for x, y in zip(u, v)))):
            down = r.downset(order)
            for u in grid_points(2, bound):
                assert down.member(u) == any(sees(u, v) for v in pts)

    @settings(max_examples=40, deadline=None)
    @given(regions(dim=2, max_const=4))
    def test_hull_properties(self, r):
        if r.is_empty():
            return
        assert r.subset(r.hull())
        assert r.hull().varying_coords() == r.varying_coords()
