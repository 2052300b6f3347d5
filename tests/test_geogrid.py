import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobsynth.errors import ParseError, RangeError
from mobsynth.geogrid import (MAX_LEVEL, GridSpec, cell_from_position,
                              curve_position, decode, encode,
                              _index_to_xy, _xy_to_index)

BOX = GridSpec(45.8, 47.8, 5.9, 10.5, level=8)


# -- scalar reference: the per-point codec the array codec replaced ---------

def ref_xy_to_index(n_side: int, x: int, y: int) -> int:
    d = 0
    s = n_side // 2
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s //= 2
    return d


def ref_index_to_xy(n_side: int, d: int) -> tuple[int, int]:
    x = y = 0
    t = d
    s = 1
    while s < n_side:
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        x += s * rx
        y += s * ry
        t //= 4
        s *= 2
    return x, y


def ref_encode(spec: GridSpec, lat: float, lon: float) -> int:
    if not spec.lat_min <= lat <= spec.lat_max:
        raise RangeError(f"latitude {lat} outside [{spec.lat_min}, {spec.lat_max}]")
    if not spec.lon_min <= lon <= spec.lon_max:
        raise RangeError(f"longitude {lon} outside [{spec.lon_min}, {spec.lon_max}]")
    last = spec.n_side - 1
    row = min(int(math.floor((lat - spec.lat_min) / spec.cell_height)), last)
    col = min(int(math.floor((lon - spec.lon_min) / spec.cell_width)), last)
    return ref_xy_to_index(spec.n_side, col, row)


def ref_decode(spec: GridSpec, cell: int) -> tuple[float, float]:
    col, row = ref_index_to_xy(spec.n_side, int(cell))
    return (spec.lat_min + (row + 0.5) * spec.cell_height,
            spec.lon_min + (col + 0.5) * spec.cell_width)


class TestGridSpec:
    def test_counts(self):
        assert BOX.n_side == 256
        assert BOX.n_cells == 65536
        assert BOX.cell_height == pytest.approx(2.0 / 256)
        assert BOX.cell_width == pytest.approx(4.6 / 256)

    def test_validation(self):
        for bounds, level in [((1.0, 1.0, 0.0, 1.0), 8),
                              ((0.0, 1.0, 2.0, 1.0), 8),
                              ((0.0, 1.0, 0.0, 1.0), 0),
                              ((0.0, 1.0, 0.0, 1.0), 17),
                              # a box must be finite
                              ((-math.inf, math.inf, 0.0, 1.0), 8),
                              ((0.0, 1.0, 0.0, math.inf), 8),
                              ((math.nan, 1.0, 0.0, 1.0), 8)]:
            with pytest.raises(RangeError):
                GridSpec(*bounds, level=level)

    def test_dict_roundtrip(self):
        assert GridSpec.from_dict(BOX.to_dict()) == BOX

    @pytest.mark.parametrize("damage, field", [
        ({"level": None}, "grid_spec.level"),
        ({"level": "x"}, "grid_spec.level"),
        ({"level": 8.0}, "grid_spec.level"),
        ({"level": 17}, "level must be"),
        ({"lat_min": True}, "grid_spec.lat_min"),
        ({"lon_max": "10.5"}, "grid_spec.lon_max"),
        ({"lat_max": 40.0}, "lat_min < lat_max"),
        ({"lon_min": -math.inf}, "lon_min < lon_max"),
    ])
    def test_from_dict_names_the_bad_field(self, damage, field):
        d = {**BOX.to_dict(), **damage}
        d = {k: v for k, v in d.items() if v is not None}
        with pytest.raises(ParseError, match=field):
            GridSpec.from_dict(d)
        with pytest.raises(ParseError, match="grid_spec"):
            GridSpec.from_dict([1, 2])


class TestHilbertIndex:
    def test_origin_is_southwest(self):
        spec = GridSpec(0.0, 1.0, 0.0, 1.0, level=2)
        assert encode(spec, 0.0, 0.0) == 0

    def test_walk_is_adjacent(self):
        # at level 2 the full curve visits all 16 cells, each step moving to
        # an edge neighbour; verified by brute force over the index walk
        n_side = 4
        x, y = _index_to_xy(n_side, np.arange(16))
        assert _xy_to_index(n_side, x, y).tolist() == list(range(16))
        assert len(set(zip(x.tolist(), y.tolist()))) == 16
        assert np.all(np.abs(np.diff(x)) + np.abs(np.diff(y)) == 1)

    def test_index_roundtrip_level8(self):
        d = np.random.default_rng(7).integers(0, 256 * 256, size=200)
        x, y = _index_to_xy(256, d)
        assert np.array_equal(_xy_to_index(256, x, y), d)


class TestArrayCodecExactness:
    """The array codec against the scalar per-point reference above."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, MAX_LEVEL), st.data())
    def test_index_matches_scalar_reference(self, level, data):
        n_side = 1 << level
        coord = st.integers(0, n_side - 1)
        xs = data.draw(st.lists(coord, min_size=1, max_size=40))
        ys = data.draw(st.lists(coord, min_size=len(xs), max_size=len(xs)))
        # the curve's corners and the cells around the middle of the grid
        edges = [0, n_side // 2 - 1, n_side // 2, n_side - 1]
        xs += edges * 4
        ys += [e for e in edges for _ in range(4)]
        x, y = np.array(xs), np.array(ys)
        d = _xy_to_index(n_side, x, y)
        assert d.dtype == np.int64
        assert d.tolist() == [ref_xy_to_index(n_side, a, b) for a, b in zip(xs, ys)]
        back = _index_to_xy(n_side, d)
        assert [back[0].tolist(), back[1].tolist()] == [xs, ys]
        idx = data.draw(st.lists(st.integers(0, n_side * n_side - 1), max_size=40))
        idx += [0, n_side * n_side - 1]
        gx, gy = _index_to_xy(n_side, np.array(idx, dtype=np.int64))
        assert list(zip(gx.tolist(), gy.tolist())) == [ref_index_to_xy(n_side, i) for i in idx]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, MAX_LEVEL), st.data())
    def test_encode_decode_match_scalar_reference(self, level, data):
        spec = GridSpec(45.8, 47.8, 5.9, 10.5, level=level)
        lats = data.draw(st.lists(st.floats(45.8, 47.8), min_size=1, max_size=30))
        lons = data.draw(st.lists(st.floats(5.9, 10.5), min_size=len(lats),
                                  max_size=len(lats)))
        # min and max box edges, and interior cell boundaries (where float
        # rounding decides the cell)
        k = data.draw(st.integers(0, spec.n_side))
        lat_k = spec.lat_min + k * spec.cell_height
        lon_k = spec.lon_min + k * spec.cell_width
        lats += [spec.lat_min, spec.lat_max, lat_k, np.nextafter(lat_k, -math.inf),
                 spec.lat_min, spec.lat_max]
        lons += [spec.lon_min, spec.lon_max, lon_k, np.nextafter(lon_k, math.inf),
                 spec.lon_max, spec.lon_min]
        lats = [min(max(v, spec.lat_min), spec.lat_max) for v in lats]
        lons = [min(max(v, spec.lon_min), spec.lon_max) for v in lons]
        cells = encode(spec, np.array(lats), np.array(lons))
        assert cells.dtype == np.int64
        assert cells.tolist() == [ref_encode(spec, a, o) for a, o in zip(lats, lons)]
        lat, lon = decode(spec, cells)
        assert lat.dtype == lon.dtype == np.float64
        # bit-identical floats, so repr (the corpus file) is identical too
        assert list(zip(lat.tolist(), lon.tolist())) == [ref_decode(spec, c) for c in cells]
        # round trip: a cell centre encodes back to its cell
        assert np.array_equal(encode(spec, lat, lon), cells)


class TestEncodeDecode:
    def test_decode_center_reencodes(self):
        cells = np.random.default_rng(3).integers(0, BOX.n_cells, size=200)
        assert np.array_equal(encode(BOX, *decode(BOX, cells)), cells)

    def test_out_of_box_raises(self):
        with pytest.raises(RangeError, match="latitude 45.0 "):
            encode(BOX, [46.0, 45.0, 44.0], [6.0, 6.0, 6.0])
        with pytest.raises(RangeError, match="longitude 11.0 "):
            encode(BOX, [46.0, 46.0], [7.0, 11.0])
        with pytest.raises(RangeError, match="latitude nan "):
            encode(BOX, [math.nan], [7.0])

    def test_max_edges_belong_to_grid(self):
        # closed box corners must encode without error
        lat = np.array([BOX.lat_min, BOX.lat_min, BOX.lat_max, BOX.lat_max])
        lon = np.array([BOX.lon_min, BOX.lon_max, BOX.lon_min, BOX.lon_max])
        c = encode(BOX, lat, lon)
        assert np.all((0 <= c) & (c < BOX.n_cells))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(45.8, 47.8), st.floats(5.9, 10.5))
    def test_decode_stays_in_cell(self, lat, lon):
        c_lat, c_lon = decode(BOX, encode(BOX, lat, lon))
        assert abs(c_lat - lat) <= BOX.cell_height
        assert abs(c_lon - lon) <= BOX.cell_width

    def test_decode_bad_cell(self):
        with pytest.raises(RangeError, match="cell index -1 "):
            decode(BOX, [0, -1])
        with pytest.raises(RangeError, match=f"cell index {BOX.n_cells} "):
            decode(BOX, [BOX.n_cells])

    def test_empty_arrays(self):
        assert encode(BOX, [], []).shape == (0,)
        assert decode(BOX, [])[0].shape == (0,)


class TestCurvePosition:
    def test_position_formula(self):
        spec = GridSpec(0.0, 1.0, 0.0, 1.0, level=1)
        assert curve_position(spec, np.array([0, 3])).tolist() == [0.125, 0.875]
        assert curve_position(spec, np.array([1, 2]), np.array([0.0, 0.5])).tolist() == \
            [0.25, 0.625]

    def test_floor_inverts_position(self):
        rng = np.random.default_rng(5)
        cells = rng.integers(0, BOX.n_cells, size=100)
        pos = curve_position(BOX, cells)
        assert np.array_equal(cell_from_position(BOX, pos), cells)
        jitter = (rng.uniform(size=100) - 0.5) / BOX.n_cells
        assert np.array_equal(cell_from_position(BOX, pos + 0.999 * jitter), cells)
        within = rng.uniform(size=100)
        assert np.array_equal(cell_from_position(BOX, curve_position(BOX, cells, within)),
                              cells)

    def test_position_clamps(self):
        assert cell_from_position(BOX, np.array([-0.1, -1.5, 1.1])).tolist() == \
            [0, 0, BOX.n_cells - 1]

    def test_locality(self):
        # consecutive curve indices are neighbouring cells, so nearby
        # positions decode to nearby points
        lat, lon = decode(BOX, [1000, 1001])
        assert abs(lat[0] - lat[1]) + abs(lon[0] - lon[1]) <= (
            BOX.cell_height + BOX.cell_width + 1e-12)
