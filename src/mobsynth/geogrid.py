"""Uniform grid over a lat/lon bounding box, indexed by a Hilbert curve.

Cells are addressed by their position along the Hilbert curve of order
``level`` so that consecutive indices are edge-adjacent grid cells.  The
curve index doubles as a locality-preserving one-dimensional embedding of
space: ``curve_position`` maps cells into the unit interval.  Every function
takes arrays; ``encode`` and ``decode`` walk the curve one bit level at a
time over all points at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, fields

import numpy as np

from .errors import ParseError, RangeError

MAX_LEVEL = 16


@dataclass(frozen=True)
class GridSpec:
    """Bounding box plus subdivision level; the grid is 2^level x 2^level."""

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float
    level: int = 8

    def __post_init__(self):
        if not -math.inf < self.lat_min < self.lat_max < math.inf:
            raise RangeError(f"need finite lat_min < lat_max, got [{self.lat_min}, {self.lat_max}]")
        if not -math.inf < self.lon_min < self.lon_max < math.inf:
            raise RangeError(f"need finite lon_min < lon_max, got [{self.lon_min}, {self.lon_max}]")
        if not 1 <= self.level <= MAX_LEVEL:
            raise RangeError(f"level must be in [1, {MAX_LEVEL}], got {self.level}")

    @property
    def n_side(self) -> int:
        return 1 << self.level

    @property
    def n_cells(self) -> int:
        return 1 << (2 * self.level)

    @property
    def cell_height(self) -> float:
        return (self.lat_max - self.lat_min) / self.n_side

    @property
    def cell_width(self) -> float:
        return (self.lon_max - self.lon_min) / self.n_side

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d) -> "GridSpec":
        """Inverse of :meth:`to_dict` for the ``grid_spec`` of a file: a
        missing, mistyped or out-of-range field is a ParseError naming it."""
        if not isinstance(d, dict):
            raise ParseError(f"grid_spec: expected an object, got {type(d).__name__}")
        for f in fields(cls):
            value = d.get(f.name)
            if type(value) not in ((int,) if f.name == "level" else (int, float)):
                raise ParseError(f"grid_spec.{f.name}: expected {f.type}, got {value!r}")
        try:
            return cls(*(float(d[k]) for k in ("lat_min", "lat_max", "lon_min", "lon_max")),
                       level=d["level"])
        except RangeError as exc:
            raise ParseError(f"grid_spec: {exc}") from exc


def _xy_to_index(n_side: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Hilbert curve index of each grid cell (x, y); (0, 0) maps to 0."""
    d = np.zeros_like(x)
    s = n_side // 2
    while s > 0:
        rx = (x & s) > 0
        ry = (y & s) > 0
        d += s * s * ((3 * rx) ^ ry)
        # rotate the quadrant so that its sub-curve starts at the origin
        flip = rx & ~ry
        x = np.where(flip, s - 1 - x, x)
        y = np.where(flip, s - 1 - y, y)
        x, y = np.where(ry, x, y), np.where(ry, y, x)
        s //= 2
    return d


def _index_to_xy(n_side: int, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`_xy_to_index` for indices in [0, n_side^2)."""
    x = np.zeros_like(d)
    y = np.zeros_like(d)
    s = 1
    while s < n_side:
        rx = 1 & (d >> 1)
        ry = 1 & (d ^ rx)
        flip = (rx == 1) & (ry == 0)
        x = np.where(flip, s - 1 - x, x)
        y = np.where(flip, s - 1 - y, y)
        x, y = np.where(ry == 0, y, x), np.where(ry == 0, x, y)
        x += s * rx
        y += s * ry
        d = d >> 2
        s *= 2
    return x, y


def encode(spec: GridSpec, lat, lon) -> np.ndarray:
    """Map points to the Hilbert indices (int64) of their containing cells.

    Cells are half-open: a point on an interior boundary belongs to the
    cell with the larger coordinate.  Points on the box's max edges fall
    into the last cell.  A point outside the box is a RangeError naming it.
    """
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    _check_range("latitude", lat, spec.lat_min, spec.lat_max)
    _check_range("longitude", lon, spec.lon_min, spec.lon_max)
    last = spec.n_side - 1
    row = np.minimum(np.floor((lat - spec.lat_min) / spec.cell_height).astype(np.int64), last)
    col = np.minimum(np.floor((lon - spec.lon_min) / spec.cell_width).astype(np.int64), last)
    # x runs west->east, y runs south->north; curve origin is the SW cell
    return _xy_to_index(spec.n_side, col, row)


def decode(spec: GridSpec, cells) -> tuple[np.ndarray, np.ndarray]:
    """Center coordinates (lat, lon), as float64 arrays, of the given cells."""
    cells = np.asarray(cells, dtype=np.int64)
    _check_range("cell index", cells, 0, spec.n_cells - 1)
    col, row = _index_to_xy(spec.n_side, cells)
    lat = spec.lat_min + (row + 0.5) * spec.cell_height
    lon = spec.lon_min + (col + 0.5) * spec.cell_width
    return lat, lon


def curve_position(spec: GridSpec, cells, within=0.5):
    """Unit-interval embedding (cells + within) / n_cells, ``within`` in [0, 1)."""
    return (cells + within) / spec.n_cells


def cell_from_position(spec: GridSpec, pos) -> np.ndarray:
    """Floor curve positions back to cell indices, clipped to the grid."""
    return np.clip(np.floor(pos * spec.n_cells).astype(np.int64), 0, spec.n_cells - 1)


def _check_range(name: str, values: np.ndarray, lo, hi) -> None:
    bad = ~((lo <= values) & (values <= hi))  # NaN is out of range too
    if bad.any():
        first = values.ravel()[np.argmax(bad.ravel())]
        raise RangeError(f"{name} {first} outside [{lo}, {hi}]")
