"""Exact inside-point counts of a support on shifted sample lattices.

The counting half of model.rasterize_shifted, which describes the method:
per axis, the sample coordinates under each of the axis's shift values are
cut to the support's box and merged into one lattice; the membership test
runs once on the lattices' Cartesian product, tile by tile, and each
tile's inside points are summed over each voxel's run of lattice
coordinates, axis by axis, into the image of every product of shift
values.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["add_counts"]

# The lattice is tested tile by tile, a tile holding at most _LATTICE_POINTS
# points (512 kB in float64), and support.contains gets _CONTAINS_POINTS
# points per call.
_LATTICE_POINTS = 1 << 16
_CONTAINS_POINTS = 1 << 14


class _AxisSamples:
    """One axis: its sample coordinates under each of its shift values,
    cut to the support's box [lo, hi], on a lattice of the distinct
    coordinates that remain."""

    def __init__(self, samples, values, lo, hi, subsamples):
        self.subsamples = subsamples
        # the samples ascend (a voxel's offsets span less than its pitch),
        # so each value's coordinates ascend too, and those in the box run
        # from sample first[j] on for the j-th value
        coords, self.first = [], []
        for value in values:
            c = samples - value
            s0, s1 = np.searchsorted(c, lo, "left"), np.searchsorted(c, hi, "right")
            coords.append(c[s0:s1])
            self.first.append(s0)
        # sorted and deduplicated by hand: np.unique with no index array
        # imports numpy.ma (1.1 MB) on its first call
        lattice = np.sort(np.concatenate(coords))
        self.lattice = lattice[np.diff(lattice, prepend=-np.inf) > 0]
        self.rows = [np.searchsorted(self.lattice, c) for c in coords]

    def segments(self, j: int, r0: int, r1: int):
        """The j-th value's samples on lattice rows r0..r1-1, voxel by
        voxel: their rows (less r0), where each voxel's run of them starts,
        and the voxels' slice; None where no sample falls there."""
        rows = self.rows[j]
        p0, p1 = np.searchsorted(rows, (r0, r1))
        if p0 == p1:
            return None
        voxels = (self.first[j] + np.arange(p0, p1)) // self.subsamples
        starts = np.flatnonzero(np.diff(voxels, prepend=-1))
        return rows[p0:p1] - r0, starts, slice(voxels[0], voxels[-1] + 1)


def _tiles(shape, points):
    """Slices (x, y, z) that cut an array of ``shape`` into tiles of at
    most ``points`` entries."""
    bz = min(shape[2], points)
    by = min(shape[1], max(1, points // bz))
    bx = max(1, points // (by * bz))
    for corner in itertools.product(*(range(0, n, b) for n, b in zip(shape, (bx, by, bz)))):
        yield tuple(slice(c, c + b) for c, b in zip(corner, (bx, by, bz)))


def _contains_product(support, axes) -> np.ndarray:
    """support.contains on the Cartesian product of three coordinate
    arrays, in blocks of at most _CONTAINS_POINTS points: a boolean
    (len x, len y, len z) lattice."""
    inside = np.empty(tuple(len(x) for x in axes), dtype=bool)
    for block in _tiles(inside.shape, _CONTAINS_POINTS):
        x, y, z = (c[b] for c, b in zip(axes, block))
        points = np.empty((len(x), len(y), len(z), 3))
        points[..., 0] = x[:, None, None]
        points[..., 1] = y[None, :, None]
        points[..., 2] = z[None, None, :]
        inside[block] = support.contains(points.reshape(-1, 3)).reshape(points.shape[:3])
    return inside


def add_counts(support, samples, shifts, lo, hi, subsamples: int, out) -> None:
    """Add to out[i, j, k] the count of each voxel's samples p (``samples``:
    per axis, voxel-major coordinates in mm, ``subsamples`` per voxel) for
    which p - (shifts[0][i], shifts[1][j], shifts[2][k]) lies inside the
    support; out is (len x, len y, len z, nx, ny, nz). Only points inside
    the box [lo, hi] are tested, so it must hold every point contains
    accepts. Every count is an exact integer in float64."""
    axes = [_AxisSamples(*args, subsamples) for args in zip(samples, shifts, lo, hi)]
    sizes = [ax.lattice.size for ax in axes]
    if 0 in sizes:
        return
    for span in _tiles(sizes, _LATTICE_POINTS):
        inside = _contains_product(support, [ax.lattice[t] for ax, t in zip(axes, span)])
        if not inside.any():
            continue
        tile = inside.astype(np.float64)
        sx, sy, sz = ([ax.segments(j, t.start, t.stop) for j in range(len(ax.rows))]
                      for ax, t in zip(axes, span))
        for k, z in enumerate(sz):
            if z is None:
                continue
            rows, starts, vz = z
            tz = np.add.reduceat(tile.take(rows, axis=2), starts, axis=2)
            for j, y in enumerate(sy):
                if y is None:
                    continue
                rows, starts, vy = y
                tyz = np.add.reduceat(tz.take(rows, axis=1), starts, axis=1)
                for i, x in enumerate(sx):
                    if x is None:
                        continue
                    rows, starts, vx = x
                    out[i, j, k, vx, vy, vz] += np.add.reduceat(tyz.take(rows, axis=0),
                                                                starts, axis=0)
