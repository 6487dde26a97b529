"""Finite measurable partitions and finite-valued observation functions.

Cells are unions of axis-aligned half-open boxes.  This covers interval
unions on the circle [0,1), dyadic rectangles on the unit square, and
position-box x angle-sector cells for billiard phase spaces, while keeping
cell measures exactly computable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Box",
    "PhaseSpace",
    "Partition",
    "ObservationFunction",
    "refine",
    "interval_partition",
    "grid_partition",
]


class PartitionError(ValueError):
    pass


MAX_BINS = 2**22  # largest bin table a Partition may allocate


@dataclass(frozen=True)
class Box:
    """Half-open axis-aligned box prod_i [lo_i, hi_i)."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise PartitionError("box bounds have mismatched dimensions")
        object.__setattr__(self, "lo", tuple(float(x) for x in self.lo))
        object.__setattr__(self, "hi", tuple(float(x) for x in self.hi))

    @property
    def dim(self):
        return len(self.lo)

    def volume(self):
        v = 1.0
        for a, b in zip(self.lo, self.hi):
            v *= max(b - a, 0.0)
        return v

    def contains(self, point):
        """Whether each point lies in the box: a bool for one point of dim
        coordinates, a bool array (...) for an array (..., dim) of points."""
        points = _points(point, self.dim)
        return np.all((np.array(self.lo) <= points) & (points < np.array(self.hi)), axis=-1)

    def intersect(self, other):
        lo = tuple(max(a, c) for a, c in zip(self.lo, other.lo))
        hi = tuple(min(b, d) for b, d in zip(self.hi, other.hi))
        if any(a >= b for a, b in zip(lo, hi)):
            return None
        return Box(lo, hi)


@dataclass(frozen=True)
class PhaseSpace:
    """Named rectangular domain; coordinates flagged periodic wrap around."""

    name: str
    domain: Box
    periodic: tuple = ()

    @property
    def dim(self):
        return self.domain.dim

    def wrap(self, point):
        """A float array copy of the point(s) (..., dim), each periodic
        coordinate moved into [lo, hi)."""
        point = np.array(point, dtype=float)
        for i in self.periodic:
            lo, hi = self.domain.lo[i], self.domain.hi[i]
            point[..., i] = lo + (point[..., i] - lo) % (hi - lo)
        return point


UNIT_INTERVAL = PhaseSpace("unit_interval", Box((0.0,), (1.0,)), periodic=(0,))
UNIT_SQUARE = PhaseSpace("unit_square", Box((0.0, 0.0), (1.0, 1.0)))


@dataclass(frozen=True)
class Partition:
    """Finite partition of a phase space into positive-measure cells.

    Each cell is a tuple of disjoint boxes; cells are pairwise disjoint and
    jointly cover the domain up to measure zero.

    Coding and validation go through one bin table, built here: for each axis
    the sorted distinct box bounds, and for each elementary bin (one gap
    between consecutive bounds per axis) the first cell whose box covers it,
    or -1.  Every box bound is a bin edge, so a point lies in a box exactly
    when its bin does.  The table has prod over axes of (distinct bounds - 1)
    entries: the cell count for grid, interval and refined-grid partitions,
    more when box bounds are staggered.  Above MAX_BINS entries the partition
    is rejected.
    """

    space: PhaseSpace
    cells: tuple  # tuple of tuples of Box
    labels: tuple
    _bounds: tuple = field(init=False, repr=False, compare=False)
    _table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cells = tuple(tuple(c) for c in self.cells)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.space.dim < 1:
            raise PartitionError(f"the phase space {self.space.name!r} has no coordinates")
        if len(cells) < 1:
            raise PartitionError("partition needs at least one cell")
        if len(self.labels) != len(cells):
            raise PartitionError("label count does not match cell count")
        if len(set(self.labels)) != len(self.labels):
            raise PartitionError("labels must be distinct")
        for label, cell in zip(self.labels, cells):
            for box in cell:
                if box.dim != self.space.dim:
                    raise PartitionError(
                        f"cell {label!r} has a {box.dim}-d box in the "
                        f"{self.space.dim}-d phase space {self.space.name!r}"
                    )
                if not all(map(math.isfinite, box.lo + box.hi)):
                    raise PartitionError(f"cell {label!r} has a box with non-finite bounds")
        measures = [self.cell_measure(c) for c in cells]
        if min(measures) <= 0.0:
            raise PartitionError("zero-measure cell")
        total = sum(measures)
        if abs(total - self.space.domain.volume()) > 1e-9:
            raise PartitionError(
                f"cells cover measure {total}, domain has {self.space.domain.volume()}"
            )
        owner = [i for i, cell in enumerate(cells) for _ in cell]
        # per axis, every box's lo and hi in box order: lo0, hi0, lo1, hi1, ...
        corners = np.array([(b.lo, b.hi) for cell in cells for b in cell])
        ends = [corners[:, :, d].ravel() for d in range(self.space.dim)]
        bounds = tuple(np.array(sorted(set(x.tolist()))) for x in ends)
        shape = tuple(len(e) - 1 for e in bounds)
        if math.prod(shape) > MAX_BINS:
            raise PartitionError(
                f"box bounds cut the space into {math.prod(shape)} bins, "
                f"more than the {MAX_BINS} a partition may hold"
            )
        table = np.full(shape, -1, dtype=np.int16 if len(cells) < 2**15 else np.int32)
        # A bin keeps only its first claimant, so a later cell claiming it joins
        # that claimant's group: every pair of cells sharing a bin is in a group.
        groups = {}
        cuts = [np.searchsorted(e, x).tolist() for e, x in zip(bounds, ends)]
        for i, *span in zip(owner, *(zip(k[::2], k[1::2]) for k in cuts)):
            region = table[tuple(slice(*s) for s in span)]
            claimed = region >= 0
            for c in set(region[claimed].tolist()) - {i}:
                groups.setdefault(c, {c}).add(i)
            region[~claimed] = i
        object.__setattr__(self, "_bounds", bounds)
        object.__setattr__(self, "_table", table)
        # pairwise disjointness up to measure zero, tested only where cells
        # share a bin and in (i, j) order, so the first overlap reported is
        # the first of all pairs
        for i, j in sorted({(i, j) for g in groups.values() for i in g for j in g if i < j}):
            if _cells_overlap(cells[i], cells[j]):
                raise PartitionError(f"cells {self.labels[i]!r} and {self.labels[j]!r} overlap")

    @staticmethod
    def cell_measure(cell):
        return sum(b.volume() for b in cell)

    @property
    def size(self):
        return len(self.cells)

    def measures(self):
        return np.array([self.cell_measure(c) for c in self.cells])

    def cell_index(self, point):
        """Index of the first cell with a box holding the (wrapped) point: an
        int for one point, an int array (...) for an array (..., d) of points.

        One wrap, one searchsorted per axis and one bin-table read code every
        point; the PartitionError for uncovered points names the first one.
        """
        points = self.space.wrap(
            _points(point, self.space.dim, f" of the phase space {self.space.name!r}")
        )
        flat = points.reshape(-1, self.space.dim)
        bins, uncovered = [], np.zeros(len(flat), dtype=bool)
        for x, edges in zip(flat.T, self._bounds):
            k = np.searchsorted(edges, x, side="right")
            uncovered |= (k == 0) | (k == len(edges))
            bins.append(np.clip(k - 1, 0, len(edges) - 2))
        index = self._table[tuple(bins)].astype(np.intp)
        uncovered |= index < 0
        if uncovered.any():
            first = tuple(flat[uncovered.argmax()].tolist())
            raise PartitionError(f"point {first} not covered by any cell")
        return int(index[0]) if points.ndim == 1 else index.reshape(points.shape[:-1])


def _points(point, dim, where=""):
    """The point(s) as a float array (..., dim); PartitionError naming the
    point, or the array's shape, when the last axis is not dim long."""
    points = np.asarray(point, dtype=float)
    if points.shape[-1:] != (dim,):
        shown = tuple(point) if points.ndim == 1 else f"array of shape {points.shape}"
        raise PartitionError(f"point {shown} does not have {dim} coordinates{where}")
    return points


def _cells_overlap(a, b, tol=1e-12):
    for ba in a:
        for bb in b:
            inter = ba.intersect(bb)
            if inter is not None and inter.volume() > tol:
                return True
    return False


def refine(a: Partition, b: Partition) -> Partition:
    """Common refinement: all positive-measure intersections of cells."""
    if a.space != b.space:
        raise PartitionError("partitions live on different phase spaces")
    cells, labels = [], []
    for la, ca in zip(a.labels, a.cells):
        for lb, cb in zip(b.labels, b.cells):
            boxes = []
            for ba in ca:
                for bb in cb:
                    inter = ba.intersect(bb)
                    if inter is not None and inter.volume() > 1e-12:
                        boxes.append(inter)
            if boxes:
                cells.append(tuple(boxes))
                labels.append(f"{la}&{lb}" if la != lb else la)
    # collapse duplicate labels from identical partitions refined with themselves
    if len(set(labels)) != len(labels):
        labels = [f"{l}#{i}" if labels.count(l) > 1 else l for i, l in enumerate(labels)]
    return Partition(a.space, tuple(cells), tuple(labels))


@dataclass(frozen=True)
class ObservationFunction:
    """Finite-valued observation: symbol of the cell containing the state."""

    partition: Partition
    symbols: tuple = field(default=None)

    def __post_init__(self):
        symbols = self.symbols if self.symbols is not None else self.partition.labels
        symbols = tuple(symbols)
        if len(symbols) != self.partition.size:
            raise PartitionError("one symbol per cell required")
        object.__setattr__(self, "symbols", symbols)
        table = np.empty(len(symbols), dtype=object)  # filled one by one, so
        for i, s in enumerate(symbols):  # that tuple symbols stay whole
            table[i] = s
        object.__setattr__(self, "_symbols", table)
        object.__setattr__(self, "alphabet", tuple(dict.fromkeys(symbols)))
        alphabet = {s: i for i, s in enumerate(self.alphabet)}
        object.__setattr__(self, "_codes", np.array([alphabet[s] for s in symbols]))

    def __call__(self, point):
        """Symbol of one point, or an object array (...) of the symbols of an
        array (..., d) of points."""
        return self._symbols[self.partition.cell_index(point)]

    def codes(self, point):
        """Alphabet indices of the symbols of the point(s), as cell_index
        returns cell indices."""
        return self._codes[self.partition.cell_index(point)]


def interval_partition(breaks, labels, space=UNIT_INTERVAL) -> Partition:
    """Partition of [0,1) into consecutive intervals at the given breakpoints."""
    breaks = [float(x) for x in breaks]
    cells = tuple((Box((a,), (b,)),) for a, b in zip(breaks[:-1], breaks[1:]))
    return Partition(space, cells, tuple(labels))


def grid_partition(nx, ny, space=UNIT_SQUARE) -> Partition:
    """nx-by-ny rectangular grid partition of a 2-d rectangular domain."""
    if space.dim < 2:
        raise PartitionError(f"a grid needs a 2-d phase space; {space.name!r} is {space.dim}-d")
    if nx < 1 or ny < 1:
        raise PartitionError(f"a grid needs at least one cell per axis, got {nx} x {ny}")
    if nx * ny > MAX_BINS:
        raise PartitionError(f"a {nx} x {ny} grid cuts the space into {nx * ny} bins, "
                             f"more than the {MAX_BINS} a partition may hold")
    (x0, y0), (x1, y1) = space.domain.lo[:2], space.domain.hi[:2]
    extra_lo, extra_hi = space.domain.lo[2:], space.domain.hi[2:]
    dx, dy = (x1 - x0) / nx, (y1 - y0) / ny
    cells, labels = [], []
    for i in range(nx):
        for j in range(ny):
            lo = (x0 + i * dx, y0 + j * dy) + extra_lo
            hi = (x0 + (i + 1) * dx, y0 + (j + 1) * dy) + extra_hi
            cells.append((Box(lo, hi),))
            labels.append(f"c{i}_{j}")
    return Partition(space, tuple(cells), tuple(labels))
