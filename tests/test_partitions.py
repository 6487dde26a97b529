"""Partitions, boxes, and observation functions."""

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obsequiv.partitions import (
    MAX_BINS,
    UNIT_INTERVAL,
    UNIT_SQUARE,
    Box,
    ObservationFunction,
    Partition,
    PartitionError,
    PhaseSpace,
    _cells_overlap,
    grid_partition,
    interval_partition,
    refine,
)


def test_box_volume_and_membership():
    b = Box((0.0, 0.0), (0.5, 0.25))
    assert b.volume() == pytest.approx(0.125)
    assert b.contains((0.0, 0.0))
    assert b.contains((0.49, 0.24))
    # half-open: upper faces excluded
    assert not b.contains((0.5, 0.1))
    assert not b.contains((0.1, 0.25))


def test_box_rejects_point_of_other_dimension():
    with pytest.raises(PartitionError):
        Box((0.0, 0.0), (0.5, 0.25)).contains((0.1,))
    with pytest.raises(PartitionError):
        Box((0.0,), (0.5,)).contains((0.1, 0.1))


def test_box_intersection():
    a = Box((0.0,), (0.6,))
    b = Box((0.4,), (1.0,))
    inter = a.intersect(b)
    assert inter == Box((0.4,), (0.6,))
    assert a.intersect(Box((0.6,), (1.0,))) is None


def test_phase_space_wrap():
    assert UNIT_INTERVAL.wrap((1.25,)).tolist() == [0.25]
    assert UNIT_INTERVAL.wrap((-0.25,)).tolist() == [0.75]
    # non-periodic coordinates untouched
    assert UNIT_SQUARE.wrap((1.25, 0.5)).tolist() == [1.25, 0.5]


def test_partition_validation_rejects_gaps_and_overlaps():
    with pytest.raises(PartitionError):
        interval_partition([0.0, 0.4], ["a"])  # covers only 0.4
    cells = ((Box((0.0,), (0.6,)),), (Box((0.4,), (1.0,)),))
    with pytest.raises(PartitionError):
        Partition(UNIT_INTERVAL, cells, ("a", "b"))
    with pytest.raises(PartitionError):
        interval_partition([0.0, 0.5, 1.0], ["a", "a"])  # duplicate labels


def test_partition_rejects_boxes_of_other_dimension():
    cells = ((Box((0.0, 0.0), (0.5, 1.0)),), (Box((0.5, 0.0), (1.0, 1.0)),))
    with pytest.raises(PartitionError, match="2-d box in the 1-d phase space"):
        Partition(UNIT_INTERVAL, cells, ("l", "r"))


def test_partition_rejects_non_finite_bounds():
    # a NaN bound makes a NaN measure, which slips past the measure checks
    cells = ((Box((float("nan"),), (0.5,)),), (Box((0.5,), (1.0,)),))
    with pytest.raises(PartitionError, match="non-finite"):
        Partition(UNIT_INTERVAL, cells, ("l", "r"))


def test_partition_rejects_a_space_without_coordinates():
    # an empty box has volume 1 and would pass the coverage check
    with pytest.raises(PartitionError, match="phase space 'p' has no coordinates"):
        Partition(PhaseSpace("p", Box((), ())), [[Box((), ())]], ["a"])


def test_cell_index_rejects_point_of_other_dimension():
    p = interval_partition([0.0, 0.5, 1.0], ["a", "b"])
    with pytest.raises(PartitionError):
        p.cell_index((0.25, 0.5))
    with pytest.raises(PartitionError):
        grid_partition(2, 2).cell_index((0.25,))


def test_cell_index_uses_wrapping():
    p = interval_partition([0.0, 0.5, 1.0], ["a", "b"])
    assert p.labels[p.cell_index((0.25,))] == "a"
    assert p.labels[p.cell_index((1.25,))] == "a"
    assert p.labels[p.cell_index((-0.25,))] == "b"


def test_refine_sizes_and_measures():
    halves = interval_partition([0.0, 0.5, 1.0], ["L", "R"])
    thirds = interval_partition([0.0, 1 / 3, 2 / 3, 1.0], ["x", "y", "z"])
    r = refine(halves, thirds)
    assert r.size == 4  # L&x, L&y, R&y, R&z
    assert sum(r.measures()) == pytest.approx(1.0)
    assert set(r.labels) == {"L&x", "L&y", "R&y", "R&z"}


def test_refine_with_self_is_identity_in_measure():
    p = interval_partition([0.0, 0.3, 1.0], ["a", "b"])
    r = refine(p, p)
    assert r.size == p.size
    assert sorted(r.measures()) == pytest.approx(sorted(p.measures()))


@given(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4, unique=True))
@settings(max_examples=30, deadline=None)
def test_refine_measure_conservation(points):
    breaks = [0.0] + sorted(points) + [1.0]
    a = interval_partition(breaks, [f"a{i}" for i in range(len(breaks) - 1)])
    b = interval_partition([0.0, 0.5, 1.0], ["L", "R"])
    assert sum(refine(a, b).measures()) == pytest.approx(1.0)
    # refinement is symmetric in measure
    assert sorted(refine(a, b).measures()) == pytest.approx(sorted(refine(b, a).measures()))


def test_grid_partition_on_square():
    p = grid_partition(4, 4)
    assert p.size == 16
    assert np.allclose(p.measures(), 1 / 16)
    assert p.labels[p.cell_index((0.1, 0.9))] == "c0_3"


@pytest.mark.parametrize("nx, ny", [(0, 2), (2, -1)])
def test_grid_partition_rejects_empty_axes(nx, ny):
    with pytest.raises(PartitionError, match="at least one cell per axis"):
        grid_partition(nx, ny)


def test_grid_partition_refuses_more_than_max_bins_before_building_cells(within_a_second):
    with pytest.raises(PartitionError, match=f"into 10000000000 bins, more than the {MAX_BINS}"):
        grid_partition(100_000, 100_000)


def test_grid_partition_with_extra_trailing_dims():
    space = PhaseSpace("slab", Box((0.0, 0.0, 0.0), (1.0, 1.0, 6.0)), periodic=(2,))
    p = grid_partition(2, 2, space=space)
    assert p.size == 4
    assert sum(p.measures()) == pytest.approx(6.0)
    assert p.cell_index((0.9, 0.9, 5.5)) == p.cell_index((0.9, 0.9, 11.5))


def test_observation_function_symbols_and_alphabet():
    p = interval_partition([0.0, 0.5, 1.0], ["left", "right"])
    obs = ObservationFunction(p)
    assert obs((0.2,)) == "left"
    assert obs((0.7,)) == "right"
    assert len(obs.alphabet) == 2
    relabeled = ObservationFunction(p, symbols=("x", "x"))
    assert relabeled.alphabet == ("x",)
    assert len(relabeled.alphabet) < 2  # collapsed symbols make it trivial


def test_observation_symbol_count_must_match():
    p = interval_partition([0.0, 0.5, 1.0], ["a", "b"])
    with pytest.raises(PartitionError):
        ObservationFunction(p, symbols=("only",))


# --- the bin table against a first-match scan over boxes ---------------------

CYLINDER = PhaseSpace("cylinder", Box((-1.0, 0.0), (1.0, 2.0)), periodic=(0,))


def _first_match(p, point):
    """Reference coding: the first cell with a box holding the wrapped point."""
    point = p.space.wrap(point)
    for i, cell in enumerate(p.cells):
        for b in cell:
            if all(lo <= x < hi for x, lo, hi in zip(point, b.lo, b.hi)):
                return i
    return None


def _first_overlap(cells, labels):
    """Reference validation: the first pair (i, j) with a positive-volume overlap."""
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            for a in cells[i]:
                for b in cells[j]:
                    vol = np.prod([max(min(ah, bh) - max(al, bl), 0.0)
                                   for al, ah, bl, bh in zip(a.lo, a.hi, b.lo, b.hi)])
                    if vol > 1e-12:
                        return f"cells {labels[i]!r} and {labels[j]!r} overlap"
    return None


def _guillotine(rng, lo, hi, depth=5):
    """Recursive dyadic cuts of [lo, hi): boxes whose bounds are staggered."""
    if depth == 0 or depth < 5 and rng.random() < 0.15:
        return [(lo, hi)]
    axis = int(rng.integers(len(lo)))
    cut = lo[axis] + float(rng.choice([0.25, 0.5, 0.75])) * (hi[axis] - lo[axis])
    left_hi = hi[:axis] + (cut,) + hi[axis + 1:]
    right_lo = lo[:axis] + (cut,) + lo[axis + 1:]
    return _guillotine(rng, lo, left_hi, depth - 1) + _guillotine(rng, right_lo, hi, depth - 1)


def _random_cells(rng, space):
    """Leaves of a guillotine split, dealt into a few cells of several boxes."""
    leaves = _guillotine(rng, space.domain.lo, space.domain.hi)
    order = rng.permutation(len(leaves))
    k = int(rng.integers(2, min(len(leaves), 5) + 1))
    return [[leaves[j] for j in order[c::k]] for c in range(k)]


def _partition(space, cells):
    boxes = tuple(tuple(Box(lo, hi) for lo, hi in cell) for cell in cells)
    return Partition(space, boxes, tuple(f"k{i}" for i in range(len(cells))))


def _probe_points(rng, p):
    xs = {x for cell in p.cells for b in cell for x in b.lo[:1] + b.hi[:1]}
    ys = {y for cell in p.cells for b in cell for y in b.lo[1:] + b.hi[1:]}
    points = [(x, y) for x in xs for y in ys]  # every corner of the bound lattice
    points += [(x + 2.0 * m, y) for x, y in points[:40] for m in (-2, -1, 1, 3)]
    points += [(1.0, 0.5), (-3.0, 0.5), (3.0, 0.5), (0.0, -0.25), (0.0, 2.0), (0.0, 5.0)]
    points += list(map(tuple, rng.uniform((-5.0, -0.5), (5.0, 4.5), size=(300, 2))))
    return points


@pytest.mark.parametrize("seed", range(40))
def test_cell_index_matches_first_match_scan(seed):
    rng = np.random.default_rng(seed)
    cells = _random_cells(rng, CYLINDER)
    # lifting a box out of the domain keeps the total measure but leaves a
    # hole: uncovered points inside the domain, covered ones outside it
    if seed % 2:
        lo, hi = cells[0][0]
        cells[0][0] = ((lo[0], lo[1] + 2.0), (hi[0], hi[1] + 2.0))
    p = _partition(CYLINDER, cells)
    for point in _probe_points(rng, p):
        ref = _first_match(p, point)
        if ref is None:
            with pytest.raises(PartitionError):
                p.cell_index(point)
        else:
            assert p.cell_index(point) == ref, point


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=30, deadline=None)
def test_batched_cell_index_is_the_per_point_coding(seed, with_hole):
    """Random points, every corner of the bound lattice and wrapped periodic
    coordinates, coded at once as an array (k, 2, 2) and point by point; an
    uncovered point raises the same PartitionError either way."""
    rng = np.random.default_rng(seed)
    cells = _random_cells(rng, CYLINDER)
    if with_hole:
        lo, hi = cells[0][0]
        cells[0][0] = ((lo[0], lo[1] + 2.0), (hi[0], hi[1] + 2.0))
    p = _partition(CYLINDER, cells)
    points = _probe_points(rng, p)
    points = [points[i] for i in rng.permutation(len(points))][: len(points) // 4 * 4]
    per_point, first_error = [], None
    for q in points:
        try:
            per_point.append(p.cell_index(q))
        except PartitionError as exc:
            first_error = first_error or str(exc)
    batch = np.array(points).reshape(-1, 2, 2, 2)
    if first_error is None:
        assert p.cell_index(batch).tolist() == np.reshape(per_point, (-1, 2, 2)).tolist()
    else:
        with pytest.raises(PartitionError) as err:
            p.cell_index(batch)
        assert str(err.value) == first_error


def test_observation_codes_arrays_as_points():
    p = interval_partition([0.0, 0.25, 0.5, 1.0], ["a", "b", "c"])
    obs = ObservationFunction(p, symbols=(("x", 1), ("y", 2), ("x", 1)))
    points = np.array([[[0.1], [0.3]], [[0.7], [1.2]]])
    assert obs(points).shape == (2, 2)
    assert obs(points).tolist() == [[("x", 1), ("y", 2)], [("x", 1), ("x", 1)]]
    assert obs.codes(points).tolist() == [[0, 1], [0, 0]]
    assert obs((0.3,)) == ("y", 2)
    assert Box((0.0,), (0.5,)).contains(points).tolist() == [[True, True], [False, False]]


def test_cell_index_takes_first_cell_on_tolerated_overlap():
    # an overlap below the 1e-12 volume tolerance is accepted; the first cell wins
    cells = ((Box((0.0,), (0.5 + 4e-13,)),), (Box((0.5,), (1.0,)),))
    p = Partition(UNIT_INTERVAL, cells, ("a", "b"))
    assert p.cell_index((0.5 + 1e-13,)) == 0
    assert p.cell_index((0.5 + 4e-13,)) == 1


@pytest.mark.parametrize("seed", range(40))
def test_overlap_message_matches_pairwise_loop(seed):
    rng = np.random.default_rng(1000 + seed)
    cells = _random_cells(rng, CYLINDER)
    # translate one box; it may land on boxes of other cells
    c = int(rng.integers(len(cells)))
    (x0, y0), (x1, y1) = cells[c][0]
    dx, dy = rng.choice([-0.375, -0.25, -0.125, 0.125, 0.25, 0.375], size=2)
    cells[c][0] = ((x0 + dx, y0 + dy), (x1 + dx, y1 + dy))
    boxes = tuple(tuple(Box(lo, hi) for lo, hi in cell) for cell in cells)
    labels = tuple(f"k{i}" for i in range(len(cells)))
    ref = _first_overlap(boxes, labels)
    if ref is None:
        Partition(CYLINDER, boxes, labels)
    else:
        with pytest.raises(PartitionError) as err:
            Partition(CYLINDER, boxes, labels)
        assert str(err.value) == ref


def test_overlap_found_under_bins_first_claimed_by_other_cells():
    # t0..t3 each overlap b and c by less than the tolerance, and claim every
    # bin b and c share; b and c overlap by more than it
    eps = 6e-13
    ts = [Box((0.5 + k * eps,), (0.5 + (k + 1) * eps,)) for k in range(4)]
    shared = Box((0.5,), (0.5 + 4 * eps,))
    cells = [(t,) for t in ts] + [
        (shared,),
        (shared,),
        (Box((0.0,), (0.5,)),),
        (Box((0.5 + 4 * eps,), (1.0,)),),
    ]
    labels = ("t0", "t1", "t2", "t3", "b", "c", "left", "right")
    space = PhaseSpace("segment", Box((0.0,), (1.0,)))
    assert _first_overlap(cells, labels) == "cells 'b' and 'c' overlap"
    with pytest.raises(PartitionError, match="cells 'b' and 'c' overlap"):
        Partition(space, tuple(cells), labels)


def test_bin_table_size_is_bounded():
    # staggered boxes: n cells whose bounds cut both axes n times
    n = 2100
    cells = tuple(
        (Box((i / n, i / n), ((i + 1) / n, (i + 1) / n)),) for i in range(n)
    )
    space = PhaseSpace("diag", Box((0.0, 0.0), (1.0, 1.0 / n)))
    with pytest.raises(PartitionError, match="bins"):
        Partition(space, cells, tuple(range(n)))


def test_fine_grid_builds_and_codes_fast():
    # the all-pairs overlap scan took about 10 s to build this grid
    rng = np.random.default_rng(7)
    points = list(map(tuple, rng.random((10_000, 2))))
    t0 = time.perf_counter()
    p = grid_partition(64, 64)
    codes = [p.cell_index(q) for q in points]
    assert time.perf_counter() - t0 < 1.0
    x, y = np.asarray(points).T
    assert codes == (np.floor(x * 64) * 64 + np.floor(y * 64)).astype(int).tolist()


# --- the one-pass constructor against the rule it replaced -------------------


def _reference_build(space, cells, labels):
    """The bin table as built before the one-pass constructor: every cell
    measured twice, two searchsorted calls per axis per box, and the overlap
    groups inverted into a member index.  Returns (bounds, table) or raises
    the PartitionError that rule raised."""
    cells = tuple(tuple(c) for c in cells)
    labels = tuple(labels)
    if len(cells) < 1:
        raise PartitionError("partition needs at least one cell")
    if len(labels) != len(cells):
        raise PartitionError("label count does not match cell count")
    if len(set(labels)) != len(labels):
        raise PartitionError("labels must be distinct")
    for label, cell in zip(labels, cells):
        for box in cell:
            if box.dim != space.dim:
                raise PartitionError(
                    f"cell {label!r} has a {box.dim}-d box in the "
                    f"{space.dim}-d phase space {space.name!r}"
                )
            if not all(map(math.isfinite, box.lo + box.hi)):
                raise PartitionError(f"cell {label!r} has a box with non-finite bounds")
    for cell in cells:
        if Partition.cell_measure(cell) <= 0.0:
            raise PartitionError("zero-measure cell")
    total = sum(Partition.cell_measure(c) for c in cells)
    if abs(total - space.domain.volume()) > 1e-9:
        raise PartitionError(f"cells cover measure {total}, domain has {space.domain.volume()}")
    bounds = tuple(
        np.array(sorted({x for cell in cells for b in cell for x in (b.lo[d], b.hi[d])}))
        for d in range(space.dim)
    )
    shape = tuple(len(e) - 1 for e in bounds)
    if math.prod(shape) > MAX_BINS:
        raise PartitionError(
            f"box bounds cut the space into {math.prod(shape)} bins, "
            f"more than the {MAX_BINS} a partition may hold"
        )
    table = np.full(shape, -1, dtype=np.int16 if len(cells) < 2**15 else np.int32)
    groups = {}
    for i, cell in enumerate(cells):
        for b in cell:
            region = table[
                tuple(slice(*np.searchsorted(e, (lo, hi))) for e, lo, hi in zip(bounds, b.lo, b.hi))
            ]
            claimed = region >= 0
            for c in set(region[claimed].tolist()) - {i}:
                groups.setdefault(c, {c}).add(i)
            region[~claimed] = i
    member_of = {}
    for c, group in groups.items():
        for i in group:
            member_of.setdefault(i, []).append(c)
    for i in sorted(member_of):
        for j in sorted({j for c in member_of[i] for j in groups[c] if j > i}):
            if _cells_overlap(cells[i], cells[j]):
                raise PartitionError(f"cells {labels[i]!r} and {labels[j]!r} overlap")
    return bounds, table


@st.composite
def _cube_cells(draw):
    """Recursive splits of the unit cube in 1-3 dimensions, the leaves
    shuffled and dealt into cells of 1-3 boxes, with at most one fault: a box
    shifted by 1e-13, 1e-3 or 0.1 along some axes (the total measure kept,
    neighbours overlapped), a stretched box, a removed box or a non-finite
    bound."""
    dim = draw(st.integers(1, 3))

    def split(lo, hi, depth):
        if depth == 0 or draw(st.integers(0, 3)) == 0:
            return [[lo, hi]]
        axis = draw(st.integers(0, dim - 1))
        cut = lo[axis] + draw(st.sampled_from([0.25, 0.5, 0.75, 1 / 3])) * (hi[axis] - lo[axis])
        return (split(lo, hi[:axis] + [cut] + hi[axis + 1:], depth - 1)
                + split(lo[:axis] + [cut] + lo[axis + 1:], hi, depth - 1))

    leaves = split([0.0] * dim, [1.0] * dim, 4)
    leaves = [leaves[k] for k in draw(st.permutations(range(len(leaves))))]
    cells = []
    while leaves:
        size = draw(st.integers(1, 3))
        cells.append(leaves[:size])
        leaves = leaves[size:]
    c = draw(st.integers(0, len(cells) - 1))
    b = draw(st.integers(0, len(cells[c]) - 1))
    axis = draw(st.integers(0, dim - 1))
    lo, hi = cells[c][b]
    fault = draw(st.sampled_from(["none", "shift", "stretch", "remove", "non-finite"]))
    if fault == "shift":
        step = draw(st.sampled_from([1e-13, 1e-3, 0.1]))
        for d in range(dim):
            dx = step * draw(st.sampled_from([-1, 0, 1]))
            lo[d] += dx
            hi[d] += dx
    elif fault == "stretch":
        hi[axis] += draw(st.sampled_from([1e-3, 0.1]))
    elif fault == "remove":
        del cells[c][b]
    elif fault == "non-finite":
        (lo if draw(st.booleans()) else hi)[axis] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    space = PhaseSpace(f"cube{dim}", Box((0.0,) * dim, (1.0,) * dim))
    boxes = tuple(tuple(Box(tuple(lo), tuple(hi)) for lo, hi in cell) for cell in cells)
    return space, boxes, tuple(f"k{i}" for i in range(len(cells)))


# k3's first box, shifted by -0.1, overlaps k1 and k2; the pair set
# {(1, 3), (2, 3)} iterates (2, 3) first, so only sorted pairs report k1
SHIFTED_ACROSS_TWO = (
    PhaseSpace("cube1", Box((0.0,), (1.0,))),
    ((Box((0.0,), (0.25,)),), (Box((0.25,), (0.3125,)),), (Box((0.3125,), (0.375,)),),
     (Box((0.275,), (0.4,)), Box((0.5,), (1.0,)))),
    ("k0", "k1", "k2", "k3"),
)


@given(_cube_cells())
@example(SHIFTED_ACROSS_TWO)
@settings(max_examples=300, deadline=None)
def test_one_pass_constructor_is_the_reference_rule(case):
    """Same bin table values and dtype, same bounds to the byte, or the same
    exception type and message."""
    space, cells, labels = case
    try:
        bounds, table = _reference_build(space, cells, labels)
    except PartitionError as exc:
        with pytest.raises(PartitionError) as err:
            Partition(space, cells, labels)
        assert type(err.value) is type(exc)
        assert str(err.value) == str(exc)
        return
    p = Partition(space, cells, labels)
    assert p._table.dtype == table.dtype
    assert p._table.tolist() == table.tolist()
    assert [(e.dtype, e.tobytes()) for e in p._bounds] == [(e.dtype, e.tobytes()) for e in bounds]
