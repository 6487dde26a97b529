"""Deterministic systems: rotation, billiard, baker, suspension flows."""

import dataclasses
import gc
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from obsequiv import systems
from obsequiv.partitions import (
    UNIT_INTERVAL,
    UNIT_SQUARE,
    ObservationFunction,
    grid_partition,
    interval_partition,
)
from obsequiv.processes import MAX_PATH_STEPS, ProcessError
from obsequiv.systems import (
    LOCKSTEP_ROWS,
    BakerMap,
    BilliardFlow,
    RoofFunction,
    RotationFlow,
    SuspensionFlow,
    SystemError,
    observe_trajectories,
    spawn_rngs,
    trajectory_symbols,
)


def test_spawn_rngs_independent_and_deterministic():
    a = [r.random() for r in spawn_rngs(42, 3)]
    b = [r.random() for r in spawn_rngs(42, 3)]
    assert a == b
    assert len(set(a)) == 3


# -- rotation ---------------------------------------------------------------


def test_rotation_evolve_wraps():
    rot = RotationFlow(0.25)
    assert rot.evolve(0.9, 1.0) == pytest.approx(0.15)
    assert rot.evolve(0.1, -1.0) == pytest.approx(0.85)


def test_rotation_rejects_frozen_flow():
    with pytest.raises(SystemError, match=r"^alpha=0 gives a degenerate \(frozen\) flow$"):
        RotationFlow(0.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_rotation_rejects_a_non_finite_alpha(alpha):
    with pytest.raises(SystemError, match=f"^alpha must be finite, got {alpha}$"):
        RotationFlow(alpha)


def test_rotation_flow_takes_alpha_as_a_float():
    """The class converts alpha itself; alpha = 1 is the identity map."""
    assert RotationFlow("0.25").alpha == 0.25
    assert RotationFlow(1.0).evolve(0.25, 1.0) == 0.25


def test_rotation_space_is_the_circle_and_no_field():
    """(m + alpha t) mod 1 on one coordinate fixes the phase space."""
    assert [f.name for f in dataclasses.fields(RotationFlow)] == ["alpha"]
    assert RotationFlow(0.5).space is UNIT_INTERVAL
    with pytest.raises(TypeError):
        RotationFlow(0.5, UNIT_SQUARE)


def test_rotation_metric_is_circle_distance():
    rot = RotationFlow(1.0)
    assert rot.metric((0.05,), (0.95,)) == pytest.approx(0.1)
    assert rot.metric((0.2,), (0.6,)) == pytest.approx(0.4)


@given(st.floats(0.0, 0.999), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
@settings(max_examples=100, deadline=None)
def test_rotation_semigroup(x, t1, t2):
    rot = RotationFlow(math.sqrt(2) - 1.0)
    one = rot.evolve(x, t1 + t2)
    two = rot.evolve(rot.evolve(x, t1), t2)
    assert rot.metric(rot.coords(one), rot.coords(two)) < 1e-9


# -- billiard ---------------------------------------------------------------


@pytest.fixture
def table():
    return BilliardFlow(1.0, 1.0, [((0.5, 0.5), 0.2)], 1.0)


def test_billiard_validation(table):
    with pytest.raises(SystemError):
        BilliardFlow(1.0, 1.0, [((0.5, 0.5), 0.6)], 1.0)  # pokes out
    for speed in (0.0, math.nan, math.inf):
        with pytest.raises(SystemError, match="speed must be finite and positive"):
            BilliardFlow(1.0, 1.0, [], speed)
    with pytest.raises(SystemError):
        BilliardFlow(
            2.0, 1.0, [((0.5, 0.5), 0.2), ((0.8, 0.5), 0.2)], 1.0
        )  # overlapping obstacles


@pytest.mark.parametrize(
    "width, height", [(-1.0, 1.0), (1.0, 0.0), (math.nan, 1.0), (1.0, math.inf)]
)
def test_billiard_rejects_bad_table_size(width, height):
    with pytest.raises(SystemError, match="width and height must be finite and positive"):
        BilliardFlow(width, height, [], 1.0)


def test_billiard_wall_reflection_exact():
    # no obstacle in the way: straight flight right, bounce off x=1
    sys = BilliardFlow(1.0, 1.0, [], 1.0)
    x, y, theta = sys.evolve((0.5, 0.25, 0.0), 1.0)
    assert x == pytest.approx(0.5)
    assert y == pytest.approx(0.25)
    assert theta == pytest.approx(math.pi)


def test_billiard_head_on_obstacle_reflection(table):
    # aimed at the obstacle center: hits at x=0.3 after t=0.2, reflects back
    x, y, theta = table.evolve((0.1, 0.5, 0.0), 0.4)
    assert theta == pytest.approx(math.pi)
    assert y == pytest.approx(0.5)
    assert x == pytest.approx(0.1)


def _scaled_table(scale):
    """The unit table with its central obstacle, every length times scale."""
    return BilliardFlow(scale, scale, [((0.5 * scale, 0.5 * scale), 0.2 * scale)], 1.0)


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e3])
def test_billiard_head_on_reflection_at_every_table_scale(scale):
    # the grazing guard is relative to r^2 |v|^2: with an absolute 1e-12 a
    # particle aimed at the centre flew through the obstacle of a 1e-6 table
    x, y, theta = _scaled_table(scale).evolve((0.1 * scale, 0.5 * scale, 0.0), 0.4 * scale)
    assert theta == pytest.approx(math.pi)
    assert y == pytest.approx(0.5 * scale)
    assert x == pytest.approx(0.1 * scale)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3])
@pytest.mark.parametrize("corner", range(4))
@pytest.mark.parametrize("offset", [0.0, 1e-15, -1e-15, 1e-13])
def test_billiard_corner_hits_reflect_at_every_table_scale(scale, corner, offset):
    # from the centre of an empty table at a corner: the two wall times differ
    # in their last bits, and an absolute time guard on the second wall let
    # the particle fly out of the table, to (0.8, 1.2) * scale at t = scale
    table = BilliardFlow(scale, scale, [], 1.0)
    theta = (2 * corner + 1) * math.pi / 4 + offset
    start = (0.5 * scale, 0.5 * scale, theta)
    half_diagonal = math.sqrt(0.5) * scale
    for i in range(40):
        t = 0.25 * scale * i
        x, y, s_theta = table.evolve(start, t)
        assert 0.0 <= x <= scale and 0.0 <= y <= scale
        # each corner hit reverses the direction: theta + pi on odd legs
        legs = math.floor((t + half_diagonal) / (2 * half_diagonal))
        turn = abs(s_theta - theta - legs * math.pi) % (2 * math.pi)
        assert min(turn, 2 * math.pi - turn) < 1e-9


@given(st.sampled_from([1e-6, 1e-3, 1.0, 1e3]), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_billiard_points_never_inside_the_obstacle(scale, seed):
    table = _scaled_table(scale)
    grid = [t * scale for t in (0.0, 0.7, 2.3, 5.0)]
    x, y, _ = observe_trajectories(table, lambda c: c, grid, 40, seed).T
    assert np.all((x >= 0.0) & (x <= scale) & (y >= 0.0) & (y <= scale))
    assert np.all(np.hypot(x - 0.5 * scale, y - 0.5 * scale) >= 0.2 * scale * (1 - 1e-9))


@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.floats(0.0, 6.0), min_size=1, max_size=6),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_billiard_kernel_rows_are_evolve_from_the_start(seed, times, from_zero):
    """Bit for bit: the point of a kernel row at each grid time t is one
    evolve call from the row's start over t, and the kernel leaves its
    generator where _starts leaves it."""
    table = BilliardFlow(1.0, 1.0, [((0.5, 0.5), 0.2)], 1.0)
    grid = sorted(times + [0.0] if from_zero else times)
    kernel_rng = np.random.default_rng(seed)
    rows = table.trajectories(grid, 5, kernel_rng)
    rng = np.random.default_rng(seed)
    starts = [tuple(start) for start in table._starts(5, rng).tolist()]
    assert rows.tolist() == [_evolved(table, start, grid) for start in starts]
    assert kernel_rng.random() == rng.random()


def _scalar_start(table, rng):
    """The start of one path from scalar draws: x and y, redrawn until the
    point is off every obstacle, then theta."""
    while True:
        x, y = rng.random() * table.width, rng.random() * table.height
        if all(math.hypot(x - cx, y - cy) > r for cx, cy, r in table.obstacles):
            return (x, y, rng.random() * 2 * math.pi)


def _layout_starts(table, m, rng):
    """The starts of a chunk of m paths in the documented layout: x and y
    for every row from one rng.random((m, 2)) call, then one call for the
    rows left on or in an obstacle, and so on until none is, then theta for
    every row from one rng.random(m) call."""
    points, left = [None] * m, list(range(m))
    while left:
        draws, redraw = rng.random((len(left), 2)).tolist(), []
        for i, (u, v) in zip(left, draws):
            points[i] = x, y = u * table.width, v * table.height
            if not all(math.hypot(x - cx, y - cy) > r for cx, cy, r in table.obstacles):
                redraw.append(i)
        left = redraw
    return [(x, y, u * 2 * math.pi)
            for (x, y), u in zip(points, rng.random(m).tolist())]


def _evolved(table, state, grid):
    return [list(table.coords(table.evolve(state, t))) for t in grid]


@pytest.mark.parametrize("radius", [0.2, 0.45, None], ids=["r0.2", "r0.45", "empty"])
@pytest.mark.parametrize("m", [1, 2, 257, 3000])
def test_billiard_block_starts_never_over_draw(radius, m):
    """One path draws as the scalar start does; a chunk of m paths draws its
    starts in the documented layout, each in the table and off the obstacle,
    and leaves the generator where that layout leaves it: no uniform is drawn
    past them.  The 0.45 obstacle rejects about 64% of the points."""
    table = BilliardFlow(1.0, 1.0, [] if radius is None else [((0.5, 0.5), radius)], 1.0)
    grid = (0.0, 0.7)
    kernel_rng, rng = np.random.default_rng(m), np.random.default_rng(m)
    rows = table.trajectories(grid, m, kernel_rng)
    starts = [_scalar_start(table, rng)] if m == 1 else _layout_starts(table, m, rng)
    assert rows.tolist() == [_evolved(table, start, grid) for start in starts]
    assert kernel_rng.random() == rng.random()
    x, y, _ = rows[:, 0].T
    assert np.all((x >= 0.0) & (x <= 1.0) & (y >= 0.0) & (y <= 1.0))
    if radius is not None:
        assert np.all(np.hypot(x - 0.5, y - 0.5) > radius)


def test_billiard_starts_follow_the_invariant_law():
    """20,000 starts at the 0.45 obstacle, which rejects about 64% of the
    points, lie in the table and off the obstacle.  At alpha = 0.001 the
    four quadrants, whose free areas are equal, hold equal counts, the ring
    0.45 < d <= 0.5 about the centre holds its share of the free area, and
    theta is uniform over 8 sectors.  Theta is drawn after every position:
    it is the generator's last 20,000 draws."""
    n, table = 20_000, BilliardFlow(1.0, 1.0, [((0.5, 0.5), 0.45)], 1.0)
    rng = np.random.default_rng(25)
    x, y, theta = table._starts(n, rng).T
    d = np.hypot(x - 0.5, y - 0.5)
    assert np.all((x >= 0.0) & (x < 1.0) & (y >= 0.0) & (y < 1.0) & (d > 0.45))
    assert chisquare(np.bincount(2 * (x >= 0.5) + (y >= 0.5), minlength=4)).pvalue > 0.001
    ring = math.pi * (0.5**2 - 0.45**2) / (1 - math.pi * 0.45**2)
    inside = np.count_nonzero(d <= 0.5)
    assert chisquare([inside, n - inside], [n * ring, n * (1 - ring)]).pvalue > 0.001
    sectors = np.bincount((theta // (math.pi / 4)).astype(int), minlength=8)
    assert len(sectors) == 8 and chisquare(sectors).pvalue > 0.001
    rng.bit_generator.advance(-n)  # back over the last n uniforms
    assert np.array_equal(theta, rng.random(n) * (2 * math.pi))


_LOCKSTEP_TABLES = {  # width, height, obstacles, speed
    "empty": (1.0, 1.0, [], 1.0),
    "r0.2": (1.0, 1.0, [((0.5, 0.5), 0.2)], 1.0),
    "r0.45": (1.0, 1.0, [((0.5, 0.5), 0.45)], 0.5),
    "two": (2.0, 1.0, [((0.5, 0.5), 0.45), ((1.5, 0.5), 0.3)], 1.7),
    "three": (2.0, 1.0, [((0.4, 0.5), 0.25), ((1.0, 0.3), 0.2), ((1.6, 0.6), 0.3)], 3.0),
}


def _per_row(table, grid, m, rng):
    """The chunk of m paths flown one after another by _flight, each from
    its row of _starts."""
    return [[row[k:k + 3] for k in range(0, len(row), 3)]
            for row in (table._flight(start, grid) for start in table._starts(m, rng).tolist())]


@pytest.mark.parametrize("name", sorted(_LOCKSTEP_TABLES))
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("m", [LOCKSTEP_ROWS - 1, LOCKSTEP_ROWS, 2000])
def test_billiard_lockstep_rows_equal_per_row_flights(name, scale, m):
    """The lockstep kernel gives the floats of per-row _flight (compared by
    ==), also on a time 0, a zero increment and a long increment, and both
    leave the generator at the same next draw."""
    width, height, obstacles, speed = _LOCKSTEP_TABLES[name]
    table = BilliardFlow(width * scale, height * scale,
                            [((x * scale, y * scale), r * scale) for (x, y), r in obstacles], speed)
    grid = [t * scale for t in (0.0, 0.0, 0.4, 0.4, 0.9, 3.0)]
    kernel_rng, rng = np.random.default_rng(m), np.random.default_rng(m)
    expect = _per_row(table, grid, m, rng)
    assert table.trajectories(grid, m, kernel_rng).tolist() == expect
    assert kernel_rng.random() == rng.random()
    starts = table._starts(m, np.random.default_rng(m))
    assert table._flights(starts, grid).tolist() == expect


def test_billiard_lockstep_chunk_of_8192_rows_equals_per_row_flights():
    table = BilliardFlow(1.0, 1.0, [((0.5, 0.5), 0.2)], 1.0)
    grid = [0.0, 0.5, 0.5, 1.0]
    kernel_rng, rng = np.random.default_rng(8192), np.random.default_rng(8192)
    assert table.trajectories(grid, 8192, kernel_rng).tolist() == _per_row(table, grid, 8192, rng)
    assert kernel_rng.random() == rng.random()


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3])
def test_billiard_lockstep_corner_hits_equal_per_row_flights(scale):
    """The starts of test_billiard_corner_hits_reflect_at_every_table_scale,
    repeated across a full lockstep chunk."""
    table = BilliardFlow(scale, scale, [], 1.0)
    starts = [(0.5 * scale, 0.5 * scale, (2 * corner + 1) * math.pi / 4 + offset)
              for corner in range(4) for offset in (0.0, 1e-15, -1e-15, 1e-13)]
    starts = (starts * LOCKSTEP_ROWS)[:LOCKSTEP_ROWS]
    grid = [0.25 * scale * i for i in range(40)]
    rows = table._flights(starts, grid).reshape(LOCKSTEP_ROWS, -1)
    assert rows.tolist() == [table._flight(start, grid) for start in starts]


@given(
    st.sampled_from(sorted(_LOCKSTEP_TABLES)),
    st.integers(0, 2**32 - 1),
    st.sampled_from([5, LOCKSTEP_ROWS]),
    st.lists(st.floats(0.0, 30.0), min_size=1, max_size=3),
    st.lists(st.floats(0.0, 30.0), max_size=6),
    st.lists(st.floats(0.0, 30.0), max_size=6),
)
@settings(max_examples=30, deadline=None)
def test_billiard_rows_do_not_depend_on_the_grid(name, seed, m, shared, only_a, only_b):
    """Two ascending grids that share some times give the same floats there,
    whichever kernel flies the chunk, and each is evolve(start, t): a point is
    read from the path's last event, not from the previous grid time."""
    table = BilliardFlow(*_LOCKSTEP_TABLES[name])
    grid_a, grid_b = sorted(shared + only_a), sorted(shared + only_b)
    rows_a = table.trajectories(grid_a, m, np.random.default_rng(seed))
    rows_b = table.trajectories(grid_b, m, np.random.default_rng(seed))
    starts = [tuple(start)
              for start in table._starts(m, np.random.default_rng(seed)).tolist()]
    for t in shared:
        at_a, at_b = rows_a[:, grid_a.index(t)], rows_b[:, grid_b.index(t)]
        assert at_a.tolist() == at_b.tolist()
        assert at_a.tolist() == [list(table.coords(table.evolve(s, t))) for s in starts]


def test_billiard_event_cap_is_the_same_in_lockstep(monkeypatch):
    """The lockstep kernel counts its passes per increment, the largest event
    count of any row: it raises at the caps where the per-row kernel does."""
    table = BilliardFlow(1.0, 1.0, [((0.5, 0.5), 0.2)], 1.0)
    starts, grid = table._starts(LOCKSTEP_ROWS, np.random.default_rng(0)).tolist(), [0.0, 1.0, 2.0]
    kernels = {"lockstep": lambda: table._flights(starts, grid),
               "per row": lambda: [table._flight(start, grid) for start in starts]}
    raised = {}
    for cap in range(8):
        monkeypatch.setattr(systems, "MAX_EVENTS", cap)
        for kernel, fly in kernels.items():
            try:
                fly()
            except SystemError as exc:
                raised[cap, kernel] = str(exc)
        assert raised.get((cap, "lockstep")) == raised.get((cap, "per row"))
    assert raised.get((0, "lockstep")) == "event cap exceeded in one evolve call"
    assert (7, "lockstep") not in raised


@pytest.mark.parametrize("seed, grid, digest, next_draw", [
    (0, (0.0, 1.0), "0d8de835f65cb88bb754eee68d525721fe4f33480e389e28fda42a596f85cc86",
     0.9119550399550601),
    (1, (0.0, 0.3), "d7eebf7426a6f211b975a877567ffd8eb6e7c1b2e5cb2955c610e98b501a54a1",
     0.6006280752352846),
    (2, (0.0, 2.0), "cbf46abbd93243867096bc58cd65a24e89374d2aa144b8c046f3ebbb64d50f92",
     0.5706067416997355),
    (3, (0.5, 1.0, 2.0), "2d406808f27ef36b452eb78efe72288c5294e73e1ae0ff0b3b52925ad6b34889",
     0.10400659704908144),
], ids=[f"seed{seed}" for seed in range(4)])
def test_billiard_phase_space_chunks_are_pinned(seed, grid, digest, next_draw):
    """A 2,000-path chunk on each phase-space grid, each point read from
    its path's last event."""
    table = BilliardFlow(1.0, 1.0, [((0.5, 0.5), 0.2)], 1.0)
    rng = np.random.default_rng(seed)
    rows = table.trajectories(list(grid), 2000, rng)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == digest
    assert rng.random() == next_draw


def test_trajectory_symbols_on_a_shared_generator_are_pinned():
    """Three paths and one more draw from one generator, as computed by the
    scalar kernel with one rng.random() call per uniform."""
    table = BilliardFlow(1.0, 1.0, [((0.5, 0.5), 0.2)], 1.0)
    obs = ObservationFunction(grid_partition(2, 2, space=table.space))
    rng = np.random.default_rng(2024)
    grid = [0.5 * i for i in range(40)]
    cells = ["".join(str(2 * int(c[1]) + int(c[3])) for c in
                     trajectory_symbols(table, obs, grid, rng)) for _ in range(3)]
    assert cells == [
        "2220133322332233332233100013332220133333",
        "3320113220001333100220011320011333110011",
        "0133200113320022000233111133223111331133",
    ]
    assert rng.random() == 0.16961924970704834


def test_billiard_floats_are_pinned():
    """Exact results of the event arithmetic: regrouping the hit time, the
    wall time or the reflection moves them (a one-ulp move of the graze
    threshold is not reached by these states)."""
    table = BilliardFlow(1.0, 1.0, [((0.5, 0.5), 0.2)], 1.0)
    state = table.sample_initial(spawn_rngs(191, 1)[0])  # criterion 10's state
    assert state == (0.7315562929147993, 0.8429089167748404, 4.000538507142786)
    assert table.speed_drift(state, 10_000) == 1.0194067812108187e-12
    starts = [(0.1, 0.2, 0.3), (0.9, 0.75, 2.0), (0.25, 0.8, 4.5)]
    assert [table.evolve(s, 7.3) for s in starts] == [
        (0.7114237562039347, 0.5166741813070619, 2.8747546367031),
        (0.9378611580003174, 0.8594174587278736, 2.1290008157646043),
        (0.6586077623781712, 0.20706832013195775, 2.470840310553112),
    ]
    empty = BilliardFlow(1.0, 1.0, [], 1.0)
    assert empty.evolve((0.5, 0.5, math.pi / 4), 1.0) == (
        0.7928932188134523, 0.7928932188134525, 3.9269908169872414
    )
    assert empty.evolve((0.5, 0.5, 5 * math.pi / 4), 1.0) == (
        0.2071067811865477, 0.20710678118654746, 0.7853981633974482
    )


@pytest.mark.parametrize("speed, t_max", [(1e6, 1e4), (1e300, 1e10)], ids=["large", "inf"])
def test_billiard_events_count_in_the_size_bound(within_a_second, speed, t_max):
    """A path flies about speed * max grid * perimeter / (pi * free area)
    events, so a fast billiard is refused before anything is drawn; at
    1e300 * 1e10 the count is an infinite float, not an OverflowError."""
    table = BilliardFlow(1.0, 1.0, [((0.5, 0.5), 0.2)], speed)
    message = f"more than the {MAX_PATH_STEPS} one sampling call may draw"
    with pytest.raises(ProcessError, match=message):
        observe_trajectories(table, lambda c: c, [0.0, t_max], 1, 0)
    obs = ObservationFunction(grid_partition(2, 2, space=table.space))
    with pytest.raises(SystemError, match=message):
        trajectory_symbols(table, obs, [0.0, t_max], 0)


def test_thin_table_is_refused_by_its_collision_count(within_a_second):
    """A 1 x 1e-6 table hits a wall about 6,366 times per path to t = 0.01,
    so 2^22 paths are refused before any flies."""
    thin = BilliardFlow(1.0, 1e-6, [], 1.0)
    with pytest.raises(ProcessError, match=f"more than the {MAX_PATH_STEPS} one sampling"):
        observe_trajectories(thin, lambda c: c, [0.0, 0.01], 2**22, 0)


def test_size_bound_counts_the_events_a_path_flies():
    """The billiard term is the mean collision count under the invariant
    measure, speed * t over Santalo's mean free path pi * free area /
    perimeter: on the unit table with an r = 0.2 obstacle, 8 paths to
    t = 2,000 fly within 2% of it."""
    table = BilliardFlow(1.0, 1.0, [((0.5, 0.5), 0.2)], 1.0)
    flown = 0
    for x, y, theta in table._starts(8, np.random.default_rng(1)).tolist():
        vx, vy, te = math.cos(theta), math.sin(theta), 0.0
        nt, x, y, vx, vy = systems._event(1.0, 1.0, table.obstacles, x, y, vx, vy)
        while nt < 2000.0 - te:
            te, flown = te + nt, flown + 1
            nt, x, y, vx, vy = systems._event(1.0, 1.0, table.obstacles, x, y, vx, vy)
    term = systems._path_steps(table, [0.0, 2000.0]) - 2
    assert term == pytest.approx(2000 * (4 + 0.4 * math.pi) / (math.pi * (1 - 0.04 * math.pi)))
    assert flown / 8 == pytest.approx(term, rel=0.02)


def test_long_billiard_flight_runs_no_garbage_collection():
    """A 20,000-point row keeps bare floats, so the flight never reaches the
    collector's allocation threshold (a tuple per point would, about 28 times)."""
    table = BilliardFlow(1.0, 1.0, [((0.5, 0.5), 0.2)], 1.0)
    grid = (np.arange(20_000) * 0.5).tolist()
    runs = []

    def callback(phase, info):
        if phase == "start":
            runs.append(info)

    gc.collect()
    gc.callbacks.append(callback)
    try:
        table.trajectories(grid, 1, np.random.default_rng(3))
    finally:
        gc.callbacks.remove(callback)
    assert runs == []


def test_billiard_stays_inside(table):
    for rng in spawn_rngs(3, 20):
        s = table.sample_initial(rng)
        x, y, _ = table.evolve(s, 7.3)
        assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0
        assert math.hypot(x - 0.5, y - 0.5) >= 0.2 - 1e-9


def test_billiard_speed_drift_small(table):
    rng = spawn_rngs(11, 1)[0]
    s = table.sample_initial(rng)
    assert table.speed_drift(s, 1000) < 1e-9


def test_forward_only_flows_reject_negative_time(table):
    state = (0.2, 0.3, 0.4)
    with pytest.raises(SystemError):
        table.evolve(state, -0.3)
    flow = SuspensionFlow(_TwoPointBase(), RoofFunction({"a": 1.0, "b": 2.0}))
    with pytest.raises(SystemError):
        flow.evolve(("a", 0.5), -0.3)
    assert table.metric(table.coords(table.evolve(state, 0.0)), table.coords(state)) < 1e-12
    assert flow.evolve(("a", 0.5), 0.0) == ("a", 0.5)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -0.3])
def test_forward_only_flows_reject_a_non_finite_time(table, within_a_second, t):
    state = (0.2, 0.3, 0.4)
    with pytest.raises(SystemError, match=f"billiard flow runs forward only, .* got t={t}$"):
        table.evolve(state, t)
    flow = SuspensionFlow(_TwoPointBase(), RoofFunction({"a": 1.0, "b": 2.0}))
    with pytest.raises(SystemError, match=f"suspension flow runs forward only, .* got t={t}$"):
        flow.evolve(("a", 0.5), t)


def test_billiard_time_additivity(table):
    rng = spawn_rngs(5, 1)[0]
    s0 = table.sample_initial(rng)
    a = table.evolve(table.evolve(s0, 1.3), 2.1)
    b = table.evolve(s0, 3.4)
    assert table.metric(table.coords(a), table.coords(b)) < 1e-7


# -- baker ------------------------------------------------------------------


def test_baker_step_values():
    bk = BakerMap()
    assert bk.step((0.25, 0.5)) == (0.5, 0.25)
    assert bk.step((0.75, 0.5)) == (0.5, 0.75)


def test_baker_inverse_round_trip():
    bk = BakerMap()
    for rng in spawn_rngs(1, 10):
        p = bk.sample_initial(rng)
        q = bk.inverse(bk.step(p))
        assert bk.metric(p, q) < 1e-12
        assert bk.metric(bk.evolve(bk.evolve(p, 3), -3), p) < 1e-12


def test_baker_preserves_lebesgue_empirically():
    bk = BakerMap()
    inside = 0
    n = 20_000
    for rng in spawn_rngs(2, n):
        x, y = bk.evolve(bk.sample_initial(rng), 5)
        if x < 0.5 and y < 0.25:
            inside += 1
    assert abs(inside / n - 0.125) < 3 * math.sqrt(0.125 * 0.875 / n)


def test_baker_paths_on_a_fractional_grid_are_read_at_the_floor():
    # the path at t is evolve(start, t), floor(t) map steps, also when the
    # grid increments are not whole
    bk = BakerMap()
    grid = (0.0, 0.5, 1.0, 1.5, 2.0, 2.7, 4.2)
    coords = observe_trajectories(bk, lambda c: c, grid, 3, 1)
    for row in coords:
        start = tuple(row[0])
        for t, point in zip(grid, row):
            assert tuple(point) == bk.evolve(start, t)


# -- suspension flow ---------------------------------------------------------


class _TwoPointBase:
    """Deterministic two-point base alternating a <-> b."""

    def sample_initial(self, rng):
        return "a" if rng.random() < 0.5 else "b"

    def step(self, s):
        return "b" if s == "a" else "a"

    def label(self, s):
        return s

    def coords(self, s):
        return (0.0,) if s == "a" else (1.0,)

    def metric(self, x, y):
        return np.abs(np.asarray(x)[..., 0] - np.asarray(y)[..., 0])


def test_roof_function_rejects_nonpositive():
    # an infinite roof never lets sample_initial accept a base point, and a
    # NaN roof's base point is never visited
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(SystemError, match="finite and positive"):
            RoofFunction({"a": 1.0, "b": bad})


def test_suspension_flow_sojourn_lengths():
    flow = SuspensionFlow(_TwoPointBase(), RoofFunction({"a": 1.0, "b": 2.0}))
    state = ("a", 0.0)
    assert flow.observe(state) == "a"
    assert flow.observe(flow.evolve(state, 0.99)) == "a"
    assert flow.observe(flow.evolve(state, 1.0)) == "b"
    assert flow.observe(flow.evolve(state, 2.99)) == "b"
    assert flow.observe(flow.evolve(state, 3.0)) == "a"


def test_suspension_flow_time_marginal_is_roof_weighted():
    # stationary fraction of time in "b" is 2/3 for roof (1, 2)
    flow = SuspensionFlow(_TwoPointBase(), RoofFunction({"a": 1.0, "b": 2.0}))
    hits = 0
    n = 30_000
    for rng in spawn_rngs(9, n):
        if flow.observe(flow.sample_initial(rng)) == "b":
            hits += 1
    assert abs(hits / n - 2 / 3) < 3 * math.sqrt((2 / 3) * (1 / 3) / n)


def test_suspension_semigroup():
    flow = SuspensionFlow(
        _TwoPointBase(), RoofFunction({"a": 1.0, "b": math.sqrt(2)})
    )
    rng = np.random.default_rng(4)
    for _ in range(200):
        s = flow.sample_initial(rng)
        t1, t2 = 3 * rng.random(), 3 * rng.random()
        one, two = flow.evolve(s, t1 + t2), flow.evolve(flow.evolve(s, t1), t2)
        assert flow.metric(flow.coords(one), flow.coords(two)) < 1e-9


def test_suspension_flow_refuses_more_roofs_than_the_step_cap(within_a_second):
    """One roof per loop step: t / shortest roof above MAX_PATH_STEPS is
    refused before the loop, and t = 1e6 on roofs 1 and 2 still steps."""
    flow = SuspensionFlow(_TwoPointBase(), RoofFunction({"a": 1.0, "b": 2.0}))
    message = f"more than {MAX_PATH_STEPS} roofs in one evolve call, got t=1000000000000000.0$"
    with pytest.raises(SystemError, match=message):
        flow.evolve(("a", 0.5), 1e15)
    assert flow.evolve(("a", 0.5), 1e6) == ("b", 0.5)
    assert flow.evolve(("b", 0.25), 1e6 + 0.3) == ("b", 1.5500000000465661)


# -- observed trajectories ----------------------------------------------------


def test_trajectory_symbols_rotation_exact():
    rot = RotationFlow(0.25)
    obs = ObservationFunction(interval_partition([0.0, 0.5, 1.0], ["L", "R"]))

    rng = np.random.default_rng(0)
    path = trajectory_symbols(rot, obs, [0.0, 1.0, 2.0, 3.0], rng)
    x0 = np.random.default_rng(0).random()
    expect = tuple("L" if (x0 + 0.25 * t) % 1.0 < 0.5 else "R" for t in (0, 1, 2, 3))
    assert path == expect


def test_trajectory_symbols_requires_sorted_grid():
    rot = RotationFlow(0.5)
    obs = ObservationFunction(interval_partition([0.0, 0.5, 1.0], ["L", "R"]))
    for grid, message in [
        ([1.0, 0.0], "ascending and nonnegative"),
        ([-1.0, 0.0], "ascending and nonnegative"),
        ([0.0, math.nan], "finite times"),
        ([0.0, math.inf], "finite times"),
    ]:
        with pytest.raises(SystemError, match=message):
            trajectory_symbols(rot, obs, grid, 0)


def test_trajectory_symbols_on_billiard_grid_partition():
    table = BilliardFlow(1.0, 1.0, [((0.5, 0.5), 0.2)], 1.0)
    obs = ObservationFunction(grid_partition(2, 2, space=table.space))
    path = trajectory_symbols(table, obs, [0.0, 0.5, 1.0], spawn_rngs(8, 1)[0])
    assert len(path) == 3
    assert all(s in obs.alphabet for s in path)
