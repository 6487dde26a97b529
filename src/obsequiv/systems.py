"""Measure-preserving deterministic systems.

Rotation flow on the circle, event-driven billiard with convex circular
obstacles, the baker's map, and flows built under a function over a
discrete base.  Every system exposes:

  sample_initial(rng) -> state        draw from the invariant measure
  evolve(state, t)    -> state        deterministic time evolution
  coords(state)       -> tuple        d coordinates for partitions/observations
  metric(a, b)        -> distance     phase-space distance of coordinates: of
                                      two points, or elementwise over arrays
                                      (..., d), giving an array (...)

The rotation, billiard and baker also have a kernel

  trajectories(grid, m, rng) -> array coordinates (m, len(grid), d) of m paths

which observe_trajectories calls once per chunk; other systems are sampled
one path after another by sample_initial and evolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .partitions import Box, PhaseSpace, UNIT_INTERVAL, UNIT_SQUARE
from .processes import (MAX_PATH_STEPS, ProcessError, as_grid, check_path_steps,
                        sample_in_chunks)

__all__ = [
    "trajectory_symbols",
    "observe_trajectories",
    "spawn_rngs",
    "RotationFlow",
    "BilliardFlow",
    "BilliardState",
    "BakerMap",
    "SuspensionFlow",
    "RoofFunction",
]

MAX_EVENTS = 10_000_000
LOCKSTEP_ROWS = 256  # fewest billiard paths flown in lockstep
GRAZE_GUARD = 1e-12  # circle hits only: shortest hit time, and the graze bound over r^2 |v|^2


class SystemError(ValueError):
    pass


def spawn_rngs(seed, n):
    """Independent per-trajectory generators derived from one master seed.

    Accepts an integer seed or an already-built SeedSequence.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in ss.spawn(n)]


# ---------------------------------------------------------------------------
# rotation flow


@dataclass(frozen=True)
class RotationFlow:
    """T_t(m) = (m + alpha*t) mod 1 on the circle [0,1), Lebesgue-invariant."""

    alpha: float
    space: PhaseSpace = UNIT_INTERVAL

    def __post_init__(self):
        alpha = float(self.alpha)
        if not math.isfinite(alpha):
            raise SystemError(f"alpha must be finite, got {alpha!r}")
        if alpha == 0:
            raise SystemError("alpha=0 gives a degenerate (frozen) flow")
        object.__setattr__(self, "alpha", alpha)

    def sample_initial(self, rng):
        return float(rng.random())

    def evolve(self, state, t):
        return (state + self.alpha * t) % 1.0

    def trajectories(self, grid, m, rng):
        """Path j starts at rng.random(m)[j], the draw of sample_initial, and
        its point at t is evolve(start, t), so a column does not depend on the
        other grid times."""
        return ((rng.random(m)[:, None] + self.alpha * np.asarray(grid)) % 1.0)[..., None]

    def coords(self, state):
        return (state,)

    def metric(self, a, b):
        """Circle distance of coordinates (..., 1)."""
        d = np.abs(np.asarray(a)[..., 0] - np.asarray(b)[..., 0]) % 1.0
        return np.minimum(d, 1.0 - d)


# ---------------------------------------------------------------------------
# billiard with convex circular obstacles


@dataclass(frozen=True)
class BilliardState:
    x: float
    y: float
    theta: float  # direction in [0, 2*pi)


class BilliardFlow:
    """Free flight at constant speed with specular reflection.

    Walls of a width x height table and circular obstacles reflect the
    velocity about the inward normal.  Grazing circle hits (a discriminant
    below GRAZE_GUARD r^2 |v|^2, at any table scale, or tangential
    incidence) are no-hit.  Walls have no time guard: a wall just reflected
    is not approached, so both walls of a corner hit reflect.
    """

    def __init__(self, width, height, obstacles, speed):
        if not all(math.isfinite(v) and v > 0 for v in (width, height)):
            raise SystemError(f"table width and height must be finite and positive, "
                              f"got {width!r} x {height!r}")
        if not (math.isfinite(speed) and speed > 0):
            raise SystemError(f"speed must be finite and positive, got {speed!r}")
        self.width, self.height, self.speed = float(width), float(height), float(speed)
        self.obstacles = [(float(cx), float(cy), float(r)) for (cx, cy), r in obstacles]
        for cx, cy, r in self.obstacles:
            if r <= 0:
                raise SystemError("obstacle radius must be positive")
            if not (r < cx < self.width - r and r < cy < self.height - r):
                raise SystemError("obstacle not strictly inside the table")
        for i, (x1, y1, r1) in enumerate(self.obstacles):
            for x2, y2, r2 in self.obstacles[i + 1:]:
                if math.hypot(x1 - x2, y1 - y2) <= r1 + r2:
                    raise SystemError("obstacles overlap")
        self.space = PhaseSpace(
            "billiard",
            Box((0.0, 0.0, 0.0), (self.width, self.height, 2 * math.pi)),
            periodic=(2,),
        )
        self._diag = math.hypot(self.width, self.height)

    def sample_initial(self, rng):
        return BilliardState(*self._starts(1, rng)[0].tolist())

    def _starts(self, m, rng):
        """Starts (m, 3) of m paths, rows (x, y, theta): x and y drawn for all
        rows, the rows on or in an obstacle drawn again until none is, then
        theta for all rows.  One row takes the uniforms of scalar draws."""
        xy, left = np.empty((m, 2)), np.arange(m)
        while left.size:
            xy[left] = draw = rng.random((left.size, 2)) * (self.width, self.height)
            free = np.ones(left.size, dtype=bool)
            for cx, cy, r in self.obstacles:
                free &= np.hypot(draw[:, 0] - cx, draw[:, 1] - cy) > r
            left = left[~free]
        return np.column_stack((xy, rng.random(m) * (2 * math.pi)))

    def evolve(self, state, t):
        if not 0 <= t < math.inf:
            raise SystemError(f"billiard flow runs forward only, for a finite time, got t={t}")
        return BilliardState(*self._flight((state.x, state.y, state.theta), (float(t),)))

    def trajectories(self, grid, m, rng):
        """Each path started by _starts and flown along the grid: a chunk of
        at least LOCKSTEP_ROWS paths all at once by _flights, a smaller one
        path by path by _flight, to the same floats."""
        starts = self._starts(m, rng)
        if m >= LOCKSTEP_ROWS:
            return self._flights(starts, grid)
        out = np.empty((m, 3 * len(grid)))
        for i, start in enumerate(starts.tolist()):  # one path's floats at a time
            out[i] = self._flight(start, grid)
        return out.reshape(m, len(grid), 3)

    def _flights(self, starts, grid):
        """Coordinates (m, len(grid), 3) of the _flight of every start, flown
        in lockstep: each row keeps the time te of its last event and nt to its
        next, found by _hits; each pass over the rows whose next hit comes
        before the grid time moves them there and reflects them as _event does
        (numpy's + - * / sqrt and comparisons round as math's; the angles stay
        math calls), and the grid time reads every row from its last event.
        MAX_EVENTS bounds the passes of an increment: its most events in a row."""
        speed, disks = self.speed, np.array(self.obstacles).reshape(-1, 3)
        x, y, theta = np.array(starts, dtype=float).T
        m = len(x)
        vx = speed * np.fromiter(map(math.cos, theta.tolist()), float, m)
        vy = speed * np.fromiter(map(math.sin, theta.tolist()), float, m)
        te, (nt, kind) = np.zeros(m), self._hits(x, y, vx, vy)
        out = np.empty((m, len(grid), 3))
        for j, t in enumerate(grid):
            act, events = np.flatnonzero(nt < t - te), 0
            while act.size:
                events += 1
                if events > MAX_EVENTS:
                    raise SystemError("event cap exceeded in one evolve call")
                best, k, avx, avy = nt[act], kind[act], vx[act], vy[act]
                ax, ay, te[act] = x[act] + avx * best, y[act] + avy * best, te[act] + best
                avx[k == 1] *= -1.0
                avy[k == 2] *= -1.0
                c = k >= 3
                hx, hy, hr = disks[k[c] - 3].T
                nx, ny = (ax[c] - hx) / hr, (ay[c] - hy) / hr
                dot = avx[c] * nx + avy[c] * ny
                avx[c], avy[c] = avx[c] - 2 * dot * nx, avy[c] - 2 * dot * ny
                x[act], y[act], vx[act], vy[act] = ax, ay, avx, avy
                nt[act], kind[act] = self._hits(ax, ay, avx, avy)
                act = act[nt[act] < t - te[act]]
            d = t - te
            out[:, j, 0], out[:, j, 1] = x + vx * d, y + vy * d
            out[:, j, 2] = [math.atan2(b, a) % (2 * math.pi)
                            for a, b in zip(vx.tolist(), vy.tolist())]
        return out

    def _hits(self, x, y, vx, vy):
        """The search of _event over arrays of rows, its expressions in its
        order less the receding skip: each row's next hit time and its kind,
        1 and 2 the x and y walls, 3 + i circle i, 0 none (an infinite time)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            best = np.where(vx != 0, np.where(vx > 0, self.width - x, -x) / vx, math.inf)
            kind = (vx != 0).astype(np.intp)
            t = np.where(vy > 0, self.height - y, -y) / vy
            new = (vy != 0) & (t < best)
            best, kind = np.where(new, t, best), np.where(new, 2, kind)
            v2 = vx * vx + vy * vy
            for i, (cx, cy, r) in enumerate(self.obstacles):
                dx, dy = x - cx, y - cy
                b = dx * vx + dy * vy
                disc = b * b - v2 * (dx * dx + dy * dy - r * r)
                t = (-b - np.sqrt(disc)) / v2
                new = ~(disc < GRAZE_GUARD * v2 * r * r) & (GRAZE_GUARD < t) & (t < best)
                best, kind = np.where(new, t, best), np.where(new, 3 + i, kind)
        return best, kind

    def _flight(self, start, grid):
        """[x, y, theta, x, y, theta, ...], one flat triple per time of the
        ascending nonnegative grid, of the path from start (x, y, theta): the
        velocity, set from theta once, is carried from hit to hit, each found
        once by _event, and time t is read from the last hit strictly before
        it (a hit at t reads at the wall), so the point at t is evolve(start,
        t) on any grid.  The row holds bare floats, so a long flight allocates
        no container the garbage collector must scan."""
        x, y, theta = start
        W, H, circles, speed = self.width, self.height, self.obstacles, self.speed
        vx, vy = speed * math.cos(theta), speed * math.sin(theta)
        nt, x2, y2, vx2, vy2 = _event(W, H, circles, x, y, vx, vy)
        te, row = 0.0, []
        for t in grid:
            hits = 0
            while nt < t - te:
                te, x, y, vx, vy, hits = te + nt, x2, y2, vx2, vy2, hits + 1
                if hits > MAX_EVENTS:
                    raise SystemError("event cap exceeded in one evolve call")
                nt, x2, y2, vx2, vy2 = _event(W, H, circles, x, y, vx, vy)
            d = t - te
            row += (x + vx * d, y + vy * d, math.atan2(vy, vx) % (2 * math.pi))
        return row

    def speed_drift(self, state, n_events):
        """Max deviation of |v| from the nominal speed over consecutive events.

        Tracks the velocity through n_events reflections without
        renormalizing, so accumulated floating-point drift is visible.
        """
        x, y, speed = state.x, state.y, self.speed
        vx, vy = speed * math.cos(state.theta), speed * math.sin(state.theta)
        drift = 0.0
        for _ in range(int(n_events)):
            nt, x, y, vx, vy = _event(self.width, self.height, self.obstacles, x, y, vx, vy)
            if nt == math.inf:
                raise SystemError("no further events from this state")
            drift = max(drift, abs(math.hypot(vx, vy) - speed))
        return drift

    def coords(self, state):
        return (state.x, state.y, state.theta)

    def metric(self, a, b):
        """Position distance plus the table diagonal times the angle
        distance, of coordinates (..., 3)."""
        a, b = np.asarray(a), np.asarray(b)
        dth = np.abs(a[..., 2] - b[..., 2]) % (2 * math.pi)
        dth = np.minimum(dth, 2 * math.pi - dth)
        return np.hypot(a[..., 0] - b[..., 0], a[..., 1] - b[..., 1]) + self._diag * dth


def _event(W, H, circles, x, y, vx, vy):
    """The next wall or circle hit of the point (x, y) flying at velocity
    (vx, vy) on a W x H table with circles (cx, cy, r): (time to it, and x, y,
    vx, vy just after it, the velocity reflected), or (inf, x, y, vx, vy) when
    nothing lies ahead."""
    best_t, kind = math.inf, 0  # kind: 1 and 2 the x and y walls, 3 a circle
    if vx:
        best_t, kind = ((W - x) if vx > 0 else -x) / vx, 1
    if vy:
        t = ((H - y) if vy > 0 else -y) / vy
        if t < best_t:
            best_t, kind = t, 2
    v2 = vx * vx + vy * vy
    for cx, cy, r in circles:
        dx, dy = x - cx, y - cy
        b = dx * vx + dy * vy
        if b >= 0:  # receding: its hit time (-b - sqrt(disc)) / v2 is not positive
            continue
        disc = b * b - v2 * (dx * dx + dy * dy - r * r)  # v2 (r^2 - squared miss distance)
        if disc < GRAZE_GUARD * v2 * r * r:
            continue
        t = (-b - math.sqrt(disc)) / v2
        if GRAZE_GUARD < t < best_t:
            best_t, kind, hx, hy, hr = t, 3, cx, cy, r
    if not kind:
        return best_t, x, y, vx, vy
    x, y = x + vx * best_t, y + vy * best_t
    if kind == 1:
        return best_t, x, y, -vx, vy
    if kind == 2:
        return best_t, x, y, vx, -vy
    nx, ny = (x - hx) / hr, (y - hy) / hr
    dot = vx * nx + vy * ny
    return best_t, x, y, vx - 2 * dot * nx, vy - 2 * dot * ny


# ---------------------------------------------------------------------------
# baker's map


class BakerMap:
    """B(x,y) = (2x mod 1, (y + floor(2x))/2) on the unit square.

    A state is a pair (x, y) of floats, or of arrays for many points at once;
    evolve(state, t) applies int(t) steps, so one path costs a step per unit
    of time, and a path is read at floor(t) for each grid time t.
    """

    space = UNIT_SQUARE

    def sample_initial(self, rng):
        return (float(rng.random()), float(rng.random()))

    def step(self, state):
        x, y = state
        k = np.floor(2.0 * x)
        return ((2.0 * x) % 1.0, (y + k) / 2.0)

    def inverse(self, state):
        x, y = state
        k = np.floor(2.0 * y)
        return ((x + k) / 2.0, (2.0 * y) % 1.0)

    def evolve(self, state, n):
        n = int(n)
        f = self.step if n >= 0 else self.inverse
        for _ in range(abs(n)):
            state = f(state)
        return state

    def trajectories(self, grid, m, rng):
        """Path j starts at rng.random((m, 2))[j], the draws of
        sample_initial, and all m paths advance at once by evolve over the
        floored grid, so the point at t is evolve(start, t) also when the
        grid increments are fractional."""
        start = tuple(rng.random((m, 2)).T)
        return np.array(_along(self, start, np.floor(grid))).transpose(2, 0, 1)

    def coords(self, state):
        return state

    def metric(self, a, b):
        """Euclidean distance of coordinates (..., 2)."""
        a, b = np.asarray(a), np.asarray(b)
        return np.hypot(a[..., 0] - b[..., 0], a[..., 1] - b[..., 1])


# ---------------------------------------------------------------------------
# flow built under a function


@dataclass(frozen=True)
class RoofFunction:
    """Holding time over each base symbol; all values finite and strictly positive."""

    heights: dict

    def __post_init__(self):
        object.__setattr__(self, "heights", {k: float(v) for k, v in self.heights.items()})
        if not all(math.isfinite(v) and v > 0 for v in self.heights.values()):
            raise SystemError("roof values must be finite and positive")

    def __call__(self, symbol):
        return self.heights[symbol]


class SuspensionFlow:
    """Unit-rate vertical motion under a roof, jumping by the base map.

    State is (base_point, height) with 0 <= height < roof(label(base_point)).
    The invariant measure is the normalized product of the base measure and
    height-Lebesgue, total mass 1; sampling length-biases the base point by
    its roof value.
    """

    def __init__(self, base, roof: RoofFunction):
        self.base = base
        self.roof = roof
        self.label = base.label

    def sample_initial(self, rng):
        umax = max(self.roof.heights.values())
        while True:
            k = self.base.sample_initial(rng)
            u = self.roof(self.label(k))
            if rng.random() * umax < u:
                break
        return (k, float(rng.random() * u))

    def evolve(self, state, t):
        if not 0 <= t < math.inf:
            raise SystemError(f"suspension flow runs forward only, for a finite time, got t={t}")
        k, v = state
        total = v + float(t)
        if total / min(self.roof.heights.values()) > MAX_PATH_STEPS:
            raise SystemError(f"suspension flow may cross more than {MAX_PATH_STEPS} roofs "
                              f"in one evolve call, got t={t}")
        u = self.roof(self.label(k))
        while total >= u:
            total -= u
            k = self.base.step(k)
            u = self.roof(self.label(k))
        return (k, total)

    def coords(self, state):
        k, v = state
        return tuple(self.base.coords(k)) + (v,)

    def metric(self, a, b):
        """The base metric of the base coordinates plus the height difference."""
        a, b = np.asarray(a), np.asarray(b)
        return self.base.metric(a[..., :-1], b[..., :-1]) + np.abs(a[..., -1] - b[..., -1])

    def observe(self, state):
        """Base symbol of the current fiber (the Delta-style observation)."""
        return self.label(state[0])


# ---------------------------------------------------------------------------
# observed trajectories


def observe_trajectories(system, f, grid, n, seed):
    """f of the coordinates of n trajectories on the grid, stacked over chunks.

    The grid must be ascending and nonnegative.  Paths come in the chunks of
    processes.sample_in_chunks: chunk i draws its m paths from child i of the
    seed's SeedSequence, and f receives their coordinates (m, len(grid), d)
    and returns an array with leading axis m.  The system's trajectories
    kernel draws the chunk when it has one; otherwise its paths are drawn
    one after another, each by sample_initial and then evolved by every grid
    increment from time 0.  n times the path steps (one per grid time, for
    the baker one per unit of time, for the billiard its expected event count)
    is checked against processes.MAX_PATH_STEPS before anything is drawn.
    """
    grid = as_grid(grid).tolist()
    return sample_in_chunks(
        lambda m, rng: f(_coordinates(system, grid, m, rng)), n, seed, _path_steps(system, grid)
    )


def _path_steps(system, grid):
    """Steps of one path on the grid: a point per grid time, a map step per
    unit of time for the baker, and for the billiard its expected event count,
    speed * max grid over Santalo's mean free path (a float: a huge speed fails)."""
    if isinstance(system, BilliardFlow):
        W, H, r = system.width, system.height, np.array(system.obstacles).reshape(-1, 3)[:, 2]
        free_path = math.pi * (W * H - math.pi * (r @ r)) / (2 * (W + H) + 2 * math.pi * r.sum())
        return len(grid) + system.speed * grid[-1] / free_path
    return len(grid) + (math.floor(grid[-1]) if isinstance(system, BakerMap) else 0)


def _coordinates(system, grid, m, rng):
    """Coordinates (m, len(grid), d) of m trajectories drawn from rng."""
    if hasattr(system, "trajectories"):
        return system.trajectories(grid, m, rng)
    paths = [_along(system, system.sample_initial(rng), grid) for _ in range(m)]
    return np.array(paths, dtype=float)


def _along(system, state, grid):
    """[coords(state) at each grid time], the state evolved by every grid
    increment from time 0."""
    t_now, row = 0.0, []
    for t in grid:
        state = system.evolve(state, t - t_now)
        t_now = t
        row.append(system.coords(state))
    return row


def trajectory_symbols(system, obs, grid, seed_or_rng) -> tuple:
    """Symbols of one trajectory at the grid times, as a tuple.

    Deterministic given the seed: the path is the one-path case of
    observe_trajectories, drawn from the generator, and obs codes its
    coordinates at once.
    """
    try:
        grid = as_grid(grid).tolist()
        check_path_steps(1, _path_steps(system, grid))
    except ProcessError as exc:
        raise SystemError(str(exc)) from None
    (symbols,) = obs(_coordinates(system, grid, 1, np.random.default_rng(seed_or_rng)))
    return tuple(symbols.tolist())
