"""Stationary Markov, n-step Markov, and (n-step) semi-Markov processes.

Holding times carry an exact symbolic form, rational coefficient times a
square-free radical, so irrational-relatedness of the holding-time set is
decidable instead of being guessed from floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

__all__ = [
    "HoldingTime",
    "MarkovChainSpec",
    "MarkovDiagnostics",
    "SemiMarkovSpec",
    "RealizationPath",
    "validate_markov_spec",
    "sample_chain",
    "sample_semi_markov",
    "chain_codes",
    "semi_markov_codes",
    "sample_in_chunks",
    "as_grid",
    "block_embedding",
    "irrationally_related",
]

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10
CHUNK = 8192  # paths per independently seeded chunk of sample_in_chunks
MAX_PATH_STEPS = 2**24  # largest rows x lockstep steps one sampling call may draw
WALK_CELLS = 1024  # most steps x paths x contexts one block walk composes
WALK_ROWS = 16  # fewest rows per block worth a walk; below it the kernels step row by row
MAX_RADICAND = 10**12  # largest radicand, so trial division stops within 10^6 steps


class ProcessError(ValueError):
    pass


# ---------------------------------------------------------------------------
# exact holding times


def _squarefree_split(n):
    """n = s^2 * f with f square-free; returns (s, f)."""
    if n <= 0:
        raise ProcessError("radicand must be a positive integer")
    if n > MAX_RADICAND:
        raise ProcessError(f"radicand {n} is above MAX_RADICAND = {MAX_RADICAND}")
    s, f, d = 1, n, 2
    while d * d <= f:
        while f % (d * d) == 0:
            f //= d * d
            s *= d
        d += 1
    return s, f


@dataclass(frozen=True)
class HoldingTime:
    """Exact positive holding time q * sqrt(d), q rational, d a positive int;
    value is its float, which must be positive and finite."""

    coeff: Fraction
    radicand: int = 1
    value: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q = Fraction(self.coeff)
        s, f = _squarefree_split(int(self.radicand))
        object.__setattr__(self, "coeff", q * s)
        object.__setattr__(self, "radicand", f)
        if self.coeff <= 0:
            raise ProcessError("holding time must be positive")
        try:
            value = float(self.coeff) * math.sqrt(f)
        except OverflowError:
            value = math.inf
        if not 0.0 < value < math.inf:
            raise ProcessError(f"holding time is {value} as a float, not positive and finite")
        object.__setattr__(self, "value", value)

    def __repr__(self):
        if self.radicand == 1:
            return f"HoldingTime({self.coeff})"
        return f"HoldingTime({self.coeff}*sqrt({self.radicand}))"


def irrationally_related(holding_times) -> bool:
    """True iff every pairwise ratio of distinct values is irrational.

    Decided exactly from the symbolic form: after normalizing to square-free
    radicands, two values have a rational ratio iff their radicands agree.
    Exactly equal values count as one element of the holding-time set.
    """
    for u in holding_times:
        if not isinstance(u, HoldingTime):
            raise ProcessError(
                "holding time without a symbolic certificate (bare float rejected)"
            )
    distinct = {(u.coeff, u.radicand) for u in holding_times}
    radicands = [r for _, r in distinct]
    return len(radicands) == len(set(radicands))


# ---------------------------------------------------------------------------
# Markov chains, order n >= 1


@dataclass(frozen=True)
class MarkovChainSpec:
    """Order-n Markov chain over finitely many states.

    table has one row per length-n context (contexts enumerated
    lexicographically in state order) and one column per next state.
    """

    states: tuple
    table: np.ndarray
    order: int = 1

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        table = np.asarray(self.table, dtype=float)
        n, k = int(self.order), len(self.states)
        if n < 1:
            raise ProcessError("order must be >= 1")
        if len(set(self.states)) != k:
            raise ProcessError(f"duplicate states in {self.states!r}")
        rows = len(table) if table.ndim else 0
        # k^n rows outgrow the table once n passes its bit length: refuse
        # before computing a power that may have millions of digits
        if (k > 1 and n > rows.bit_length()) or table.shape != (k**n, k):
            raise ProcessError(f"order {n} needs a table of shape ({k}^{n}, {k}), "
                               f"got {table.shape}")
        if not np.all(np.isfinite(table)):
            raise ProcessError("transition probabilities must be finite")
        if np.any(table < -ROW_SUM_TOL):
            raise ProcessError("negative transition probability")
        if np.any(np.abs(table.sum(axis=1) - 1.0) > 1e-9):
            raise ProcessError("rows must sum to 1")
        object.__setattr__(self, "table", table)

    @property
    def n_states(self):
        return len(self.states)

    def contexts(self):
        return list(product(self.states, repeat=self.order))

    def context_index(self, ctx):
        k = self.n_states
        idx = 0
        for s in ctx:
            idx = idx * k + self.states.index(s)
        return idx


def _cached(spec, key, build):
    """build() computed once per frozen spec and stored on it under key."""
    value = spec.__dict__.get(key)
    if value is None:
        value = build()
        object.__setattr__(spec, key, value)
    return value


@dataclass
class MarkovDiagnostics:
    irreducible: bool
    aperiodic: bool
    period: int
    stationary: np.ndarray  # over contexts
    marginal: dict  # state -> P(S_0 = state)
    valid: bool = field(init=False)

    def __post_init__(self):
        self.valid = self.irreducible and self.aperiodic and min(self.marginal.values()) > 0


def _closed_matrix(spec: MarkovChainSpec, keep):
    """Transition matrix among the contexts keep, ascending and closed: after
    context i and state s comes context i*k mod m + s."""
    m, k = spec.table.shape
    row, s = np.nonzero(spec.table[keep] > 0)
    Q = np.zeros((len(keep), len(keep)))
    Q[row, np.searchsorted(keep, keep[row] * k % m + s)] = spec.table[keep[row], s]
    return Q


def _stationary_of(Q):
    """pi = pi Q by one exact solve of the balance equations, the last one replaced
    by sum(pi) = 1, with Q_jj - 1 as minus row j's other entries (no cancellation)."""
    n = len(Q)
    A = Q.T.copy()
    A.flat[::n + 1] = -Q.sum(axis=1, where=~np.eye(n, dtype=bool))
    A[-1] = 1.0
    unit = np.zeros(n)
    unit[-1] = 1.0
    pi = np.clip(np.linalg.solve(A, unit), 0.0, None)
    pi /= pi.sum()
    if np.max(np.abs(pi @ Q - pi)) > STATIONARY_TOL:
        raise ProcessError("stationary distribution solve did not converge")
    return pi


def validate_markov_spec(spec: MarkovChainSpec) -> MarkovDiagnostics:
    """Irreducibility, aperiodicity, and stationary distribution of a chain.

    The diagnostics are computed once per spec and cached on it, so the
    samplers and a direct call share one validation.
    """
    return _cached(spec, "_diag", lambda: _diagnose(spec))


def _diagnose(spec):
    m, k = spec.table.shape
    succ, pred = [[] for _ in range(m)], [[] for _ in range(m)]
    rows, s = np.nonzero(spec.table > 0)
    for i, j in zip(rows.tolist(), (rows * k % m + s).tolist()):
        succ[i].append(j)
        pred[j].append(i)
    # sweep of backward searches, each from the next unseen state: the last
    # start r cannot reach any state outside its own class, so that class
    # is closed, and it is the only one iff every state reaches r
    seen = [-1] * m
    for u in range(m):
        if seen[u] < 0:
            r = u
            _bfs(pred, r, seen)
    irreducible = min(_bfs(pred, r, [-1] * m)) >= 0
    pi = np.zeros(m)
    if irreducible:
        depth = _bfs(succ, r, [-1] * m)  # reaches exactly r's class
        recurrent = np.flatnonzero(np.array(depth) >= 0)
        if len(recurrent) ** 2 > MAX_PATH_STEPS:
            raise ProcessError(f"{len(recurrent)} recurrent contexts need a stationary solve "
                               f"of {len(recurrent) ** 2} cells, more than {MAX_PATH_STEPS}")
        period = 0  # gcd of the level differences along the class's edges
        for u in recurrent.tolist():
            for v in succ[u]:
                period = math.gcd(period, depth[u] + 1 - depth[v])
        aperiodic = period == 1
        pi[recurrent] = _stationary_of(_closed_matrix(spec, recurrent))
    else:
        aperiodic, period = False, 0
    marginal = dict(zip(spec.states, pi.reshape(-1, k).sum(axis=0).tolist()))
    return MarkovDiagnostics(irreducible, aperiodic, period, pi, marginal)


def _bfs(adj, root, depth):
    """Breadth-first search from root through the states of depth -1,
    setting the depth of each state it reaches; returns depth."""
    depth[root] = 0
    level = [root]
    while level:
        nxt = []
        for u in level:
            for v in adj[u]:
                if depth[v] < 0:
                    depth[v] = depth[u] + 1
                    nxt.append(v)
        level = nxt
    return depth


def block_embedding(spec: MarkovChainSpec) -> MarkovChainSpec:
    """Order-1 chain over reachable n-blocks, marginals matching n-joints.

    For order 1 this is the identity embedding up to relabeling states by
    singleton blocks.
    """
    if not validate_markov_spec(spec).valid:
        raise ProcessError("cannot embed an invalid chain")
    keep, blocks = _recurrent_blocks(spec)
    Q = _closed_matrix(spec, keep)
    return MarkovChainSpec(blocks, Q / Q.sum(axis=1, keepdims=True), order=1)


def _recurrent_blocks(spec: MarkovChainSpec):
    """(indices, labels) of the contexts of positive stationary mass, in
    context order; a label is the state at order 1, the tuple of states above."""
    keep = np.flatnonzero(validate_markov_spec(spec).stationary > 0)
    contexts = spec.contexts()
    return keep, tuple(contexts[i][0] if spec.order == 1 else contexts[i] for i in keep)


# ---------------------------------------------------------------------------
# lockstep sampling kernels
#
# Every kernel draws n independent paths at once from one Generator; the
# scalar samplers are its n=1 case.  A state is drawn by inverse CDF, as the
# first cumulative probability above u for u uniform on [0, 1).  Contexts
# are indexed arithmetically: after ctx and state s comes ctx*k mod k^order + s.


def sample_in_chunks(draw, n, seed, steps):
    """Rows of draw(m, rng) stacked over fixed-size chunks of n paths.

    Chunk i of CHUNK rows (the last one possibly shorter) draws from its own
    Generator, seeded by child i of the seed's SeedSequence (seed is an int
    or a SeedSequence), so its rows depend only on the seed, the chunk index
    and the chunk size, not on how or in what order chunks are drawn.  The
    whole request, n paths of steps lockstep steps each, is checked against
    MAX_PATH_STEPS before the first chunk.
    """
    n = int(n)
    if n < 1:
        raise ProcessError("need at least one path")
    check_path_steps(n, steps)
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    parts = []
    for i, lo in enumerate(range(0, n, CHUNK)):
        child = np.random.SeedSequence(
            ss.entropy, spawn_key=ss.spawn_key + (i,), pool_size=ss.pool_size
        )
        parts.append(draw(min(CHUNK, n - lo), np.random.default_rng(child)))
    return np.concatenate(parts)


def check_path_steps(rows, steps):
    """Raise ProcessError, before anything is drawn, when rows paths of
    steps lockstep steps each exceed MAX_PATH_STEPS."""
    if rows * steps > MAX_PATH_STEPS:
        raise ProcessError(
            f"{rows} paths of {steps:.3g} steps each are {rows * steps:.3g} path steps, "
            f"more than the {MAX_PATH_STEPS} one sampling call may draw"
        )


def as_grid(grid):
    """A time grid as a float array: nonempty, finite, ascending and nonnegative."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ProcessError("time grid must be a nonempty sequence of times")
    if not np.all(np.isfinite(grid)):
        raise ProcessError(f"time grid must hold finite times, got {grid.tolist()}")
    if np.any(np.diff(grid) < 0) or grid[0] < 0:
        raise ProcessError("time grid must be ascending and nonnegative")
    return grid


def _inverse_cdf(p):
    """Cumulative rows of p, nondecreasing: clipped at 1, and exactly 1 from
    each row's last positive entry on, so no zero-probability outcome is drawn."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    cum = np.minimum(np.cumsum(p, axis=1), 1.0)
    for row, q in zip(cum, p):
        row[np.flatnonzero(q > 0)[-1]:] = 1.0
    return cum


def _draw(cum, u):
    """One inverse-CDF draw per u: the first entry of the 1-D cum above u."""
    return np.searchsorted(cum, u, side="right")


def _chain_tables(spec: MarkovChainSpec):
    """(cumulative stationary law over contexts, cumulative table rows)."""
    diag = validate_markov_spec(spec)
    if not diag.valid:
        raise ProcessError("invalid chain spec")
    return _cached(
        spec, "_tables", lambda: (_inverse_cdf(diag.stationary)[0], _inverse_cdf(spec.table))
    )


def _step(cum, ctx, u):
    """Contexts after the contexts ctx, ctx*k mod k^order + s, and the states
    s drawn by u: the first entry above u in each context's cum row."""
    s = (cum[ctx] > u[:, None]).argmax(axis=1)
    return ctx * cum.shape[1] % len(cum) + s, s


def _walk(cum, ctx, u):
    """Contexts (B, n) that B _step calls on the rows of u lead ctx through:
    each row's successor map over all m contexts, composed with the rows
    before it by a doubling scan, read at ctx."""
    m, k = cum.shape
    succ = np.arange(m) * k % m + (cum > u[..., None, None]).argmax(-1)  # (B, n, m)
    for d in 2 ** np.arange(math.ceil(math.log2(len(u)))):
        succ[d:] = np.take_along_axis(succ[d:], succ[:-d], -1)
    return succ[:, np.arange(len(ctx)), ctx]


def _chain_lockstep(spec: MarkovChainSpec, length, n, rng):
    """State indices (n, length) of n stationary chain paths."""
    check_path_steps(n, length)
    start, cum = _chain_tables(spec)
    k, order = spec.n_states, spec.order
    ctx = _draw(start, rng.random(n))
    out = np.empty((n, length), dtype=np.intp)
    for j in range(min(length, order)):
        out[:, j] = ctx // k ** (order - 1 - j) % k
    u = rng.random((max(length - order, 0), n))
    rows = WALK_CELLS // (n * len(cum))
    for j in range(0, len(u), rows if rows >= WALK_ROWS else 1):
        if rows < WALK_ROWS:
            ctx, out[:, order + j] = _step(cum, ctx, u[j])
        else:
            walk = _walk(cum, ctx, u[j:j + rows])
            ctx, out[:, order + j:order + j + len(walk)] = walk[-1], (walk % k).T
    return out


def chain_codes(spec: MarkovChainSpec, grid, n, rng):
    """State indices (n, len(grid)) of n stationary paths read at floor(t)."""
    grid = as_grid(grid)
    return _chain_lockstep(spec, chain_steps(grid), n, rng)[:, np.floor(grid).astype(np.intp)]


def chain_steps(grid):
    """Lockstep steps of one chain path read on the grid (floor(t) for t)."""
    return math.floor(grid[-1]) + 1


def sojourn_steps(horizon, shortest):
    """Lockstep steps of one path of sojourns at least shortest long that
    passes horizon: a bound on the sojourns it draws."""
    return horizon / shortest + 2


def sample_chain(spec: MarkovChainSpec, length, seed_or_rng):
    """Stationary sample path of the chain as a tuple of symbols."""
    if length < 0:
        raise ProcessError(f"chain length must be nonnegative, got {length}")
    codes = _chain_lockstep(spec, int(length), 1, np.random.default_rng(seed_or_rng))[0]
    return tuple(spec.states[c] for c in codes)


# ---------------------------------------------------------------------------
# semi-Markov processes


@dataclass(frozen=True)
class SemiMarkovSpec:
    """Embedded (possibly n-step) chain plus exact holding times per state."""

    chain: MarkovChainSpec
    holding: dict  # state -> HoldingTime

    def __post_init__(self):
        for s in self.chain.states:
            if s not in self.holding:
                raise ProcessError(f"no holding time for state {s!r}")
            if not isinstance(self.holding[s], HoldingTime):
                raise ProcessError("holding times must carry symbolic certificates")

    @property
    def states(self):
        return self.chain.states

    def u(self, state):
        return self.holding[state].value

    def time_weighted_marginal(self):
        """P(Z_0 = s_i) = p_i u_i / sum_j p_j u_j (the sojourn-length bias)."""
        diag = validate_markov_spec(self.chain)
        if not diag.valid:
            raise ProcessError("invalid embedded chain")
        w = {s: diag.marginal[s] * self.u(s) for s in self.states}
        z = sum(w.values())
        return {s: v / z for s, v in w.items()}


@dataclass(frozen=True)
class RealizationPath:
    """Piecewise-constant path, right-continuous at jumps.

    breaks are strictly increasing epochs; symbols[i] holds on
    [breaks[i], breaks[i+1]).  first_jump is the offset T_0 of the first
    jump after time 0.
    """

    breaks: tuple
    symbols: tuple
    first_jump: float

    def __post_init__(self):
        object.__setattr__(self, "breaks", tuple(float(b) for b in self.breaks))
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if len(self.breaks) != len(self.symbols) + 1:
            raise ProcessError("need one more break than symbols")
        if any(b <= a for a, b in zip(self.breaks, self.breaks[1:])):
            raise ProcessError("jump epochs must be strictly increasing")
        object.__setattr__(self, "_epochs", np.asarray(self.breaks))

    def value(self, t):
        if not (self.breaks[0] <= t < self.breaks[-1]):
            raise ProcessError(f"path does not cover t={t}")
        i = int(np.searchsorted(self._epochs, t, side="right")) - 1
        return self.symbols[i]


def _semi_markov_tables(spec: SemiMarkovSpec):
    """(cumulative length-biased context law, cumulative table rows, holding times)."""
    _, cum = _chain_tables(spec.chain)

    def build():
        hold = np.array([spec.u(s) for s in spec.states])
        k = spec.chain.n_states
        # the context ending in s_i, weighted by u(s_i): length-biases only
        # the sojourn straddling time 0
        weights = validate_markov_spec(spec.chain).stationary * hold[np.arange(len(cum)) % k]
        return _inverse_cdf(weights / weights.sum())[0], hold

    start, hold = _cached(spec, "_tables", build)
    return start, cum, hold


def _semi_markov_lockstep(spec: SemiMarkovSpec, horizon, n, rng):
    """Sojourns of n stationary paths, drawn until every path passes horizon.

    Returns (codes, ends), both (n, J): codes[:, j] is the state index of
    sojourn j and ends[:, j] the epoch at which it ends.  Sojourn 0
    straddles time 0 and ends at the first-jump offset T_0.
    """
    start, cum, hold = _semi_markov_tables(spec)
    check_path_steps(n, sojourn_steps(horizon, hold.min()))
    k = spec.chain.n_states
    ctx = _draw(start, rng.random(n))
    s = ctx % k
    t = hold[s] * (1.0 - rng.random(n))  # uniform on (0, u(S_0)]
    codes, ends = [s[None]], [t[None]]
    rows = WALK_CELLS // (n * len(cum))
    while (t <= horizon).any():
        block = min(rows, int((horizon - t.min()) // hold.max()))  # steps surely drawn
        if block < WALK_ROWS:
            ctx, s = _step(cum, ctx, rng.random(n))
            s, t = s[None], (t + hold[s])[None]
        else:
            walk = _walk(cum, ctx, rng.random((block, n)))
            ctx, s = walk[-1], walk % k
            t = np.cumsum(np.vstack([t[None], hold[s]]), axis=0)[1:]
        codes.append(s)
        ends.append(t)
        t = t[-1]
    return np.concatenate(codes).T, np.concatenate(ends).T


def semi_markov_codes(spec: SemiMarkovSpec, grid, n, rng):
    """State indices (n, len(grid)) of n stationary paths on the grid.

    The sojourn holding at time t is the number of its path's jump epochs
    at or before t (right-continuous at jumps), counted for all paths and
    grid times at once from one searchsorted of the epochs into the grid.
    """
    grid = as_grid(grid)
    codes, ends = _semi_markov_lockstep(spec, grid[-1], n, rng)
    m = len(grid) + 1
    first = np.searchsorted(grid, ends, side="left")  # first grid time >= each epoch
    rows = np.arange(n)[:, None] * m
    passed = np.bincount((rows + first).ravel(), minlength=n * m).reshape(n, m)
    return np.take_along_axis(codes, passed.cumsum(axis=1)[:, :-1], axis=1)


def sample_semi_markov(spec: SemiMarkovSpec, horizon, seed_or_rng) -> RealizationPath:
    """Stationary realization covering [0, horizon].

    The state at time 0 follows the time-weighted marginal (length-biased by
    the holding time); the first-jump offset is uniform on (0, u(S_0)]; every
    later sojourn lasts exactly the holding time of its state.
    """
    if not 0 < horizon < math.inf:
        raise ProcessError(f"horizon must be positive and finite, got {horizon}")
    codes, ends = _semi_markov_lockstep(spec, horizon, 1, np.random.default_rng(seed_or_rng))
    codes, ends = codes[0], ends[0]
    t0 = float(ends[0])
    breaks = (t0 - spec.u(spec.states[codes[0]]),) + tuple(ends)
    return RealizationPath(breaks, tuple(spec.states[c] for c in codes), t0)
