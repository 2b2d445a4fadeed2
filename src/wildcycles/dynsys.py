"""Finite dynamical systems: Euler-discretized vector fields over (Z/pZ)^n,
complete functional-graph decompositions, and the Collatz/2-adic machinery.

The Euler step x -> x + h*g(x) is an explicit surrogate for the flow of
dx/ds = g(x); the step h is recorded in every report rather than hidden.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, List, Optional, Tuple

from .backend import kernels
from .errors import DEFAULT_STATE_BUDGET, DomainMismatch
from .fields import PrimeField
from .poly import MPoly, grid_points, grid_table

State = Tuple[int, ...]


def _check_components(p: int, n: int, components: Tuple[MPoly, ...]) -> None:
    """DomainMismatch unless there are n components, each in n variables
    over F_p: a map of (Z/pZ)^n to itself."""
    fp = PrimeField(p)
    if len(components) != n:
        raise DomainMismatch("component count differs from n")
    for g in components:
        if g.nvars != n or g.domain != fp:
            raise DomainMismatch("component over the wrong ring")


@dataclass(frozen=True)
class DynamicalSystem:
    """n polynomial components over F_p, read as a vector field dx_i/ds = g_i
    or directly as a self-map, per mode."""

    p: int
    n: int
    components: Tuple[MPoly, ...]
    mode: str = "vector-field"

    def __post_init__(self):
        if self.mode not in ("vector-field", "self-map"):
            raise ValueError(f"unknown mode {self.mode!r}")
        _check_components(self.p, self.n, self.components)


@dataclass(frozen=True)
class SelfMap:
    """Polynomial self-map of (Z/pZ)^n."""

    p: int
    n: int
    components: Tuple[MPoly, ...]

    def __post_init__(self):
        _check_components(self.p, self.n, self.components)

    def __call__(self, state: State) -> State:
        return tuple(g.eval(state) for g in self.components)


def euler_discretize(sys: DynamicalSystem, h: int = 1) -> SelfMap:
    """F(x) = x + h*g(x) componentwise over F_p.

    Raises ValueError when h is 0 mod p: F would be the identity whatever g
    is, and its orbits would say nothing about the field."""
    if sys.mode != "vector-field":
        raise ValueError("euler_discretize needs a vector field")
    fp = PrimeField(sys.p)
    hh = fp.from_int(h)
    if hh == fp.zero:
        raise ValueError(f"h = {h} is 0 mod {sys.p}: the Euler map would be the identity")
    comps = []
    for i, g in enumerate(sys.components):
        comps.append(MPoly.variable(sys.n, fp, i) + g.scale(hh))
    return SelfMap(sys.p, sys.n, tuple(comps))


@dataclass(frozen=True)
class OrbitDecomposition:
    """Complete partition of the state space into cycles and tails.

    cycles holds every cycle as its states, each from its least state
    index and sorted by it; every other state is on a tail, and
    max_tail_length is the most steps any state takes to reach its cycle
    (0 when every state is periodic)."""

    p: int
    n: int
    cycles: Tuple[Tuple[State, ...], ...]
    max_tail_length: int

    @property
    def cycle_lengths(self) -> List[int]:
        return [len(c) for c in self.cycles]

    @property
    def periodic_count(self) -> int:
        return sum(self.cycle_lengths)

    def to_json(self) -> dict:
        periodic = self.periodic_count
        return {
            "p": self.p,
            "n": self.n,
            "cycles": [[list(s) for s in c] for c in self.cycles],
            "cycle_lengths": self.cycle_lengths,
            "periodic_count": periodic,
            "tail_state_count": self.p**self.n - periodic,
            "max_tail_length": self.max_tail_length,
        }


def orbit_decomposition(
    F: SelfMap,
    budget: int = DEFAULT_STATE_BUDGET,
) -> OrbitDecomposition:
    """Decompose the functional graph of F on all p^n states.

    State index sum_i x_i p^i numbers the states, and the work stays on
    indices: the selected kernel backend writes the transition table into
    one array (poly.grid_table, which refuses it past the budget) and walks
    it as it is. The walk returns only the cycles, each from its least
    index and sorted by it, and the longest tail, so no Python object is
    made per state: only the periodic states are decoded into tuples, all
    at once.
    """
    p, n = F.p, F.n
    cycles, max_tail = kernels.functional_graph_decompose(grid_table(kernels, F.components, p, n, budget))
    points = iter(grid_points([k for c in cycles for k in c], p, n))
    return OrbitDecomposition(
        p=p,
        n=n,
        cycles=tuple(tuple(islice(points, len(c))) for c in cycles),
        max_tail_length=max_tail,
    )


def periodic_point_count(
    sys: DynamicalSystem, h: int = 1, budget: int = DEFAULT_STATE_BUDGET
) -> int:
    """Number of periodic states of the Euler map of the vector field."""
    F = euler_discretize(sys, h) if sys.mode == "vector-field" else SelfMap(sys.p, sys.n, sys.components)
    return orbit_decomposition(F, budget=budget).periodic_count


# -- Collatz ------------------------------------------------------------

VARIANTS = ("paper", "accelerated")


def collatz_step(x: int, variant: str = "paper") -> int:
    """One step; arbitrary precision, x/2 only ever applied to even x."""
    if x % 2 == 0:
        return x // 2
    return 3 * x + 1 if variant == "paper" else (3 * x + 1) // 2


@dataclass(frozen=True)
class CollatzRecord:
    start: int
    variant: str
    steps_to_cycle: Optional[int]
    cycle: Tuple[int, ...]
    budget_exhausted: bool

    def to_json(self) -> dict:
        return {
            "start": self.start,
            "variant": self.variant,
            "steps_to_cycle": self.steps_to_cycle,
            "cycle": list(self.cycle),
            "budget_exhausted": self.budget_exhausted,
        }


def collatz_orbit(start: int, variant: str = "paper", budget: int = 10**4) -> CollatzRecord:
    """Iterate until a state repeats or the budget runs out.

    The reported cycle starts at its first-visited state and is verified by
    replaying the map around it. Budget exhaustion is an outcome, not an
    error.
    """
    if start < 0:
        raise ValueError("start must be nonnegative")
    if budget < 0:
        raise ValueError(f"the step budget must be nonnegative, not {budget}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    seen = {start: 0}
    orbit = [start]
    x = start
    for step in range(1, budget + 1):
        x = collatz_step(x, variant)
        if x in seen:
            entry = seen[x]
            cycle = tuple(orbit[entry:])
            # replay check
            y = cycle[0]
            for _ in cycle:
                y = collatz_step(y, variant)
            if y != cycle[0]:
                raise RuntimeError(f"cycle replay from {cycle[0]} failed")
            return CollatzRecord(
                start=start,
                variant=variant,
                steps_to_cycle=entry,
                cycle=cycle,
                budget_exhausted=False,
            )
        seen[x] = step
        orbit.append(x)
    return CollatzRecord(
        start=start,
        variant=variant,
        steps_to_cycle=None,
        cycle=(),
        budget_exhausted=True,
    )


def collatz_all_reach_one(limit: int, budget: int = 10**4) -> int:
    """First start in 1..limit whose plain-variant orbit does not reach 1
    within budget steps, or 0 when all do.

    steps[v] keeps the number of steps from v to 1 for every v <= limit on
    an orbit already finished (0 while unknown, and for v = 1), so an orbit
    stops at the first such value and adds its count."""
    steps = [0] * (limit + 1)
    for start in range(2, limit + 1):
        x = start
        k = 0
        path = []
        while x != 1 and (x > limit or not steps[x]):
            if k >= budget:
                return start
            if x <= limit:
                path.append((x, k))
            x = x // 2 if x % 2 == 0 else 3 * x + 1
            k += 1
        total = k + steps[x]
        if total > budget:
            return start
        for v, i in path:
            steps[v] = total - i
    return 0


def _lane_width(k: int, j: int) -> int:
    """Bits per lane at level j of the packed lift to depth k: a lane there
    holds a value below 2^(k-j), its lift is below 2^(k-j+1), and the next
    step's 3v + 1 < 2^(k-j+3) must fit; so the least of 8, 16 and 32 bits
    that holds k - j + 3 bits."""
    bits = k - j + 3
    return 8 if bits <= 8 else 16 if bits <= 16 else 32


def _parity_levels(k: int) -> Iterator[int]:
    """For j < k, one int whose lane r holds, in its bit 0, the parity of
    T^j(r) for every r < 2^(j+1), T the accelerated map; the lanes of level
    j hold _lane_width(k, j) bits each.

    Level j is lifted from level j - 1 by Terras's identity
    T^j(r + 2^j) = T^j(r) + 3^(o_j(r)), o_j(r) the number of odd steps among
    the first j. One int per quantity holds every residue of a level, one
    lane per residue: X holds T^j(r) and M holds 3^(o_j(r)), and each level
    is a dozen big-int operations. At level j, X and M are reduced mod
    2^(k-j), which still fixes every later parity (T^j(r) mod 2^(k-j)
    decides steps j..k-1), and no lane carries into the next. As the
    values shrink the lanes narrow, from 32 to 16 to 8 bits at most: each
    int keeps the low half of every lane, one slice of its bytes.
    """
    width = _lane_width(k, 0)
    X, M, odd, ones = 0, 1, 0, 1  # ones: bit 0 of each lane
    for j in range(k):
        # step level j - 1: odd lanes v -> v + (2v + 1), then every lane is
        # halved; then reduce mod 2^(k-j)
        full = odd * ((1 << width) - 1)
        lanes = ones * ((1 << (k - j)) - 1)
        X = ((X + (((X << 1) | ones) & full)) >> 1) & lanes
        M = (M + ((M << 1) & full)) & lanes
        if _lane_width(k, j) < width:
            # each of the 2^j lanes fits its low half: keep every other half
            half, size = "H" if width == 32 else "B", (width << j) >> 3
            X, M, ones = (
                int.from_bytes(memoryview(v.to_bytes(size, "little")).cast(half)[::2], "little") for v in (X, M, ones)
            )
            width >>= 1
        # lift: lane r + 2^j holds T^j(r) + 3^(o_j(r))
        shift = width << j
        X |= (X + M) << shift
        M |= M << shift
        ones |= ones << shift
        odd = X & ones
        yield odd


def _level_splits(odd: int, j: int, width: int) -> bool:
    """True iff in the level-j parity int odd, lanes r and r + 2^j have
    different parities for every r < 2^j."""
    shift = width << j
    return ((odd >> shift) ^ (odd & ((1 << shift) - 1))).bit_count() == 1 << j


def parity_bijection_check(k: int) -> bool:
    """True iff residues mod 2^k map bijectively onto parity vectors of
    length k (the finite shadow of 2-adic continuity of the accelerated map).

    The parity at step j depends on r mod 2^(j+1) only, so lanes q and
    q + 2^j of level j share their first j parities. If they differ at step
    j for every q < 2^j and j < k, two residues that first differ in bit j
    differ at step j, and the 2^k vectors are distinct. If one pair agrees,
    the 2^(k-j) residues ≡ q mod 2^j share j + 1 leading parities, which
    leaves 2^(k-j-1) vectors for them, and two collide. So the check
    compares the two halves of each level and stops at the first pair that
    agrees.
    """
    if not 0 <= k <= 24:
        raise ValueError("k out of supported range")
    return all(_level_splits(odd, j, _lane_width(k, j)) for j, odd in enumerate(_parity_levels(k)))
