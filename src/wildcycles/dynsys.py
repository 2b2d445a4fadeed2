"""Finite dynamical systems: Euler-discretized vector fields over (Z/pZ)^n,
complete functional-graph decompositions, and the Collatz/2-adic machinery.

The Euler step x -> x + h*g(x) is an explicit surrogate for the flow of
dx/ds = g(x); the step h is recorded in every report rather than hidden.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .backend import kernels
from .errors import DomainMismatch, StateBudgetExceeded
from .fields import PrimeField
from .poly import MPoly

State = Tuple[int, ...]

DEFAULT_STATE_BUDGET = 10**7


@dataclass(frozen=True)
class DynamicalSystem:
    """n polynomial components over F_p, read as a vector field dx_i/ds = g_i
    or directly as a self-map, per mode."""

    p: int
    n: int
    components: Tuple[MPoly, ...]
    mode: str = "vector-field"

    def __post_init__(self):
        fp = PrimeField(self.p)
        if self.mode not in ("vector-field", "self-map"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if len(self.components) != self.n:
            raise DomainMismatch("component count differs from n")
        for g in self.components:
            if g.nvars != self.n or g.domain != fp:
                raise DomainMismatch("component over the wrong ring")


@dataclass(frozen=True)
class SelfMap:
    """Polynomial self-map of (Z/pZ)^n."""

    p: int
    n: int
    components: Tuple[MPoly, ...]

    def __call__(self, state: State) -> State:
        return tuple(g.eval(state) for g in self.components)


def euler_discretize(sys: DynamicalSystem, h: int = 1) -> SelfMap:
    """F(x) = x + h*g(x) componentwise over F_p."""
    if sys.mode != "vector-field":
        raise ValueError("euler_discretize needs a vector field")
    fp = PrimeField(sys.p)
    hh = fp.from_int(h)
    comps = []
    for i, g in enumerate(sys.components):
        comps.append(MPoly.variable(sys.n, fp, i) + g.scale(hh))
    return SelfMap(sys.p, sys.n, tuple(comps))


def as_self_map(sys: DynamicalSystem) -> SelfMap:
    return SelfMap(sys.p, sys.n, sys.components)


@dataclass(frozen=True)
class OrbitDecomposition:
    """Complete partition of the state space into cycles and tails."""

    p: int
    n: int
    cycles: Tuple[Tuple[State, ...], ...]
    tail_lengths: Dict[State, int]
    periodic_count: int

    @property
    def cycle_lengths(self) -> List[int]:
        return [len(c) for c in self.cycles]

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "cycles": [[list(s) for s in c] for c in self.cycles],
            "cycle_lengths": self.cycle_lengths,
            "periodic_count": self.periodic_count,
            "tail_state_count": len(self.tail_lengths),
            "max_tail_length": max(self.tail_lengths.values(), default=0),
        }


def _value_table(g: MPoly, p: int, n: int) -> List[int]:
    """g at every state of F_p^n, in state-index order (variable 0 least
    significant): per term, the outer product of per-variable power tables."""
    acc = [0] * p**n
    for e, c in g.terms.items():
        vec = [c]
        for k in e:
            if k == 0:
                vec = vec * p
            else:
                powers = [pow(x, k, p) for x in range(p)]
                vec = [w * v % p for w in powers for v in vec]
        acc = [(u + v) % p for u, v in zip(acc, vec)]
    return acc


def _transition_table(F: SelfMap) -> List[int]:
    """nxt[index(s)] = index(F(s)) for every state s."""
    p, n = F.p, F.n
    fp = PrimeField(p)
    if any(g.nvars != n or g.domain != fp for g in F.components):
        raise DomainMismatch("component over the wrong ring")
    nxt = [0] * p**n
    for g in reversed(F.components):
        nxt = [i * p + v for i, v in zip(nxt, _value_table(g, p, n))]
    return nxt


def orbit_decomposition(
    F: SelfMap,
    budget: int = DEFAULT_STATE_BUDGET,
) -> OrbitDecomposition:
    """Decompose the functional graph of F on all p^n states.

    State index sum_i x_i p^i numbers the states. The transition table is
    built one component at a time from per-variable power tables, with no
    per-state polynomial evaluation; the pointer-chasing classification runs
    in the selected kernel backend. Cycles are rotated to start at, and
    sorted by, their minimal state index, so output is deterministic
    regardless of traversal order.
    """
    p, n = F.p, F.n
    total = p**n
    if total > budget:
        raise StateBudgetExceeded(f"{p}^{n} = {total} exceeds budget {budget}")
    nxt = _transition_table(F)
    on_cycle, dist = kernels.functional_graph_decompose(nxt)
    seen = [False] * total
    cycles = []
    for i in range(total):
        if not on_cycle[i] or seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = nxt[j]
        start = cyc.index(min(cyc))
        cycles.append(cyc[start:] + cyc[:start])
    cycles.sort()
    states = [s[::-1] for s in itertools.product(range(p), repeat=n)]
    tails = {states[i]: dist[i] for i in range(total) if not on_cycle[i]}
    periodic = sum(1 for f in on_cycle if f)
    return OrbitDecomposition(
        p=p,
        n=n,
        cycles=tuple(tuple(states[k] for k in cyc) for cyc in cycles),
        tail_lengths=tails,
        periodic_count=periodic,
    )


def periodic_point_count(
    sys: DynamicalSystem, h: int = 1, budget: int = DEFAULT_STATE_BUDGET
) -> int:
    """Number of periodic states of the Euler map of the vector field."""
    F = euler_discretize(sys, h) if sys.mode == "vector-field" else as_self_map(sys)
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
            assert y == cycle[0], "cycle replay failed"
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
    """First start in 1..limit not reaching 1 within budget plain-variant
    steps, or 0 when all do (kernel-backed sweep)."""
    return kernels.collatz_sweep_reaches_one(limit, budget)


def parity_vector(start: int, k: int) -> Tuple[int, ...]:
    """Parities observed along the first k accelerated-Collatz steps."""
    x = start
    out = []
    for _ in range(k):
        parity = x % 2
        out.append(parity)
        x = x // 2 if parity == 0 else (3 * x + 1) // 2
    return tuple(out)


def parity_bijection_check(k: int) -> bool:
    """True iff residues mod 2^k map bijectively onto parity vectors of
    length k (the finite shadow of 2-adic continuity of the accelerated map)."""
    if not 0 <= k <= 24:
        raise ValueError("k out of supported range")
    seen = set()
    for r in range(1 << k):
        seen.add(parity_vector(r, k))
    return len(seen) == 1 << k
