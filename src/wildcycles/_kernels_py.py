"""Pure-Python reference kernels for the exhaustive-enumeration hot loops.

Signature-compatible with the compiled extension (_ckernels); backend.py
picks whichever is available. These are the fallback and the ground truth
the compiled versions are tested against.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

BACKEND_NAME = "pure"


def curve_affine_count(p: int, a: int, b: int) -> int:
    """#{(x, y) in F_p^2 : y^2 + a x^3 + b x = 0} by full 2D enumeration.

    Every (x, y) pair is visited: list.count scans all p squares."""
    squares = [y * y % p for y in range(p)]
    return sum(squares.count(-(a * x * x * x + b * x) % p) for x in range(p))


def curve_slice_counts(p: int, a: int, b: int) -> List[int]:
    """l_i = #{x : a x^3 + b x + i^2 = 0 in F_p} for i = 0..p-1, from one
    histogram of a x^3 + b x: l_i is its count at -i^2."""
    hist = [0] * p
    for x in range(p):
        hist[(a * x * x * x + b * x) % p] += 1
    return [hist[-i * i % p] for i in range(p)]


def curve_is_singular(p: int, a: int, b: int) -> bool:
    """Some affine point satisfies the equation and both partials."""
    for x in range(p):
        if (3 * a * x * x + b) % p != 0:
            continue
        for y in range(p):
            if (2 * y) % p == 0 and (y * y + a * x * x * x + b * x) % p == 0:
                return True
    return False


def functional_graph_decompose(nxt: Sequence[int]) -> Tuple[List[bool], List[int]]:
    """Classify every state of a finite self-map.

    Returns (on_cycle, dist): on_cycle[s] marks periodic states, dist[s] is
    the number of steps from s to its cycle (0 on the cycle). Iterative path
    walking with three-state coloring; no recursion.
    """
    n = len(nxt)
    on_cycle = [False] * n
    dist = [-1] * n
    state = [0] * n  # 0 unvisited, 1 on current path, 2 done
    for start in range(n):
        if state[start] != 0:
            continue
        path = []
        s = start
        while state[s] == 0:
            state[s] = 1
            path.append(s)
            s = nxt[s]
        if state[s] == 1:
            # new cycle: everything from s onward in the path
            at = path.index(s)
            for c in path[at:]:
                on_cycle[c] = True
                dist[c] = 0
                state[c] = 2
            tail = path[:at]
            base = 0
        else:
            tail = path
            base = dist[s]
        d = base
        for t in reversed(tail):
            d += 1
            dist[t] = d
            state[t] = 2
    return on_cycle, dist


def collatz_sweep_reaches_one(limit: int, budget: int) -> int:
    """First start in 1..limit that fails to reach 1 within budget steps of
    the plain map (x/2 on even, 3x+1 on odd), or 0 if all succeed."""
    known = bytearray(limit + 1)
    if limit >= 1:
        known[1] = 1
    for start in range(1, limit + 1):
        x = start
        steps = 0
        path = []
        while x != 1 and not (x <= limit and known[x]):
            if steps >= budget:
                return start
            if x <= limit:
                path.append(x)
            x = x // 2 if x % 2 == 0 else 3 * x + 1
            steps += 1
        for v in path:
            known[v] = 1
    return 0
