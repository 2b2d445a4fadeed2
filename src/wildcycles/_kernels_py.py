"""Pure-Python kernels for the exhaustive-enumeration hot loops.

The compiled lane (_ckernels.c) has its own functional_graph_decompose,
tested against the one here: both read the transition table as the array
poly.grid_image returns and give back only what the orbit report needs,
the cycles and the longest tail, with no per-state list. That lane
re-exports these curve kernels as they are: the slice counts come from one
O(p) histogram, and the exhaustive count visits its p^2 pairs inside
str.count, the interpreter's own C code, so both beat a compiled double
loop. backend.py picks the lane.
"""

from __future__ import annotations

from array import array
from typing import List, Tuple

BACKEND_NAME = "pure"


def curve_affine_count(p: int, a: int, b: int) -> int:
    """#{(x, y) in F_p^2 : y^2 + a x^3 + b x = 0} by full 2D enumeration.

    The p squares y^2 mod p are one str of code points, and each x counts
    the code point -(a x^3 + b x) in it with str.count: every (x, y) pair
    is visited, by C code. Needs p <= sys.maxunicode, the range of chr."""
    squares = "".join([chr(y * y % p) for y in range(p)])
    return sum([squares.count(chr(-(a * x * x * x + b * x) % p)) for x in range(p)])


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


def functional_graph_decompose(nxt: array) -> Tuple[List[List[int]], int]:
    """The cycles and the longest tail of the self-map s -> nxt[s] of
    range(len(nxt)), nxt an array of unsigned ints as poly.grid_image
    returns it.

    Returns (cycles, max_tail): each cycle is a list of states from its
    least one, the cycles are sorted by that state, and max_tail is the
    largest number of steps from any state to its cycle. A successor
    outside the range raises IndexError. dist is the only mark: -1 is
    unvisited, -2 is on the current path, and d >= 0 is the distance to
    the cycle. A start whose successor is already classified takes that
    distance plus one; any other start walks forward, without recursion,
    until it meets -2 (it closed a new cycle, collected here) or some
    d >= 0 (it joined a known tree), then numbers its path backward from
    there. Each walk ends at its start, the farthest state on it.
    """
    nxt = nxt.tolist()
    n = len(nxt)
    dist = [-1] * n
    cycles = []
    max_tail = 0
    for start in range(n):
        if dist[start] != -1:
            continue
        # marked before its successor is read, so a self-loop closes at once
        dist[start] = -2
        s = nxt[start]
        d = dist[s]
        if d >= 0:
            d += 1
            dist[start] = d
            if d > max_tail:
                max_tail = d
            continue
        path = [start]
        while d == -1:
            dist[s] = -2
            path.append(s)
            s = nxt[s]
            d = dist[s]
        if d == -2:
            at = path.index(s)
            cycle = path[at:]
            for c in cycle:
                dist[c] = 0
            del path[at:]
            least = cycle.index(min(cycle))
            cycles.append(cycle[least:] + cycle[:least])
            d = 0
        for t in reversed(path):
            d += 1
            dist[t] = d
        if d > max_tail:
            max_tail = d
    cycles.sort()
    return cycles, max_tail
