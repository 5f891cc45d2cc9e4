"""Batch certificate checks over a built complex.

Each suite either returns a small summary dict (suitable for JSON
reports) or raises a CertificateError carrying a concrete witness.
Random suites draw from streams derived from a caller-supplied seed so
reports are reproducible.  The metric suite makes no traversal: it
certifies the metric by one descent test per vertex, and the first
vertex that fails it is the witness.  The loop suites
share the complex's cached BFS tree at the base.  The parity
suite reports its loops but checks nothing further: edge validation
already implies what it would count.
"""

from __future__ import annotations

import random

from .cubing import CubeComplex, check_flag
from .errors import CertificateError
from .homotopy import contract_loop, random_loop, replay_certificate
from .sections import encode_section, principal_section
from .wallspace import WallSpace

__all__ = [
    "MetricMismatch",
    "ReplayMismatch",
    "check_metric_correspondence",
    "parity_suite",
    "contraction_suite",
    "flag_suite",
]


class MetricMismatch(CertificateError):
    """Wall pseudo-distance disagrees with edge-path distance."""


class ReplayMismatch(CertificateError):
    """Replaying a contraction certificate did not end at the basepoint."""


def check_metric_correspondence(space: WallSpace, X: CubeComplex) -> dict:
    """Certify that d(p, q), the number of walls separating p and q,
    equals the edge-path distance between the principal vertices P(p)
    and P(q), for every pair of points, by descent (the partial-cube
    argument of Bandelt and Chepoi, "Metric graph theory and geometry:
    a survey", 2008).

    A point q lies on vertex u's side of wall w exactly when bit w of
    q's signature equals bit w of u's code, and P(q) is the vertex whose
    code is that signature.  For each vertex u, AND together u's chosen
    side of the wall of every edge at u: the result holds the points
    whose signatures agree with u's code on every wall flippable at u.
    It always contains own[u], the points with P(q) = u; require it to
    equal own[u].  When that holds at every vertex, take any vertex
    u != P(q): q is not in the AND, so some edge at u flips a wall on
    which u and P(q) differ, and its far end is one step closer to P(q)
    in Hamming distance.  By induction on the Hamming distance H of the
    codes, the edge-path distance from any vertex u to P(q) is at most
    H.  Every edge flips exactly its wall's bit (the CubeComplex
    constructor checks it), so it is at least H.  Hence the distance
    from P(p) to P(q) is the popcount of the XOR of the two points'
    signatures, for every pair; the argument needs no connectivity, so
    a complex whose principal vertices are not connected fails.

    O(V + E) ANDs of n-bit ints for n points.  The witness of a failure
    is the first failing u and the principal vertex of the lowest point
    in its AND outside own[u], which no edge at u brings closer.  A
    point whose principal section is not a vertex at all is the witness
    before any of that.
    """
    vertex_of = []
    for p in space.points():
        code = principal_section(space, p)
        v = X.index.get(code)
        if v is None:
            raise MetricMismatch(
                f"point {p}: its principal section "
                f"{encode_section(code, space.wall_count)} is not a vertex"
            )
        vertex_of.append(v)
    own = [0] * len(X.codes)
    for p, v in enumerate(vertex_of):
        own[v] |= 1 << p
    masks, full = space._masks, space._full
    for u, (code, a) in enumerate(zip(X.codes, X.adjacency)):
        agree = full
        for w in a:
            agree &= masks[2 * w | (code >> w & 1)]
        if agree != own[u]:
            stray = agree & ~own[u]
            q = (stray & -stray).bit_length() - 1
            v = vertex_of[q]
            raise MetricMismatch(
                f"vertex {u}: no edge at it flips a wall separating it from "
                f"vertex {v}, the principal vertex of point {q}, "
                f"{(code ^ X.codes[v]).bit_count()} walls away"
            )
    n = space.point_count
    return {
        "points": n,
        "pairs": n * (n - 1) // 2,
        "principal_vertices": len(set(vertex_of)),
    }


def parity_suite(X: CubeComplex, seed: int, runs: int = 100) -> dict:
    """Report the lengths of seeded random closed loops, without counting
    their walls: every edge of X flips exactly its wall's bit (the
    CubeComplex constructor checks it), so a closed loop flips every
    wall an even number of times, and its length, the sum of those
    counts, is even."""
    rng = random.Random(f"{seed}:parity")
    total_edges = 0
    longest = 0
    for _ in range(runs):
        loop = random_loop(X, rng)
        total_edges += loop.edge_length
        longest = max(longest, loop.edge_length)
    return {
        "seed": seed,
        "loops": runs,
        "total_edges": total_edges,
        "longest": longest,
    }


def contraction_suite(X: CubeComplex, seed: int, runs: int = 100) -> dict:
    """Contract seeded random loops and replay every emitted certificate."""
    rng = random.Random(f"{seed}:contract")
    square_moves = 0
    backtrack_moves = 0
    longest = 0
    for n in range(runs):
        loop = random_loop(X, rng)
        cert = contract_loop(loop)
        final = replay_certificate(X, cert.initial, cert.moves)
        if final != [cert.base]:
            raise ReplayMismatch(
                f"loop {n} of seed {seed}: certificate replay left "
                f"{len(final) - 1} edges standing"
            )
        square_moves += cert.square_moves
        backtrack_moves += cert.backtrack_moves
        longest = max(longest, loop.edge_length)
    return {
        "seed": seed,
        "loops": runs,
        "square_moves": square_moves,
        "backtrack_moves": backtrack_moves,
        "longest": longest,
    }


def flag_suite(X: CubeComplex) -> dict:
    """Run the flag-link check; returns counts on success."""
    check_flag(X)
    return {
        "vertices": len(X.codes),
        "squares": X.cube_counts().get(2, 0),
    }
