"""Batch certificate checks over a built complex.

Each suite either returns a small summary dict (suitable for JSON
reports) or raises a CertificateError carrying a concrete witness.
Random suites draw from streams derived from a caller-supplied seed so
reports are reproducible.  Each suite makes at most one traversal: the
metric suite sweeps from all principal vertices at once, and the loop
suites share the complex's cached BFS tree at the base.  The parity
suite reports its loops but checks nothing further: edge validation
already implies what it would count.
"""

from __future__ import annotations

import random

from .cubing import CubeComplex, check_flag
from .errors import CertificateError
from .homotopy import contract_loop, random_loop, replay_certificate
from .sections import principal_section
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
    """Compare d(p, q) with the edge-path distance between the principal
    vertices of p and q, for every pair of points.

    Pairs of wall-equivalent points share a principal vertex, so the
    distances among the distinct principal vertices cover all pairs; one
    multi-source sweep (CubeComplex.distance_table) finds them all.
    d(p, q) is the popcount of the XOR of the two points' signatures.
    """
    vertex_of = [X.index_of(principal_section(space, p)) for p in space.points()]
    sources = sorted(set(vertex_of))
    slot = {v: i for i, v in enumerate(sources)}
    table = X.distance_table(sources)
    slot_of = [slot[v] for v in vertex_of]
    sigs = space._signatures
    n = space.point_count
    for p in range(n):
        sig, row = sigs[p], table[slot_of[p]]
        for q in range(p + 1, n):
            expected = (sig ^ sigs[q]).bit_count()
            actual = row[slot_of[q]]
            if actual != expected:
                raise MetricMismatch(
                    f"points {p} and {q} are separated by {expected} walls but "
                    f"their principal vertices are {actual} edges apart"
                )
    return {
        "points": n,
        "pairs": n * (n - 1) // 2,
        "principal_vertices": len(sources),
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
        "squares": len(X.cubes.get(2, {})),
    }
