"""Loops in the 1-skeleton and their contraction certificates.

Every closed edge path has even length and flips every wall an even
number of times: each edge of a complex flips exactly its wall's bit
(the CubeComplex constructor checks it), and a closed path returns
every bit to its start.  Nothing here recounts it.
contract_loop shrinks a loop to its basepoint one move at a time: the
first interior vertex furthest from the basepoint is pushed across the
registered square spanned by its two loop edges to the opposite corner,
two steps closer, and spurs are removed eagerly.  The moves are
recorded as a replayable certificate.

random_loop and contract_loop read distances and parents from the BFS
tree that the complex keeps for the last start (CubeComplex.cached_tree),
so any number of loops at one base costs one traversal.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Sequence

from .cubing import CubeComplex, NotInComponent
from .errors import CertificateError, InputError
from .sections import Section
from .wallspace import _is_int

__all__ = [
    "EdgeLoop",
    "Move",
    "ContractionCertificate",
    "NotALoop",
    "ContractionStuck",
    "contract_loop",
    "replay_certificate",
    "random_loop",
]


class NotALoop(InputError):
    """The vertex sequence is not a closed edge path."""


class ContractionStuck(CertificateError):
    """The contraction sweep could not make progress; carries diagnostics."""


class EdgeLoop:
    """A closed edge path v_0, ..., v_L = v_0, stored as vertex indices.

    Vertices may be given as Section objects or indices; consecutive
    entries must be joined by an edge of the complex.
    """

    def __init__(self, complex: CubeComplex, vertices: Sequence["Section | int"]):
        if not vertices:
            raise NotALoop("a loop needs at least its basepoint")
        try:
            idxs = [complex.index_of(v) for v in vertices]
        except NotInComponent as exc:
            raise NotALoop(str(exc)) from exc
        if idxs[0] != idxs[-1]:
            raise NotALoop("the path does not return to its start")
        for a, b in zip(idxs, idxs[1:]):
            if b not in complex.adjacency[a].values():
                raise NotALoop(f"vertices {a} and {b} are not adjacent")
        self.complex = complex
        self.indices: tuple[int, ...] = tuple(idxs)

    @property
    def edge_length(self) -> int:
        return len(self.indices) - 1

    def __repr__(self) -> str:
        return f"EdgeLoop(length={self.edge_length})"


class Move(NamedTuple):
    """One certificate step: a spur removal or a push across a square.

    ``at`` is the position in the loop at the time the move applies; for
    a backtrack the entries at positions at and at+1 are removed, for a
    square move the vertex at position at is replaced by its opposite
    corner across the two walls.
    """

    kind: str
    at: int
    walls: tuple[int, ...]

    def to_dict(self) -> dict:
        return {"type": self.kind, "at": self.at, "walls": list(self.walls)}


class ContractionCertificate(NamedTuple):
    base: int
    initial: tuple[int, ...]
    moves: tuple[Move, ...]

    @property
    def square_moves(self) -> int:
        return sum(1 for m in self.moves if m.kind == "square")

    @property
    def backtrack_moves(self) -> int:
        return sum(1 for m in self.moves if m.kind == "backtrack")

    def to_json_obj(self) -> list[dict]:
        return [m.to_dict() for m in self.moves]


def _strip_backtracks(seq: list[int], X: CubeComplex, moves: list[Move]) -> list[int]:
    """Delete (v, w, v) spurs until none remain, recording the removals."""
    i = 1
    while i < len(seq) - 1:
        if seq[i - 1] == seq[i + 1]:
            moves.append(Move("backtrack", i, (X.edge_wall(seq[i - 1], seq[i]),)))
            del seq[i : i + 2]
            i = max(i - 1, 1)
        else:
            i += 1
    return seq


def contract_loop(loop: EdgeLoop) -> ContractionCertificate:
    """Contract a loop to its basepoint, emitting a replayable certificate.

    Each move takes the first interior vertex at the loop's radius, its
    largest distance from the basepoint, and replaces it by the opposite
    corner of the registered square spanned by its two loop edges, two
    steps closer; spurs are removed eagerly after every move.  Raises
    ContractionStuck with a witness when no interior vertex sits at the
    radius, the opposite corner is not a vertex, its square is not
    registered or the corner does not sit at radius - 2.  The comments
    below name what implies each check it leaves out.
    """
    X = loop.complex
    base = loop.indices[0]
    dist, _ = X.cached_tree(base)
    m, squares = X.space.wall_count, X.cubes.get(2, {})
    moves: list[Move] = []
    seq = _strip_backtracks(list(loop.indices), X, moves)
    while len(seq) > 1:
        radius = max(dist[v] for v in seq)
        pos = next((i for i in range(1, len(seq) - 1) if dist[seq[i]] == radius), None)
        if pos is None:
            raise ContractionStuck(f"no interior vertex sits at the loop radius {radius}")
        sigma = seq[pos]
        # sigma's loop neighbours differ: spurs are stripped
        # both sit at radius - 1: each edge flips one bit, so the graph is bipartite
        wa = X.edge_wall(sigma, seq[pos - 1])
        wb = X.edge_wall(sigma, seq[pos + 1])
        walls = (min(wa, wb), max(wa, wb))
        opposite, tau = X._flipped(sigma, wa, wb)
        if tau is None:
            raise ContractionStuck(
                f"opposite corner {Section.from_code(opposite, m).encode()} is not a vertex"
            )
        # wa and wb cross: check_flag, which check runs first, checks each square's walls
        s = 1 << wa | 1 << wb
        if (X.codes[sigma] & ~s | s << m) not in squares:
            raise ContractionStuck(
                f"square over walls {list(walls)} at vertex {sigma} is not registered"
            )
        if dist[tau] != radius - 2:
            raise ContractionStuck(
                f"opposite corner {tau} sits at distance {dist[tau]}, expected {radius - 2}"
            )
        # the sweep ends: each move trades a vertex at the radius for one
        # at radius - 2, and spur removal adds none
        seq[pos] = tau
        moves.append(Move("square", pos, walls))
        seq = _strip_backtracks(seq, X, moves)
    return ContractionCertificate(
        base=base, initial=tuple(loop.indices), moves=tuple(moves)
    )


def replay_certificate(
    X: CubeComplex, initial: Sequence["Section | int"], moves: Sequence[Move]
) -> list[int]:
    """Apply a recorded move sequence to the initial loop, verifying each
    move, and return the final vertex index sequence.  A square move
    must name two distinct walls spanning a registered square at the
    vertex it replaces."""
    seq = list(EdgeLoop(X, initial).indices)
    m = X.space.wall_count
    squares = X.cubes.get(2, {})
    for n, mv in enumerate(moves):
        i = mv.at
        if not _is_int(i) or not 1 <= i < len(seq) - 1:
            raise CertificateError(f"move {n}: position {i!r} out of range")
        walls = mv.walls
        if not isinstance(walls, (tuple, list)) or not all(
            _is_int(w) and 0 <= w < m for w in walls
        ):
            raise CertificateError(f"move {n}: walls {walls!r} out of range")
        if mv.kind == "backtrack":
            if len(walls) != 1:
                raise CertificateError(f"move {n}: backtrack needs one wall")
            if seq[i - 1] != seq[i + 1]:
                raise CertificateError(f"move {n}: no spur at position {i}")
            if X.edge_wall(seq[i - 1], seq[i]) != walls[0]:
                raise CertificateError(f"move {n}: wall does not match the spur")
            del seq[i : i + 2]
        elif mv.kind == "square":
            if len(walls) != 2 or walls[0] == walls[1]:
                raise CertificateError(f"move {n}: square needs two distinct walls")
            w1, w2 = walls
            s = 1 << w1 | 1 << w2
            if (X.codes[seq[i]] & ~s | s << m) not in squares:
                raise CertificateError(
                    f"move {n}: square over walls {list(walls)} at vertex "
                    f"{seq[i]} is not registered"
                )
            target, ti = X._flipped(seq[i], w1, w2)
            if ti is None:
                raise CertificateError(
                    f"move {n}: opposite corner "
                    f"{Section.from_code(target, m).encode()} is not a vertex"
                )
            if (
                ti not in X.adjacency[seq[i - 1]].values()
                or ti not in X.adjacency[seq[i + 1]].values()
            ):
                raise CertificateError(
                    f"move {n}: replacement vertex breaks the loop at position {i}"
                )
            seq[i] = ti
        else:
            raise CertificateError(f"move {n}: unknown move type {mv.kind!r}")
    return seq


def random_loop(
    X: CubeComplex, rng: random.Random, steps: int | None = None
) -> EdgeLoop:
    """A seeded random closed loop at the complex base: a random walk
    followed by the BFS-tree geodesic back to the start (the tree is the
    complex's cached one)."""
    if steps is None:
        steps = rng.randrange(2, 17)
    start = X.base
    walk = [start]
    for _ in range(steps):
        nbrs = [v for _, v in X.neighbors(walk[-1])]
        walk.append(rng.choice(nbrs))
    _, parent = X.cached_tree(start)
    v = walk[-1]
    while v != start:
        v = parent[v]
        walk.append(v)
    return EdgeLoop(X, walk)
