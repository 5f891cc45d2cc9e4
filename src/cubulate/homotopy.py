"""Loops in the 1-skeleton and their contraction certificates.

Every closed edge path has even length and flips every wall an even
number of times: each edge of a complex flips exactly its wall's bit
(the CubeComplex constructor checks it), and a closed path returns
every bit to its start.  Nothing here recounts it.  So b is adjacent
to a exactly when adjacency[a] maps the top bit of codes[a] ^ codes[b]
to b: one O(1) adjacency test per loop vertex.
contract_loop shrinks a loop to its basepoint one move at a time: the
first interior vertex furthest from the basepoint is pushed across the
square spanned by its two loop edges to the opposite corner, two steps
closer, and spurs are removed eagerly, resuming at the move; a move
costs O(L) on a loop of length L.  The moves are recorded as a
replayable certificate.

A square is tested by rule: two crossing walls labelling edges at a
vertex span a square through it.  Once check_flag has passed, which
check runs first, these are exactly the complex's squares: its
1-skeleton is the dual's and its cubes those of the rule, or its
registry holds every square of the rule and only squares of the rule
(see check_flag), so no registry is read here.

random_loop and contract_loop read distances and parents from the BFS
tree that the complex keeps for the last start (CubeComplex.cached_tree),
so any number of loops at one base costs one traversal.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Sequence

from .cubing import CubeComplex, NotInComponent
from .errors import CertificateError, InputError
from .sections import encode_section
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
    """A closed edge path v_0, ..., v_L = v_0 of vertex indices;
    consecutive entries must be joined by an edge of the complex.
    """

    def __init__(self, complex: CubeComplex, vertices: Sequence[int]):
        idxs, codes, adjacency = tuple(vertices), complex.codes, complex.adjacency
        if not idxs:
            raise NotALoop("a loop needs at least its basepoint")
        if not {*map(type, idxs)} <= {int} or min(idxs) < 0 or max(idxs) >= len(codes):
            try:  # index_of names the first entry that is not a vertex index
                idxs = tuple(map(complex.index_of, idxs))
            except NotInComponent as exc:
                raise NotALoop(str(exc)) from exc
        if idxs[0] != idxs[-1]:
            raise NotALoop("the path does not return to its start")
        for a, b in zip(idxs, idxs[1:]):
            if adjacency[a].get((codes[a] ^ codes[b]).bit_length() - 1) != b:
                raise NotALoop(f"vertices {a} and {b} are not adjacent")
        self.complex = complex
        self.indices: tuple[int, ...] = idxs

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


def contract_loop(loop: EdgeLoop) -> ContractionCertificate:
    """Contract a loop to its basepoint, emitting a replayable certificate.

    Each move takes the first interior vertex at the loop's radius, its
    largest distance from the basepoint, and replaces it by the opposite
    corner of the square spanned by its two loop edges, two steps
    closer; spurs are removed eagerly after every move.  Raises
    ContractionStuck with a witness when no interior vertex sits at the
    radius, the opposite corner is not a vertex, the two walls do not
    cross or the corner does not sit at radius - 2.  The comments
    below name what implies each check it leaves out.
    """
    X = loop.complex
    base = loop.indices[0]
    dist, _ = X.cached_tree(base)
    codes, index, m, cross = X.codes, X.index, X.space.wall_count, X.space._crossing_masks
    moves: list[Move] = []
    seq = list(loop.indices)
    i = 1  # seq has no (v, w, v) spur before position i
    while True:
        while i < len(seq) - 1:
            if seq[i - 1] == seq[i + 1]:
                moves.append(Move("backtrack", i, (X.edge_wall(seq[i - 1], seq[i]),)))
                del seq[i : i + 2]
                i = max(i - 1, 1)  # this can make a spur at i - 1 only
            else:
                i += 1
        if len(seq) == 1:
            break
        ds = [*map(dist.__getitem__, seq)]
        radius = max(ds)
        pos = ds.index(radius, 1)  # the loop ends where it starts, at the same distance
        if pos == len(seq) - 1:
            raise ContractionStuck(f"no interior vertex sits at the loop radius {radius}")
        sigma = seq[pos]
        # sigma's loop neighbours differ: spurs are stripped
        # both sit at radius - 1: each edge flips one bit, so the graph is bipartite
        wa, wb = X.edge_wall(sigma, seq[pos - 1]), X.edge_wall(sigma, seq[pos + 1])
        walls = (wa, wb) if wa < wb else (wb, wa)
        s = 1 << wa | 1 << wb
        tau = index.get(corner := codes[sigma] ^ s)
        if tau is None:
            raise ContractionStuck(f"opposite corner {encode_section(corner, m)} is not a vertex")
        # wa and wb label edges at sigma: crossing, they span a square by rule
        if not cross[wa] >> wb & 1:
            raise ContractionStuck(f"walls {list(walls)} at vertex {sigma} do not cross")
        if dist[tau] != radius - 2:
            raise ContractionStuck(
                f"opposite corner {tau} sits at distance {dist[tau]}, expected {radius - 2}"
            )
        # the sweep ends: each move trades a vertex at the radius for one
        # at radius - 2, and spur removal adds none
        seq[pos] = tau
        moves.append(Move("square", pos, walls))
        i = max(pos - 1, 1)  # the loop had no spur, and the move changed pos only
    return ContractionCertificate(base=base, initial=loop.indices, moves=tuple(moves))


def replay_certificate(
    X: CubeComplex, initial: Sequence[int], moves: Sequence[Move]
) -> list[int]:
    """Apply a recorded move sequence to the initial loop, verifying each
    move, and return the final vertex index sequence.  A square move
    must name two distinct crossing walls whose flip of the vertex it
    replaces is a vertex adjacent to both its loop neighbours: at a loop
    neighbour, one of the walls labels the edge to the replaced vertex and
    the other the edge to its replacement, so they span a square by rule."""
    seq = list(EdgeLoop(X, initial).indices)
    codes, adjacency, m, cross = X.codes, X.adjacency, X.space.wall_count, X.space._crossing_masks
    # seq stays an edge path: EdgeLoop checks it, and so does every square move below
    for n, mv in enumerate(moves):
        i = mv.at
        if not (type(i) is int or _is_int(i)) or not 1 <= i < len(seq) - 1:
            raise CertificateError(f"move {n}: position {i!r} out of range")
        walls = mv.walls
        for w in walls if isinstance(walls, (tuple, list)) else [None]:  # fails as None does
            if not (type(w) is int or _is_int(w)) or not 0 <= w < m:
                raise CertificateError(f"move {n}: walls {walls!r} out of range")
        if mv.kind == "backtrack":
            if len(walls) != 1:
                raise CertificateError(f"move {n}: backtrack needs one wall")
            if seq[i - 1] != seq[i + 1]:
                raise CertificateError(f"move {n}: no spur at position {i}")
            if codes[seq[i - 1]] ^ codes[seq[i]] != 1 << walls[0]:
                raise CertificateError(f"move {n}: wall does not match the spur")
            del seq[i : i + 2]
        elif mv.kind == "square":
            if len(walls) != 2 or walls[0] == walls[1]:
                raise CertificateError(f"move {n}: square needs two distinct walls")
            w1, w2 = walls
            s = 1 << w1 | 1 << w2
            if not cross[w1] >> w2 & 1:
                raise CertificateError(
                    f"move {n}: walls {list(walls)} at vertex {seq[i]} do not cross"
                )
            ti = X.index.get(target := codes[seq[i]] ^ s)
            if ti is None:
                raise CertificateError(
                    f"move {n}: opposite corner {encode_section(target, m)} is not a vertex"
                )
            a, b = seq[i - 1], seq[i + 1]
            if (
                adjacency[a].get((codes[a] ^ target).bit_length() - 1) != ti
                or adjacency[b].get((codes[b] ^ target).bit_length() - 1) != ti
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
    start = v = X.base
    walk = [start]
    for _ in range(steps):  # the draw X.neighbors(v) would give, without its list
        adj = X.adjacency[v]
        v = adj[rng.choice(sorted(adj))]
        walk.append(v)
    _, parent = X.cached_tree(start)
    while v != start:
        v = parent[v]
        walk.append(v)
    return EdgeLoop(X, walk)
