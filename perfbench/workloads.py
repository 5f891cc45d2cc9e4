"""The benchmark's workloads and the answers their commands must give.

Each workload is a model family from ``cubulate.families`` at a fixed
size, a generator file for ``act`` and a way to tamper with the complex
that ``build`` writes.  The expected answers are worked out here, from
closed forms and invariants, never by calling the code under test:

- crossing(n) is one n-cube: f_k = C(n, k) * 2^(n-k), dimension n;
- tree(2, d) has m = 2^(d+1) - 3 walls and its complex is a tree, so
  V = m + 1, E = m and there are no squares;
- a triangle-lattice patch has Euler characteristic 1, dimension 3
  (three families of parallel lines) and an injective integer-grid
  labelling of its vertices in which every edge is a unit step;
- every corner spans one cube, so ``act`` sees sum_k 2^k f_k corners;
- the orbit and the stabilizer words of the base vertex follow from the
  point permutations, because distinct points of these families have
  distinct principal vertices.

The seed chooses ``check --seed`` and the cell the tampered complex
loses.  ``size`` lets the self-test run the same checks on small inputs.
"""

from __future__ import annotations

import json
import random
from math import comb

LOOPS = 100  # the CLI's default number of random loops per suite
WORD_LENGTH = 4  # the CLI's default stabilizer word bound


def f_vector_of(cx: dict) -> list[int]:
    """The f-vector of a complex in the JSON form ``build --out`` writes."""
    cubes = cx["cubes"]
    return [len(cx["vertices"]), len(cx["edges"])] + [
        len(cubes[k]) for k in sorted(cubes, key=int)
    ]


class Workload:
    """Inputs, tampering and expected answers of one workload.

    Subclasses set ``space`` (the wall-space dict) and ``generators``
    (the generator-file dict), and override the hooks below.
    """

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.space: dict = {}
        self.generators: dict = {}

    @property
    def points(self) -> int:
        return self.space["points"]

    @property
    def walls(self) -> int:
        return len(self.space["walls"])

    # -- hooks --------------------------------------------------------------

    def expected_f_vector(self) -> list[int] | None:
        """The f-vector from a closed form, or None when only invariants
        of it are known."""
        return None

    def expected_intersection_number(self) -> int:
        raise NotImplementedError

    def check_complex(self, cx: dict) -> list[str]:
        """Workload-specific checks of the complex ``build`` wrote."""
        return []

    def tamper(self, cx: dict, rng: random.Random) -> dict:
        """A copy of the complex with one cell removed."""
        raise NotImplementedError

    # -- shared checks ------------------------------------------------------

    def check_f_vector(self, f: list[int]) -> list[str]:
        errors = []
        want = self.expected_f_vector()
        if want is not None and f != want:
            errors.append(f"f-vector {f}, expected {want}")
        euler = sum((-1) ** k * n for k, n in enumerate(f))
        if euler != 1:
            errors.append(f"Euler characteristic {euler}, expected 1")
        dim = len(f) - 1
        if dim != self.expected_intersection_number():
            errors.append(
                f"dimension {dim}, expected {self.expected_intersection_number()}"
            )
        return errors

    def stabilizer_words(self) -> tuple[int, list[str]]:
        """Orbit size of point 0 and the words of length <= WORD_LENGTH
        fixing it, from the point permutations alone."""
        gens = [(g["name"], g["perm"]) for g in self.generators["generators"]]
        symbols = list(gens)
        for name, perm in gens:
            if any(perm[q] != p for p, q in enumerate(perm)):
                inverse = [0] * len(perm)
                for p, q in enumerate(perm):
                    inverse[q] = p
                symbols.append((name + "^-1", inverse))
        orbit, frontier = {0}, [0]
        while frontier:
            frontier = [perm[p] for p in frontier for _, perm in symbols]
            frontier = [p for p in frontier if p not in orbit]
            orbit.update(frontier)
        words = []
        level = [((), 0)]
        for _ in range(WORD_LENGTH):
            nxt = []
            for word, at in level:
                for name, perm in symbols:
                    if word and _formal_inverse(word[-1]) == name:
                        continue
                    nxt.append((word + (name,), perm[at]))
            words += [" ".join(w) for w, at in nxt if at == 0]
            level = nxt
        return len(orbit), sorted(words)


def _formal_inverse(name: str) -> str:
    return name[: -len("^-1")] if name.endswith("^-1") else name + "^-1"


def _swap_bits(p: int, i: int, j: int) -> int:
    if (p >> i & 1) != (p >> j & 1):
        p ^= (1 << i) | (1 << j)
    return p


class CubeDense(Workload):
    name = "cube-dense"

    def __init__(self, seed: int, size: int = 8):
        super().__init__(seed)
        from cubulate.families import gen_crossing

        self.n = size
        self.space = gen_crossing(size).to_dict()
        points = 1 << size
        self.generators = {
            "generators": [
                {"name": f"s{i}{i + 1}", "perm": [_swap_bits(p, i, i + 1) for p in range(points)]}
                for i in (0, 1)
            ]
        }

    def expected_f_vector(self) -> list[int]:
        n = self.n
        return [comb(n, k) * 2 ** (n - k) for k in range(n + 1)]

    def expected_intersection_number(self) -> int:
        return self.n

    def check_complex(self, cx: dict) -> list[str]:
        if len(set(cx["vertices"])) != 1 << self.n:
            return [f"expected {1 << self.n} distinct vertex encodings"]
        return []

    def tamper(self, cx: dict, rng: random.Random) -> dict:
        return _drop(cx, ("cubes", str(self.n)), rng)


class WallSparse(Workload):
    name = "wall-sparse"

    def __init__(self, seed: int, size: int = 7):
        super().__init__(seed)
        from cubulate.families import gen_tree

        self.depth = size
        self.space = gen_tree(2, size).to_dict()
        half = 1 << (size - 1)
        self.generators = {
            "generators": [{"name": "r", "perm": [p ^ half for p in range(1 << size)]}]
        }

    def expected_f_vector(self) -> list[int]:
        m = 2 ** (self.depth + 1) - 3
        return [m + 1, m]

    def expected_intersection_number(self) -> int:
        return 1

    def tamper(self, cx: dict, rng: random.Random) -> dict:
        return _drop(cx, ("edges",), rng)


class LatticeMixed(Workload):
    name = "lattice-mixed"

    def __init__(self, seed: int, size: int = 6):
        super().__init__(seed)
        from cubulate.families import triangle_lattice

        lattice = triangle_lattice(size)
        self.space = lattice.space.to_dict()
        self.lines = lattice.wall_lines
        index = {c: i for i, c in enumerate(lattice.cells)}
        perm = [index[(c.orient, c.n, c.m)] for c in lattice.cells]
        self.generators = {"generators": [{"name": "t", "perm": perm}]}

    def expected_intersection_number(self) -> int:
        return 3

    def check_complex(self, cx: dict) -> list[str]:
        labels = [self._label(v) for v in cx["vertices"]]
        if len(set(labels)) != len(labels):
            return ["grid labels are not injective"]
        for u, v, _ in cx["edges"]:
            step = sorted(abs(a - b) for a, b in zip(labels[u], labels[v]))
            if step != [0, 0, 1]:
                return [f"edge ({u},{v}) is not a unit grid step"]
        return []

    def _label(self, encoding: str) -> tuple[int, int, int]:
        """Per line family, the signed count of chosen sides away from the
        lines through the base cell's origin corner."""
        label = [0, 0, 0]
        for bit, (family, t) in zip(encoding, self.lines):
            if t >= 1 and bit == "0":
                label[family] += 1
            elif t <= 0 and bit == "1":
                label[family] -= 1
        return tuple(label)

    def tamper(self, cx: dict, rng: random.Random) -> dict:
        # Lose one of the 3-cubes whose vertices all come late in BFS
        # order, so the flag check scans nearly the whole complex before
        # it fails, whichever cube the seed picks.
        index = {v: i for i, v in enumerate(cx["vertices"])}
        top = str(max(int(k) for k in cx["cubes"]))

        def first_vertex(entry) -> int:
            b, walls = entry
            base = cx["vertices"][b]
            low = len(cx["vertices"])
            for mask in range(1 << len(walls)):
                bits = list(base)
                for j, w in enumerate(walls):
                    if mask >> j & 1:
                        bits[w] = "1" if bits[w] == "0" else "0"
                low = min(low, index["".join(bits)])
            return low

        late = sorted(cx["cubes"][top], key=first_vertex)[-8:]
        out = json.loads(json.dumps(cx))
        out["cubes"][top].remove(rng.choice(late))
        return out


def _drop(cx: dict, where: tuple[str, ...], rng: random.Random) -> dict:
    out = json.loads(json.dumps(cx))
    seq = out
    for key in where:
        seq = seq[key]
    del seq[rng.randrange(len(seq))]
    return out


WORKLOADS = {w.name: w for w in (CubeDense, WallSparse, LatticeMixed)}
