"""Seeded inputs for the benchmark workloads.

The seed draws only symmetries and query points: signed coordinate
permutations of fixed templates, the order of the fixed points, and the
queried weight mu or highest weight lambda.  It never draws a size --
the power m, the rank, the number of fixed points and the weight
magnitudes are constants here -- because those move the work by orders
of magnitude (random rank-2 CP^3 weights in [-2,2] at m=10 differ by
more than 100x).

Even a signed permutation moves the work: the library's default
chamber eta is a fixed moment-curve point, so flipping a coordinate
changes which normal weights get polarized and how deep every partition
count runs (5x to 20x between sign patterns, up to 1.4x between
permutations with the same signs).  Each pass therefore holds a job for
every sign pattern and the seed draws the permutations inside it, so
the chamber effect shows in the per-job counters rather than as spread
between seeds.  The query points are drawn with their mirrors for the
same reason: lambda with its mirror in the level, and a fixed-mode mu
with -mu and +-(18 - mu), whose four costs sum to within 3% for every
draw while +a and -a alone differ by 20% between draws.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction

CP2_STANDARD = ((1, 0), (0, 1), (0, 0))
CP3_STANDARD = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))
CP2_WEIGHTED = ((1,), (-1,), (0,))
CP2_WEIGHTED_STRATA = [
    {"label": "e", "order": 1, "rotation": "0", "degree_bound": 1,
     "expected_poly": ["3/4", "1/2"]},
    {"label": "g", "order": 2, "rotation": "1/2", "degree_bound": 0,
     "expected_poly": ["1/4"]},
]

# Sizes are fixed; only symmetries and query points depend on the seed.
# template, its signed permutations per sign pattern, power m
TABLES = (("cp2_standard", CP2_STANDARD, 2, 10), ("cp3_standard", CP3_STANDARD, 1, 3))
SERIES_VERIFY_M_MAX = 100
SERIES_FIXED_M = 50
SERIES_FIXED_MU = (6, 12)  # fixed-mode a is drawn from here; mu = +-a, +-(18-a)
SERIES_SCALED_M = 28
A2 = {
    "simple_roots": ((1, -1, 0), (0, 1, -1)),
    "cartan_pairing": ((1, -1, 0), (0, 1, -1)),
    "positive_roots": ((1, -1, 0), (0, 1, -1), (1, 0, -1)),
    "rho": (1, 0, -1),
}
B2 = {
    "simple_roots": ((1, -1), (0, 1)),
    "cartan_pairing": ((1, -1), (0, 2)),
    "positive_roots": ((1, -1), (0, 1), (1, 0), (1, 1)),
    "rho": (Fraction(3, 2), Fraction(1, 2)),
}
A2_LEVEL = 4  # highest weights (4, b, 0)
B2_LEVEL = 3  # highest weights (3, c)
RHO_POWER = 2  # A2 highest weight 2*rho, dimension (2+1)^3
# Fixed tensor factors: the decompositions they need cost 0.2 s to 1.2 s
# between neighbouring choices, so drawing them would swamp the draws above.
A2_TENSOR = ((2, 1, 0), (1, 0, 0))
B2_TENSOR = ((1, 1), (1, 0))


def signed_permutation(weights, perm, signs):
    """Apply the coordinate map v -> (signs[k] * v[perm[k]])_k."""
    return tuple(tuple(s * w[p] for s, p in zip(signs, perm)) for w in weights)


def projective_document(coord_weights, order, strata=None) -> str:
    """Dataset document of the diagonal torus action on projective space
    with the given coordinate weights: fixed point i has fiber weight w_i
    and normal weights w_i - w_j for j != i.  `order` lists the fixed
    points in document order."""
    n = len(coord_weights)
    points = []
    for i in order:
        wi = coord_weights[i]
        points.append({
            "label": f"P{i}",
            "fiber_weight": list(wi),
            "normal_weights": [
                [a - b for a, b in zip(wi, coord_weights[j])]
                for j in range(n) if j != i
            ],
        })
    doc = {"rank": len(coord_weights[0]), "fixed_points": points}
    if strata is not None:
        doc["strata"] = strata
    doc["metadata"] = {
        "coord_weights": ";".join(",".join(map(str, w)) for w in coord_weights)
    }
    return json.dumps(doc, indent=1)


@dataclass(frozen=True)
class TableInput:
    name: str
    coord_weights: tuple
    m: int
    document: str


def table_inputs(seed: int) -> list[TableInput]:
    """Character-table inputs: for every sign pattern of each template,
    `per_pattern` distinct seed-drawn coordinate permutations (cp2 has
    only two, so it runs both)."""
    rng = random.Random(seed)
    out = []
    for template, base, per_pattern, m in TABLES:
        rank, n = len(base[0]), len(base)
        perms = list(itertools.permutations(range(rank)))
        for signs in itertools.product((1, -1), repeat=rank):
            tag = "".join("+" if s > 0 else "-" for s in signs)
            for perm in rng.sample(perms, per_pattern):
                order = rng.sample(range(n), n)
                weights = signed_permutation(base, perm, signs)
                name = f"{template}{tag}{''.join(map(str, perm))}"
                out.append(TableInput(name, weights, m, projective_document(weights, order)))
    return out


@dataclass(frozen=True)
class SeriesInput:
    document: str
    coord_weights: tuple
    fixed_mu: tuple  # a, -a, 18-a, -(18-a)


def series_input(seed: int) -> SeriesInput:
    rng = random.Random(seed)
    sign = rng.choice((1, -1))
    weights = signed_permutation(CP2_WEIGHTED, (0,), (sign,))
    order = rng.sample(range(3), 3)
    a = rng.randint(*SERIES_FIXED_MU)
    b = sum(SERIES_FIXED_MU) - a
    return SeriesInput(
        projective_document(weights, order, CP2_WEIGHTED_STRATA),
        weights,
        (a, -a, b, -b),
    )


@dataclass(frozen=True)
class WeylInput:
    a2_highest: tuple  # (4, b, 0) and its dual (4, 4-b, 0)
    b2_highest: tuple  # (3, c) and its mirror (3, 3-c)


def weyl_input(seed: int) -> WeylInput:
    rng = random.Random(seed)
    b = rng.randint(0, A2_LEVEL)
    c = rng.randint(0, B2_LEVEL)
    return WeylInput(
        ((A2_LEVEL, b, 0), (A2_LEVEL, A2_LEVEL - b, 0)),
        ((B2_LEVEL, c), (B2_LEVEL, B2_LEVEL - c)),
    )


def weyl_dimension(system, lam) -> int:
    """Weyl dimension formula prod <lam+rho, b> / <rho, b> over the
    positive roots, with the coordinate dot product."""
    rho = system["rho"]
    dim = Fraction(1)
    for beta in system["positive_roots"]:
        num = sum((Fraction(x) + r) * b for x, r, b in zip(lam, rho, beta))
        den = sum(Fraction(r) * b for r, b in zip(rho, beta))
        dim *= num / den
    return int(dim)
