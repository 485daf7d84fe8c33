"""Seeded random generators backing the property suites.

Everything takes an explicit random.Random so suites are reproducible;
nothing here touches the global RNG state.
"""

import random

from .catalog import catalog
from .finite_space import (
    FinitePreorderedSpace,
    FiniteTopology,
    smallest_closed_preorder,
)
from .preorder import PreorderGraph, transitive_reflexive_closure


def random_topology(rng: random.Random, n: int) -> FiniteTopology:
    """Topology from a few random basis sets (plus whole space)."""
    k = rng.randint(0, 2 * n)
    basis = [[p for p in range(n) if rng.random() < 0.5] for _ in range(k)]
    basis.append(list(range(n)))
    return FiniteTopology.from_basis(n, basis)


def _random_seed_pairs(rng: random.Random, n: int):
    k = rng.randint(0, n * 2)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(k)]


def random_finite_space(rng: random.Random, n: int,
                        style: str = "plain") -> FinitePreorderedSpace:
    """Random preordered space.

    style "plain": independent random preorder, usually not closed.
    style "closed": preorder grown to the least closed one containing
    random seed pairs, so the graph is closed by construction.
    style "specialization": preorder read off the topology itself
    (x <= y iff x lies in the closure of y).
    """
    top = random_topology(rng, n)
    if style == "plain":
        g = transitive_reflexive_closure(
            PreorderGraph.from_pairs(n, _random_seed_pairs(rng, n)))
    elif style == "closed":
        g = smallest_closed_preorder(top, _random_seed_pairs(rng, n))
    elif style == "specialization":
        # x in cl({y}) iff y lies in the minimal neighborhood of x
        g = PreorderGraph(n, top.umin)
    else:
        raise ValueError(f"unknown style {style!r}")
    return FinitePreorderedSpace(top, g)


SPACE_STYLES = ("plain", "closed", "specialization")


def space_stream(seed: int, count: int, max_n: int = 6):
    """Yield `count` random spaces cycling through the styles."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(1, max_n)
        yield random_finite_space(rng, n, SPACE_STYLES[i % len(SPACE_STYLES)])


# Function names per catalog space whose tails settle at the default
# shell schedule: (anchor, extras).  The anchor goes into every family;
# its limit pixel differs from all deep-shell pixels, so the boundary
# point always becomes a genuine remainder vertex instead of being
# quantized onto a core sample (steep functions like sqrt or invmod2
# alone would collapse it).
_CAUCHY_POOLS = {
    "half-open-interval": ("id", ("sq", "sqrt")),
    "closed-interval": ("id", ("sq", "cube", "sqrt", "pow64")),
    "real-line-mirror": ("invmod", ("invmod2", "exp2")),
}


def random_nested_families(seed: int, count: int, resolution: int = 256):
    """Yield (entry, inner_names, outer_names, resolution) with inner < outer.

    Both name tuples contain the space's anchor plus a random slice of
    the convergent-tail pool, so the two builds complete, both acquire a
    real remainder, and domination is expected to hold.
    """
    rng = random.Random(seed)
    spaces = sorted(_CAUCHY_POOLS)
    for _ in range(count):
        name = rng.choice(spaces)
        anchor, extras = _CAUCHY_POOLS[name]
        extras = list(extras)
        rng.shuffle(extras)
        outer_size = rng.randint(1, len(extras))
        inner_size = rng.randint(0, outer_size - 1)
        outer_extra = extras[:outer_size]
        inner = sorted([anchor] + sorted(rng.sample(outer_extra, inner_size)))
        outer = sorted([anchor] + outer_extra)
        yield catalog(name), tuple(inner), tuple(outer), resolution
