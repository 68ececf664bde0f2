"""The generator's draws as one `rng.randrange` call per value, kept as the
reference that the bulk draws of `taxarch.generate` are compared against: the
two loops exactly as `generate` ran them before it drew words in bulk."""

import random


def reference_below(rng: random.Random, n: int, count: int) -> list[int]:
    """The owners of `count` components, one team index drawn per component."""
    return [rng.randrange(n) for _ in range(count)]


def reference_pairs(rng: random.Random, n: int, target: int) -> set[int]:
    """Distinct (user, used) pairs of n components, coded user * n + used, drawn until `target` are held."""
    pairs: set[int] = set()
    while len(pairs) < target:
        user = rng.randrange(n)
        used = rng.randrange(n)
        if user != used:
            pairs.add(user * n + used)
    return pairs
