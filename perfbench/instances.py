"""Seeded wide-train instances for the compile-wide workload.

Each shape fixes the train count n, the number of groups each train serves,
how many groups are shared by two trains (the "wide" groups of the QUBO) and
cmax; every shape is drawn COPIES times. The seed chooses which trains share
each wide group, the numbering of the groups, and the costs and benefits.
The work of a shape therefore hardly depends on the seed: brute force scans
2^(n+q) assignments, and a train serving g groups gives a PUBO capacity
penalty of degree g + 1 with about 2 (2^g - 1) monomials.

Register sizes (pubo n+q, qubo n+q+wide+n*bitlen(cmax)) are listed beside
each shape; tables are built only for registers within QUBIT_BUDGET.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

QUBIT_BUDGET = 21
COPIES = 2

# An odd number of shapes keeps the median instance inside one shape.
# (n, groups per train, shared groups, cmax)      pubo  qubo  max degree
SHAPES = (
    (2, (7, 7), 1, 1),  # 16    19    8
    (2, (6, 8), 2, 1),  # 16    20    9
    (3, (4, 5, 5), 1, 1),  # 17    21    6
    (3, (4, 5, 6), 1, 1),  # 18    22    7
    (2, (8, 8), 3, 3),  # 18    25    9
    (3, (5, 5, 6), 2, 2),  # 19    27    7
    (4, (4, 4, 4, 5), 3, 2),  # 21    32    6
)


def generate(seed: int) -> list[dict]:
    """Instance objects in the program's JSON format, COPIES per shape."""
    rng = np.random.default_rng(seed)
    out = []
    for k, (n, sizes, shared, cmax) in enumerate(s for s in SHAPES for _ in range(COPIES)):
        free = list(sizes)
        members: list[list[int]] = [[] for _ in range(n)]
        group = 0
        for _ in range(shared):
            open_trains = [i for i in range(n) if free[i] > 0]
            for i in rng.choice(open_trains, size=2, replace=False):
                members[i].append(group)
                free[i] -= 1
            group += 1
        for i in range(n):
            for _ in range(free[i]):
                members[i].append(group)
                group += 1
        relabel = rng.permutation(group)
        costs = rng.integers(1, 5, size=n) / 2.0
        benefits = rng.integers(1, 4, size=n) / 2.0
        out.append(
            {
                "name": f"wide{k}-seed{seed}",
                "num_groups": group,
                "cmax": cmax,
                "trains": [
                    {
                        "cost": float(costs[i]),
                        "benefit": float(benefits[i]),
                        "groups": sorted(int(relabel[g]) for g in members[i]),
                    }
                    for i in range(n)
                ],
            }
        )
    return out


def write(seed: int, directory: Path) -> list[tuple[Path, dict]]:
    directory.mkdir(parents=True, exist_ok=True)
    files = []
    for obj in generate(seed):
        path = directory / f"{obj['name']}.json"
        path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")
        files.append((path, obj))
    return files
