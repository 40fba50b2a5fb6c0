"""Checks of one solver report, independent of the solver's own code.

Everything is recomputed from the instance the solver's input text was
serialized from, and from the exact values frozen in `pool.json`.
"""

from __future__ import annotations

from fractions import Fraction

from workloads import Instance

RATIO_CAP = 23  # 22 + epsilon with epsilon = 1


def check_report(doc: dict, inst: Instance, entry: dict, oracle: bool) -> list[str]:
    """Every way the report misses; empty when it is correct."""
    misses = []
    cheapest: dict[tuple[int, int], Fraction] = {}
    for t, h, c in inst.edges:
        if (t, h) not in cheapest or c < cheapest[(t, h)]:
            cheapest[(t, h)] = c
    walk = [tuple(step) for step in doc["tour_walk"]]
    if not walk or any(a[1] != b[0] for a, b in zip(walk, walk[1:] + walk[:1])):
        misses.append("tour_walk is not a closed walk")
    if any(step not in cheapest for step in walk):
        misses.append("tour_walk uses a pair that is not an arc of the instance")
    elif {t for t, _ in walk} != set(range(inst.n)):
        misses.append("tour_walk does not visit every vertex")
    else:
        cost = sum((cheapest[step] for step in walk), Fraction(0))
        if cost != Fraction(doc["tour_cost"]):
            misses.append(f"walk costs {cost}, report says {doc['tour_cost']}")
    tour, lp = Fraction(doc["tour_cost"]), Fraction(doc["lp_value"])
    if not tour <= RATIO_CAP * lp:
        misses.append(f"tour_cost {tour} > {RATIO_CAP} * lp_value {lp}")
    if lp != Fraction(entry["lp_value"]):
        misses.append(f"lp_value {lp} != frozen {entry['lp_value']}")
    if oracle:
        held = Fraction(doc["held_karp_opt"])
        if not lp <= held <= tour:
            misses.append(f"not lp {lp} <= held_karp {held} <= tour {tour}")
        if held != Fraction(entry["held_karp"]):
            misses.append(f"held_karp {held} != frozen {entry['held_karp']}")
    return misses
