"""Independent brute-force oracles used to validate graph operations.

Everything here works on raw id lists and (parent, child) pairs, never on the
library's own adjacency or traversal code.
"""

from itertools import permutations
from typing import Dict, Iterable, List, Sequence, Set, Tuple

Edge = Tuple[int, int]


def bf_reachable(ids: Sequence[int], edges: Iterable[Edge], start: int) -> Set[int]:
    """All nodes reachable from start via one or more edges (start excluded)."""
    out: Set[int] = set()
    frontier = {start}
    while frontier:
        nxt = set()
        for parent, child in edges:
            if parent in frontier and child not in out:
                nxt.add(child)
        out |= nxt
        frontier = nxt
    return out


def bf_is_valid_topo(order: Sequence[int], ids: Sequence[int], edges: Iterable[Edge]) -> bool:
    if sorted(order) != sorted(ids):
        return False
    pos = {n: i for i, n in enumerate(order)}
    return all(pos[p] < pos[c] for p, c in edges)


def bf_all_topo_orders(ids: Sequence[int], edges: Iterable[Edge]) -> List[Tuple[int, ...]]:
    """Every valid topological order, by exhaustive permutation (small n only)."""
    edges = list(edges)
    return [p for p in permutations(ids) if bf_is_valid_topo(p, ids, edges)]


def bf_has_cycle(ids: Sequence[int], edges: Iterable[Edge]) -> bool:
    """Cycle check by repeated removal of nodes without incoming edges."""
    remaining = set(ids)
    edges = set(edges)
    while remaining:
        with_incoming = {c for p, c in edges if p in remaining and c in remaining}
        removable = remaining - with_incoming
        if not removable:
            return True
        remaining -= removable
    return False


def bf_prune_simulation(
    ids: Sequence[int], edges: Iterable[Edge], script: Dict[int, str]
) -> Tuple[Set[int], Set[int], Set[int], float]:
    """Simulate dependency-pruned evaluation from first principles.

    script maps question id -> "yes" | "no" (the answer the VQA would give).
    Returns (queried ids, pruned ids, missing ids, score).
    """
    edges = list(edges)
    pruned: Set[int] = set()
    changed = True
    while changed:
        changed = False
        for q in ids:
            if q not in pruned and script[q] == "no":
                for d in bf_reachable(ids, edges, q):
                    if d not in pruned:
                        pruned.add(d)
                        changed = True
    queried = set(ids) - pruned
    missing = pruned | {q for q in queried if script[q] == "no"}
    yes = len(ids) - len(missing)
    score = yes / len(ids) if ids else 1.0
    return queried, pruned, missing, score


def bf_ask_order(ids: Sequence[int], edges: Iterable[Edge], queried: Iterable[int]) -> List[int]:
    """The queried ids in the order an evaluation journals them: by level,
    then id. A node's level is the length of the longest path to it from a
    root, found by raising a child above its parent until nothing changes."""
    edges = list(edges)
    level = {i: 0 for i in ids}
    changed = True
    while changed:
        changed = False
        for parent, child in edges:
            if level[child] <= level[parent]:
                level[child] = level[parent] + 1
                changed = True
    return sorted(queried, key=lambda i: (level[i], i))


def bf_mean(values: Sequence[float]) -> float:
    """Independent mean by plain left-to-right summation."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values)
