"""Seeded game-document generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the
same documents, byte for byte.  Documents are JSON text in the format
``ptgsolve solve`` reads; the solver sees nothing else.  Each document
comes with the metadata its correctness check needs (for fans, which
state is which spoke), which the solver never sees.

Document sizes and shapes are fixed per workload; the seed picks costs,
rates, intervals and every order.  The work of a pass over a pool then
hardly depends on the seed, while no seed sees the same documents.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction

WORKLOADS = ("fan-sweep", "ptg-ladder", "verify-mix")

# fan(k) sizes of the fan-sweep pool: many mid-size fans and a few large
# ones, so that a pass is dominated by the sweep and still holds enough
# documents for a tail percentile above the median.  Sizes are dense
# around the median and the tail, so that those do not hang on one
# document.  The sizes are fixed and the seed only shuffles states,
# actions and documents: letting the seed pick k moved the median
# document's size, and so doc_p50_s, more than the machine's noise does.
FAN_SWEEP_KS = (8, 10, 12, 14) + tuple(range(16, 35)) + (44, 56, 80)

# (states, distinct interior endpoints, reset destinations) per ladder
# document; the seed picks everything else.  Half the pool shares one
# shape, which holds both the median and the tail percentile, so that
# those follow a median over many documents rather than the edge between
# two shapes.
LADDER_SHAPES = ((7, 10, 2),) * 7 + ((8, 12, 2),) * 14 + ((8, 14, 3),) * 7

# verify-mix: fan sizes, then how many documents of each other family.
VERIFY_FAN_KS = (10, 13, 16)
VERIFY_RANDOM_SPTGS = 21
VERIFY_PRICED = (22, 8)  # documents, states each
VERIFY_PTGS = (14, (4, 5, 2))  # documents, ladder shape each


def pool(workload: str, seed: int) -> list:
    """The documents of one workload, in the order a pass solves them."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "fan-sweep":
        docs = [
            fan_doc(f"fan-{j:02d}", k, rng)
            for j, k in enumerate(FAN_SWEEP_KS)
        ]
    elif workload == "ptg-ladder":
        docs = [
            ladder_doc(f"ladder-{j:02d}", *shape, rng)
            for j, shape in enumerate(LADDER_SHAPES)
        ]
    elif workload == "verify-mix":
        docs = [fan_doc(f"fan-{k}", k, rng, True) for k in VERIFY_FAN_KS]
        docs += [
            random_sptg_doc(f"sptg-{j:02d}", 4, rng, True)
            for j in range(VERIFY_RANDOM_SPTGS)
        ]
        count, states = VERIFY_PRICED
        docs += [priced_doc(f"priced-{j:02d}", states, rng, True) for j in range(count)]
        count, shape = VERIFY_PTGS
        docs += [ladder_doc(f"ptg-{j:02d}", *shape, rng, True) for j in range(count)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(docs)
    return docs


@dataclass(frozen=True)
class Doc:
    name: str  # file name inside the work directory
    kind: str  # priced | sptg | ptg
    text: str  # the game document
    state_ids: tuple  # every state id, in document order
    verify: bool = False  # solve with --verify
    fan: dict = None  # fan(k) only: k, and the spoke index of each state id


def _dump(kind, states, actions) -> str:
    return json.dumps(
        {"format": 1, "kind": kind, "states": states, "actions": actions}, indent=1
    ) + "\n"


def fan_doc(name: str, k: int, rng: random.Random, verify: bool = False) -> Doc:
    """fan(k): state 0 is a minimizer with rate k+1 and free moves to
    states 1..k; state i is a maximizer with rate i and a terminal exit
    of cost (k+1-i)^2/(2k).  State 0 has exactly k-1 event points.

    The order of states and of actions is shuffled, and state ids do not
    reveal the spoke index; ``Doc.fan`` maps ids back for the checker."""
    owners = [1] + [2] * k
    rates = [k + 1] + list(range(1, k + 1))
    raw = [(0, i, Fraction(0)) for i in range(1, k + 1)]
    raw += [(i, None, Fraction((k + 1 - i) ** 2, 2 * k)) for i in range(1, k + 1)]
    doc, ids = _shuffled_doc(name, "sptg", owners, rates, raw, rng, verify)
    return replace(doc, fan={"k": k, "spoke": {ids[i]: i for i in range(k + 1)}})


def ladder_doc(
    name: str,
    n: int,
    endpoints: int,
    reset_dests: int,
    rng: random.Random,
    verify: bool = False,
) -> Doc:
    """A PTG over [0, M] whose intervals use ``endpoints`` distinct
    interior clock values with open and closed bounds, and whose reset
    actions lead to ``reset_dests`` distinct states.

    Every state has a closed exit to the terminal at the horizon, so the
    document always validates."""
    horizon = rng.choice((4, 5))
    denom = 8
    grid = [Fraction(j, denom) for j in range(1, horizon * denom)]
    inner = sorted(rng.sample(grid, endpoints))
    points = [Fraction(0)] + inner + [Fraction(horizon)]
    owners = [rng.choice((1, 2)) for _ in range(n)]
    owners[0], owners[1] = 1, 2
    rates = [Fraction(rng.randint(0, 5)) for _ in range(n)]
    ids = [f"q{k}" for k in range(n)]
    dests = rng.sample(range(n), reset_dests)
    actions = []

    def add(src, dst, cost, lo, hi, lo_c, hi_c, reset=False):
        actions.append({
            "id": f"a{len(actions)}",
            "from": ids[src],
            "to": "bot" if dst is None else ids[dst],
            "cost": str(cost),
            "interval": {"lo": str(lo), "hi": str(hi),
                         "lo_closed": lo_c, "hi_closed": hi_c},
            "reset": reset,
        })

    for k in range(n):
        add(k, None, rng.randint(1, 8), rng.choice(points[:-1]), points[-1],
            rng.random() < 0.5, True)
    # Spread the interior endpoints over the actions so that every one
    # of them becomes a ladder point.
    pending = list(inner)
    rng.shuffle(pending)
    while pending or len(actions) < 4 * n:
        if pending:
            a = pending.pop()
            b = rng.choice([p for p in points if p != a])
        else:
            a, b = rng.sample(points, 2)
        lo, hi = sorted((a, b))
        src = rng.randrange(n)
        dst = rng.choice([None] + list(range(n)))
        add(src, dst, rng.randint(0, 6), lo, hi, rng.random() < 0.6, rng.random() < 0.6)
    for d in dests:
        src = rng.randrange(n)
        lo, hi = sorted(rng.sample(points, 2))
        add(src, d, rng.randint(1, 6), lo, hi, True, rng.random() < 0.5, reset=True)
    states = [
        {"id": ids[k], "owner": owners[k], "rate": str(rates[k])} for k in range(n)
    ]
    return Doc(name, "ptg", _dump("ptg", states, actions), tuple(ids), verify)


def random_sptg_doc(name: str, spokes: int, rng: random.Random, verify: bool = False) -> Doc:
    """A random SPTG built around a fan-like gadget, so that it has event
    points.  Minimizer hubs (rate 9) move at one fixed price per hub to
    maximizer spokes whose waiting rates (1..8) rise while their exit
    costs fall; the lines of neighbouring spokes cross inside [0,1], so
    each hub value has at least one event point.  Extra states with
    random owners and rates exit to the terminal or move back to a hub."""
    hubs, extra = 2, 2
    n = hubs + spokes + extra
    owners = [1] * hubs + [2] * spokes + [rng.choice((1, 2)) for _ in range(extra)]
    spoke_rates = sorted(rng.sample(range(1, 9), spokes))
    rates = [9] * hubs + spoke_rates + [rng.randint(0, 4) for _ in range(extra)]
    exits = [Fraction(rng.randint(1, 4))]
    for lo, hi in zip(spoke_rates[::-1][1:], spoke_rates[::-1]):
        # the next lower rate pays more; the lines cross at 1 - u
        exits.append(exits[-1] + (hi - lo) * Fraction(rng.randint(1, 9), 10))
    exits.reverse()
    raw = []
    for h in range(hubs):
        price = Fraction(rng.randint(0, 2))
        raw += [(h, hubs + i, price) for i in range(spokes)]
    raw += [(hubs + i, None, exits[i]) for i in range(spokes)]
    for e in range(hubs + spokes, n):
        raw.append((e, None, Fraction(rng.randint(1, 6))))
        raw.append((e, rng.randrange(hubs), Fraction(rng.randint(0, 3))))
        raw.append((e, rng.choice([None] + list(range(n))), Fraction(rng.randint(0, 5))))
    return _shuffled_doc(name, "sptg", owners, rates, raw, rng, verify)[0]


def priced_doc(name: str, n: int, rng: random.Random, verify: bool = False) -> Doc:
    """A random untimed priced game; half the states have two actions and
    half three, so brute force enumerates the same number of profiles
    for every seed.  About one move in three goes to the terminal."""
    owners = [rng.choice((1, 2)) for _ in range(n)]
    raw = []
    for k in range(n):
        for _ in range(2 + k % 2):
            dst = None if rng.random() < 0.35 else rng.randrange(n)
            raw.append((k, dst, Fraction(rng.randint(0, 6))))
    return _shuffled_doc(name, "priced", owners, None, raw, rng, verify)[0]


def _shuffled_doc(name, kind, owners, rates, raw, rng, verify):
    """The document of a game without intervals, with states and actions
    in shuffled order and state ids that do not reveal the state index;
    ``raw`` holds (source, destination or None, cost) by state index.
    Returns the document and the id of each state index."""
    n = len(owners)
    order = list(range(n))
    rng.shuffle(order)
    ids = {k: f"s{pos}" for pos, k in enumerate(order)}
    states = []
    for k in order:
        state = {"id": ids[k], "owner": owners[k]}
        if rates is not None:
            state["rate"] = str(rates[k])
        states.append(state)
    rng.shuffle(raw)
    actions = [
        {"id": f"a{j}", "from": ids[src], "to": "bot" if dst is None else ids[dst],
         "cost": str(c)}
        for j, (src, dst, c) in enumerate(raw)
    ]
    doc = Doc(name, kind, _dump(kind, states, actions), tuple(s["id"] for s in states), verify)
    return doc, ids
