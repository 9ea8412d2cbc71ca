"""Seeded inputs for the three benchmark workloads, and exact work counts.

Nothing here imports qgordon: the inputs and the ground-set sizes come
from this file's own counting DPs, so a change to the program cannot
change what it is asked to do.  The DPs follow the definitions in the
package README (window rule f_j + f_{j+1} <= k - 1 on multiplicities of
adjacent sizes, at most a - 1 ones, parity filters for W and Wbar).
"""

from __future__ import annotations

import random
from functools import lru_cache

# criterion 5 of the acceptance gate (Gordon map) and criterion 6
# (pipelines); the sweep runs each one weight above its gate
GORDON_POINTS = [("gordon", k, a) for k in (2, 3, 4) for a in range(1, k + 1)]
PIPELINE_GRID = [
    ("EE", 2, 2), ("EE", 4, 2), ("EE", 4, 4),
    ("OO", 3, 1), ("OO", 3, 3), ("OO", 5, 3), ("OO", 5, 5),
    ("OE", 3, 2), ("OE", 5, 2), ("OE", 5, 4),
]
SWEEP_WEIGHT = {"gordon": 23, "EE": 21, "OO": 21, "OE": 21}

# ground set of each scope: (parity of the distinct parts in A, family of B)
GROUND = {"gordon": (None, "B"), "EE": (None, "W"), "OO": ("even", "W"),
          "OE": ("even", "Wbar")}

IDENTITY_DEPTH = 600
# (identity, k, choices of a); cost depends on k, not on a, so the seed
# picks a and the work per pass stays put
IDENTITY_SPECS = [
    ("ebf", 3, (1, 2, 3)), ("thm13", 4, (2, 4)), ("thm14", 3, (1, 3)),
    ("thm15", 5, (2, 4)), ("jtp_instance", 3, (1, 2, 3)),
    ("prelude_ee", 2, (1,)), ("prelude_oo", 2, (1,)), ("prelude_oe", 2, (1,)),
]
# identities whose sides do not depend on the mode, at their own depths
SINGLE_MODE_SPECS = [("multisum", 3, (1, 2, 3), 180), ("rrg_counts", 3, (2, 3), 45)]

TRACE_WEIGHTS = range(20, 35)
PIPELINE_TRACE_SEED = 0      # the pipeline traces are the same for every seed
# pipeline pairs the program fails to map (ROADMAP item 1): above weight
# 30, and in the OO (3, 3) residue at weights 21-28
KNOWN_UNPAIRED = [("OE", 3, 2, ((32,), ())), ("OO", 3, 3, ((8, 6, 4), (3,)))]


def _needs_even(size, family):
    return ((family == "W" and size % 2 == 0)
            or (family == "Wbar" and size % 2 == 1))


@lru_cache(maxsize=None)
def _family_ways(family, k, a, size, above, r):
    """Multiplicity assignments to sizes size..1 of weight r, given the
    multiplicity `above` of size + 1."""
    if r == 0:
        return 1
    if size == 0:
        return 0
    total = 0
    for f in _mults(family, k, a, size, above, r):
        total += _family_ways(family, k, a, size - 1, f, r - f * size)
    return total


def _mults(family, k, a, size, above, r):
    top = min(k - 1 - above, r // size)
    if size == 1:
        top = min(top, a - 1)
    return [f for f in range(top + 1)
            if not (f % 2 and _needs_even(size, family))]


@lru_cache(maxsize=None)
def _distinct_ways(parity, size, r):
    """Distinct partitions of r into parts <= size of the given parity."""
    if r == 0:
        return 1
    if size == 0:
        return 0
    ways = _distinct_ways(parity, size - 1, r)
    if size <= r and _parity_ok(size, parity):
        ways += _distinct_ways(parity, size - 1, r - size)
    return ways


def _parity_ok(size, parity):
    return parity is None or size % 2 == (0 if parity == "even" else 1)


def family_count(family, k, a, n):
    return _family_ways(family, k, a, n, 0, n)


def ground_size(scope, k, a, w):
    parity, family = GROUND[scope]
    return sum(_distinct_ways(parity, wa, wa) * family_count(family, k, a, w - wa)
               for wa in range(w + 1))


def sweep_configs(scope, k, a, n):
    """Configurations a law sweep to weight n visits."""
    return sum(ground_size(scope, k, a, w) for w in range(n + 1))


def _sample_family(rng, family, k, a, n):
    parts, size, above, r = [], n, 0, n
    while r:
        pick = rng.randrange(_family_ways(family, k, a, size, above, r))
        for f in _mults(family, k, a, size, above, r):
            ways = _family_ways(family, k, a, size - 1, f, r - f * size)
            if pick < ways:
                break
            pick -= ways
        parts += [size] * f
        size, above, r = size - 1, f, r - f * size
    return tuple(parts)


def _sample_distinct(rng, parity, n):
    parts, size, r = [], n, n
    while r:
        pick = rng.randrange(_distinct_ways(parity, size, r))
        skip = _distinct_ways(parity, size - 1, r)
        if pick >= skip:
            parts.append(size)
            r -= size
        size -= 1
    return tuple(parts)


def sample_pair(rng, scope, k, a, w):
    """A ground-set pair of weight w, uniform over the ground set."""
    parity, family = GROUND[scope]
    pick = rng.randrange(ground_size(scope, k, a, w))
    for wa in range(w + 1):
        ways = (_distinct_ways(parity, wa, wa)
                * family_count(family, k, a, w - wa))
        if pick < ways:
            return (_sample_distinct(rng, parity, wa),
                    _sample_family(rng, family, k, a, w - wa))
        pick -= ways
    raise AssertionError("ground_size and its terms disagree")


def sweep_ops(seed):
    rng = random.Random(seed)
    ops = [{"kind": "sweep", "scope": s, "k": k, "a": a, "n": SWEEP_WEIGHT[s]}
           for s, k, a in GORDON_POINTS + PIPELINE_GRID]
    rng.shuffle(ops)
    for op in ops:
        op["work"] = sweep_configs(op["scope"], op["k"], op["a"], op["n"])
    return ops


def identity_ops(seed):
    rng = random.Random(seed)
    ops = []
    for ident, k, choices in IDENTITY_SPECS:
        for mode in ("cross", "invert"):
            ops.append({"kind": "identity", "id": ident, "k": k,
                        "a": rng.choice(choices), "n": IDENTITY_DEPTH,
                        "mode": mode})
    for ident, k, choices, depth in SINGLE_MODE_SPECS:
        ops.append({"kind": "identity", "id": ident, "k": k,
                    "a": rng.choice(choices), "n": depth, "mode": "cross"})
    rng.shuffle(ops)
    for op in ops:
        op["work"] = op["n"] + 1         # coefficients compared
    return ops


SCOPE_TOKEN = {"gordon": "gordon", "EE": "ee", "OO": "oo", "OE": "oe"}


def _pair_arg(pair):
    return "%s;%s" % (",".join(map(str, pair[0])), ",".join(map(str, pair[1])))


def _valid_a(scope, k):
    if scope == "EE" or scope == "OE":
        return list(range(2, k + 1, 2))
    if scope == "OO":
        return list(range(1, k + 1, 2))
    return list(range(1, k + 1))


def _dealt(rng, slots):
    """(slot, weight, rng) for each slot, the weights dealt by rng from
    a fixed multiset over TRACE_WEIGHTS."""
    weights = [TRACE_WEIGHTS[i % len(TRACE_WEIGHTS)] for i in range(len(slots))]
    rng.shuffle(weights)
    return [(slot, w, rng) for slot, w in zip(slots, weights)]


def cli_session(seed):
    """102 qgordon calls, every command, all with --format json.
    Each slot fixes what drives the cost (command, family or scope, k,
    depth); the seed picks a, the order, and the Gordon map's traced
    pairs."""
    rng = random.Random(seed)
    calls = []

    def add(check, *argv, **extra):
        argv = [str(x) for x in argv] + ["--format", "json"]
        calls.append(dict(extra, check=check, argv=argv))

    for family in ("A", "B", "W", "Wbar"):
        for k in (3, 4, 5):
            a = rng.randint(1, k)
            add("count", "count", "--family", family, "--k", k, "--a", a,
                "--truncate", 36, family=family, k=k, a=a, n=36)
    for family, k in (("B", 3), ("B", 5), ("W", 3), ("W", 5),
                      ("Wbar", 3), ("Wbar", 5), ("B", 4), ("W", 4)):
        a = rng.randint(1, k)
        add("enumerate", "enumerate", "--family", family, "--k", k, "--a", a,
            "--n", 24, family=family, k=k, a=a, n=24)
    for token, k, depth in (("rrg", 3, 30), ("ebf", 3, 40), ("thm13", 4, 40),
                            ("thm14", 3, 40), ("thm15", 5, 40),
                            ("multisum", 3, 25), ("jtp", 3, 40)):
        scope = {"thm13": "EE", "thm14": "OO", "thm15": "OE"}.get(token, "gordon")
        add("verify", "verify", "--identity", token, "--k", k,
            "--a", rng.choice(_valid_a(scope, k)), "--truncate", depth)
    for scope, k in (("gordon", 3), ("EE", 4), ("OO", 3), ("OO", 5), ("OE", 5)):
        a = rng.choice(_valid_a(scope, k))
        add("verify", "verify", "--scope", SCOPE_TOKEN[scope], "--k", k,
            "--a", a, "--truncate", 14, configs=sweep_configs(scope, k, a, 14))
    for scope, k in (("gordon", 3), ("gordon", 4), ("EE", 4), ("EE", 2),
                     ("OO", 3), ("OO", 5), ("OE", 3), ("OE", 5)):
        # OO at a = 1 has no fixed templates, and the CLI rejects it
        choices = [a for a in _valid_a(scope, k) if (scope, a) != ("OO", 1)]
        add("fixed", "fixed-points", "--scope", SCOPE_TOKEN[scope], "--k", k,
            "--a", rng.choice(choices), "--max-weight", 60)
    # 60 traces: 20 on the Gordon map and 4 on each pipeline grid point,
    # each group with weights dealt from a fixed multiset over 20..34.  The
    # pipeline maps fail on part of their ground sets (pairs above weight 30
    # that the route ladder leaves unpaired, and 12 OO (3, 3) pairs at
    # weights 21-28), which uniform draws hit 2 to 6 times per session.  So
    # the 40 pipeline traces are drawn once, the same for every seed, and
    # every seed fails the same calls; the seed draws the Gordon traces.
    # That fixed draw misses the failing pairs, so the session also traces
    # the two that ROADMAP item 1 names (KNOWN_UNPAIRED).
    gordon = [("gordon", k) for k in (2, 3, 4, 3) for _ in range(5)]
    pipeline = [(s, k, a) for s, k, a in PIPELINE_GRID for _ in range(4)]
    fixed = random.Random(PIPELINE_TRACE_SEED)
    traces = []
    for slot, w, pick in (_dealt(rng, gordon) + _dealt(fixed, pipeline)):
        if slot[0] == "gordon":
            scope, k = slot
            a = pick.randint(1, k)
        else:
            scope, k, a = slot
        while not ground_size(scope, k, a, w):
            w += 1      # OE weights are even: B has paired odd parts
        traces.append((scope, k, a, sample_pair(pick, scope, k, a, w)))
    for scope, k, a, pair in traces + KNOWN_UNPAIRED:
        add("trace", "trace", "--scope", SCOPE_TOKEN[scope], "--k", k,
            "--a", a, "--pair", _pair_arg(pair), pair=pair)
    rng.shuffle(calls)
    return calls
