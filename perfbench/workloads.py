"""Seeded job lists of the benchmark's workloads.

A workload is an endless stream of blocks; a block is a list of CLI argv
lists.  Each block holds a fixed number of jobs of every stratum of its
workload (the strata are listed with each generator), so every block
costs about the same and a run's figures do not hinge on which costly
jobs its seed happened to draw.  The seed fixes the draws inside each
stratum and the order of the jobs in each block; the program receives
only the argv.

Every argv is written ``--option=value``, because a twist such as ``-3``
would otherwise read as an option.
"""

from __future__ import annotations

import random

WORKLOADS = ("extract", "oracle_points", "catalog_verify")

# Every run holds at least this many whole blocks, so that its job count,
# and with it the tail quantile, is fixed by the workload alone.
MIN_BLOCKS = {"extract": 2, "oracle_points": 1, "catalog_verify": 1}

SURFACES = ("p2", "p1xp1", "f1")
EXTRACT_ORDER = 3
ORACLE_NS = (3, 4, 5)

# The thirteen suites at the seed commit, named here so that a suite added
# to the program later does not change the workload.
VERIFY_SUITES = ("2pt", "abelian", "asymptotics", "blowup", "chern_rank2", "enriques",
                 "fgh", "lagrange_burmann", "spherical_chern", "theta", "thm3",
                 "verlinde_segre", "verlinde_trivial")
VERIFY_ORDER = 10
BRANCH_ORDERS = (20, 40)
SERIES_PARAMS = {
    "segreA": (range(-4, 3), range(0, 5)),
    "chernA": (range(-4, 3), range(0, 3)),
    "verlindeB": (range(-3, 4), range(1, 5)),
}


def _oracle_seed(rng):
    return rng.randrange(1, 2 ** 31)


def extract_block(rng):
    """Strata: Segre rank 0..3, three times each, and every Verlinde twist -3..3.

    Every job draws its own oracle seed.
    """
    jobs = [["extract", "--kind=segre", "--rank=%d" % rank] for rank in range(4) for _ in range(3)]
    jobs += [["extract", "--kind=verlinde", "--rank=%d" % twist] for twist in range(-3, 4)]
    for argv in jobs:
        argv += ["--order=%d" % EXTRACT_ORDER, "--seed=%d" % _oracle_seed(rng), "--json=-"]
    rng.shuffle(jobs)
    return jobs


def _line(rng, surface):
    # small degrees: the sizes of the oracle's numbers, and so a query's
    # cost, grow with them, and a run holds few queries of each stratum
    if surface == "p2":
        return "O(%d)" % rng.randint(0, 2)
    return "O(%d,%d)" % (rng.randint(0, 1), rng.randint(0, 1))


def segre_class(rng, surface, rank):
    """A fresh rank-``rank`` class: four (even rank) or five (odd rank) line bundles."""
    terms = 4 if rank % 2 == 0 else 5
    plus = (terms + rank) // 2
    signs = ["+"] * plus + ["-"] * (terms - plus)
    rng.shuffle(signs)
    spec = "".join(sign + _line(rng, surface) for sign in signs)
    return spec[1:] if spec.startswith("+") else spec


# Segre ranks come in pairs s, -2 - s, whose positive and negative terms
# add up to counts that do not depend on s.
SEGRE_RANK_PAIRS = ((-4, 2), (-3, 1), (-2, 0), (-1, -1))
# Verlinde twists by n = 3, 4, 5.  P2 has K^2 = 9: the catalog assembles
# no twist |r| >= 2 there.
VERLINDE_TWISTS = {"p2": ((0, 1), (-1, 0), (-1, 1)),
                   "p1xp1": ((-3, 3), (-2, 2), (-1, 1)),
                   "f1": ((-3, 3), (-2, 2), (-1, 1))}


def oracle_block(rng):
    """Strata: surface x n in 3..5, two Segre and two Verlinde queries each.

    Which ranks and twists a stratum gets is fixed (every rank -4..2 and
    every twist -3..3 occurs in a block), since they set much of a query's
    cost; the seed draws each query's line bundles and its oracle seed.
    """
    jobs = []
    for i, surface in enumerate(SURFACES):
        for j, n in enumerate(ORACLE_NS):
            for rank in SEGRE_RANK_PAIRS[(i + j) % len(SEGRE_RANK_PAIRS)]:
                jobs.append(["oracle", "--surface=" + surface,
                             "--class=" + segre_class(rng, surface, rank), "--n=%d" % n,
                             "--kind=segre", "--seed=%d" % _oracle_seed(rng), "--json=-"])
            for twist in VERLINDE_TWISTS[surface][j]:
                jobs.append(["oracle", "--surface=" + surface,
                             "--class=" + _line(rng, surface), "--n=%d" % n,
                             "--kind=verlinde", "--r=%d" % twist,
                             "--seed=%d" % _oracle_seed(rng), "--json=-"])
    rng.shuffle(jobs)
    return jobs


def catalog_jobs():
    """Every verify suite once, and half the factors of every series family.

    Factor k of rank or twist p is taken when p + k is even, which keeps
    every rank, twist and index, and runs at order 20 + 5 ((p + k) mod 5),
    so each family spans orders 20..40; the branch families y and Y run at
    orders 20 and 40.
    """
    jobs = [["verify", "--suite=" + suite, "--order=%d" % VERIFY_ORDER]
            for suite in VERIFY_SUITES]
    for family, (params, indices) in SERIES_PARAMS.items():
        for param in params:
            for k, index in enumerate(indices):
                if (param + k) % 2:
                    continue
                jobs.append(["series", "--family=" + family, "--rank=%d" % param,
                             "--index=%d" % index, "--order=%d" % (20 + 5 * ((param + k) % 5))])
    for family in ("y", "Y"):
        for order in BRANCH_ORDERS:
            jobs.append(["series", "--family=" + family, "--order=%d" % order])
    return jobs


def catalog_block(rng):
    """The fixed catalog job list in a seeded order.

    A fixed list makes every block cost the same; the seed only orders it.
    """
    jobs = catalog_jobs()
    rng.shuffle(jobs)
    return jobs


_BLOCKS = {"extract": extract_block, "oracle_points": oracle_block,
           "catalog_verify": catalog_block}


def blocks(workload, seed):
    """The endless, seed-determined stream of blocks of ``workload``."""
    make = _BLOCKS[workload]
    rng = random.Random("%s/%d" % (workload, seed))
    while True:
        yield make(rng)
