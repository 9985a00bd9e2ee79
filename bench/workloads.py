"""Seeded job lists for the four benchmark workloads, and the checks on their outputs.

A job is one ``spike-lab`` command line.  The benchmark generates every job
from the workload seed before timing starts; the program only ever sees the
generated argv.  Each job carries the exit code it must return and a check
that the benchmark applies to its ``result`` payload outside the timed
section.  The checks recompute answers with the plain arithmetic below and
never call into ``spikelab``, so a defect in the program cannot hide itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

PRIMES = (2, 3, 5, 7, 11, 13)
DIAG_SIZES = (3, 4, 5, 6)

# The acceptance gate c11 argv list (tests/test_acceptance.py), copied so the
# benchmark does not import the test suite.
CLI_RUNS = [
    ["axioms", "--diag", "p=3;x=1,1,1"],
    ["signature", "--diag", "p=3;x=2,2,1,1"],
    ["normalize", "--diag", "p=3;x=1,1,1"],
    ["canonical", "--diag", "p=3;x=2,2,2"],
    ["enumerate", "--p", "3", "--n", "4"],
    ["lemma21", "--p", "5", "--n", "4"],
    ["lemma22", "--p", "5", "--n", "5"],
    ["detcheck", "--p", "11", "--n-max", "7", "--samples", "500", "--seed", "11"],
    ["unique", "--p", "3", "--n", "6"],
    ["transfer", "--diag", "p=3;x=2,2,2,1", "--q", "5"],
    ["charset", "--diag", "p=3;x=2,2,1,1", "--primes", "2,5,7,11,13"],
    ["construct", "prop41", "--p", "5", "--q", "7"],
    ["construct", "prop43", "--p", "7"],
    ["lbound", "--p", "3", "--primes", "2,3,5,7", "--n-max", "4"],
]

Check = Callable[["Job", dict, Optional[dict]], Optional[str]]


@dataclass
class Job:
    """One command line, the exit code it must return, and the check on its result.

    A check gets the job, its result and the previous job's result.  A
    ``paired`` job is the second half of a canonical-form pair: its check
    compares its result with that of the job just before it.
    """

    argv: list[str]
    check: Check
    expect: int = 0
    paired: bool = False
    only_own_prime: bool = False  # a prop43 diagonal: charset must admit exactly {p}


# ---------------------------------------------------------------------------
# plain arithmetic used by the checks and the generators


def _inv(v: int, p: int) -> int:
    return pow(v, -1, p)


def sig_masks(p: int, x: tuple[int, ...]) -> list[int]:
    """Signature members as masks, ascending, by summing each subset directly."""
    invs = [_inv(v, p) for v in x]
    out = []
    for mask in range(1, 1 << len(x)):
        if sum(invs[i] for i in range(len(x)) if mask >> i & 1) % p == p - 1:
            out.append(mask)
    return out


def _indices(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def swap_diag(p: int, x: tuple[int, ...], smask: int) -> tuple[int, ...]:
    """Closed-form swap at S: x_i(1+s) off S, -x_i(1+s) on S, s = sum of inverses on S."""
    s = sum(_inv(v, p) for i, v in enumerate(x) if smask >> i & 1)
    fac = (1 + s) % p
    assert fac, "swap set lies in the signature"
    return tuple((-v * fac if smask >> i & 1 else v * fac) % p for i, v in enumerate(x))


def prop43_diag(p: int) -> tuple[int, ...]:
    """Inverse vector (-1, -1, 1, -2, 2, ..., -2^k), k = floor(log2 p), inverted mod p."""
    k = p.bit_length() - 1
    vals = [-1]
    for i in range(k):
        vals.extend([-(1 << i), 1 << i])
    vals.append(-(1 << k))
    return tuple(_inv(v % p, p) for v in vals)


def diag_text(p: int, x: tuple[int, ...]) -> str:
    return f"p={p};x=" + ",".join(str(v) for v in x)


def _random_diag(rng: random.Random, p: int, n: int) -> tuple[int, ...]:
    return tuple(rng.randrange(1, p) for _ in range(n))


def _parse(text: str) -> tuple[int, tuple[int, ...]]:
    head, tail = text.split(";")
    return int(head[2:]), tuple(int(v) for v in tail[2:].split(","))


# ---------------------------------------------------------------------------
# checks: each returns None when the result is right, else a reason


def check_signature(job: Job, r: dict, prev: Optional[dict]) -> Optional[str]:
    p, x = _parse(job.argv[2])
    members = [_indices(m) for m in sig_masks(p, x)]
    if r["members"] != members or r["size"] != len(members):
        return "signature members differ from per-subset summation"
    return None


def check_normalize(job: Job, r: dict, prev: Optional[dict]) -> Optional[str]:
    p, x = _parse(job.argv[2])
    y = tuple(r["normalized"])
    if y[0] != p - 1 or any(v % p == 0 for v in y):
        return "normalized diagonal does not start with -1"
    if len(sig_masks(p, y)) != len(sig_masks(p, x)):
        return "normalized diagonal has a different signature size"
    return None


def check_axioms(job: Job, r: dict, prev: Optional[dict]) -> Optional[str]:
    return None if r["holds"] is True else "spike axioms rejected a valid diagonal"


def check_canonical(job: Job, r: dict, prev: Optional[dict]) -> Optional[str]:
    p, x = _parse(job.argv[2])
    c = r["canonical"]
    if c != sorted(c) or c > sorted(x):
        return "canonical form is not sorted or exceeds the sorted input"
    if job.paired:
        if prev is None or prev["canonical"] != c or prev["orbit_size"] != r["orbit_size"]:
            return "canonical form changed under a swap and relabeling of the input"
    return None


def check_census(job: Job, r: dict, prev: Optional[dict]) -> Optional[str]:
    p, n = int(job.argv[2]), int(job.argv[4])
    sizes = [c["orbit_size"] for c in r["classes"]]
    if sum(sizes) != (p - 1) ** n or r["class_count"] != len(sizes):
        return "census orbit sizes do not sum to (p-1)^n"
    return None


def check_lemma(job: Job, r: dict, prev: Optional[dict]) -> Optional[str]:
    p, n = int(job.argv[2]), int(job.argv[4])
    want = (p - 1) ** n * (p - 1) if job.argv[0] == "lemma21" else p**n
    if r["failures"] != [] or r["checked"] != want:
        return f"lemma sweep checked {r['checked']} of {want} or reported failures"
    return None


def check_detcheck(job: Job, r: dict, prev: Optional[dict]) -> Optional[str]:
    samples = int(job.argv[job.argv.index("--samples") + 1])
    if r["failures"] != [] or r["checked"] != samples:
        return "determinant identity failed"
    return None


def check_unique(job: Job, r: dict, prev: Optional[dict]) -> Optional[str]:
    p, n = int(job.argv[2]), int(job.argv[4])
    if r["diagonals"] != (p - 1) ** n or r["distinct_signatures"] + r["collisions"] != r["diagonals"]:
        return "audit counts are inconsistent"
    if n >= 2 * p - 1 and r["collisions"] != 0:
        return "signature collisions in the guaranteed range"
    return None


def check_transfer(job: Job, r: dict, prev: Optional[dict]) -> Optional[str]:
    p, x = _parse(job.argv[2])
    q = int(job.argv[4])
    w = r["witness"]
    if w is not None and sig_masks(q, tuple(w)) != sig_masks(p, x):
        return "transfer witness has a different signature"
    return None


def check_charset(job: Job, r: dict, prev: Optional[dict]) -> Optional[str]:
    p, x = _parse(job.argv[2])
    members = sig_masks(p, x)
    yes = []
    for v in r["verdicts"]:
        if v["representable"] == "yes":
            yes.append(v["q"])
            if sig_masks(v["q"], tuple(v["witness"])) != members:
                return f"charset witness over GF({v['q']}) has a different signature"
        elif v["representable"] != "no":
            return "charset left a verdict open"
    cert = r["certificate"]
    if cert is not None:
        admits = (
            (lambda q: q in cert["admissible_primes"])
            if cert["kind"] == "finite"
            else (lambda q: q not in cert["excluded_primes"])
        )
        if [v["q"] for v in r["verdicts"] if admits(v["q"])] != yes:
            return "certificate and verdicts disagree"
    if job.only_own_prime:
        if cert is None or cert["kind"] != "finite" or cert["admissible_primes"] != [p]:
            return f"prop43 certificate does not admit exactly {{{p}}}"
        if yes != [p]:
            return f"prop43 verdicts do not admit exactly {{{p}}}"
    return None


def check_construct(job: Job, r: dict, prev: Optional[dict]) -> Optional[str]:
    p = int(job.argv[3])
    if job.argv[1] == "prop41":
        want = [(-1) % p] * p + [1] * (p - 2)
    else:
        want = list(prop43_diag(p))
    return None if r["diagonal"] == want else "construction differs from its closed form"


def check_lbound(job: Job, r: dict, prev: Optional[dict]) -> Optional[str]:
    if r["found_n"] is None:
        return None if r["certificate"] is None else "certificate without a level"
    cert = r["certificate"]
    others = [q for q in r["primes"] if q != r["p"]]
    if cert["kind"] == "finite":
        bad = [q for q in others if q in cert["admissible_primes"]]
    else:
        bad = [q for q in others if q not in cert["excluded_primes"]]
    if bad or not r["in_interval"]:
        return "threshold witness admits another tested prime or misses the interval"
    return None


CHECKS = {
    "signature": check_signature,
    "normalize": check_normalize,
    "axioms": check_axioms,
    "canonical": check_canonical,
    "enumerate": check_census,
    "lemma21": check_lemma,
    "lemma22": check_lemma,
    "detcheck": check_detcheck,
    "unique": check_unique,
    "transfer": check_transfer,
    "charset": check_charset,
    "construct": check_construct,
    "lbound": check_lbound,
}


def job(argv: list[str], **kw) -> Job:
    return Job(list(argv), CHECKS[argv[0]], **kw)


# ---------------------------------------------------------------------------
# generators


def _canonical_pair(rng: random.Random, p: int, n: int) -> list[Job]:
    """canonical(x) and canonical(relabel(swap(x, S))); the second must agree."""
    x = _random_diag(rng, p, n)
    members = set(sig_masks(p, x))
    free = [m for m in range(1, 1 << n) if m not in members]
    y = swap_diag(p, x, rng.choice(free))
    y = tuple(rng.sample(y, n))
    return [job(["canonical", "--diag", diag_text(p, x)]),
            job(["canonical", "--diag", diag_text(p, y)], paired=True)]


def _normalize(rng: random.Random, p: int, n: int) -> Job:
    x = _random_diag(rng, p, n)
    # An empty signature has nothing to normalize at.  The CLI reports that
    # NoCircuitHyperplaneError, a ValueError, as input outside the command's
    # domain: exit 2, the documented usage-error code.
    return job(["normalize", "--diag", diag_text(p, x)], expect=0 if sig_masks(p, x) else 2)


def _other_prime(rng: random.Random, p: int) -> int:
    return rng.choice([q for q in PRIMES if q != p])


# The cli-mix rule.  Each of the 14 subcommands of CLI_RUNS (construct's two
# constructions count apart) gets PER_COMMAND generated jobs besides its
# CLI_RUNS entry, spread round-robin over the command's (p, n) cells with
# p in PRIMES and n in DIAG_SIZES.  A command that enumerates a whole domain
# keeps only the cells whose domain is no larger than its CLI_RUNS entry's,
# so no generated job outgrows the acceptance run of the same command, and
# a lemma keeps only the cells where its hypothesis holds.
PER_COMMAND = 72  # about 1000 jobs a pass, so a run makes several passes
DOMAIN = {
    # command: (domain size at (p, n), the CLI_RUNS entry's (p, n))
    "enumerate": (lambda p, n: (p - 1) ** n, (3, 4)),  # diagonals in the census
    "unique": (lambda p, n: (p - 1) ** n, (3, 6)),  # diagonals audited
    "lemma21": (lambda p, n: (p - 1) ** (n + 1), (5, 4)),  # cases checked
    "lemma22": (lambda p, n: p**n, (5, 5)),  # cases checked
    "lbound": (lambda p, n: (p - 1) ** n, (3, 4)),  # top census, n = n-max
}
HYPOTHESIS = {"lemma21": lambda p, n: n >= p - 1, "lemma22": lambda p, n: n >= p}


def _cells(primes, sizes, cmd: Optional[str] = None) -> list[tuple[int, int]]:
    cells = [(p, n) for p in primes for n in sizes]
    if cmd is not None:
        size, ref = DOMAIN[cmd]
        holds = HYPOTHESIS.get(cmd, lambda p, n: True)
        cells = [c for c in cells if size(*c) <= size(*ref) and holds(*c)]
    return cells


def cli_mix(rng: random.Random, smoke: bool) -> list[Job]:
    """An equal job count for each of the 14 subcommands, CLI_RUNS included."""
    units = [[job(argv)] for argv in CLI_RUNS]
    primes = PRIMES[:3] if smoke else PRIMES
    sizes = DIAG_SIZES[:2] if smoke else DIAG_SIZES
    count = 1 if smoke else PER_COMMAND

    def spread(cells: list) -> list:
        return [cells[k % len(cells)] for k in range(count)]

    def diag(p: int, n: int) -> str:
        return diag_text(p, _random_diag(rng, p, n))

    diag_cells = spread(_cells(primes, sizes))
    for p, n in diag_cells:
        units.append([job(["signature", "--diag", diag(p, n)])])
        units.append([_normalize(rng, p, n)])
        units.append([job(["axioms", "--diag", diag(p, n)])])
        units.append([job(["transfer", "--diag", diag(p, n),
                           "--q", str(_other_prime(rng, p))])])
        qs = sorted(rng.sample(PRIMES, rng.randrange(1, len(PRIMES) + 1)))
        units.append([job(["charset", "--diag", diag(p, n),
                           "--primes", ",".join(map(str, qs))])])
    # a canonical pair is two jobs
    for p, n in diag_cells[: (count + 1) // 2]:
        units.append(_canonical_pair(rng, p, n))
    for cmd in ("enumerate", "unique", "lemma21", "lemma22"):
        for p, n in spread(_cells(primes, sizes, cmd)):
            units.append([job([cmd, "--p", str(p), "--n", str(n)])])
    for p, n in spread(_cells(primes, sizes, "lbound")):
        units.append([job(["lbound", "--p", str(p), "--primes", "2,3,5,7",
                           "--n-max", str(n)])])
    # detcheck samples random matrices: at most the acceptance run's 500
    for p, n in spread(_cells(primes, sizes)):
        units.append([job(["detcheck", "--p", str(p), "--n-max", str(n),
                           "--samples", str(rng.randrange(1, 501)),
                           "--seed", str(rng.randrange(1000))])])
    # the constructions need an odd p, and prop43's inverse entries are powers
    # of 2, so q is odd too; half the jobs also reduce mod q
    odd = [q for q in primes if q > 2]
    for construction in ("prop41", "prop43"):
        for p in spread(odd):
            argv = ["construct", construction, "--p", str(p)]
            if rng.random() < 0.5:
                argv += ["--q", str(rng.choice(odd))]
            units.append([job(argv)])
    return _shuffled(rng, units)


def _shuffled(rng: random.Random, units: list[list[Job]]) -> list[Job]:
    """Shuffle units of jobs; a canonical pair stays in order, side by side."""
    rng.shuffle(units)
    return [j for unit in units for j in unit]


def orbits(rng: random.Random, smoke: bool) -> list[Job]:
    """Census, threshold experiment and canonical forms: swaps, closures, orbits."""
    if smoke:
        fixed = [["enumerate", "--p", "5", "--n", "4"],
                 ["lbound", "--p", "3", "--primes", "2,3,5,7", "--n-max", "4"]]
        cells = [(5, 4)]
    else:
        fixed = [
            ["enumerate", "--p", "7", "--n", "6"],
            ["enumerate", "--p", "11", "--n", "4"],
            ["lbound", "--p", "7", "--primes", "2,3,5,7,11", "--n-max", "6"],
            ["lbound", "--p", "5", "--primes", "2,3,5,7,11", "--n-max", "5"],
        ]
        # many n=5 queries, so the median latency is that of a typical
        # interactive canonical query rather than of one seeded outlier
        cells = [(5, 5)] * 8 + [(7, 5)] * 8 + [(5, 6), (7, 6)]
    units = [[job(argv)] for argv in fixed]
    units += [_canonical_pair(rng, p, n) for p, n in cells]
    return _shuffled(rng, units)


def sweeps(rng: random.Random, smoke: bool) -> list[Job]:
    """Signature-map audits and exhaustive lemma sweeps; no swaps at all.

    The inputs do not depend on the seed, only their order does.
    """
    if smoke:
        fixed = [["unique", "--p", "3", "--n", "6"], ["lemma21", "--p", "5", "--n", "4"],
                 ["lemma22", "--p", "5", "--n", "5"]]
    else:
        fixed = [
            ["unique", "--p", "5", "--n", "8"],
            ["unique", "--p", "7", "--n", "7"],
            ["lemma21", "--p", "7", "--n", "6"],
            ["lemma22", "--p", "5", "--n", "8"],
        ]
    return _shuffled(rng, [[job(argv)] for argv in fixed])


def certify(rng: random.Random, smoke: bool) -> list[Job]:
    """Characteristic certificates at large n: few fact propagations, each big."""
    primes = "2,3,5,7,11,13"
    units = []
    for p in ((5,) if smoke else (11, 13)):
        units.append([job(["construct", "prop43", "--p", str(p)])])
        units.append([job(["charset", "--diag", diag_text(p, prop43_diag(p)),
                           "--primes", primes], only_own_prime=True)])
    cells = [(3, 6)] if smoke else [(3, 8), (3, 9), (3, 10), (5, 8), (7, 8)]
    for p, n in cells:
        units.append([job(["charset", "--diag", diag_text(p, _random_diag(rng, p, n)),
                           "--primes", primes])])
    # short transfer jobs, three per (p, n) cell, set the workload's median latency
    for p in ((3,) if smoke else (3, 5, 7)):
        for n in ((6,) if smoke else (9, 10, 11, 12)):
            for _ in range(1 if smoke else 3):
                d = diag_text(p, _random_diag(rng, p, n))
                units.append([job(["transfer", "--diag", d, "--q", str(_other_prime(rng, p))])])
    return _shuffled(rng, units)


WORKLOADS = {"cli-mix": cli_mix, "orbits": orbits, "sweeps": sweeps, "certify": certify}


def build(name: str, seed: int, smoke: bool = False) -> list[Job]:
    """The workload's job list; the same name, seed and mode give the same list."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), smoke)


def describe(jobs: list[Job]) -> dict:
    """Job count per subcommand and the distinct sizes, for the run record."""
    out: dict[str, dict] = {}
    for j in jobs:
        entry = out.setdefault(j.argv[0], {"jobs": 0, "sizes": set()})
        entry["jobs"] += 1
        if "--diag" in j.argv:
            p, x = _parse(j.argv[j.argv.index("--diag") + 1])
            entry["sizes"].add(f"p={p} n={len(x)}")
        else:
            entry["sizes"].add(" ".join(j.argv[1:]))
    return {k: {"jobs": v["jobs"], "sizes": sorted(v["sizes"])} for k, v in sorted(out.items())}
