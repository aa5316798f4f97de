"""Seeded request generators for the three benchmark workloads.

Nothing here imports lowrank: the generators build every input from
plain ints and Fractions, so the program under test only ever sees the
generated requests.

Each workload draws its job list from a fixed pool.  The pool is built
from POOL_SEED and split into strata (request type, ring size, expected
outcome); a run's --seed picks, in every stratum, the same number of
requests and then shuffles the whole list.  So two seeds give different
inputs of nearly the same cost, and every pool entry has a stdout digest
recorded in reference.json, which is what the checker compares against.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

POOL_SEED = 1312_6612
POOL_FACTOR = 3  # pool entries per job-list slot, in every stratum

# The eight coefficient relations of a rank-3 table, in the order the
# package reports them.  Each expression must vanish in the base ring.
RELATIONS = (
    ("cm = 0", lambda b, c, m, n, y, z: c * m),
    ("cn = 0", lambda b, c, m, n, y, z: c * n),
    ("ny = 0", lambda b, c, m, n, y, z: n * y),
    ("my = 0", lambda b, c, m, n, y, z: m * y),
    ("bm = mn", lambda b, c, m, n, y, z: b * m - m * n),
    ("mn = nz", lambda b, c, m, n, y, z: m * n - n * z),
    ("n^2 = bn", lambda b, c, m, n, y, z: n * n - b * n),
    ("m^2 = mz", lambda b, c, m, n, y, z: m * m - m * z),
)

CENSUS_PRIMES = (5, 7, 11)


@dataclass(frozen=True)
class Request:
    """One job.  `argv` goes to lowrank.cli.main; `pair` instead names a
    brute-force isomorphism test (p, rank, tuple_a, tuple_b), which the
    command line has no subcommand for.  `expect` is the exit code the
    request class must produce; `violations` lists the relation names a
    refused tuple must report."""

    rtype: str
    cls: str
    expect: int
    argv: tuple = ()
    pair: tuple = ()
    violations: tuple = ()

    def key(self) -> str:
        return json.dumps([self.rtype, self.cls, list(self.argv), list(self.pair)])


# -- scalar helpers -----------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        p = rng.randint(lo, hi)
        if _is_prime(p):
            return p


# ring buckets: (label, kind, prime range); F_p spans about 10 to 10^4
RING_BUCKETS = (
    ("Z", "Z", None),
    ("Q", "Q", None),
    ("Fs", "Fp", (11, 97)),
    ("Fm", "Fp", (101, 997)),
    ("Fl", "Fp", (1009, 9973)),
)


class Ring:
    """A base ring as the generator sees it: a JSON spec and a reducer."""

    def __init__(self, kind: str, p: int | None = None):
        self.kind = kind
        self.p = p

    def spec(self) -> dict:
        return {"kind": "Fp", "p": self.p} if self.kind == "Fp" else {"kind": self.kind}

    def spec_arg(self) -> str:
        return json.dumps(self.spec(), separators=(",", ":"))

    def reduce(self, v):
        return v % self.p if self.kind == "Fp" else v

    def is_zero(self, v) -> bool:
        return self.reduce(v) == 0

    def random(self, rng: random.Random, nonzero: bool = False):
        while True:
            if self.kind == "Z":
                v = rng.randint(-10**12, 10**12)
            elif self.kind == "Q":
                v = Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**4))
            else:
                v = rng.randrange(self.p)
            if not (nonzero and self.is_zero(v)):
                return v

    def text(self, v) -> str:
        return str(self.reduce(v))


def _ring_for(bucket: str, rng: random.Random) -> Ring:
    """A ring from a bucket label: Z, Q, Fs/Fm/Fl (random prime in the
    bucket's range) or F<p> (that prime)."""
    for label, kind, span in RING_BUCKETS:
        if label == bucket:
            return Ring(kind, _random_prime(rng, *span) if span else None)
    return Ring("Fp", int(bucket[1:]))


def violated_relations(ring: Ring, vals) -> list:
    return [name for name, expr in RELATIONS if not ring.is_zero(expr(*vals))]


# -- rank-3 tuples and tables -------------------------------------------------


def _commutative(ring, rng):
    b, c, y, z = (ring.random(rng) for _ in range(4))
    return (b, c, 0, 0, y, z)


def _exceptional(ring, rng):
    m, n = ring.random(rng), ring.random(rng, nonzero=True)
    if rng.random() < 0.5:
        m, n = n, m
    return (n, 0, m, n, 0, m)


def _valid(ring, rng):
    return (_commutative if rng.random() < 0.5 else _exceptional)(ring, rng)


def _violating(ring, rng):
    """A valid tuple with one or two coordinates replaced, so that at
    least one relation fails."""
    while True:
        base = list(_exceptional(ring, rng) if rng.random() < 0.5 else _commutative(ring, rng))
        for idx in rng.sample(range(6), rng.choice((1, 2))):
            base[idx] = ring.random(rng, nonzero=True)
        vals = tuple(base)
        if violated_relations(ring, vals):
            return vals


def _coeff_json(ring, vals) -> str:
    return json.dumps({k: ring.text(v) for k, v in zip("bcmnyz", vals)}, sort_keys=True)


def _table(ring, vals):
    """The structure constants that `cubic build` emits for a tuple; the
    formula is applied to violating tuples as well, which gives unital
    tables that fail associativity."""
    b, c, m, n, y, z = vals
    rows = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [-(c * z), b, c], [c * y, 0, 0]],
        [[0, 0, 1], [c * y - b * m, m, n], [-(b * y), y, z]],
    ]
    return {
        "ring": ring.spec(),
        "rank": 3,
        "table": [[[ring.text(v) for v in cell] for cell in row] for row in rows],
    }


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# -- certify: single-table requests -------------------------------------------

CUBIC_VALID = {
    "build": _valid,
    "involution": _exceptional,
    "witness": _exceptional,
    "matrix-rep": _valid,
    "form": _commutative,
}


def _cubic_request(cmd):
    def make(ring, rng, cls):
        if cls == "violation":
            vals = _violating(ring, rng)
            return Request(
                f"cubic {cmd}",
                cls,
                1,
                argv=("cubic", cmd, _coeff_json(ring, vals), "--ring", ring.spec_arg()),
                violations=tuple(violated_relations(ring, vals)),
            )
        vals = CUBIC_VALID[cmd](ring, rng)
        return Request(
            f"cubic {cmd}", cls, 0,
            argv=("cubic", cmd, _coeff_json(ring, vals), "--ring", ring.spec_arg()),
        )

    return make


def _cubic_verify(ring, rng, cls):
    # "invalid" tuples are answered with valid=false and exit 0
    if cls == "invalid":
        vals = _violating(ring, rng)
    else:
        vals = _valid(ring, rng)
    return Request(
        "cubic verify", cls, 0,
        argv=("cubic", "verify", _coeff_json(ring, vals), "--ring", ring.spec_arg()),
    )


def _form(ring, rng):
    return {k: ring.text(ring.random(rng)) for k in "abcd"}


def _form_disc(ring, rng, cls):
    return Request(
        "form disc", cls, 0,
        argv=("form", "disc", _dump(_form(ring, rng)), "--ring", ring.spec_arg()),
    )


def _unit_matrix(ring, rng):
    if ring.kind == "Z":
        while True:
            a, b = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
            g = gcd(a, b)
            if g:
                a, b = a // g, b // g
                break
        # extended Euclid: a*u + b*v = 1, so [[a, b], [-v, u]] has det 1
        old_r, r, old_u, u, old_v, v = a, b, 1, 0, 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_u, u = u, old_u - q * u
            old_v, v = v, old_v - q * v
        if old_r < 0:
            old_u, old_v = -old_u, -old_v
        return [[a, b], [-old_v, old_u]]
    while True:
        g = [[ring.random(rng) for _ in range(2)] for _ in range(2)]
        if not ring.is_zero(g[0][0] * g[1][1] - g[0][1] * g[1][0]):
            return g


def _form_act(ring, rng, cls):
    if cls == "refusal":  # singular matrix: NotAUnit, exit 1
        a, b = ring.random(rng), ring.random(rng)
        k = ring.random(rng)
        g = [[a, b], [a * k, b * k]]
        expect = 1
    else:
        g = _unit_matrix(ring, rng)
        expect = 0
    payload = {"g": [[ring.text(v) for v in row] for row in g], "form": _form(ring, rng)}
    return Request(
        "form act", cls, expect,
        argv=("form", "act", _dump(payload), "--ring", ring.spec_arg()),
    )


def _valid_or_broken(ring, rng, cls):
    if cls == "nonassoc":
        return _violating(ring, rng)
    return _valid(ring, rng)


def _alg_assoc(ring, rng, cls):
    table = _table(ring, _valid_or_broken(ring, rng, cls))
    return Request("alg assoc", cls, 0, argv=("alg", "assoc", _dump(table)))


def _alg_charpoly(ring, rng, cls):
    table = _table(ring, _valid_or_broken(ring, rng, cls))
    table["element"] = [ring.text(ring.random(rng)) for _ in range(3)]
    return Request("alg charpoly", cls, 0, argv=("alg", "charpoly", _dump(table)))


def _alg_degree(ring, rng, cls):
    """Largest minimal-polynomial degree, found by running min_poly over
    up to p^3 elements; tiny fields only."""
    vals = _exceptional(ring, rng) if cls == "exceptional" else _commutative(ring, rng)
    return Request("alg degree", cls, 0, argv=("alg", "degree", _dump(_table(ring, vals))))


def _inv_find(ring, rng, cls):
    vals = _exceptional(ring, rng) if cls == "exceptional" else _commutative(ring, rng)
    return Request("inv find", cls, 0, argv=("inv", "find", _dump(_table(ring, vals))))


def _inv_verify(ring, rng, cls):
    if cls == "exceptional":
        b, c, m, n, y, z = vals = _exceptional(ring, rng)
        images = [[1, 0, 0], [n, -1, 0], [m, 0, -1]]
    else:
        b, c, m, n, y, z = vals = _commutative(ring, rng)
        images = [[1, 0, 0], [b, -1, 0], [z, 0, -1]]
    payload = _table(ring, vals)
    payload["images"] = [[ring.text(v) for v in row] for row in images]
    return Request("inv verify", cls, 0, argv=("inv", "verify", _dump(payload)))


def _quad(ring, t, n):
    return {"ring": ring.spec(), "t": ring.text(t), "n": ring.text(n)}


def _quad_disc(ring, rng, cls):
    payload = _quad(ring, ring.random(rng), ring.random(rng))
    return Request("quad disc", cls, 0, argv=("quad", "disc", _dump(payload)))


def same_square_class(p: int, pair_a, pair_b) -> bool:
    """Whether two rank-2 algebras (t, n) over F_p, p odd, are isomorphic:
    their discriminants differ by a nonzero square (Euler's criterion)."""
    da, db = ((t * t - 4 * n) % p for t, n in (pair_a, pair_b))
    if da == 0 or db == 0:
        return da == db
    return pow(da * db, (p - 1) // 2, p) == 1


def _quad_iso(ring, rng, cls):
    t, n = ring.random(rng), ring.random(rng)
    d = t * t - 4 * n
    if cls == "noniso" and ring.kind == "Fp":
        # a full scan of the units: the costliest request of the workload
        while True:
            t2, n2 = ring.random(rng), ring.random(rng)
            if not same_square_class(ring.p, (t, n), (t2, n2)):
                break
    elif cls == "iso":
        # B has discriminant d * u^2 and the parity of t over Z
        if ring.kind == "Z":
            t2 = t + 2 * rng.randint(-10**6, 10**6)
            n2 = (t2 * t2 - d) // 4
        else:
            u = ring.random(rng, nonzero=True)
            t2 = ring.random(rng)
            n2 = (t2 * t2 - d * u * u) * (Fraction(1, 4) if ring.kind == "Q" else pow(4, -1, ring.p))
    else:
        t2, n2 = ring.random(rng), ring.random(rng)
    payload = {"ring": ring.spec(), "A": _quad(ring, t, n), "B": _quad(ring, t2, n2)}
    del payload["A"]["ring"], payload["B"]["ring"]
    return Request("quad iso", cls, 0, argv=("quad", "iso", _dump(payload)))


def _quad_split(ring, rng, cls):
    if cls == "refusal":  # not (1, 0): WrongCase, exit 1
        t, n = ring.random(rng, nonzero=True), ring.random(rng, nonzero=True)
        return Request("quad split", cls, 1, argv=("quad", "split", _dump(_quad(ring, t, n))))
    return Request("quad split", cls, 0, argv=("quad", "split", _dump(_quad(ring, 1, 0))))


def _malformed(kind):
    def make(ring, rng, cls):
        vals = _commutative(ring, rng)
        coeffs = json.loads(_coeff_json(ring, vals))
        if kind == "json":
            argv = ("cubic", "build", _coeff_json(ring, vals)[:-3], "--ring", ring.spec_arg())
        elif kind == "missing-key":
            del coeffs["z"]
            argv = ("cubic", "verify", _dump(coeffs), "--ring", ring.spec_arg())
        elif kind == "bad-element":
            payload = _quad(ring, 1, 1)
            payload["t"] = payload["t"] + "x"
            argv = ("quad", "disc", _dump(payload))
        elif kind == "no-ring":
            argv = ("form", "disc", _dump(_form(ring, rng)))
        else:  # composite modulus
            argv = ("cubic", "build", _dump(coeffs), "--ring", '{"kind":"Fp","p":%d}' % (2 * rng.randint(6, 5000)))
        return Request(f"malformed {kind}", "malformed", 2, argv=argv)

    return make


def _strata(maker, per_ring: dict, buckets=tuple(b[0] for b in RING_BUCKETS)):
    """Strata for one request type: per_ring maps a class to the count
    per ring bucket in one job list."""
    return [(maker, bucket, cls, count) for bucket in buckets for cls, count in per_ring.items()]


def certify_strata():
    s = []
    s += _strata(_cubic_request("build"), {"ok": 16, "violation": 4})
    s += _strata(_cubic_verify, {"ok": 15, "invalid": 5})
    for cmd in ("involution", "witness", "matrix-rep"):
        s += _strata(_cubic_request(cmd), {"ok": 13, "violation": 3})
    s += _strata(_cubic_request("form"), {"ok": 11, "violation": 3})
    s += _strata(_form_disc, {"ok": 12})
    s += _strata(_form_act, {"ok": 12, "refusal": 2})
    s += _strata(_alg_assoc, {"ok": 16, "nonassoc": 4})
    s += _strata(_alg_charpoly, {"ok": 16, "nonassoc": 4})
    s += _strata(_alg_degree, {"exceptional": 5, "commutative": 5}, buckets=("F2", "F3"))
    s += _strata(_inv_find, {"exceptional": 8, "commutative": 8})
    s += _strata(_inv_verify, {"exceptional": 8, "commutative": 8})
    s += _strata(_quad_disc, {"ok": 8})
    s += _strata(_quad_iso, {"iso": 7, "noniso": 7}, buckets=("Z", "Q", "Fs", "Fm"))
    # F_p near 10^4 pins the tail: 24 full unit scans of about 45 ms are
    # the slowest requests, and the 99th percentile (12 of 1200 above it)
    # falls in the middle of them
    s += _strata(_quad_iso, {"noniso": 24}, buckets=("F9973",))
    s += _strata(_quad_split, {"ok": 8, "refusal": 2})
    for kind in ("json", "missing-key", "bad-element", "no-ring", "modulus"):
        s += _strata(_malformed(kind), {"malformed": 2}, buckets=("Fs",))
    return s


# -- iso: brute-force isomorphism ---------------------------------------------


def _pair_rank3(p):
    """Pairs of valid rank-3 tuples over F_p, uniform over all p^4 + p^2 - 1."""
    ring = Ring("Fp", p)
    valid = [t for t in itertools.product(range(p), repeat=6) if not violated_relations(ring, t)]

    def make(ring, rng, cls):
        return Request(f"iso rank3 F{p}", cls, 0, pair=(p, 3, rng.choice(valid), rng.choice(valid)))

    return make


def _pair_rank2(ring, rng, cls):
    """Two rank-2 algebras over the stratum's F_p; class "noniso" keeps
    only pairs the search must scan in full, about p^2 maps."""
    p = ring.p
    while True:
        a = (rng.randrange(p), rng.randrange(p))
        b = (rng.randrange(p), rng.randrange(p))
        if cls != "noniso" or not same_square_class(p, a, b):
            return Request("iso rank2 Fp", cls, 0, pair=(p, 2, a, b))


def _census(cmd, p):
    def make(ring, rng, cls):
        return Request(f"census {cmd} p={p}", cls, 0, argv=("census", cmd, "--p", str(p)))
    return make


def iso_strata():
    s = [(_census("exceptional", p), "F5", "ok", 1) for p in (3, 5)]
    s += [(_census("quad", p), "F5", "ok", 1) for p in (11, 13)]
    s.append((_pair_rank3(5), "F5", "ok", 600))
    # rank 2: one pair for each p from 11 to 79, and 24 full scans at
    # p = 113.  Those sit just below the three slowest census jobs and
    # hold the 99th percentile (6.5 requests of 646 lie above it), so
    # its value does not hinge on which pairs a seed draws.
    for p in (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79):
        s.append((_pair_rank2, f"F{p}", "any", 1))
    s.append((_pair_rank2, "F113", "noniso", 24))
    return s


def census_strata():
    return [(_census("cubic", p), "F5", "ok", 1) for p in CENSUS_PRIMES]


STRATA = {"census": census_strata, "iso": iso_strata, "certify": certify_strata}


# -- pools and job lists ------------------------------------------------------


def build_pool(workload: str):
    """Every request the workload can draw, as a list of strata, each a
    list of requests; fixed by POOL_SEED alone."""
    pool = []
    for idx, (maker, bucket, cls, count) in enumerate(STRATA[workload]()):
        rng = random.Random(f"{POOL_SEED}:{workload}:{idx}")
        size = count * POOL_FACTOR
        entries = []
        for _ in range(size):
            entries.append(maker(_ring_for(bucket, rng), rng, cls))
        pool.append((count, entries))
    return pool


def pool_fingerprint(pool) -> str:
    h = hashlib.sha256()
    for _, entries in pool:
        for req in entries:
            h.update(req.key().encode())
    return h.hexdigest()


def job_list(pool, seed: int):
    """The run's jobs: `count` draws from each stratum, then shuffled.
    Returns (pool index, request) pairs; the index finds the digest."""
    rng = random.Random(f"jobs:{seed}")
    jobs = []
    offset = 0
    for count, entries in pool:
        for i in sorted(rng.sample(range(len(entries)), count)):
            jobs.append((offset + i, entries[i]))
        offset += len(entries)
    rng.shuffle(jobs)
    return jobs


def flat_pool(pool):
    return [req for _, entries in pool for req in entries]
