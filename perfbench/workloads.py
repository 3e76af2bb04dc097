"""The two workloads: seeded operation lists, the operations, and their gate.

An operation list is a pure function of (workload, seed) and names only
plain inputs (group, trace cutoff, s, entry bound, primes); ``zal`` sees
nothing but those inputs.  Each operation calls ``zal`` through module
attributes (``mods.lengthspec.modular_spectrum``), the way a script or the
CLI does, so the tracer can wrap those attributes from outside.

Operation lists are stratified so that their total cost barely depends on
the seed: every spectrum pass visits every group once per trace band, and
every crosscheck pass makes the same number of comparisons of each kind,
each drawn from a narrow band (a few per cent of its cutoff or bound), so
that run-to-run spread measures zal and the host, not the draw.  The seed
moves the exact cutoffs, entry bounds, prime windows, s values, the Sym^2
truncation and the order.

Each operation returns an output ``{"exact": ..., "approx": ..., "info": ...}``:
``exact`` must match byte for byte across runs and against the stored
reference; each ``approx`` entry is ``[value, bound]`` and must agree
within the larger of the two bounds; ``info`` holds diagnostics that enter
the output digest but are not compared with the reference.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import random

WORKLOADS = ("spectrum", "crosscheck")
DEFAULT_SEED = 0

PRIMES = (11, 13, 17, 19, 23, 29, 31)

# trace bands (low, high) per group family; one request per band per group
SPECTRUM_BANDS = {
    "full": ((40, 42), (126, 130), (458, 466)),
    "gamma2": ((40, 42), (82, 84), (126, 130)),
    "gamma0": ((40, 42), (66, 68), (98, 102)),
    "gamma1": ((16, 16), (24, 25), (34, 35)),
}
SPECTRUM_S = (1.25, 3.0)

# Brute-force comparisons: (group, p) -> ((T_lo, T_hi), (B_lo, B_hi)).
# The oracle finds every class of trace <= T_hi once B >= B_lo (checked
# at (T_hi, B_lo)), and more traces or a larger bound cannot lose classes,
# so every seeded (T, B) in these ranges must agree exactly.
BRUTEFORCE = {
    ("gamma2", None): ((20, 20), (40, 41)),
    ("gamma0", 11): ((20, 20), (80, 82)),
    ("gamma0", 17): ((20, 20), (120, 122)),
    ("gamma0", 23): ((20, 20), (120, 122)),
    ("gamma0", 31): ((20, 20), (220, 224)),
    ("gamma1", 11): ((12, 12), (400, 406)),
    ("gamma1", 13): ((14, 14), (400, 406)),
}
BRUTEFORCE_PER_GROUP = 3
# one word-oracle comparison per trace band
WORD_BANDS = tuple((t, t + 1) for t in range(12, 40, 3))
# point-count windows: consecutive primes from a seeded start in each band,
# closed once sum(ell^2) reaches the budget, so every window costs about
# the same in the exhaustive O(ell^2) loop
POINTCOUNT_STARTS = ((100, 110), (400, 410), (700, 710))
POINTCOUNT_BUDGET = 3_000_000
CHECKS = ("voros_identity", "taut_relations", "small_length_asymptotic",
          "graph_spectrum_burger", "degeneration_consistency", "exponent_ledger")

# Spectrum gate: the oracle compares the low-trace prefix t <= T0.  The
# full group uses the R/L word oracle; subgroups use brute force with an
# entry bound B at which the prefix is complete.  Gamma1(p) for p >= 17 has
# no class below trace p - 2, where brute force would need B in the
# thousands; its prefix is empty on both sides and the gate also checks
# that every trace is congruent to +-2 mod p.
WORD_PREFIX = 30
BRUTE_PREFIX = {
    ("gamma2", None): (14, 40),
    ("gamma0", 11): (14, 80), ("gamma0", 13): (14, 80),
    ("gamma0", 17): (14, 120), ("gamma0", 19): (14, 120),
    ("gamma0", 23): (14, 200), ("gamma0", 29): (14, 200), ("gamma0", 31): (14, 200),
    ("gamma1", 11): (12, 400), ("gamma1", 13): (14, 400),
}
for _p in PRIMES[2:]:
    BRUTE_PREFIX[("gamma1", _p)] = (14, 20)

# The level-11 comparison: the Sym^2 hypothesis search at a seeded
# truncation, then `zal theoremB --group gamma0 --p 11` with that L-value
# supplied.  The answers must be those `zal lvalue` and `zal theoremB` give
# for Gamma0(11).  The winner's cutoff-independence residual swings by an
# order of magnitude with the truncation and crosses tol below about 3000
# terms; on 3850..3950 it stays at most 2.5e-7, and the narrow range keeps
# the cost of a pass nearly independent of the seed.
SYM2_TOL = 1e-6
SYM2_TERMS = (3850, 3950)
LEVEL11_EXPONENTS = ("0", "-2/3", "-16/3")
# primes at which the q-expansion is checked against point counting
ETA_CHECK_PRIMES = (2, 3, 5, 7, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def make_ops(workload: str, seed: int) -> list[dict]:
    """The operation list of one pass; the same (workload, seed) gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "spectrum":
        groups = [("full", None), ("gamma2", None)]
        groups += [("gamma0", p) for p in PRIMES] + [("gamma1", p) for p in PRIMES]
        ops = []
        for group, p in groups:
            for lo, hi in SPECTRUM_BANDS[group]:
                ops.append({"kind": "spectrum", "group": group, "p": p,
                            "max_trace": rng.randint(lo, hi),
                            "s": round(rng.uniform(*SPECTRUM_S), 6)})
        rng.shuffle(ops)
        return ops
    if workload == "crosscheck":
        ops = [{"kind": "words", "max_trace": rng.randint(*band)} for band in WORD_BANDS]
        for (group, p), (t_range, b_range) in BRUTEFORCE.items():
            for _ in range(BRUTEFORCE_PER_GROUP):
                ops.append({"kind": "bruteforce", "group": group, "p": p,
                            "max_trace": rng.randint(*t_range),
                            "entry_bound": rng.randint(*b_range)})
        for band in POINTCOUNT_STARTS:
            ell = rng.randint(*band)
            primes, cost = [], 0
            while cost < POINTCOUNT_BUDGET:
                if ell != 11 and _is_prime(ell):
                    primes.append(ell)
                    cost += ell * ell
                ell += 1
            ops.append({"kind": "pointcount", "primes": primes})
        ops.append({"kind": "sym2", "n_terms": rng.randint(*SYM2_TERMS)})
        ops += [{"kind": "check", "name": name} for name in CHECKS]
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# operations


def _group(mods, group: str, p):
    GroupSpec = mods.lengthspec.GroupSpec
    if group == "full":
        return GroupSpec.full()
    if group == "gamma2":
        return GroupSpec.principal2()
    return getattr(GroupSpec, group)(p)


def _spectrum(mods, spec, max_trace: int):
    if spec.kind.value == "full":
        return mods.lengthspec.modular_spectrum(max_trace)
    return mods.lengthspec.subgroup_spectrum(spec, max_trace)


def _counts(spectrum, max_trace: int | None = None) -> list[list[int]]:
    return [[e.trace, e.multiplicity] for e in spectrum.entries
            if max_trace is None or e.trace <= max_trace]


def _output(exact=None, approx=None, info=None) -> dict:
    return {"exact": exact or {}, "approx": approx or {}, "info": info or {}}


def run_op(mods, op: dict, ctx: dict):
    """Execute one operation; return (output, gate payload kept in memory)."""
    kind = op["kind"]
    if kind == "sym2":
        # the Sym^2 hypothesis search, then `zal theoremB --group gamma0
        # --p 11` with the L-value it found
        n = op["n_terms"]
        f = mods.modforms.eta_product_qexp(n)
        sym = mods.modforms.sym2_L_value(f, 2.0, tol=SYM2_TOL, n_terms=n)
        spec = _group(mods, "gamma0", 11)
        sc = mods.specfun.compute_constants()
        exps = mods.arakelov.special_value_exponents(spec, sc)
        value, _ = mods.arakelov.predict_zprime(spec, sc, l_value=sym.value)
        rel = sym.est_error / sym.value
        return _output(
            exact={"conductor": sym.conductor, "bad_beta": sym.bad_beta,
                   "sign": sym.sign, "rejected": sym.rejected,
                   "a_p": {str(ell): f.a(ell) for ell in ETA_CHECK_PRIMES},
                   "exponents": [str(exps.a), str(exps.b), str(exps.c)],
                   "l_exponent": str(exps.l_exponent)},
            approx={"value": [sym.value, sym.est_error],
                    "prediction": [value, abs(value) * (rel + 1e-9)]},
            info={"fe_residual": sym.fe_residual}), None
    if kind == "spectrum":
        spec = _group(mods, op["group"], op["p"])
        sp = _spectrum(mods, spec, op["max_trace"])
        csv = mods.lengthspec.spectrum_to_csv(sp)
        z = mods.selberg.selberg_zeta(sp, op["s"])
        ruelle = mods.selberg.ruelle_ratio(sp, op["s"])
        prefix = _gate_prefix(op)[0]
        return _output(
            exact={"csv_sha256": _sha256(csv), "entries": len(sp.entries),
                   "classes": sp.total_classes(), "prefix": _counts(sp, prefix)},
            approx={"log_zeta": [z.log_value, 4e-12],
                    "log_ruelle": [math.log(ruelle), 8e-12]},
            info={"tail_estimate": z.tail_estimate}), sp
    if kind == "words":
        words = mods.oracles.word_class_counts(op["max_trace"])
        sp = mods.lengthspec.modular_spectrum(op["max_trace"])
        return _output(exact={"oracle": [[t, m] for t, m in sorted(words.items())],
                              "production": _counts(sp)}), None
    if kind == "bruteforce":
        spec = _group(mods, op["group"], op["p"])
        bf = mods.oracles.bruteforce_subgroup_counts(spec, op["max_trace"],
                                                     op["entry_bound"])
        sp = mods.lengthspec.subgroup_spectrum(spec, op["max_trace"])
        return _output(exact={"oracle": [[t, m] for t, m in sorted(bf.items())],
                              "production": _counts(sp)}), None
    if kind == "pointcount":
        primes = op["primes"]
        ap = [[ell, mods.modforms.point_count_ap(ell)] for ell in primes]
        f = mods.modforms.eta_product_qexp(primes[-1])
        return _output(exact={"point_count": ap,
                              "q_expansion": [[ell, f.a(ell)] for ell in primes]}), None
    if kind == "check":
        res = mods.verify.run_check(op["name"])
        return _output(exact={"passed": bool(res.passed)},
                       info={"details": _plain(res.details)}), None
    raise ValueError(f"unknown operation {kind!r}")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _plain(details: dict) -> dict:
    """JSON-safe copy of a check's details; odd scalars become their repr."""
    return json.loads(json.dumps(details, default=repr))


# ---------------------------------------------------------------------------
# correctness gate


def _gate_prefix(op: dict) -> tuple[int, int | None]:
    """(T0, entry bound) of the oracle prefix; bound None = word oracle."""
    if op["group"] == "full":
        return min(op["max_trace"], WORD_PREFIX), None
    t0, bound = BRUTE_PREFIX[(op["group"], op["p"])]
    return min(op["max_trace"], t0), bound


def _log_local_factor(length: float, s: float) -> float:
    """log of prod_{k>=1} (1 - e^{-(s+k) l})^2, summed until terms vanish."""
    total, k = 0.0, 1
    while True:
        x = math.exp(-(s + k) * length)
        if x < 1e-18:
            return total
        total += 2.0 * math.log1p(-x)
        k += 1


def _euler_log(counts: list[list[int]], s: float) -> float:
    """Independent Euler product: lengths recomputed from traces."""
    return sum(m * _log_local_factor(2.0 * math.acosh(t / 2.0), s) for t, m in counts)


def gate_oracle(mods, op: dict, payload, cache: dict):
    """Independent data the gate compares an output against (computed once)."""
    kind = op["kind"]
    if kind == "sym2":
        return {ell: mods.modforms.point_count_ap(ell) for ell in ETA_CHECK_PRIMES}
    if kind == "spectrum":
        t0, bound = _gate_prefix(op)
        key = (op["group"], op["p"], t0)
        if key not in cache:
            if bound is None:
                counts = mods.oracles.word_class_counts(t0)
            else:
                counts = mods.oracles.bruteforce_subgroup_counts(
                    _group(mods, op["group"], op["p"]), t0, bound)
            cache[key] = [[t, m] for t, m in sorted(counts.items())]
        full = _counts(payload)
        log_zeta = _euler_log(full, op["s"])
        return {"prefix": cache[key], "traces": [t for t, _ in full],
                "log_zeta": log_zeta,
                "log_ruelle": log_zeta - _euler_log(full, op["s"] + 1.0)}
    return None


def gate_problems(op: dict, out: dict, oracle) -> list[str]:
    """Every way the output fails its contract; empty when it is correct."""
    kind, ex, ap = op["kind"], out["exact"], out["approx"]
    bad = []
    if kind == "sym2":
        for ell, a in oracle.items():
            if ex["a_p"].get(str(ell)) != a:
                bad.append(f"a_{ell} disagrees with point counting")
        if (ex["conductor"], ex["bad_beta"], ex["sign"]) != (121, 1, 1):
            bad.append("winning hypothesis is not (121, +1, +1)")
        if ex["rejected"] != 19:
            bad.append("expected 19 rejected hypotheses")
        if not out["info"]["fe_residual"] < SYM2_TOL:
            bad.append("functional-equation residual above 1e-6")
        if tuple(ex["exponents"]) != LEVEL11_EXPONENTS or ex["l_exponent"] != "1":
            bad.append("exponent ledger differs from (0, -2/3, -16/3; L^1)")
        value = ap["prediction"][0]
        if not (math.isfinite(value) and value > 0):
            bad.append("prediction is not a positive number")
    elif kind == "spectrum":
        if ex["prefix"] != oracle["prefix"]:
            bad.append("low-trace prefix disagrees with the oracle")
        if op["group"] == "gamma1":
            p = op["p"]
            if any(t % p not in (2, p - 2) for t in oracle["traces"]):
                bad.append("a Gamma1 trace is not +-2 mod p")
        for key in ("log_zeta", "log_ruelle"):
            if abs(ap[key][0] - oracle[key]) > 1e-9:
                bad.append(f"{key} disagrees with the independent Euler product")
    elif kind in ("words", "bruteforce"):
        if ex["oracle"] != ex["production"]:
            bad.append("production counts disagree with the oracle")
    elif kind == "pointcount":
        if ex["point_count"] != ex["q_expansion"]:
            bad.append("point counts disagree with the q-expansion")
        if any(a * a > 4 * ell for ell, a in ex["point_count"]):
            bad.append("Hasse bound violated")
    elif kind == "check":
        if not ex["passed"]:
            bad.append(f"check {op['name']} failed")
    return bad


def perturb(op: dict, out: dict) -> dict:
    """A copy of the output with one answer made wrong, for the negative control."""
    bad = copy.deepcopy(out)
    kind, ex = op["kind"], bad["exact"]
    if kind == "sym2":
        ex["conductor"] = 11
    elif kind == "spectrum":
        bad["approx"]["log_zeta"][0] += 1e-6
    elif kind in ("words", "bruteforce"):
        ex["production"] = ex["production"] + [[10 ** 6, 1]]
    elif kind == "pointcount":
        ex["point_count"][0][1] += 1
    elif kind == "check":
        ex["passed"] = False
    return bad


def reference_problems(ref: dict, out: dict) -> list[str]:
    """Differences from a stored reference output beyond its error bounds."""
    bad = [f"exact field {k} differs from the reference"
           for k in ref["exact"] if ref["exact"][k] != out["exact"].get(k)]
    for k, (want, want_bound) in ref["approx"].items():
        got, got_bound = out["approx"][k]
        if abs(got - want) > max(want_bound, got_bound):
            bad.append(f"{k} differs from the reference beyond its bound")
    return bad
