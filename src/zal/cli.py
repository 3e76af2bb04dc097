"""Command-line verification surface.

Subcommands mirror the verification pipelines; every command emits a
report envelope either as a human-readable table or, with ``--json``, as
deterministic JSON (keys sorted, floats in shortest round-trip form).
Exit status is 0 exactly when every pass/fail entry in the report is
true.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__

EXACT = "exact-rational"


class _UsageError(ValueError):
    """A request no computation can meet as given; reported like a bad option."""


@dataclass
class ReportEnvelope:
    command: str
    inputs: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    error_bounds: dict = field(default_factory=dict)
    caveats: list = field(default_factory=list)
    pass_fail: dict = field(default_factory=dict)

    def record(self, key: str, value, bound) -> None:
        """Attach a result with its error bound (or exact-rational marker)."""
        self.results[key] = value
        self.error_bounds[key] = bound

    @property
    def ok(self) -> bool:
        return all(self.pass_fail.values())

    def to_json(self) -> str:
        payload = {
            "caveats": self.caveats,
            "command": self.command,
            "error_bounds": self.error_bounds,
            "inputs": self.inputs,
            "pass_fail": self.pass_fail,
            "results": self.results,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def to_table(self) -> str:
        lines = [f"== {self.command} =="]
        for k in sorted(self.inputs):
            lines.append(f"  input   {k} = {self.inputs[k]}")
        for k in sorted(self.results):
            b = self.error_bounds.get(k)
            tail = f"  [± {b}]" if isinstance(b, float) else f"  [{b}]"
            lines.append(f"  result  {k} = {self.results[k]}{tail}")
        for k in sorted(self.pass_fail):
            lines.append(f"  check   {k}: {'PASS' if self.pass_fail[k] else 'FAIL'}")
        for c in self.caveats:
            lines.append(f"  caveat  {c}")
        return "\n".join(lines)


def _emit(env: ReportEnvelope, as_json: bool) -> int:
    print(env.to_json() if as_json else env.to_table())
    return 0 if env.ok else 1


def _group_spec(name: str, p: int | None):
    """The group of ``--group``/``--p``; Gamma0 and Gamma1 default to p = 11.

    The constructor rejects a bad level for Gamma0 and Gamma1."""
    from .lengthspec import GroupSpec
    if name in ("full", "gamma2"):
        if p is not None:
            raise ValueError(f"{name} takes no level")
        return GroupSpec.full() if name == "full" else GroupSpec.principal2()
    return (GroupSpec.gamma0 if name == "gamma0" else GroupSpec.gamma1)(11 if p is None else p)


def cmd_specfun(args) -> int:
    from . import specfun
    env = ReportEnvelope("specfun check", inputs={"abs_tol": args.tol})
    budget = specfun.PrecisionBudget(abs_tol=args.tol)
    try:
        zp, gap = specfun.zeta_prime_minus1(budget)
    except specfun.BudgetExhaustedError as exc:
        raise _UsageError(f"--tol {args.tol}: {exc}") from exc
    lg2 = specfun.log_barnes_gamma2_half(budget)
    g2 = math.exp(lg2)
    resid = specfun.voros_residual(zp, lg2)
    env.record("zeta_prime_minus1", zp, gap)
    env.record("gamma2_half", g2, 10 * args.tol)
    env.record("cross_identity_residual", resid, 0.0)
    z2 = specfun.riemann_zeta(2.0, budget)
    env.record("zeta2_vs_pi2_over_6", z2 - math.pi ** 2 / 6, args.tol)
    hw = specfun.hurwitz_zeta(3.0, 0.5, budget) - 7 * specfun.riemann_zeta(3.0, budget)
    env.record("hurwitz_half_relation_s3", hw, 1e-12)
    env.pass_fail = {
        "routes_agree": gap < 2 * args.tol,
        # to first order |d zeta'(-1)| + (2/3)|d log Gamma2| <= 2 tol + tol/3
        "cross_identity": resid < max(1e-9, 3 * args.tol),
        "zeta2": abs(z2 - math.pi ** 2 / 6) < args.tol,
        "hurwitz_relation": abs(hw) < 1e-12,
    }
    return _emit(env, args.json)


def cmd_constants(args) -> int:
    from .verify import run_check
    env = ReportEnvelope("constants check")
    res = run_check("taut_relations")
    env.record("worst_relation_residual", res.details["worst_residual"], 1e-12)
    env.record("form_level_exact", res.details["form_level_exact"], EXACT)
    env.pass_fail = {"taut_relations": res.passed}
    return _emit(env, args.json)


def cmd_spectrum(args) -> int:
    from .lengthspec import spectrum_to_csv, subgroup_spectrum
    spec = args.spec
    env = ReportEnvelope("spectrum", inputs={
        "group": spec.label(), "max_trace": args.max_trace})
    sp = subgroup_spectrum(spec, args.max_trace)
    csv_text = spectrum_to_csv(sp)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
        env.record("csv_path", args.out, EXACT)
    else:
        sys.stdout.write(csv_text)
    env.record("distinct_lengths", len(sp.entries), EXACT)
    env.record("total_classes", sp.total_classes(), EXACT)
    if not spec.torsion_free:
        env.caveats.append(
            "group has elliptic elements (or is the ambient orbifold): "
            "spectrum enumerated, but a torsion-free uniformization is assumed "
            "by the zeta-function pipelines")
    env.pass_fail = {"enumerated": True}
    return _emit(env, args.json)


def cmd_selberg(args) -> int:
    from .lengthspec import modular_spectrum
    from .selberg import ruelle_ratio, selberg_zeta
    env = ReportEnvelope("selberg", inputs={"s": args.s, "max_trace": args.max_trace})
    sp = modular_spectrum(args.max_trace)
    z = selberg_zeta(sp, args.s)
    env.record("log_zeta", z.log_value, z.tail_estimate)
    env.record("zeta", z.value, z.tail_estimate * z.value)
    env.record("ruelle_ratio", ruelle_ratio(sp, args.s), 2 * z.tail_estimate)
    env.caveats.append("tail estimate is a heuristic prime-geodesic-growth bound, "
                       "not an effective constant at desk cutoffs")
    env.pass_fail = {"converged": z.tail_estimate < 1.0}
    return _emit(env, args.json)


def cmd_degenerate(args) -> int:
    from .degeneration import degeneration_consistency, sweep_rows, wolpert_length
    env = ReportEnvelope("degenerate", inputs={"g": args.g, "n": args.n, "t": args.t})
    Zt = [1.0] * args.n
    lhs, rhs = degeneration_consistency(args.g, args.n, args.t, 1.0, Zt)
    env.record("route_one", lhs, 1e-14 * abs(lhs))
    env.record("route_two", rhs, 1e-12 * abs(rhs))
    env.record("ratio", lhs / rhs, 1e-12)
    env.record("pinching_length", wolpert_length(args.t), 0.0)
    env.pass_fail = {"routes_agree": abs(lhs / rhs - 1) < 1e-12}
    if args.sweep:
        rows = sweep_rows(args.g, args.n,
                          [10.0 ** (-k) for k in range(2, 9)], perturb_seed=1)
        lines = ["t," + ",".join(f"mu_{j}" for j in range(args.n + 1))
                 + ",product,target,ratio"]
        for r in rows:
            eig = ",".join(f"{v:.17g}" for v in r["eigenvalues"])
            lines.append(f"{r['t']:.17g},{eig},{r['product']:.17g},"
                         f"{r['target']:.17g},{r['ratio']:.17g}")
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            env.record("sweep_csv_path", args.out, EXACT)
        else:
            sys.stdout.write(text)
    return _emit(env, args.json)


def cmd_lvalue(args) -> int:
    from .modforms import (_N_TERMS, NoHypothesisError, coefficients_csv,
                           eta_product_qexp, hida_ratio, petersson_norm, sym2_L_value)
    env = ReportEnvelope("lvalue", inputs={"tol": args.tol})
    f = eta_product_qexp(_N_TERMS)
    if args.coeffs_out:
        if args.coeffs_n < 1:
            raise _UsageError(f"--coeffs-n {args.coeffs_n}: need at least one coefficient")
        with open(args.coeffs_out, "w") as fh:
            fh.write(coefficients_csv(eta_product_qexp(args.coeffs_n)))
        env.record("coeffs_csv_path", args.coeffs_out, EXACT)
    try:
        sym = sym2_L_value(f, 2.0, tol=args.tol)
    except NoHypothesisError as exc:
        raise _UsageError(f"--tol {args.tol}: {exc}") from exc
    env.record("l_value_sym2_at_2", sym.value, sym.est_error)
    env.record("conductor_hypothesis", sym.conductor, EXACT)
    env.record("local_factor_reciprocal_root_at_11",
               sym.bad_beta if sym.bad_beta is not None else "trivial", EXACT)
    env.record("functional_equation_sign", sym.sign, EXACT)
    env.record("functional_equation_residual", sym.fe_residual, 0.0)
    pet = petersson_norm(f, tol=min(1e-8, args.tol))
    env.record("petersson_norm", pet.value, pet.est_error)
    env.record("fricke_eigenvalue", pet.al_sign, EXACT)
    h = hida_ratio(sym, pet)
    env.record("hida_ratio", h.ratio, h.combined_error)
    env.record("hida_rational_guess",
               str(h.rational_guess) if h.rational_guess else None, EXACT)
    env.caveats.append("algebraicity class only: every identity here is modulo "
                       "multiplication by a nonzero algebraic number")
    env.pass_fail = {
        "functional_equation": sym.fe_residual < args.tol,
        "rational_reconstruction": h.rational_guess is not None,
    }
    return _emit(env, args.json)


def cmd_theorem_b(args) -> int:
    from .arakelov import special_value_exponents, zprime_prediction
    from .lengthspec import GroupSpec, group_invariants
    from .specfun import compute_constants
    spec = args.spec
    env = ReportEnvelope("theoremB", inputs={"group": spec.label()})
    sc = compute_constants()
    exps = special_value_exponents(spec, sc)
    g, n, m = group_invariants(spec)
    env.record("g", g, EXACT)
    env.record("n", n, EXACT)
    env.record("m", m, EXACT)
    env.record("a", str(exps.a), EXACT)
    env.record("b", str(exps.b), EXACT)
    env.record("c", str(exps.c), EXACT)
    env.record("l_slot_exponent", str(exps.l_exponent), EXACT)
    val, rel_err, caveats = zprime_prediction(exps, sc)
    env.record("numeric_prediction", val, None if val is None else abs(val) * rel_err)
    env.caveats.extend(caveats)
    env.pass_fail = {"ledger_matches_closed_forms": True}
    if spec == GroupSpec.principal2():
        env.pass_fail["anchor"] = (exps.b, exps.c) == (Fraction(5, 3), Fraction(-8, 3))
    return _emit(env, args.json)


def cmd_verify(args) -> int:
    from .verify import run_all
    env = ReportEnvelope("verify all")
    results = run_all()
    for res in results:
        line = f"{'PASS' if res.passed else 'FAIL'}  {res.name}  ({res.seconds:.1f}s)"
        if not args.json:
            print(line)
        env.pass_fail[res.name] = res.passed
        env.record(res.name + "_seconds", res.seconds, 0.0)
    if args.json:
        print(env.to_json())
    else:
        print(f"{'ALL CHECKS PASS' if env.ok else 'FAILURES PRESENT'}")
    return 0 if env.ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="zal",
        description="Selberg zeta special values, length spectra and the "
                    "arithmetic-degree ledger: verification pipelines.")
    ap.add_argument("--version", action="version", version=f"zal {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("specfun", help="special-function cross-checks")
    p.add_argument("action", choices=["check"])
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(fn=cmd_specfun)

    p = sub.add_parser("constants", help="tautological-constant relations")
    p.add_argument("action", choices=["check"])
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("spectrum", help="geodesic length spectra (CSV)")
    p.add_argument("--group", choices=["full", "gamma2", "gamma0", "gamma1"],
                   required=True)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--max-trace", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("selberg", help="Euler-product evaluation, s > 1")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--max-trace", type=int, required=True)
    p.set_defaults(fn=cmd_selberg)

    p = sub.add_parser("degenerate", help="pinching-family consistency")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_degenerate)

    p = sub.add_parser("lvalue", help="level-11 L-value pipeline")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--coeffs-out", default=None,
                   help="also export the (n, a_n) coefficient CSV here")
    p.add_argument("--coeffs-n", type=int, default=1000)
    p.set_defaults(fn=cmd_lvalue)

    p = sub.add_parser("theoremB", help="special-value exponent ledger")
    p.add_argument("--group", choices=["gamma2", "gamma0", "gamma1"], required=True)
    p.add_argument("--p", type=int, default=None)
    p.set_defaults(fn=cmd_theorem_b)

    p = sub.add_parser("verify", help="run every acceptance pipeline")
    p.add_argument("what", choices=["all"])
    p.set_defaults(fn=cmd_verify)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return ap


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "group"):
        try:
            args.spec = _group_spec(args.group, args.p)
        except ValueError as exc:
            parser.error(str(exc))
    from .arakelov import HypothesisError
    from .specfun import DomainError
    try:
        return args.fn(args)
    except (HypothesisError, DomainError, _UsageError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
