#!/usr/bin/env python3
"""End-to-end level-11 report: coefficients, Petersson norm, L-value, ratio.

    python scripts/lvalue_report.py --tol 1e-6 --json report.json
"""

import argparse
import json
import math

from zal.modforms import eta_product_qexp, hida_ratio, petersson_norm, sym2_L_value


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--tol", type=float, default=1e-6)
    ap.add_argument("--json", default=None)
    args = ap.parse_args()

    f = eta_product_qexp(8000)
    sym = sym2_L_value(f, 2.0, tol=args.tol, n_terms=8000)
    pet = petersson_norm(f, tol=min(1e-8, args.tol))
    hid = hida_ratio(sym, pet)
    payload = {
        "conductor_hypothesis": sym.conductor,
        "fricke_eigenvalue": pet.al_sign,
        "functional_equation_residual": sym.fe_residual,
        "functional_equation_sign": sym.sign,
        "hida_combined_error": hid.combined_error,
        "hida_rational_guess": str(hid.rational_guess) if hid.rational_guess else None,
        "hida_ratio": hid.ratio,
        "l_value_error": sym.est_error,
        "l_value_sym2_at_2": sym.value,
        "local_factor_reciprocal_root_at_11": sym.bad_beta,
        "petersson_error": pet.est_error,
        "petersson_norm": pet.value,
        "pi_cubed_times_petersson": math.pi ** 3 * pet.value,
    }
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.json}")
    else:
        print(text)


if __name__ == "__main__":
    main()
