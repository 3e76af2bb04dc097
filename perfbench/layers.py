"""Metric definitions: end-to-end metrics, per-layer metrics and the layer map.

``BENCHMARK.json`` admits only name, unit and direction for each metric,
so the prediction for each layer (which end-to-end metric it should move,
on which workload, and where it should stay flat) lives here, in
``LAYER_MAP``.  Later changes cite these names.
"""

from __future__ import annotations

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "op_p50_s": ("s", "lower"),
    "op_tail_s": ("s", "lower"),
}

# Public functions wrapped by the tracer: (module, function).  Each gets a
# span per call; its busy time is reported as "<module>.<function>.s".
TIMED = (
    ("modforms", "eta_product_qexp"),
    ("modforms", "sym2_L_value"),
    ("modforms", "point_count_ap"),
    ("arakelov", "predict_zprime"),
    ("arakelov", "special_value_exponents"),
    ("lengthspec", "modular_spectrum"),
    ("lengthspec", "subgroup_spectrum"),
    ("lengthspec", "spectrum_to_csv"),
    ("oracles", "word_class_counts"),
    ("oracles", "bruteforce_subgroup_counts"),
    ("selberg", "selberg_zeta"),
    ("selberg", "ruelle_ratio"),
    ("specfun", "compute_constants"),
    ("verify", "run_check"),
)

# Modules timed as a whole: every public function below is wrapped and the
# busy time of the outermost call is reported as "<module>.s".
MODULE_GROUPS = {
    "tautconst": ("const_C", "const_E"),
    "degeneration": ("star_graph_uniform", "star_graph_perturbed", "matrix_B",
                     "graph_spectrum", "closed_form_B_spectrum", "burger_product",
                     "laplacian_small_eigenvalues", "degeneration_consistency"),
}

# Layers whose time includes nested wrapped calls also report self time.
SELF_TIMED = ("arakelov.predict_zprime", "selberg.ruelle_ratio", "verify.run_check")

# Layers whose call count is what a caching or sharing change would move.
CALL_COUNTED = ("modforms.sym2_L_value", "lengthspec.modular_spectrum",
                "lengthspec.subgroup_spectrum")

# Work counters and numerical diagnostics: name -> (unit, better).
COUNTERS = {
    "modforms.sym2.hypotheses_scored": ("count", "lower"),
    "modforms.sym2.useful_ratio": ("ratio", "higher"),
    "modforms.sym2.fe_residual": ("1", "lower"),
    "modforms.primes_counted": ("count", "higher"),
    "lengthspec.classes": ("count", "higher"),
    "lengthspec.classes_per_s": ("1/s", "higher"),
    "oracles.classes_confirmed": ("count", "higher"),
    "selberg.local_factors": ("count", "lower"),
}

# Accounting of the traced pass itself.
TRACE = {
    "trace.wall_s": ("s", "lower"),
    "trace.self_sum_s": ("s", "lower"),
    "trace.unaccounted_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "bench.glue.s": ("s", "lower"),
}


def timed_layer(module: str, function: str) -> str:
    return f"{module}.{function}"


def per_layer() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in emission order."""
    out: dict[str, tuple[str, str]] = {}
    for module, function in TIMED:
        out[f"{timed_layer(module, function)}.s"] = ("s", "lower")
    for module in MODULE_GROUPS:
        out[f"{module}.s"] = ("s", "lower")
    for layer in SELF_TIMED:
        out[f"{layer}.self_s"] = ("s", "lower")
    for layer in CALL_COUNTED:
        out[f"{layer}.calls"] = ("count", "lower")
    out.update(COUNTERS)
    out.update(TRACE)
    return out


# layer metric -> (end-to-end metrics it should move, workload where it
# moves, workloads where the prediction is no change)
LAYER_MAP = {
    "modforms.sym2_L_value.s": (("wall_s",), "crosscheck", ("spectrum",)),
    "modforms.sym2_L_value.calls": (("wall_s",), "crosscheck", ("spectrum",)),
    "modforms.sym2.hypotheses_scored": (("wall_s",), "crosscheck", ("spectrum",)),
    "modforms.sym2.useful_ratio": (("wall_s",), "crosscheck", ("spectrum",)),
    "modforms.sym2.fe_residual": (("wall_s",), "crosscheck", ("spectrum",)),
    "arakelov.predict_zprime.s": (("wall_s",), "crosscheck", ("spectrum",)),
    "modforms.point_count_ap.s": (("wall_s", "op_tail_s"), "crosscheck", ("spectrum",)),
    "modforms.primes_counted": (("wall_s", "op_tail_s"), "crosscheck", ("spectrum",)),
    "modforms.eta_product_qexp.s": (("wall_s", "op_tail_s"), "crosscheck", ("spectrum",)),
    "lengthspec.modular_spectrum.s": (("wall_s", "op_tail_s", "cpu_s"), "spectrum", ()),
    "lengthspec.subgroup_spectrum.s": (("wall_s", "op_tail_s", "cpu_s"), "spectrum", ()),
    "lengthspec.classes": (("wall_s",), "spectrum", ()),
    "lengthspec.classes_per_s": (("wall_s", "op_tail_s"), "spectrum", ()),
    "oracles.bruteforce_subgroup_counts.s": (("op_tail_s", "wall_s"), "crosscheck",
                                             ("spectrum",)),
    "oracles.word_class_counts.s": (("op_tail_s", "wall_s"), "crosscheck", ("spectrum",)),
    "oracles.classes_confirmed": (("op_tail_s", "wall_s"), "crosscheck", ("spectrum",)),
    "selberg.selberg_zeta.s": (("op_p50_s",), "spectrum", ("crosscheck",)),
    "selberg.ruelle_ratio.s": (("op_p50_s",), "spectrum", ("crosscheck",)),
    "selberg.local_factors": (("op_p50_s",), "spectrum", ("crosscheck",)),
    "specfun.compute_constants.s": (("wall_s",), "crosscheck", ("spectrum",)),
    "tautconst.s": (("wall_s",), "crosscheck", ("spectrum",)),
    "degeneration.s": (("wall_s",), "crosscheck", ("spectrum",)),
    "arakelov.special_value_exponents.s": (("wall_s",), "crosscheck", ("spectrum",)),
    "verify.run_check.s": (("wall_s",), "crosscheck", ("spectrum",)),
}
