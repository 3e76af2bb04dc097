"""zal benchmark: time to a verified answer on two workloads.

    python3 perfbench/run.py --workload spectrum|crosscheck \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; zal is imported from ``src`` there.  One
closed-loop client in one process at a time: the seeded operation list of
the workload (see ``workloads.py``) is one pass, and passes run back to
back, each in a fresh interpreter (``onepass.py``), as long as one more
pass of the mean length fits in ``--seconds`` of pass time (at least one
pass).  The first pass is then checked by the correctness gate and its
negative controls, later passes must reproduce its outputs exactly, and
with the default seed every output is compared with the stored reference
in ``reference/``.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` counts
operations over all passes and ``failed`` those that raised or failed a
check (the ``ops_failed`` of the design).  With ``--trace 0`` the metrics
are the end-to-end ones:

- ``setup_s``: fresh interpreter to ``zal.cli`` and ``zal.verify``
  imported, median of probes made one before each pass (at least nine);
- ``wall_s`` and ``cpu_s``: wall and user+system CPU time of one pass,
  each operation taken at its fastest over the run's passes;
- ``peak_rss_mb``: peak resident memory of a pass process, median over
  passes;
- ``op_p50_s`` and ``op_tail_s``: percentiles of the operations' fastest
  latencies; the tail is the highest percentile with at least ten
  operations beyond it, named in the detail line.

Times are in reference-host seconds.  The benchmark runs on a few cores
of a shared host whose speed drifts: a fixed loop takes up to 1.7 times
as long for minutes at a time, with little steal time, and the import,
zal's pure-Python enumeration and its numpy kernels all slow with it.
So a fixed pure-Python loop that runs no zal code (``onepass.host_probe``)
is timed before and after every operation and around every set-up probe,
and each time is scaled by ``REF_PROBE_S`` over the mean of the two probe
times around it: the time the operation would take on the host
undisturbed.  Each operation is then taken at its fastest pass.  The
detail line holds the unscaled figures (``raw``) and the probe times.

With ``--trace 1`` the metrics are the per-layer ones from ``layers.py``,
taken from the fastest traced pass, whose spans go to ``perfbench/out``.
The line before the result holds the details: environment, percentile
used, passes, problems found.

    python3 perfbench/run.py --workload spectrum --write-reference

re-creates ``reference/spectrum.json`` from one gated pass with the default
seed.  The benchmark's own tests: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import workloads  # noqa: E402
from onepass import REF_PROBE_S, host_probe  # noqa: E402

# One closed-loop client on a 2-vCPU share: OpenBLAS's second thread saves
# the Sym^2 kernel no wall time but spins on the other vCPU, where the
# host's load reaches it; a caller may still set another count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

SETUP_PROBES = 9
PASS_TIMEOUT_S = 170
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "import zal.cli, zal.verify; print(repr(time.time()))")


def setup_probe() -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to zal.cli and zal.verify
    imported: (scaled to the reference host, as measured)."""
    before = host_probe()
    t0 = time.time()
    res = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                         capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{res.stderr}")
    raw = float(res.stdout.strip()) - t0
    return raw * 2.0 * REF_PROBE_S / (before + host_probe()), raw


def run_pass(workload: str, seed: int, trace: bool, gate: bool,
             spans_out: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "onepass.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--gate", str(int(gate))]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"pass process failed:\n{res.stderr}")
    result = json.loads(res.stdout.strip().splitlines()[-1])
    result["process_s"] = time.perf_counter() - t0
    return result


def fits_another(passes: list[dict], seconds: float) -> bool:
    """Whether one more pass of the mean length so far still fits in seconds.

    A pass's length is its process's lifetime less the time its gate took.
    """
    spent = [p["process_s"] - p.get("gate_s", 0.0) for p in passes]
    return sum(spent) + statistics.mean(spent) <= seconds


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it, else 100."""
    fits = [q for q in TAIL_LADDER if n * (100.0 - q) >= 1000.0 - 1e-6]
    return max(fits) if fits else 100.0


def best_per_op(passes: list[dict], key: str, scaled: bool = True) -> list[float]:
    """Each operation's smallest time over the passes, in reference-host
    seconds unless ``scaled`` is false."""
    def scale(p: dict, i: int) -> float:
        probe = 0.5 * (p["probe_s"][i] + p["probe_s"][i + 1])
        return REF_PROBE_S / probe if scaled else 1.0

    return [min(p[key][i] * scale(p, i) for p in passes)
            for i in range(len(passes[0][key]))]


def end_to_end_metrics(setup: list[float], passes: list[dict], tail_q: float) -> dict:
    """End-to-end metrics with units; see the module docstring."""
    best = best_per_op(passes, "op_seconds")
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(best),
        "cpu_s": sum(best_per_op(passes, "op_cpu_s")),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "op_p50_s": percentile(best, 50.0),
        "op_tail_s": percentile(best, tail_q),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _) in layers.END_TO_END.items()}


def pass_scale(p: dict) -> float:
    """Reference-host seconds per measured second over a whole pass."""
    return REF_PROBE_S / statistics.median(p["probe_s"])


def layer_metrics(passes: list[dict]) -> dict:
    """Per-layer metrics of the fastest traced pass, with units; times and
    rates are scaled to the reference host like the end-to-end times."""
    best = min(passes, key=lambda p: p["wall_s"] * pass_scale(p))
    scale = {"s": pass_scale(best), "1/s": 1.0 / pass_scale(best)}
    return {name: {"value": best["layers"][name] * scale.get(unit, 1.0), "unit": unit}
            for name, (unit, _) in layers.per_layer().items()}


def count_failures(ops: list[dict], passes: list[dict], reference: dict | None):
    """(failed operations, negative controls all caught, problem strings)."""
    first = passes[0]
    problems: list[str] = []
    failed = 0
    for k, p in enumerate(passes):
        for i, err in enumerate(p["errors"]):
            if err is not None:
                failed += 1
                problems.append(f"pass {k} op {i} raised {err}")
            elif k and first["errors"][i] is None and p["outputs"][i] != first["outputs"][i]:
                failed += 1
                problems.append(f"pass {k} op {i} output differs from pass 0")
    controls_ok = True
    for i, verdict in enumerate(first["gate"]):
        if verdict is None:
            continue
        if verdict["problems"]:
            failed += 1
            problems += [f"op {i} ({ops[i]['kind']}): {m}" for m in verdict["problems"]]
        if not verdict["control_caught"]:
            controls_ok = False
            problems.append(f"op {i} ({ops[i]['kind']}): gate accepted a perturbed output")
    if reference is not None:
        if reference["ops"] != ops:
            failed += 1
            problems.append("operation list differs from the stored reference")
        else:
            for i, (want, got) in enumerate(zip(reference["outputs"], first["outputs"])):
                if got is None:
                    continue
                diffs = workloads.reference_problems(want, got)
                if diffs:
                    failed += 1
                    problems += [f"op {i} ({ops[i]['kind']}): {m}" for m in diffs]
    return failed, controls_ok, problems


def load_reference(workload: str, seed: int) -> dict | None:
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        return None
    ref = json.loads(path.read_text())
    return ref if ref["seed"] == seed else None


def write_reference(workload: str) -> int:
    seed = workloads.DEFAULT_SEED
    ops = workloads.make_ops(workload, seed)
    first = run_pass(workload, seed, trace=False, gate=True, spans_out=None)
    failed, controls_ok, problems = count_failures(ops, [first], None)
    if failed or not controls_ok:
        print("\n".join(problems), file=sys.stderr)
        return 1
    REFERENCE.mkdir(exist_ok=True)
    outputs = [{"exact": o["exact"], "approx": o["approx"]} for o in first["outputs"]]

    def rows(items: list) -> str:  # one operation per line keeps diffs readable
        return ",\n  ".join(json.dumps(x, sort_keys=True) for x in items)

    text = (f'{{"workload": {json.dumps(workload)}, "seed": {seed},\n'
            f' "ops": [\n  {rows(ops)}],\n "outputs": [\n  {rows(outputs)}]}}\n')
    (REFERENCE / f"{workload}.json").write_text(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="zal benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store the default seed's outputs in reference/")
    args = ap.parse_args(argv)
    if not (SRC / "zal" / "__init__.py").is_file():
        print(f"perfbench: no zal sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference(args.workload)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ops = workloads.make_ops(args.workload, args.seed)
    setup: list[tuple[float, float]] = []
    passes: list[dict] = []
    while not passes or fits_another(passes, args.seconds):
        if not args.trace:
            setup.append(setup_probe())
        spans_out = OUT / f"{stem}.pass{len(passes)}.spans.jsonl" if args.trace else None
        passes.append(run_pass(args.workload, args.seed, bool(args.trace),
                               gate=not passes, spans_out=spans_out))
    while not args.trace and len(setup) < SETUP_PROBES:
        setup.append(setup_probe())
    if args.trace:  # keep the spans of the pass the metrics come from
        best = min(range(len(passes)), key=lambda k: passes[k]["wall_s"] * pass_scale(passes[k]))
        for k in range(len(passes)):
            path = OUT / f"{stem}.pass{k}.spans.jsonl"
            if k == best:
                path.replace(OUT / f"{stem}.spans.jsonl")
            else:
                path.unlink()

    reference = load_reference(args.workload, args.seed)
    failed, controls_ok, problems = count_failures(ops, passes, reference)
    tail_q = tail_percentile(len(ops))
    if args.trace:
        metrics = layer_metrics(passes)
    else:
        metrics = end_to_end_metrics([scaled for scaled, _ in setup], passes, tail_q)

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "ops_per_pass": len(ops),
        "op_tail_percentile": tail_q, "ops_failed": failed,
        "negative_controls_caught": controls_ok,
        "reference_checked": reference is not None,
        "digest": passes[0]["digest"],
        "raw": {"setup_s": statistics.median(raw for _, raw in setup) if setup else None,
                "wall_s": sum(best_per_op(passes, "op_seconds", scaled=False)),
                "cpu_s": sum(best_per_op(passes, "op_cpu_s", scaled=False)),
                "pass_wall_s": [p["wall_s"] for p in passes],
                "pass_cpu_s": [p["cpu_s"] for p in passes]},
        "probe_median_s": [statistics.median(p["probe_s"]) for p in passes],
        "setup_samples_s": setup,
        "problems": problems[:20], "env": passes[0]["env"],
    }
    record = dict(details, ops=ops, pass_results=[
        {k: v for k, v in p.items() if k != "env"} for p in passes])
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"perfbench": details}))
    print(json.dumps({"correct": failed == 0 and controls_ok,
                      "attempted": len(ops) * len(passes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
