"""One timed pass of a workload in a fresh interpreter.

    python3 perfbench/onepass.py --workload spectrum --seed 3 --trace 0 --gate 1

Imports zal from the checkout's ``src``, runs the workload's operation
list once (timed, with a host-speed probe before and after every
operation), then, outside the timed region, runs the correctness gate and
its negative controls when asked.  Prints one JSON object: pass timings,
per-operation wall and CPU times, probe times and outputs, the output
digest, the gate verdicts, the environment and, when traced, the
per-layer metrics.
``run.py`` starts one such process per pass, so every pass starts cold
and no cache survives from one pass into the next.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import workloads
from tracing import Tracer, span_cost

SRC = Path(__file__).resolve().parent.parent / "src"
REF_PROBE_S = 1.5e-3
MODULES = ("arakelov", "lengthspec", "modforms", "oracles", "selberg", "specfun", "verify")


def load_zal(src: Path = SRC) -> SimpleNamespace:
    """Import zal the way `zal <cmd>` does and return its modules by name."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.import_module("zal.cli")
    return SimpleNamespace(**{m: importlib.import_module(f"zal.{m}") for m in MODULES})


def digest(outputs: list) -> str:
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def host_probe(reps: int = 3) -> float:
    """Best of a few runs of a fixed pure-Python loop: the host's current speed.

    It takes about ``REF_PROBE_S`` on an undisturbed host and runs no zal
    code, so a change to zal cannot move it.
    """
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def run_pass(mods, ops: list[dict], trace: bool = False, gate: bool = False) -> dict:
    """Run the operations once; time them; gate them afterwards if asked."""
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    ctx: dict = {}
    outputs, errors, payloads, op_seconds, op_cpu = [], [], [], [], []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    probes = [host_probe()]
    probing = time.perf_counter() - start
    for i, op in enumerate(ops):
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.op_span(i, op["kind"]):
                    out, payload = workloads.run_op(mods, op, ctx)
            else:
                out, payload = workloads.run_op(mods, op, ctx)
            err = None
        except Exception as exc:  # a raising operation is a failed operation
            out, payload, err = None, None, f"{type(exc).__name__}: {exc}"
        op_seconds.append(time.perf_counter() - t0)
        op_cpu.append(time.process_time() - c0)
        outputs.append(out)
        payloads.append(payload)
        errors.append(err)
        t0 = time.perf_counter()
        probes.append(host_probe())
        probing += time.perf_counter() - t0
    wall = time.perf_counter() - start - probing
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "op_seconds": op_seconds,
        "op_cpu_s": op_cpu,
        "probe_s": probes,
        "outputs": outputs,
        "errors": errors,
        "digest": digest([outputs, errors]),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(wall, span_cost())
        result["spans"] = tracer.dump()
    if gate:
        t0 = time.perf_counter()
        result["gate"] = run_gate(mods, ops, outputs, payloads)
        result["gate_s"] = time.perf_counter() - t0
    return result


def run_gate(mods, ops, outputs, payloads) -> list[dict | None]:
    """Per operation: contract violations, and whether a perturbed output is caught."""
    cache: dict = {}
    verdicts: list[dict | None] = []
    for op, out, payload in zip(ops, outputs, payloads):
        if out is None:
            verdicts.append(None)
            continue
        oracle = workloads.gate_oracle(mods, op, payload, cache)
        verdicts.append({
            "problems": workloads.gate_problems(op, out, oracle),
            "control_caught": bool(workloads.gate_problems(
                op, workloads.perturb(op, out), oracle)),
        })
    return verdicts


def _openblas() -> dict:
    """OpenBLAS build string and thread count of the library numpy loaded."""
    import numpy as np
    info = {"config": None, "threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return info
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    info = {"config": get_config().decode(), "threads": get_threads(),
                            "library": os.path.basename(path)}
                    return info
    info["numpy_blas"] = str(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    return info


def environment() -> dict:
    import numpy
    import scipy
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "ZAL_THREADS": os.environ.get("ZAL_THREADS"),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--gate", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default=None,
                    help="write the traced pass's spans here as JSON lines")
    args = ap.parse_args(argv)
    ops = workloads.make_ops(args.workload, args.seed)
    mods = load_zal()
    result = run_pass(mods, ops, trace=bool(args.trace), gate=bool(args.gate))
    spans = result.pop("spans", None)
    if spans is not None and args.spans_out:
        with open(args.spans_out, "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
