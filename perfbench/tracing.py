"""Span recorder that wraps zal's public functions from outside.

``Tracer.install`` replaces module attributes (``zal.modforms.sym2_L_value``
and so on) with wrappers that record one span per call: name, start, end,
parent span and the operation it belongs to.  Calls made inside zal go
through the same module attributes, so nested layers (the exponent ledger
inside ``predict_zprime``) become child spans.  Spans stay in
memory until the pass ends.  An untraced pass installs nothing.
"""

from __future__ import annotations

import functools
import importlib
import time

from layers import CALL_COUNTED, MODULE_GROUPS, SELF_TIMED, TIMED, timed_layer


# counters that hold the latest value instead of a running sum
GAUGES = ("modforms.sym2.fe_residual",)


def _counter_hooks() -> dict:
    """Per-layer work counters read off a call's arguments and result."""
    def sym2(args, kwargs, res):
        return {"modforms.sym2.hypotheses_scored": res.rejected + 1,
                "modforms.sym2.useful": 1,
                "modforms.sym2.fe_residual": res.fe_residual}

    def spectrum(args, kwargs, res):
        return {"lengthspec.classes": res.total_classes()}

    def oracle(args, kwargs, res):
        return {"oracles.classes_confirmed": sum(res.values())}

    return {
        "modforms.sym2_L_value": sym2,
        "modforms.point_count_ap": lambda a, k, r: {"modforms.primes_counted": 1},
        "lengthspec.modular_spectrum": spectrum,
        "lengthspec.subgroup_spectrum": spectrum,
        "oracles.word_class_counts": oracle,
        "oracles.bruteforce_subgroup_counts": oracle,
        "selberg.selberg_zeta": lambda a, k, r: {"selberg.local_factors": len(a[0].entries)},
    }


def _busy_key(name: str) -> str:
    """The layer a span's time is booked to: its module for module groups."""
    module = name.split(".")[0]
    return module if module in MODULE_GROUPS else name


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, start, end, op)
        self.counters: dict[str, float] = {}
        self.op: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._installed: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _begin(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _end(self, sid: int, parent, name: str, t0: float) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, name, t0, t1, self.op))

    def wrap(self, fn, name: str, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._begin()
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                self._end(sid, parent, name, t0)
            if hook is not None:
                for key, v in hook(args, kwargs, res).items():
                    self.counters[key] = v if key in GAUGES else self.counters.get(key, 0) + v
            return res
        return traced

    def op_span(self, index: int, kind: str):
        """Root span of one operation; every zal call inside it is a child."""
        tracer = self

        class _Span:
            def __enter__(self):
                tracer.op = index
                self.sid, self.parent = tracer._begin()
                self.t0 = time.perf_counter()

            def __exit__(self, *exc):
                tracer._end(self.sid, self.parent, f"op.{kind}", self.t0)
                return False

        return _Span()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        hooks = _counter_hooks()
        targets = [(m, f, timed_layer(m, f)) for m, f in TIMED]
        targets += [(m, f, f"{m}.{f}") for m, fs in MODULE_GROUPS.items() for f in fs]
        for module_name, fn_name, name in targets:
            module = importlib.import_module(f"zal.{module_name}")
            orig = getattr(module, fn_name)
            setattr(module, fn_name, self.wrap(orig, name, hooks.get(name)))
            self._installed.append((module, fn_name, orig))

    def uninstall(self) -> None:
        for module, fn_name, orig in reversed(self._installed):
            setattr(module, fn_name, orig)
        self._installed.clear()

    # -- analysis ----------------------------------------------------------

    def layer_metrics(self, wall_s: float, overhead_per_span: float) -> dict[str, float]:
        """Busy time, self time, calls and counters per layer for one pass.

        Busy time counts only the outermost span of each name, so a
        recursive or repeated layer is not counted twice; self time is a
        span's duration minus the time its child spans cover.
        """
        by_id = {s[0]: s for s in self.spans}
        child_time: dict[int, float] = {}
        for sid, parent, name, t0, t1, _ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        busy: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for sid, parent, name, t0, t1, _ in self.spans:
            dur = t1 - t0
            self_s[name] = self_s.get(name, 0.0) + dur - child_time.get(sid, 0.0)
            calls[name] = calls.get(name, 0) + 1
            key = _busy_key(name)
            ancestor = parent
            while ancestor is not None and _busy_key(by_id[ancestor][2]) != key:
                ancestor = by_id[ancestor][1]
            if ancestor is None:
                busy[key] = busy.get(key, 0.0) + dur

        out: dict[str, float] = {}
        for module, function in TIMED:
            out[f"{timed_layer(module, function)}.s"] = busy.get(timed_layer(module, function), 0.0)
        for module in MODULE_GROUPS:
            out[f"{module}.s"] = busy.get(module, 0.0)
        for layer in SELF_TIMED:
            out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        for layer in CALL_COUNTED:
            out[f"{layer}.calls"] = calls.get(layer, 0)

        c = self.counters
        scored = c.get("modforms.sym2.hypotheses_scored", 0)
        lengthspec_s = (busy.get("lengthspec.modular_spectrum", 0.0)
                        + busy.get("lengthspec.subgroup_spectrum", 0.0))
        classes = c.get("lengthspec.classes", 0)
        out["modforms.sym2.hypotheses_scored"] = scored
        out["modforms.sym2.useful_ratio"] = (c.get("modforms.sym2.useful", 0) / scored
                                             if scored else 0.0)
        out["modforms.sym2.fe_residual"] = c.get("modforms.sym2.fe_residual", 0.0)
        out["modforms.primes_counted"] = c.get("modforms.primes_counted", 0)
        out["lengthspec.classes"] = classes
        out["lengthspec.classes_per_s"] = classes / lengthspec_s if lengthspec_s else 0.0
        out["oracles.classes_confirmed"] = c.get("oracles.classes_confirmed", 0)
        out["selberg.local_factors"] = c.get("selberg.local_factors", 0)

        op_total = sum(t1 - t0 for _, parent, _, t0, t1, _ in self.spans if parent is None)
        out["trace.wall_s"] = wall_s
        out["trace.self_sum_s"] = sum(self_s.values())
        out["trace.unaccounted_s"] = wall_s - op_total
        out["trace.overhead_s"] = overhead_per_span * len(self.spans)
        out["trace.spans"] = len(self.spans)
        out["bench.glue.s"] = sum(v for k, v in self_s.items() if k.startswith("op."))
        return out

    def dump(self) -> list[dict]:
        return [{"id": sid, "parent": parent, "name": name, "start": t0, "end": t1, "op": op}
                for sid, parent, name, t0, t1, op in self.spans]


def span_cost(calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op function."""
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap(noop, "calibration")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - t0
    return max(traced - bare, 0.0) / calls
