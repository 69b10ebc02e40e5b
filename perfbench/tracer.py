"""Traced run of one workload: per-layer self times and exact counts.

Runs every job of the workload in this process through ``fdcalc.cli.main``,
so the handlers call the same public functions with the same inputs as the
CLI.  Each job runs twice, untraced and then traced, each after
``canonical_code.cache_clear()`` to match a fresh CLI process.

Tracing wraps, for the duration of a traced job, every public function of
the layer modules at every place a ``fdcalc`` module binds it (so both
cross-module calls and calls through a module's own globals are seen), plus
the methods in ``METHODS``.  Each call records a span (id, parent, layer,
name, binding site, start, end); a layer's self time is its spans'
durations minus their children's.  Nothing in ``src/`` is changed, and a
boundary that a later version removes simply records no calls.

Usage: python3 perfbench/tracer.py WORKLOAD INPUT_DIR SECONDS SPANS_FILE [JOB...]
Runs passes over the jobs (all of the workload's, or the named ones) until
SECONDS would be exceeded, at least one.  Prints one JSON document with each
pass's job outputs (for checking) and metrics.
"""
from __future__ import annotations

import io
import json
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from jobs import WORKLOADS, Job

LAYERS = ("iso", "generate", "prop", "series", "algebra", "gaussian", "dsl",
          "coverings", "verify")
METHODS = {"algebra": {"AlgebraSpec": ("__init__",)},
           "gaussian": {"GaussianSpec": ("__init__",)},
           "series": {"MultiSeries": ("exp", "log")}}
# Boundaries whose result size adds to a count.
SIZES = {("generate", "enumerate_closed"): "generate.classes",
         ("prop", "edge_pairings"): "prop.pairings",
         ("series", "groupoid_integral"): "series.terms",
         ("series", "MultiSeries.exp"): "series.terms",
         ("series", "MultiSeries.log"): "series.terms"}


def _size(result) -> int:
    coeffs = getattr(result, "coeffs", None)
    return len(coeffs if coeffs is not None else result)


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self):
        self.spans: list = []
        self.sizes: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, name: str, site: str):
        spans, stack, sizes = self.spans, self._stack, self.sizes
        size_key = SIZES.get((layer, name))
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, layer, name, site, start, end)
            if size_key is not None:
                sizes[size_key] += _size(result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"fdcalc.{layer}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and callable(obj)
                        and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    targets[id(obj)] = (obj, layer, name)
            for cls_name, attrs in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for attr in attrs:
                    fn = getattr(cls, attr, None) if cls else None
                    if fn is not None:
                        self._patch(cls, attr, self._wrap(
                            fn, layer, f"{cls_name}.{attr}", layer))
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("fdcalc."):
                continue
            site = mod_name.split(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None:
                    fn, layer, fn_name = hit
                    self._patch(mod, name, self._wrap(fn, layer, fn_name,
                                                      site))

    def restore(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


def _run_cli(main, argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crashing job is a failed job, not a crash here
            traceback.print_exc()
            rc = 70
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


def _argv(job: Job, inputs: Path) -> list[str]:
    return [str(inputs / a) if a in job.input_files else a for a in job.args]


def _span_metrics(spans) -> dict:
    child = Counter()
    for sid, parent, _, _, _, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    layer_self, name_self, name_total = Counter(), Counter(), Counter()
    calls, site_calls = Counter(), Counter()
    top = 0.0
    for sid, parent, layer, name, site, start, end in spans:
        dur = end - start
        own = dur - child[sid]
        layer_self[layer] += own
        name_self[layer, name] += own
        name_total[layer, name] += dur
        calls[layer, name] += 1
        calls[layer] += 1
        site_calls[site, name] += 1
        if parent is None:
            top += dur
    return {"layer_self": layer_self, "name_self": name_self,
            "name_total": name_total, "calls": calls,
            "site_calls": site_calls, "top": top}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def trace_pass(jobs, inputs: Path, spans_file: Path | None):
    """Run every job untraced, then traced.  Returns outputs and metrics."""
    from fdcalc import cli, iso
    # A fresh CLI process starts with an empty canonical-code cache.  A later
    # version without ``lru_cache`` simply reports no cache figures.
    canonical = iso.canonical_code
    clear = getattr(canonical, "cache_clear", lambda: None)
    cache_info = getattr(canonical, "cache_info", None)
    outputs, plain_wall, traced_wall = [], 0.0, 0.0
    hits = misses = peak_entries = 0
    tracer = Tracer()
    for job in jobs:
        argv = _argv(job, inputs)
        clear()
        plain_wall += _run_cli(cli.main, argv)[3]
        clear()
        tracer.install()
        try:
            rc, stdout, stderr, wall = _run_cli(cli.main, argv)
        finally:
            tracer.restore()
        if cache_info is not None:
            info = cache_info()
            hits += info.hits
            misses += info.misses
            peak_entries = max(peak_entries, info.currsize)
        traced_wall += wall
        outputs.append({"name": job.name, "returncode": rc,
                        "stdout": stdout, "stderr": stderr})
    if spans_file is not None:
        with open(spans_file, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    s = _span_metrics(tracer.spans)
    ls, calls, sizes = s["layer_self"], s["calls"], tracer.sizes
    candidates = s["site_calls"]["generate", "canonical_code"]
    amp_self = s["name_self"]["algebra", "amplitude"]
    amp_calls = calls["algebra", "amplitude"]
    metrics = {
        "iso.calls": calls["iso", "canonical_code"],
        "iso.cache_hits": hits,
        "iso.cache_misses": misses,
        "iso.cache_entries": peak_entries,
        "iso.self_s": ls["iso"],
        "iso.ms_per_miss": 1000 * _ratio(ls["iso"], misses),
        "generate.candidates": candidates,
        "generate.classes": sizes["generate.classes"],
        "generate.yield": _ratio(sizes["generate.classes"], candidates),
        "generate.self_s": ls["generate"],
        "prop.pairings": sizes["prop.pairings"],
        "prop.compose_calls": calls["prop", "compose"],
        "prop.self_s": ls["prop"],
        "series.terms": sizes["series.terms"],
        "series.self_s": ls["series"],
        "algebra.amplitude_calls": amp_calls,
        "algebra.amplitude_self_s": amp_self,
        "algebra.ms_per_amplitude": 1000 * _ratio(amp_self, amp_calls),
        "algebra.spec_builds": calls["algebra", "AlgebraSpec.__init__"],
        "algebra.spec_s": s["name_total"]["algebra", "AlgebraSpec.__init__"],
        "algebra.self_s": ls["algebra"],
        "gaussian.calls": calls["gaussian"],
        "gaussian.self_s": ls["gaussian"],
        "dsl.parse_s": sum(t for (layer, name), t in s["name_total"].items()
                           if layer == "dsl" and name.startswith("parse")),
        "coverings.self_s": ls["coverings"],
        "verify.self_s": ls["verify"],
        "trace.wall_s": traced_wall,
        "trace.unattributed_s": traced_wall - s["top"],
        "trace.overhead_frac": _ratio(traced_wall, plain_wall) - 1,
    }
    return outputs, metrics


def main(argv: list[str]) -> int:
    workload, inputs, seconds, spans_file, *names = argv
    jobs = [j for j in WORKLOADS[workload] if not names or j.name in names]
    stop_at = time.perf_counter() + float(seconds)
    passes = []
    while True:
        start = time.perf_counter()
        passes.append(trace_pass(jobs, Path(inputs),
                                 Path(spans_file) if not passes else None))
        if time.perf_counter() + (time.perf_counter() - start) > stop_at:
            break
    json.dump({"passes": [{"outputs": o, "metrics": m} for o, m in passes]},
              sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
