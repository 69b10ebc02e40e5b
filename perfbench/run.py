"""The fdcalc benchmark.

From the root of a checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0

writes the workload's inputs for the seed (``inputs.py``), then

* ``--trace 0``: times a fresh interpreter importing ``fdcalc.cli`` and
  parsing every input file (``setup_s``, median of ``SETUP_RUNS``), and runs
  the workload's jobs (``jobs.py``) as separate ``python -m fdcalc.cli``
  processes, one at a time, round-robin, until the next job would end past
  ``--seconds`` (every job runs at least once).  Before each job, and before
  each set-up run, it runs the calibration probe (``probe.py``).  Rusage
  comes from ``os.wait4`` on each child.  ``wall_s`` and ``cpu_s`` sum, over
  the jobs, the mean per job, so they estimate one pass over the job list.
  ``wall_s``, ``cpu_s`` and ``setup_s`` are scaled by ``PROBE_REF_S`` over
  the probe's mean time in the run: they read seconds at the host speed at
  which the probe takes ``PROBE_REF_S``, so that the host's drift between
  runs cancels, and the unscaled figures go to the info line.
  ``peak_rss_mb`` is the largest ``ru_maxrss`` of any job process and
  ``ok_frac`` the share of job runs whose output passed ``check.py``.
* ``--trace 1``: runs the same jobs in process with every layer boundary
  wrapped (``tracer.py``) and reports per-layer self times and counts.

Every job output is checked.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the environment, per-job figures and any failure.
``--smoke`` runs only the smallest job of the workload.  Output files go to
``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

from check import FAILED, OK, UNCHECKED, check_output, reference
from inputs import write_inputs
from jobs import SMOKE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 6
# Jobs still running this long after the run began are killed and count as
# failed, so that a run ends within 180 s whatever the program does.
HARD_LIMIT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PROBE = HERE / "probe.py"
PROBE_OUTPUT = b"637707 40320 12 45\n"
# The probe's wall time on a 2-vCPU KVM Xeon (Python 3.11, numpy 2.4).
PROBE_REF_S = 0.5

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_frac": "ratio"}

SETUP_CODE = """
import json, platform, sys
from pathlib import Path
import fdcalc.cli
import numpy
from fdcalc.algebra import load_algebra
from fdcalc.dsl import parse_diagram, parse_table
src = Path(sys.argv[1]).resolve()
if not Path(fdcalc.__file__).resolve().is_relative_to(src):
    sys.exit(f"fdcalc imported from {fdcalc.__file__}, not from {src}")
for name in sys.argv[2:]:
    text = Path(name).read_text(encoding="utf-8")
    if name.endswith(".tbl"):
        parse_table(text)
    elif name.endswith(".alg"):
        load_algebra(text)
    else:
        parse_diagram(text)
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__}))
"""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(argv: list[str], stdout: Path, deadline: float):
    """Run one process to completion; (returncode, wall s, rusage)."""
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"),
                                         "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def run_probe(work: Path, deadline: float) -> tuple[float, float]:
    """Run the calibration probe once; (wall s, cpu s)."""
    rc, wall, usage = run_child([sys.executable, str(PROBE)],
                                work / "probe.out", deadline)
    if rc != 0 or (work / "probe.out").read_bytes() != PROBE_OUTPUT:
        err = (work / "probe.err").read_text(encoding="utf-8")
        raise RuntimeError(f"calibration probe failed: {err.strip()[-500:]}")
    return wall, usage.ru_utime + usage.ru_stime


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure_setup(files: list[Path], work: Path, runs: int,
                  deadline: float, probes: list | None = None):
    """Median set-up wall time; with ``probes``, a probe precedes each run."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC)] + [str(f)
                                                            for f in files]
    walls, versions = [], {}
    for _ in range(runs):
        if probes is not None:
            probes.append(run_probe(work, deadline))
        rc, wall, _ = run_child(argv, work / "setup.out", deadline)
        text = (work / "setup.out").read_text(encoding="utf-8")
        if rc != 0:
            err = (work / "setup.err").read_text(encoding="utf-8")
            raise RuntimeError(f"set-up failed: {err.strip()[-500:]}")
        versions = json.loads(text)
        walls.append(wall)
    return statistics.median(walls), versions


class Tally:
    """Verdicts on the job runs of one benchmark run."""

    def __init__(self):
        self.verdicts: Counter = Counter()
        self.problems: list[dict] = []

    def add(self, job, returncode: int, stdout: bytes, stderr: str) -> None:
        verdict, why = check_output(job, returncode, stdout, reference(job))
        self.verdicts[verdict] += 1
        if verdict != OK:
            self.problems.append({"job": job.name, "verdict": verdict,
                                  "why": why, "stderr": stderr[-300:]})

    @property
    def attempted(self) -> int:
        return sum(self.verdicts.values())


def run_untraced(jobs, inputs: Path, work: Path, seconds: float,
                 deadline: float, probes: list):
    samples = {job.name: [] for job in jobs}
    tally = Tally()
    stop_at = time.perf_counter() + seconds
    i = 0
    while True:
        job = jobs[i % len(jobs)]
        if i >= len(jobs):
            estimate = (statistics.median(w for w, _, _ in samples[job.name])
                        + statistics.median(w for w, _ in probes))
            if time.perf_counter() + estimate > min(stop_at, deadline):
                break
        probes.append(run_probe(work, deadline))
        argv = [sys.executable, "-m", "fdcalc.cli"] + [
            str(inputs / a) if a in job.input_files else a for a in job.args]
        out = work / f"{job.name}.out"
        rc, wall, usage = run_child(argv, out, deadline)
        tally.add(job, rc, out.read_bytes(),
                  out.with_suffix(".err").read_text(encoding="utf-8"))
        samples[job.name].append((wall, usage.ru_utime + usage.ru_stime,
                                  usage.ru_maxrss))
        i += 1
        if time.perf_counter() > deadline:
            break
    per_job = {name: {"walls": [w for w, _, _ in s],
                      "wall_s": statistics.mean(w for w, _, _ in s),
                      "cpu_s": statistics.mean(c for _, c, _ in s),
                      "rss_mb": max(r for _, _, r in s) / 1024}
               for name, s in samples.items() if s}
    metrics = {
        "wall_s": sum(j["wall_s"] for j in per_job.values()),
        "cpu_s": sum(j["cpu_s"] for j in per_job.values()),
        "peak_rss_mb": max(j["rss_mb"] for j in per_job.values()),
        "ok_frac": tally.verdicts[OK] / tally.attempted,
    }
    return tally, metrics, per_job


def run_traced(workload: str, jobs, inputs: Path, work: Path,
               seconds: float, deadline: float):
    argv = [sys.executable, str(HERE / "tracer.py"), workload, str(inputs),
            str(seconds), str(work / "spans.jsonl")]
    if len(jobs) < len(WORKLOADS[workload]):
        argv += [job.name for job in jobs]
    rc, _, _ = run_child(argv, work / "trace.out", deadline)
    if rc != 0:
        err = (work / "trace.err").read_text(encoding="utf-8")
        raise RuntimeError(f"traced run failed: {err.strip()[-500:]}")
    passes = json.loads((work / "trace.out").read_text(encoding="utf-8"))
    passes = passes["passes"]
    by_name = {job.name: job for job in jobs}
    tally = Tally()
    for p in passes:
        for out in p["outputs"]:
            tally.add(by_name[out["name"]], out["returncode"],
                      out["stdout"].encode("utf-8"), out["stderr"])
    names = passes[0]["metrics"]
    # Counts come from the first pass (and must repeat exactly); times are
    # medians over the passes.
    counts = [n for n in names if isinstance(names[n], int)]
    metrics = {n: names[n] if n in counts
               else statistics.median(p["metrics"][n] for p in passes)
               for n in names}
    counts_repeat = all(p["metrics"][n] == names[n]
                        for p in passes for n in counts)
    return tally, metrics, {"passes": len(passes),
                            "counts_repeat": counts_repeat}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if ".ms_per_" in name:
        return "ms"
    if name.endswith(("yield", "_frac")):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run only the smallest job of the workload")
    args = p.parse_args(argv)
    begun = time.perf_counter()
    deadline = begun + HARD_LIMIT_S

    if not (SRC / "fdcalc" / "cli.py").is_file():
        print(f"error: no fdcalc sources at {SRC}", file=sys.stderr)
        return 2
    jobs = WORKLOADS[args.workload]
    if args.smoke:
        jobs = tuple(j for j in jobs if j.name == SMOKE[args.workload])
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    inputs = work / "inputs"
    write_inputs(inputs, args.seed)
    files = sorted({inputs / f for job in jobs for f in job.input_files})

    try:
        # The traced run reports no set-up time; one set-up still checks
        # where fdcalc is imported from and records the versions.
        probes = None if args.trace else []
        setup_s, versions = measure_setup(
            files, work, 1 if args.trace else SETUP_RUNS, deadline, probes)
        if args.trace:
            tally, metrics, extra = run_traced(
                args.workload, jobs, inputs, work, args.seconds, deadline)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            tally, metrics, extra = run_untraced(
                jobs, inputs, work, args.seconds, deadline, probes)
            metrics["setup_s"] = setup_s
            raw = {n: metrics[n] for n in ("wall_s", "cpu_s", "setup_s")}
            wall_scale = PROBE_REF_S / statistics.mean(w for w, _ in probes)
            cpu_scale = PROBE_REF_S / statistics.mean(c for _, c in probes)
            metrics["wall_s"] *= wall_scale
            metrics["setup_s"] *= wall_scale
            metrics["cpu_s"] *= cpu_scale
            extra = {"per_job": extra, "unscaled": raw,
                     "probe_walls": [w for w, _ in probes],
                     "wall_scale": wall_scale, "cpu_scale": cpu_scale}
            units = END_TO_END_UNITS
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": versions.get("python"), "numpy": versions.get("numpy"),
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "run_s": time.perf_counter() - begun,
        "unchecked": tally.verdicts[UNCHECKED], "problems": tally.problems,
        "jobs": extra,
    }
    failed = tally.verdicts[FAILED]
    result = {
        "correct": failed == 0 and tally.verdicts[UNCHECKED] == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    (work / "result.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1),
        encoding="utf-8")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
