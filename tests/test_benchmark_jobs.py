"""Every job of the benchmark, run once as a fresh ``fdcalc`` process on
the benchmark's inputs for seed 7 and checked against its reference output
the way the benchmark checks it, so that an output the benchmark would
refuse also fails here.  The benchmark's modules are only read."""
import sys
from pathlib import Path

import pytest

from util import run_python

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
# Importing them leaves no bytecode beside them.
dont_write_bytecode = sys.dont_write_bytecode
sys.dont_write_bytecode = True
sys.path.insert(0, PERFBENCH)
try:
    from check import OK, check_output, reference
    from inputs import write_inputs
    from jobs import WORKLOADS
finally:
    sys.path.remove(PERFBENCH)
    sys.dont_write_bytecode = dont_write_bytecode

SEED = 7


@pytest.fixture(scope="module")
def bench_inputs(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("bench_inputs")
    write_inputs(directory, SEED)
    return directory


@pytest.mark.parametrize("job", [job for jobs in WORKLOADS.values()
                                 for job in jobs], ids=lambda job: job.name)
def test_job_output_passes_its_reference_check(bench_inputs, job):
    argv = [str(bench_inputs / a) if a in job.input_files else a
            for a in job.args]
    done = run_python("-m", "fdcalc.cli", *argv)
    assert check_output(job, done.returncode, done.stdout.encode(),
                        reference(job)) == (OK, ""), done.stderr
