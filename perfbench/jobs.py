"""The benchmark's workloads: lists of ``fdcalc`` CLI jobs and their checks.

Why each workload exists:

* ``census`` spends almost all its time in the canonical search under the
  census funnel.  It mixes a few very symmetric candidates (quartic degree
  16) with many cheap ones (cyclic degree 12, yield about 0.001), and
  ``partition --table`` jobs with ``enumerate``/``free-energy`` jobs that a
  fast path for ``Z`` would not cover.
* ``amplitudes`` spends its time in exact tensor contraction, algebra
  construction and the Gaussian road; the census share is small, so a
  change to the canonical search should barely move it.
* ``wiring`` closes open diagrams with 10 to 12 legs: PROP composition plus
  thousands of small canonical searches with few cache hits.  A
  canonical-search change that adds fixed cost per call shows up here as a
  loss, and a bounded cache shows up in peak memory.
"""
from __future__ import annotations

from dataclasses import dataclass

from inputs import legs

INPUT_SUFFIXES = (".tbl", ".alg", ".fd")


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  ``name`` keys its reference output."""

    name: str
    args: tuple[str, ...]
    # "exact": stdout equals the reference bytes.  "rows": the multiset of
    # the first ``columns`` tab-separated columns equals the reference's.
    check: str = "exact"
    columns: int = 0
    # For ``closures``: the multiplicities must sum to (legs - 1)!!.
    legs: int = 0

    @property
    def is_verify(self) -> bool:
        return self.args[0] == "verify"

    @property
    def input_files(self) -> tuple[str, ...]:
        return tuple(a for a in self.args if a.endswith(INPUT_SUFFIXES))


def _closures(name: str) -> Job:
    return Job(f"closures_{name}", ("closures", f"{name}.fd"), "rows",
               columns=2, legs=legs(name))


WORKLOADS: dict[str, tuple[Job, ...]] = {
    "census": (
        Job("partition_quartic_16",
            ("partition", "--table", "quartic.tbl", "--max-degree", "16")),
        Job("free_energy_mixed_14",
            ("free-energy", "--table", "mixed.tbl", "--max-degree", "14")),
        # Columns: degree, |Aut|, monomial; the representative may change.
        Job("enumerate_cyclic_12",
            ("enumerate", "--table", "cyclic.tbl", "--max-degree", "12",
             "--connected"), "rows", columns=3),
        Job("expfz_cubic_12",
            ("verify", "expfz", "--table", "cubic.tbl", "--max-degree",
             "12")),
    ),
    "amplitudes": (
        Job("free_energy_quartic5_12",
            ("free-energy", "--algebra", "quartic5.alg", "--max-degree",
             "12")),
        Job("frt_mixed4_12",
            ("verify", "frt", "--algebra", "mixed4.alg", "--potential",
             "--max-degree", "12")),
        Job("frt_quartic3_PHI4_8",
            ("verify", "frt", "--algebra", "quartic3.alg", "--potential",
             "--root", "root_PHI4.fd", "--max-degree", "8")),
        Job("frt_cyclic3_PSI3_8",
            ("verify", "frt", "--algebra", "cyclic3.alg", "--potential",
             "--root", "root_PSI3.fd", "--max-degree", "8")),
        Job("taylor", ("verify", "taylor")),
        Job("wick", ("verify", "wick")),
    ),
    "wiring": (
        _closures("sym_stars"),
        _closures("cyc_stars"),
        _closures("coupons"),
        Job("fubini", ("verify", "fubini")),
    ),
}

# The smallest job of each workload, for the smoke test.
SMOKE = {"census": "expfz_cubic_12", "amplitudes": "wick",
         "wiring": "fubini"}
