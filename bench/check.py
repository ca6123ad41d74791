"""Output checker: every report the program emits is checked against its case.

Each check is counted as attempted, and as failed when it does not hold; the
ratio feeds ``check_pass_frac``.  A case's report must

* come with exit status 0 (every config asserts ``all_converged``; 2 would
  mean an assertion failed, 1 a config or runtime error),
* have exactly the expected series, each with the expected classification,
  no ``bound_violations`` where a bound is attached, and the case's schedule,
* report every point converged and within ``REL_TOL`` of its reference
  (``ABS_TOL`` absolute for references that are exactly 0),
* and be byte-identical on every rerun of the same config.
"""

from __future__ import annotations

import json

REL_TOL = 1e-8
ABS_TOL = 1e-12


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str):
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    @property
    def pass_frac(self) -> float:
        return 1.0 - len(self.failures) / self.attempted


def check_report(tally: Tally, case, status: int, payload: bytes):
    tally.expect(status == 0, f"{case.label}: exit status {status}, expected 0")
    if status == 1:
        return
    report = json.loads(payload)
    refs = case.reference()
    schedule = case.config["schedule"]
    series = {s["label"]: s for s in report["series"]}
    tally.expect(sorted(series) == sorted(refs),
                 f"{case.label}: series {sorted(series)}, expected {sorted(refs)}")
    for label, want in refs.items():
        s = series.get(label)
        if s is None:
            continue
        where = f"{case.label} / {label}"
        tally.expect(s["classification"] == case.classification[label],
                     f"{where}: classification {s['classification']!r}, "
                     f"expected {case.classification[label]!r}")
        if "bound" in s:
            tally.expect(s["bound_violations"] == [],
                         f"{where}: bound violations at N in {s['bound_violations']}")
        tally.expect([p["n"] for p in s["points"]] == schedule,
                     f"{where}: points at {[p['n'] for p in s['points']]}, "
                     f"expected {schedule}")
        for p, ref in zip(s["points"], want):
            tally.expect(p["converged"], f"{where}: N={p['n']} not converged")
            tol = REL_TOL * abs(ref) if ref else ABS_TOL
            tally.expect(abs(p["value"] - ref) <= tol,
                         f"{where}: N={p['n']} value {p['value']!r}, reference {ref!r}")


def check_rerun(tally: Tally, case, first: tuple[int, bytes], again: tuple[int, bytes]):
    tally.expect(again == first, f"{case.label}: rerun gave different status or bytes")
