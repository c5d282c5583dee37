"""Self-tests of the checker: right answers pass, wrong ones are caught.

Every benchmark run executes these first and reports ``correct: false``
if any of them fails.  Run them alone with::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import os
import sys
from typing import List


def _cases():
    """(description, workload, job id, output changes, should pass)."""
    from repro.synth import Gate, Netlist

    def fig11a(lds: str) -> Netlist:
        n = Netlist("fig11a", inputs=["DSr", "LDTACK"])
        n.add(Gate.comb("D", "DSr & LDTACK"))
        n.add(Gate.buffer("DTACK", "D"))
        n.add(Gate.comb("LDS", lds))
        return n

    def muller_gc(n: int, flip_stage: int = 0) -> Netlist:
        net = Netlist("muller", inputs=["c0"])
        for i in range(1, n):
            a, b = "c%d" % (i - 1), "c%d" % (i + 1)
            if i == flip_stage:  # swap the inversion: C(c(i-1)', c(i+1))
                net.add(Gate.classic_c_element("c%d" % i, a, b,
                                               invert_a=True))
            else:
                net.add(Gate.classic_c_element("c%d" % i, a, b,
                                               invert_b=True))
        net.add(Gate.c_element("c%d" % n, "c%d" % (n - 1),
                               "c%d'" % (n - 1)))
        return net

    timing = {"validates": True, "cycle_time": 46.0000000001,
              "implementable": True, "gates": 3, "literals": 5,
              "verified": True}
    muller = {"gates": 8, "literals": 30, "verified": True,
              "verify_states": 512}
    race = {"verdict": "conflict", "definitive": True, "flagged": False,
            "engine": "compiled"}
    return [
        ("Figure 11(a) as published", "library_flow", "vme_read/timing",
         dict(timing, netlist=fig11a("DSr | D")), True),
        ("Figure 11(a) with LDS a wire from DSr", "library_flow",
         "vme_read/timing", dict(timing, netlist=fig11a("DSr")), False),
        ("cycle time off by one", "library_flow", "vme_read/timing",
         dict(timing, netlist=fig11a("DSr | D"), cycle_time=47.0), False),
        ("textbook Muller gC stages", "synth_scale", "muller_pipeline_8/gc",
         dict(muller, netlist=muller_gc(8)), True),
        ("Muller stage 3 with the wrong input inverted", "synth_scale",
         "muller_pipeline_8/gc", dict(muller, netlist=muller_gc(8, 3)),
         False),
        ("literal count changed", "synth_scale", "muller_pipeline_8/gc",
         dict(muller, netlist=muller_gc(8), literals=31), False),
        ("CSC verdict as expected", "query_race", "csc/vme_read", race,
         True),
        ("CSC verdict flipped", "query_race", "csc/vme_read",
         dict(race, verdict="no-conflict"), False),
        ("verdict no longer definitive", "query_race", "csc/vme_read",
         dict(race, definitive=False), False),
        ("pinned literal count changed", "library_flow",
         "vme_read_write/cg",
         {"states": 24, "csc": False, "persistent": True,
          "consistent": True, "inserted": 1, "gates": 4, "verified": True,
          "literals": 25}, False),
    ]


def run() -> List[str]:
    """The failed self-tests (empty when the checker works)."""
    from checker import Tally, check
    from workloads import load_answers

    failures = []
    answers = {}
    for name, workload, job_id, output, should_pass in _cases():
        answers.setdefault(workload, load_answers(workload))
        errors = check(job_id, answers[workload]["jobs"][job_id], output)
        if (not errors) != should_pass:
            failures.append("%s: checker %s it (%s)"
                            % (name, "rejected" if errors else "passed",
                               "; ".join(errors) or "no errors"))

    # the known failure is counted but keeps the run correct; any other
    # failure makes the run incorrect
    tally = Tally(answers["library_flow"])
    tally.record("concurrent_latch_controller/sr", {"verified": False})
    if (tally.failed, tally.correct) != (1, True):
        failures.append("known failure not counted as a tolerated failure")
    tally.record("vme_read/timing", error="RuntimeError('boom')")
    if (tally.failed, tally.correct) != (2, False):
        failures.append("a raised job did not make the run incorrect")
    return failures


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    problems = run()
    for line in problems:
        print("FAIL", line)
    print("checker self-test: %s" % ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)
