"""The benchmark's four workloads, as job lists over the library's public API.

Each job loads its model fresh (as a CLI command does), calls the library's
entry points in the order the matching CLI command calls them, and returns
a flat dict of outputs that :mod:`checker` compares with the hand-written
answers in ``answers/<workload>.json``.  Functions of the library are looked
up on their modules at call time, so the wrappers that :mod:`layers`
installs for the traced run see every call.

Workloads (all closed-loop: one client, one job at a time):

* ``synth_scale``     gC and complex-gate synthesis + verification of four
                      scalable specifications (two-level minimisation).
* ``library_flow``    the ``synthesize --verify`` flow on the seven bundled
                      specifications, decomposition + mapping, and the
                      Section 5 timing flow (CSC search, many small builds).
* ``query_race``      forked portfolio races on a fixed query mix.
* ``query_inline``    the portfolio API inline, one pinned engine per job
                      (in-process SAT and BDD engines).
"""

from __future__ import annotations

import functools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List

from repro import analysis, portfolio, synth, tech, timing, verify
from repro import stg as stglib
from repro.petri import library as petrilib
from repro.synth import Gate, Netlist

WORKLOADS = ("synth_scale", "library_flow", "query_race", "query_inline")

ANSWERS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "answers")

#: Model name -> constructor.  Parametric families carry their size in the
#: name, as in ``muller_pipeline_8``.
MODELS: Dict[str, Callable] = dict(stglib.ALL_EXAMPLES)
MODELS.update({
    "muller_pipeline_8": functools.partial(stglib.muller_pipeline, 8),
    "muller_pipeline_9": functools.partial(stglib.muller_pipeline, 9),
    "muller_pipeline_10": functools.partial(stglib.muller_pipeline, 10),
    "muller_pipeline_12": functools.partial(stglib.muller_pipeline, 12),
    "muller_pipeline_14": functools.partial(stglib.muller_pipeline, 14),
    "parallel_handshakes_5": functools.partial(stglib.parallel_handshakes, 5),
    "sequencer_8": functools.partial(stglib.sequencer, 8),
    "dining_philosophers_8": functools.partial(petrilib.dining_philosophers,
                                               8),
})

#: Architecture name -> synthesis entry point on :mod:`repro.synth`.
ARCHS = {"cg": "synthesize_complex_gates", "gc": "synthesize_gc",
         "sr": "synthesize_sr"}

#: Section 5 delay table for the READ cycle: a slow bus (DSr) and a
#: moderately fast device (LDTACK), (min, max) per event.
VME_ENV_DELAYS = {
    "DSr+": (18, 25), "DSr-": (4, 6),
    "DTACK+": (1, 2), "DTACK-": (1, 2),
    "LDS+": (1, 2), "LDS-": (1, 2),
    "LDTACK+": (3, 5), "LDTACK-": (3, 5),
    "D+": (1, 2), "D-": (1, 2),
}


@dataclass(frozen=True)
class Job:
    """One unit of closed-loop work: ``run()`` returns the outputs."""

    id: str
    run: Callable[[], dict]


def load_model(name: str):
    """Construct a fresh model (the ``stg.load`` layer of the traced run)."""
    return MODELS[name]()


def _circuit(netlist: Netlist) -> dict:
    return {"netlist": netlist, "gates": netlist.gate_count(),
            "literals": netlist.literal_count()}


def _verified(netlist: Netlist, spec) -> dict:
    report = verify.verify_circuit(netlist, spec)
    return {"verified": report.ok, "verify_states": report.states,
            "summary": "" if report.ok else report.summary()}


# -- job bodies ------------------------------------------------------------ #

def synth_verify(model: str, arch: str) -> dict:
    """``synthesize --arch <arch> --verify`` on a CSC-clean specification."""
    spec = load_model(model)
    netlist = getattr(synth, ARCHS[arch])(spec)
    return {**_circuit(netlist), **_verified(netlist, spec)}


def synthesize_flow(model: str, arch: str) -> dict:
    """check_implementability -> resolve_csc -> synthesis -> verify_circuit;
    non-persistent specifications get the mutual-exclusion element."""
    spec = load_model(model)
    report = analysis.check_implementability(spec)
    out = {"states": report.states, "csc": report.has_csc,
           "persistent": report.persistent, "consistent": report.consistent}
    if arch == "me":
        netlist = Netlist(spec.name + "_me", inputs=spec.inputs)
        for gate in Gate.mutex_pair(spec.outputs[0], spec.outputs[1],
                                    spec.inputs[0], spec.inputs[1]):
            netlist.add(gate)
    else:
        resolved = synth.resolve_csc(spec)
        out["inserted"] = len(resolved.internal) - len(spec.internal)
        netlist = getattr(synth, ARCHS[arch])(resolved)
    out.update(_circuit(netlist))
    out.update(_verified(netlist, spec))
    return out


def decompose_flow(model: str) -> dict:
    """``synthesize --decompose``: resolve_csc -> decompose -> map_netlist."""
    resolved = synth.resolve_csc(load_model(model))
    netlist = tech.decompose(resolved)
    cells = tech.map_netlist(netlist)
    return {**_circuit(netlist), "cells": cells,
            "mapped": "complex" not in cells.values()}


def timing_flow() -> dict:
    """Section 5 on the READ cycle: justify sep(LDTACK-, DSr+) < 0 from the
    delays, report the cycle time, then synthesise Figure 11(a)."""
    spec = load_model("vme_read")
    tmg = timing.TimedMarkedGraph(spec.net, VME_ENV_DELAYS)
    out = {"validates": timing.validates_assumption(tmg, "LDTACK-", "DSr+",
                                                    -1),
           "cycle_time": timing.cycle_time(tmg)}
    timed = timing.apply_timing_assumption(spec, "LDTACK-", "DSr+")
    out["implementable"] = analysis.check_implementability(timed) \
        .implementable
    netlist = synth.synthesize_complex_gates(timed, name="fig11a")
    out.update(_circuit(netlist))
    out.update(_verified(netlist, timed))
    return out


def query(check: str, model: str, **options) -> dict:
    """One ``repro check`` query through :mod:`repro.portfolio`."""
    verdict = getattr(portfolio, "check_" + check)(load_model(model),
                                                   **options)
    return {"verdict": verdict.verdict, "definitive": verdict.definitive,
            "flagged": verdict.flagged, "engine": verdict.engine}


# -- job lists ------------------------------------------------------------- #

def _jobs(workload: str) -> List[Job]:
    jobs: List[Job] = []
    if workload == "synth_scale":
        for model in ("muller_pipeline_8", "muller_pipeline_9",
                      "parallel_handshakes_5", "sequencer_8"):
            for arch in ("cg", "gc"):
                jobs.append(Job("%s/%s" % (model, arch),
                                functools.partial(synth_verify, model, arch)))
    elif workload == "library_flow":
        for model in sorted(stglib.ALL_EXAMPLES):
            archs = ("me",) if model == "mutex_controller" else ARCHS
            for arch in archs:
                jobs.append(Job("%s/%s" % (model, arch),
                                functools.partial(synthesize_flow, model,
                                                  arch)))
        for model in ("handshake_arbiter_free_choice", "latch_controller",
                      "vme_read", "vme_read_csc"):
            jobs.append(Job(model + "/decompose",
                            functools.partial(decompose_flow, model)))
        jobs.append(Job("vme_read/timing", timing_flow))
    elif workload == "query_race":
        for check, model in (("deadlock", "muller_pipeline_12"),
                             ("deadlock", "muller_pipeline_14"),
                             ("deadlock", "dining_philosophers_8"),
                             ("csc", "vme_read"),
                             ("csc", "vme_read_write"),
                             ("consistency", "vme_read_write"),
                             ("csc", "muller_pipeline_10")):
            jobs.append(Job("%s/%s" % (check, model),
                            functools.partial(query, check, model)))
    elif workload == "query_inline":
        for engine, check, model in (
                ("sat", "deadlock", "muller_pipeline_12"),
                ("sat", "deadlock", "dining_philosophers_8"),
                ("sat", "csc", "vme_read"),
                ("bdd", "deadlock", "muller_pipeline_12"),
                ("bdd", "deadlock", "dining_philosophers_8"),
                ("bdd", "csc", "vme_read"),
                ("bdd", "csc", "vme_read_csc"),
                ("bdd", "csc", "vme_read_write"),
                ("bdd", "csc", "muller_pipeline_8")):
            jobs.append(Job("%s/%s/%s" % (engine, check, model),
                            functools.partial(query, check, model,
                                              engines=[engine],
                                              inline=True)))
    else:
        raise ValueError("unknown workload %r (expected one of %s)"
                         % (workload, ", ".join(WORKLOADS)))
    return jobs


def load_answers(workload: str) -> dict:
    """The hand-written expected answers of one workload."""
    with open(os.path.join(ANSWERS_DIR, workload + ".json")) as f:
        return json.load(f)


def setup(workload: str):
    """Everything a run needs before its first job: the job list and the
    answers, which must name exactly the same jobs."""
    jobs = _jobs(workload)
    answers = load_answers(workload)
    if sorted(answers["jobs"]) != sorted(job.id for job in jobs):
        raise ValueError("answers/%s.json does not match the job list"
                         % workload)
    return jobs, answers


def pass_orders(jobs: List[Job], seed: int) -> Iterator[List[Job]]:
    """An endless sequence of shuffles of the job list, drawn from
    ``seed``: one per pass."""
    rng = random.Random(seed)
    while True:
        order = list(jobs)
        rng.shuffle(order)
        yield order
