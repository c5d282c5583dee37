"""repro — Asynchronous interface specification, analysis and synthesis.

A faithful, self-contained Python reproduction of the design methodology
presented in:

    M. Kishinevsky, J. Cortadella, A. Kondratyev, L. Lavagno,
    "Asynchronous Interface Specification, Analysis and Synthesis",
    Proc. Design Automation Conference (DAC), 1998.

The library covers the whole flow of the paper:

* :mod:`repro.petri` — Petri-net kernel, token game, behavioural and
  structural properties, linear reductions (Sections 1, 2.2);
* :mod:`repro.stg` — Signal Transition Graphs, ``.g`` format, the VME bus
  controller examples, waveform rendering (Section 1, Figures 1-3, 5);
* :mod:`repro.ts` — reachability graphs (one builder; the net picks the
  compiled bitvector BFS or the dict token game) and binary-coded state
  graphs (Section 1.4, Figure 4);
* :mod:`repro.analysis` — implementability properties (consistency, CSC,
  persistency) and stubborn-set reduction (Section 2);
* :mod:`repro.bdd` — ROBDD engine and the symbolic query engine
  (chained cube-update frontier traversal with naive and dense
  SM-component encodings): counts, deadlocks, CSC characteristic
  functions without state enumeration (Section 2.2);
* :mod:`repro.sat` — CDCL SAT solver, net-to-CNF encodings, bounded model
  checking and k-induction for reachability/deadlock/CSC queries without
  state-graph construction (Section 2.2's state-explosion escape hatch);
* :mod:`repro.unfold` — McMillan complete prefixes and ordering relations
  (Section 2.2);
* :mod:`repro.boolmin` — cube algebra and Quine–McCluskey/Petrick exact
  two-level minimization (substrate for Section 3);
* :mod:`repro.synth` — next-state functions, complex-gate / gC / RS-latch
  synthesis, CSC resolution by signal insertion or concurrency reduction
  (Sections 3.1-3.2, Figures 7-8);
* :mod:`repro.tech` — hazard-free decomposition and technology mapping
  into a two-input library (Section 3.4, Figure 9);
* :mod:`repro.verify` — speed-independence and conformance checking by
  circuit x environment composition (Sections 2.1, 3.4);
* :mod:`repro.regions` — region theory and PN synthesis / back-annotation
  (Section 4, Figure 10);
* :mod:`repro.timing` — relative timing, time separation of events,
  performance analysis (Section 5, Figure 11);
* :mod:`repro.burstmode` — burst-mode machines with exact Nowick-Dill
  hazard-free two-level minimization (Sections 3.3 and 6);
* :mod:`repro.obs` — zero-dependency instrumentation: spans, counters,
  gauges, JSONL traces and machine-readable run reports across every
  engine (enable with ``REPRO_TRACE=1`` or ``repro.obs.enable()``);
* :mod:`repro.portfolio` — fault-tolerant portfolio orchestration:
  races the verdict engines in supervised worker processes with
  deadlines, crash retry, degradation ladders, deterministic fault
  injection (``REPRO_FAULTS``) and cross-validated verdicts.

Quick start::

    from repro import stg, synth, verify

    spec = stg.vme_read()
    resolved = synth.resolve_csc(spec)
    circuit = synth.synthesize_complex_gates(resolved)
    report = verify.verify_circuit(circuit, spec)
    assert report.ok
"""

from . import analysis, bdd, boolmin, budgets, burstmode, obs, petri, portfolio, procalg, regions, sat, stg, synth, tech, timing, ts, unfold, verify
from .errors import (
    CSCError,
    ConsistencyError,
    EngineTimeoutError,
    ModelError,
    ParseError,
    PersistencyError,
    ReproError,
    StateExplosionError,
    SynthesisError,
    UnboundedError,
    VerificationError,
    WorkerCrashError,
)

__version__ = "1.0.0"

__all__ = [
    "analysis", "bdd", "boolmin", "budgets", "burstmode", "obs", "petri", "portfolio", "procalg",
    "regions", "sat", "stg", "synth",
    "tech", "timing", "ts", "unfold", "verify",
    "CSCError", "ConsistencyError", "EngineTimeoutError", "ModelError",
    "ParseError",
    "PersistencyError", "ReproError", "StateExplosionError",
    "SynthesisError", "UnboundedError", "VerificationError",
    "WorkerCrashError",
    "__version__",
]
