"""Per-layer tracing for the benchmark's traced run.

The library already opens ``repro.obs`` spans inside its engines
(``engine.build``, ``engine.compile``, ``analysis.implementability``,
``sat.solve``, ``bdd.fixpoint``, ``portfolio.race``, ``portfolio.validate``)
and merges the spans of forked portfolio workers into the parent trace.
:class:`Tracer` arms that layer with a sink of its own and adds spans for
the layers the library does not instrument by rebinding module attributes
to wrappers for the length of the traced run.  Nothing under ``src/`` is
changed.

Layer -> module map (span names are the layer names):

================  ==========================================================
stg.load          workloads.load_model (model construction and .g parsing)
boolmin.minimize  repro.boolmin.quine_mccluskey.minimize as bound in
                  repro.synth.latch / repro.synth.nextstate
synth.covers      repro.synth.synthesize_{complex_gates,gc,sr} (region and
                  DC-set enumeration around the minimiser)
synth.csc         repro.synth.resolve_csc (CSC insertion search)
analysis.implementability  library span in repro.analysis.implementability
petri.is_live     repro.petri.properties.is_live
ts.build          repro.ts.state_graph.build_state_graph as bound in the
                  synth, verify, tech, timing and analysis modules, plus the
                  library's engine.build span (repro.ts.builder)
verify.compose    repro.verify.verify_circuit
tech.decompose    repro.tech.decompose
tech.map          repro.tech.map_netlist
timing            repro.timing.{validates_assumption,cycle_time,
                  apply_timing_assumption}
portfolio.race    library span (fork/pipe/reap orchestration, repro.portfolio)
portfolio.task    repro.portfolio.tasks runners (query encoding and the
                  engine work outside the engines' own spans)
portfolio.validate  library span (cross-validation of the winner)
sat.solve         library span (repro.sat.solver, CDCL)
bdd.fixpoint      library span (repro.bdd.symbolic / repro.bdd.queries)
engine.compile    library span (repro.petri.compiled)
================  ==========================================================
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import obs

#: The span that wraps each job; its self time is the unattributed time.
JOB_SPAN = "bench.job"

#: Span names folded into another layer.
FOLD = {"engine.build": "ts.build"}

_BUILD_STATE_GRAPH_USERS = (
    "repro.analysis.implementability", "repro.synth.complex_gate",
    "repro.synth.csc", "repro.synth.latch", "repro.tech.decompose",
    "repro.timing.constraints", "repro.verify.composition",
    "repro.ts.state_graph")


def _minimize_counts(span, args, kwargs, result) -> None:
    # every caller passes (onset, dcset, n) positionally, as lists
    span.add("on_minterms", len(args[0]))
    span.add("dc_minterms", len(args[1]))


def _verify_counts(span, args, kwargs, result) -> None:
    span.add("states", result.states)


#: (layer, [(module, attribute), ...], counter hook or None)
SPANS: List[Tuple[str, List[Tuple[str, str]], Optional[Callable]]] = [
    ("stg.load", [("workloads", "load_model")], None),
    ("boolmin.minimize", [("repro.synth.latch", "minimize"),
                          ("repro.synth.nextstate", "minimize"),
                          ("repro.boolmin.quine_mccluskey", "minimize")],
     _minimize_counts),
    ("synth.covers", [("repro.synth", "synthesize_complex_gates"),
                      ("repro.synth", "synthesize_gc"),
                      ("repro.synth", "synthesize_sr"),
                      ("repro.tech.decompose", "synthesize_complex_gates")],
     None),
    ("synth.csc", [("repro.synth", "resolve_csc")], None),
    ("petri.is_live", [("repro.synth.csc", "is_live"),
                       ("repro.petri.properties", "is_live")], None),
    ("ts.build", [(m, "build_state_graph")
                  for m in _BUILD_STATE_GRAPH_USERS], None),
    ("verify.compose", [("repro.verify", "verify_circuit"),
                        ("repro.tech.decompose", "verify_circuit")],
     _verify_counts),
    ("tech.decompose", [("repro.tech", "decompose")], None),
    ("tech.map", [("repro.tech", "map_netlist")], None),
    ("timing", [("repro.timing", "validates_assumption"),
                ("repro.timing", "cycle_time"),
                ("repro.timing", "apply_timing_assumption")], None),
    ("portfolio.task", [("repro.portfolio.tasks", name) for name in (
        "deadlock_explicit", "deadlock_bdd", "deadlock_kinduction",
        "deadlock_bmc", "reach_explicit", "reach_kinduction", "reach_bmc",
        "csc_explicit", "csc_bdd", "csc_sat", "consistency_explicit",
        "consistency_sat")], None),
]

#: Counter-only hooks: (module, attribute, counter, value of result).
COUNTS: List[Tuple[str, str, str, Callable[[Any], int]]] = [
    ("repro.boolmin.quine_mccluskey", "prime_implicants", "primes", len),
    ("repro.synth.csc", "_insertion_metrics", "candidates", lambda r: 1),
    ("repro.synth.csc", "enumerate_insertions", "accepted", len),
]


def _span_wrapper(layer: str, fn: Callable, hook: Optional[Callable]):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(layer) as span:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(span, args, kwargs, result)
        return result
    return wrapper


def _count_wrapper(counter: str, fn: Callable, value: Callable[[Any], int]):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        obs.add(counter, value(result))
        return result
    return wrapper


class Tracer:
    """Arms ``repro.obs`` and the benchmark's wrappers while active, and
    accumulates per-layer self times and counters job by job."""

    def __init__(self):
        self.records: List[dict] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.spans: Dict[str, int] = defaultdict(int)
        self.counters: Dict[Tuple[str, str], float] = defaultdict(float)
        self.peak_nodes = 0
        self.wins = 0
        self.job_s = 0.0
        self.unattributed_s = 0.0
        self._saved: List[Tuple[Any, str, Any]] = []
        self._was_enabled = False

    # -- the sink interface of repro.obs ---------------------------------- #

    def handle(self, record: dict) -> None:
        self.records.append(record)

    # -- arming ------------------------------------------------------------ #

    def _patch(self, module: str, attr: str, make: Callable) -> None:
        mod = importlib.import_module(module)
        original = getattr(mod, attr)
        self._saved.append((mod, attr, original))
        setattr(mod, attr, make(original))

    def __enter__(self) -> "Tracer":
        for layer, targets, hook in SPANS:
            for module, attr in targets:
                self._patch(module, attr,
                            lambda fn, l=layer, h=hook: _span_wrapper(l, fn, h))
        for module, attr, counter, value in COUNTS:
            self._patch(module, attr,
                        lambda fn, c=counter, v=value: _count_wrapper(c, fn, v))
        self._was_enabled = obs.enabled()
        obs.enable()
        obs.add_sink(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        obs.remove_sink(self)
        obs.enable(self._was_enabled)
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        del self._saved[:]

    # -- accounting -------------------------------------------------------- #

    def run_job(self, job) -> dict:
        """Run one job under the job span, then fold its records into the
        per-layer totals."""
        with obs.span(JOB_SPAN, job=job.id):
            output = job.run()
        self._account(self.records)
        del self.records[:]
        return output

    def _account(self, records: List[dict]) -> None:
        # one stream per process: the parent, and each worker attempt
        # (merged worker records carry slot/attempt tags); spans nest
        # properly within a stream, while racing workers overlap
        streams: Dict[Any, List[dict]] = defaultdict(list)
        for r in records:
            if r.get("event") != "span":
                continue
            tags = r.get("tags") or {}
            key = (tags["slot"], tags.get("attempt")) if "slot" in tags \
                else None
            streams[key].append(r)
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        worker_roots: List[Tuple[float, float]] = []
        for key, spans in streams.items():
            spans.sort(key=lambda r: (r["start_s"], -r["duration_s"],
                                      r["seq"]))
            stack: List[dict] = []
            for r in spans:
                start = r["start_s"]
                end = start + r["duration_s"]
                while stack and (stack[-1]["start_s"] + stack[-1]["duration_s"]
                                 < end - 1e-9):
                    stack.pop()
                if stack:
                    children[id(stack[-1])].append((start, end))
                elif key is not None:
                    worker_roots.append((start, end))
                stack.append(r)
        for spans in streams.values():
            for r in spans:
                name = r["name"]
                intervals = children.get(id(r), [])
                if name == "portfolio.race":
                    intervals = intervals + worker_roots
                self_s = r["duration_s"] - _covered(
                    r["start_s"], r["start_s"] + r["duration_s"], intervals)
                layer = FOLD.get(name, name)
                self.self_s[layer] += self_s
                self.spans[name] += 1
                for counter, n in (r.get("counters") or {}).items():
                    self.counters[(layer, counter)] += n
                if name == "bdd.fixpoint":
                    self.peak_nodes = max(
                        self.peak_nodes,
                        (r.get("gauges") or {}).get("peak_nodes", 0))
                # a race without a winner keeps the Verdict's default
                # engine "portfolio"
                if name == "portfolio.race" and \
                        (r.get("tags") or {}).get("engine") != "portfolio":
                    self.wins += 1
                if name == JOB_SPAN:
                    self.job_s += r["duration_s"]
                    self.unattributed_s += self_s

    def metrics(self, passes: int, scale: float) -> Dict[str, float]:
        """Per-layer figures per pass of the job list; self times are
        multiplied by ``scale`` (to reference speed), ratios and peaks are
        reported as they are."""
        s, c, n = self.self_s, self.counters, self.spans
        per = 1.0 / passes
        sec = scale / passes
        attempts = c[("portfolio.race", "attempts")]
        candidates = c[("synth.csc", "candidates")]
        return {
            "boolmin.minimize.calls": n["boolmin.minimize"] * per,
            "boolmin.minimize.self_s": s["boolmin.minimize"] * sec,
            "boolmin.minimize.on_minterms":
                c[("boolmin.minimize", "on_minterms")] * per,
            "boolmin.minimize.dc_minterms":
                c[("boolmin.minimize", "dc_minterms")] * per,
            "boolmin.primes": c[("boolmin.minimize", "primes")] * per,
            "synth.covers.self_s": s["synth.covers"] * sec,
            "synth.csc.self_s": s["synth.csc"] * sec,
            "synth.csc.candidates": candidates * per,
            "synth.csc.accepted_ratio":
                c[("synth.csc", "accepted")] / candidates if candidates
                else 0.0,
            "analysis.implementability.calls":
                n["analysis.implementability"] * per,
            "analysis.implementability.self_s":
                s["analysis.implementability"] * sec,
            "petri.is_live.self_s": s["petri.is_live"] * sec,
            "ts.build.calls": n["engine.build"] * per,
            "ts.build.states": c[("ts.build", "states")] * per,
            "ts.build.self_s": s["ts.build"] * sec,
            "verify.compose.self_s": s["verify.compose"] * sec,
            "verify.compose.states": c[("verify.compose", "states")] * per,
            "tech.decompose.self_s": s["tech.decompose"] * sec,
            "tech.map.self_s": s["tech.map"] * sec,
            "timing.self_s": s["timing"] * sec,
            "portfolio.race.self_s": s["portfolio.race"] * sec,
            "portfolio.validate.self_s": s["portfolio.validate"] * sec,
            "portfolio.task.self_s": s["portfolio.task"] * sec,
            "stg.load.self_s": s["stg.load"] * sec,
            "portfolio.attempts": attempts * per,
            "portfolio.cancellations":
                c[("portfolio.race", "cancellations")] * per,
            "portfolio.win_ratio": self.wins / attempts if attempts else 0.0,
            "sat.solve.calls": c[("sat.solve", "calls")] * per,
            "sat.solve.self_s": s["sat.solve"] * sec,
            "sat.solve.conflicts": c[("sat.solve", "conflicts")] * per,
            "sat.solve.decisions": c[("sat.solve", "decisions")] * per,
            "bdd.fixpoint.self_s": s["bdd.fixpoint"] * sec,
            "bdd.fixpoint.peak_nodes": self.peak_nodes,
            "bdd.fixpoint.image_iterations":
                c[("bdd.fixpoint", "image_iterations")] * per,
            "engine.compile.self_s": s["engine.compile"] * sec,
            "engine.compile.cache_hits":
                sum(v for (_, k), v in c.items()
                    if k == "compile_cache_hits") * per,
            "obs.coverage": 1.0 - self.unattributed_s / self.job_s
            if self.job_s else 0.0,
        }


def _covered(lo: float, hi: float,
             intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    cursor = lo
    for a, b in sorted(intervals):
        a = max(a, cursor)
        b = min(b, hi)
        if b > a:
            covered += b - a
            cursor = b
    return covered
