"""Command-line interface: the paper's design flow on ``.g`` files.

Usage::

    python -m repro analyze spec.g
    python -m repro states spec.g
    python -m repro waveform spec.g
    python -m repro reduce spec.g
    python -m repro resolve spec.g -o resolved.g
    python -m repro synthesize spec.g --arch cg --verify
    python -m repro synthesize spec.g --decompose --verilog
    python -m repro check spec.g --query csc
    python -m repro check spec.g --query deadlock --portfolio
    python -m repro check spec.g --query csc --portfolio --faults "kill:attempt=0"
    python -m repro sat-check spec.g --property deadlock --bound 12 --json
    python -m repro bdd-check spec.g --query count --stats --trace run.jsonl
    python -m repro dot spec.g
    python -m repro examples --list
    python -m repro obs report run.jsonl
    python -m repro obs diff before.jsonl after.jsonl
    python -m repro obs regress BENCH_*.json --baseline benchmarks/baselines.json
    python -m repro obs lint run.jsonl

``sat-check`` and ``bdd-check --query deadlock|csc`` are aliases of
``check`` pinned to the SAT or BDD engine (``--engines sat|bdd
--inline``), with its output, run report and exit codes.

Observability: ``--stats`` prints a per-span table to stderr,
``--trace FILE`` streams span records as JSONL, and (on ``check``,
``sat-check`` and ``bdd-check``) ``--json`` replaces the human output
with a versioned machine-readable run report.  The ``obs`` family turns those artifacts
into decisions: span-tree reports, trace diffs, schema lint and
noise-aware benchmark regression checks — see ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import obs
from .analysis import check_implementability
from .errors import ModelError, ReproError
from .petri import linear_reduce, net_to_dot, p_invariants, sm_components
from .stg import (
    ALL_EXAMPLES,
    load_g,
    muller_pipeline,
    parallel_handshakes,
    render_waveforms,
    sequencer,
    write_g,
)
from .synth import (
    resolve_csc,
    synthesize_complex_gates,
    synthesize_gc,
    synthesize_sr,
)
from .tech import decompose, map_netlist
from .timing import TimedMarkedGraph, max_separation
from .ts import build_state_graph
from .verify import verify_circuit


#: The scalable specification families, named ``<family>:N`` on the
#: command line.
FAMILIES = {"muller_pipeline": muller_pipeline,
            "parallel_handshakes": parallel_handshakes,
            "sequencer": sequencer}


def _load(path: str):
    """The STG a SPEC argument names: a bundled example, a scalable family
    as ``<family>:N`` with N a positive integer, or a ``.g`` file."""
    if path in ALL_EXAMPLES:
        return ALL_EXAMPLES[path]()
    family, colon, size = path.partition(":")
    if colon and family in FAMILIES:
        if not (size.isascii() and size.isdigit()) or int(size) < 1:
            raise ModelError("bad spec %r: usage %s:N with N a positive"
                             " integer" % (path, family))
        return FAMILIES[family](int(size))
    return load_g(path)


class _Telemetry:
    """Arms :mod:`repro.obs` for one CLI command run.

    Driven by the ``--stats`` / ``--trace FILE`` / ``--json`` flags
    (absent flags read as off, so commands can wrap their body
    unconditionally).  While active the layer is enabled, a
    :class:`~repro.obs.sinks.MemorySink` collects records for the
    ``--stats`` table and the ``--json`` run report, and ``--trace``
    streams records to a JSONL file.  On exit the previous enabled
    state and sink set are restored — an ambient ``REPRO_TRACE=1``
    session is left exactly as found — and the ``--stats`` table, if
    requested, is printed to stderr (stdout stays reserved for the
    command's own output).
    """

    def __init__(self, args):
        self.stats = bool(getattr(args, "stats", False))
        self.trace = getattr(args, "trace", None)
        self.json = bool(getattr(args, "json", False))
        self.active = self.stats or self.json or bool(self.trace)
        self.sink: Optional[obs.MemorySink] = None
        self._jsonl: Optional[obs.JsonlSink] = None
        self._was_enabled = False

    def __enter__(self) -> "_Telemetry":
        if self.active:
            self._was_enabled = obs.enabled()
            obs.enable()
            self.sink = obs.add_sink(obs.MemorySink())
            if self.trace:
                self._jsonl = obs.add_sink(obs.JsonlSink(self.trace))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.active:
            return None
        if self._jsonl is not None:
            obs.remove_sink(self._jsonl)
            self._jsonl.close()
        obs.remove_sink(self.sink)
        obs.enable(self._was_enabled)
        if self.stats:
            print(obs.report(self.sink), file=sys.stderr)
        return None

    def run_report(self, command: str, spec: str, verdict: str,
                   exit_code: int, details: dict) -> dict:
        """The ``--json`` document (``repro-run-report/1``): command,
        verdict and per-span aggregates of this run."""
        return {
            "schema": obs.REPORT_SCHEMA,
            "command": command,
            "spec": spec,
            "verdict": verdict,
            "exit_code": exit_code,
            "details": details,
            "stats": self.sink.stats() if self.sink is not None else {},
        }


def cmd_analyze(args) -> int:
    """Implementability report (Section 2)."""
    stg = _load(args.spec)
    with _Telemetry(args):
        report = check_implementability(stg)
    print(report.summary())
    if args.verbose:
        for c in report.csc_conflicts:
            print("  ", c)
        for v in report.persistency_violations:
            print("  ", v)
    return 0 if report.implementable else 1


def cmd_states(args) -> int:
    """Binary-coded state graph listing (Figure 4 style)."""
    stg = _load(args.spec)
    with _Telemetry(args):
        sg = build_state_graph(stg)
    print("# %d states, signals: %s" % (len(sg), " ".join(sg.signal_order)))
    for i in range(len(sg)):
        print("%-30s %s" % (sg.graph.marking(i), sg.code_str(i)))
    return 0


def cmd_waveform(args) -> int:
    """ASCII timing diagram (Figure 2 style)."""
    stg = _load(args.spec)
    print(render_waveforms(stg))
    return 0


def cmd_reduce(args) -> int:
    """Linear reductions, invariants and SM components (Figure 6)."""
    stg = _load(args.spec)
    with _Telemetry(args):
        reduced = linear_reduce(stg.net)
    print("# original: %s" % stg.net.stats())
    print("# reduced:  %s" % reduced.stats())
    for inv in p_invariants(reduced):
        print("invariant: %s = const" %
              " + ".join("M(%s)" % p for p in sorted(inv)))
    for comp in sm_components(reduced):
        print("SM component: places=%s" % sorted(comp.places))
    return 0


def cmd_resolve(args) -> int:
    """CSC resolution by state-signal insertion (Section 3.1)."""
    stg = _load(args.spec)
    resolved = resolve_csc(stg)
    text = write_g(resolved)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        print("# wrote %s (inserted: %s)"
              % (args.output, " ".join(resolved.internal) or "none"))
    else:
        print(text, end="")
    return 0


_ARCHITECTURES = {
    "cg": synthesize_complex_gates,
    "gc": synthesize_gc,
    "sr": synthesize_sr,
}


def cmd_synthesize(args) -> int:
    """Logic synthesis, optionally decomposed and verified (Section 3)."""
    stg = _load(args.spec)
    with _Telemetry(args):
        return _synthesize(args, stg)


def _synthesize(args, stg) -> int:
    """The ``synthesize`` flow body (run under the command telemetry)."""
    resolved = resolve_csc(stg)
    if resolved.internal and resolved is not stg:
        print("# CSC resolved by inserting: %s"
              % " ".join(s for s in resolved.internal))
    if args.decompose:
        netlist = decompose(resolved)
        print("# decomposed into: %s" % ", ".join(
            "%s:%s" % (k, v) for k, v in sorted(map_netlist(netlist).items())))
    else:
        netlist = _ARCHITECTURES[args.arch](resolved)
    print(netlist.to_verilog() if args.verilog else netlist.to_eqn())
    if args.verify:
        report = verify_circuit(netlist, stg)
        print()
        print(report.summary())
        return 0 if report.ok else 1
    return 0


def cmd_dot(args) -> int:
    """Graphviz DOT of the underlying Petri net."""
    stg = _load(args.spec)
    print(net_to_dot(stg.net, title=stg.name))
    return 0


def cmd_separation(args) -> int:
    """Maximum time separation of two events (Section 5)."""
    stg = _load(args.spec)
    with open(args.delays) as f:
        raw = json.load(f)
    delays = {k: tuple(v) for k, v in raw.items()}
    tmg = TimedMarkedGraph(stg.net, delays)
    value = max_separation(tmg, args.early, args.late,
                           occurrence_offset=args.offset)
    print("max sep(%s, %s) = %g" % (args.early, args.late, value))
    return 0 if value < 0 else 1


def cmd_testbench(args) -> int:
    """Verilog netlist plus self-checking testbench (Section 6)."""
    stg = _load(args.spec)
    resolved = resolve_csc(stg)
    netlist = _ARCHITECTURES[args.arch](resolved)
    from .synth import generate_testbench

    print(netlist.to_verilog())
    print()
    print(generate_testbench(stg, netlist, cycles=args.cycles))
    return 0


def cmd_coverability(args) -> int:
    """Karp-Miller boundedness analysis."""
    from .petri import build_coverability_graph

    stg = _load(args.spec)
    graph = build_coverability_graph(stg.net)
    print("nodes: %d, bounded: %s" % (len(graph.nodes), graph.is_bounded()))
    for p in graph.unbounded_places():
        print("unbounded place: %s" % p)
    for t in graph.dead_transitions():
        print("dead transition: %s" % t)
    return 0 if graph.is_bounded() else 1


def cmd_simulate(args) -> int:
    """Monte-Carlo timed simulation of a marked-graph STG."""
    stg = _load(args.spec)
    with open(args.delays) as f:
        raw = json.load(f)
    delays = {k: tuple(v) for k, v in raw.items()}
    from .timing import simulate

    tmg = TimedMarkedGraph(stg.net, delays)
    trace = simulate(tmg, cycles=args.cycles, seed=args.seed)
    reference = sorted(stg.net.transitions)[0]
    estimate = trace.cycle_time_estimate(reference)
    print("# %d cycles simulated (seed %d)" % (args.cycles, args.seed))
    if estimate is not None:
        print("estimated cycle time (via %s): %.3f" % (reference, estimate))
    for t in sorted(trace.times):
        first = trace.times[t][:5]
        print("%-12s %s" % (t, " ".join("%.2f" % x for x in first)))
    return 0


def _target(args, stg) -> dict:
    """The ``--target`` marking of a reach query (place -> tokens).  A
    missing target or an unknown place is a usage error, not an engine
    fault, so it is caught here instead of in every racer."""
    if not args.target:
        raise ModelError("a reach query requires --target")
    target = {p: 1 for p in args.target.split()}
    for p in target:
        if p not in stg.net.places:
            raise ModelError("unknown place %r in target marking" % p)
    return target


def _query(args, command: str, stg, query: str, options: dict) -> int:
    """Run one :mod:`repro.portfolio` query and report it: the body of
    ``check`` and of its ``sat-check`` / ``bdd-check`` aliases.

    Prints the human lines, or with ``--json`` the run report, and
    returns the exit code: 0 when the query's property holds (the
    holds-verdict of :data:`repro.portfolio.tasks.QUERIES`), 1 when it
    fails or is unknown, 2 on a flagged cross-validation disagreement
    (``inconsistent``).
    """
    from . import portfolio
    from .portfolio import faults

    check = getattr(portfolio, "check_" + query)
    plan = getattr(args, "faults", None)
    installed = faults.install(plan) if plan else None
    try:
        with _Telemetry(args) as tel:
            verdict = check(stg, **options)
    finally:
        if installed is not None:
            faults.clear()
    code = 2 if verdict.flagged else 0 if verdict else 1

    details = {
        "query": verdict.query,
        "engine": verdict.engine,
        "method": verdict.method,
        "definitive": verdict.definitive,
        "flagged": verdict.flagged,
        "validator": verdict.validator,
        "evidence": verdict.evidence,
        "attempts": verdict.attempts,
        "degradations": verdict.degradations,
        "robustness": dict(verdict.stats),
        "elapsed_s": round(verdict.elapsed_s, 6),
    }
    if verdict.witness is not None:
        details["witness"] = list(verdict.witness)
    if "disagreement" in verdict.details:
        details["disagreement"] = verdict.details["disagreement"]
    # why an unfinished k-induction gave up (see repro.sat.kinduction)
    reasons = [p["reason"] for p in verdict.details.get("partial", ())
               if "reason" in p]
    if reasons:
        details["reason"] = reasons[0]
    if args.json:
        print(json.dumps(tel.run_report(command, args.spec, verdict.verdict,
                                        code, details), sort_keys=True))
        return code

    print("%s (winner: %s/%s%s)"
          % (verdict.verdict, verdict.engine, verdict.method,
             ", validated by %s" % verdict.validator
             if verdict.validator else ""))
    if verdict.evidence:
        print("evidence: %s" % verdict.evidence)
    if verdict.witness:
        print("witness: %s" % " ".join(verdict.witness))
    if "disagreement" in verdict.details:
        print("DISAGREEMENT: %s" % verdict.details["disagreement"])
    busy = {k: n for k, n in verdict.stats.items() if n}
    print("robustness: %s"
          % " ".join("%s=%d" % kv for kv in sorted(busy.items())))
    return code


def cmd_check(args) -> int:
    """Portfolio model checking: race the engines, cross-validate the
    winner (see ``docs/portfolio.md``).  Without ``--portfolio`` or
    ``--engines`` only the first scheduled slot able to prove the
    property runs, in-process unless ``--deadline`` asks for a worker
    process that can be stopped; ``--inline`` with ``--deadline`` is a
    usage error, since nothing stops an in-process rung."""
    from .portfolio import tasks

    if args.inline and args.deadline is not None:
        raise ReproError("--deadline needs worker processes; it cannot be"
                         " combined with --inline")
    stg = _load(args.spec)
    options = {"cross_validate": not args.no_validate, "inline": args.inline}
    for flag, option in (("deadline", "deadline_s"), ("bound", "bound"),
                         ("max_k", "max_k"), ("max_states", "max_states")):
        if getattr(args, flag) is not None:
            options[option] = getattr(args, flag)
    if args.query == "reach":
        options.update(target=_target(args, stg), cover=args.cover)
    if args.engines:
        options["engines"] = [e.strip() for e in args.engines.split(",")
                              if e.strip()]
    elif not args.portfolio:
        options["engines"] = [tasks.single_slot(stg, args.query,
                                                args.cover)]
        options["inline"] = args.deadline is None
    return _query(args, "check", stg, args.query, options)


def cmd_sat_check(args) -> int:
    """SAT model checking without a state graph: ``check --engines sat
    --inline`` (k-induction, then BMC), where ``--bound`` caps both the
    induction depth and the BMC unrolling.  ``--dimacs FILE`` first
    writes the CNF the bounded query solves at ``--bound``
    (:func:`repro.sat.query_cnf`): satisfiable iff that query finds a
    counterexample within ``--bound`` steps, so any external DIMACS
    solver reproduces a counterexample verdict of the command."""
    stg = _load(args.spec)
    options = {"engines": ["sat"], "inline": True, "bound": args.bound,
               "max_k": args.bound}
    if args.property == "reach":
        options.update(target=_target(args, stg), cover=args.cover)
    if args.dimacs:
        from .petri import Marking
        from .sat import query_cnf

        cnf = query_cnf(stg, args.property, args.bound,
                        target=Marking(options.get("target", {})),
                        partial=args.cover)
        with open(args.dimacs, "w") as f:
            f.write(cnf.to_dimacs(comments=[
                "repro sat-check %s --property %s --bound %d"
                % (stg.name, args.property, args.bound)]))
        if not args.json:
            print("# wrote %s (%d vars, %d clauses)"
                  % (args.dimacs, cnf.num_vars, len(cnf.clauses)))
    return _query(args, "sat-check", stg, args.property, options)


def cmd_bdd_check(args) -> int:
    """Symbolic BDD fixpoint queries without a state graph (Section
    2.2): ``--query count`` counts the reachable markings, ``deadlock``
    and ``csc`` are ``check --engines bdd --inline``."""
    from .bdd import DenseSymbolicReachability, SymbolicReachability

    stg = _load(args.spec)
    if args.query != "count":
        if args.encoding != "naive" or args.order != "dfs":
            print("error: --encoding and --order apply to --query count"
                  " only", file=sys.stderr)
            return 2
        return _query(args, "bdd-check", stg, args.query,
                      {"engines": ["bdd"], "inline": True})
    with _Telemetry(args) as tel:
        if args.encoding == "dense":
            dense = DenseSymbolicReachability(stg.net)
            count = dense.count()
            details = {"reachable": count, "encoding": "dense",
                       "variables": dense.encoding.width,
                       "bdd_nodes": dense.bdd_size()}
            line = ("reachable codes: %d (dense: %d variables, %d BDD"
                    " nodes)" % (count, dense.encoding.width,
                                 dense.bdd_size()))
        else:
            sym = SymbolicReachability(stg.net, place_order=args.order)
            sym.assert_safe()
            count = sym.count()
            details = {"reachable": count, "encoding": "naive",
                       "places": len(sym.places),
                       "bdd_nodes": sym.bdd_size()}
            line = ("reachable markings: %d (%d places, %d BDD nodes)"
                    % (count, len(sym.places), sym.bdd_size()))
    if args.json:
        print(json.dumps(tel.run_report("bdd-check", args.spec, "counted", 0,
                                        dict(details, query="count")),
                         sort_keys=True))
    else:
        print(line)
    return 0


def cmd_examples(args) -> int:
    """List the bundled example specifications."""
    for name in sorted(ALL_EXAMPLES):
        stg = ALL_EXAMPLES[name]()
        print("%-32s in=%s out=%s %s"
              % (name, ",".join(stg.inputs), ",".join(stg.outputs),
                 stg.net.stats()))
    return 0


def cmd_obs_report(args) -> int:
    """Span-tree flamegraph of a recorded trace (``repro obs report``)."""
    from .obs import analyze

    try:
        records = analyze.read_trace(args.trace)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(analyze.render_report(records))
    if args.coverage:
        share = analyze.coverage(records, args.coverage)
        print("coverage(%s): %.1f%% of wall-clock attributed to child"
              " spans" % (args.coverage, share * 100.0))
    return 0


def cmd_obs_diff(args) -> int:
    """Per-span comparison of two traces (``repro obs diff``)."""
    import os

    from .obs import analyze

    try:
        a = analyze.read_trace(args.a)
        b = analyze.read_trace(args.b)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(analyze.render_diff(a, b,
                              a_label=os.path.basename(args.a) or "a",
                              b_label=os.path.basename(args.b) or "b"))
    return 0


def cmd_obs_regress(args) -> int:
    """Noise-aware benchmark regression check (``repro obs regress``).

    Exit codes: 0 when every benchmark is within thresholds, 1 when at
    least one regressed beyond recorded noise, 2 on unloadable or
    schema-invalid input.
    """
    from .obs import analyze

    try:
        baseline = analyze.load_baseline(args.baseline)
        docs = [analyze.load_bench_file(p) for p in args.bench]
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    entries = analyze.compare_bench(docs, baseline, rel_tol=args.rel_tol,
                                    sigma=args.sigma,
                                    min_abs_s=args.min_abs)
    print(analyze.render_regress(entries))
    return 1 if any(e["status"] == "regression" for e in entries) else 0


def cmd_obs_baseline(args) -> int:
    """Distil ``BENCH_*.json`` files into a committed baseline document
    (``repro obs baseline``)."""
    from .obs import analyze

    try:
        docs = [analyze.load_bench_file(p) for p in args.bench]
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    doc = analyze.make_baseline(docs)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        print("# wrote %s (%d suites)" % (args.output, len(doc["suites"])))
    else:
        print(text, end="")
    return 0


def cmd_obs_lint(args) -> int:
    """Trace-schema lint (``repro obs lint``) — same checks and exit
    codes as the ``python -m repro.obs`` module alias."""
    from .obs.__main__ import main as lint_main

    return lint_main(args.traces)


def _add_telemetry_flags(p: argparse.ArgumentParser,
                         json_flag: bool = False) -> None:
    """Attach the shared observability flags to a subcommand parser.

    ``--stats`` and ``--trace`` are available on every instrumented
    command; ``--json`` (machine-readable run report) only where the
    command defines a report shape (``check``, ``sat-check``,
    ``bdd-check``).
    """
    p.add_argument("--stats", action="store_true",
                   help="print a per-span stats table to stderr"
                        " (see docs/observability.md)")
    p.add_argument("--trace", metavar="FILE",
                   help="stream span records to FILE as JSONL"
                        " (repro-trace/1 schema)")
    if json_flag:
        p.add_argument("--json", action="store_true",
                       help="print a machine-readable run report"
                            " (repro-run-report/1) instead of the human"
                            " output")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="STG-based asynchronous interface analysis and"
                    " synthesis (DAC'98 methodology). SPEC is a .g file,"
                    " a bundled example name (see `examples`) or a"
                    " scalable family as muller_pipeline:N,"
                    " parallel_handshakes:N or sequencer:N.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="implementability report (Section 2)")
    p.add_argument("spec")
    p.add_argument("-v", "--verbose", action="store_true")
    _add_telemetry_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("states", help="binary-coded state graph (Figure 4)")
    p.add_argument("spec")
    _add_telemetry_flags(p)
    p.set_defaults(func=cmd_states)

    p = sub.add_parser("waveform", help="ASCII timing diagram (Figure 2)")
    p.add_argument("spec")
    p.set_defaults(func=cmd_waveform)

    p = sub.add_parser("reduce", help="linear reductions + SM components"
                                      " (Figure 6)")
    p.add_argument("spec")
    _add_telemetry_flags(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("resolve", help="CSC resolution by signal insertion"
                                       " (Section 3.1)")
    p.add_argument("spec")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("synthesize", help="logic synthesis (Section 3)")
    p.add_argument("spec")
    p.add_argument("--arch", choices=sorted(_ARCHITECTURES), default="cg",
                   help="complex gates (cg), generalized C (gc), RS latch"
                        " (sr)")
    p.add_argument("--decompose", action="store_true",
                   help="two-input hazard-free decomposition (Section 3.4)")
    p.add_argument("--verilog", action="store_true")
    p.add_argument("--verify", action="store_true",
                   help="verify the circuit against the specification")
    _add_telemetry_flags(p)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("dot", help="Graphviz DOT of the Petri net")
    p.add_argument("spec")
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("separation", help="max time separation of events"
                                          " (Section 5)")
    p.add_argument("spec")
    p.add_argument("early")
    p.add_argument("late")
    p.add_argument("--delays", required=True,
                   help="JSON file: {transition: [min, max], ...}")
    p.add_argument("--offset", type=int, default=0,
                   help="occurrence offset of `early` relative to `late`")
    p.set_defaults(func=cmd_separation)

    p = sub.add_parser("testbench", help="Verilog netlist + self-checking"
                                         " testbench (Section 6, ref [27])")
    p.add_argument("spec")
    p.add_argument("--arch", choices=sorted(_ARCHITECTURES), default="cg")
    p.add_argument("--cycles", type=int, default=4)
    p.set_defaults(func=cmd_testbench)

    p = sub.add_parser("coverability", help="Karp–Miller boundedness check")
    p.add_argument("spec")
    p.set_defaults(func=cmd_coverability)

    p = sub.add_parser("simulate", help="Monte-Carlo timed simulation")
    p.add_argument("spec")
    p.add_argument("--delays", required=True)
    p.add_argument("--cycles", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sat-check", help="SAT k-induction / bounded model"
                                         " checking (check --engines sat"
                                         " --inline)")
    p.add_argument("spec")
    p.add_argument("--property", choices=["deadlock", "reach", "csc",
                                          "consistency"],
                   default="deadlock")
    p.add_argument("--bound", type=int, default=20,
                   help="BMC unrolling depth / max induction k")
    p.add_argument("--target",
                   help="reach: space-separated marked places")
    p.add_argument("--cover", action="store_true",
                   help="reach: cover query (only marked places"
                        " constrained)")
    p.add_argument("--dimacs", metavar="FILE",
                   help="write the CNF the bounded query solves at --bound"
                        " in DIMACS format (satisfiable iff it finds a"
                        " counterexample)")
    _add_telemetry_flags(p, json_flag=True)
    p.set_defaults(func=cmd_sat_check)

    p = sub.add_parser("bdd-check", help="symbolic BDD fixpoint queries"
                                         " (no state graph; deadlock/csc:"
                                         " check --engines bdd --inline)")
    p.add_argument("spec")
    p.add_argument("--query", choices=["count", "deadlock", "csc"],
                   default="count")
    p.add_argument("--encoding", choices=["naive", "dense"], default="naive",
                   help="count: state encoding (dense = SM-component codes)")
    p.add_argument("--order", choices=["dfs", "sorted"], default="dfs",
                   help="count: BDD variable-order heuristic")
    _add_telemetry_flags(p, json_flag=True)
    p.set_defaults(func=cmd_bdd_check)

    p = sub.add_parser("check", help="fault-tolerant portfolio model"
                                     " checking (races the engines)")
    p.add_argument("spec")
    p.add_argument("--query", choices=["deadlock", "reach", "csc",
                                       "consistency"],
                   default="deadlock")
    p.add_argument("--portfolio", action="store_true",
                   help="race every applicable engine in worker processes"
                        " (default: the first engine able to prove the"
                        " property, alone and in-process)")
    p.add_argument("--engines",
                   help="comma-separated engines to race, from sat, bdd"
                        " and explicit (overrides the auto schedule;"
                        " implies racing)")
    p.add_argument("--target",
                   help="reach: space-separated marked places")
    p.add_argument("--cover", action="store_true",
                   help="reach: cover query (only marked places"
                        " constrained)")
    p.add_argument("--deadline", type=float, metavar="SECONDS",
                   help="per-worker wall-clock deadline (runs even the"
                        " single slot in a worker process)")
    p.add_argument("--bound", type=int,
                   help="BMC depth for bounded ladder rungs")
    p.add_argument("--max-k", type=int, dest="max_k",
                   help="k-induction depth limit")
    p.add_argument("--max-states", type=int, dest="max_states",
                   help="state budget for explicit ladder rungs")
    p.add_argument("--inline", action="store_true",
                   help="run the ladders in-process, one slot after"
                        " another (no worker processes)")
    p.add_argument("--no-validate", action="store_true", dest="no_validate",
                   help="skip cross-validation of the winning verdict")
    p.add_argument("--faults", metavar="SPEC",
                   help="install a fault-injection plan for this run"
                        " (REPRO_FAULTS syntax, e.g. 'kill:attempt=0')")
    _add_telemetry_flags(p, json_flag=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("examples", help="list bundled specifications")
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("obs", help="telemetry analysis: trace reports,"
                                   " diffs, lint, benchmark regression")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    q = obs_sub.add_parser("report", help="span-tree flamegraph of a"
                                          " JSONL trace")
    q.add_argument("trace", help="repro-trace/1 JSONL file (from --trace)")
    q.add_argument("--coverage", metavar="SPAN",
                   help="also print how much of SPAN's wall-clock its"
                        " child spans cover (e.g. portfolio.race)")
    q.set_defaults(func=cmd_obs_report)

    q = obs_sub.add_parser("diff", help="compare two traces per span name")
    q.add_argument("a", help="baseline trace (JSONL)")
    q.add_argument("b", help="candidate trace (JSONL)")
    q.set_defaults(func=cmd_obs_diff)

    q = obs_sub.add_parser("regress", help="judge BENCH_*.json against the"
                                           " committed baseline")
    q.add_argument("bench", nargs="+",
                   help="BENCH_<suite>.json files (repro-bench/1 or /2)")
    q.add_argument("--baseline", default="benchmarks/baselines.json",
                   help="repro-bench-baseline/1 document (default:"
                        " benchmarks/baselines.json)")
    q.add_argument("--rel-tol", type=float, dest="rel_tol", default=0.15,
                   help="relative threshold as a fraction of the baseline"
                        " mean (default 0.15)")
    q.add_argument("--sigma", type=float, default=3.0,
                   help="noise threshold in combined standard deviations"
                        " (default 3.0)")
    q.add_argument("--min-abs", type=float, dest="min_abs", default=0.001,
                   help="absolute floor in seconds below which movements"
                        " never count (default 0.001)")
    q.set_defaults(func=cmd_obs_regress)

    q = obs_sub.add_parser("baseline", help="distil BENCH_*.json files into"
                                            " a baseline document")
    q.add_argument("bench", nargs="+",
                   help="BENCH_<suite>.json files (later files win on"
                        " suite collisions)")
    q.add_argument("-o", "--output",
                   help="write the baseline here instead of stdout")
    q.set_defaults(func=cmd_obs_baseline)

    q = obs_sub.add_parser("lint", help="validate traces against the"
                                        " repro-trace/1 schema")
    q.add_argument("traces", nargs="+",
                   help="JSONL trace files to validate")
    q.set_defaults(func=cmd_obs_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
