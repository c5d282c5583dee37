"""Golden reports: the outputs that decode markings.

Analysis and synthesis run on state numbers; a marking is decoded only
where a report prints or returns one.  The values below were recorded
before the state graph lost its Marking-keyed methods and the explicit
portfolio runners stopped building a transition system, and hold
after:

* the stdout and exit code of ``repro states`` and ``repro analyze -v``
  on the seven bundled specs and on ``muller_pipeline:3``;
* per CSC-resolved bundled spec, the ``next_state_table`` rows of every
  non-input signal and the ``monotonicity_report``;
* the states, arcs and predecessor lists of
  ``compose_specifications(spec, spec.mirror())``, or its error text;
* the payloads of ``deadlock_explicit`` and of ``reach_explicit`` on six
  targets per model, exact and cover.

Long texts are pinned by a line count and a digest of their ``repr``.
No value here may depend on ``PYTHONHASHSEED``; CI runs this file under
two seeds.
"""

import contextlib
import hashlib
import io

import pytest

from repro.cli import main
from repro.errors import ReproError, UnboundedError
from repro.petri.library import dining_philosophers
from repro.petri.net import PetriNet
from repro.portfolio import tasks
from repro.stg import ALL_EXAMPLES
from repro.synth import resolve_csc
from repro.synth.latch import monotonicity_report
from repro.synth.nextstate import next_state_table
from repro.ts import build_state_graph, explore
from repro.verify.spec_composition import compose_specifications


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _error(exc):
    return "%s: %s" % (type(exc).__name__, exc)


CLI_SPECS = sorted(ALL_EXAMPLES) + ["muller_pipeline:3"]

#: The net models of the explicit runners: the bundled specs and two
#: sizes of the philosophers, whose one deadlock is the payload.
NET_MODELS = dict(ALL_EXAMPLES)
NET_MODELS["dining_philosophers_3"] = lambda: dining_philosophers(3)
NET_MODELS["dining_philosophers_4"] = lambda: dining_philosophers(4)

MAX_STATES = 100_000


def cli_record(argv):
    """Exit code, line count and digest of one command's stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    text = out.getvalue()
    return code, text.count("\n"), _digest(text)


def synthesis_report_record(name):
    """The next-state table rows and the monotonicity report of the
    CSC-resolved spec."""
    sg = build_state_graph(resolve_csc(ALL_EXAMPLES[name]()))
    tables = [(z, next_state_table(sg, z))
              for z in sorted(sg.stg.noninput_signals)]
    try:
        report = monotonicity_report(sg)
        monotonicity = sorted(report.items())
        violations = sum(len(v) for v in report.values())
    except ReproError as exc:
        monotonicity = violations = _error(exc)
    return {
        "rows": sum(len(rows) for _, rows in tables),
        "tables": _digest(tables),
        "violations": violations,
        "monotonicity": _digest(monotonicity),
    }


def composition_record(name):
    """States, arcs and predecessors of the spec against its mirror, in
    the transition system's insertion order."""
    spec = ALL_EXAMPLES[name]()
    try:
        ts = compose_specifications(spec, spec.mirror())
    except ReproError as exc:
        return _error(exc)
    states = [repr(s) for s in ts.states]
    arcs = [repr(arc) for arc in ts.arcs()]
    preds = [repr(ts.predecessors(s)) for s in ts.states]
    return {
        "initial": repr(ts.initial),
        "states": (len(states), _digest(states)),
        "arcs": (len(arcs), _digest(arcs)),
        "predecessors": _digest(preds),
        "events": sorted(ts.events),
    }


def reach_targets(model):
    """Six targets: the initial, last and middle markings, one place of
    the middle marking, every place at once, and the empty marking."""
    graph = explore(model, max_states=MAX_STATES)
    n = len(graph)
    net = model.net if hasattr(model, "net") else model
    middle = dict(graph.marking(n // 2).items())
    last_place = sorted(middle)[-1]
    return [
        dict(graph.marking(0).items()),
        dict(graph.marking(n - 1).items()),
        middle,
        {last_place: 1},
        {p: 1 for p in sorted(net.places)},
        {},
    ]


def reach_record(name):
    """``reach_explicit`` payloads, exact then cover, per target, each on
    a fresh model."""
    payloads = [
        tasks.reach_explicit(NET_MODELS[name](), target,
                             max_states=MAX_STATES, cover=cover)
        for target in reach_targets(NET_MODELS[name]())
        for cover in (False, True)]
    return (sum(p["verdict"] == "reached" for p in payloads),
            _digest(payloads))


# -- recorded values --------------------------------------------------------- #

GOLDEN_CLI = {
    'concurrent_latch_controller':
        {'states': (0, 17, '5636e885c95a9461'),
         'analyze': (1, 11, '3eb46b33a8e79fcd')},
    'handshake_arbiter_free_choice':
        {'states': (0, 8, '4d77f1ccefbf172e'),
         'analyze': (0, 8, 'a0fa692082f42708')},
    'latch_controller':
        {'states': (0, 9, 'c14824a245b34c44'),
         'analyze': (0, 8, '2e807c7c49efb017')},
    'mutex_controller':
        {'states': (0, 13, '7f6af21f2481091d'),
         'analyze': (1, 10, '39db8dba9e43be3f')},
    'vme_read':
        {'states': (0, 15, 'c95d70abf6433451'),
         'analyze': (1, 9, '2978bbf05f110be9')},
    'vme_read_csc':
        {'states': (0, 17, 'bc345683381a8e07'),
         'analyze': (0, 8, 'bf6304459a473eab')},
    'vme_read_write':
        {'states': (0, 25, 'b26a6c055e46d1c7'),
         'analyze': (1, 11, '258fe770c22aefca')},
    'muller_pipeline:3':
        {'states': (0, 17, '037ba755acba4752'),
         'analyze': (0, 8, 'e0dc4d56bcc3d4a1')},
}

GOLDEN_SYNTHESIS = {
    'concurrent_latch_controller':
        {'rows': 108,
         'tables': 'f833a94e37aae0e7',
         'violations': 0,
         'monotonicity': '3b5de4c34aaf37b5'},
    'handshake_arbiter_free_choice':
        {'rows': 14,
         'tables': '66c568339c34c68e',
         'violations': 0,
         'monotonicity': '344f370f866ccc22'},
    'latch_controller':
        {'rows': 16,
         'tables': '587add8caeb6f109',
         'violations': 0,
         'monotonicity': 'a958830a8d8b0edd'},
    'mutex_controller':
        {'rows': 24,
         'tables': 'd16940f81badf852',
         'violations': 2,
         'monotonicity': '224ecba476636eca'},
    'vme_read':
        {'rows': 64,
         'tables': '7b61a6a7cee0d665',
         'violations': 0,
         'monotonicity': '0b01b3d70efd485e'},
    'vme_read_csc':
        {'rows': 64,
         'tables': '9b6117df4145017a',
         'violations': 0,
         'monotonicity': '0b01b3d70efd485e'},
    'vme_read_write':
        {'rows': 116,
         'tables': '8a122e94afa05cba',
         'violations': 0,
         'monotonicity': '0b01b3d70efd485e'},
}

GOLDEN_COMPOSITION = {
    'concurrent_latch_controller':
        {'initial': '({<Ain-,Rin+>, p0}, {<Ain-,Rin+>, p0})',
         'states': (16, 'b34a0945892a8059'),
         'arcs': (24, '98c69dc34354022f'),
         'predecessors': '7f8c039dcd540028',
         'events': ['Ain+', 'Ain-', 'Aout+', 'Aout-', 'Rin+', 'Rin-', 'Rout+',
                    'Rout-']},
    'handshake_arbiter_free_choice':
        {'initial': '({p0}, {p0})',
         'states': (7, '5833b1552a6a9fcb'),
         'arcs': (8, 'd493f5c64e0ea58f'),
         'predecessors': '5806fab03ee54d94',
         'events': ['a1+', 'a1-', 'a2+', 'a2-', 'r1+', 'r1-', 'r2+', 'r2-']},
    'latch_controller':
        {'initial': '({<Ain-,Rin+>}, {<Ain-,Rin+>})',
         'states': (8, '60ca3aa86965a915'),
         'arcs': (8, '1117413e3a2e6537'),
         'predecessors': '39beb5bc32a026ac',
         'events': ['Ain+', 'Ain-', 'Aout+', 'Aout-', 'Rin+', 'Rin-', 'Rout+',
                    'Rout-']},
    'mutex_controller':
        {'initial': '({<a1-,r1+>, <a2-,r2+>, res}, {<a1-,r1+>, <a2-,r2+>, '
                    'res})',
         'states': (12, 'b36cbf42254d0405'),
         'arcs': (20, '60a7bd47dd87b81d'),
         'predecessors': '670ef880545d09f5',
         'events': ['a1+', 'a1-', 'a2+', 'a2-', 'r1+', 'r1-', 'r2+', 'r2-']},
    'vme_read':
        {'initial': '({p0, p1}, {p0, p1})',
         'states': (14, '320b8d2827485837'),
         'arcs': (18, 'f5acdaf31c628636'),
         'predecessors': '94e4d8c581ce166d',
         'events': ['D+', 'D-', 'DSr+', 'DSr-', 'DTACK+', 'DTACK-', 'LDS+',
                    'LDS-', 'LDTACK+', 'LDTACK-']},
    'vme_read_csc':
        "ModelError: signal 'csc0' driven by both sides",
    'vme_read_write':
        {'initial': '({p0, p3}, {p0, p3})',
         'states': (24, '98853a9e8914735b'),
         'arcs': (33, '23ad8790d08c3c08'),
         'predecessors': 'bf3369ceb0862445',
         'events': ['D+', 'D-', 'DSr+', 'DSr-', 'DSw+', 'DSw-', 'DTACK+',
                    'DTACK-', 'LDS+', 'LDS-', 'LDTACK+', 'LDTACK-']},
}

GOLDEN_DEADLOCK = {
    'concurrent_latch_controller':
        {'verdict': 'deadlock-free',
         'definitive': True,
         'method': 'explicit',
         'evidence': 'explicit exploration of all 16 states found no dead '
                     'marking',
         'states': 16},
    'dining_philosophers_3':
        {'verdict': 'deadlock',
         'definitive': True,
         'method': 'explicit',
         'evidence': 'explicit exploration found 1 dead marking(s) among 14 '
                     'states',
         'dead_marking': {'left0': 1, 'left1': 1, 'left2': 1},
         'states': 14},
    'dining_philosophers_4':
        {'verdict': 'deadlock',
         'definitive': True,
         'method': 'explicit',
         'evidence': 'explicit exploration found 1 dead marking(s) among 34 '
                     'states',
         'dead_marking': {'left0': 1, 'left1': 1, 'left2': 1, 'left3': 1},
         'states': 34},
    'handshake_arbiter_free_choice':
        {'verdict': 'deadlock-free',
         'definitive': True,
         'method': 'explicit',
         'evidence': 'explicit exploration of all 7 states found no dead '
                     'marking',
         'states': 7},
    'latch_controller':
        {'verdict': 'deadlock-free',
         'definitive': True,
         'method': 'explicit',
         'evidence': 'explicit exploration of all 8 states found no dead '
                     'marking',
         'states': 8},
    'mutex_controller':
        {'verdict': 'deadlock-free',
         'definitive': True,
         'method': 'explicit',
         'evidence': 'explicit exploration of all 12 states found no dead '
                     'marking',
         'states': 12},
    'vme_read':
        {'verdict': 'deadlock-free',
         'definitive': True,
         'method': 'explicit',
         'evidence': 'explicit exploration of all 14 states found no dead '
                     'marking',
         'states': 14},
    'vme_read_csc':
        {'verdict': 'deadlock-free',
         'definitive': True,
         'method': 'explicit',
         'evidence': 'explicit exploration of all 16 states found no dead '
                     'marking',
         'states': 16},
    'vme_read_write':
        {'verdict': 'deadlock-free',
         'definitive': True,
         'method': 'explicit',
         'evidence': 'explicit exploration of all 24 states found no dead '
                     'marking',
         'states': 24},
}

GOLDEN_REACH = {
    'concurrent_latch_controller':
        (8, 'd23c92c793adcf6a'),
    'dining_philosophers_3':
        (8, '990d1ce227e2c26e'),
    'dining_philosophers_4':
        (8, '70da84d289b38a91'),
    'handshake_arbiter_free_choice':
        (9, '7f6fb2952c59777c'),
    'latch_controller':
        (9, '6881b78f8aa24b53'),
    'mutex_controller':
        (8, 'f189badbe29f15d2'),
    'vme_read':
        (8, '9b6717f8d8a3c381'),
    'vme_read_csc':
        (9, 'f3d68d8d39e67788'),
    'vme_read_write':
        (9, '718f457253d3eede'),
}

GOLDEN_UNSAFE = "firing 't' from {a, b} violates 1-safeness at ['b']"


# -- tests ------------------------------------------------------------------- #

@pytest.mark.parametrize("spec", CLI_SPECS)
def test_states_listing_is_pinned(spec):
    assert cli_record(["states", spec]) == GOLDEN_CLI[spec]["states"]


@pytest.mark.parametrize("spec", CLI_SPECS)
def test_verbose_analysis_is_pinned(spec):
    assert cli_record(["analyze", "-v", spec]) == GOLDEN_CLI[spec]["analyze"]


@pytest.mark.parametrize("name", sorted(ALL_EXAMPLES))
def test_next_state_tables_and_monotonicity_are_pinned(name):
    assert synthesis_report_record(name) == GOLDEN_SYNTHESIS[name]


@pytest.mark.parametrize("name", sorted(ALL_EXAMPLES))
def test_composition_with_mirror_is_pinned(name):
    assert composition_record(name) == GOLDEN_COMPOSITION[name]


@pytest.mark.parametrize("name", sorted(NET_MODELS))
def test_explicit_deadlock_payload_is_pinned(name):
    payload = tasks.deadlock_explicit(NET_MODELS[name](),
                                      max_states=MAX_STATES)
    assert payload == GOLDEN_DEADLOCK[name]


@pytest.mark.parametrize("name", sorted(NET_MODELS))
def test_explicit_reach_payloads_are_pinned(name):
    assert reach_record(name) == GOLDEN_REACH[name]


def test_explicit_runners_refuse_an_unsafe_net():
    # t moves the token of a onto b, which already holds one
    net = PetriNet("unsafe")
    net.add_place("a", 1)
    net.add_place("b", 1)
    net.add_transition("t")
    net.add_arc("a", "t")
    net.add_arc("t", "b")
    with pytest.raises(UnboundedError) as info:
        tasks.deadlock_explicit(net, max_states=MAX_STATES)
    assert str(info.value) == GOLDEN_UNSAFE
    with pytest.raises(UnboundedError) as info:
        tasks.reach_explicit(net, {"b": 1}, max_states=MAX_STATES)
    assert str(info.value) == GOLDEN_UNSAFE


