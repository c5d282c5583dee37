"""Golden CSC insertion search and implementability reports.

The CSC search validates every candidate insertion on its state graph
(bounded, consistent, persistent, live) and keeps its conflict count and
state count.  Which candidates pass, and with which counts, decides the
signal ``resolve_csc`` inserts and so every circuit synthesised after
it.  The values below were recorded before the state-graph layer was
moved onto numbered states and int codes, and hold after:

* every ``_insertion_metrics`` result, in call order, of ``resolve_csc``
  and ``resolve_by_concurrency_reduction`` on the seven bundled specs
  (``-`` for a rejected candidate, ``conflicts/states`` otherwise; 718
  candidates in all);
* ``enumerate_insertions(full_only=False)`` at every ``resolve_csc``
  step, as ``(rise_before, fall_before, conflicts, states)``;
* the STG each search picks, as a digest of its ``.g`` text;
* ``check_implementability`` on the bundled specs, on ``random_stg()``
  samples drawn from a fixed seed, and on an inconsistent, an unbounded
  and an over-budget input: state count, verdict flags, the consistency
  error text and ``str()`` of every USC and CSC conflict in order.
  Persistency violations are compared as sorted lists.

No value here may depend on ``PYTHONHASHSEED``; CI runs this file under
two seeds.
"""

import hashlib
import random

import pytest

import repro.synth.csc as csc
from repro.analysis import check_implementability
from repro.errors import CSCError, ReproError
from repro.petri import is_live, is_safe
from repro.stg import ALL_EXAMPLES, parse_g, write_g

from test_random_models import ring_stg


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _metrics_text(result):
    return "-" if result is None else "%d/%d" % result


def search_record(name):
    """Both CSC searches on one bundled spec, with every candidate's
    metrics and every ``enumerate_insertions`` list recorded."""
    metrics, steps = [], []
    insertion_metrics = csc._insertion_metrics
    enumerate_insertions = csc.enumerate_insertions

    def recording_metrics(stg, max_states):
        result = insertion_metrics(stg, max_states)
        metrics.append(_metrics_text(result))
        return result

    def recording_enumerate(*args, **kwargs):
        candidates = enumerate_insertions(*args, **kwargs)
        steps.append([(c.rise_before, c.fall_before, c.conflicts, c.states)
                      for c in candidates])
        return candidates

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(csc, "_insertion_metrics", recording_metrics)
        patch.setattr(csc, "enumerate_insertions", recording_enumerate)
        try:
            chosen = _digest(write_g(csc.resolve_csc(ALL_EXAMPLES[name]())))
        except CSCError as exc:
            chosen = "CSCError: %s" % exc
        insertion = " ".join(metrics)
        del metrics[:]
        try:
            reduced, pair = csc.resolve_by_concurrency_reduction(
                ALL_EXAMPLES[name]())
            reduction = (pair, _digest(write_g(reduced)))
        except CSCError as exc:
            reduction = "CSCError: %s" % exc
    return {"resolve_csc": (insertion, steps, chosen),
            "concurrency_reduction": (" ".join(metrics), reduction)}


def report_record(stg, max_states=None):
    """A report's fields, conflicts in order, violations sorted; or the
    error a budget overrun raises."""
    try:
        if max_states is None:
            report = check_implementability(stg)
        else:
            report = check_implementability(stg, max_states=max_states)
    except ReproError as exc:
        return ("%s: %s" % (type(exc).__name__, exc),)
    return (report.states, report.bounded, report.consistent,
            report.consistency_error,
            [str(c) for c in report.usc_conflicts],
            [str(c) for c in report.csc_conflicts],
            sorted(str(v) for v in report.persistency_violations))


#: Reaches one state by ``a+`` and by ``b+``: two switching parities.
PARITY_CLASH = """
.model parity_clash
.outputs a b
.graph
p0 a+ b+
a+ p1
b+ p1
p1 a-
a- p0
.marking { p0 }
.end
"""


def special_inputs():
    """The inconsistent, unbounded and over-budget inputs."""
    read = ALL_EXAMPLES["vme_read"]()
    latch = ALL_EXAMPLES["concurrent_latch_controller"]()
    return {
        "alternation": (read.insert_signal("csc0", rise_before=["DTACK-"],
                                           fall_before=["LDS-"]), None),
        "parity": (parse_g(PARITY_CLASH), None),
        "unbounded": (latch.add_ordering_arc("Ain+", "Ain-",
                                             initially_marked=True), None),
        "over_budget": (ALL_EXAMPLES["vme_read_write"](), 20),
    }


def random_samples(count=30, seed=2026):
    """``random_stg()``'s STGs with its random choices drawn from a
    seeded ``random.Random``, so the samples do not depend on the
    Hypothesis version; kept, like ``random_stg()``, only when safe and
    live."""
    rng = random.Random(seed)

    def permutation(items):
        items = list(items)
        rng.shuffle(items)
        return items

    samples = []
    while len(samples) < count:
        stg = ring_stg(rng.randint, permutation, lambda: rng.random() < 0.5,
                       rng.choice)
        if is_safe(stg.net) and is_live(stg.net):
            samples.append(stg)
    return samples


def random_record(stg):
    record = report_record(stg)
    return (_digest(write_g(stg)), record[0], _digest(repr(record)))


# -- recorded values --------------------------------------------------------- #

GOLDEN_SEARCH = {
    'concurrent_latch_controller': {
        'resolve_csc': (
            ('3/22 4/20 - 3/22 1/20 - 4/20 1/20 4/22 - - 4/22 1/26 2/24 - '
             '1/26 1/24 1/26 1/24 - 1/26 1/24 2/24 1/24 1/27 1/24 1/22 - -'
             ' 1/27 - 0/27 1/26 1/26 1/24 - 1/24 1/24 1/24 1/22 0/27 1/24'),
            [
                [('Ain-', 'Rout+', 1, 20), ('Rout+', 'Ain-', 1, 20)],
                [('Rout-', 'csc0-', 0, 27), ('csc0-', 'Rout-', 0, 27)],
            ],
            '84ed93b4f302692f',
        ),
        'concurrency_reduction': (
            ('3/16 - - 3/16 1/14 - - 3/16 - 3/16 1/10 - 3/16 - 3/16 - - '
             '3/16 3/16 - 1/8 - 1/12 - - 3/16 - 3/16 3/16 - 3/16 - 3/16 - '
             '- - - 3/16 3/16 - - 3/16 1/12 - 3/16 - 3/16 - 3/16 - 2/12 - '
             '2/14 - - 3/16'),
            ('CSCError: no single concurrency reduction resolves the CSC '
             "conflicts of 'concurrent_latch_controller'"),
        ),
    },
    'handshake_arbiter_free_choice': {
        'resolve_csc': ('', [], '1e7319c8971e892d'),
        'concurrency_reduction': ('', (('', ''), '1e7319c8971e892d')),
    },
    'latch_controller': {
        'resolve_csc': ('', [], '255e695da6ba685c'),
        'concurrency_reduction': ('', (('', ''), '255e695da6ba685c')),
    },
    'mutex_controller': {
        'resolve_csc': ('', [], 'b3adfccd1cc6d20d'),
        'concurrency_reduction': ('', (('', ''), 'b3adfccd1cc6d20d')),
    },
    'vme_read': {
        'resolve_csc': (
            ('1/16 1/16 1/18 1/16 2/18 1/16 1/16 1/18 0/16 1/18 1/16 1/16 '
             '1/18 0/16 1/18 1/18 1/18 1/18 0/18 - 1/16 0/16 0/16 0/18 '
             '1/18 2/18 1/18 1/18 - 1/18'),
            [
                [
                    ('D-', 'LDS+', 0, 16),
                    ('DTACK+', 'LDS+', 0, 16),
                    ('LDS+', 'D-', 0, 16),
                    ('LDS+', 'DTACK+', 0, 16),
                    ('DTACK-', 'LDS+', 0, 18),
                    ('LDS+', 'DTACK-', 0, 18),
                ],
            ],
            'a0bc15a64900e618',
        ),
        'concurrency_reduction': (
            ('1/14 - 1/14 - 1/14 - - 1/14 1/14 - - 1/14 - 1/14 1/14 - - '
             '1/14 1/14 - 1/14 - 1/14 - 1/14 - 1/14 - 1/14 - - - - 1/14 '
             '1/14 - - 1/14 1/14 - - 1/14 1/14 - - 1/14 1/14 - 1/14 - - '
             '1/14 1/14 - - 1/14 - 1/14 - 1/14 - 1/14 1/12 - 1/14 - 1/14 -'
             ' 1/14 - 1/14 - 1/14 - - 1/14 - 1/14 - 1/14 0/12 - 1/14 1/14 '
             '- 1/14 - 1/14 - 1/14 - - 1/14 1/14 - - 1/14 - 1/14 - 1/14 '
             '0/10 - 1/14 - 1/14'),
            (('LDTACK-', 'DTACK-'), 'b5561f1313db4232'),
        ),
    },
    'vme_read_csc': {
        'resolve_csc': ('', [], '5ca6f91f3e381b9a'),
        'concurrency_reduction': ('', (('', ''), '5ca6f91f3e381b9a')),
    },
    'vme_read_write': {
        'resolve_csc': (
            ('- 3/26 - 3/26 - - 3/26 - - - - - - - 3/28 - 4/28 - - 2/28 - '
             '- - - 3/26 - - 3/26 - - 2/26 - - - - - - 3/28 - - 3/26 - - '
             '3/26 - - - - 3/26 - 3/26 - - - 2/26 - - - - - - 4/28 - 3/26 '
             '- - - 2/26 - - - - - - - - - - - - - 3/31 2/29 3/29 0/29 '
             '3/26 - 2/26 - 2/26 - - - - - - - - 2/28 - 3/26 - 2/26 - - - '
             '- - - - - - - - - - - - - 4/31 4/31 3/31 - - - - 3/31 - - - '
             '3/30 4/30 - - - - - 2/29 - - 4/31 3/30 - 2/28 - - - - 3/29 -'
             ' - 4/31 4/30 - 1/28 - - - - - - 0/29 3/31 - 2/28 1/28'),
            [
                [
                    ('DTACK-', 'LDS+/1,LDS+/2', 0, 29),
                    ('LDS+/1,LDS+/2', 'DTACK-', 0, 29),
                    ('DTACK+/1,DTACK+/2', 'LDS+/1,LDS+/2', 1, 28),
                    ('LDS+/1,LDS+/2', 'DTACK+/1,DTACK+/2', 1, 28),
                    ('D-/1', 'LDS+/1', 2, 26),
                    ('DTACK+/1', 'LDS+/1', 2, 26),
                    ('DTACK+/2', 'LDS+/2', 2, 26),
                    ('LDS+/1', 'D-/1', 2, 26),
                    ('LDS+/1', 'DTACK+/1', 2, 26),
                    ('LDS+/2', 'DTACK+/2', 2, 26),
                    ('D+/2', 'LDS+/2', 2, 28),
                    ('D-/1,D-/2', 'LDS+/1,LDS+/2', 2, 28),
                    ('LDS+/1,LDS+/2', 'D-/1,D-/2', 2, 28),
                    ('LDS+/2', 'D+/2', 2, 28),
                    ('D-/1,D-/2', 'DTACK-', 2, 29),
                    ('DTACK-', 'D-/1,D-/2', 2, 29),
                ],
            ],
            'cfbcd8541e0677c1',
        ),
        'concurrency_reduction': (
            ('- - 3/24 - - - 3/24 - - - - - - 3/24 - - - - - - - - 3/24 - '
             '- - 3/24 - - - - - 3/24 - - - - 3/24 - - - - - 3/24 - - - - '
             '- 3/24 - - - - - - - 3/24 - - - - 3/24 - - - - - - 3/24 - - '
             '3/24 - - - 3/24 - - - 3/24 - - - - - 3/24 - - - - - - 3/24 -'
             ' - 3/24 - - - - 3/24 - - - - - 3/24 - - - - - - 3/24 - - - '
             '3/24 - - - 3/24 - - - - - 3/24 - - - - - - 3/24 - - - 3/24 -'
             ' - - 3/24 - - - - - 3/24 - - - 3/24 - - 3/24 - - - - - - - -'
             ' 3/24 - - - - - - - 3/24 - - - 3/24 - - - - - - - 3/24 - - -'
             ' - - - - - - - - - - - - - - - 3/22 - 3/24 - - - 3/24 - - - '
             '3/24 - - - - - - - - - - - - 3/24 - - 3/24 - - - 3/24 - - - '
             '- - - - - - - - - - - - - - - - 0/20 - - - - 3/24 - - - 3/24'
             ' - - - 3/24 - - - - - - 3/24 - - - - - - - 3/24 - - 3/24 - -'
             ' - 3/24 - - - - - - 3/24 - - - - - - - - - - - - - - 0/16 - '
             '- - - - 3/24'),
            (('LDTACK-', 'DTACK-'), 'a6b6f7a783070b14'),
        ),
    },
}

GOLDEN_REPORTS = {
    'concurrent_latch_controller': (
        16,
        True,
        True,
        None,
        [
            ('USCConflict(code=(0, 0, 1, 0), state_a={<Rin+,Rout+>, p0}, '
             'state_b={<Aout+,Ain+>, p0})'),
            ('USCConflict(code=(0, 1, 1, 0), state_a={<Aout+,Ain+>, '
             '<Rout-,Aout->}, state_b={<Rin+,Rout+>, <Rout-,Aout->})'),
            ('USCConflict(code=(0, 1, 1, 1), state_a={<Aout+,Ain+>, '
             '<Aout+,Rout->}, state_b={<Aout+,Rout->, <Rin+,Rout+>})'),
        ],
        [
            ('CSC conflict at code 0010 between {<Rin+,Rout+>, p0} '
             "([('Rout', '+')]) and {<Aout+,Ain+>, p0} ([('Ain', '+')])"),
            ('CSC conflict at code 0110 between {<Aout+,Ain+>, '
             "<Rout-,Aout->} ([('Ain', '+')]) and {<Rin+,Rout+>, "
             '<Rout-,Aout->} ([])'),
            ('CSC conflict at code 0111 between {<Aout+,Ain+>, '
             "<Aout+,Rout->} ([('Ain', '+'), ('Rout', '-')]) and "
             "{<Aout+,Rout->, <Rin+,Rout+>} ([('Rout', '-')])"),
        ],
        [],
    ),
    'handshake_arbiter_free_choice': (7, True, True, None, [], [], []),
    'latch_controller': (8, True, True, None, [], [], []),
    'mutex_controller': (
        12,
        True,
        True,
        None,
        [],
        [],
        [
            ('output persistency violation in {<r1+,a1+>, <r2+,a2+>, res}:'
             ' a1+ disabled by a2+'),
            ('output persistency violation in {<r1+,a1+>, <r2+,a2+>, res}:'
             ' a2+ disabled by a1+'),
        ],
    ),
    'vme_read': (
        14,
        True,
        True,
        None,
        [
            ('USCConflict(code=(0, 1, 0, 1, 1), state_a={p4}, state_b={p2,'
             ' p9})'),
        ],
        [
            ("CSC conflict at code 01011 between {p4} ([('D', '+')]) and "
             "{p2, p9} ([('LDS', '-')])"),
        ],
        [],
    ),
    'vme_read_csc': (16, True, True, None, [], [], []),
    'vme_read_write': (
        24,
        True,
        True,
        None,
        [
            ('USCConflict(code=(0, 0, 1, 0, 1, 1), '
             'state_a={<D-/2,DTACK+/2>}, state_b={<DSw+,D+/2>, p2})'),
            ('USCConflict(code=(0, 1, 0, 0, 1, 1), state_a={<DSr+,LDS+/1>,'
             ' p2}, state_b={<LDTACK+/1,D+/1>})'),
            ('USCConflict(code=(1, 0, 1, 0, 1, 1), '
             'state_a={<LDTACK+/2,D-/2>}, state_b={<D+/2,LDS+/2>, p2})'),
        ],
        [
            ('CSC conflict at code 001011 between {<D-/2,DTACK+/2>} '
             "([('DTACK', '+')]) and {<DSw+,D+/2>, p2} ([('D', '+'), "
             "('LDS', '-')])"),
            ('CSC conflict at code 010011 between {<DSr+,LDS+/1>, p2} '
             "([('LDS', '-')]) and {<LDTACK+/1,D+/1>} ([('D', '+')])"),
            ('CSC conflict at code 101011 between {<LDTACK+/2,D-/2>} '
             "([('D', '-')]) and {<D+/2,LDS+/2>, p2} ([('LDS', '-')])"),
        ],
        [],
    ),
}

GOLDEN_SPECIAL = {
    'alternation': (
        0,
        True,
        False,
        ("signal 'csc0': transitions 'csc0+' and 'csc0-' imply different "
         'initial values — rising/falling edges do not alternate'),
        [],
        [],
        [],
    ),
    'parity': (
        0,
        True,
        False,
        ('state {p1} reached with different switching parities — '
         'inconsistent STG'),
        [],
        [],
        [],
    ),
    'unbounded': (
        0,
        False,
        False,
        ("firing 'Ain+' from {<Ain+<Ain->, <Aout+,Ain+>, <Aout+,Rout->} "
         "violates 1-safeness at ['<Ain+<Ain->']"),
        [],
        [],
        [],
    ),
    'over_budget': (
        'StateExplosionError: reachability graph exceeded 20 states',
    ),
}

GOLDEN_RANDOM = [
    ('d4ae690a221c0542', 4, 'be252e1a3bf86732'),
    ('7525b78d0e5bf6b3', 4, '1c437c7f73d1eeee'),
    ('9b594f1aecef39a6', 6, 'e4d9aec1c211dd6d'),
    ('1584ea54674783c5', 6, 'eb3677baa0c95f91'),
    ('fb4d81fdd1e3093c', 6, 'dd9f3516eeefe709'),
    ('f6a6b9cbe6393656', 4, 'b75627598e610daf'),
    ('6d1c02a6793fa819', 4, '2e9f43ca34b6f4ea'),
    ('5b565e6dd6d48e1f', 8, '5c1fda68f2c32422'),
    ('01df2e711022a7e3', 6, 'eb3677baa0c95f91'),
    ('6d1c02a6793fa819', 4, '2e9f43ca34b6f4ea'),
    ('694a698c62602214', 4, '7bcc64feff37ed59'),
    ('82d7e2cbe5e7fbf0', 4, '7bcc64feff37ed59'),
    ('1e478577c8a11a3d', 4, '7bcc64feff37ed59'),
    ('a62b972666158d12', 8, '5c1fda68f2c32422'),
    ('08c698bb998f40f2', 6, 'eb3677baa0c95f91'),
    ('89f6b1be6a91ae96', 6, 'eb3677baa0c95f91'),
    ('1369a612c2f2e315', 6, 'eb3677baa0c95f91'),
    ('9b594f1aecef39a6', 6, 'e4d9aec1c211dd6d'),
    ('b775763a5c39b55c', 8, 'e76ac59900f0faa0'),
    ('af87dfe50a7d2238', 6, 'eb3677baa0c95f91'),
    ('7a6f897e739d1379', 8, '0ba71950c0a800a9'),
    ('8116c2c31be4696a', 4, '2fa1934d6dcf405c'),
    ('c43ff3ef62c6e74c', 8, '5c1fda68f2c32422'),
    ('77b29a8d980e49d5', 4, '7bcc64feff37ed59'),
    ('af395db9c57490b8', 8, '965a4168b1f49e24'),
    ('77b29a8d980e49d5', 4, '7bcc64feff37ed59'),
    ('82d7e2cbe5e7fbf0', 4, '7bcc64feff37ed59'),
    ('1112cb768d007fa7', 6, 'eb3677baa0c95f91'),
    ('9b594f1aecef39a6', 6, 'e4d9aec1c211dd6d'),
    ('d08f100d06e10c1a', 6, 'fff747f60a43cc78'),
]


# -- the tests ----------------------------------------------------------------- #

@pytest.mark.parametrize("name", sorted(ALL_EXAMPLES))
def test_csc_search_is_pinned(name):
    assert search_record(name) == GOLDEN_SEARCH[name]


@pytest.mark.parametrize("name", sorted(ALL_EXAMPLES))
def test_bundled_reports_are_pinned(name):
    assert report_record(ALL_EXAMPLES[name]()) == GOLDEN_REPORTS[name]


@pytest.mark.parametrize("kind", ["alternation", "parity", "unbounded",
                                  "over_budget"])
def test_special_reports_are_pinned(kind):
    stg, max_states = special_inputs()[kind]
    assert report_record(stg, max_states) == GOLDEN_SPECIAL[kind]


def test_random_reports_are_pinned():
    assert [random_record(stg) for stg in random_samples()] == GOLDEN_RANDOM
