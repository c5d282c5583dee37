"""Golden synthesis covers.

Every two-level cover of Section 3.2 is minimised from an ON-set and an
OFF-set of binary codes; every code of no state is left free.  Which
codes land in which set decides every gate the synthesis functions
return.  The values below were recorded before the covers were moved
onto the state graph's int codes, and hold after:

* per non-input signal, the ON- and OFF-set of
  ``derive_next_state_function`` and the set/reset ON- and OFF-sets
  that ``excitation_covers`` passes to ``minimize``;
* every ``minimize`` call of the three architectures, in call order,
  with the type of its arguments (the ON- and OFF-codes are passed
  positionally, as sorted lists);
* the complex-gate, gC and RS netlists as gate strings plus
  ``netlist.initial``;
* ``decompose`` of the four specs the ``library_flow`` benchmark
  decomposes, after ``resolve_csc``, in full;
* the exact :class:`~repro.errors.CSCError` text of every case that
  lacks CSC, in full.

Large sets and netlists are pinned by a digest of their ``repr``.  The
cases are the seven bundled specs, ``muller_pipeline`` 3-9,
``parallel_handshakes`` 2-5, ``sequencer`` 4-8, the 30 seeded
``ring_stg`` samples of ``tests/test_csc_search_golden.py`` and
``REPEATED_CODE``, whose clashing code is shared by three states, so its
next-state error must name the last earlier one.  No value here may
depend on ``PYTHONHASHSEED``; CI runs this file under two seeds.
"""

import hashlib

import pytest

import repro.synth.latch as latch
import repro.synth.nextstate as nextstate
from repro.boolmin.expr import Var
from repro.errors import CSCError
from repro.petri.compiled import CompiledNet
from repro.stg import (ALL_EXAMPLES, muller_pipeline, parallel_handshakes,
                       parse_g, sequencer)
from repro.synth import (derive_next_state_function, excitation_covers,
                         resolve_csc, synthesize_complex_gates,
                         synthesize_gc, synthesize_sr)
from repro.tech import decompose
from repro.tech.decompose import _reachable_extended_codes
from repro.ts.state_graph import build_state_graph

from test_csc_search_golden import random_samples


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _error(exc):
    return "CSCError: %s" % exc


def _netlist_text(netlist):
    return ([netlist.gates[out].describe() for out in sorted(netlist.gates)],
            sorted(netlist.initial.items()))


#: ``a`` toggles twice before ``z+``: code 00 is reached three times,
#: with next value 0 for ``z`` the first two and 1 the third.
REPEATED_CODE = """
.model repeated_code
.inputs a
.outputs z
.graph
a+ a-
a- a+/1
a+/1 a-/1
a-/1 z+
z+ z-
z- a+
.marking { <z-,a+> }
.end
"""


def cases():
    """Case name -> STG constructor."""
    table = dict(ALL_EXAMPLES)
    for n in range(3, 10):
        table["muller_pipeline_%d" % n] = lambda n=n: muller_pipeline(n)
    for n in range(2, 6):
        table["parallel_handshakes_%d" % n] = \
            lambda n=n: parallel_handshakes(n)
    for n in range(4, 9):
        table["sequencer_%d" % n] = lambda n=n: sequencer(n)
    for k, stg in enumerate(random_samples()):
        table["random_%02d" % k] = lambda stg=stg: stg
    table["repeated_code"] = lambda: parse_g(REPEATED_CODE)
    return table


CASES = cases()

#: The specs the ``library_flow`` benchmark decomposes.
DECOMPOSED = ("handshake_arbiter_free_choice", "latch_controller",
              "vme_read", "vme_read_csc")


def cover_record(stg):
    """The covers of one STG: sets and netlists as digests, counts and
    errors in full."""
    sg = build_state_graph(stg)
    calls = []
    minimize = nextstate.minimize

    def recording(on, off, n):
        calls.append((type(on).__name__, type(off).__name__, on, off, n))
        return minimize(on, off, n)

    record = {"states": len(sg)}
    errors = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nextstate, "minimize", recording)
        patch.setattr(latch, "minimize", recording)
        functions, covers = [], []
        for z in sorted(sg.stg.noninput_signals):
            try:
                fn = derive_next_state_function(sg, z)
                functions.append((z, sorted(fn.onset), sorted(fn.offset)))
            except CSCError as exc:
                functions.append((z, _error(exc)))
                errors.append(("nextstate", z, _error(exc)))
            del calls[:]
            try:
                excitation_covers(sg, z)
                covers.append((z, calls[0][2:4], calls[1][2:4]))
            except CSCError as exc:
                covers.append((z, _error(exc)))
                errors.append(("covers", z, _error(exc)))
        record["on_off"] = (
            sum(len(f[1]) for f in functions if len(f) == 3),
            sum(len(f[2]) for f in functions if len(f) == 3))
        record["nextstate"] = _digest(functions)
        record["covers"] = _digest(covers)
        del calls[:]
        for arch, synthesize in (("cg", synthesize_complex_gates),
                                 ("gc", synthesize_gc),
                                 ("sr", synthesize_sr)):
            try:
                netlist = synthesize(sg)
                record[arch] = (netlist.gate_count(), netlist.literal_count(),
                                _digest(_netlist_text(netlist)))
            except CSCError as exc:
                record[arch] = _error(exc)
        record["minimize"] = (len(calls), _digest(calls))
    record["errors"] = errors
    return record


def decompose_record(name):
    netlist = decompose(resolve_csc(ALL_EXAMPLES[name]()))
    return _netlist_text(netlist)


# -- recorded values --------------------------------------------------------- #

GOLDEN_COVERS = {
    'concurrent_latch_controller': {
        'states': 16,
        'on_off': (0, 0),
        'nextstate': '1b76f9fc19466c78',
        'covers': '7988791802ef5cf9',
        'minimize': (0, '4f53cda18c2baa0c'),
        'cg': ("CSCError: CSC conflict for signal 'Ain': states "
               '{<Rin+,Rout+>, p0} and {<Aout+,Ain+>, p0} share code 0010 but '
               'imply next values 0 and 1'),
        'gc': ("CSCError: CSC conflict for signal 'Ain': code 0010 is in both "
               'the ON-set and the OFF-set of its set cover'),
        'sr': ("CSCError: CSC conflict for signal 'Ain': code 0010 is in both "
               'the ON-set and the OFF-set of its set cover'),
        'errors': [('nextstate',
                    'Ain',
                    "CSCError: CSC conflict for signal 'Ain': states "
                    '{<Rin+,Rout+>, p0} and {<Aout+,Ain+>, p0} share code '
                    '0010 but imply next values 0 and 1'),
                   ('covers',
                    'Ain',
                    "CSCError: CSC conflict for signal 'Ain': code 0010 is in "
                    'both the ON-set and the OFF-set of its set cover'),
                   ('nextstate',
                    'Rout',
                    "CSCError: CSC conflict for signal 'Rout': states "
                    '{<Rin+,Rout+>, p0} and {<Aout+,Ain+>, p0} share code '
                    '0010 but imply next values 1 and 0'),
                   ('covers',
                    'Rout',
                    "CSCError: CSC conflict for signal 'Rout': code 0010 is "
                    'in both the ON-set and the OFF-set of its set cover')],
    },
    'handshake_arbiter_free_choice': {
        'states': 7,
        'on_off': (4, 10),
        'nextstate': '68b2c53421d2d985',
        'covers': '21d477f6725e836a',
        'minimize': (10, '8c1f9378099957d4'),
        'cg': (2, 2, '0f2920ed49b3e493'),
        'gc': (2, 4, 'b80b7d1c2e079820'),
        'sr': (2, 4, 'aee51a39c8790fa5'),
        'errors': [],
    },
    'latch_controller': {
        'states': 8,
        'on_off': (8, 8),
        'nextstate': '2306601ecd2680fe',
        'covers': '6d521af235bd580b',
        'minimize': (10, 'ef0cf44501b9e140'),
        'cg': (2, 2, '8c5f272e41d030f5'),
        'gc': (2, 4, 'c887a4eaf3f8bc9a'),
        'sr': (2, 4, '045f2397211009bd'),
        'errors': [],
    },
    'muller_pipeline_3': {
        'states': 16,
        'on_off': (24, 24),
        'nextstate': '0f7e58d38f040fb1',
        'covers': 'af1f7059fc01e82e',
        'minimize': (15, '7517b4dc74976137'),
        'cg': (3, 13, '8d54be86220aa7de'),
        'gc': (3, 10, '90881f6a6ceedb50'),
        'sr': (3, 10, 'bdf38cb0c77e1fcd'),
        'errors': [],
    },
    'muller_pipeline_4': {
        'states': 32,
        'on_off': (64, 64),
        'nextstate': '3daa2842d737d218',
        'covers': '9c2394026e335e9b',
        'minimize': (20, 'a0b9c9286e98b9cc'),
        'cg': (4, 19, '14afd585551ee908'),
        'gc': (4, 14, '378ebf1c5713bb5f'),
        'sr': (4, 14, '5fe695a20dea93f2'),
        'errors': [],
    },
    'muller_pipeline_5': {
        'states': 64,
        'on_off': (160, 160),
        'nextstate': 'b3bc31ab5dfc10c8',
        'covers': '67187e4430ecf082',
        'minimize': (25, '484a4984ee4b5b4e'),
        'cg': (5, 25, 'bdf437e954e2056a'),
        'gc': (5, 18, '194d908015d642bb'),
        'sr': (5, 18, 'b933b06b251a85c5'),
        'errors': [],
    },
    'muller_pipeline_6': {
        'states': 128,
        'on_off': (384, 384),
        'nextstate': '3c08f78b29456597',
        'covers': 'a56a134881cb3e3b',
        'minimize': (30, '0d365f385cf4347f'),
        'cg': (6, 31, 'd51ddb07954ba509'),
        'gc': (6, 22, '65027d90dfded749'),
        'sr': (6, 22, 'aaba5e39184b617b'),
        'errors': [],
    },
    'muller_pipeline_7': {
        'states': 256,
        'on_off': (896, 896),
        'nextstate': '6122a7bd729b707d',
        'covers': '0d4e2b6a6047c0bc',
        'minimize': (35, '6f5d879486b7a601'),
        'cg': (7, 37, 'b8c5fcb3ea33c8ba'),
        'gc': (7, 26, '4d445911ea542f0e'),
        'sr': (7, 26, '10651adc0cc35515'),
        'errors': [],
    },
    'muller_pipeline_8': {
        'states': 512,
        'on_off': (2048, 2048),
        'nextstate': '6e9b9b43d0fcaead',
        'covers': '90ed431c7a679c17',
        'minimize': (40, '016e00f85345b239'),
        'cg': (8, 43, 'c976f0316b4229e0'),
        'gc': (8, 30, '33e38c864ffc0dcb'),
        'sr': (8, 30, 'ab68e03ad763c4be'),
        'errors': [],
    },
    'muller_pipeline_9': {
        'states': 1024,
        'on_off': (4608, 4608),
        'nextstate': '9209c882a2744ac1',
        'covers': 'ee5b0fd3256fa1d8',
        'minimize': (45, 'df501915ca478dd1'),
        'cg': (9, 49, '67e89dcb9e57dbd8'),
        'gc': (9, 34, '52ef88ef12a44421'),
        'sr': (9, 34, 'f3c76f566614caeb'),
        'errors': [],
    },
    'mutex_controller': {
        'states': 12,
        'on_off': (8, 16),
        'nextstate': '19899c734f840c46',
        'covers': '91673a8c2b35c42d',
        'minimize': (10, '8c619a9cfdacd319'),
        'cg': (2, 4, 'e315e4f9d07aea2d'),
        'gc': (2, 6, 'f5832ade2ea90344'),
        'sr': (2, 6, '4f8e1a0ec94a2f34'),
        'errors': [],
    },
    'parallel_handshakes_2': {
        'states': 16,
        'on_off': (16, 16),
        'nextstate': 'a570f5388bd461c0',
        'covers': 'ca060bfe3c4aa1e6',
        'minimize': (10, '906e1e1e958180c9'),
        'cg': (2, 2, 'e91e800db90a41b5'),
        'gc': (2, 4, 'd7caae0eead52509'),
        'sr': (2, 4, 'd98258b6d2f700c6'),
        'errors': [],
    },
    'parallel_handshakes_3': {
        'states': 64,
        'on_off': (96, 96),
        'nextstate': 'fd5d14ed0b3bb006',
        'covers': '11cb0c12d93876e3',
        'minimize': (15, '4aeb0a0e7c529d37'),
        'cg': (3, 3, '6b49cbde6fff018b'),
        'gc': (3, 6, '1dcfb2b0defe9c35'),
        'sr': (3, 6, '8b78d73d69a71a64'),
        'errors': [],
    },
    'parallel_handshakes_4': {
        'states': 256,
        'on_off': (512, 512),
        'nextstate': '6cd033e23d80bde3',
        'covers': '9c466f8e872ce332',
        'minimize': (20, '787cc0c827e0c1c1'),
        'cg': (4, 4, 'b09f5b1648a3a48d'),
        'gc': (4, 8, '129d2ea08f999d47'),
        'sr': (4, 8, 'd6fa6c1344686bb1'),
        'errors': [],
    },
    'parallel_handshakes_5': {
        'states': 1024,
        'on_off': (2560, 2560),
        'nextstate': '1074fa57cfeda682',
        'covers': '35ddb887b78349c8',
        'minimize': (25, '80b8c672b2b205ea'),
        'cg': (5, 5, '98200ff728a5676a'),
        'gc': (5, 10, '28cb43e2f216d668'),
        'sr': (5, 10, '49314ee8fcbe8559'),
        'errors': [],
    },
    'random_00': {
        'states': 4,
        'on_off': (0, 0),
        'nextstate': 'da3e78230188675d',
        'covers': '774b1c7e6f27f0fc',
        'minimize': (0, '4f53cda18c2baa0c'),
        'cg': ("CSCError: CSC conflict for signal 's0': states {<s0+,s1+>, "
               '<s0-,s1+>} and {<s1-,s0->} share code 10 but imply next '
               'values 1 and 0'),
        'gc': ("CSCError: CSC conflict for signal 's0': code 10 is in both "
               'the ON-set and the OFF-set of its reset cover'),
        'sr': ("CSCError: CSC conflict for signal 's0': code 10 is in both "
               'the ON-set and the OFF-set of its reset cover'),
        'errors': [('nextstate',
                    's0',
                    "CSCError: CSC conflict for signal 's0': states "
                    '{<s0+,s1+>, <s0-,s1+>} and {<s1-,s0->} share code 10 but '
                    'imply next values 1 and 0'),
                   ('covers',
                    's0',
                    "CSCError: CSC conflict for signal 's0': code 10 is in "
                    'both the ON-set and the OFF-set of its reset cover'),
                   ('nextstate',
                    's1',
                    "CSCError: CSC conflict for signal 's1': states "
                    '{<s0+,s1+>, <s0-,s1+>} and {<s1-,s0->} share code 10 but '
                    'imply next values 1 and 0'),
                   ('covers',
                    's1',
                    "CSCError: CSC conflict for signal 's1': code 10 is in "
                    'both the ON-set and the OFF-set of its set cover')],
    },
    'random_01': {
        'states': 4,
        'on_off': (0, 0),
        'nextstate': '60f8464751a981a7',
        'covers': 'c12a3c7375ae9912',
        'minimize': (0, '4f53cda18c2baa0c'),
        'cg': ("CSCError: CSC conflict for signal 's0': states {<s1+,s0+>, "
               '<s1-,s0->} and {<s0-,s1->} share code 01 but imply next '
               'values 1 and 0'),
        'gc': ("CSCError: CSC conflict for signal 's0': code 01 is in both "
               'the ON-set and the OFF-set of its set cover'),
        'sr': ("CSCError: CSC conflict for signal 's0': code 01 is in both "
               'the ON-set and the OFF-set of its set cover'),
        'errors': [('nextstate',
                    's0',
                    "CSCError: CSC conflict for signal 's0': states "
                    '{<s1+,s0+>, <s1-,s0->} and {<s0-,s1->} share code 01 but '
                    'imply next values 1 and 0'),
                   ('covers',
                    's0',
                    "CSCError: CSC conflict for signal 's0': code 01 is in "
                    'both the ON-set and the OFF-set of its set cover'),
                   ('nextstate',
                    's1',
                    "CSCError: CSC conflict for signal 's1': states "
                    '{<s1+,s0+>, <s1-,s0->} and {<s0-,s1->} share code 01 but '
                    'imply next values 1 and 0'),
                   ('covers',
                    's1',
                    "CSCError: CSC conflict for signal 's1': code 01 is in "
                    'both the ON-set and the OFF-set of its reset cover')],
    },
    'random_02': {
        'states': 6,
        'on_off': (2, 3),
        'nextstate': 'cc7c961db1f55472',
        'covers': '16525bcd21aa0998',
        'minimize': (4, '8fd3e1090d204c3e'),
        'cg': ("CSCError: CSC conflict for signal 's2': states {<s2+,s0+>} "
               'and {<s1-,s2->} share code 001 but imply next values 1 and 0'),
        'gc': ("CSCError: CSC conflict for signal 's2': code 001 is in both "
               'the ON-set and the OFF-set of its reset cover'),
        'sr': ("CSCError: CSC conflict for signal 's2': code 001 is in both "
               'the ON-set and the OFF-set of its reset cover'),
        'errors': [('nextstate',
                    's2',
                    "CSCError: CSC conflict for signal 's2': states "
                    '{<s2+,s0+>} and {<s1-,s2->} share code 001 but imply '
                    'next values 1 and 0'),
                   ('covers',
                    's2',
                    "CSCError: CSC conflict for signal 's2': code 001 is in "
                    'both the ON-set and the OFF-set of its reset cover')],
    },
    'random_03': {
        'states': 6,
        'on_off': (7, 5),
        'nextstate': 'c7e592e9341323d1',
        'covers': '1fe7697716a43207',
        'minimize': (10, '97fad32ba699d7ce'),
        'cg': (2, 5, 'ee379c81170ef247'),
        'gc': (2, 5, 'f5ac405b746f9458'),
        'sr': (2, 5, 'e0753812e8d9beed'),
        'errors': [],
    },
    'random_04': {
        'states': 6,
        'on_off': (3, 2),
        'nextstate': 'c77d0e20b58f1b2b',
        'covers': '40cadaa3e47092b9',
        'minimize': (4, '17aa77f2d1a21f40'),
        'cg': ("CSCError: CSC conflict for signal 's2': states {<s1+,s0+>} "
               'and {<s0-,s2->} share code 011 but imply next values 1 and 0'),
        'gc': ("CSCError: CSC conflict for signal 's2': code 011 is in both "
               'the ON-set and the OFF-set of its reset cover'),
        'sr': ("CSCError: CSC conflict for signal 's2': code 011 is in both "
               'the ON-set and the OFF-set of its reset cover'),
        'errors': [('nextstate',
                    's2',
                    "CSCError: CSC conflict for signal 's2': states "
                    '{<s1+,s0+>} and {<s0-,s2->} share code 011 but imply '
                    'next values 1 and 0'),
                   ('covers',
                    's2',
                    "CSCError: CSC conflict for signal 's2': code 011 is in "
                    'both the ON-set and the OFF-set of its reset cover')],
    },
    'random_05': {
        'states': 4,
        'on_off': (0, 0),
        'nextstate': '4940af5347de1442',
        'covers': '774b1c7e6f27f0fc',
        'minimize': (0, '4f53cda18c2baa0c'),
        'cg': ("CSCError: CSC conflict for signal 's0': states {<s0+,s1+>} "
               'and {<s1-,s0->} share code 10 but imply next values 1 and 0'),
        'gc': ("CSCError: CSC conflict for signal 's0': code 10 is in both "
               'the ON-set and the OFF-set of its reset cover'),
        'sr': ("CSCError: CSC conflict for signal 's0': code 10 is in both "
               'the ON-set and the OFF-set of its reset cover'),
        'errors': [('nextstate',
                    's0',
                    "CSCError: CSC conflict for signal 's0': states "
                    '{<s0+,s1+>} and {<s1-,s0->} share code 10 but imply next '
                    'values 1 and 0'),
                   ('covers',
                    's0',
                    "CSCError: CSC conflict for signal 's0': code 10 is in "
                    'both the ON-set and the OFF-set of its reset cover'),
                   ('nextstate',
                    's1',
                    "CSCError: CSC conflict for signal 's1': states "
                    '{<s0+,s1+>} and {<s1-,s0->} share code 10 but imply next '
                    'values 1 and 0'),
                   ('covers',
                    's1',
                    "CSCError: CSC conflict for signal 's1': code 10 is in "
                    'both the ON-set and the OFF-set of its set cover')],
    },
    'random_06': {
        'states': 4,
        'on_off': (0, 0),
        'nextstate': 'fcb9ff7b7045bbd6',
        'covers': '4133af28df40632a',
        'minimize': (0, '4f53cda18c2baa0c'),
        'cg': ("CSCError: CSC conflict for signal 's1': states {<s0+,s1+>} "
               'and {<s1-,s0->} share code 10 but imply next values 1 and 0'),
        'gc': ("CSCError: CSC conflict for signal 's1': code 10 is in both "
               'the ON-set and the OFF-set of its set cover'),
        'sr': ("CSCError: CSC conflict for signal 's1': code 10 is in both "
               'the ON-set and the OFF-set of its set cover'),
        'errors': [('nextstate',
                    's1',
                    "CSCError: CSC conflict for signal 's1': states "
                    '{<s0+,s1+>} and {<s1-,s0->} share code 10 but imply next '
                    'values 1 and 0'),
                   ('covers',
                    's1',
                    "CSCError: CSC conflict for signal 's1': code 10 is in "
                    'both the ON-set and the OFF-set of its set cover')],
    },
    'random_07': {
        'states': 8,
        'on_off': (10, 14),
        'nextstate': '1ec671ed933f582b',
        'covers': '5c1a2aba6a23143c',
        'minimize': (15, '64c67fc01575d5d2'),
        'cg': (3, 9, '08bbf13cf9250cd3'),
        'gc': (3, 8, 'f192021a53b9c421'),
        'sr': (3, 8, 'b78637ff41aeb4d9'),
        'errors': [],
    },
    'random_08': {
        'states': 6,
        'on_off': (9, 9),
        'nextstate': '674529f3d39256b7',
        'covers': '3c85ab691fc167e8',
        'minimize': (15, 'b03d38fb0960ec0c'),
        'cg': (3, 3, 'f9c64d72597fdb67'),
        'gc': (3, 6, '99aca8590e406550'),
        'sr': (3, 6, 'd40b26cb7efecf23'),
        'errors': [],
    },
    'random_09': {
        'states': 4,
        'on_off': (0, 0),
        'nextstate': 'fcb9ff7b7045bbd6',
        'covers': '4133af28df40632a',
        'minimize': (0, '4f53cda18c2baa0c'),
        'cg': ("CSCError: CSC conflict for signal 's1': states {<s0+,s1+>} "
               'and {<s1-,s0->} share code 10 but imply next values 1 and 0'),
        'gc': ("CSCError: CSC conflict for signal 's1': code 10 is in both "
               'the ON-set and the OFF-set of its set cover'),
        'sr': ("CSCError: CSC conflict for signal 's1': code 10 is in both "
               'the ON-set and the OFF-set of its set cover'),
        'errors': [('nextstate',
                    's1',
                    "CSCError: CSC conflict for signal 's1': states "
                    '{<s0+,s1+>} and {<s1-,s0->} share code 10 but imply next '
                    'values 1 and 0'),
                   ('covers',
                    's1',
                    "CSCError: CSC conflict for signal 's1': code 10 is in "
                    'both the ON-set and the OFF-set of its set cover')],
    },
    'random_10': {
        'states': 4,
        'on_off': (2, 2),
        'nextstate': 'e93548b28405b804',
        'covers': '8ff29a530fbe72cf',
        'minimize': (5, 'd03d95d7a7a33d30'),
        'cg': (1, 1, '4aba89cc61e09ab7'),
        'gc': (1, 2, '5c7dc5dcaa1cdb01'),
        'sr': (1, 2, '7493c425d5e77772'),
        'errors': [],
    },
    'random_11': {
        'states': 4,
        'on_off': (2, 2),
        'nextstate': '81ec97cf6140975b',
        'covers': 'a8c45ca6ed8aadd3',
        'minimize': (5, '58a20ff6bc4a8786'),
        'cg': (1, 1, 'acb8176f2ab01235'),
        'gc': (1, 2, '9df33b59de96cf4d'),
        'sr': (1, 2, '56069b7536945f63'),
        'errors': [],
    },
    'random_12': {
        'states': 4,
        'on_off': (2, 2),
        'nextstate': '81ec97cf6140975b',
        'covers': 'a8c45ca6ed8aadd3',
        'minimize': (5, '58a20ff6bc4a8786'),
        'cg': (1, 1, 'acb8176f2ab01235'),
        'gc': (1, 2, '9df33b59de96cf4d'),
        'sr': (1, 2, '56069b7536945f63'),
        'errors': [],
    },
    'random_13': {
        'states': 8,
        'on_off': (16, 16),
        'nextstate': 'c892af942c1b69ed',
        'covers': 'fe29dd1cd7b0e40b',
        'minimize': (20, '95d7ab591ab53073'),
        'cg': (4, 10, '8b24538a39ebf967'),
        'gc': (4, 12, '334cbb1175d18fa0'),
        'sr': (4, 12, '3e48f7dec757d0f0'),
        'errors': [],
    },
    'random_14': {
        'states': 6,
        'on_off': (7, 5),
        'nextstate': 'faafc21d951a6c76',
        'covers': '044dc8843148f082',
        'minimize': (10, '4b82467d7b598a37'),
        'cg': (2, 5, 'b8b1a7664c9a293f'),
        'gc': (2, 5, '861c7603ae8b517a'),
        'sr': (2, 5, 'cc83e9be367e463b'),
        'errors': [],
    },
    'random_15': {
        'states': 6,
        'on_off': (7, 5),
        'nextstate': '2bca316586d91525',
        'covers': '153263bd2d026ffe',
        'minimize': (10, '1dece157ce32016d'),
        'cg': (2, 5, 'c271e87ebebffc73'),
        'gc': (2, 5, '6fc3f9f49771c70f'),
        'sr': (2, 5, '8272f8defe84b941'),
        'errors': [],
    },
    'random_16': {
        'states': 6,
        'on_off': (9, 9),
        'nextstate': '2a3d2ddcc68dfa80',
        'covers': 'fba1c558d8697781',
        'minimize': (15, '48aba14a39199497'),
        'cg': (3, 7, '676fecbcaac351c4'),
        'gc': (3, 8, '215d33dfa2f5f368'),
        'sr': (3, 8, '0d09ce9eed324dfb'),
        'errors': [],
    },
    'random_17': {
        'states': 6,
        'on_off': (2, 3),
        'nextstate': 'cc7c961db1f55472',
        'covers': '16525bcd21aa0998',
        'minimize': (4, '8fd3e1090d204c3e'),
        'cg': ("CSCError: CSC conflict for signal 's2': states {<s2+,s0+>} "
               'and {<s1-,s2->} share code 001 but imply next values 1 and 0'),
        'gc': ("CSCError: CSC conflict for signal 's2': code 001 is in both "
               'the ON-set and the OFF-set of its reset cover'),
        'sr': ("CSCError: CSC conflict for signal 's2': code 001 is in both "
               'the ON-set and the OFF-set of its reset cover'),
        'errors': [('nextstate',
                    's2',
                    "CSCError: CSC conflict for signal 's2': states "
                    '{<s2+,s0+>} and {<s1-,s2->} share code 001 but imply '
                    'next values 1 and 0'),
                   ('covers',
                    's2',
                    "CSCError: CSC conflict for signal 's2': code 001 is in "
                    'both the ON-set and the OFF-set of its reset cover')],
    },
    'random_18': {
        'states': 8,
        'on_off': (0, 0),
        'nextstate': 'a8efb60fd62d8415',
        'covers': 'b48f7672a95ec17c',
        'minimize': (0, '4f53cda18c2baa0c'),
        'cg': ("CSCError: CSC conflict for signal 's0': states {<s3+,s0+>} "
               'and {<s0-,s3->} share code 0111 but imply next values 1 and 0'),
        'gc': ("CSCError: CSC conflict for signal 's0': code 0111 is in both "
               'the ON-set and the OFF-set of its set cover'),
        'sr': ("CSCError: CSC conflict for signal 's0': code 0111 is in both "
               'the ON-set and the OFF-set of its set cover'),
        'errors': [('nextstate',
                    's0',
                    "CSCError: CSC conflict for signal 's0': states "
                    '{<s3+,s0+>} and {<s0-,s3->} share code 0111 but imply '
                    'next values 1 and 0'),
                   ('covers',
                    's0',
                    "CSCError: CSC conflict for signal 's0': code 0111 is in "
                    'both the ON-set and the OFF-set of its set cover'),
                   ('nextstate',
                    's1',
                    "CSCError: CSC conflict for signal 's1': states "
                    '{<s1+,s2+>} and {<s2-,s1->} share code 0100 but imply '
                    'next values 1 and 0'),
                   ('covers',
                    's1',
                    "CSCError: CSC conflict for signal 's1': code 0100 is in "
                    'both the ON-set and the OFF-set of its reset cover'),
                   ('nextstate',
                    's2',
                    "CSCError: CSC conflict for signal 's2': states "
                    '{<s2+,s3+>} and {<s3-,s2->} share code 0110 but imply '
                    'next values 1 and 0'),
                   ('covers',
                    's2',
                    "CSCError: CSC conflict for signal 's2': code 0100 is in "
                    'both the ON-set and the OFF-set of its set cover'),
                   ('nextstate',
                    's3',
                    "CSCError: CSC conflict for signal 's3': states "
                    '{<s3+,s0+>} and {<s0-,s3->} share code 0111 but imply '
                    'next values 1 and 0'),
                   ('covers',
                    's3',
                    "CSCError: CSC conflict for signal 's3': code 0110 is in "
                    'both the ON-set and the OFF-set of its set cover')],
    },
    'random_19': {
        'states': 6,
        'on_off': (9, 9),
        'nextstate': '2a3d2ddcc68dfa80',
        'covers': 'fba1c558d8697781',
        'minimize': (15, '48aba14a39199497'),
        'cg': (3, 7, '676fecbcaac351c4'),
        'gc': (3, 8, '215d33dfa2f5f368'),
        'sr': (3, 8, '0d09ce9eed324dfb'),
        'errors': [],
    },
    'random_20': {
        'states': 8,
        'on_off': (9, 5),
        'nextstate': '3c5e593682f33a60',
        'covers': 'a8e33b7f0033f1a2',
        'minimize': (0, '4f53cda18c2baa0c'),
        'cg': ("CSCError: CSC conflict for signal 's1': states {<s2+,s0+>} "
               'and {<s0-,s1->} share code 0111 but imply next values 1 and 0'),
        'gc': ("CSCError: CSC conflict for signal 's1': code 0111 is in both "
               'the ON-set and the OFF-set of its reset cover'),
        'sr': ("CSCError: CSC conflict for signal 's1': code 0111 is in both "
               'the ON-set and the OFF-set of its reset cover'),
        'errors': [('nextstate',
                    's1',
                    "CSCError: CSC conflict for signal 's1': states "
                    '{<s2+,s0+>} and {<s0-,s1->} share code 0111 but imply '
                    'next values 1 and 0'),
                   ('covers',
                    's1',
                    "CSCError: CSC conflict for signal 's1': code 0111 is in "
                    'both the ON-set and the OFF-set of its reset cover')],
    },
    'random_21': {
        'states': 4,
        'on_off': (0, 0),
        'nextstate': 'bcf29175578bb424',
        'covers': 'c12a3c7375ae9912',
        'minimize': (0, '4f53cda18c2baa0c'),
        'cg': ("CSCError: CSC conflict for signal 's0': states {<s1+,s0+>} "
               'and {<s0-,s1->} share code 01 but imply next values 1 and 0'),
        'gc': ("CSCError: CSC conflict for signal 's0': code 01 is in both "
               'the ON-set and the OFF-set of its set cover'),
        'sr': ("CSCError: CSC conflict for signal 's0': code 01 is in both "
               'the ON-set and the OFF-set of its set cover'),
        'errors': [('nextstate',
                    's0',
                    "CSCError: CSC conflict for signal 's0': states "
                    '{<s1+,s0+>} and {<s0-,s1->} share code 01 but imply next '
                    'values 1 and 0'),
                   ('covers',
                    's0',
                    "CSCError: CSC conflict for signal 's0': code 01 is in "
                    'both the ON-set and the OFF-set of its set cover'),
                   ('nextstate',
                    's1',
                    "CSCError: CSC conflict for signal 's1': states "
                    '{<s1+,s0+>} and {<s0-,s1->} share code 01 but imply next '
                    'values 1 and 0'),
                   ('covers',
                    's1',
                    "CSCError: CSC conflict for signal 's1': code 01 is in "
                    'both the ON-set and the OFF-set of its reset cover')],
    },
    'random_22': {
        'states': 8,
        'on_off': (16, 16),
        'nextstate': 'd30f1a22a7d83743',
        'covers': 'dd61b9fc75947f6b',
        'minimize': (20, 'e65c7b452853c785'),
        'cg': (4, 8, '5c4fc4004dda1b3c'),
        'gc': (4, 10, '6b3609913efaf10f'),
        'sr': (4, 10, 'ecc7d8a0f5cc4fdd'),
        'errors': [],
    },
    'random_23': {
        'states': 4,
        'on_off': (4, 4),
        'nextstate': 'eb0ad942ad5065c6',
        'covers': 'f86efcba03000f13',
        'minimize': (10, '70b0186857d8090f'),
        'cg': (2, 2, 'd70f7862b8e31cda'),
        'gc': (2, 4, 'c640ec6d94af6bb7'),
        'sr': (2, 4, '1ae69317a3e46ec6'),
        'errors': [],
    },
    'random_24': {
        'states': 8,
        'on_off': (2, 5),
        'nextstate': 'f59efee381fb3005',
        'covers': '0a2e07e95a54ad9d',
        'minimize': (4, '0e486e7168b76b38'),
        'cg': ("CSCError: CSC conflict for signal 's2': states {<s0+,s2+>} "
               'and {<s1-,s3->} share code 1001 but imply next values 1 and 0'),
        'gc': ("CSCError: CSC conflict for signal 's2': code 1001 is in both "
               'the ON-set and the OFF-set of its set cover'),
        'sr': ("CSCError: CSC conflict for signal 's2': code 1001 is in both "
               'the ON-set and the OFF-set of its set cover'),
        'errors': [('nextstate',
                    's2',
                    "CSCError: CSC conflict for signal 's2': states "
                    '{<s0+,s2+>} and {<s1-,s3->} share code 1001 but imply '
                    'next values 1 and 0'),
                   ('covers',
                    's2',
                    "CSCError: CSC conflict for signal 's2': code 1001 is in "
                    'both the ON-set and the OFF-set of its set cover'),
                   ('nextstate',
                    's3',
                    "CSCError: CSC conflict for signal 's3': states "
                    '{<s0+,s2+>} and {<s1-,s3->} share code 1001 but imply '
                    'next values 1 and 0'),
                   ('covers',
                    's3',
                    "CSCError: CSC conflict for signal 's3': code 1001 is in "
                    'both the ON-set and the OFF-set of its reset cover')],
    },
    'random_25': {
        'states': 4,
        'on_off': (4, 4),
        'nextstate': 'eb0ad942ad5065c6',
        'covers': 'f86efcba03000f13',
        'minimize': (10, '70b0186857d8090f'),
        'cg': (2, 2, 'd70f7862b8e31cda'),
        'gc': (2, 4, 'c640ec6d94af6bb7'),
        'sr': (2, 4, '1ae69317a3e46ec6'),
        'errors': [],
    },
    'random_26': {
        'states': 4,
        'on_off': (2, 2),
        'nextstate': '81ec97cf6140975b',
        'covers': 'a8c45ca6ed8aadd3',
        'minimize': (5, '58a20ff6bc4a8786'),
        'cg': (1, 1, 'acb8176f2ab01235'),
        'gc': (1, 2, '9df33b59de96cf4d'),
        'sr': (1, 2, '56069b7536945f63'),
        'errors': [],
    },
    'random_27': {
        'states': 6,
        'on_off': (6, 6),
        'nextstate': 'fba4c7537ad189c6',
        'covers': '8a8f337eaf2c8ca0',
        'minimize': (10, '9b94967d4c2019d9'),
        'cg': (2, 2, 'eac6a6cb45a1f325'),
        'gc': (2, 4, 'efc442de8877e830'),
        'sr': (2, 4, 'ea41ea0687e84319'),
        'errors': [],
    },
    'random_28': {
        'states': 6,
        'on_off': (2, 3),
        'nextstate': 'cc7c961db1f55472',
        'covers': '16525bcd21aa0998',
        'minimize': (4, '8fd3e1090d204c3e'),
        'cg': ("CSCError: CSC conflict for signal 's2': states {<s2+,s0+>} "
               'and {<s1-,s2->} share code 001 but imply next values 1 and 0'),
        'gc': ("CSCError: CSC conflict for signal 's2': code 001 is in both "
               'the ON-set and the OFF-set of its reset cover'),
        'sr': ("CSCError: CSC conflict for signal 's2': code 001 is in both "
               'the ON-set and the OFF-set of its reset cover'),
        'errors': [('nextstate',
                    's2',
                    "CSCError: CSC conflict for signal 's2': states "
                    '{<s2+,s0+>} and {<s1-,s2->} share code 001 but imply '
                    'next values 1 and 0'),
                   ('covers',
                    's2',
                    "CSCError: CSC conflict for signal 's2': code 001 is in "
                    'both the ON-set and the OFF-set of its reset cover')],
    },
    'random_29': {
        'states': 6,
        'on_off': (2, 3),
        'nextstate': '949ec0fa77a24f37',
        'covers': 'f6e3825bace54b0b',
        'minimize': (0, '4f53cda18c2baa0c'),
        'cg': ("CSCError: CSC conflict for signal 's0': states {<s1+,s0+>} "
               'and {<s2-,s1->} share code 010 but imply next values 1 and 0'),
        'gc': ("CSCError: CSC conflict for signal 's0': code 010 is in both "
               'the ON-set and the OFF-set of its set cover'),
        'sr': ("CSCError: CSC conflict for signal 's0': code 010 is in both "
               'the ON-set and the OFF-set of its set cover'),
        'errors': [('nextstate',
                    's0',
                    "CSCError: CSC conflict for signal 's0': states "
                    '{<s1+,s0+>} and {<s2-,s1->} share code 010 but imply '
                    'next values 1 and 0'),
                   ('covers',
                    's0',
                    "CSCError: CSC conflict for signal 's0': code 010 is in "
                    'both the ON-set and the OFF-set of its set cover'),
                   ('nextstate',
                    's1',
                    "CSCError: CSC conflict for signal 's1': states "
                    '{<s1+,s0+>} and {<s2-,s1->} share code 010 but imply '
                    'next values 1 and 0'),
                   ('covers',
                    's1',
                    "CSCError: CSC conflict for signal 's1': code 010 is in "
                    'both the ON-set and the OFF-set of its reset cover')],
    },
    'repeated_code': {
        'states': 6,
        'on_off': (0, 0),
        'nextstate': 'ff6e1b2c87bc6161',
        'covers': '9ddcdad978002038',
        'minimize': (0, '4f53cda18c2baa0c'),
        'cg': ("CSCError: CSC conflict for signal 'z': states {<a-,a+/1>} and "
               '{<a-/1,z+>} share code 00 but imply next values 0 and 1'),
        'gc': ("CSCError: CSC conflict for signal 'z': code 00 is in both the "
               'ON-set and the OFF-set of its set cover'),
        'sr': ("CSCError: CSC conflict for signal 'z': code 00 is in both the "
               'ON-set and the OFF-set of its set cover'),
        'errors': [('nextstate',
                    'z',
                    "CSCError: CSC conflict for signal 'z': states "
                    '{<a-,a+/1>} and {<a-/1,z+>} share code 00 but imply next '
                    'values 0 and 1'),
                   ('covers',
                    'z',
                    "CSCError: CSC conflict for signal 'z': code 00 is in "
                    'both the ON-set and the OFF-set of its set cover')],
    },
    'sequencer_4': {
        'states': 8,
        'on_off': (16, 16),
        'nextstate': '54474059581c3aa8',
        'covers': '309a8390a95207cf',
        'minimize': (20, 'e498c09937f84ef5'),
        'cg': (4, 4, '71250a33418b68f0'),
        'gc': (4, 8, '8da6db299bb355d5'),
        'sr': (4, 8, 'fbfaf53dd15a429d'),
        'errors': [],
    },
    'sequencer_5': {
        'states': 10,
        'on_off': (25, 25),
        'nextstate': 'c9f9fdbcc4af4713',
        'covers': '2b9160334348fe20',
        'minimize': (25, 'd5c1fde61c2d4ebc'),
        'cg': (5, 5, 'ac4abc4b5ad09a05'),
        'gc': (5, 10, 'b760220b23f651b0'),
        'sr': (5, 10, 'ea90bac3117889d2'),
        'errors': [],
    },
    'sequencer_6': {
        'states': 12,
        'on_off': (36, 36),
        'nextstate': '600aebe2014f0eda',
        'covers': 'da1cf274f16f6096',
        'minimize': (30, 'f8a1927585af5b34'),
        'cg': (6, 6, '369db1e82119a056'),
        'gc': (6, 12, 'f41ce20e07a0d920'),
        'sr': (6, 12, 'a1d4f933dbffc513'),
        'errors': [],
    },
    'sequencer_7': {
        'states': 14,
        'on_off': (49, 49),
        'nextstate': 'da13997edf1eb3ca',
        'covers': '94926910238d62ea',
        'minimize': (35, 'd3ec84223b824356'),
        'cg': (7, 7, '1ea6b0b359a5ae05'),
        'gc': (7, 14, '8c8b5340d3248cdf'),
        'sr': (7, 14, 'd00d793836c4064a'),
        'errors': [],
    },
    'sequencer_8': {
        'states': 16,
        'on_off': (64, 64),
        'nextstate': 'ff8b51b0b9b26e55',
        'covers': 'ac65ad82033d70a5',
        'minimize': (40, '2ab9522f4ea51c5f'),
        'cg': (8, 8, '978851ba4a42a9e0'),
        'gc': (8, 16, '169d73d81a39458a'),
        'sr': (8, 16, '4969278cf9b3ea92'),
        'errors': [],
    },
    'vme_read': {
        'states': 14,
        'on_off': (3, 10),
        'nextstate': '5a9347e45db825bb',
        'covers': 'e0f073b9379ee63c',
        'minimize': (0, '4f53cda18c2baa0c'),
        'cg': ("CSCError: CSC conflict for signal 'D': states {p4} and {p2, "
               'p9} share code 01011 but imply next values 1 and 0'),
        'gc': ("CSCError: CSC conflict for signal 'D': code 01011 is in both "
               'the ON-set and the OFF-set of its set cover'),
        'sr': ("CSCError: CSC conflict for signal 'D': code 01011 is in both "
               'the ON-set and the OFF-set of its set cover'),
        'errors': [('nextstate',
                    'D',
                    "CSCError: CSC conflict for signal 'D': states {p4} and "
                    '{p2, p9} share code 01011 but imply next values 1 and 0'),
                   ('covers',
                    'D',
                    "CSCError: CSC conflict for signal 'D': code 01011 is in "
                    'both the ON-set and the OFF-set of its set cover'),
                   ('nextstate',
                    'LDS',
                    "CSCError: CSC conflict for signal 'LDS': states {p4} and "
                    '{p2, p9} share code 01011 but imply next values 1 and 0'),
                   ('covers',
                    'LDS',
                    "CSCError: CSC conflict for signal 'LDS': code 01011 is "
                    'in both the ON-set and the OFF-set of its reset cover')],
    },
    'vme_read_csc': {
        'states': 16,
        'on_off': (21, 43),
        'nextstate': '52b5cfeca2d86342',
        'covers': '658c7407f8944f00',
        'minimize': (20, 'a033099e407dc50c'),
        'cg': (4, 9, '76a3e5183a7c77f8'),
        'gc': (4, 11, '486401f3380c3957'),
        'sr': (4, 11, 'c11f568e22f461ff'),
        'errors': [],
    },
    'vme_read_write': {
        'states': 24,
        'on_off': (0, 0),
        'nextstate': '25764d81205e182b',
        'covers': '546d9bf18f3fc374',
        'minimize': (0, '4f53cda18c2baa0c'),
        'cg': ("CSCError: CSC conflict for signal 'D': states "
               '{<LDTACK+/1,D+/1>} and {<DSr+,LDS+/1>, p2} share code 010011 '
               'but imply next values 1 and 0'),
        'gc': ("CSCError: CSC conflict for signal 'D': code 001011 is in both "
               'the ON-set and the OFF-set of its set cover'),
        'sr': ("CSCError: CSC conflict for signal 'D': code 001011 is in both "
               'the ON-set and the OFF-set of its set cover'),
        'errors': [('nextstate',
                    'D',
                    "CSCError: CSC conflict for signal 'D': states "
                    '{<LDTACK+/1,D+/1>} and {<DSr+,LDS+/1>, p2} share code '
                    '010011 but imply next values 1 and 0'),
                   ('covers',
                    'D',
                    "CSCError: CSC conflict for signal 'D': code 001011 is in "
                    'both the ON-set and the OFF-set of its set cover'),
                   ('nextstate',
                    'DTACK',
                    "CSCError: CSC conflict for signal 'DTACK': states "
                    '{<D-/2,DTACK+/2>} and {<DSw+,D+/2>, p2} share code '
                    '001011 but imply next values 1 and 0'),
                   ('covers',
                    'DTACK',
                    "CSCError: CSC conflict for signal 'DTACK': code 001011 "
                    'is in both the ON-set and the OFF-set of its set cover'),
                   ('nextstate',
                    'LDS',
                    "CSCError: CSC conflict for signal 'LDS': states "
                    '{<LDTACK+/1,D+/1>} and {<DSr+,LDS+/1>, p2} share code '
                    '010011 but imply next values 1 and 0'),
                   ('covers',
                    'LDS',
                    "CSCError: CSC conflict for signal 'LDS': code 001011 is "
                    'in both the ON-set and the OFF-set of its reset cover')],
    },
}

GOLDEN_DECOMPOSE = {
    'handshake_arbiter_free_choice': (
        ['a1 = r1', 'a2 = r2'],
        [('a1', 0), ('a2', 0)],
    ),
    'latch_controller': (
        ['Ain = Aout', 'Rout = Rin'],
        [('Ain', 0), ('Rout', 0)],
    ),
    'vme_read': (
        ["D = LDTACK map0'",
         'DTACK = D',
         "LDS = D + csc0'",
         "csc0 = DSr' + map0",
         'map0 = LDTACK csc0'],
        [('D', 0), ('DTACK', 0), ('LDS', 0), ('csc0', 1)],
    ),
    'vme_read_csc': (
        ['D = LDTACK map0',
         'DTACK = D',
         'LDS = D + csc0',
         'csc0 = DSr map0',
         "map0 = LDTACK' + csc0"],
        [('D', 0), ('DTACK', 0), ('LDS', 0), ('csc0', 0)],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_covers_are_pinned(name):
    assert cover_record(CASES[name]()) == GOLDEN_COVERS[name]


@pytest.mark.parametrize("name", DECOMPOSED)
def test_decompositions_are_pinned(name):
    assert decompose_record(name) == GOLDEN_DECOMPOSE[name]


def _refuse_decode(self, code):
    raise AssertionError("decoded state %r" % code)


@pytest.mark.parametrize("name", ["vme_read_csc", "muller_pipeline_5",
                                  "sequencer_4"])
def test_synthesis_decodes_no_marking(name, monkeypatch):
    sg = build_state_graph(CASES[name]())
    assert sg.graph.compiled is not None
    monkeypatch.setattr(CompiledNet, "decode", _refuse_decode)
    for synthesize in (synthesize_complex_gates, synthesize_gc,
                       synthesize_sr):
        synthesize(sg)
    z = sg.stg.noninput_signals[0]
    _reachable_extended_codes(sg, {"map0": Var(z)})
    assert sg.graph._markings is None
