"""The canonical state-space budgets, in one place.

Every exhaustive exploration in the library is bounded by a state
budget so a blow-up surfaces as a structured
:class:`~repro.errors.StateExplosionError` instead of an unbounded
burn.  Historically each call site hardcoded its own default (the
builder and :mod:`repro.petri.properties` said one million, implicit
place detection said 100 000, decomposition said 200 000) and the
numbers drifted independently.  They now all derive from
:data:`DEFAULT_STATE_BOUND` here:

* :data:`DEFAULT_STATE_BOUND` — full reachability-graph construction,
  the Karp–Miller coverability graph and whole-net property checks
  (``build_reachability_graph``, ``build_coverability_graph``, the
  checks of :mod:`repro.petri.properties`, ``check_implementability``);
* :data:`REDUCTION_STATE_BOUND` — the behavioural implicit-place test
  of :mod:`repro.petri.reductions`, which re-explores after every
  removal and therefore budgets one tenth of the default per pass;
* :data:`DECOMPOSE_STATE_BOUND` — hazard-free decomposition
  (:mod:`repro.tech.decompose`) and spec-level composition
  (:mod:`repro.verify.spec_composition`), which build one state graph
  per candidate and budget one fifth of the default per build;
* :data:`COMPOSE_STATE_BOUND` — circuit-against-specification product
  exploration (:mod:`repro.verify.composition`), whose product spaces
  run larger than either factor and budget one half of the default.

**Override path.**  Every one of these is a keyword default, never a
hard limit: each entry point takes an explicit ``max_states=`` that
wins over the constant (``build_reachability_graph(net,
max_states=10_000_000)``, ``decompose(stg, max_states=...)``,
``remove_implicit_places(net, max_states=...)``).  Processes that need
a different global default can set the ``REPRO_STATE_BOUND``
environment variable before the first ``repro`` import; the derived
budgets scale with it.
"""

from __future__ import annotations

import os

ENV_STATE_BOUND = "REPRO_STATE_BOUND"


def _default_bound() -> int:
    """The process-wide default bound, honouring ``REPRO_STATE_BOUND``."""
    raw = os.environ.get(ENV_STATE_BOUND, "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                "%s must be an integer, got %r" % (ENV_STATE_BOUND, raw))
        if value <= 0:
            raise ValueError(
                "%s must be positive, got %d" % (ENV_STATE_BOUND, value))
        return value
    return 1_000_000


#: Default budget for full reachability exploration.
DEFAULT_STATE_BOUND = _default_bound()

#: Budget per implicit-place re-exploration (reductions re-explore after
#: every removal, so each pass gets a tenth of the default).
REDUCTION_STATE_BOUND = max(1, DEFAULT_STATE_BOUND // 10)

#: Budget per candidate state graph during hazard-free decomposition
#: and per composed spec during spec-level composition.
DECOMPOSE_STATE_BOUND = max(1, DEFAULT_STATE_BOUND // 5)

#: Budget for circuit-vs-spec product exploration.
COMPOSE_STATE_BOUND = max(1, DEFAULT_STATE_BOUND // 2)
