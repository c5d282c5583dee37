"""Petri-net kernel: structure, token game, properties, structural theory,
reductions (paper Sections 1 and 2.2)."""

from .compiled import CompiledNet, compile_net, supports_compilation
from .marking import Marking
from .net import PetriNet, Place, Transition
from .token_game import (
    can_fire_sequence,
    enabled_transitions,
    fire,
    fire_safe,
    fire_sequence,
    is_enabled,
    language_prefixes,
    random_walk,
)
from .properties import (
    bound,
    find_deadlocks,
    home_markings,
    is_bounded,
    is_deadlock_free,
    is_live,
    is_reversible,
    is_safe,
    reachable_markings,
    unsafe_witness,
)
from .structure import (
    DenseEncoding,
    SMComponent,
    choice_places,
    incidence_matrix,
    invariant_overapproximation,
    invariant_value,
    is_free_choice,
    is_marked_graph,
    is_state_machine,
    merge_places,
    p_invariants,
    satisfies_invariants,
    sm_components,
    sm_cover,
    t_invariants,
)
from .reductions import (
    full_reduce,
    implicit_places,
    linear_reduce,
    remove_implicit_places,
)
from .coverability import (
    OMEGA,
    CoverabilityGraph,
    OmegaMarking,
    build_coverability_graph,
)
from .dot import net_to_dot, reachability_to_dot
from .library import dining_philosophers

__all__ = [
    "CompiledNet", "compile_net", "supports_compilation",
    "Marking", "PetriNet", "Place", "Transition",
    "can_fire_sequence", "enabled_transitions", "fire", "fire_safe",
    "fire_sequence", "is_enabled", "language_prefixes", "random_walk",
    "bound", "find_deadlocks", "home_markings", "is_bounded",
    "is_deadlock_free", "is_live", "is_reversible", "is_safe",
    "reachable_markings", "unsafe_witness",
    "DenseEncoding", "SMComponent", "choice_places", "incidence_matrix",
    "invariant_overapproximation", "invariant_value", "is_free_choice",
    "is_marked_graph", "is_state_machine", "merge_places", "p_invariants",
    "satisfies_invariants", "sm_components", "sm_cover", "t_invariants",
    "full_reduce", "implicit_places", "linear_reduce",
    "remove_implicit_places",
    "OMEGA", "CoverabilityGraph", "OmegaMarking",
    "build_coverability_graph",
    "net_to_dot", "reachability_to_dot",
    "dining_philosophers",
]
