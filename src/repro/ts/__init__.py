"""Transition systems, reachability graphs and binary-coded state graphs
(paper Section 1.4)."""

from .builder import (
    NumberedGraph,
    build_reachability_graph,
    choose_engine,
    explore,
)
from .state_graph import StateGraph, build_state_graph
from .transition_system import TransitionSystem

__all__ = [
    "TransitionSystem",
    "NumberedGraph",
    "build_reachability_graph",
    "choose_engine",
    "explore",
    "StateGraph",
    "build_state_graph",
]
