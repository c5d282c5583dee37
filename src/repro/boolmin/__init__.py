"""Two-level boolean minimization: cube algebra, exact minimization from
the ON- and OFF-sets with Petrick covering, hazard-free minimization,
expression AST and parser (substrate for Section 3)."""

from .cube import (
    Cube,
    cover_contains,
    cover_to_str,
    cube_contains,
    cube_covers,
    cube_from_str,
    cube_intersection,
    cube_minterms,
    cube_size,
    cube_to_str,
    cubes_intersect,
    int_to_minterm,
    literal_count,
    minterm_to_int,
)
from .expr import (
    And,
    BoolExpr,
    Const,
    FALSE,
    Not,
    Or,
    TRUE,
    Var,
    all_assignments,
    equivalent,
    expr_to_cubes,
    from_cubes,
    parse_expr,
)
from .quine_mccluskey import minimize, prime_implicants, verify_cover
from .hazardfree import (
    InputTransition,
    check_cover_hazard_free,
    dhf_prime_implicants,
    is_dhf_implicant,
    minimize_hazard_free,
)

__all__ = [
    "Cube", "cover_contains", "cover_to_str", "cube_contains", "cube_covers",
    "cube_from_str", "cube_intersection", "cube_minterms", "cube_size",
    "cube_to_str", "cubes_intersect", "int_to_minterm", "literal_count",
    "minterm_to_int",
    "And", "BoolExpr", "Const", "FALSE", "Not", "Or", "TRUE", "Var",
    "all_assignments", "equivalent", "expr_to_cubes", "from_cubes",
    "parse_expr",
    "minimize", "prime_implicants", "verify_cover",
    "InputTransition", "check_cover_hazard_free", "dhf_prime_implicants",
    "is_dhf_implicant", "minimize_hazard_free",
]
