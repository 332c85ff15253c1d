"""stratisolve: word-problem decision procedures for 2-stratifold groups.

A 2-stratifold is described by a labelled bipartite graph (white surface
vertices, black singular-circle vertices, integer edge labels).  This
package builds the natural presentation of its fundamental group,
decomposes it as a graph of groups with decidable vertex handles, and
decides triviality of words by loop-word reduction — together with the
corollary decisions (abelianness, simple connectivity, element orders,
wedge-of-spheres recognition) and independent brute-force oracles.
"""

from importlib import resources

from .decisions import (
    PruneReport,
    PruneStep,
    is_abelian,
    is_simply_connected,
    prune,
    wedge_check,
    zero_terminal_order,
)
from .errors import StratisolveError, UndeterminedError
from .graph_model import (
    StratifoldGraph,
    canonical_tree,
    normalize_orientations,
    parse_graph,
    serialize_graph,
)
from .oracle import (
    Budget,
    cayley_wp,
    derive_trivial,
    finite_quotient_search,
    todd_coxeter,
)
from .order_engine import OrderAssignment, resolve_orders
from .pipeline import compile
from .presentation import (
    Presentation,
    abelianization,
    format_word,
    natural_presentation,
    parse_word,
)
from .serre_solver import Verdict, solve, word_problem

__version__ = "1.0.0"

FIXTURE_NAMES = (
    "FX-RP2",
    "FX-TOR",
    "FX-KLB",
    "FX-Z3",
    "FX-S2W",
    "FX-BS",
    "FX-ORB",
    "FX-TRI(2,3,5)",
    "FX-TRI(2,3,7)",
)


def fixture_path(name: str):
    """Filesystem path of a bundled example graph (see FIXTURE_NAMES)."""
    path = resources.files(__name__) / "fixtures" / name
    if not path.is_file():
        raise FileNotFoundError(f"no bundled fixture named {name!r}")
    return path


def load_fixture(name: str) -> StratifoldGraph:
    return parse_graph(fixture_path(name).read_text())
