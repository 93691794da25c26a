"""Maximal independent set engines.

Six interchangeable engines, all driven by the same priority array π:

======================  ==========================================  =============
engine                  paper reference                             result
======================  ==========================================  =============
``sequential``          Algorithm 1 (greedy loop)                   lex-first MIS
``parallel``            Algorithm 2 (step-synchronous peeling)      lex-first MIS
``prefix``              Algorithm 3 (prefix-based, linear work)     lex-first MIS
``rootset``             Lemma 4.2 (root-set traversal, linear work) lex-first MIS
``rootset-vec``         Lemma 4.2 on vectorized frontier kernels    lex-first MIS
``luby``                Luby's Algorithm A (baseline)               *a* MIS
======================  ==========================================  =============

All but ``luby`` return bit-identical results for the same π — the paper's
determinism property; :func:`maximal_independent_set` is the front door.
"""

from repro.core.mis.sequential import sequential_greedy_mis
from repro.core.mis.parallel import parallel_greedy_mis
from repro.core.mis.prefix import (
    prefix_greedy_mis,
    theorem45_prefix_mis,
    theorem45_prefix_sizes,
)
from repro.core.mis.rootset import rootset_mis
from repro.core.mis.rootset_vectorized import rootset_mis_vectorized
from repro.core.mis.luby import luby_mis
from repro.core.mis.scheduled import randomly_scheduled_mis
from repro.core.mis.api import maximal_independent_set, MIS_METHODS
from repro.core.mis.verify import (
    is_independent_set,
    is_maximal_independent_set,
    is_lexicographically_first_mis,
    assert_valid_mis,
)

__all__ = [
    "sequential_greedy_mis",
    "parallel_greedy_mis",
    "prefix_greedy_mis",
    "theorem45_prefix_mis",
    "theorem45_prefix_sizes",
    "rootset_mis",
    "rootset_mis_vectorized",
    "randomly_scheduled_mis",
    "luby_mis",
    "maximal_independent_set",
    "MIS_METHODS",
    "is_independent_set",
    "is_maximal_independent_set",
    "is_lexicographically_first_mis",
    "assert_valid_mis",
]
