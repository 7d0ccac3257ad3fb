"""Extensions beyond the paper's core contribution.

The paper explicitly leaves three directions open.  Two are implemented
here; the third lives in the serving layer:

* **Alternative structure cohesiveness** — Section 3 ("Remarks") notes that
  the minimum-degree metric "can be easily replaced by other metrics like
  k-truss and k-clique".  :mod:`repro.extensions.truss` provides a k-truss
  decomposition and :func:`~repro.extensions.truss_sac.truss_sac_search`
  runs spatial-aware community search under the k-truss model.
* **Batch processing** — the conclusions list "batch processing for SAC
  search" as future work.  :meth:`repro.service.SACService.submit_batch`
  answers many queries over the same graph while sharing the core
  decomposition, candidate extraction, and spatial index across queries.
* **Other spatial cohesiveness measures** — the conclusions also mention
  "pair-wise vertex distances".  :mod:`repro.extensions.pairwise` searches
  for communities minimising the average (or maximum) pairwise member
  distance instead of the MCC radius.
"""

from repro.extensions.pairwise import pairwise_sac_search
from repro.extensions.truss import (
    connected_k_truss,
    edge_supports,
    k_truss_edges,
    truss_numbers,
)
from repro.extensions.truss_sac import truss_sac_search

__all__ = [
    "edge_supports",
    "truss_numbers",
    "k_truss_edges",
    "connected_k_truss",
    "truss_sac_search",
    "pairwise_sac_search",
]
