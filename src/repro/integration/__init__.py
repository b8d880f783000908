"""What the PDMS takes from classic LAV mediation: views and MiniCon's MCDs.

A PDMS generalises the two-tier data-integration picture; its
reformulation expands inclusion mappings with MiniCon descriptions
(:func:`form_mcds` over a :class:`PreparedView`) and normalises every
storage description and inclusion into a :class:`View`.  The two-tier
mediators themselves (GAV unfolding, LAV rewriting with MiniCon or the
Bucket algorithm, inverse rules) are test oracles, not part of the
library.
"""

from .minicon import MCD, PreparedView, form_mcds
from .views import View, ViewKind

__all__ = [
    "MCD",
    "PreparedView",
    "View",
    "ViewKind",
    "form_mcds",
]
