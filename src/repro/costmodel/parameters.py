"""Model parameters (Table 2) and the study's values (Table 3).

Derived variables follow the paper:

* ``N = (k^(n+1) - 1) / (k - 1)`` -- nodes of a full k-ary tree of height
  ``n`` (with Table 3's ``k=10, n=6``: 1,111,111, as printed);
* ``m = floor(s * l / v)`` -- tuples per page (Table 3: 5);
* ``d = ceil(log_z N)`` -- B+-tree height of the join index (Table 3: 4).

Table 3's ``C_Theta``, ``C_IO`` and ``C_U`` are declared once, in
:mod:`repro.storage.costs`, which the meter weighs its total by too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import CostModelError
from repro.storage.costs import C_IO, C_THETA, C_UPDATE


@dataclass(frozen=True, slots=True)
class ModelParameters:
    """All knobs of the Section 4 cost model.

    Database dependent: ``n`` (tree height, root at 0), ``k`` (branching
    factor), ``p`` (join selectivity), ``v`` (tuple size in bytes),
    ``l`` (page utilization), ``h`` (height of the selector object),
    ``t_relations`` (the model's ``T``: number of spatially indexed
    relations maintaining join indices).

    System dependent: ``s`` (page size), ``z`` (join-index entries per
    page), ``big_m`` (main-memory pages ``M``).

    System performance dependent: ``c_theta``, ``c_io``, ``c_update``
    (Table 3's values by default; the sensitivity sweeps vary them).
    """

    n: int = 6
    k: int = 10
    p: float = 0.01
    v: int = 300
    l: float = 0.75
    h: int = 6
    t_relations: int = 10
    s: int = 2000
    z: int = 100
    big_m: int = 4000
    c_theta: float = C_THETA
    c_io: float = C_IO
    c_update: float = C_UPDATE

    def __post_init__(self) -> None:
        if self.n < 1:
            raise CostModelError(f"tree height n must be >= 1, got {self.n}")
        if self.k < 2:
            raise CostModelError(f"branching factor k must be >= 2, got {self.k}")
        if not 0.0 <= self.p <= 1.0:
            raise CostModelError(f"selectivity p must be in [0, 1], got {self.p}")
        if not 0 <= self.h <= self.n:
            raise CostModelError(f"selector height h must be in [0, n], got {self.h}")
        if not 0.0 < self.l <= 1.0:
            raise CostModelError(f"utilization l must be in (0, 1], got {self.l}")
        if self.v <= 0 or self.s <= 0 or self.z <= 0 or self.big_m <= 10:
            raise CostModelError(
                "v, s, z must be positive and M must exceed the 10 reserved pages"
            )
        if math.floor(self.s * self.l / self.v) < 1:
            raise CostModelError(
                f"tuple size v={self.v} does not fit a page (s={self.s}, l={self.l})"
            )

    # ------------------------------------------------------------------
    # Derived variables (Table 2, bottom block)
    # ------------------------------------------------------------------

    @property
    def N(self) -> int:
        """Number of tuples: every node of the full k-ary tree (S2)."""
        return (self.k ** (self.n + 1) - 1) // (self.k - 1)

    @property
    def m(self) -> int:
        """Tuples per disk page."""
        return math.floor(self.s * self.l / self.v)

    @property
    def d(self) -> int:
        """Height of the join index's B+-tree."""
        return math.ceil(math.log(self.N) / math.log(self.z))

    @property
    def relation_pages(self) -> int:
        """Pages occupied by one relation: ``ceil(N / m)``."""
        return -(-self.N // self.m)

    def nodes_at(self, i: int) -> int:
        """Nodes at height ``i`` (``k^i``)."""
        if not 0 <= i <= self.n:
            raise CostModelError(f"height {i} outside [0, {self.n}]")
        return self.k**i

    def with_p(self, p: float) -> "ModelParameters":
        """A copy at a different join selectivity (for sweeps)."""
        return replace(self, p=p)


#: The exact configuration of Table 3.
PAPER_PARAMETERS = ModelParameters(
    n=6, k=10, v=300, l=0.75, h=6, s=2000, z=100, big_m=4000,
)
