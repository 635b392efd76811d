"""The paper's figures stay the paper's, byte for byte.

The planner ranks strategies in measured seconds, but Table 3's units
still price the comparative study: Figures 7-13 and the crossover
points are printed under :data:`~repro.costmodel.PAPER_PARAMETERS`
exactly as before the planner was calibrated.  The digests below were
taken from ``python -m repro figures`` / ``python -m repro crossovers``
(stdout, trailing newline included) and from Figure 7's rho series
before that change; a formula refactor that moves one printed digit
fails here.
"""

import hashlib

from repro.cli import build_parser
from repro.costmodel.distributions import HiLoc, NoLoc, Uniform
from repro.costmodel.parameters import PAPER_PARAMETERS

DIGESTS = {
    "figures": "22399882f7b096306039becf1e7422115ffef9a1b7813b47b656ee0509cf5284",
    "crossovers": "83b13c6f20ebcd991d8063b0d1bb2fd5e9c9990fdc7b70c2e68d50778060c79b",
}
FIGURE_7 = "eaed6f6ebfebb1ed52288156123c199cb2887d8522ad4ccbd51d4a185f5c1ebe"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_figures_8_to_13_and_crossovers_are_unchanged():
    for command, digest in DIGESTS.items():
        args = build_parser().parse_args([command])
        assert sha256(args.handler(args) + "\n") == digest, command


def test_figure_7_series_is_unchanged():
    params = PAPER_PARAMETERS.with_p(0.5)
    n = params.n
    series = [
        (Uniform(params).rho(n, j), NoLoc(params).rho(n, j),
         HiLoc(params).rho_from_lca(n - j, n - j))
        for j in range(n + 1)
    ]
    assert sha256(repr(series)) == FIGURE_7
