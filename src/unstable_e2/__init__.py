"""Unstable Steenrod-algebra computer algebra and E2-chart pipelines.

Submodules:
    tower             -- the finite-field chain, Artin-Schreier solving,
                         exact mod-p linear algebra
    steenrod          -- operation words, Adem rewriting, the polynomial
                         action oracle at p = 2
    unstable_modules  -- free unstable modules, windowed integer-indexed
                         bases, the windowed short exact sequence
    unstable_algebras -- free unstable algebras, monomial bases, algebra
                         maps extended from generator images
    derivations       -- cochain complexes, derivation bases, descent,
                         the windowed bar construction
    adams             -- built-in spaces, cotriple resolutions, the
                         unstable Adams E2 chart, chart emission
    goerss_hopkins    -- the field-chain pipeline, chart comparison,
                         obstruction death witnesses
    cli               -- the ue2 command-line tool

Nothing in the package needs numpy; the test suite and the benchmark do.
"""

__version__ = "0.1.0"

from .adams import CotripleResolution, adams_chart, builtin_space, chart_emit
from .goerss_hopkins import compare_charts, d1_saturation_report, gh_chart

__all__ = [
    "CotripleResolution",
    "adams_chart",
    "builtin_space",
    "chart_emit",
    "compare_charts",
    "d1_saturation_report",
    "gh_chart",
]
