"""Team expertise-diversity metrics for scholarly corpora.

Computes two per-paper diversity metrics over author expertise vectors
(maximum pairwise cosine distance; connected components of a thresholded
similarity graph) and tests their association with 5-year citation counts.

The package root re-exports the four names of the end-to-end pipeline; the
rest of the library lives in ``teamdiv.corpus``, ``teamdiv.diversity``,
``teamdiv.expertise``, ``teamdiv.report`` and ``teamdiv.stats``.
"""

from .corpus import AnalysisConfig, load_corpus
from .report import render, run_analysis

__version__ = "0.1.0"

__all__ = ["AnalysisConfig", "load_corpus", "render", "run_analysis"]
