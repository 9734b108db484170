"""Team expertise-diversity metrics for scholarly corpora.

Computes two per-paper diversity metrics over author expertise vectors
(maximum pairwise cosine distance; connected components of a thresholded
similarity graph) and tests their association with 5-year citation counts.
"""

from .corpus import (
    AnalysisConfig,
    Corpus,
    PaperRecord,
    assign_bucket,
    load_corpus,
    parse_corpus,
    prior_window,
    select_analysis_set,
)
from .diversity import (
    DiversityCategory,
    PaperDiversity,
    categorize,
    cosine_distance,
    paper_diversity,
)
from .expertise import (
    ExpertiseVector,
    background_distribution,
    expertise_vector,
    profile_author,
    topic_distribution,
)
from .report import AnalysisReport, render, run_analysis
from .stats import (
    ChiSquareResult,
    CorrelationResult,
    chi_square_homogeneity,
    median,
    one_zero_counts,
    pearson,
    pool_counts,
)
from .synth import SynthParams, generate_corpus

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "AnalysisReport",
    "ChiSquareResult",
    "CorrelationResult",
    "Corpus",
    "DiversityCategory",
    "ExpertiseVector",
    "PaperDiversity",
    "PaperRecord",
    "SynthParams",
    "assign_bucket",
    "background_distribution",
    "categorize",
    "chi_square_homogeneity",
    "cosine_distance",
    "expertise_vector",
    "generate_corpus",
    "load_corpus",
    "median",
    "one_zero_counts",
    "paper_diversity",
    "parse_corpus",
    "pearson",
    "pool_counts",
    "prior_window",
    "profile_author",
    "render",
    "run_analysis",
    "select_analysis_set",
    "topic_distribution",
]
