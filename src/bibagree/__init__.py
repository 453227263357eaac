"""Field-normalized bibliometric indicators and metric/peer-review agreement.

Computes NCS/NJS citation indicators with fractional counting, aggregates
them per institution and research area, calibrates each metric to reviewer
scores with per-area OLS, and quantifies agreement with MAD/MAPD statistics
plus bootstrap percentile intervals.
"""

from .aggregation import InstitutionAggregate
from .agreement import AgreementStatistic, CalibrationFit
from .corpus import (
    Corpus,
    CorpusError,
    CorpusParseError,
    CorpusValidationError,
    PublicationRecord,
    ReviewerScore,
    SchemaOptions,
    assign_reviewer_roles,
    load_corpus,
    overall_score,
    save_corpus,
)
from .indicators import reassign_multidisciplinary
from .pipeline import PipelineConfig, RunReport, run, run_bootstrap
from .resampling import (
    BootstrapResult,
    CoverageDiagnostic,
    bootstrap_statistics,
    coverage_report,
    midrank_quantile,
    stratified_sample,
)
from .synth import PubCountSpec, SynthConfig, generate

__version__ = "0.1.0"
