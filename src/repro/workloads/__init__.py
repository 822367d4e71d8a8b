"""Workloads: the paper's Table 2 registry plus the §5.6 counter-example."""

from repro.workloads.base import (
    ForwardOutcome,
    IterationOutcome,
    TrainingReport,
    Workload,
)
from repro.workloads.datasets import (
    APPLICATIONS,
    WORKLOAD_KEYS,
    CubemapWorkload,
    GaussianWorkload,
    SphereWorkload,
    all_workloads,
    load_workload,
)
from repro.workloads.histogram import HistogramWorkload
from repro.workloads.pagerank import PagerankWorkload, pagerank_trace

__all__ = [
    "Workload",
    "ForwardOutcome",
    "IterationOutcome",
    "TrainingReport",
    "GaussianWorkload",
    "SphereWorkload",
    "CubemapWorkload",
    "WORKLOAD_KEYS",
    "APPLICATIONS",
    "load_workload",
    "all_workloads",
    "HistogramWorkload",
    "PagerankWorkload",
    "pagerank_trace",
]
