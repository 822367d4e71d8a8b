"""arclint rule set.

Importing this package registers every rule with
:mod:`repro.lint.registry`:

* ``ARC001`` fingerprint-completeness (:mod:`.fingerprints`)
* ``ARC002`` determinism (:mod:`.determinism`)
* ``ARC003`` unit-safety, flow-sensitive (:mod:`.units`)
* ``ARC004`` strategy-conformance (:mod:`.strategies`)
* ``ARC005`` resilient-execution (:mod:`.resilience`)
* ``ARC006`` interprocedural unit contracts (:mod:`.interproc`)
* ``ARC007`` event-tie determinism (:mod:`.event_ties`)
* ``ARC008`` cache-key taint (:mod:`.cachekeys`)

ARC003/006/008 share one :class:`repro.lint.dataflow.DataflowAnalysis`
per run, built lazily on first use and cached on the lint context.
The stack's process- and loop-safety disciplines are not lint rules:
the ``REPRO_SANITIZE`` runtime sanitizer checks them against the
tables it declares (:mod:`repro.obs.sanitize`).
"""

from repro.lint.rules import (
    cachekeys,
    determinism,
    event_ties,
    fingerprints,
    interproc,
    resilience,
    strategies,
    units,
)

__all__ = [
    "cachekeys",
    "determinism",
    "event_ties",
    "fingerprints",
    "interproc",
    "resilience",
    "strategies",
    "units",
]
