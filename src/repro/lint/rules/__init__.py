"""arclint rule set.

Importing this package registers every rule with
:mod:`repro.lint.registry`:

* ``ARC001`` fingerprint-completeness (:mod:`.fingerprints`)
* ``ARC002`` determinism (:mod:`.determinism`)
* ``ARC004`` strategy-conformance (:mod:`.strategies`)

ARC003 and ARC005--ARC016 are retired and their ids are not reused;
:mod:`repro.lint` names the test or runtime check that holds each
retired property now.
"""

from repro.lint.rules import determinism, fingerprints, strategies

__all__ = ["determinism", "fingerprints", "strategies"]
