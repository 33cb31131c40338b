"""Built-in ``repro-lint`` rules.

Importing this package registers every rule in
:data:`repro.analysis.core.RULES`:

========  =======================  ====================================================
Rule id   Name                     Contract it protects
========  =======================  ====================================================
``R1``    rng-discipline           all randomness routes through :mod:`repro.rng`
``R3``    densification-guard      store-backed masks / sparse updates stay sparse
``R4``    bit-exactness            equivalence & golden suites assert exact equality
``R6``    export-consistency       ``__all__`` names exist and are unique
``R7``    typed-signatures         library signatures fully annotated, no bare generics
``R8``    protocol-dispatch        models consumed through ScorerProtocol: no
                                   isinstance on concrete model classes outside models/
========  =======================  ====================================================

Plus the runner-level pseudo-rules ``SYNTAX`` (unparsable file) and ``SUP``
(suppression hygiene), which cannot be suppressed.  The ids ``R2`` and
``R5`` are retired: the switch surface they linted is checked by runtime
tests (``tests/test_switch_registry.py``, the golden and dynamics suites).
"""

from __future__ import annotations

from repro.analysis.rules import (  # noqa: F401  (imported for registration)
    densify,
    exactness,
    exports,
    protocol,
    rng,
    typing,
)

__all__ = [
    "densify",
    "exactness",
    "exports",
    "protocol",
    "rng",
    "typing",
]
