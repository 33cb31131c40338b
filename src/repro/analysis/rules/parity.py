"""R2 — switch-parity registry.

A choice switch declares its realizations as literals, e.g. the registry's
``straggler_policy`` choices ``("wait", "discard", "stale-merge")`` (older
trees wrote ``if self.engine not in ("loop", "vectorized"): ...`` in
``FederatedConfig.validate``).

Each of those literal realizations is a *contract surface*: it needs a
dispatch branch somewhere in the library, an equivalence-suite
parametrization proving it against its oracle, and a golden seed-history
case pinning its realization.  Historically all three were maintained by
convention; this rule extracts the realizations statically and fails lint
when any leg is missing — so adding a realization without tests is a red
build, not a latent gap.

Checked per realization of every switch field:

1. **dispatch** — the literal is compared against a matching name
   (``config.straggler_policy``, a ``policy`` local, ...) somewhere under
   ``src/`` outside the config modules themselves,
2. **equivalence** — the literal appears in the field's registered
   equivalence suite(s) (:data:`EQUIVALENCE_SUITES`; a new switch field
   must register its suite here, which is itself enforced),
3. **golden** — the golden case grid (``tests/golden/golden_cases.py``)
   explicitly assigns the literal to the field, so every realization has a
   committed seed-history fixture.  Defaults are not exempt: the grid
   states every switch value explicitly, which is what makes deleting a
   case a lint failure.

The switch fields and their realizations are read from the declarative
switch registry (``src/repro/federated/switches.py``) when the tree has one
— every ``SwitchSpec(kind="choice", choices=(...))`` entry is a contract
surface, and violations are anchored at its ``SwitchSpec`` call.  Trees
without a registry (the lint fixtures, historical checkouts) fall back to
extracting the literal membership checks from ``FederatedConfig.validate``
as before.

Numeric switches (the dynamics rates and ``min_reporters``) are scenario
parameters rather than alternate realizations of the same math, so they
carry no parity obligations.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis import project as model
from repro.analysis.core import Project, Rule, Violation, register

__all__ = ["SwitchParityRule", "EQUIVALENCE_SUITES"]

#: Switch field -> the test modules whose parametrizations prove its
#: realizations against the loop oracle.  A switch field missing from this
#: registry is itself a violation: declaring where a new switch is proven
#: equivalent is part of adding the switch.
EQUIVALENCE_SUITES: dict[str, tuple[str, ...]] = {
    "straggler_policy": ("tests/test_federation_dynamics.py",),
}


@register
class SwitchParityRule(Rule):
    id = "R2"
    name = "switch-parity"
    summary = (
        "every switch realization has a dispatch branch, an equivalence-suite "
        "parametrization and a golden seed-history case"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        config = project.source(model.FEDERATED_CONFIG)
        if config is None:
            return
        # Prefer the declarative registry; fall back to the legacy
        # validate-membership extraction for trees without one.
        anchor = config
        fields = model.extract_switch_fields(config)
        registry = project.source(model.SWITCH_REGISTRY_MODULE)
        if registry is not None:
            declared = model.registry_switches(registry)
            if declared:
                anchor = registry
                fields = [
                    model.SwitchField(
                        name=switch.name,
                        realizations=switch.choices,
                        default=switch.default
                        if isinstance(switch.default, str)
                        else None,
                        line=switch.line,
                    )
                    for switch in declared
                    if switch.kind == "choice" and switch.choices
                ]
        if not fields:
            return

        library = [
            source
            for source in project.library_files()
            if source.rel not in model.CONFIG_MODULES
        ]
        golden = project.source(model.GOLDEN_CASES)

        for switch in fields:
            dispatched = model.comparison_realizations(library, switch.name)
            for realization in switch.realizations:
                if realization not in dispatched:
                    yield Violation(
                        rule=self.id,
                        path=anchor.rel,
                        line=switch.line,
                        message=(
                            f"switch {switch.name}={realization!r} has no dispatch "
                            "branch: no comparison against the literal anywhere "
                            "under src/ outside the config modules"
                        ),
                    )

            suites = EQUIVALENCE_SUITES.get(switch.name)
            if suites is None:
                yield Violation(
                    rule=self.id,
                    path=anchor.rel,
                    line=switch.line,
                    message=(
                        f"switch field {switch.name!r} has no entry in "
                        "repro.analysis.rules.parity.EQUIVALENCE_SUITES; register "
                        "the equivalence suite that proves its realizations"
                    ),
                )
            else:
                covered: set[str] = set()
                found_any = False
                for rel in suites:
                    suite = project.source(rel)
                    if suite is None:
                        continue
                    found_any = True
                    covered |= model.all_string_constants(suite)
                if not found_any:
                    yield Violation(
                        rule=self.id,
                        path=anchor.rel,
                        line=switch.line,
                        message=(
                            f"none of the registered equivalence suites for "
                            f"{switch.name!r} exist: {', '.join(suites)}"
                        ),
                    )
                else:
                    for realization in switch.realizations:
                        if realization not in covered:
                            yield Violation(
                                rule=self.id,
                                path=anchor.rel,
                                line=switch.line,
                                message=(
                                    f"switch {switch.name}={realization!r} is not "
                                    "parametrized in its equivalence suite(s) "
                                    f"({', '.join(suites)})"
                                ),
                            )

            if golden is None:
                yield Violation(
                    rule=self.id,
                    path=anchor.rel,
                    line=switch.line,
                    message=(
                        f"cannot verify golden coverage of {switch.name!r}: "
                        f"{model.GOLDEN_CASES} not found"
                    ),
                )
            else:
                pinned = model.golden_field_values(golden, switch.name)
                for realization in switch.realizations:
                    if realization not in pinned:
                        yield Violation(
                            rule=self.id,
                            path=anchor.rel,
                            line=switch.line,
                            message=(
                                f"switch {switch.name}={realization!r} has no "
                                f"golden seed-history case in {model.GOLDEN_CASES}; "
                                "add a case pinning this realization"
                            ),
                        )

