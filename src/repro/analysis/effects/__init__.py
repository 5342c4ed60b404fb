"""Interprocedural effect/purity inference and its rule passes.

Layered on the dataflow symbol table (:mod:`repro.analysis.dataflow`):

* :mod:`~repro.analysis.effects.lattice` -- the effect lattice and
  per-function summaries.
* :mod:`~repro.analysis.effects.infer` -- SCC-fixpoint inference of
  effects and parameter mutation over the call graph.
* :mod:`~repro.analysis.effects.races` -- the ``map_sequences``
  pool-seam race detector.
* :mod:`~repro.analysis.effects.contracts` -- ``@pure`` /
  ``@effects(...)`` declared-vs-inferred checking.
* :mod:`~repro.analysis.effects.perf` -- frame-loop perf smells.
"""

from __future__ import annotations

from repro.analysis.dataflow.symbols import SymbolTable
from repro.analysis.effects.contracts import check_contracts, required_contracts
from repro.analysis.effects.infer import (
    EXEMPT_PREFIXES,
    EffectInference,
    infer_effects,
    is_exempt_module,
)
from repro.analysis.effects.lattice import (
    PURE,
    EffectSet,
    EffectSummary,
    EffectWitness,
    effect_str,
)
from repro.analysis.effects.perf import check_perf
from repro.analysis.effects.races import check_races, find_pool_seams
from repro.analysis.findings import Finding

__all__ = [
    "EXEMPT_PREFIXES",
    "PURE",
    "EffectInference",
    "EffectSet",
    "EffectSummary",
    "EffectWitness",
    "check_contracts",
    "check_perf",
    "check_races",
    "effect_str",
    "find_pool_seams",
    "infer_effects",
    "is_exempt_module",
    "required_contracts",
    "run_effects",
]


def run_effects(
    table: SymbolTable, inference: EffectInference | None = None
) -> list[Finding]:
    """Run inference plus the race and contract passes over ``table``.

    (The perf pass is separate -- :func:`check_perf` -- so the CLI can
    toggle the families independently.)
    """
    if inference is None:
        inference = infer_effects(table)
    findings = check_races(table, inference)
    findings.extend(check_contracts(table, inference))
    return findings
