"""arclint's dataflow layer: symbols, call graph, abstract interpretation.

One :class:`DataflowAnalysis` is built lazily per lint run and shared by
every rule that needs project-wide facts (ARC003's flow-sensitive unit
checks, ARC006's interprocedural mismatches, ARC008's cache-key
reachability).  Construction parses nothing -- it reuses the ASTs the
engine already holds -- so the whole layer costs one pass over the
in-memory trees plus a small fixpoint.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.lint.dataflow.callgraph import (
    CallGraph,
    module_imports,
    reverse_dependents,
)
from repro.lint.dataflow.interp import Conflict, UnitInterpreter
from repro.lint.dataflow.lattice import (
    Unit,
    add_units,
    div_units,
    join,
    mul_units,
)
from repro.lint.dataflow.summaries import Summaries
from repro.lint.dataflow.symbols import (
    ClassSymbol,
    FunctionSymbol,
    SymbolTable,
    annotation_name,
    module_dotted_name,
)

if TYPE_CHECKING:
    from repro.lint.engine import LintContext

__all__ = [
    "CallGraph",
    "ClassSymbol",
    "Conflict",
    "DataflowAnalysis",
    "FunctionSymbol",
    "Summaries",
    "SymbolTable",
    "Unit",
    "UnitInterpreter",
    "add_units",
    "analysis_for",
    "annotation_name",
    "div_units",
    "join",
    "module_dotted_name",
    "module_imports",
    "mul_units",
    "reverse_dependents",
]

_SHARED_KEY = "dataflow.analysis"


class DataflowAnalysis:
    """Symbol table + call graph + converged summaries for one run."""

    def __init__(self, ctx: "LintContext"):
        self.config = ctx.config
        self.table = SymbolTable(ctx.modules)
        self.graph = CallGraph(self.table)
        self.summaries = Summaries(self.table, self.graph, self.config)

    def conflicts_in(self, module):
        return self.summaries.conflicts_in(module)


def analysis_for(ctx: "LintContext") -> DataflowAnalysis:
    """The run's shared analysis, built on first use."""
    analysis = ctx.shared.get(_SHARED_KEY)
    if analysis is None:
        analysis = DataflowAnalysis(ctx)
        ctx.shared[_SHARED_KEY] = analysis
    return analysis
