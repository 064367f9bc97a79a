"""reprolint: project-specific static analysis for the reproduction.

An :mod:`ast`-walking pass over ``src/`` and ``tests/`` enforcing the
invariants the reproduction's credibility rests on — invariants no
generic linter knows about:

====  ======================  ==============================================
id    name                    invariant
====  ======================  ==============================================
R001  unseeded-rng            randomness flows through an explicit
                              ``numpy.random.Generator`` (bit-determinism
                              per seed)
R002  wall-clock-in-library   no ``time.time()`` / ``datetime.now()``
                              outside ``cli.py``
R004  object-loop-in-kernel   columnar kernel modules never loop over
                              ``.contracts`` / ``.posts`` / ``.users``
R005  era-literal             era-boundary dates come only from
                              :mod:`repro.core.eras`
R006  float-equality          tests never compare floats with ``==``
R007  undocumented-public-    every public module carries a docstring
      module
R008  broad-except-           ``except Exception`` needs a ``# robust:``
      unjustified             justification comment
R009  full-store-materialize  library code never materialises a whole
                              partitioned store without ``# partition:``
====  ======================  ==============================================

On top of the per-file rules sits a whole-program pass (see
:mod:`repro.devtools.lint.program` for the shared AST index, call graph
and config-dataflow layer) with interprocedural rules:

====  ======================  ==============================================
R010  cache-key-completeness  every config field read reachable from a
                              generation entry point is part of the
                              structural cache fingerprint
R011  fork-unsafe-capture     closures shipped through ``forked_map``
                              never capture locks, open file handles,
                              stores or tracers
R012  schema-consistency      column names and dtypes at every producer
                              and consumer match
                              :data:`repro.core.schema.COLUMN_SCHEMA`
R013  rng-provenance          no unseeded ``default_rng()`` flows out of
                              helpers into library code
R014  stale-justification     justification comments must still anchor
                              to the construct they excuse
====  ======================  ==============================================

Run it with ``python -m repro lint`` (``--format json`` / ``sarif`` for
machines, ``--explain R004`` for the rationale behind one rule,
``--changed`` for the sub-second pre-commit pass, ``--no-program`` to
skip the interprocedural rules).  Grandfathered findings live in
``lint-baseline.txt`` at the repo root, regenerated with
``--write-baseline``.  Full rule documentation: ``docs/linting.md``.
"""

from __future__ import annotations

from .engine import (
    DEFAULT_BASELINE_NAME,
    LintResult,
    SourceFile,
    collect_sources,
    lint_sources,
    run_lint,
)
from .astindex import DEFAULT_INDEX_DIR, AstIndex
from .findings import Finding, load_baseline, save_baseline
from .program import Program, build_program
from .rules import RULES, Rule, all_rules, rule_by_id
from .sarif import render_sarif

__all__ = [
    "AstIndex",
    "DEFAULT_BASELINE_NAME",
    "DEFAULT_INDEX_DIR",
    "Finding",
    "LintResult",
    "Program",
    "RULES",
    "Rule",
    "SourceFile",
    "all_rules",
    "build_program",
    "collect_sources",
    "lint_sources",
    "load_baseline",
    "render_sarif",
    "rule_by_id",
    "run_lint",
    "save_baseline",
]
