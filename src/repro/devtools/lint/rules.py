"""The reprolint rule set.

Each rule is a small class with an ``id``, ``severity``, a ``scope``
(which file kinds it visits) and a docstring that ``repro lint
--explain <id>`` renders verbatim.  Rules implement ``visit`` (called
once per in-scope file) and/or ``finalize`` (called once with every
collected file, for cross-module checks).

The rules encode invariants specific to this reproduction:

* determinism — the paper's era comparisons assume ``repro.synth`` is
  bit-identical per seed, so randomness must flow through explicit
  ``numpy.random.Generator`` objects and library code must not read the
  wall clock;
* columnar kernels — the analysis kernel modules compute on arrays,
  never by walking the entity lists;
* era hygiene — the externally-defined era boundaries (1 Jun 2018 /
  1 Mar 2019 / 11 Mar 2020) live only in :mod:`repro.core.eras`;
* failure hygiene — catch-all exception handlers in library code must
  carry a written ``# robust:`` justification (R008) so degradation
  boundaries are deliberate, not accidental swallowing;
* out-of-core hygiene — analysis-layer code must not force a full
  partitioned-store materialization without a written ``# partition:``
  justification (R009), so windowed queries keep opening only the
  month shards they touch.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .findings import Finding

__all__ = ["Rule", "RULES", "all_rules", "rule_by_id"]


def _dotted(node: ast.AST) -> Tuple[str, ...]:
    """The name chain of an expression: ``np.random.rand`` -> its parts.

    Returns an empty tuple for anything that isn't a plain Name/Attribute
    chain (calls, subscripts, ...).
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def _terminal_name(func: ast.AST) -> Optional[str]:
    """Last component of a callee: ``f(...)`` -> "f", ``a.b.f(...)`` -> "f"."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _int_args(call: ast.Call, count: int) -> Optional[Tuple[int, ...]]:
    """First ``count`` positional args if they are all int literals."""
    if len(call.args) < count:
        return None
    values = []
    for arg in call.args[:count]:
        if isinstance(arg, ast.Constant) and type(arg.value) is int:
            values.append(arg.value)
        else:
            return None
    return tuple(values)


class Rule:
    """Base class: subclasses override ``visit`` and/or ``finalize``.

    Whole-program rules (:mod:`repro.devtools.lint.rules_program`) set
    ``requires_program`` and implement ``check_program`` instead; the
    engine builds the shared :class:`~repro.devtools.lint.program.
    Program` index once when any selected rule asks for it.
    """

    id: str = ""
    name: str = ""
    severity: str = "error"
    #: Which file kinds the per-file ``visit`` hook receives.
    scope: Tuple[str, ...] = ("src",)
    #: True for rules that run on the whole-program index.
    requires_program: bool = False

    def visit(self, source: "SourceFile") -> Iterator[Finding]:  # noqa: F821
        return iter(())

    def finalize(
        self, sources: Sequence["SourceFile"]  # noqa: F821
    ) -> Iterator[Finding]:
        return iter(())

    def finding(
        self, source: "SourceFile", node: ast.AST, message: str  # noqa: F821
    ) -> Finding:
        return Finding(
            path=source.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            severity=self.severity,
            message=message,
        )


# --------------------------------------------------------------------- #
# R001 unseeded-rng
# --------------------------------------------------------------------- #


class UnseededRng(Rule):
    """R001 unseeded-rng: all randomness must flow through an explicit
    ``numpy.random.Generator``.

    The simulator is bit-deterministic per seed — the paper's SET-UP /
    STABLE / COVID-19 comparisons are meaningless if two runs of
    ``repro.synth`` diverge.  Calls into the *global* RNGs break that
    contract silently, so inside ``src/`` this rule forbids

    * every call through numpy's module-level RNG (``np.random.rand``,
      ``np.random.seed``, ``np.random.shuffle``, ...), and
    * every call through the stdlib ``random`` module
      (``random.random``, ``random.choice``, ...).

    Constructing generators is fine: ``np.random.default_rng(seed)``,
    ``np.random.Generator``/``SeedSequence``/``PCG64`` and type
    annotations are all allowed.  Pass the resulting ``Generator`` down
    the call stack instead of reaching for global state.
    """

    id = "R001"
    name = "unseeded-rng"
    scope = ("src",)

    _ALLOWED_NP = {"default_rng", "Generator", "SeedSequence", "BitGenerator",
                   "PCG64", "Philox", "SFC64", "MT19937"}

    def visit(self, source):  # noqa: ANN001
        stdlib_aliases = {"random"}
        from_random: Set[str] = set()
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        stdlib_aliases.add(alias.asname or alias.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    from_random.add(alias.asname or alias.name)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _dotted(node.func)
            if len(chain) >= 3 and chain[-2] == "random" and chain[0] in (
                "np", "numpy"
            ):
                if chain[-1] not in self._ALLOWED_NP:
                    yield self.finding(
                        source, node,
                        f"call to numpy global RNG "
                        f"'{'.'.join(chain)}' — use an explicit "
                        f"numpy.random.Generator (np.random.default_rng(seed))",
                    )
            elif (
                len(chain) == 2
                and chain[0] in stdlib_aliases
                and chain[0] != "np"
            ):
                yield self.finding(
                    source, node,
                    f"call to stdlib random '{'.'.join(chain)}' — use an "
                    f"explicit numpy.random.Generator",
                )
            elif len(chain) == 1 and chain[0] in from_random:
                yield self.finding(
                    source, node,
                    f"call to '{chain[0]}' imported from stdlib random — "
                    f"use an explicit numpy.random.Generator",
                )


# --------------------------------------------------------------------- #
# R002 wall-clock-in-library
# --------------------------------------------------------------------- #


class WallClockInLibrary(Rule):
    """R002 wall-clock-in-library: library code must not read the wall
    clock.

    ``time.time()``, ``time.time_ns()``, ``datetime.now()``,
    ``datetime.today()``, ``date.today()`` and ``datetime.utcnow()``
    make output depend on when the code runs, which breaks run-to-run
    reproducibility and poisons the dataset cache (results keyed by
    config would differ by wall time).  The same discipline keeps
    ``repro.runs`` ids stable: run identity is derived from the
    persisted :class:`~repro.runs.contract.RunContext` (config
    fingerprint, seed, scale, experiment set), never from timestamps —
    ``created_unix`` provenance stamps are passed in by the CLI, the
    one layer allowed to read the clock.  Timing is a presentation
    concern: it is allowed in ``cli.py`` (progress messages).  Monotonic
    *interval* clocks
    (``time.perf_counter`` / ``time.monotonic``) are always allowed —
    they measure durations, not calendar time.
    """

    id = "R002"
    name = "wall-clock-in-library"
    scope = ("src",)

    _DT_METHODS = {"now", "today", "utcnow"}
    _DT_OWNERS = {"datetime", "date", "dt", "_dt"}

    def visit(self, source):  # noqa: ANN001
        if source.path.endswith("/cli.py"):
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _dotted(node.func)
            if chain in (("time", "time"), ("time", "time_ns")):
                yield self.finding(
                    source, node,
                    f"{'.'.join(chain)}() in library code — wall-clock "
                    "reads belong in cli.py (use time.perf_counter for "
                    "intervals)",
                )
            elif (
                len(chain) >= 2
                and chain[-1] in self._DT_METHODS
                and chain[-2] in self._DT_OWNERS
            ):
                yield self.finding(
                    source, node,
                    f"wall-clock call '{'.'.join(chain)}()' in library code "
                    f"— pass timestamps in explicitly",
                )


# --------------------------------------------------------------------- #
# R004 object-loop-in-kernel
# --------------------------------------------------------------------- #


class ObjectLoopInKernel(Rule):
    """R004 object-loop-in-kernel: columnar kernel modules must not fall
    back to per-object Python loops.

    A *kernel module* promises to compute on arrays: the
    :class:`~repro.core.columns.ColumnStore` for the single-path
    analyses (:mod:`repro.analysis.monthly`, ``taxonomy``, ``funnel``,
    ``centralisation`` and :mod:`repro.network.degrees`) and the
    generation tables for :mod:`repro.synth.fastgen`.  A ``for`` loop
    (or comprehension) over the entity lists ``.contracts`` / ``.posts``
    / ``.users`` in any function of one re-introduces the interpreted
    per-object walk the module exists to avoid, usually silently after a
    refactor.  Iterate over store arrays (``np.bincount``, boolean
    masks, ``np.add.at``) instead, or move genuinely object-level code
    out of the kernel module.
    """

    id = "R004"
    name = "object-loop-in-kernel"
    scope = ("src",)

    _ENTITY_LISTS = {"contracts", "posts", "users"}
    #: Modules where every function is held to the kernel contract.
    _KERNEL_MODULES = (
        "src/repro/analysis/centralisation.py",
        "src/repro/analysis/funnel.py",
        "src/repro/analysis/monthly.py",
        "src/repro/analysis/taxonomy.py",
        "src/repro/network/degrees.py",
        "src/repro/synth/fastgen.py",
    )

    def _entity_iter(self, iter_node: ast.AST) -> Optional[str]:
        node = iter_node
        # unwrap slicing/calls like ds.contracts[:n] or list(ds.contracts)
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Call) and len(node.args) == 1:
            inner = node.args[0]
            while isinstance(inner, ast.Subscript):
                inner = inner.value
            if isinstance(inner, ast.Attribute):
                node = inner
        if isinstance(node, ast.Attribute) and node.attr in self._ENTITY_LISTS:
            return node.attr
        return None

    def visit(self, source):  # noqa: ANN001
        if source.path not in self._KERNEL_MODULES:
            return
        for func in ast.walk(source.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                iters: List[ast.AST] = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iters.append(node.iter)
                elif isinstance(
                    node, (ast.ListComp, ast.SetComp, ast.DictComp,
                           ast.GeneratorExp)
                ):
                    iters.extend(gen.iter for gen in node.generators)
                for iter_node in iters:
                    attr = self._entity_iter(iter_node)
                    if attr:
                        yield self.finding(
                            source, node,
                            f"'{func.name}' in a columnar kernel module "
                            f"loops over .{attr} — compute on ColumnStore "
                            f"arrays instead of per-object Python loops",
                        )


# --------------------------------------------------------------------- #
# R005 era-literal
# --------------------------------------------------------------------- #


class EraLiteral(Rule):
    """R005 era-literal: era-boundary dates have one home,
    :mod:`repro.core.eras`.

    The SET-UP / STABLE / COVID-19 boundaries (1 Jun 2018, 28 Feb 2019 /
    1 Mar 2019, 10 Mar 2020 / 11 Mar 2020, 30 Jun 2020) are external
    facts from §3 of the paper.  Re-typing them as ``Month(2019, 3)`` or
    ``date(2020, 3, 11)`` literals scatters the definition: if one copy
    is ever corrected the others silently diverge.  Use
    ``repro.core.eras`` (``SETUP`` / ``STABLE`` / ``COVID19`` /
    ``DATA_START`` / ``DATA_END``) plus ``month_of`` / ``add_months``
    arithmetic.  Calibration data tables are exempt via an allowlist
    (``synth/config.py``, ``blockchain/rates.py``) because their anchor
    grids legitimately mention boundary months as *data*, and
    ``core/eras.py`` itself is the definition site.
    """

    id = "R005"
    name = "era-literal"
    scope = ("src",)

    _ALLOWLIST = (
        "src/repro/core/eras.py",
        "src/repro/synth/config.py",
        "src/repro/blockchain/rates.py",
    )

    #: First/last calendar month of each era.
    _BOUNDARY_MONTHS = {
        (2018, 6), (2019, 2), (2019, 3), (2020, 3), (2020, 6),
    }
    #: Exact first/last day of each era.
    _BOUNDARY_DATES = {
        (2018, 6, 1), (2019, 2, 28), (2019, 3, 1),
        (2020, 3, 10), (2020, 3, 11), (2020, 6, 30),
    }

    def visit(self, source):  # noqa: ANN001
        if source.path in self._ALLOWLIST:
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _terminal_name(node.func)
            if name == "Month":
                pair = _int_args(node, 2)
                if pair and pair in self._BOUNDARY_MONTHS:
                    yield self.finding(
                        source, node,
                        f"era-boundary month literal Month{pair} — derive "
                        f"it from repro.core.eras constants",
                    )
            elif name == "parse" and _terminal_name(
                getattr(node.func, "value", None)
            ) == "Month":
                if node.args and isinstance(node.args[0], ast.Constant) and \
                        isinstance(node.args[0].value, str):
                    parts = node.args[0].value.split("-")
                    if len(parts) == 2 and all(p.isdigit() for p in parts):
                        pair = (int(parts[0]), int(parts[1]))
                        if pair in self._BOUNDARY_MONTHS:
                            yield self.finding(
                                source, node,
                                f"era-boundary month literal "
                                f"Month.parse('{node.args[0].value}') — "
                                f"derive it from repro.core.eras constants",
                            )
            elif name in ("date", "datetime"):
                triple = _int_args(node, 3)
                if triple and triple in self._BOUNDARY_DATES:
                    yield self.finding(
                        source, node,
                        f"era-boundary date literal {name}{triple} — use "
                        f"repro.core.eras constants (SETUP/STABLE/COVID19/"
                        f"DATA_START/DATA_END)",
                    )


# --------------------------------------------------------------------- #
# R006 float-equality
# --------------------------------------------------------------------- #


class FloatEquality(Rule):
    """R006 float-equality: tests must not compare floats with ``==`` or
    ``!=``.

    Exact float comparison makes a test's verdict depend on summation
    order and platform rounding — precisely what changes when a kernel
    is vectorized or parallelised, so such tests either flake or mask
    real drift.  The rule flags ``==``/``!=`` comparisons in ``tests/``
    where either side is a float literal or an arithmetic expression
    containing one; use ``pytest.approx`` (or ``math.isclose`` /
    ``np.allclose``) instead.  Comparisons of computed floats against
    each other cannot be detected statically without type inference and
    are out of scope.
    """

    id = "R006"
    name = "float-equality"
    scope = ("tests",)

    def _floaty(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant):
            return type(node.value) is float
        if isinstance(node, ast.UnaryOp):
            return self._floaty(node.operand)
        if isinstance(node, ast.BinOp):
            return self._floaty(node.left) or self._floaty(node.right)
        return False

    def visit(self, source):  # noqa: ANN001
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(
                node.ops, operands[:-1], operands[1:]
            ):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._floaty(left) or self._floaty(right):
                    yield self.finding(
                        source, node,
                        "float equality comparison in a test — use "
                        "pytest.approx / math.isclose / np.allclose",
                    )
                    break


# --------------------------------------------------------------------- #
# R007 undocumented-public-module
# --------------------------------------------------------------------- #


class UndocumentedPublicModule(Rule):
    """R007 undocumented-public-module: every module under ``src/repro``
    must open with a module docstring.

    The documentation site (``docs/``) orients readers by package, but
    the per-module story lives in the modules themselves — the docstring
    is the one place a reader landing via ``help()``, an editor hover or
    the docs' package map learns what a file is *for*.  A missing
    docstring is usually a freshly split module whose purpose exists
    only in a commit message.  State the module's job in a sentence or
    two at the top; code outside ``src/`` (tests, ``perfbench/``) is out
    of scope (its names carry the intent).
    """

    id = "R007"
    name = "undocumented-public-module"
    scope = ("src",)

    def visit(self, source):  # noqa: ANN001
        if ast.get_docstring(source.tree) is None:
            yield self.finding(
                source, source.tree,
                "module has no docstring — open every src/repro module "
                "with a short statement of what it is for",
            )


# --------------------------------------------------------------------- #
# R008 broad-except-unjustified
# --------------------------------------------------------------------- #


class BroadExceptUnjustified(Rule):
    """R008 broad-except-unjustified: catch-all handlers in library code
    need a written justification.

    A bare ``except:``, ``except Exception:`` or ``except
    BaseException:`` swallows everything — including the corruption and
    injected-fault signals the robustness layer
    (:mod:`repro.robust`) depends on surfacing.  The 2020-era cache bug
    this repo's fault harness reproduces hid behind exactly such a
    handler.  Catch-alls are still legitimate at *degradation
    boundaries* (the runner converting a failed experiment into a
    structured error record instead of dying), so the rule does not ban
    them: it requires a ``# robust:`` comment on the ``except`` line or
    the line directly above, stating why swallowing everything is the
    right behaviour there.  Handlers naming specific exception types
    (even long tuples of them) are always fine.
    """

    id = "R008"
    name = "broad-except-unjustified"
    scope = ("src",)

    _BROAD = {"Exception", "BaseException"}

    def _is_broad(self, type_node: Optional[ast.AST]) -> bool:
        if type_node is None:  # bare `except:`
            return True
        nodes = (
            list(type_node.elts)
            if isinstance(type_node, ast.Tuple)
            else [type_node]
        )
        return any(_dotted(node)[-1:] in (("Exception",), ("BaseException",))
                   for node in nodes)

    def _justified(self, source, handler: ast.excepthandler) -> bool:  # noqa: ANN001
        lines = source.text.splitlines()
        for lineno in (handler.lineno, handler.lineno - 1):
            if 1 <= lineno <= len(lines) and "# robust:" in lines[lineno - 1]:
                return True
        return False

    def visit(self, source):  # noqa: ANN001
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._justified(source, node):
                continue
            shown = (
                "bare `except:`"
                if node.type is None
                else "broad `except " + (
                    "/".join(
                        ".".join(_dotted(n)) or "..."
                        for n in (
                            node.type.elts
                            if isinstance(node.type, ast.Tuple)
                            else [node.type]
                        )
                    )
                ) + "`"
            )
            yield self.finding(
                source, node,
                f"{shown} without justification — add a `# robust:` "
                f"comment on the handler (or the line above) explaining "
                f"why a catch-all is correct here, or name the specific "
                f"exceptions",
            )


# --------------------------------------------------------------------- #
# R009 full-store-materialize
# --------------------------------------------------------------------- #


class FullStoreMaterialize(Rule):
    """R009 full-store-materialize: analysis code must not silently force
    a full-store materialization.

    The month-partitioned store (:mod:`repro.core.partitions`) exists so
    windowed and per-era questions touch only the month shards they
    need; the incremental kernels in :mod:`repro.analysis.streaming`
    answer every paper question that way.  Calling ``.materialize()`` or
    ``.tables()`` inside the analysis layers (``src/repro/analysis/``,
    ``src/repro/network/``) loads *all* partitions into resident arrays
    — exactly the cost the store was built to avoid, and the kind of
    regression that creeps in silently when a kernel grows a "simple"
    fallback.  Genuine whole-history needs still exist (a kernel whose
    algebra is not mergeable), so the rule does not ban the calls: it
    requires a ``# partition:`` comment on the call line or the line
    directly above, stating why resident materialization is the right
    cost there.  Loader code (``repro.synth.cache``) and the store
    itself are out of scope — only the analysis layers promise to stay
    incremental.
    """

    id = "R009"
    name = "full-store-materialize"
    scope = ("src",)

    _FORCING = {"materialize", "tables"}
    _SCOPES = ("src/repro/analysis/", "src/repro/network/")

    def _justified(self, source, node: ast.AST) -> bool:  # noqa: ANN001
        lines = source.text.splitlines()
        for lineno in (node.lineno, node.lineno - 1):
            if 1 <= lineno <= len(lines) and "# partition:" in lines[lineno - 1]:
                return True
        return False

    def visit(self, source):  # noqa: ANN001
        if not source.path.startswith(self._SCOPES):
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in self._FORCING:
                continue
            if self._justified(source, node):
                continue
            yield self.finding(
                source, node,
                f".{node.func.attr}() in the analysis layer forces a "
                f"full-store materialization — fold incremental kernels "
                f"over the month partitions instead "
                f"(repro.analysis.streaming), or add a `# partition:` "
                f"comment stating why resident arrays are required here",
            )


#: Rule registry in id order; ``repro lint --list-rules`` renders it.
RULES: Dict[str, type] = {
    rule.id: rule
    for rule in (
        UnseededRng,
        WallClockInLibrary,
        ObjectLoopInKernel,
        EraLiteral,
        FloatEquality,
        UndocumentedPublicModule,
        BroadExceptUnjustified,
        FullStoreMaterialize,
    )
}

# The whole-program rules (R010–R014) live in rules_program; the import
# sits below the registry so rules_program can import Rule from here.
from .rules_program import PROGRAM_RULES  # noqa: E402

RULES.update(PROGRAM_RULES)


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in id order."""
    return [RULES[rule_id]() for rule_id in sorted(RULES)]


def rule_by_id(rule_id: str) -> Rule:
    """Instantiate one rule; raises KeyError with the known ids."""
    key = rule_id.strip().upper()
    if key not in RULES:
        known = ", ".join(sorted(RULES))
        raise KeyError(f"unknown rule {rule_id!r}; known rules: {known}")
    return RULES[key]()
