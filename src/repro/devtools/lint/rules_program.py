"""Whole-program reprolint rules (R010–R014).

These rules run on the :class:`~repro.devtools.lint.program.Program`
index — call graph plus dataflow — instead of one file at a time, so
they can see the bugs single-file matching structurally cannot: a
config field that silently stopped participating in the cache
fingerprint (R010), a closure shipping a lock or mmap handle through a
fork boundary (R011), a producer and a consumer disagreeing about a
column name or dtype (R012), and an unseeded ``Generator`` laundered
through a helper function (R013).  R014 closes the suppression
loophole: every justification marker comment must still sit on a line
that actually triggers its rule.

Justification markers follow the R008/R009 convention — the comment
goes on the triggering line or the line directly above it:

* ``# cache-key:`` on a fingerprint field exclusion (R010)
* ``# fork-safe:`` on a flagged fork/closure site (R011)
* ``# schema:`` on a deliberate off-registry column name (R012)
* ``# rng:`` on a deliberate unseeded generator (R013)
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .findings import Finding
from .program import (
    ConfigTaint,
    FunctionInfo,
    Program,
    _dotted_chain,
    _terminal,
)
from .rules import Rule

__all__ = [
    "_assign_targets",
    "ProgramRule",
    "CacheKeyCompleteness",
    "ForkSafety",
    "SchemaConsistency",
    "RngProvenance",
    "StaleJustification",
    "PROGRAM_RULES",
]


def _assign_targets(node: ast.AST) -> "Tuple[Set[str], Optional[ast.AST]]":
    """Bound names and value of an Assign/AnnAssign statement."""
    if isinstance(node, ast.Assign):
        return (
            {t.id for t in node.targets if isinstance(t, ast.Name)},
            node.value,
        )
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return {node.target.id}, node.value
    return set(), None


class ProgramRule(Rule):
    """Base for rules that run once over the whole-program index."""

    requires_program = True

    def check_program(self, program: Program) -> Iterator[Finding]:
        return iter(())

    def finding_at(self, path: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            severity=self.severity,
            message=message,
        )


# --------------------------------------------------------------------- #
# R010 cache-key-completeness
# --------------------------------------------------------------------- #


class CacheKeyCompleteness(ProgramRule):
    """R010 cache-key-completeness: every config field that influences
    generated output must participate in the structural cache
    fingerprint.

    The dataset cache keys entries by ``config_fingerprint`` — a hash
    over the config dataclass minus the ``NON_STRUCTURAL_FIELDS``
    exclusions.  If a field is excluded (or popped from the payload)
    while generation code still *reads* it, two different markets can
    silently share one cache entry: exactly the class of bug a
    worker-count or sharding knob invites.  This rule taints every
    ``*Config`` dataclass value flowing from the generation entry points
    (``run_engine``, the cached loaders, ``stream_partitioned``, the
    simulator ``run`` methods), collects each field read reachable from
    them, and fails when a read field is excluded from the fingerprint
    without a ``# cache-key:`` justification on the exclusion line.  Reads of
    attributes that are neither fields, properties nor methods of any
    config class are flagged too — they are typos the type checker may
    miss on dynamic paths.

    The two ``repro.runs.runner`` functions that read the config
    (``context_for``, which records it in a run context, and
    ``open_market``, which opens the dataset a context names) are entry
    points too: a resumed run must land on the same cached dataset as
    the original invocation, which only holds while every config field
    they cause to be read is covered by the fingerprint that run ids and
    cache keys are both derived from.
    """

    id = "R010"
    name = "cache-key-completeness"
    scope = ()

    #: Module-level functions treated as generation entry points.
    _ENTRY_NAMES = {
        "run_engine", "cached_market", "cached_generate",
        "cached_partitioned_store", "stream_partitioned", "generate_market",
        # repro.runs.runner: every run (resumed ones included) derives
        # its dataset from a RunContext, so these config reads are keyed.
        "context_for", "open_market",
    }

    def _entries(self, program: Program) -> Set[str]:
        entries: Set[str] = set()
        for qual, fn in program.functions.items():
            if fn.cls is None and fn.name in self._ENTRY_NAMES:
                entries.add(qual)
            elif fn.cls is not None and fn.name == "run":
                cls = program.classes.get(fn.cls)
                if cls is not None and "Simulator" in cls.name:
                    entries.add(qual)
        return entries

    def _exclusions(self, program: Program, fingerprint: FunctionInfo
                    ) -> Dict[str, Tuple[str, int]]:
        """Excluded field -> (path, lineno) of the excluding line."""
        excluded: Dict[str, Tuple[str, int]] = {}
        path = fingerprint.source.path
        mod_tree = fingerprint.source.tree
        for node in mod_tree.body:
            names, value = _assign_targets(node)
            if "NON_STRUCTURAL_FIELDS" not in names or value is None:
                continue
            for inner in ast.walk(value):
                if isinstance(inner, ast.Constant) and isinstance(
                    inner.value, str
                ):
                    excluded[inner.value] = (path, inner.lineno)
        for node in ast.walk(fingerprint.node):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "pop"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                excluded[node.args[0].value] = (path, node.lineno)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if (isinstance(target, ast.Subscript)
                            and isinstance(target.slice, ast.Constant)
                            and isinstance(target.slice.value, str)):
                        excluded[target.slice.value] = (path, target.lineno)
        return excluded

    def check_program(self, program: Program) -> Iterator[Finding]:
        config_classes = [
            cls for cls in program.classes.values()
            if cls.is_dataclass and cls.name.endswith("Config")
        ]
        fingerprints = [
            fn for fn in program.functions.values()
            if fn.cls is None and fn.name == "config_fingerprint"
        ]
        if not config_classes or not fingerprints:
            return
        fields: Set[str] = set()
        computed: Set[str] = set()
        for cls in config_classes:
            fields.update(cls.fields)
            computed.update(cls.properties)
            computed.update(cls.methods)
        excluded: Dict[str, Tuple[str, int]] = {}
        for fingerprint in fingerprints:
            excluded.update(self._exclusions(program, fingerprint))

        reachable = program.reachable_from(self._entries(program))
        taint = ConfigTaint(program, {cls.name for cls in config_classes})
        reported: Set[Tuple[str, str]] = set()
        for read in taint.reads:
            if read.func not in reachable:
                continue
            if read.attr in excluded:
                where = excluded[read.attr]
                if program.has_marker(where[0], where[1], "# cache-key:"):
                    continue
                key = (read.attr, read.path)
                if key in reported:
                    continue
                reported.add(key)
                yield self.finding_at(
                    read.path, read.node,
                    f"config field '{read.attr}' is read by generation "
                    f"code (via {read.func}) but excluded from the "
                    f"structural cache fingerprint in {where[0]} — two "
                    f"configs differing only in '{read.attr}' would share "
                    f"a cache entry; include the field or justify the "
                    f"exclusion with a `# cache-key:` comment there",
                )
            elif read.attr not in fields and read.attr not in computed:
                key = (read.attr, read.path)
                if key in reported:
                    continue
                reported.add(key)
                names = ", ".join(sorted(c.name for c in config_classes))
                yield self.finding_at(
                    read.path, read.node,
                    f"read of unknown config attribute '{read.attr}' — "
                    f"not a field, property or method of {names}",
                )


# --------------------------------------------------------------------- #
# R011 fork-unsafe-capture
# --------------------------------------------------------------------- #


class ForkSafety(ProgramRule):
    """R011 fork-unsafe-capture: nothing process-local may ship through
    a fork boundary.

    ``robust.parallel.forked_map`` forks workers; a closure or items
    list that captures a lock, an open file handle, a memory-mapped
    ``PartitionStore`` reader, or a live tracer hands the child a
    handle whose kernel state it shares with the parent — fcntl locks
    silently *vanish* when the child exits, mmap pages and file
    offsets race, and a tracer object captured directly (instead of
    letting ``forked_map`` return child traces for ``merge_child``)
    loses every count the child records.  The rule inspects each
    ``forked_map`` call site: the worker function must not close over
    such state and the items must not carry it.  It also flags
    ``ProcessPoolExecutor`` / ``multiprocessing.Pool`` built outside
    ``robust.parallel`` — those children's tracers are never merged
    back.  Justify deliberate sites with ``# fork-safe:`` on the call
    line or the line above.
    """

    id = "R011"
    name = "fork-unsafe-capture"
    scope = ()

    _LOCKS = {"FileLock", "Lock", "RLock", "Semaphore", "BoundedSemaphore",
              "Condition"}
    _TRACERS = {"get_tracer", "Tracer"}
    _STORES = {"open_or_quarantine", "cached_market",
               "cached_partitioned_store", "memmap"}
    _POOLS = {"ProcessPoolExecutor", "Pool"}
    _POOL_HOME = "src/repro/robust/parallel.py"

    def _unsafe_category(self, call: ast.Call) -> Optional[str]:
        name = _terminal(call.func)
        if name in self._LOCKS:
            return "lock"
        if name in self._TRACERS:
            return "tracer"
        if name in self._STORES:
            return "mmap-backed store"
        if name == "open":
            if isinstance(call.func, ast.Name):
                return "live file handle"
            # SomeStore.open(...) / store.open(...)
            owner = _terminal(getattr(call.func, "value", None))
            if owner and "Store" in owner:
                return "mmap-backed store"
            return None
        if name == "load":
            if any(kw.arg == "mmap_mode" for kw in call.keywords):
                return "mmap-backed array"
        return None

    def _unsafe_locals(self, fn_node: ast.AST) -> Dict[str, str]:
        unsafe: Dict[str, str] = {}

        def mark(target: ast.AST, category: str) -> None:
            if isinstance(target, ast.Name):
                unsafe[target.id] = category
            elif isinstance(target, ast.Tuple):
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        unsafe[elt.id] = category

        for node in ast.walk(fn_node):
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                category = self._unsafe_category(node.value)
                if category:
                    for target in node.targets:
                        mark(target, category)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if (isinstance(item.context_expr, ast.Call)
                            and item.optional_vars is not None):
                        category = self._unsafe_category(item.context_expr)
                        if category:
                            mark(item.optional_vars, category)
        return unsafe

    def _free_names(self, node: ast.AST) -> Set[str]:
        """Names a lambda/nested def reads but does not bind itself."""
        bound: Set[str] = set()
        loads: Set[str] = set()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            bound.update(a.arg for a in list(args.posonlyargs)
                         + list(args.args) + list(args.kwonlyargs))
            if args.vararg:
                bound.add(args.vararg.arg)
            if args.kwarg:
                bound.add(args.kwarg.arg)
        for inner in ast.walk(node):
            if isinstance(inner, ast.Name):
                if isinstance(inner.ctx, ast.Store):
                    bound.add(inner.id)
                else:
                    loads.add(inner.id)
        return loads - bound

    def check_program(self, program: Program) -> Iterator[Finding]:
        for fn in program.functions.values():
            path = fn.source.path
            unsafe = self._unsafe_locals(fn.node)
            nested: Dict[str, ast.AST] = {
                node.name: node
                for node in ast.walk(fn.node)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node is not fn.node
            }
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                name = _terminal(node.func)
                if name in self._POOLS and path != self._POOL_HOME:
                    if not program.has_marker(path, node.lineno,
                                              "# fork-safe:"):
                        yield self.finding_at(
                            path, node,
                            f"direct {name} use bypasses "
                            f"robust.parallel.forked_map — child tracers "
                            f"are never merge_child-ed back and there is "
                            f"no serial fallback; route through "
                            f"forked_map or justify with `# fork-safe:`",
                        )
                    continue
                if name != "forked_map" or not unsafe:
                    continue
                if program.has_marker(path, node.lineno, "# fork-safe:"):
                    continue
                captured: Dict[str, str] = {}
                for arg in list(node.args) + [kw.value
                                              for kw in node.keywords]:
                    for free in self._free_names(arg) if not isinstance(
                        arg, ast.Name
                    ) else {arg.id}:
                        if free in unsafe:
                            captured[free] = unsafe[free]
                        elif free in nested:
                            for inner_free in self._free_names(nested[free]):
                                if inner_free in unsafe:
                                    captured[inner_free] = unsafe[inner_free]
                for var, category in sorted(captured.items()):
                    yield self.finding_at(
                        path, node,
                        f"forked_map ships '{var}' (a {category}) across "
                        f"the fork boundary — child processes share its "
                        f"kernel state with the parent; open/acquire it "
                        f"inside the worker instead, or justify with "
                        f"`# fork-safe:`",
                    )


# --------------------------------------------------------------------- #
# R012 schema-consistency
# --------------------------------------------------------------------- #


class SchemaConsistency(ProgramRule):
    """R012 schema-consistency: every column name and dtype in the tree
    must agree with the declared registry.

    The table dialect (``user_*``/``t_*``/``x_*`` global columns,
    ``c_*``/``p_*``/``r_*`` month columns) is declared exactly once, in
    ``repro.core.schema.COLUMN_SCHEMA``.  This rule extracts every
    column-shaped string at producer sites (dict-literal table keys,
    with the dtype the value expression constructs) and consumer sites
    (``tables["c_id"]`` subscripts, ``.col("c_id")``/``.get(...)``
    calls, ``cat("c_type", np.int8)`` merge helpers) across the whole
    ``src/`` tree and cross-checks name and dtype against the registry.
    A name outside the registry is a typo or an undeclared schema
    change; a mismatched dtype is silent truncation waiting for scale.
    Engine-internal scratch keys are declared in ``INTERNAL_COLUMNS``;
    deliberate off-registry strings can be justified with ``# schema:``
    on the line or the line above.
    """

    id = "R012"
    name = "schema-consistency"
    scope = ()

    _PATTERN = re.compile(r"^(?:user|c|t|p|r|x)_[a-z0-9_]+$")
    _CALLEES = {"col", "get", "cat", "cat_users", "cat_threads", "cat_strs",
                "pop"}
    _NP_DTYPES = {
        "int64": "int64", "int32": "int32", "int8": "int8",
        "float64": "float64", "float32": "float32",
        "bool_": "bool", "bool": "bool",
        "str_": "str", "unicode_": "str",
    }
    _ARRAY_CALLS = {"asarray", "array", "empty", "zeros", "ones", "full",
                    "arange", "concatenate", "where"}

    def _registry(self, program: Program
                  ) -> "Optional[Tuple[str, Dict[str, str], Set[str]]]":
        for mod in program.modules.values():
            schema: Optional[Dict[str, str]] = None
            internal: Set[str] = set()
            for node in mod.source.tree.body:
                names, value = _assign_targets(node)
                if value is None:
                    continue
                if "COLUMN_SCHEMA" in names and isinstance(value, ast.Dict):
                    entries: Dict[str, str] = {}
                    for key, val in zip(value.keys, value.values):
                        if (isinstance(key, ast.Constant)
                                and isinstance(key.value, str)
                                and isinstance(val, ast.Constant)
                                and isinstance(val.value, str)):
                            entries[key.value] = val.value
                    schema = entries
                elif "INTERNAL_COLUMNS" in names:
                    for inner in ast.walk(value):
                        if isinstance(inner, ast.Constant) and isinstance(
                            inner.value, str
                        ):
                            internal.add(inner.value)
            if schema is not None:
                return mod.source.path, schema, internal
        return None

    def _dtype_of_expr(self, expr: ast.AST) -> Optional[str]:
        """The storage dtype an expression constructs, when inferable."""
        if isinstance(expr, ast.IfExp):
            branches = [self._dtype_of_expr(expr.body),
                        self._dtype_of_expr(expr.orelse)]
            resolved = [b for b in branches if b]
            if len(set(resolved)) == 1:
                return resolved[0]
            return None
        if not isinstance(expr, ast.Call):
            return None
        name = _terminal(expr.func)
        if name == "astype" and expr.args:
            return self._dtype_name(expr.args[0])
        for kw in expr.keywords:
            if kw.arg == "dtype":
                return self._dtype_name(kw.value)
        if name == "cat" and len(expr.args) >= 2:
            return self._dtype_name(expr.args[1])
        if name in self._ARRAY_CALLS and len(expr.args) >= 2:
            return self._dtype_name(expr.args[-1])
        return None

    def _dtype_name(self, node: ast.AST) -> Optional[str]:
        terminal = _terminal(node)
        if terminal is None:
            return None
        return self._NP_DTYPES.get(terminal)

    def check_program(self, program: Program) -> Iterator[Finding]:
        registry = self._registry(program)
        if registry is None:
            return
        registry_path, schema, internal = registry
        known = set(schema) | internal

        def check_name(path: str, node: ast.AST, name: str,
                       context: str) -> Iterator[Finding]:
            if name in known:
                return
            if program.has_marker(path, node.lineno, "# schema:"):
                return
            yield self.finding_at(
                path, node,
                f"column name '{name}' ({context}) is not declared in "
                f"the schema registry ({registry_path}) — fix the typo, "
                f"register the column, or justify with `# schema:`",
            )

        for source in program.sources:
            path = source.path
            if path == registry_path:
                continue
            for node in ast.walk(source.tree):
                if isinstance(node, ast.Dict):
                    for key, value in zip(node.keys, node.values):
                        if not (isinstance(key, ast.Constant)
                                and isinstance(key.value, str)
                                and self._PATTERN.match(key.value)):
                            continue
                        yield from check_name(path, key, key.value,
                                              "table dict key")
                        declared = schema.get(key.value)
                        produced = self._dtype_of_expr(value)
                        if (declared and produced
                                and produced != declared
                                and not program.has_marker(
                                    path, key.lineno, "# schema:")):
                            yield self.finding_at(
                                path, key,
                                f"column '{key.value}' produced with "
                                f"dtype {produced} but the schema "
                                f"registry declares {declared} — silent "
                                f"truncation/widening at store "
                                f"boundaries",
                            )
                elif isinstance(node, ast.Subscript):
                    index = node.slice
                    if (isinstance(index, ast.Constant)
                            and isinstance(index.value, str)
                            and self._PATTERN.match(index.value)):
                        yield from check_name(path, node, index.value,
                                              "table subscript")
                elif isinstance(node, ast.Call):
                    if (_terminal(node.func) in self._CALLEES
                            and node.args
                            and isinstance(node.args[0], ast.Constant)
                            and isinstance(node.args[0].value, str)
                            and self._PATTERN.match(node.args[0].value)):
                        yield from check_name(
                            path, node, node.args[0].value,
                            f"{_terminal(node.func)}() argument",
                        )


# --------------------------------------------------------------------- #
# R013 rng-provenance
# --------------------------------------------------------------------- #


class RngProvenance(ProgramRule):
    """R013 rng-provenance: no unseeded Generator may reach a kernel,
    even through helpers.

    R001 stops calls into the *global* RNGs, but a
    ``np.random.default_rng()`` (no seed) or bare ``SeedSequence()``
    pulls OS entropy — per-run nondeterminism with exactly the same
    consequences, and trivially laundered through a helper function
    (``def make_rng(): return np.random.default_rng()``).  This rule
    finds every unseeded numpy generator/bit-generator/seed-sequence
    construction in ``src/``, then propagates *returns an unseeded
    generator* across the call graph and flags every call site that
    consumes one.  Thread the config seed (or a spawned
    ``SeedSequence``) down instead.  Deliberately nondeterministic
    sites (none exist today) take an ``# rng:`` justification on the
    construction line, which also clears the downstream call sites.
    """

    id = "R013"
    name = "rng-provenance"
    scope = ()

    _CREATORS = {"default_rng", "SeedSequence", "PCG64", "Philox", "SFC64",
                 "MT19937"}

    def _creator_name(self, program: Program, module: str,
                      call: ast.Call) -> Optional[str]:
        """The numpy.random creator this call constructs, if any."""
        chain = _dotted_chain(call.func)
        if not chain or chain[-1] not in self._CREATORS | {"Generator"}:
            return None
        mod = program.modules.get(module)
        imports = mod.imports if mod else {}
        head = imports.get(chain[0], chain[0])
        dotted = ".".join([head] + list(chain[1:]))
        if dotted.startswith("numpy.random.") or dotted.startswith(
            "numpy.Generator"
        ):
            return chain[-1]
        return None

    def _is_unseeded(self, program: Program, module: str,
                     call: ast.Call) -> bool:
        name = self._creator_name(program, module, call)
        if name is None:
            return False
        if name == "Generator":
            return any(
                isinstance(arg, ast.Call)
                and self._is_unseeded(program, module, arg)
                for arg in call.args
            )
        return not call.args and not call.keywords

    def check_program(self, program: Program) -> Iterator[Finding]:
        direct: Dict[str, List[ast.Call]] = {}
        justified_fns: Set[str] = set()
        for fn in program.functions.values():
            sites = [
                node for node in ast.walk(fn.node)
                if isinstance(node, ast.Call)
                and self._is_unseeded(program, fn.module, node)
            ]
            if sites:
                direct[fn.qualname] = sites
                if all(program.has_marker(fn.source.path, s.lineno, "# rng:")
                       for s in sites):
                    justified_fns.add(fn.qualname)

        # functions that (transitively) return an unseeded generator
        unseeded_returning: Set[str] = set(
            q for q in direct if q not in justified_fns
        )
        for _ in range(len(program.functions)):
            added = False
            for fn in program.functions.values():
                if (fn.qualname in unseeded_returning
                        or fn.qualname in justified_fns):
                    continue
                if self._returns_unseeded(program, fn, unseeded_returning):
                    unseeded_returning.add(fn.qualname)
                    added = True
            if not added:
                break

        for qual, sites in direct.items():
            fn = program.functions[qual]
            for site in sites:
                if program.has_marker(fn.source.path, site.lineno, "# rng:"):
                    continue
                yield self.finding_at(
                    fn.source.path, site,
                    f"unseeded numpy generator constructed in {qual} — "
                    f"output differs every run; thread the config seed / "
                    f"a spawned SeedSequence through, or justify with "
                    f"`# rng:`",
                )
        for fn in program.functions.values():
            for call, target in program.calls.get(fn.qualname, ()):
                if target not in unseeded_returning:
                    continue
                if target == fn.qualname or fn.qualname in unseeded_returning:
                    continue
                if program.has_marker(fn.source.path, call.lineno, "# rng:"):
                    continue
                yield self.finding_at(
                    fn.source.path, call,
                    f"call receives a Generator created without a seed "
                    f"inside '{target}' — the nondeterminism crosses the "
                    f"function boundary; pass an explicit seed through "
                    f"the helper",
                )

    def _returns_unseeded(self, program: Program, fn: FunctionInfo,
                          unseeded: Set[str]) -> bool:
        resolved = dict(program.calls.get(fn.qualname, ()))
        tainted_locals: Set[str] = set()

        def value_unseeded(expr: Optional[ast.AST]) -> bool:
            if expr is None:
                return False
            if isinstance(expr, ast.Name):
                return expr.id in tainted_locals
            if isinstance(expr, ast.Call):
                if self._is_unseeded(program, fn.module, expr):
                    return True
                for call, target in program.calls.get(fn.qualname, ()):
                    if call is expr and target in unseeded:
                        return True
            return False

        for _ in range(2):
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Assign) and value_unseeded(
                    node.value
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            tainted_locals.add(target.id)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Return) and value_unseeded(node.value):
                return True
        return False


# --------------------------------------------------------------------- #
# R014 stale-justification
# --------------------------------------------------------------------- #


class StaleJustification(ProgramRule):
    """R014 stale-justification: a justification comment must sit on a
    line that still triggers its rule.

    The marker comments (``# robust:``, ``# partition:``,
    ``# fork-safe:``, ``# cache-key:``, ``# rng:``, ``# schema:``) are
    load-bearing: each one switches off a lint rule at one site.  When
    the code under a marker is refactored away the comment tends to
    stay — a suppression with nothing to suppress, which will silently
    swallow the *next* real finding that drifts onto that line.  For
    every marker comment (real ``tokenize`` comments only, so
    docstrings that merely mention a marker never count) this rule
    checks that the line below or beside it actually contains the
    construct the marker justifies — a broad except handler for
    ``# robust:``, a ``.materialize()``/``.tables()`` call for
    ``# partition:``, a fork site for ``# fork-safe:``, a fingerprint
    exclusion for ``# cache-key:``, an RNG construction for
    ``# rng:``, a column-name string for ``# schema:`` — and tells you
    to delete or move the comment otherwise.
    """

    id = "R014"
    name = "stale-justification"
    scope = ()

    _MARKERS = ("# robust:", "# partition:", "# fork-safe:", "# cache-key:",
                "# rng:", "# schema:")
    _RNG_NAMES = {"default_rng", "Generator", "SeedSequence", "PCG64",
                  "Philox", "SFC64", "MT19937"}
    _COLUMN = re.compile(r"^(?:user|c|t|p|r|x)_[a-z0-9_]+$")

    def _anchors(self, tree: ast.Module) -> Dict[str, Set[int]]:
        """Marker -> line numbers that legitimately carry it."""
        anchors: Dict[str, Set[int]] = {m: set() for m in self._MARKERS}
        fingerprint_funcs = [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "config_fingerprint"
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler):
                anchors["# robust:"].add(node.lineno)
            elif isinstance(node, ast.Call):
                name = _terminal(node.func)
                if (isinstance(node.func, ast.Attribute)
                        and name in ("materialize", "tables")):
                    anchors["# partition:"].add(node.lineno)
                if name in ("forked_map", "ProcessPoolExecutor", "Pool"):
                    anchors["# fork-safe:"].add(node.lineno)
                if name in self._RNG_NAMES:
                    anchors["# rng:"].add(node.lineno)
            if isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ) and self._COLUMN.match(node.value):
                anchors["# schema:"].add(node.lineno)
        for node in ast.walk(tree):
            names, value = _assign_targets(node)
            if "NON_STRUCTURAL_FIELDS" in names:
                end = getattr(node, "end_lineno", node.lineno)
                anchors["# cache-key:"].update(
                    range(node.lineno, end + 1)
                )
        for func in fingerprint_funcs:
            for node in ast.walk(func):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "pop"):
                    anchors["# cache-key:"].add(node.lineno)
                elif isinstance(node, ast.Delete):
                    anchors["# cache-key:"].add(node.lineno)
        return anchors

    def check_program(self, program: Program) -> Iterator[Finding]:
        for source in program.sources:
            anchors = self._anchors(source.tree)
            for lineno, comment in sorted(
                program.comments.get(source.path, {}).items()
            ):
                for marker in self._MARKERS:
                    if marker not in comment:
                        continue
                    if (lineno in anchors[marker]
                            or lineno + 1 in anchors[marker]):
                        continue
                    yield Finding(
                        path=source.path, line=lineno, col=0,
                        rule=self.id, severity=self.severity,
                        message=(
                            f"stale `{marker}` justification — no "
                            f"construct its rule checks sits on this "
                            f"line or the next; the suppression is "
                            f"dead, delete the comment or move it to "
                            f"the triggering line"
                        ),
                    )


#: Registered by :mod:`repro.devtools.lint.rules` into the main table.
PROGRAM_RULES: Dict[str, type] = {
    rule.id: rule
    for rule in (
        CacheKeyCompleteness,
        ForkSafety,
        SchemaConsistency,
        RngProvenance,
        StaleJustification,
    )
}
