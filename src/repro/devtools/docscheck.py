"""docscheck: keep the documentation site honest.

Scans ``docs/**/*.md`` and ``README.md`` for three classes of rot:

* **dead relative links** — ``[text](path.md)`` targets that no longer
  exist on disk (external ``http(s)://`` / ``mailto:`` links and pure
  ``#anchor`` fragments are ignored);
* **dead module references** — inline-code mentions of ``repro.*``
  (e.g. ```` `repro.obs.tracer` ````) that resolve to nothing under
  ``src/``.  A reference may end in up to two attribute segments: a
  ``ClassName``/dunder tail is accepted structurally, a lowercase tail
  must appear in the owning module's ``__all__`` (parsed statically, the
  package is never imported);
* **telemetry the catalogue misses** — the span, counter and gauge
  tables of ``docs/observability.md`` against the dotted names
  ``src/repro`` passes to a tracer's ``span()``/``count()``/``gauge()``
  or to a ``span=``/``*counter=`` parameter (keyword or default).  A
  name emitted but not catalogued is a finding, and so is a row no code
  emits.  An f-string name is its literal prefix, which must equal the
  prefix of a ``<…>`` row (``f"lazy.materialize.{name}"`` is the row
  ``lazy.materialize.<entity>``).

Fenced code blocks are skipped entirely, so tutorial shell transcripts
and Python examples never trip the checker.  ``python -m repro
docscheck`` exits non-zero on any finding; CI runs it in the docs job so
a renamed module or moved page fails the build instead of shipping a
broken site.
"""

from __future__ import annotations

import ast
import json
import os
import re
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "DocFinding",
    "check_catalogue",
    "check_file",
    "check_repo",
    "docs_files",
    "run_docscheck_command",
]

#: Markdown inline link: ``[text](target)``.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)<>\s]+)\)")

#: Inline-code reference to the package: ```` `repro.something[...]` ````.
MODULE_RE = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`")

#: Link targets that are never checked against the working tree.
_EXTERNAL = ("http://", "https://", "mailto:", "ftp://")

#: The telemetry catalogue, relative to the repository root.
_CATALOGUE = os.path.join("docs", "observability.md")

#: A telemetry name: dotted lowercase segments, so that the argument of
#: ``str.count(",")`` is not read as one.
_TELEMETRY_RE = re.compile(r"[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+")
#: The literal prefix of an f-string name, ending at its first field.
_PREFIX_RE = re.compile(r"[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)*\.")
#: Tracer methods and the kind of name each takes.
_TRACER_METHODS = {"span": "span", "count": "counter", "gauge": "gauge"}
#: The catalogue's table headers and the kind of name each lists.
_TABLE_KINDS = {"Span": "span", "Counter": "counter", "Gauge": "gauge"}
#: How a name family (an f-string name, a ``<…>`` row) is spelled.
_FAMILY = "<…>"


@dataclass
class DocFinding:
    """One problem in one documentation file."""

    path: str
    line: int
    kind: str  # dead-link, dead-module, uncatalogued-/stale-telemetry
    detail: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.kind}: {self.detail}"


def _module_exists(parts: Sequence[str], src: str) -> bool:
    """True when ``parts`` names a package directory or module file."""
    path = os.path.join(src, *parts)
    return os.path.isdir(path) or os.path.isfile(path + ".py")


def _module_all(parts: Sequence[str], src: str,
                cache: Dict[str, List[str]]) -> List[str]:
    """Statically parsed ``__all__`` of the module named by ``parts``."""
    key = ".".join(parts)
    if key in cache:
        return cache[key]
    path = os.path.join(src, *parts)
    path = os.path.join(path, "__init__.py") if os.path.isdir(path) else path + ".py"
    names: List[str] = []
    try:
        tree = ast.parse(open(path, "r", encoding="utf-8").read())
    except (OSError, SyntaxError):
        tree = None
    if tree is not None:
        for node in tree.body:
            if not isinstance(node, ast.Assign):
                continue
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "__all__" not in targets:
                continue
            if isinstance(node.value, (ast.List, ast.Tuple)):
                names = [
                    element.value
                    for element in node.value.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ]
    cache[key] = names
    return names


def _module_ref_ok(ref: str, src: str, cache: Dict[str, List[str]]) -> bool:
    """Does ``ref`` (``repro.x.y``) resolve to a module or exported name?"""
    parts = ref.split(".")
    resolved = 0
    for end in range(len(parts), 0, -1):
        if _module_exists(parts[:end], src):
            resolved = end
            break
    if resolved == len(parts):
        return True  # the whole reference is a module/package
    if resolved == 0:
        return False  # not even ``repro`` found — wrong --root
    tail = parts[resolved:]
    if len(tail) > 2:
        return False
    head = tail[0]
    if head.startswith("__") or head != head.lower():
        return True  # ClassName / dunder attribute — structural accept
    if len(tail) == 1 and head in _module_all(parts[:resolved], src, cache):
        return True
    return False


def check_file(path: str, root: str) -> List[DocFinding]:
    """Check one markdown file; paths in findings are root-relative."""
    src = os.path.join(root, "src")
    relative = os.path.relpath(path, root)
    findings: List[DocFinding] = []
    all_cache: Dict[str, List[str]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()

    in_fence = False
    for number, line in enumerate(lines, start=1):
        stripped = line.lstrip()
        if stripped.startswith("```") or stripped.startswith("~~~"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            target = target.split("#", 1)[0].split("?", 1)[0]
            if not target:
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), target)
            )
            if not os.path.exists(resolved):
                findings.append(
                    DocFinding(relative, number, "dead-link",
                               f"target does not exist: {target}")
                )
        for match in MODULE_RE.finditer(line):
            reference = match.group(1)
            if not _module_ref_ok(reference, src, all_cache):
                findings.append(
                    DocFinding(relative, number, "dead-module",
                               f"unresolvable reference: {reference}")
                )
    return findings


@dataclass(frozen=True)
class _Telemetry:
    """One telemetry name at one place: a call site in ``src/`` or a row
    of the catalogue.  A family's ``name`` is its literal prefix plus
    ``<…>``."""

    kind: str  # "span" | "counter" | "gauge"
    name: str
    path: str
    line: int


def _parameter_kind(name: Optional[str]) -> Optional[str]:
    """The kind of name a ``span=`` or ``*counter=`` parameter takes."""
    if name == "span":
        return "span"
    if name is not None and name.endswith("counter"):
        return "counter"
    return None


def _name_sites(node: ast.AST) -> Iterator[Tuple[str, ast.expr]]:
    """(kind, expression) of each telemetry name ``node`` passes: the
    first argument of a tracer method, a ``span=``/``*counter=`` keyword,
    or the default of such a parameter."""
    if isinstance(node, ast.Call):
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in _TRACER_METHODS
                and node.args):
            yield _TRACER_METHODS[func.attr], node.args[0]
        for keyword in node.keywords:
            kind = _parameter_kind(keyword.arg)
            if kind is not None:
                yield kind, keyword.value
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = node.args
        positional = args.posonlyargs + args.args
        defaults = list(zip(positional[len(positional) - len(args.defaults):],
                            args.defaults))
        defaults += [(arg, default) for arg, default
                     in zip(args.kwonlyargs, args.kw_defaults)
                     if default is not None]
        for arg, default in defaults:
            kind = _parameter_kind(arg.arg)
            if kind is not None:
                yield kind, default


def _telemetry_name(node: ast.expr) -> Optional[str]:
    """The dotted name a string literal spells, or the family of an
    f-string with a dotted literal prefix; ``None`` for anything else."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value if _TELEMETRY_RE.fullmatch(node.value) else None
    if isinstance(node, ast.JoinedStr) and len(node.values) > 1:
        head = node.values[0]
        if (isinstance(head, ast.Constant) and isinstance(head.value, str)
                and _PREFIX_RE.fullmatch(head.value)):
            return head.value + _FAMILY
    return None


def _emitted_telemetry(root: str) -> List[_Telemetry]:
    """Every telemetry name ``src/repro`` under ``root`` emits, per site."""
    found: List[_Telemetry] = []
    package = os.path.join(root, "src", "repro")
    for base, dirs, names in os.walk(package):
        dirs.sort()
        for file_name in sorted(names):
            if not file_name.endswith(".py"):
                continue
            path = os.path.join(base, file_name)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    tree = ast.parse(handle.read())
            except (OSError, SyntaxError):
                continue
            relative = os.path.relpath(path, root)
            for node in ast.walk(tree):
                for kind, value in _name_sites(node):
                    name = _telemetry_name(value)
                    if name is not None:
                        found.append(
                            _Telemetry(kind, name, relative, value.lineno)
                        )
    return found


def _catalogued_telemetry(path: str, root: str) -> List[_Telemetry]:
    """The names in the first column of the catalogue's span, counter
    and gauge tables; a ``<…>`` name stands for its literal prefix."""
    relative = os.path.relpath(path, root)
    found: List[_Telemetry] = []
    kind: Optional[str] = None
    in_table = False
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped.startswith("|"):
            in_table = False
            continue
        first = stripped.strip("|").split("|")[0].strip()
        if not in_table:
            in_table = True
            kind = _TABLE_KINDS.get(first)
            continue
        if kind is None:
            continue
        for name in re.findall(r"`([^`]+)`", first):
            if "<" in name:
                name = name[: name.index("<")] + _FAMILY
            found.append(_Telemetry(kind, name, relative, number))
    return found


def check_catalogue(root: str) -> List[DocFinding]:
    """Telemetry emitted under ``src/`` but not catalogued, and catalogue
    rows nothing emits; nothing to check without the catalogue."""
    path = os.path.join(root, _CATALOGUE)
    if not os.path.isfile(path):
        return []
    emitted = _emitted_telemetry(root)
    catalogued = _catalogued_telemetry(path, root)
    listed: Set[Tuple[str, str]] = {(t.kind, t.name) for t in catalogued}
    sent: Set[Tuple[str, str]] = {(t.kind, t.name) for t in emitted}
    findings = [
        DocFinding(t.path, t.line, "uncatalogued-telemetry",
                   f"{t.kind} {t.name} is not in {_CATALOGUE}")
        for t in emitted if (t.kind, t.name) not in listed
    ]
    findings += [
        DocFinding(t.path, t.line, "stale-telemetry",
                   f"{t.kind} {t.name} is catalogued but src/ never emits it")
        for t in catalogued if (t.kind, t.name) not in sent
    ]
    return findings


def docs_files(root: str) -> List[str]:
    """Every file docscheck covers: ``docs/**/*.md`` plus ``README.md``."""
    found: List[str] = []
    readme = os.path.join(root, "README.md")
    if os.path.isfile(readme):
        found.append(readme)
    docs = os.path.join(root, "docs")
    for base, _dirs, names in os.walk(docs):
        for name in sorted(names):
            if name.endswith(".md"):
                found.append(os.path.join(base, name))
    return found


def check_repo(root: str = ".") -> List[DocFinding]:
    """Run docscheck over the repository rooted at ``root``."""
    findings: List[DocFinding] = []
    for path in docs_files(root):
        findings.extend(check_file(path, root))
    findings.extend(check_catalogue(root))
    return findings


def run_docscheck_command(args) -> int:
    """Back the ``python -m repro docscheck`` subcommand."""
    root = getattr(args, "root", ".") or "."
    findings = check_repo(root)
    output_format = getattr(args, "format", "text")
    if output_format == "json":
        print(json.dumps([asdict(f) for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding.format())
        checked = len(docs_files(root))
        status = "failed" if findings else "ok"
        print(f"docscheck: {status} — {checked} files, {len(findings)} findings")
    return 1 if findings else 0
