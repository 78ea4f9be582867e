#!/usr/bin/env python
"""Documentation checker: dead links, orphan docs, stale flags, code blocks.

Two passes, both offline:

1. **Links** — every markdown link in ``README.md`` and ``docs/*.md``
   whose target is a local path must resolve relative to the file that
   contains it; ``path#anchor`` targets must also name a heading that
   exists in the target file (GitHub anchor rules: lowercase, spaces to
   dashes, punctuation dropped).  ``http(s)``/``mailto`` targets are
   syntax-checked only — CI has no network.  The same pass fails on
   **orphan docs** (a ``docs/*.md`` that no README link reaches — it
   would be invisible to a reader starting at the front door) and on
   **stale CLI flags**: every ``--flag`` on a ``repro-bfs`` line inside
   a fenced block must exist on the real argparse parser, so docs cannot
   drift ahead of (or behind) the CLI.  Likewise every backticked dotted
   name ``repro.x.y`` in ``README.md``, ``DESIGN.md``, ``EXPERIMENTS.md``
   and ``docs/*.md`` must resolve to a module or attribute of the
   installed package (**stale dotted names**).
2. **Code blocks** — every fenced ```` ```python ```` block in the
   executable docs (``docs/tutorial.md``, ``docs/observability.md``,
   ``docs/serving.md``, ``docs/slo.md``, ``docs/conformance.md``,
   ``docs/recovery.md``, ``docs/offload.md``) runs
   top to bottom in one shared namespace per file, from a scratch working
   directory, exactly like a reader pasting the tutorial into a REPL.
   A block raising makes the build fail with the file, block number and
   traceback.

Usage::

    python tools/check_docs.py            # both passes, default file sets
    python tools/check_docs.py --links-only
    python tools/check_docs.py --exec-only docs/tutorial.md
"""

from __future__ import annotations

import argparse
import io
import re
import sys
import tempfile
import traceback
from contextlib import redirect_stdout
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Docs whose ```python blocks must execute cleanly.
EXECUTABLE_DOCS = (
    "docs/tutorial.md",
    "docs/observability.md",
    "docs/serving.md",
    "docs/slo.md",
    "docs/conformance.md",
    "docs/recovery.md",
    "docs/offload.md",
    "docs/partitioning.md",
    "docs/dynamic.md",
)

_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_FENCE = re.compile(r"^```(\w*)\s*$")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$")


def _anchor(heading: str) -> str:
    """GitHub's heading → fragment rule (close enough for our docs)."""
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _rel(path: Path) -> Path:
    """Repo-relative when possible (tests point at tmp files too)."""
    try:
        return path.relative_to(REPO)
    except ValueError:
        return path


def _anchors_of(path: Path) -> set[str]:
    return {
        _anchor(m.group(1))
        for line in path.read_text().splitlines()
        if (m := _HEADING.match(line))
    }


def check_links(files: list[Path]) -> list[str]:
    """Return one error string per dead link (empty = clean)."""
    errors: list[str] = []
    for path in files:
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for target in _LINK.findall(line):
                where = f"{_rel(path)}:{lineno}"
                if target.startswith(("http://", "https://", "mailto:")):
                    continue  # offline: syntax presence is the check
                base, _, fragment = target.partition("#")
                dest = (path.parent / base).resolve() if base else path
                if not dest.exists():
                    errors.append(f"{where}: dead link -> {target}")
                    continue
                if fragment and dest.suffix == ".md":
                    if fragment not in _anchors_of(dest):
                        errors.append(
                            f"{where}: missing anchor #{fragment} in {base or path.name}"
                        )
    return errors


def check_orphan_docs(readme: Path, docs: list[Path]) -> list[str]:
    """Every doc under ``docs/`` must be a link target in the README.

    A page nobody links to from the front door is a page nobody finds;
    new docs must register themselves in the README docs table.
    """
    linked: set[Path] = set()
    for target in _LINK.findall(readme.read_text()):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        base = target.partition("#")[0]
        if base:
            dest = (readme.parent / base).resolve()
            if dest.exists():
                linked.add(dest)
    return [
        f"{_rel(doc)}: orphan doc — not linked from {_rel(readme)}"
        for doc in docs
        if doc.resolve() not in linked
    ]


def _cli_flags() -> set[str]:
    """All option strings the real ``repro-bfs`` parser accepts."""
    from repro.cli import build_parser

    flags: set[str] = set()

    def walk(parser: argparse.ArgumentParser) -> None:
        for action in parser._actions:
            flags.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    walk(sub)

    walk(build_parser())
    return flags


_FLAG = re.compile(r"(?<![\w-])(--[a-z][\w-]*)")


def check_cli_flags(files: list[Path]) -> list[str]:
    """Flag every ``--option`` in a fenced ``repro-bfs`` line that the
    real parser does not accept (stale or misspelled docs)."""
    known = _cli_flags()
    errors: list[str] = []
    for path in files:
        in_fence = False
        continued = False
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if line.strip().startswith("```"):
                in_fence = not in_fence
                continued = False
                continue
            if not in_fence:
                continue
            is_cli = "repro-bfs" in line or continued
            continued = is_cli and line.rstrip().endswith("\\")
            if not is_cli:
                continue
            for flag in _FLAG.findall(line):
                if flag not in known:
                    errors.append(
                        f"{_rel(path)}:{lineno}: unknown repro-bfs flag "
                        f"{flag} (stale docs or typo)"
                    )
    return errors


_DOTTED = re.compile(r"`(repro(?:\.\w+)+)`")


def _resolves(name: str) -> bool:
    """Whether ``name`` is an importable module or an attribute path below
    the longest importable module prefix."""
    import importlib

    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def check_dotted_names(files: list[Path]) -> list[str]:
    """Flag every backticked ``repro.x.y`` that names no module or
    attribute (a renamed or deleted module left behind in the docs)."""
    errors: list[str] = []
    for path in files:
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for name in _DOTTED.findall(line):
                if not _resolves(name):
                    errors.append(
                        f"{_rel(path)}:{lineno}: stale dotted name {name} "
                        f"(no such module or attribute)"
                    )
    return errors


def python_blocks(path: Path) -> list[tuple[int, str]]:
    """``(first_line_number, source)`` of each ```python fence."""
    blocks: list[tuple[int, str]] = []
    lang, start, buf = None, 0, []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        fence = _FENCE.match(line)
        if fence and lang is None:
            lang, start, buf = fence.group(1), lineno + 1, []
        elif line.strip() == "```" and lang is not None:
            if lang == "python":
                blocks.append((start, "\n".join(buf)))
            lang = None
        elif lang is not None:
            buf.append(line)
    return blocks


def exec_blocks(path: Path) -> tuple[list[str], list[str]]:
    """Execute a doc's python blocks in one shared namespace.

    Returns ``(outputs, errors)``: the captured stdout of each block (in
    order) and one formatted error per block that raised.  The tests
    reuse this to assert the tutorial's printed output *shape*, not just
    that it runs.
    """
    outputs: list[str] = []
    errors: list[str] = []
    namespace: dict[str, object] = {"__name__": "__docs__"}
    rel = _rel(path)
    with tempfile.TemporaryDirectory(prefix="repro-docs-") as scratch:
        import os

        cwd = os.getcwd()
        os.chdir(scratch)
        try:
            for i, (lineno, source) in enumerate(python_blocks(path), 1):
                sink = io.StringIO()
                try:
                    code = compile(source, f"{rel}:block{i}", "exec")
                    with redirect_stdout(sink):
                        exec(code, namespace)  # noqa: S102 — the tool's purpose
                except Exception:
                    errors.append(
                        f"{rel}:{lineno}: block {i} raised\n"
                        + traceback.format_exc(limit=4)
                    )
                outputs.append(sink.getvalue())
        finally:
            os.chdir(cwd)
    return outputs, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path,
                        help="docs to run blocks from (default: the "
                             "executable docs)")
    parser.add_argument("--links-only", action="store_true")
    parser.add_argument("--exec-only", action="store_true")
    args = parser.parse_args(argv)

    errors: list[str] = []
    if not args.exec_only:
        readme = REPO / "README.md"
        docs = sorted((REPO / "docs").glob("*.md"))
        link_files = [readme] + docs
        errors += check_links(link_files)
        errors += check_orphan_docs(readme, docs)
        errors += check_cli_flags(link_files)
        errors += check_dotted_names(
            [REPO / "DESIGN.md", REPO / "EXPERIMENTS.md"] + link_files
        )
        print(f"links: {len(link_files)} files checked")
    if not args.links_only:
        doc_files = [f.resolve() for f in args.files] or [
            REPO / rel for rel in EXECUTABLE_DOCS
        ]
        for path in doc_files:
            n = len(python_blocks(path))
            _, block_errors = exec_blocks(path)
            errors += block_errors
            print(f"exec: {path.relative_to(REPO)} ({n} python blocks)")
    for err in errors:
        print(err, file=sys.stderr)
    if errors:
        print(f"FAILED: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print("docs OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
