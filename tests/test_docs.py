"""The docs stay true: link targets resolve and code blocks execute.

Runs the same checks as ``tools/check_docs.py`` (the docs CI job), plus
unit tests of the checker itself so a broken checker cannot silently
pass broken docs."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(ROOT / "tools"))
try:
    from check_docs import (
        EXECUTABLE_DOCS,
        _anchor,
        check_cli_flags,
        check_dotted_names,
        check_links,
        check_orphan_docs,
        exec_blocks,
        python_blocks,
    )
finally:
    sys.path.pop(0)


class TestRepoDocs:
    def test_no_dead_links(self):
        files = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))
        assert len(files) >= 5
        errors = check_links(files)
        assert not errors, "\n".join(errors)

    def test_no_orphan_docs(self):
        docs = sorted((ROOT / "docs").glob("*.md"))
        errors = check_orphan_docs(ROOT / "README.md", docs)
        assert not errors, "\n".join(errors)

    def test_no_stale_cli_flags(self):
        files = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))
        errors = check_cli_flags(files)
        assert not errors, "\n".join(errors)

    def test_no_stale_dotted_names(self):
        files = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
        files += sorted((ROOT / "docs").glob("*.md"))
        errors = check_dotted_names(files)
        assert not errors, "\n".join(errors)

    def test_observability_doc_blocks_execute(self):
        _, errors = exec_blocks(ROOT / "docs" / "observability.md")
        assert not errors, "\n".join(errors)

    def test_executable_docs_exist_and_have_blocks(self):
        for rel in EXECUTABLE_DOCS:
            path = ROOT / rel
            assert path.exists(), rel
            assert python_blocks(path), f"{rel} has no python blocks"


class TestCheckerUnits:
    def test_anchor_rule(self):
        assert _anchor("## Capturing a session".lstrip("# ")) == "capturing-a-session"
        assert _anchor("The three artifacts") == "the-three-artifacts"
        assert _anchor("Metrics, spans & exporters") == "metrics-spans--exporters"
        assert _anchor("`events.jsonl`") == "eventsjsonl"

    def test_dead_link_detected(self, tmp_path):
        doc = tmp_path / "a.md"
        doc.write_text("see [other](missing.md) and [ok](b.md)\n")
        (tmp_path / "b.md").write_text("# B\n")
        errors = check_links([doc])
        assert len(errors) == 1
        assert "missing.md" in errors[0]

    def test_missing_anchor_detected(self, tmp_path):
        doc = tmp_path / "a.md"
        (tmp_path / "b.md").write_text("# Real Heading\n")
        doc.write_text("[x](b.md#real-heading) [y](b.md#no-such)\n")
        errors = check_links([doc])
        assert len(errors) == 1
        assert "#no-such" in errors[0]

    def test_external_links_skipped(self, tmp_path):
        doc = tmp_path / "a.md"
        doc.write_text("[p](https://ui.perfetto.dev) [m](mailto:x@y.z)\n")
        assert check_links([doc]) == []

    def test_python_blocks_extraction(self, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text(
            "text\n```python\nx = 1\nprint(x)\n```\n"
            "```bash\nls\n```\n```python\nprint(x + 1)\n```\n"
        )
        blocks = python_blocks(doc)
        assert [b[1] for b in blocks] == ["x = 1\nprint(x)", "print(x + 1)"]

    def test_exec_blocks_shares_namespace_and_captures(self, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text(
            "```python\nx = 2\n```\n```python\nprint(x * 21)\n```\n"
        )
        outputs, errors = exec_blocks(doc)
        assert errors == []
        assert outputs == ["", "42\n"]

    def test_exec_blocks_reports_block_and_line(self, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text("intro\n```python\nraise ValueError('boom')\n```\n")
        _, errors = exec_blocks(doc)
        assert len(errors) == 1
        assert "block 1" in errors[0]
        assert "boom" in errors[0]

    def test_orphan_doc_detected(self, tmp_path):
        readme = tmp_path / "README.md"
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "linked.md").write_text("# L\n")
        (docs / "orphan.md").write_text("# O\n")
        readme.write_text("[l](docs/linked.md)\n")
        errors = check_orphan_docs(readme, sorted(docs.glob("*.md")))
        assert len(errors) == 1
        assert "orphan.md" in errors[0]
        assert "linked.md" not in errors[0]

    def test_orphan_check_follows_anchored_links(self, tmp_path):
        readme = tmp_path / "README.md"
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "a.md").write_text("# A\n## Sec\n")
        readme.write_text("[a](docs/a.md#sec)\n")
        assert check_orphan_docs(readme, sorted(docs.glob("*.md"))) == []

    def test_stale_cli_flag_detected(self, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text(
            "```bash\nrepro-bfs run --scale 12 --no-such-flag\n```\n"
        )
        errors = check_cli_flags([doc])
        assert len(errors) == 1
        assert "--no-such-flag" in errors[0]
        assert "--scale" not in errors[0]

    def test_stale_dotted_name_detected(self, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text(
            "See `repro.no_such_module` and `repro.semiext.tiered.Nope`,\n"
            "not `repro.semiext.tiered.TieredScanner` or `repro.obs.slo`.\n"
        )
        errors = check_dotted_names([doc])
        assert len(errors) == 2
        assert "repro.no_such_module" in errors[0]
        assert "repro.semiext.tiered.Nope" in errors[1]

    def test_cli_flag_check_spans_continuation_lines(self, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text(
            "```bash\nrepro-bfs run --scale 12 \\\n"
            "              --bogus-continued auto\n```\n"
        )
        errors = check_cli_flags([doc])
        assert len(errors) == 1
        assert "--bogus-continued" in errors[0]

    def test_cli_flag_check_ignores_prose_and_other_tools(self, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text(
            "prose about repro-bfs run --not-in-a-fence\n"
            "```bash\nothertool --whatever\n```\n"
            "```bash\nrepro-bfs run --offload-k auto\n```\n"
        )
        assert check_cli_flags([doc]) == []


class TestToolCli:
    def test_links_only_run_passes(self):
        import subprocess

        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "check_docs.py"),
             "--links-only"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "docs OK" in proc.stdout
