#!/usr/bin/env python
"""Docs health check: link validation + CLI and API example smoke-runs.

Three passes, pure stdlib, run as the CI ``docs`` job:

1. **Link check** — every inline markdown link in ``README.md`` and
   ``docs/*.md`` is resolved: relative paths must exist in the repo,
   ``#fragments`` must match a heading slug in the target document.
   External ``http(s)`` links are skipped (no network in the check, by
   design — it must give the same verdict offline).
2. **CLI example smoke-run** — every fenced ```` ```sh ```` block in
   ``docs/CLI.md``, ``docs/SCENARIOS.md`` and ``docs/ANALYTICS.md``
   is executed, in document
   order, in one shared temporary directory per document.  The blocks
   are written as a single coherent pipeline (generate → compress → …
   → replay), so later examples consume earlier outputs; a doc edit
   that breaks the pipeline breaks this check.  Blocks fenced as
   ```` ```text ```` (or any other language) are illustrative and not
   executed.
3. **API example smoke-run** — every fenced ```` ```python ```` block
   in ``docs/API.md``, ``docs/OBSERVABILITY.md``, ``docs/SERVE.md``,
   ``docs/SCENARIOS.md`` and ``docs/ANALYTICS.md``
   runs the same way (document order, one shared directory per
   document), with
   ``DeprecationWarning`` promoted to an error so the reference docs
   can never drift onto a deprecated entry point.

``repro-trace`` resolves through a shim that executes
``python -m repro.cli`` with ``PYTHONPATH=src``, so the check passes
both against an installed package and a bare source tree.
"""

from __future__ import annotations

import os
import re
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]

_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_IMAGE = re.compile(r"\!\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_SH_BLOCK = re.compile(r"```sh\n(.*?)```", re.DOTALL)
_PY_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading (ASCII-ish approximation)."""
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(path: Path) -> set[str]:
    return {github_slug(h) for h in _HEADING.findall(path.read_text("utf-8"))}


def check_links() -> list[str]:
    errors = []
    for doc in DOC_FILES:
        text = doc.read_text("utf-8")
        targets = _LINK.findall(text) + _IMAGE.findall(text)
        for target in targets:
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, fragment = target.partition("#")
            resolved = doc if not path_part else (doc.parent / path_part)
            if not resolved.exists():
                errors.append(f"{doc.relative_to(REPO)}: broken link -> {target}")
                continue
            if fragment and resolved.suffix == ".md":
                if github_slug(fragment) not in heading_slugs(resolved):
                    errors.append(
                        f"{doc.relative_to(REPO)}: missing anchor -> {target}"
                    )
    return errors


def _shim_dir(tmp: Path) -> Path:
    """A PATH entry whose ``repro-trace`` runs this source tree's CLI."""
    bin_dir = tmp / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "repro-trace"
    shim.write_text(
        f'#!/bin/sh\nexec "{sys.executable}" -m repro.cli "$@"\n'
    )
    shim.chmod(shim.stat().st_mode | stat.S_IEXEC)
    return bin_dir


def run_cli_examples(doc_name: str) -> list[str]:
    """Execute every ```sh block of one document, in order.

    One shared working directory per document (later blocks consume
    earlier outputs) with a ``repro-trace`` shim on PATH, so the doc's
    pipeline runs exactly as written against the bare source tree.
    """
    cli_md = REPO / "docs" / doc_name
    blocks = _SH_BLOCK.findall(cli_md.read_text("utf-8"))
    if not blocks:
        return [f"{cli_md.relative_to(REPO)}: no ```sh blocks found"]
    errors = []
    with tempfile.TemporaryDirectory(prefix="cli-md-smoke-") as workdir:
        env = dict(os.environ)
        env["PATH"] = f"{_shim_dir(Path(workdir))}{os.pathsep}{env['PATH']}"
        env["PYTHONPATH"] = (
            f"{REPO / 'src'}{os.pathsep}{env['PYTHONPATH']}"
            if env.get("PYTHONPATH")
            else str(REPO / "src")
        )
        for index, block in enumerate(blocks, start=1):
            proc = subprocess.run(
                ["bash", "-euo", "pipefail", "-c", block],
                cwd=workdir,
                env=env,
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                errors.append(
                    f"docs/{doc_name} example block {index} exited "
                    f"{proc.returncode}:\n{block}\n--- stderr ---\n"
                    f"{proc.stderr.strip()}"
                )
                break  # later blocks depend on this one's outputs
            print(f"docs/{doc_name} block {index}: ok")
    return errors


def run_python_examples(doc_name: str) -> list[str]:
    """Execute every ```python block of one document, in order.

    One shared working directory (later blocks consume earlier outputs),
    ``PYTHONPATH=src`` so the check works on a bare source tree, and
    ``-W error::DeprecationWarning`` so a reference example that
    triggers a deprecated API (of Python or a dependency) fails the docs
    job.
    """
    doc_md = REPO / "docs" / doc_name
    blocks = _PY_BLOCK.findall(doc_md.read_text("utf-8"))
    if not blocks:
        return [f"{doc_md.relative_to(REPO)}: no ```python blocks found"]
    errors = []
    with tempfile.TemporaryDirectory(prefix="docs-md-smoke-") as workdir:
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            f"{REPO / 'src'}{os.pathsep}{env['PYTHONPATH']}"
            if env.get("PYTHONPATH")
            else str(REPO / "src")
        )
        for index, block in enumerate(blocks, start=1):
            proc = subprocess.run(
                [sys.executable, "-W", "error::DeprecationWarning", "-c", block],
                cwd=workdir,
                env=env,
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                errors.append(
                    f"docs/{doc_name} example block {index} exited "
                    f"{proc.returncode}:\n{block}\n--- stderr ---\n"
                    f"{proc.stderr.strip()}"
                )
                break  # later blocks depend on this one's outputs
            print(f"docs/{doc_name} block {index}: ok")
    return errors


def main() -> int:
    errors = check_links()
    print(f"link check: {len(DOC_FILES)} documents, {len(errors)} errors")
    if not errors:
        errors += run_cli_examples("CLI.md")
    if not errors:
        errors += run_cli_examples("SCENARIOS.md")
    if not errors:
        errors += run_cli_examples("ANALYTICS.md")
    if not errors:
        errors += run_python_examples("API.md")
    if not errors:
        errors += run_python_examples("OBSERVABILITY.md")
    if not errors:
        errors += run_python_examples("SERVE.md")
    if not errors:
        errors += run_python_examples("SCENARIOS.md")
    if not errors:
        errors += run_python_examples("ANALYTICS.md")
    for error in errors:
        print(f"ERROR: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
