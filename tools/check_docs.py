#!/usr/bin/env python3
"""Docs check: relative links resolve, and the metric catalogue is complete.

Scans the given markdown files (default: every tracked ``*.md`` outside
hidden directories) for inline links/images ``[text](target)`` and verifies
that relative targets exist on disk.  External links (``http(s)://``,
``mailto:``) and pure in-page anchors (``#...``) are skipped — CI must not
depend on the network.

Without arguments it also checks that every metric name registered under
``src/repro/`` (a string literal passed to ``.counter(`` / ``.gauge(`` /
``.histogram(``) appears in the catalogue table of ``docs/observability.md``,
so the catalogue cannot drift from the code again.

Exit codes: 0 when every link resolves and no metric is missing, 1 otherwise
(one line per finding).  Used by the ``docs`` CI job; run locally with::

    python tools/check_docs.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: Inline markdown links/images. Good enough for this repo's docs: no
#: reference-style links, no angle-bracket destinations.
LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")

#: A metric registration: the name is the first argument, a (possibly f-)
#: string literal; ``\s*`` spans the line break of a wrapped call.
METRIC_CALL = re.compile(r"\.(?:counter|gauge|histogram)\(\s*f?\"([^\"]+)\"")
CATALOGUE = Path("docs") / "observability.md"
CATALOGUE_HEADING = "## Metric catalog"


def iter_markdown_files(root: Path) -> list[Path]:
    return sorted(
        path
        for path in root.rglob("*.md")
        if not any(part.startswith(".") or part == "node_modules" for part in path.parts)
    )


def check_file(path: Path, root: Path) -> list[str]:
    errors = []
    in_code_fence = False
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_code_fence = not in_code_fence
            continue
        if in_code_fence:
            continue
        for match in LINK.finditer(line):
            target = match.group(1)
            if target.startswith(SKIP_PREFIXES):
                continue
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                rel = path.relative_to(root) if path.is_relative_to(root) else path
                errors.append(f"{rel}:{lineno}: broken link -> {target}")
    return errors


def registered_metrics(source_root: Path) -> dict[str, str]:
    """Metric name (``{field}`` left in f-string names) -> ``file:line`` of one use."""
    found: dict[str, str] = {}
    for path in sorted(source_root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for match in METRIC_CALL.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            found.setdefault(match.group(1), f"{path.name}:{line}")
    return found


def catalogued_metrics(doc: Path) -> set[str]:
    """Names in the first column of the catalogue table.

    ``a.{x,y}_s`` lists ``a.x_s`` and ``a.y_s``; a ``{label=...}`` suffix
    names the metric's labels and is not part of its name.
    """
    names: set[str] = set()
    in_catalogue = False
    for line in doc.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            in_catalogue = line.startswith(CATALOGUE_HEADING)
        if not in_catalogue or not line.startswith("|"):
            continue
        for cell_name in re.findall(r"`([^`]+)`", line.split("|")[1]):
            cell_name = re.sub(r"\{[^}]*=[^}]*\}", "", cell_name)
            choice = re.search(r"\{([^}]*)\}", cell_name)
            if choice is None:
                names.add(cell_name)
            else:
                names.update(
                    cell_name[: choice.start()] + option.strip() + cell_name[choice.end() :]
                    for option in choice.group(1).split(",")
                )
    return names


def check_metric_catalogue(root: Path, doc: Path | None = None) -> list[str]:
    doc = root / CATALOGUE if doc is None else doc
    catalogued = catalogued_metrics(doc)
    errors = []
    for name, where in sorted(registered_metrics(root / "src" / "repro").items()):
        # An f-string field stands for any run of name characters.
        pattern = re.sub(r"\\\{[^}]*\\\}", "[a-z0-9_]+", re.escape(name))
        if not any(re.fullmatch(pattern, listed) for listed in catalogued):
            errors.append(f"{CATALOGUE}: metric {name!r} ({where}) is not in the catalogue table")
    return errors


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(__file__).resolve().parent.parent
    files = [Path(a).resolve() for a in argv] if argv else iter_markdown_files(root)
    errors = []
    for path in files:
        errors.extend(check_file(path, root))
    missing = [] if argv else check_metric_catalogue(root)
    for error in errors + missing:
        print(error, file=sys.stderr)
    print(
        f"checked {len(files)} markdown file(s): {len(errors)} broken link(s), "
        f"{len(missing)} uncatalogued metric(s)"
    )
    return 1 if errors or missing else 0


if __name__ == "__main__":
    sys.exit(main())
