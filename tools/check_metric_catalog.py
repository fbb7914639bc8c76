#!/usr/bin/env python
"""Keep the metric catalog in docs/observability.md honest.

Scans the library source for metric registrations — string literals of
the form ``repro_*`` passed to ``.counter(`` / ``.gauge(`` /
``.histogram(`` — and cross-checks them against the catalog table in
``docs/observability.md``:

* a **registered metric without a catalog row** fails the check (new
  instrumentation must be documented before it ships),
* a **catalog row without a registration** fails too (stale rows make
  operators hunt for series that no longer exist), and
* a row whose **kind** (the first word of its second cell) or whose
  **where** file (its third cell, a path under the package such as
  ``core/engine.py``) disagrees with the registration fails as well.

CI runs this in the lint job::

    python tools/check_metric_catalog.py

Exit code 0 when the catalog and the source agree, 1 otherwise.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_ROOT = REPO_ROOT / "src"
CATALOG_DOC = REPO_ROOT / "docs" / "observability.md"

#: A metric registration: the registry method (the kind) and the family
#: name literal directly following it (possibly across a line break).
REGISTRATION_RE = re.compile(
    r"\.(counter|gauge|histogram)\(\s*[\"'](repro_[a-z0-9_]+)[\"']"
)

#: A catalog row: a markdown table line whose first cell is the metric
#: name in backticks, with optional ``{label,...}`` suffix, followed by
#: the kind and where cells.
CATALOG_ROW_RE = re.compile(
    r"^\|\s*`(repro_[a-z0-9_]+)(?:\{[^}]*\})?`\s*\|([^|]*)\|([^|]*)\|"
)


def registered_metrics(source_root: Path) -> Dict[str, List[Tuple[str, str]]]:
    """Map of metric name -> ``(kind, source file)`` registrations."""
    found: Dict[str, List[Tuple[str, str]]] = {}
    for path in sorted(source_root.rglob("*.py")):
        text = path.read_text()
        try:
            shown = str(path.relative_to(REPO_ROOT))
        except ValueError:  # scanning a tree outside the repo (tests)
            shown = str(path)
        for kind, name in REGISTRATION_RE.findall(text):
            found.setdefault(name, []).append((kind, shown))
    return found


def catalogued_metrics(doc: Path) -> Dict[str, Tuple[str, str]]:
    """Map of metric name -> ``(kind, where)`` from the catalog rows."""
    rows = {}
    for line in doc.read_text().splitlines():
        match = CATALOG_ROW_RE.match(line.strip())
        if match:
            kind = (match.group(2).split() or [""])[0]
            rows[match.group(1)] = (kind, match.group(3).strip().strip("`"))
    return rows


def row_mismatches(
    name: str, row: Tuple[str, str], registrations: List[Tuple[str, str]]
) -> List[str]:
    """Why a catalog row disagrees with the metric's registrations."""
    kind, where = row
    kinds = sorted({k for k, _file in registrations})
    files = sorted({f for _kind, f in registrations})
    out = []
    if kinds != [kind]:
        out.append(f"{name} is catalogued as {kind!r} but registered as {', '.join(kinds)}")
    where_parts = Path(where).parts
    if not where_parts or not any(
        Path(f).parts[-len(where_parts):] == where_parts for f in files
    ):
        out.append(
            f"{name} is catalogued in {where!r} but registered in {', '.join(files)}"
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cross-check metric registrations against the catalog"
    )
    parser.add_argument(
        "--source", default=str(SOURCE_ROOT), help="library source root"
    )
    parser.add_argument(
        "--catalog", default=str(CATALOG_DOC), help="markdown file with the catalog"
    )
    args = parser.parse_args(argv)

    source_root, catalog_doc = Path(args.source), Path(args.catalog)
    if not catalog_doc.exists():
        print(f"check_metric_catalog: no such file: {catalog_doc}", file=sys.stderr)
        return 1
    registered = registered_metrics(source_root)
    catalogued = catalogued_metrics(catalog_doc)

    failures = []
    for name in sorted(set(registered) - set(catalogued)):
        files = ", ".join(sorted({f for _kind, f in registered[name]}))
        failures.append(f"{name} registered in {files} but has no catalog row")
    for name in sorted(set(catalogued) - set(registered)):
        failures.append(f"{name} has a catalog row but no registration in source")
    for name in sorted(set(catalogued) & set(registered)):
        failures.extend(row_mismatches(name, catalogued[name], registered[name]))

    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    print(
        f"check_metric_catalog: {len(registered)} registered, "
        f"{len(catalogued)} catalogued, {len(failures)} failure(s)"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
