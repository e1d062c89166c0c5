#!/usr/bin/env python3
"""Generate docs/API.md: every public name with its docstring summary.

Walks the ``repro`` package, collects each module's ``__all__`` exports,
and writes a one-line-per-name index grouped by module.  Run from the repo
root after API changes:

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import repro  # noqa: E402

SKIP_MODULES = {"repro.cli"}  # argparse surface, documented via --help


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return "(undocumented)"
    return doc.splitlines()[0].rstrip(".")


def iter_modules():
    yield "repro", repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name in SKIP_MODULES:
            continue
        yield info.name, importlib.import_module(info.name)


def build() -> str:
    """Render the full API index as markdown."""
    lines = [
        "# API index",
        "",
        "Generated by `tools/gen_api_docs.py` — one line per public export.",
        "",
    ]
    seen_objects: set[int] = set()
    for name, module in iter_modules():
        exports = getattr(module, "__all__", None)
        if not exports:
            continue
        entries = []
        for export in exports:
            obj = getattr(module, export, None)
            if obj is None:
                continue
            # Re-exports (package __init__) are listed once, at their home.
            home = getattr(obj, "__module__", name)
            if home != name and isinstance(home, str) and home.startswith("repro."):
                continue
            if id(obj) in seen_objects and not isinstance(obj, (int, str, float, tuple, dict, frozenset)):
                continue
            seen_objects.add(id(obj))
            kind = (
                "class" if inspect.isclass(obj)
                else "function" if callable(obj)
                else "data"
            )
            entries.append(f"- `{export}` ({kind}) — {first_line(obj)}")
        if not entries:
            continue
        summary = first_line(module)
        lines.append(f"## `{name}`")
        lines.append("")
        lines.append(summary + ".")
        lines.append("")
        lines.extend(entries)
        lines.append("")
    return "\n".join(lines)


def main() -> None:
    out = REPO / "docs" / "API.md"
    text = build()
    out.write_text(text)
    print(f"wrote {out} ({len(text.splitlines())} lines)")


if __name__ == "__main__":
    main()
