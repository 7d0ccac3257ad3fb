#!/usr/bin/env python
"""Generate ``docs/api.md`` from the public surface of the serving stack.

A stdlib-only introspection tool: it imports the four layers an operator or
library user programs against — :mod:`repro.engine`, :mod:`repro.service`,
:mod:`repro.store`, and :mod:`repro.server` — and renders every ``__all__``
export (signatures from :mod:`inspect`, summaries from the docstrings the
docstring checker already enforces) into one reference page.  The page is
committed, not built on the fly, so it is readable on any code host; CI
keeps it honest by regenerating and diffing (the same pattern as the
docstring checker):

Usage::

    python tools/gen_api_docs.py            # rewrite docs/api.md
    python tools/gen_api_docs.py --check    # exit 1 if docs/api.md is stale

Output is deterministic: members are ordered by source position, and any
repr that embeds a memory address (function defaults, for instance) is
scrubbed.
"""

from __future__ import annotations

import argparse
import inspect
import re
import sys
from pathlib import Path
from typing import List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "docs" / "api.md"

#: The documented layers, in stack order (lowest first).
MODULES = [
    "repro.store",
    "repro.engine",
    "repro.service",
    "repro.server",
    "repro.replication",
]

HEADER = """\
# Public API reference

The programmable surface of the serving stack, layer by layer: the
[storage layer](architecture.md#the-storage-layer-snapshots-and-warm-starts)
(`repro.store`), the shared-preprocessing engines (`repro.engine`), the
[serving layer](architecture.md#the-serving-layer-planned-batches-cached-answers)
(`repro.service`), and the network daemon (`repro.server`, operated via
[docs/serving.md](serving.md)).

> **Generated file** — do not edit by hand.  Regenerate with
> `python tools/gen_api_docs.py`; CI fails when this page is stale.
"""

_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")


def _clean(text: str) -> str:
    """Scrub memory addresses out of reprs so the output is deterministic."""
    return _ADDRESS.sub("", text)


def _summary(obj: object) -> str:
    """First docstring line — the one-sentence contract."""
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    return doc.strip().splitlines()[0].strip()


def _signature(obj: object) -> str:
    """Best-effort signature text (empty for C-level or data members)."""
    try:
        text = _clean(str(inspect.signature(obj)))
    except (TypeError, ValueError):
        return "(...)"
    # Bound-style rendering for members: the receiver adds no information.
    return re.sub(r"^\((self|cls)(, |(?=\)))", "(", text)


def _source_line(obj: object) -> int:
    """Source position for stable ordering; unknown positions sort last."""
    try:
        return inspect.getsourcelines(obj)[1]
    except (OSError, TypeError):
        return 1 << 30


def _class_section(name: str, cls: type) -> List[str]:
    """Render one exported class: constructor, summary, own public members."""
    lines = [f"### class `{name}`", ""]
    bases = [
        f"`{base.__module__}.{base.__name__}`"
        for base in cls.__bases__
        if base is not object and base.__module__.startswith("repro")
    ]
    constructor = _signature(cls)
    lines.append(f"```python\n{name}{constructor}\n```")
    lines.append("")
    if bases:
        lines.append(f"*Extends {', '.join(bases)} — inherited members are listed there.*")
        lines.append("")
    summary = _summary(cls)
    if summary:
        lines.append(summary)
        lines.append("")

    members = []
    for attr_name, attr in vars(cls).items():
        if attr_name.startswith("_"):
            continue
        if isinstance(attr, property):
            target = attr.fget
            kind = "property"
        elif isinstance(attr, (staticmethod, classmethod)):
            target = attr.__func__
            kind = "method"
        elif inspect.isfunction(attr):
            target = attr
            kind = "method"
        else:
            # Dataclass fields and other data attributes: the constructor
            # signature above already lists them.
            continue
        members.append((_source_line(target), attr_name, kind, target))
    members.sort()
    if members:
        lines.append("Members:")
        lines.append("")
        for _, attr_name, kind, target in members:
            if kind == "property":
                lines.append(f"- `{attr_name}` *(property)* — {_summary(target)}")
            else:
                lines.append(f"- `{attr_name}{_signature(target)}` — {_summary(target)}")
        lines.append("")
    return lines


def _function_section(name: str, func: object) -> List[str]:
    """Render one exported function."""
    return [
        f"### `{name}{_signature(func)}`",
        "",
        _summary(func) or "",
        "",
    ]


def _module_section(module_name: str) -> List[str]:
    """Render one module: summary paragraph plus every ``__all__`` export."""
    module = __import__(module_name, fromlist=["__all__"])
    lines = [f"## `{module_name}`", ""]
    doc = inspect.getdoc(module) or ""
    first_paragraph = doc.split("\n\n", 1)[0].strip()
    if first_paragraph:
        lines.append(first_paragraph)
        lines.append("")
    exports = []
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        exports.append((_source_line(obj), name, obj))
    exports.sort(key=lambda item: (item[0], item[1]))
    for _, name, obj in exports:
        if inspect.isclass(obj):
            lines.extend(_class_section(name, obj))
        elif inspect.isfunction(obj):
            lines.extend(_function_section(name, obj))
        else:
            lines.append(f"### `{name} = {_clean(repr(obj))}`")
            lines.append("")
            lines.append(f"Constant of `{module_name}`.")
            lines.append("")
    return lines


def generate() -> str:
    """Build the full page text."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    lines = [HEADER]
    for module_name in MODULES:
        lines.extend(_module_section(module_name))
    text = "\n".join(lines)
    return re.sub(r"\n{3,}", "\n\n", text).rstrip() + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="do not write; exit 1 if docs/api.md differs from a fresh render",
    )
    args = parser.parse_args(argv)
    text = generate()
    if args.check:
        current = OUTPUT.read_text(encoding="utf-8") if OUTPUT.exists() else ""
        if current != text:
            print(
                f"{OUTPUT.relative_to(REPO_ROOT)} is stale; "
                "run `python tools/gen_api_docs.py` and commit the result",
                file=sys.stderr,
            )
            return 1
        print(f"{OUTPUT.relative_to(REPO_ROOT)} is up to date")
        return 0
    OUTPUT.write_text(text, encoding="utf-8")
    print(f"wrote {OUTPUT.relative_to(REPO_ROOT)} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
