#!/usr/bin/env python
"""Generate ``docs/api.md`` from the public surface of the package.

The API reference is derived, not hand-written: every module listed in
``API_MODULES`` contributes a section with its docstring summary and one
entry per ``__all__`` export (signature + first docstring paragraph).
Run without arguments to (re)write ``docs/api.md``; run with ``--check``
to verify the committed file matches the code (the CI docs job does this,
so the reference can never drift).

The generator doubles as the docstring audit: a public export without a
docstring is a hard error.

Usage::

    PYTHONPATH=src python docs/gen_api.py            # rewrite docs/api.md
    PYTHONPATH=src python docs/gen_api.py --check    # CI freshness gate
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from pathlib import Path

DOCS_DIR = Path(__file__).resolve().parent
TARGET = DOCS_DIR / "api.md"

#: Public entry points, in presentation order.  Satellite modules of the
#: engine and the serving layer; deeper numerical packages are internal.
API_MODULES = [
    "repro.engine",
    "repro.engine.registry",
    "repro.engine.request",
    "repro.engine.service",
    "repro.engine.fingerprint",
    "repro.engine.compare",
    "repro.parallel.executor",
    "repro.workloads",
    "repro.frw",
    "repro.frw.scene",
    "repro.frw.walks",
    "repro.frw.estimator",
    "repro.frw.backend",
    "repro.serve",
    "repro.serve.config",
    "repro.serve.server",
    "repro.serve.client",
    "repro.serve.store",
    "repro.serve.queue",
    "repro.serve.protocol",
    "repro.serve.loadtest",
    "repro.obs",
    "repro.obs.trace",
    "repro.obs.metrics",
    "repro.obs.logging",
    "repro.obs.clock",
    "repro.obs.profile",
]

HEADER = """\
# API reference

Public surface of the extraction engine and the serving layer: every
module below documents exactly its `__all__` exports.

> **Generated file — do not edit by hand.**  Regenerate with
> `PYTHONPATH=src python docs/gen_api.py`; CI fails when this file is
> stale (`docs/gen_api.py --check`).
"""


def first_paragraph(docstring: str | None) -> str:
    """The first paragraph of a docstring, joined to a single line."""
    if not docstring:
        return ""
    lines: list[str] = []
    for line in inspect.cleandoc(docstring).splitlines():
        if not line.strip():
            break
        lines.append(line.strip())
    return " ".join(lines)


def format_signature(obj: object) -> str:
    """``name(params)`` when a signature exists, bare name otherwise."""
    try:
        return str(inspect.signature(obj))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return ""


def describe_export(module, name: str) -> str:
    """One markdown bullet for a public export (errors on missing docs)."""
    try:
        obj = getattr(module, name)
    except AttributeError:
        raise SystemExit(f"{module.__name__}.__all__ lists {name!r} but the attribute is missing")
    if inspect.isclass(obj) or inspect.isfunction(obj) or inspect.ismethod(obj):
        docstring = inspect.getdoc(obj)
        if not docstring:
            raise SystemExit(f"{module.__name__}.{name} is public but has no docstring")
        kind = "class" if inspect.isclass(obj) else "function"
        signature = format_signature(obj)
        summary = first_paragraph(docstring)
        return f"- **`{name}{signature}`** ({kind}) — {summary}"
    # Module-level constants: document from the module text if annotated,
    # otherwise show the value type.  Paths render repo-relative so the
    # generated file is identical on every checkout.
    if isinstance(obj, Path):
        try:
            shown: object = obj.relative_to(DOCS_DIR.parent)
        except ValueError:
            shown = obj
        return f"- **`{name}`** (constant, `Path`) — `{shown}`"
    return f"- **`{name}`** (constant, `{type(obj).__name__}`) — `{obj!r}`"


def render() -> str:
    sections = [HEADER]
    for module_name in API_MODULES:
        module = importlib.import_module(module_name)
        exports = getattr(module, "__all__", None)
        if not exports:
            raise SystemExit(f"{module_name} has no __all__ -- every API module must declare one")
        summary = first_paragraph(module.__doc__)
        if not summary:
            raise SystemExit(f"{module_name} has no module docstring")
        sections.append(f"\n## `{module_name}`\n\n{summary}\n")
        sections.extend(describe_export(module, name) for name in exports)
        sections.append("")
    return "\n".join(sections).rstrip() + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify docs/api.md is up to date instead of rewriting it",
    )
    args = parser.parse_args(argv)
    content = render()
    if args.check:
        if not TARGET.exists():
            print(f"FAILED: {TARGET} does not exist -- run docs/gen_api.py")
            return 1
        if TARGET.read_text() != content:
            print(f"FAILED: {TARGET} is stale -- run PYTHONPATH=src python docs/gen_api.py")
            return 1
        print(f"OK: {TARGET} matches the code")
        return 0
    TARGET.write_text(content)
    print(f"wrote {TARGET}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
