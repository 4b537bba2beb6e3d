#!/usr/bin/env python
"""Documentation checker: every link resolves, every CLI example parses.

Run from the repository root (CI runs it as the ``docs`` job)::

    PYTHONPATH=src python tools/check_docs.py

Checks, over README.md, EXPERIMENTS.md, DESIGN.md and ``docs/*.md``:

* **Links** -- every relative markdown link target exists on disk
  (external ``http(s)``/``mailto`` links and pure anchors are skipped);
* **CLI invocations** -- every ``repro ...`` / ``python -m repro ...``
  line inside a fenced code block parses against the real
  ``repro.cli.build_parser()``, so documented flags can never drift
  from the implementation;
* **Example scripts** -- every documented ``python <path>.py`` line
  points at a file that exists;
* **YAML scenarios** -- every fenced ``yaml``/``yml`` block validates
  against the scenario schema (unknown keys, bad values, broken
  ``inherits:`` targets -- resolved against the repo's ``configs/``
  library).  Blocks containing ``# not-a-scenario`` are exempt;
* **Key reference** -- the key table in ``docs/scenarios.md`` is the
  one :func:`render_key_table` renders from
  ``repro.scenario.schema.SCHEMA`` (type, compiled default, sweepable,
  help text), byte for byte; when it differs, the expected table is
  printed for pasting in.

Exit status is the number of problems found (0 = docs are clean).
"""

from __future__ import annotations

import io
import re
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

#: Markdown inline link: [text](target)
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: Fenced code block with optional language tag.
FENCE_RE = re.compile(r"```(\w*)[ \t]*\n(.*?)```", re.S)

DOC_FILES = ("README.md", "EXPERIMENTS.md", "DESIGN.md", "docs/README.md")


def doc_files(root: Path) -> list[Path]:
    """The markdown files under contract, existing ones only."""
    files = [root / name for name in DOC_FILES]
    files += sorted((root / "docs").glob("*.md"))
    seen: dict[Path, None] = {}
    for f in files:
        if f.exists():
            seen.setdefault(f.resolve())
    return list(seen)


def check_links(path: Path, root: Path) -> list[str]:
    """Relative link targets of ``path`` that do not exist on disk."""
    errors = []
    for target in LINK_RE.findall(path.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#")[0]).resolve()
        if not resolved.exists():
            errors.append(f"{path.relative_to(root)}: broken link -> "
                          f"{target}")
    return errors


def _cli_lines(text: str) -> list[str]:
    """``repro``/``python -m repro`` command lines from fenced blocks."""
    lines = []
    for lang, body in FENCE_RE.findall(text):
        if lang not in ("", "bash", "sh", "console", "shell"):
            continue
        for raw in body.splitlines():
            line = raw.strip()
            if line.startswith("$ "):
                line = line[2:]
            if line:
                lines.append(line)
    return lines


def _parse_command(line: str) -> list[str] | None:
    """Extract a repro argv from one shell line, or None if not one."""
    line = line.split(" #")[0].strip()
    if not line:
        return None
    try:
        tokens = shlex.split(line)
    except ValueError:
        return None
    # Strip environment-assignment prefixes (PYTHONPATH=src repro ...).
    while tokens and re.match(r"^[A-Za-z_][A-Za-z0-9_]*=", tokens[0]):
        tokens = tokens[1:]
    if not tokens:
        return None
    if tokens[0] == "repro":
        return tokens[1:]
    if (len(tokens) >= 3 and tokens[0].startswith("python")
            and tokens[1] == "-m" and tokens[2] == "repro"):
        return tokens[3:]
    return None


def check_cli_invocations(path: Path, root: Path, build_parser) -> list[str]:
    """Documented repro commands that the real parser rejects."""
    errors = []
    for line in _cli_lines(path.read_text(encoding="utf-8")):
        argv = _parse_command(line)
        if argv is None:
            continue
        parser = build_parser()
        try:
            # parse only -- never executes the command
            with redirect_stdout(io.StringIO()), \
                    redirect_stderr(io.StringIO()):
                parser.parse_args(argv)
        except SystemExit as exc:
            if exc.code not in (0, None):
                errors.append(f"{path.relative_to(root)}: documented "
                              f"command does not parse: {line!r}")
    return errors


def check_example_scripts(path: Path, root: Path) -> list[str]:
    """Documented ``python <script>.py`` lines whose script is missing."""
    errors = []
    for line in _cli_lines(path.read_text(encoding="utf-8")):
        tokens = line.split(" #")[0].split()
        if (len(tokens) >= 2 and tokens[0].startswith("python")
                and tokens[1].endswith(".py")
                and not tokens[1].startswith("-")):
            if not (root / tokens[1]).exists():
                errors.append(f"{path.relative_to(root)}: missing example "
                              f"script -> {tokens[1]}")
    return errors


#: Escape hatch for illustrative YAML that is not a scenario config.
YAML_SKIP_MARKER = "# not-a-scenario"


def check_yaml_blocks(path: Path, root: Path) -> list[str]:
    """Fenced YAML blocks of ``path`` that fail scenario validation.

    ``inherits:`` references are resolved the same way the loader
    resolves them for a file living at the repo's ``configs/`` root, so
    documentation examples may (and do) inherit from the shipped
    library.
    """
    import yaml

    from repro.scenario import check, deep_merge
    from repro.scenario.loader import _resolve, _resolve_ref

    config_root = root / "configs"
    errors = []
    rel = path.relative_to(root)
    for lang, body in FENCE_RE.findall(path.read_text(encoding="utf-8")):
        if lang not in ("yaml", "yml") or YAML_SKIP_MARKER in body:
            continue
        where = f"{rel}: yaml block starting {body.strip().splitlines()[0]!r}"
        try:
            data = yaml.safe_load(body)
        except yaml.YAMLError as exc:
            errors.append(f"{where}: does not parse: {exc}")
            continue
        if not isinstance(data, dict):
            errors.append(f"{where}: not a mapping")
            continue
        refs = data.pop("inherits", None)
        if refs is not None:
            refs = [refs] if isinstance(refs, str) else list(refs)
            merged: dict = {}
            try:
                for ref in refs:
                    base = _resolve(
                        _resolve_ref(ref, config_root, config_root),
                        config_root, ())
                    base.pop("inherits", None)
                    merged = deep_merge(merged, base)
            except Exception as exc:
                errors.append(f"{where}: inherits does not resolve: {exc}")
                continue
            data = deep_merge(merged, data)
        data.setdefault("name", "doc-example")
        for problem in check(data):
            errors.append(f"{where}: {problem}")
    return errors


#: A key cell in the reference table: | `dotted.path` | ...
KEY_ROW_RE = re.compile(r"^\|\s*`([a-z0-9_.]+)`\s*\|", re.M)


def _cell(value) -> str:
    from repro.scenario.schema import show
    return "—" if value is None else f"`{show(value)}`"


def render_key_table() -> str:
    """The key reference table of ``docs/scenarios.md``, from the schema:
    each key's type, the default it compiles to (and serve's, where that
    differs), whether it may be swept, and its help text."""
    from repro.scenario.compile import compiled_default as default
    from repro.scenario.schema import key_reference

    lines = ["| key | type | default | sweepable | meaning |",
             "|---|---|---|---|---|"]
    for key in key_reference():
        types = "/".join(t.__name__ for t in key.type
                         if not (t is int and float in key.type))
        shown = _cell(default(key.path))
        serve = default(key.path, "serve")
        if serve != default(key.path):
            shown += f" ({_cell(serve)} under serve)"
        meaning = key.help
        if key.choices is not None:
            each = "each one of" if key.item else "one of"
            meaning += f"; {each} " + ", ".join(f"`{c}`"
                                                for c in key.choices)
        lines.append(f"| `{key.path}` | {types} | {shown} | "
                     f"{'yes' if key.sweepable else 'no'} | {meaning} |")
    return "\n".join(lines) + "\n"


def check_key_reference(root: Path) -> list[str]:
    """The scenarios.md key table vs. the live schema: first which keys
    it lists (both directions), then every byte of the table."""
    from repro.scenario import SCHEMA

    doc = root / "docs" / "scenarios.md"
    if not doc.exists():
        return ["docs/scenarios.md: missing (key reference lives there)"]
    text = doc.read_text(encoding="utf-8")
    match = re.search(r"^## Key reference$(.*?)(?=^## |\Z)", text,
                      re.M | re.S)
    if match is None:
        return ["docs/scenarios.md: no '## Key reference' section"]
    documented = set(KEY_ROW_RE.findall(match.group(1)))
    schema = set(SCHEMA)
    errors = []
    for key in sorted(schema - documented):
        errors.append(f"docs/scenarios.md: schema key `{key}` missing "
                      f"from the key reference table")
    for key in sorted(documented - schema):
        errors.append(f"docs/scenarios.md: key reference row `{key}` "
                      f"is not in the schema")
    if errors:
        return errors
    table = "".join(line for line in
                    match.group(1).splitlines(keepends=True)
                    if line.startswith("|"))
    expected = render_key_table()
    if table != expected:
        errors.append("docs/scenarios.md: the key reference table differs "
                      "from the schema; replace it with:\n" + expected)
    return errors


def run_checks(root: Path) -> list[str]:
    """All problems across the documentation set."""
    sys.path.insert(0, str(root / "src"))
    from repro.cli import build_parser
    errors: list[str] = []
    for path in doc_files(root):
        errors += check_links(path, root)
        errors += check_cli_invocations(path, root, build_parser)
        errors += check_example_scripts(path, root)
        errors += check_yaml_blocks(path, root)
    errors += check_key_reference(root)
    return errors


def main(argv=None) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    errors = run_checks(root)
    for err in errors:
        print(f"check_docs: {err}", file=sys.stderr)
    n = len(doc_files(root))
    if not errors:
        print(f"check_docs: {n} documents clean")
    return len(errors)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
