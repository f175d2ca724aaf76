"""List every executable line of ``src/riskflow`` that the tier-1 tests never run.

Runs the tier-1 command (``python -m pytest -q --continue-on-collection-errors``
from the repository root, with ``src`` on the path) in this process under a
``sys.settrace``/``threading.settrace`` line trace, then compares the lines
executed with the lines that compile to bytecode.  A line that never ran must
be named in ``tools/line_trace_allow.txt``, with a reason.  The package's
sources are read before the run, since the trace numbers the lines of the
modules as they were imported.  Exits 1 when a line that never ran has no
entry, when an entry matches no such line (it is stale: its lines ran, or
are gone), when the tests themselves fail, or when a module of the package
changed, appeared or went during the run (each such file is named: its
lines may not be the ones the trace saw).

Usage, from the repository root, with the packages of ``.[test]`` installed::

    python tools/line_trace.py

The trace makes the tests several times slower (about a minute on two
cores).  Lines that run only in child processes, such as the CLI
subprocesses that some tests start, are not seen.

Each allow-list entry is one line holding a key, under one or more lines
starting with ``#`` that give the reason; the entries of one run of lines
share the reason above them, and a blank line ends it.  A key is
``<module>:<function>:<source>``: the file name under ``src/riskflow``, the
qualified name of the innermost function that holds the line (``<module>``
at module level), and the line's text with surrounding blanks removed.  A
key does not name a line number, so it survives edits elsewhere in the file;
it covers every line of that text in that function.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "riskflow"
ALLOW = Path(__file__).resolve().with_name("line_trace_allow.txt")
TIER_1 = ["-q", "--continue-on-collection-errors"]


def executable_lines(path: Path, text: str) -> dict[int, str]:
    """Each line of ``text``, the source of ``path``, that compiles to bytecode,
    mapped to the qualified name of the innermost code object that uses it."""
    owner: dict[int, tuple[int, str]] = {}
    stack = [(compile(text, str(path), "exec"), 0)]
    while stack:
        code, depth = stack.pop()
        name = "<module>" if depth == 0 else code.co_qualname
        for _, _, line in code.co_lines():
            if line is not None and owner.get(line, (-1, ""))[0] < depth:
                owner[line] = (depth, name)
        stack.extend((c, depth + 1) for c in code.co_consts if isinstance(c, types.CodeType))
    return {line: name for line, (_, name) in owner.items()}


def trace_tier_1() -> tuple[int, dict[Path, set[int]]]:
    """Run the tier-1 tests under a line trace of the package's files: the
    pytest exit code and the executed line numbers per file."""
    executed: dict[str, set[int]] = {}
    # Whether a code object's file is in the package, by its name as imported.
    inside: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in inside:
            inside[filename] = Path(filename).resolve().parent == PACKAGE
        if not inside[filename]:
            return None
        executed.setdefault(filename, set()).add(frame.f_lineno)
        return local

    # ``python -m pytest`` puts the working directory first on the path.
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    import pytest  # imported before the trace, so only the package is traced

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(TIER_1)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_path: dict[Path, set[int]] = {}
    for filename, lines in executed.items():
        by_path.setdefault(Path(filename).resolve(), set()).update(lines)
    return int(status), by_path


def read_allow_list(path: Path) -> dict[str, str]:
    """Reason by key, in file order."""
    entries, reason = {}, []
    for text in path.read_text(encoding="utf-8").splitlines():
        text = text.strip()
        if not text:
            reason = []
        elif text.startswith("#"):
            reason.append(text.lstrip("# "))
        elif not reason:
            raise SystemExit(f"{path.name}: entry without a reason: {text!r}")
        else:
            entries[text] = " ".join(reason)
    return entries


def read_sources() -> dict[Path, str]:
    """The text of each module of the package, by path."""
    return {path: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def main() -> int:
    # The trace numbers the lines of each module as it was imported, so the
    # texts the verdict reads are those from before the run.
    sources = read_sources()
    status, executed = trace_tier_1()
    after = read_sources()
    changed = sorted(path.name for path in sources.keys() | after.keys()
                     if sources.get(path) != after.get(path))
    allowed = read_allow_list(ALLOW)
    unlisted, used = [], set()
    for path, text in sources.items():
        source = text.splitlines()
        ran = executed.get(path, set())
        for line, name in sorted(executable_lines(path, text).items()):
            if line in ran:
                continue
            key = f"{path.name}:{name}:{source[line - 1].strip()}"
            if key in allowed:
                used.add(key)
            else:
                unlisted.append(f"src/riskflow/{path.name}:{line}: {key}")
    stale = [key for key in allowed if key not in used]
    for key in stale:
        print(f"stale allow-list entry (its lines ran or are gone): {key}")
    for text in unlisted:
        print(f"never run by tier-1, and not in {ALLOW.name}: {text}")
    for name in changed:
        print(f"changed during the run, so the trace may not match its lines: src/riskflow/{name}")
    print(
        f"line trace: {len(used)} allow-list entries in use, {len(stale)} stale, "
        f"{len(unlisted)} unlisted lines, {len(changed)} changed modules, "
        f"pytest exit code {status}"
    )
    return 1 if unlisted or stale or changed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
