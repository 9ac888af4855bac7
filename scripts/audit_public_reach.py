#!/usr/bin/env python3
"""Audit that every public function in the workspace has a caller.

Every `pub fn` defined under `crates/*/src` outside test code must be
reached from a root: a binary, the CLI, an engine, serve or fleet path,
an example or the benchmark harness. Reach is a fixpoint over names. The
roots are all non-test code under `crates/`, `src/`, `examples/` and
`benchmark/src/` that lies outside the body of a `pub fn`: `main`
functions, private functions, trait impls, constants. A `pub fn` is
reached when its name appears in root code or in the body of another
`pub fn` that is itself reached; a mention inside an unreached or
allowlisted function does not count. Comments, string literals, `use`
and `pub use` lines and other definitions of the same name do not count
either. A function that nothing reaches must be listed in
scripts/public_reach_allowlist.txt next to the remaining test that uses
it (a checker or reference that a test compares against).

The scan is by name, so a function shares its reach with every other
item of the same name; it can miss an unreached function, never flag a
reached one.

Fails on an unreached function the allowlist does not record, and on a
stale entry: one whose function is gone or now reached, or whose named
test no longer exists or no longer names the function.

Usage: python3 scripts/audit_public_reach.py
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWLIST = ROOT / "scripts" / "public_reach_allowlist.txt"
CALLER_DIRS = ["crates", "src", "examples", "benchmark/src"]

IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
PUB_FN = re.compile(r"\bpub\s+(?:(?:const|async|unsafe)\s+)*fn\s+([A-Za-z_][A-Za-z0-9_]*)")
CFG_TEST = re.compile(r"#\[cfg\(test\)\]")
RAW_STRING = re.compile(r'b?r(#*)"')
TEST_MOD_DECL = re.compile(r"#\[cfg\(test\)\]\s*(?:pub(?:\([a-z]+\))?\s+)?mod\s+([A-Za-z_][A-Za-z0-9_]*)\s*;")
USE_STMT = re.compile(r"\b(?:pub(?:\([^)]*\))?\s+)?use\s")


def strip(text):
    """Blank out comments, string and char literals, keeping offsets."""
    out = list(text)
    i, n = 0, len(text)

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            blank(i, j)
            i = j
        elif text.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if text.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif text.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            blank(i, j)
            i = j
        elif (m := RAW_STRING.match(text, i)) and (
            i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")
        ):
            close = '"' + m.group(1)
            j = text.find(close, m.end())
            j = n if j < 0 else j + len(close)
            blank(i, j)
            i = j
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            blank(i, j + 1)
            i = j + 1
        elif c == "'":
            # A char literal ('a', '\n', '\u{..}') or a lifetime ('a).
            if i + 1 < n and text[i + 1] == "\\":
                j = text.find("'", i + 2)
                blank(i, j + 1)
                i = j + 1
            elif i + 2 < n and text[i + 2] == "'":
                blank(i, i + 3)
                i += 3
            else:
                i += 1
        else:
            i += 1
    return "".join(out)


def block_end(code, start):
    """Offset just past the item that starts at `start`: its closing `;`
    or its brace-matched `{ … }` body, whichever comes first."""
    depth = nesting = 0
    for j in range(start, len(code)):
        ch = code[j]
        if ch in "([":
            nesting += 1
        elif ch in ")]":
            nesting -= 1
        elif ch == ";" and depth == 0 and nesting == 0:
            return j + 1
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return j + 1
    return len(code)


def test_spans(code):
    """Spans of `#[cfg(test)]` items in stripped source."""
    return [(m.start(), block_end(code, m.end())) for m in CFG_TEST.finditer(code)]


def in_spans(pos, spans):
    return any(a <= pos < b for a, b in spans)


def source_files():
    """Every `.rs` file under the caller directories, with whether the
    whole file is test code (a `#[cfg(test)] mod x;` declaration)."""
    files = sorted(
        p for d in CALLER_DIRS for p in (ROOT / d).rglob("*.rs")
        if "target" not in p.relative_to(ROOT).parts
    )
    texts = {p: strip(p.read_text(encoding="utf-8")) for p in files}
    test_files = set()
    for p, code in texts.items():
        for m in TEST_MOD_DECL.finditer(code):
            base = p.parent if p.name in ("lib.rs", "main.rs", "mod.rs") else p.with_suffix("")
            test_files.update({base / f"{m.group(1)}.rs", base / m.group(1) / "mod.rs"})
    return texts, test_files


def is_test_path(rel):
    parts = rel.parts
    return "tests" in parts or "benches" in parts


def blank_uses(code):
    """Blank out `use` and `pub use` statements: an import or re-export
    is not a call."""
    out = list(code)
    for m in USE_STMT.finditer(code):
        end = code.find(";", m.end())
        end = len(code) if end < 0 else end + 1
        for k in range(m.start(), end):
            if out[k] != "\n":
                out[k] = " "
    return "".join(out)


def scan():
    """Every non-test `pub fn` and the subset reachable from the roots."""
    texts, test_files = source_files()
    defs = []  # (file, name, (start, end))
    root_names = set()
    body_names = []  # names mentioned in each def's body, by def index
    for p, code in texts.items():
        rel = p.relative_to(ROOT)
        if p in test_files or is_test_path(rel):
            continue
        code = blank_uses(code)
        spans = test_spans(code)
        first = len(defs)
        if rel.parts[0] == "crates" and len(rel.parts) > 2 and rel.parts[2] == "src":
            for m in PUB_FN.finditer(code):
                if not in_spans(m.start(), spans):
                    defs.append((rel, m.group(1), (m.start(), block_end(code, m.end()))))
                    body_names.append(set())
        local = range(first, len(defs))
        for m in IDENT.finditer(code):
            if in_spans(m.start(), spans):
                continue
            before = code[max(0, m.start() - 16):m.start()]
            if re.search(r"\bfn\s+$", before):
                continue  # a definition, not a use
            # The innermost `pub fn` whose body holds the mention, if any.
            owner = min(
                (i for i in local if defs[i][2][0] <= m.start() < defs[i][2][1]),
                key=lambda i: defs[i][2][1] - defs[i][2][0],
                default=None,
            )
            if owner is None:
                root_names.add(m.group(0))
            else:
                body_names[owner].add(m.group(0))
    reached = set()
    grew = True
    while grew:
        grew = False
        for i, (_, name, _) in enumerate(defs):
            if i in reached:
                continue
            if name in root_names or any(name in body_names[j] for j in reached if j != i):
                reached.add(i)
                grew = True
    defined = {(str(rel), name) for rel, name, _ in defs}
    reached_items = {(str(defs[i][0]), defs[i][1]) for i in reached}
    return defined, defined - reached_items


def read_allowlist():
    entries = {}
    for line_no, line in enumerate(ALLOWLIST.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 3 or "::" not in fields[2]:
            sys.exit(f"{ALLOWLIST.name}:{line_no}: want `<file> <fn> <test file>::<test fn>`")
        entries[(fields[0], fields[1])] = fields[2]
    return entries


def test_names(test, name):
    """Whether `test` (`<file>::<test fn>`) exists and its body names `name`."""
    path, _, test_fn = test.partition("::")
    path = ROOT / path
    if not path.is_file():
        return False
    code = strip(path.read_text(encoding="utf-8"))
    m = re.search(rf"\bfn\s+{re.escape(test_fn)}\b", code)
    return m is not None and name in IDENT.findall(code[m.end():block_end(code, m.end())])


def main():
    defined, unreached = scan()
    allowed = read_allowlist()
    problems = []
    for item in sorted(unreached - allowed.keys()):
        problems.append(f"unreached and not allowlisted: {item[0]} {item[1]}")
    for item, test in sorted(allowed.items()):
        if item not in defined:
            problems.append(f"stale entry (no such pub fn): {item[0]} {item[1]}")
        elif item not in unreached:
            problems.append(f"stale entry (now reached): {item[0]} {item[1]}")
        elif not test_names(test, item[1]):
            problems.append(f"stale entry (test {test} missing or does not name it): {item[0]} {item[1]}")
    if problems:
        print("public reach audit failed:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        sys.exit(1)
    print(
        f"public reach clean: {len(defined)} pub fn(s), "
        f"{len(defined) - len(unreached)} reached, {len(unreached)} allowlisted"
    )


if __name__ == "__main__":
    main()
