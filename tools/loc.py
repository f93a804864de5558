#!/usr/bin/env python3
"""Count Rust code lines, optionally against a git revision.

    python3 tools/loc.py                 # per file and total, working tree
    python3 tools/loc.py --base HEAD~1   # changed files and the net change

A code line is a non-blank line that holds something other than a comment,
in a `.rs` file under `crates/`, `src/` or `shims/`, outside any item marked
`#[cfg(test)]` (the test modules) and outside `tests/` and `benches/`
directories. Comments (`//`, doc comments, nested `/* */`) are stripped by
a small lexer that knows string, raw-string and char literals, so `//` or a
brace inside a literal is not mistaken for a comment or a block.

`--base <rev>` reads that revision with `git archive` (the working tree and
index are not touched) and prints, for every file whose count differs, the
count at the base, now and the change, then the same per root directory and
in total. Run from the repository root.
"""

import argparse
import io
import os
import re
import subprocess
import sys
import tarfile

ROOTS = ("crates", "src", "shims")
EXCLUDED_DIRS = {"tests", "benches", "target"}
CFG_TEST = re.compile(r"#\s*\[\s*cfg\s*\(\s*test\s*\)\s*\]")
RAW_STRING = re.compile(r"b?r(#*)\"")


def strip(text):
    """Returns `text` with comments blanked and literal contents replaced by
    `x`, newlines kept, so line numbers and brace structure survive."""
    out = []
    i, n = 0, len(text)

    def ident_char(c):
        return c.isalnum() or c == "_"

    while i < n:
        c = text[i]
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
        elif text.startswith("/*", i):
            depth = 0
            while i < n:
                if text.startswith("/*", i):
                    depth, i = depth + 1, i + 2
                elif text.startswith("*/", i):
                    depth, i = depth - 1, i + 2
                    if depth == 0:
                        break
                else:
                    if text[i] == "\n":
                        out.append("\n")
                    i += 1
        elif c in "rb" and (i == 0 or not ident_char(text[i - 1])) and (
            m := RAW_STRING.match(text, i)
        ):
            # Raw (byte) string: ends at a quote followed by as many hashes.
            close = '"' + m.group(1)
            out.append(m.group(0))
            i += len(m.group(0))
            end = text.find(close, i)
            end = n if end < 0 else end
            out.append(re.sub(r"[^\n]", "x", text[i:end]) + close)
            i = end + len(close)
        elif c == '"':
            out.append('"')
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\":
                    out.append("x")
                    i += 1
                out.append("\n" if i < n and text[i] == "\n" else "x")
                i += 1
            out.append('"')
            i += 1
        elif c == "'" and (
            text.startswith("\\", i + 1) or (i + 2 < n and text[i + 2] == "'")
        ):
            # A char literal ('a', '{', '\n', '\u{1F600}'), not a lifetime.
            end = text.find("'", i + 3 if text[i + 1] == "\\" else i + 2)
            out.append("'x'")
            i = end + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def count(text):
    """Code lines of one Rust source, `#[cfg(test)]` items excluded."""
    lines = strip(text).split("\n")
    flat = "\n".join(lines)
    skipped = set()
    for m in CFG_TEST.finditer(flat):
        # The item runs to its first `;` or to the brace matching its first
        # `{`, whichever comes first.
        depth, j = 0, m.end()
        while j < len(flat):
            ch = flat[j]
            if ch == ";" and depth == 0:
                break
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        first = flat.count("\n", 0, m.start())
        last = flat.count("\n", 0, j)
        skipped.update(range(first, last + 1))
    return sum(1 for k, line in enumerate(lines) if line.strip() and k not in skipped)


def counted(path):
    parts = path.split("/")
    return (
        path.endswith(".rs")
        and parts[0] in ROOTS
        and not EXCLUDED_DIRS.intersection(parts[1:-1])
    )


def tree_counts():
    counts = {}
    for root in ROOTS:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d not in EXCLUDED_DIRS)
            for name in filenames:
                path = os.path.join(dirpath, name).replace(os.sep, "/")
                if counted(path):
                    with open(path, encoding="utf-8") as f:
                        counts[path] = count(f.read())
    return counts


def rev_counts(rev):
    present = subprocess.run(
        ["git", "ls-tree", "--name-only", rev], check=True, capture_output=True, text=True
    ).stdout.split()
    roots = [r for r in ROOTS if r in present]
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev, "--", *roots], check=True, capture_output=True
    ).stdout
    counts = {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        for member in archive.getmembers():
            if member.isfile() and counted(member.name):
                text = archive.extractfile(member).read().decode("utf-8")
                counts[member.name] = count(text)
    return counts


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", help="git revision to compare the working tree against")
    a = p.parse_args()

    now = tree_counts()
    if a.base is None:
        for path in sorted(now):
            print(f"{path:<60} {now[path]:>7}")
        print(f"{'total':<60} {sum(now.values()):>7}")
        return

    base = rev_counts(a.base)
    print(f"{'path':<60} {'base':>7} {'now':>7} {'change':>7}")
    for path in sorted(set(base) | set(now)):
        b, c = base.get(path, 0), now.get(path, 0)
        if b != c:
            print(f"{path:<60} {b:>7} {c:>7} {c - b:>+7}")
    print()
    for root in ROOTS:
        b = sum(v for k, v in base.items() if k.startswith(root + "/"))
        c = sum(v for k, v in now.items() if k.startswith(root + "/"))
        print(f"{root + '/':<60} {b:>7} {c:>7} {c - b:>+7}")
    b, c = sum(base.values()), sum(now.values())
    print(f"{'total':<60} {b:>7} {c:>7} {c - b:>+7}")


if __name__ == "__main__":
    sys.exit(main())
