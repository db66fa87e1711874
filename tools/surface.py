#!/usr/bin/env python3
"""The crates' non-test line count and their uncalled public items.

    python3 tools/surface.py [--check]

Run from the repository root. Prints, per crate and in total, the non-test
lines of `crates/*/src`: each `.rs` file counts up to its first `#[cfg(test)]`
at column 0, skipping blank lines and `//` comment lines.

Then lists every `pub fn`, `pub const` and `pub static` in `crates/*/src`
(binaries under `src/bin/` excluded) whose name no other `.rs` file under
`crates/`, `src/`, `tests/`, `examples/` or `benchmark/src/` mentions: a
public item with no caller outside its own file. It lists too every
`pub struct`, `pub enum`, `pub trait` and `pub type` that no other file
mentions and that no `pub fn` signature or `pub` field of its own file
names: a public type nothing outside its file can reach. `--check` exits 1
when that list holds anything not in `EXEMPT` below, and when an exemption
no longer matches an unused item (a stale exemption must not linger).
"""

import pathlib
import re
import sys

# Public items that stay public with no caller outside their file, and why.
EXEMPT = {
    ("prism", "durable.rs", "file_backed"): (
        "the file backend's only constructor; the durable tests exercise it "
        "and a later restart-from-disk path builds on it"
    ),
}

SEARCHED = ("crates", "src", "tests", "examples", "benchmark/src")
ITEM = re.compile(r"^\s*pub\s+(?:const\s+|async\s+|unsafe\s+|extern\s+\"C\"\s+)*"
                  r"(fn|const|static)\s+([A-Za-z_][A-Za-z0-9_]*)")
TYPE = re.compile(r"^\s*pub\s+(struct|enum|trait|type)\s+([A-Za-z_][A-Za-z0-9_]*)")
PUB_FN = re.compile(r"\bpub\s+(?:const\s+|async\s+|unsafe\s+)*fn\b[^{;]*")
PUB_FIELD = re.compile(r"^\s*pub\s+[A-Za-z_][A-Za-z0-9_]*\s*:(?!:).*$", re.M)
CFG_TEST = "#[cfg(test)]"


def sources(root):
    """Every crate library source file: crates/*/src/**/*.rs minus src/bin."""
    for path in sorted(root.glob("crates/*/src/**/*.rs")):
        rel = path.relative_to(root / "crates")
        if "bin" in rel.parts[2:-1]:
            continue
        yield path


def non_test_lines(text):
    """The lines before the first column-0 #[cfg(test)]: no blank, no //."""
    n = 0
    for line in text.splitlines():
        if line.startswith(CFG_TEST):
            break
        stripped = line.strip()
        if stripped and not stripped.startswith("//"):
            n += 1
    return n


def before_tests(text):
    """The text up to the first column-0 #[cfg(test)]."""
    return re.split(r"^#\[cfg\(test\)\]", text, maxsplit=1, flags=re.M)[0]


def public_items(text):
    """(kind, name) of each pub item before the test module: every
    fn/const/static, and each struct/enum/trait/type that no pub fn
    signature or pub field of the file names."""
    text = before_tests(text)
    exposed = set()
    for m in [*PUB_FN.finditer(text), *PUB_FIELD.finditer(text)]:
        exposed |= set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", m.group(0)))
    for line in text.splitlines():
        m = ITEM.match(line)
        if m:
            yield m.group(1), m.group(2)
        m = TYPE.match(line)
        if m and m.group(2) not in exposed:
            yield m.group(1), m.group(2)


def main():
    check = "--check" in sys.argv[1:]
    root = pathlib.Path.cwd()
    if not (root / "crates").is_dir():
        sys.exit("run from the repository root")

    # Line counts over every source file, binaries included.
    per_crate = {}
    for path in sorted(root.glob("crates/*/src/**/*.rs")):
        crate = path.relative_to(root / "crates").parts[0]
        per_crate[crate] = per_crate.get(crate, 0) + non_test_lines(
            path.read_text())
    width = max(len(c) for c in per_crate)
    for crate, n in sorted(per_crate.items()):
        print(f"{crate:<{width}}  {n:>6}")
    print(f"{'total':<{width}}  {sum(per_crate.values()):>6}")

    texts = {}
    for top in SEARCHED:
        for path in (root / top).rglob("*.rs"):
            if "target" not in path.relative_to(root).parts:
                texts[path] = path.read_text()
    words = {path: set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", t))
             for path, t in texts.items()}

    uncalled = []
    for path in sources(root):
        rel = path.relative_to(root / "crates")
        crate, name_of_file = rel.parts[0], "/".join(rel.parts[2:])
        for kind, name in public_items(texts[path]):
            if not any(name in w for p, w in words.items() if p != path):
                uncalled.append((crate, name_of_file, kind, name))

    unexpected = []
    print(f"\npublic items named in no other file: {len(uncalled)}")
    for crate, file, kind, name in uncalled:
        reason = EXEMPT.get((crate, file, name))
        note = f"  (exempt: {reason})" if reason else ""
        print(f"  {kind:<6} {crate}/src/{file}: {name}{note}")
        if not reason:
            unexpected.append(name)
    stale = [k for k in EXEMPT
             if not any((c, f, n) == k for c, f, _, n in uncalled)]
    for crate, file, name in stale:
        print(f"  stale exemption: {crate}/src/{file}: {name}")

    if check and (unexpected or stale):
        sys.exit(1)


if __name__ == "__main__":
    main()
