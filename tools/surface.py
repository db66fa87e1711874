#!/usr/bin/env python3
"""The crates' non-test line count, their uncalled public items and their
unused dependencies.

    python3 tools/surface.py [--check]

Run from the repository root. Prints, per crate and in total, the non-test
lines of `crates/*/src`: each `.rs` file counts up to its first `#[cfg(test)]`
at column 0, skipping blank lines and `//` comment lines.

Then lists every `pub fn`, `pub const` and `pub static` in `crates/*/src`
(binaries under `src/bin/` excluded) whose name no other `.rs` file under
`crates/`, `src/`, `tests/`, `examples/` or `benchmark/src/` mentions: a
public item with no caller outside its own file. It lists too every
`pub struct`, `pub enum`, `pub trait` and `pub type` that no other file
mentions and that no `pub fn` signature, `pub` field or `pub type` alias of
its own file names: a public type nothing outside its file can reach. A
mention is code: comments (`//`, `///`, `//!`, `/* */`) and `pub use` /
`pub(crate) use` statements are not callers.

Last it reads the manifests and lists every dependency nothing uses:
- each `[dependencies]` entry of the root package and of `crates/*` that no
  `.rs` file under that package's `src/` names (`-` read as `_`);
- each `[dev-dependencies]` entry that no `.rs` file under its `src/`,
  `tests/`, `benches/` or `examples/` names;
- each `[workspace.dependencies]` key that no member manifest uses;
- each `vendor/*` crate that no other manifest depends on.

`--check` exits 1 when either list holds anything not in `EXEMPT` below, and
when an exemption no longer matches an unused item (a stale exemption must
not linger).
"""

import pathlib
import re
import sys
import tomllib

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
PUB_ALIAS = re.compile(r"\bpub\s+type\s+[^=;]*=([^;]*);")
PUB_USE = re.compile(r"\bpub(?:\s*\(\s*crate\s*\))?\s+use\b[^;]*;")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
CFG_TEST = "#[cfg(test)]"
DEP_TABLES = {
    "dependencies": ("src",),
    "dev-dependencies": ("src", "tests", "benches", "examples"),
}


def strip_comments(text):
    """The text with every comment blanked out, string and char literals
    kept. Newlines stay, so line-based patterns still line up."""
    out, i, n = [], 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            depth, i = 1, i + 2
            while i < n and depth:
                if text.startswith("/*", i):
                    depth, i = depth + 1, i + 2
                elif text.startswith("*/", i):
                    depth, i = depth - 1, i + 2
                else:
                    out.append("\n" if text[i] == "\n" else "")
                    i += 1
        elif c == "r" and re.match(r'r#*"', text[i:i + 64]) and (
                i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")):
            hashes = len(re.match(r'r(#*)"', text[i:]).group(1))
            end = text.find('"' + "#" * hashes, i + 2 + hashes)
            end = n if end < 0 else end + 1 + hashes
            out.append(text[i:end])
            i = end
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append(text[i:j + 1])
            i = j + 1
        elif c == "'":
            # A char literal ('x', '\n', '\u{..}'); otherwise a lifetime.
            m = re.match(r"'(?:\\(?:u\{[0-9a-fA-F]+\}|x[0-9a-fA-F]{2}|.)|[^\\'])'",
                         text[i:i + 16])
            j = i + (m.end() if m else 1)
            out.append(text[i:j])
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


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


def public_items(code):
    """(kind, name) of each pub item before the test module of a file's
    comment-free text: every fn/const/static, and each struct/enum/trait/
    type that no pub fn signature, pub field or pub type alias of the file
    names."""
    code = before_tests(code)
    exposed = set()
    for m in [*PUB_FN.finditer(code), *PUB_FIELD.finditer(code)]:
        exposed |= set(WORD.findall(m.group(0)))
    for m in PUB_ALIAS.finditer(code):
        exposed |= set(WORD.findall(m.group(1)))
    for line in code.splitlines():
        m = ITEM.match(line)
        if m:
            yield m.group(1), m.group(2)
        m = TYPE.match(line)
        if m and m.group(2) not in exposed:
            yield m.group(1), m.group(2)


def unused_dependencies(root):
    """(manifest, what) of every dependency that nothing uses."""
    manifests = {root / "Cargo.toml": root}
    for top in ("crates", "vendor"):
        for path in sorted(root.glob(f"{top}/*/Cargo.toml")):
            manifests[path] = path.parent
    parsed = {path: tomllib.loads(path.read_text()) for path in manifests}
    unused = []

    def names(package, dirs):
        found = set()
        for d in dirs:
            for path in (package / d).rglob("*.rs"):
                found |= set(WORD.findall(strip_comments(path.read_text())))
        return found

    for path, package in manifests.items():
        if package.parent.name == "vendor":
            continue
        for table, dirs in DEP_TABLES.items():
            deps = parsed[path].get(table, {})
            used = names(package, dirs) if deps else set()
            for dep in deps:
                if dep.replace("-", "_") not in used:
                    unused.append((path, f"[{table}] {dep}"))

    def depends_on(manifest, dep):
        return any(dep in manifest.get(table, {}) for table in DEP_TABLES)

    root_manifest = parsed[root / "Cargo.toml"]
    for dep in root_manifest.get("workspace", {}).get("dependencies", {}):
        if not any(depends_on(m, dep) for m in parsed.values()):
            unused.append((root / "Cargo.toml", f"[workspace.dependencies] {dep}"))
    for path, package in manifests.items():
        if package.parent.name != "vendor":
            continue
        name = parsed[path]["package"]["name"]
        if not any(depends_on(m, name) for p, m in parsed.items() if p != path):
            unused.append((path, f"vendored crate {name}: no manifest depends on it"))
    return unused


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

    code = {}
    for top in SEARCHED:
        for path in (root / top).rglob("*.rs"):
            if "target" not in path.relative_to(root).parts:
                code[path] = strip_comments(path.read_text())
    words = {path: set(WORD.findall(PUB_USE.sub(";", c)))
             for path, c in code.items()}

    uncalled = []
    for path in sources(root):
        rel = path.relative_to(root / "crates")
        crate, name_of_file = rel.parts[0], "/".join(rel.parts[2:])
        for kind, name in public_items(code[path]):
            if not any(name in w for p, w in words.items() if p != path):
                uncalled.append((crate, name_of_file, kind, name))

    unexpected = []
    print(f"\npublic items named in no other file's code: {len(uncalled)}")
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

    unused = unused_dependencies(root)
    print(f"\nunused dependencies: {len(unused)}")
    for path, what in unused:
        print(f"  {path.relative_to(root)}: {what}")

    if check and (unexpected or stale or unused):
        sys.exit(1)


if __name__ == "__main__":
    main()
