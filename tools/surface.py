#!/usr/bin/env python3
"""The crates' non-test line count, their uncalled public items and their
unused dependencies.

    python3 tools/surface.py [--check]

Run from the repository root. Prints, per crate and in total, the non-test
lines of `crates/*/src`: each `.rs` file counts up to its first `#[cfg(test)]`
at column 0, skipping blank lines and `//` comment lines.

Then asks the compiler which `pub fn`s have a caller outside their module. On
a throwaway copy of the tree, with its own target directory, it makes every
`pub fn` before the test module of each `crates/*/src` file private
(binaries under `src/bin/` excluded) and runs `cargo check --keep-going
--workspace --all-targets`, and the same over `benchmark/Cargo.toml` when
there is one. Each privacy error points at the function it could not reach;
those are made public again, and the checks repeat until both build. What is
still private has no caller outside its module (for a file module, its
file), tests and examples included; doctests are not compiled, so a doc
example is not a caller. Two exceptions: a method of a type that derefs to
another type is never made private when the target has a method of the same
name, since a call would quietly resolve to the target's; and an `is_empty`
is not listed while its type's `len` stays public, since clippy's
`len_without_is_empty` wants the pair. A cold run takes about 80 s on two
cores.

It lists too every `pub const` and `pub static` whose name no other `.rs` file
under `crates/`, `src/`, `tests/`, `examples/` or `benchmark/src/` mentions,
and every `pub struct`, `pub enum`, `pub trait` and `pub type` that no other
file mentions and that no `pub fn` signature, `pub` field or `pub type` alias
of its own file names: a public type nothing outside its file can reach. A
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

import itertools
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import tomllib

# Public items that stay public with no caller outside their file, and why.
EXEMPT = {
    ("prism", "durable.rs", "DurableStore::file_backed"): (
        "the file backend's only constructor; the durable tests exercise it "
        "and a later restart-from-disk path builds on it"
    ),
}

SEARCHED = ("crates", "src", "tests", "examples", "benchmark/src")
FN = re.compile(r"^(\s*)pub\s+(?:const\s+|async\s+|unsafe\s+|extern\s+\"C\"\s+)*"
                r"fn\s+([A-Za-z_][A-Za-z0-9_]*)")
ITEM = re.compile(r"^\s*pub\s+(const|static)\s+([A-Za-z_][A-Za-z0-9_]*)\s*:")
TYPE = re.compile(r"^\s*pub\s+(struct|enum|trait|type)\s+([A-Za-z_][A-Za-z0-9_]*)")
IMPL = re.compile(r"^(\s*)impl\b(?:\s*<[^{]*?>)?\s+(?:[^{]*?\s+for\s+)?"
                  r"(?:[A-Za-z_][A-Za-z0-9_]*::)*([A-Za-z_][A-Za-z0-9_]*)")
DEREF = re.compile(r"\bimpl\b[^{]*\bDeref\s+for\s+([A-Za-z_][A-Za-z0-9_]*)[^{]*\{"
                   r"\s*type\s+Target\s*=\s*([A-Za-z_][A-Za-z0-9_]*)")
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
    """(kind, name) of each pub const/static before the test module of a
    file's comment-free text, and each pub struct/enum/trait/type that no
    pub fn signature, pub field or pub type alias of the file names."""
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


def pub_fns(code):
    """(line index, `pub` column, owner, name) of each pub fn before the test
    module of a file's comment-free text. The owner is the type of the impl
    block the fn sits in (None outside one), read from the indentation that
    rustfmt gives: the nearest earlier `impl` line four columns out."""
    impls = []  # (indent, type) of each impl line seen so far
    for i, line in enumerate(before_tests(code).split("\n")):
        m = IMPL.match(line)
        if m:
            impls.append((len(m.group(1)), m.group(2)))
        m = FN.match(line)
        if m:
            indent = len(m.group(1))
            owner = next((t for d, t in reversed(impls) if d == indent - 4), None)
            yield i, indent, owner, m.group(2)


def shadowing(code):
    """The pub fns a Deref wrapper must keep public: for each `impl Deref for
    W { type Target = T; }` in the comment-free sources `code`, every
    (W, name) where both W and T have a pub fn `name`. Made private, W's
    would quietly give way to T's."""
    methods, derefs = {}, []
    for text in code.values():
        derefs += DEREF.findall(text)
        for _, _, owner, name in pub_fns(text):
            methods.setdefault(owner, set()).add(name)
    return {(w, name) for w, t in derefs
            for name in methods.get(w, set()) & methods.get(t, set())}


def privatize(copy, code, keep):
    """Blanks the `pub` of every pub fn in the copy's crate sources but those
    in `keep`. Returns every pub fn as (crate, file, name), and
    {(file, line number): (column, item)} of those it blanked."""
    every, hidden = set(), {}
    for path in sources(copy):
        lines = path.read_text().split("\n")
        rel = path.relative_to(copy / "crates")
        crate, name_of_file = rel.parts[0], "/".join(rel.parts[2:])
        for i, col, owner, name in pub_fns(code[path]):
            item = (crate, name_of_file, f"{owner}::{name}" if owner else name)
            every.add(item)
            if (owner, name) in keep:
                continue
            assert lines[i][col:col + 3] == "pub", (path, i + 1)
            lines[i] = lines[i][:col] + "   " + lines[i][col + 3:]
            hidden[(path, i + 1)] = (col, item)
        path.write_text("\n".join(lines))
    return every, hidden


def spans(message):
    """Every span of a compiler message and of its notes."""
    yield from message.get("spans", [])
    for child in message.get("children", []):
        yield from spans(child)


def cargo_errors(manifest_dir, target):
    """The error messages of `cargo check` over every target of the package
    or workspace in `manifest_dir`, each with its spans' paths made absolute."""
    out = subprocess.run(
        ["cargo", "check", "--offline", "--keep-going", "--workspace",
         "--all-targets", "--message-format=json", "--quiet"],
        cwd=manifest_dir, capture_output=True, text=True,
        env={**os.environ, "CARGO_TARGET_DIR": str(target),
             "RUSTFLAGS": "--cap-lints=warn"})
    errors = []
    for line in out.stdout.splitlines():
        msg = json.loads(line) if line.startswith("{") else {}
        if msg.get("reason") == "compiler-message" and \
                msg["message"]["level"] == "error":
            errors.append(msg["message"])
    if out.returncode and not errors:
        sys.exit(f"cargo check failed in {manifest_dir}:\n{out.stderr}")
    for message in errors:
        for span in spans(message):
            span["file_name"] = str((manifest_dir / span["file_name"]).resolve())
    return errors


def uncalled_fns(root, code):
    """(crate, file, name) of every pub fn in `root`'s crate sources that no
    other module calls, by the compiler's privacy errors (see the module
    docs). `code` maps each source path to its comment-free text."""
    with tempfile.TemporaryDirectory(prefix="surface-") as tmp:
        copy = pathlib.Path(tmp) / "tree"
        shutil.copytree(root, copy, symlinks=True,
                        ignore=shutil.ignore_patterns("target", ".git"))
        copied = {copy / p.relative_to(root): code[p] for p in sources(root)}
        every, hidden = privatize(copy, copied, shadowing(copied))
        hidden = {(p.resolve(), n): v for (p, n), v in hidden.items()}
        builds = [copy] + [copy / "benchmark"] * (copy / "benchmark/Cargo.toml").exists()
        # Each round either builds or reopens at least one pub fn.
        for round_no in itertools.count(1):
            errors = [e for b in builds for e in cargo_errors(b, pathlib.Path(tmp) / "target")]
            reached = {(pathlib.Path(s["file_name"]), s["line_start"])
                       for e in errors for s in spans(e)} & hidden.keys()
            print(f"  round {round_no}: {len(errors)} errors, "
                  f"{len(reached)} pub fns made public again", file=sys.stderr)
            if not errors:
                # Clippy's len_without_is_empty: a public `len` needs a
                # public `is_empty`, so that pair closes or goes together.
                items = {item for _, item in hidden.values()}
                public = every - items
                return sorted(
                    (c, f, n) for c, f, n in items
                    if not (n.endswith("::is_empty")
                            and (c, f, n.removesuffix("is_empty") + "len") in public))
            if not reached:
                sys.exit("errors that point at no hidden pub fn:\n" +
                         "\n".join(e["rendered"] for e in errors))
            for path, line in reached:
                col, _ = hidden.pop((path, line))
                text = path.read_text().split("\n")
                text[line - 1] = text[line - 1][:col] + "pub" + text[line - 1][col + 3:]
                path.write_text("\n".join(text))


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
    print(f"{'total':<{width}}  {sum(per_crate.values()):>6}", flush=True)

    code = {}
    for top in SEARCHED:
        for path in (root / top).rglob("*.rs"):
            if "target" not in path.relative_to(root).parts:
                code[path] = strip_comments(path.read_text())
    words = {path: set(WORD.findall(PUB_USE.sub(";", c)))
             for path, c in code.items()}

    uncalled = [(crate, file, "fn", name)
                for crate, file, name in uncalled_fns(root, code)]
    for path in sources(root):
        rel = path.relative_to(root / "crates")
        crate, name_of_file = rel.parts[0], "/".join(rel.parts[2:])
        for kind, name in public_items(code[path]):
            if not any(name in w for p, w in words.items() if p != path):
                uncalled.append((crate, name_of_file, kind, name))

    unexpected = []
    print(f"\npublic items with no caller outside their file: {len(uncalled)}")
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
