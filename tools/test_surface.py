#!/usr/bin/env python3
"""Self-test of `surface.py`'s compiler pass on a throwaway two-crate
workspace.

    python3 tools/test_surface.py

Needs only `cargo` (offline; the workspace has no dependencies) and takes a
few seconds.
"""

import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import surface  # noqa: E402

FILES = {
    "Cargo.toml": """
[workspace]
members = ["crates/a", "crates/b"]
resolver = "2"
""",
    "crates/a/Cargo.toml": """
[package]
name = "a"
version = "0.1.0"
edition = "2021"
""",
    "crates/a/src/lib.rs": """
pub mod inner;
pub mod list;
pub mod queue;
pub mod wrap;

/// Called only by `b`'s integration test.
pub fn tested() -> u32 {
    7
}
""",
    "crates/a/src/queue.rs": """
pub struct Queue(pub Vec<u32>);

impl Queue {
    /// Called only inside this file.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn depth(&self) -> usize {
        self.len()
    }
}
""",
    "crates/a/src/list.rs": """
pub struct List(pub Vec<u32>);

impl List {
    /// Called from `b`: a `len` of another type.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}
""",
    "crates/a/src/inner.rs": """
pub struct Inner(pub u32);

impl Inner {
    pub fn get(&self) -> u32 {
        self.0
    }
}
""",
    "crates/a/src/wrap.rs": """
use crate::inner::Inner;
use std::ops::Deref;

pub struct Wrapper(pub Inner);

impl Wrapper {
    /// Shadows `Inner::get`; made private, `b`'s call would quietly
    /// resolve to it.
    pub fn get(&self) -> u32 {
        self.0.get() + 1
    }
}

impl Deref for Wrapper {
    type Target = Inner;

    fn deref(&self) -> &Inner {
        &self.0
    }
}
""",
    "crates/b/Cargo.toml": """
[package]
name = "b"
version = "0.1.0"
edition = "2021"

[dependencies]
a = { path = "../a" }
""",
    "crates/b/src/lib.rs": """
use a::inner::Inner;
use a::list::List;
use a::queue::Queue;
use a::wrap::Wrapper;

pub fn run() -> usize {
    let list = List(vec![1, 2]);
    let wrapped = Wrapper(Inner(1));
    list.len() + Queue(vec![3]).depth() + wrapped.get() as usize
}
""",
    "crates/b/tests/calls_a.rs": """
#[test]
fn calls_a() {
    assert_eq!(a::tested(), 7);
    assert_eq!(b::run(), 5);
}
""",
}


class CompilerPass(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with tempfile.TemporaryDirectory(prefix="surface-test-") as tmp:
            root = pathlib.Path(tmp)
            for name, text in FILES.items():
                (root / name).parent.mkdir(parents=True, exist_ok=True)
                (root / name).write_text(text.lstrip())
            code = {p: surface.strip_comments(p.read_text())
                    for p in surface.sources(root)}
            cls.listed = {name for _, _, name in surface.uncalled_fns(root, code)}

    def test_a_len_only_its_own_file_calls_is_listed(self):
        self.assertIn("Queue::len", self.listed)
        self.assertNotIn("List::len", self.listed)

    def test_a_function_another_crates_test_calls_is_not_listed(self):
        self.assertNotIn("tested", self.listed)

    def test_a_method_a_deref_wrapper_shadows_is_not_listed(self):
        self.assertNotIn("Wrapper::get", self.listed)
        self.assertNotIn("Inner::get", self.listed)

    def test_an_is_empty_beside_a_public_len_is_not_listed(self):
        self.assertNotIn("List::is_empty", self.listed)

    def test_nothing_else_is_listed(self):
        self.assertEqual(self.listed, {"Queue::len"})


if __name__ == "__main__":
    unittest.main()
