//! Source lints over the workspace's own `.rs` files. Each file is
//! tokenised once (comments and string literals dropped); the lints read
//! the tokens, never the raw text.
//!
//! - **Comparison collections** (ROADMAP item 6): `BinaryHeap`, `BTreeMap`,
//!   `BTreeSet` and `HashMap` appear in `crates/*/src` non-test code only in
//!   the modules of [`COLLECTION_ALLOWLIST`]. The paper's thesis is that
//!   FFS-indexed buckets replace these on the packet path; the allowlist
//!   names the baselines and the off-path uses.
//! - **Reached `pub` surface**: every `pub` item in `crates/*/src` outside
//!   `crates/vendor` is named by some other `.rs` file (tests, benches,
//!   examples and `benchmark/` count), or it is in [`PUB_ALLOWLIST`]. An
//!   item only its own file uses is private, `pub(crate)` or test code.
//!   `pub mod` and `pub use` are not items here: a module is the rustdoc
//!   page of what it holds, and a re-export names an item defined
//!   elsewhere.
//! - **Mutant manifest**: every patch `tests/mutants/manifest.txt` names
//!   exists, and so does the test target it must fail (`scripts/mutants.sh`
//!   runs them).
//!
//! Test code is skipped in `src` files: any item under `#[cfg(test)]`.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Modules allowed a comparison collection outside test code, with why.
const COLLECTION_ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/core/src/comparison.rs",
        "HeapPq/TreePq are the paper's §2 comparison baselines; TreePq as the \
         queue hint of lstf, flow:hclock and flow:hfsc is still open (ROADMAP item 7)",
    ),
    (
        "crates/core/src/bucketed.rs",
        "HeapIndex is the §5.2 \"BH\" baseline: a binary heap of bucket indices",
    ),
    (
        "crates/core/src/oracle.rs",
        "the ideal-PIFO reference audits compare against; off the packet path",
    ),
    (
        "crates/qdisc/src/fq.rs",
        "Linux FQ's per-flow RB-trees are the Fig 9/10 baseline being measured",
    ),
    (
        "crates/qdisc/src/threaded.rs",
        "the threaded producer's timed-retry heap; moving it onto the calendar \
         is ROADMAP item 18",
    ),
    (
        "crates/bess/src/tc.rs",
        "the tc baseline of Fig 12 keeps its blocked classes in a heap, as tc does",
    ),
    (
        "crates/bess/src/hclock.rs",
        "the heap-based hClock engine is Fig 12's baseline",
    ),
    (
        "crates/dcsim/src/transport.rs",
        "PfabricTx's outstanding/retx sets are touched per Fig 19 packet; \
         replacing them with a word bitmap is ROADMAP item 6(ii)",
    ),
    (
        "crates/sim/src/events.rs",
        "EventQueue is the binary-heap event backend the calendar is checked against",
    ),
    (
        "crates/sim/src/sched.rs",
        "the calendar's far-future overflow level holds only events beyond the horizon",
    ),
    (
        "crates/pifo/src/lang.rs",
        "the DSL compiler's node-name table, used once per compile",
    ),
];

/// `pub` items no other file names, each with why it stays `pub`:
/// `(defining file, item name, reason)`.
const PUB_ALLOWLIST: &[(&str, &str, &str)] = &[
    (
        "crates/core/src/approx.rs",
        "max_buckets",
        "the limit the public constructors' `# Panics` docs point callers to",
    ),
    (
        "crates/dcsim/src/queues.rs",
        "PfabricPq",
        "payload of the public `PortQueue::Pfabric` variant",
    ),
    (
        "crates/bench/src/microbench.rs",
        "DrainResult",
        "return type of the public `drain_rate_*` functions",
    ),
    (
        "crates/bench/src/runners.rs",
        "FctPoint",
        "element type of the public `pfabric_fct_sweep`'s result",
    ),
    (
        "crates/bench/src/report.rs",
        "ParamValue",
        "bound of the public `Sweep::push_row` parameter (fig13 calls it)",
    ),
    (
        "crates/bench/src/report.rs",
        "Series",
        "element type of the public `Sweep::series` field",
    ),
];

const COLLECTIONS: [&str; 4] = ["BinaryHeap", "BTreeMap", "BTreeSet", "HashMap"];

/// Item keywords whose next token is the item's name.
const ITEM_KEYWORDS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "union",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under the repository, as `/`-separated relative paths.
fn rust_files(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).expect("readable directory") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path.strip_prefix(root).expect("under the root");
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    out.sort();
    out
}

/// Identifiers and single punctuation characters of `src`, in order, with
/// comments, string/char literals and numbers dropped.
fn tokenize(src: &str) -> Vec<String> {
    let b = src.as_bytes();
    let n = b.len();
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80;
    let mut out = Vec::new();
    let mut i = 0;
    while i < n {
        let c = b[i];
        if c == b'/' && b.get(i + 1) == Some(&b'/') {
            while i < n && b[i] != b'\n' {
                i += 1;
            }
        } else if c == b'/' && b.get(i + 1) == Some(&b'*') {
            let mut depth = 0;
            while i < n {
                if b[i..].starts_with(b"/*") {
                    depth += 1;
                    i += 2;
                } else if b[i..].starts_with(b"*/") {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if let Some(end) = raw_string_end(b, i) {
            i = end;
        } else if c == b'"' || (c == b'b' && b.get(i + 1) == Some(&b'"')) {
            i += if c == b'b' { 2 } else { 1 };
            while i < n && b[i] != b'"' {
                i += if b[i] == b'\\' { 2 } else { 1 };
            }
            i += 1;
        } else if c == b'\'' {
            // A char literal closes right after one (possibly escaped)
            // character; a lifetime does not close.
            let close = if b.get(i + 1) == Some(&b'\\') {
                (i + 3..n).find(|&j| b[j] == b'\'')
            } else {
                let width = src[i + 1..].chars().next().map_or(1, char::len_utf8);
                Some(i + 1 + width).filter(|&j| b.get(j) == Some(&b'\''))
            };
            i = close.map_or(i + 1, |j| j + 1);
        } else if c.is_ascii_digit() {
            while i < n
                && (ident(b[i]) || (b[i] == b'.' && b.get(i + 1).is_some_and(u8::is_ascii_digit)))
            {
                i += 1;
            }
        } else if ident(c) {
            let start = i;
            while i < n && ident(b[i]) {
                i += 1;
            }
            out.push(src[start..i].to_string());
        } else {
            if !c.is_ascii_whitespace() {
                out.push((c as char).to_string());
            }
            i += 1;
        }
    }
    out
}

/// End of a raw (byte) string literal starting at `i`, if one starts there.
fn raw_string_end(b: &[u8], i: usize) -> Option<usize> {
    if i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_') {
        return None;
    }
    let mut j = i;
    if b.get(j) == Some(&b'b') {
        j += 1;
    }
    if b.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let hashes = b[j..].iter().take_while(|&&c| c == b'#').count();
    j += hashes;
    if b.get(j) != Some(&b'"') {
        return None;
    }
    let mut close = vec![b'"'];
    close.extend(std::iter::repeat(b'#').take(hashes));
    let body = j + 1;
    let at = b[body..].windows(close.len()).position(|w| w == close)?;
    Some(body + at + close.len())
}

/// `tokens` with every `#[cfg(test)]` item removed.
fn non_test(tokens: &[String]) -> Vec<&str> {
    const CFG_TEST: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i..].iter().take(7).map(String::as_str).eq(CFG_TEST) {
            i = item_end(tokens, i + 7);
        } else {
            out.push(tokens[i].as_str());
            i += 1;
        }
    }
    out
}

/// Index just past the item starting at `i`: its `;` or its `{ … }` body,
/// whichever comes first outside parentheses and brackets.
fn item_end(tokens: &[String], mut i: usize) -> usize {
    let mut nest = 0i32;
    while i < tokens.len() {
        match tokens[i].as_str() {
            "(" | "[" => nest += 1,
            ")" | "]" => nest -= 1,
            ";" if nest == 0 => return i + 1,
            "{" if nest == 0 => {
                let mut depth = 0;
                while i < tokens.len() {
                    match tokens[i].as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                return i + 1;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Comparison collections a token stream imports or paths through
/// `collections::…`.
fn collections_used(tokens: &[&str]) -> BTreeSet<String> {
    let is_ident = |t: &str| t.starts_with(|c: char| c.is_alphabetic() || c == '_');
    let mut used = BTreeSet::new();
    for i in 0..tokens.len() {
        if tokens[i] != "collections" || tokens.get(i + 1) != Some(&":") {
            continue;
        }
        // Walk the path tree after `collections::`: segments, `::`, braces.
        let mut depth = 0;
        for (j, &t) in tokens.iter().enumerate().skip(i + 1) {
            match t {
                ":" | "," | "*" => {}
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth <= 0 {
                        break;
                    }
                }
                t if is_ident(t) => {
                    if COLLECTIONS.contains(&t) {
                        used.insert(t.to_string());
                    }
                    if depth == 0 && tokens.get(j + 1) != Some(&":") {
                        break;
                    }
                }
                _ => break,
            }
        }
    }
    used
}

/// `(keyword, name)` of every `pub` item in a token stream.
fn pub_items(tokens: &[&str]) -> Vec<(String, String)> {
    let mut items = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i] != "pub" || tokens.get(i + 1) == Some(&"(") {
            continue;
        }
        let mut j = i + 1;
        loop {
            match (tokens.get(j), tokens.get(j + 1)) {
                (Some(&"unsafe" | &"async" | &"extern"), _) => j += 1,
                (Some(&"const"), Some(&"fn" | &"unsafe" | &"async" | &"extern")) => j += 1,
                _ => break,
            }
        }
        if let (Some(&kw), Some(&name)) = (tokens.get(j), tokens.get(j + 1)) {
            if ITEM_KEYWORDS.contains(&kw) {
                items.push((kw.to_string(), name.to_string()));
            }
        }
    }
    items
}

struct Workspace {
    /// Non-test tokens of each library file under `crates/*/src`.
    lib: BTreeMap<String, Vec<String>>,
    /// Identifier set of every `.rs` file.
    idents: BTreeMap<String, BTreeSet<String>>,
}

fn workspace() -> Workspace {
    let root = repo_root();
    let mut lib = BTreeMap::new();
    let mut idents = BTreeMap::new();
    for rel in rust_files(&root) {
        let src = fs::read_to_string(root.join(&rel)).expect("readable source");
        let tokens = tokenize(&src);
        let names = tokens
            .iter()
            .filter(|t| t.starts_with(|c: char| c.is_alphabetic() || c == '_'))
            .cloned()
            .collect();
        if rel.starts_with("crates/") && rel.contains("/src/") && !rel.starts_with("crates/vendor/")
        {
            let kept = non_test(&tokens).into_iter().map(str::to_string).collect();
            lib.insert(rel.clone(), kept);
        }
        idents.insert(rel, names);
    }
    Workspace { lib, idents }
}

fn strs(tokens: &[String]) -> Vec<&str> {
    tokens.iter().map(String::as_str).collect()
}

#[test]
fn tokenizer_drops_comments_strings_and_test_items() {
    let src = r##"
        // BTreeMap in a line comment
        /* HashMap /* nested */ still comment */
        const S: &str = "BinaryHeap \" quoted";
        const R: &str = r#"BTreeSet "inside" raw"#;
        fn f<'a>(x: &'a u8) -> char { '{' }
        #[cfg(test)]
        mod tests { use std::collections::HashMap; }
        use std::collections::{hash_map::Entry, BTreeMap};
        pub const fn g() {}
        pub(crate) fn h() {}
        pub struct Kept;
    "##;
    let tokens = tokenize(src);
    for hidden in ["HashMap", "BinaryHeap", "BTreeSet", "inside", "nested"] {
        assert!(
            !non_test(&tokens).contains(&hidden),
            "{hidden} leaked: {tokens:?}"
        );
    }
    let kept = non_test(&tokens);
    assert_eq!(
        collections_used(&kept),
        BTreeSet::from(["BTreeMap".to_string()])
    );
    let items: Vec<_> = pub_items(&kept).into_iter().map(|(_, n)| n).collect();
    assert_eq!(items, ["g", "Kept"]);
}

#[test]
fn comparison_collections_stay_in_their_allowlist() {
    let ws = workspace();
    let allowed: BTreeMap<&str, &str> = COLLECTION_ALLOWLIST.iter().copied().collect();
    let mut bad = Vec::new();
    let mut used_entries = BTreeSet::new();
    for (file, tokens) in &ws.lib {
        let used = collections_used(&strs(tokens));
        if used.is_empty() {
            continue;
        }
        if allowed.contains_key(file.as_str()) {
            used_entries.insert(file.as_str());
        } else {
            bad.push(format!("{file}: {used:?}"));
        }
    }
    assert!(
        bad.is_empty(),
        "comparison collections outside the allowlist (use a bucketed queue, or \
         add the module to COLLECTION_ALLOWLIST with a reason):\n{}",
        bad.join("\n")
    );
    let stale: Vec<_> = allowed
        .keys()
        .filter(|f| !used_entries.contains(*f))
        .collect();
    assert!(
        stale.is_empty(),
        "allowlisted modules that no longer use a comparison collection; drop them: {stale:?}"
    );
    for (file, reason) in COLLECTION_ALLOWLIST {
        assert!(!reason.trim().is_empty(), "{file} needs a reason");
    }
}

#[test]
fn every_pub_item_is_reached_from_another_file() {
    let ws = workspace();
    let allowed: BTreeSet<(&str, &str)> = PUB_ALLOWLIST.iter().map(|&(f, n, _)| (f, n)).collect();
    let mut unreached = Vec::new();
    let mut seen = BTreeSet::new();
    for (file, tokens) in &ws.lib {
        for (kw, name) in pub_items(&strs(tokens)) {
            let named_elsewhere = ws
                .idents
                .iter()
                .any(|(other, names)| other != file && names.contains(&name));
            let key = (file.as_str(), name.as_str());
            if allowed.contains(&key) {
                seen.insert((file.clone(), name.clone()));
                assert!(
                    !named_elsewhere,
                    "{file}: `{name}` is now named by another file; drop its PUB_ALLOWLIST entry"
                );
            } else if !named_elsewhere {
                unreached.push(format!("{file}: pub {kw} {name}"));
            }
        }
    }
    assert!(
        unreached.is_empty(),
        "pub items no other file names (make them private, pub(crate) or test \
         code, delete them, or add them to PUB_ALLOWLIST with a reason):\n{}",
        unreached.join("\n")
    );
    for (file, name, reason) in PUB_ALLOWLIST {
        assert!(
            seen.contains(&(file.to_string(), name.to_string())),
            "PUB_ALLOWLIST names `{name}` in {file}, which defines no such pub item"
        );
        assert!(!reason.trim().is_empty(), "{file}: `{name}` needs a reason");
    }
}

#[test]
fn mutant_manifest_names_existing_patches_and_targets() {
    let root = repo_root();
    let dir = root.join("tests/mutants");
    let manifest =
        fs::read_to_string(dir.join("manifest.txt")).expect("tests/mutants/manifest.txt");
    let mut listed = BTreeSet::new();
    for line in manifest.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [patch, krate, target] = fields[..] else {
            panic!("manifest line needs `<patch> <crate dir> <test target>`: {line:?}");
        };
        assert!(dir.join(patch).is_file(), "missing patch {patch}");
        assert!(
            root.join(krate).join("Cargo.toml").is_file(),
            "{patch}: no crate at {krate}"
        );
        assert!(
            root.join(krate)
                .join("tests")
                .join(format!("{target}.rs"))
                .is_file(),
            "{patch}: no test target {krate}/tests/{target}.rs"
        );
        listed.insert(patch.to_string());
    }
    for entry in fs::read_dir(&dir).expect("tests/mutants") {
        let name = entry
            .expect("entry")
            .file_name()
            .to_string_lossy()
            .to_string();
        if name.ends_with(".patch") {
            assert!(listed.contains(&name), "{name} is not in the manifest");
        }
    }
    assert!(!listed.is_empty(), "the manifest lists no mutants");
}
