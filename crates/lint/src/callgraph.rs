//! Workspace-wide call graph over the [`crate::ast`] item trees.
//!
//! Name resolution is deliberately *conservative*: an unresolvable call
//! produces no edge (std / external targets are handled by the intrinsic
//! site lists in `ast`), and an ambiguous call produces an edge to
//! **every** plausible target — a method call `.predict(…)` edges to
//! every visible workspace method named `predict`, and a call through a
//! trait edges to every implementor. The receiver types the graph knows
//! are `self`'s and its declared fields': `self.m()` and
//! `self.<a>.<b>.m()` land on that type's own `m`, or on nothing when
//! the type is a std one ([`STD_TYPES`]). Over-approximation keeps the
//! panic/allocation/taint passes sound (no missed chain) with one known
//! gap: a call on a std-typed receiver does not follow std's own dispatch
//! back into workspace trait impls (`self.pool.clone()` on a
//! `Vec<Box<dyn Forecaster>>` runs every `box_clone`, and `Drop`/`Display`
//! impls run the same way), so such a chain goes unchecked. The dependency
//! map parsed from the crates' `Cargo.toml`s keeps the graph from drowning
//! in false edges (a crate's calls can only land in crates it can actually
//! see).
//!
//! Resolution rules, in order:
//!
//! 1. the head segment is rewritten through the file's use-map
//!    (`use eadrl_linalg::kernels; … kernels::gemm(…)`), then
//!    `crate`/`self`/`super`/`Self` are normalized;
//! 2. `eadrl_<x>::…` pins the target crate; otherwise the caller's
//!    visible-crate set (itself + transitive deps) bounds the search;
//! 3. the segment before the fn name, when present, must match the
//!    target's receiver type, implemented trait, or enclosing module
//!    name; bare calls match free fns of the caller's own crate
//!    (same-module matches win when they exist);
//! 4. calls that land on a `trait` declaration fan out to all
//!    implementors via synthetic decl → impl edges;
//! 5. only library-unit, non-test fns can be call *targets* — test and
//!    bench helpers never contaminate library verdicts.

use crate::ast::{CallKind, FileAst};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

/// Crates that are build/analysis tooling, not forecast-producing
/// library surface. They are dev-dependencies only — never linked into
/// production binaries — so the graph excludes their trait impls from
/// decl fan-out (library code cannot dispatch to them at runtime), and
/// the deep passes exclude their pub fns from the verdict table.
pub const TOOL_CRATES: &[&str] = &["bench", "lint", "prof", "ptest", "sim"];

/// Field type heads whose methods are std's own: `self.pool.len()` on a
/// `Vec` field calls no workspace fn, unless the workspace implements
/// the method for that type itself. Such a call gets no edge even when
/// std dispatches from it into a workspace trait impl (`Clone`, `Drop`,
/// `Display`, …): a `self.<vec_field>.clone()` over workspace elements
/// leaves their `clone` bodies out of the caller's chains.
pub const STD_TYPES: &[&str] = &[
    "Vec",
    "VecDeque",
    "String",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "Option",
    "Result",
    "Cell",
    "RefCell",
    "Mutex",
    "RwLock",
    "OnceLock",
    "AtomicBool",
    "AtomicU64",
    "AtomicUsize",
    "Instant",
    "Duration",
    "PathBuf",
    "[]",
    "()",
    "bool",
    "char",
    "f32",
    "f64",
    "i32",
    "i64",
    "u8",
    "u32",
    "u64",
    "usize",
];

/// One fn node in the graph. Metadata is copied out of the [`FileAst`]s
/// so passes can work off the graph alone; `file`/`fn_idx` point back at
/// the full [`crate::ast::FnDef`] (sites, calls) when needed.
#[derive(Debug, Clone)]
pub struct Node {
    /// Index into the analyzed file list.
    pub file: usize,
    /// Index into that file's `fns`.
    pub fn_idx: usize,
    /// Fn name.
    pub name: String,
    /// `Type::name` or bare `name`.
    pub label: String,
    /// Owning crate (short name: `linalg`, `nn`, …).
    pub crate_name: String,
    /// Lives in a `src/` library unit (not tests/benches/examples).
    pub is_lib: bool,
    /// `pub`-reachable.
    pub is_pub: bool,
    /// Test code (`#[cfg(test)]` / `#[test]` / non-lib unit).
    pub is_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Workspace-relative path.
    pub rel_path: String,
}

impl Node {
    /// `crate::Type::fn` — the stable identifier used in reports,
    /// chains, DOT output and `HotPathConfig` matching.
    pub fn qualified(&self) -> String {
        format!("{}::{}", self.crate_name, self.label)
    }
}

/// A call edge with the source line of the call site (for chains).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Callee node id.
    pub to: usize,
    /// Line of the call site in the *caller*.
    pub line: usize,
}

/// The workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// All fn nodes, in file order.
    pub nodes: Vec<Node>,
    /// Outgoing edges per node (sorted, deduped by callee).
    pub edges: Vec<Vec<Edge>>,
}

impl CallGraph {
    /// Builds the graph. `deps` maps each crate short name to its direct
    /// `eadrl-*` dependencies (see [`workspace_deps`]); a crate missing
    /// from the map is treated as seeing every analyzed crate.
    pub fn build(asts: &[FileAst], deps: &BTreeMap<String, BTreeSet<String>>) -> CallGraph {
        let mut nodes = Vec::new();
        for (fi, ast) in asts.iter().enumerate() {
            for (di, def) in ast.fns.iter().enumerate() {
                nodes.push(Node {
                    file: fi,
                    fn_idx: di,
                    name: def.name.clone(),
                    label: def.label(),
                    crate_name: ast.crate_name.clone(),
                    is_lib: ast.is_lib,
                    is_pub: def.is_pub,
                    is_test: def.is_test || !ast.is_lib,
                    line: def.line,
                    rel_path: ast.rel_path.clone(),
                });
            }
        }
        let closure = transitive_deps(deps);
        let all_crates: BTreeSet<String> = nodes.iter().map(|n| n.crate_name.clone()).collect();

        // Candidate index: fn name → target node ids (library, non-test).
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (id, n) in nodes.iter().enumerate() {
            if n.is_lib && !n.is_test && !asts[n.file].fns[n.fn_idx].init {
                by_name.entry(n.name.as_str()).or_default().push(id);
            }
        }
        // (crate, struct) → field → type head. A field two same-named
        // structs of one crate type differently is unknown ("").
        let mut fields: BTreeMap<(&str, &str), BTreeMap<&str, &str>> = BTreeMap::new();
        for ast in asts {
            for (name, own) in &ast.fields {
                let known = fields.entry((&ast.crate_name, name)).or_default();
                for (field, ty) in own {
                    let ty = match known.get(field.as_str()) {
                        Some(prev) if prev != ty => "",
                        _ => ty,
                    };
                    known.insert(field, ty);
                }
            }
        }

        let resolver = Resolver {
            asts,
            nodes: &nodes,
            by_name,
            fields,
            closure,
            all_crates,
        };

        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); nodes.len()];
        for (id, n) in nodes.iter().enumerate() {
            let def = &asts[n.file].fns[n.fn_idx];
            let mut out: BTreeSet<Edge> = BTreeSet::new();
            for call in &def.calls {
                for target in resolver.resolve(n, call) {
                    if target != id {
                        out.insert(Edge {
                            to: target,
                            line: call.line,
                        });
                    }
                }
            }
            edges[id] = out.into_iter().collect();
        }

        // Trait-decl fan-out: a call landing on `trait T { fn m(…); }`
        // reaches every `impl T for X { fn m … }` — except implementors
        // living in tool crates when the decl does not: tool crates are
        // dev-only, so e.g. eadrl-sim's deliberately faulty `Forecaster`
        // proxies can never be dispatch targets of production code, and
        // routing library chains through their injected panics would
        // poison every caller of the trait.
        let mut fanout: Vec<(usize, Edge)> = Vec::new();
        for (id, n) in nodes.iter().enumerate() {
            let def = &asts[n.file].fns[n.fn_idx];
            if !def.in_trait_decl {
                continue;
            }
            let decl_is_tool = TOOL_CRATES.contains(&n.crate_name.as_str());
            let trait_name = def.self_type.clone();
            for (tid, tn) in nodes.iter().enumerate() {
                if tid == id || tn.is_test || !tn.is_lib || tn.name != n.name {
                    continue;
                }
                if !decl_is_tool && TOOL_CRATES.contains(&tn.crate_name.as_str()) {
                    continue;
                }
                let tdef = &asts[tn.file].fns[tn.fn_idx];
                if tdef.trait_impl == trait_name && trait_name.is_some() {
                    fanout.push((
                        id,
                        Edge {
                            to: tid,
                            line: n.line,
                        },
                    ));
                }
            }
        }
        for (from, e) in fanout {
            if !edges[from].iter().any(|x| x.to == e.to) {
                edges[from].push(e);
            }
        }
        for list in &mut edges {
            list.sort();
            list.dedup_by_key(|e| e.to);
        }
        CallGraph { nodes, edges }
    }

    /// Reverse adjacency (callee → callers), edge lines preserved.
    pub fn reverse_edges(&self) -> Vec<Vec<Edge>> {
        let mut rev: Vec<Vec<Edge>> = vec![Vec::new(); self.nodes.len()];
        for (from, outs) in self.edges.iter().enumerate() {
            for e in outs {
                rev[e.to].push(Edge {
                    to: from,
                    line: e.line,
                });
            }
        }
        rev
    }

    /// Node ids whose qualified name, label, or `module::name` matches
    /// `pattern` (used by `HotPathConfig` rows and `--explain`).
    pub fn find(&self, asts: &[FileAst], pattern: &str) -> Vec<usize> {
        let mut out = Vec::new();
        for (id, n) in self.nodes.iter().enumerate() {
            if n.is_test || !n.is_lib {
                continue;
            }
            if n.qualified() == pattern || n.label == pattern || n.name == pattern {
                out.push(id);
                continue;
            }
            let def = &self.nodes[id];
            let module = &asts[def.file].fns[def.fn_idx].module;
            if let Some(m) = module.last() {
                if format!("{m}::{}", n.name) == pattern {
                    out.push(id);
                }
            }
        }
        out
    }

    /// DOT export of the whole graph, crates as clusters. Deterministic
    /// output (node order = build order, edges sorted).
    pub fn to_dot(&self) -> String {
        let mut s =
            String::from("digraph eadrl {\n  rankdir=LR;\n  node [shape=box, fontsize=9];\n");
        let mut by_crate: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (id, n) in self.nodes.iter().enumerate() {
            if n.is_test || !n.is_lib {
                continue;
            }
            by_crate.entry(n.crate_name.as_str()).or_default().push(id);
        }
        for (krate, ids) in &by_crate {
            s.push_str(&format!(
                "  subgraph \"cluster_{krate}\" {{\n    label=\"{krate}\";\n"
            ));
            for &id in ids {
                s.push_str(&format!(
                    "    n{id} [label=\"{}\"];\n",
                    self.nodes[id].label.replace('"', "\\\"")
                ));
            }
            s.push_str("  }\n");
        }
        for (from, outs) in self.edges.iter().enumerate() {
            let fnode = &self.nodes[from];
            if fnode.is_test || !fnode.is_lib {
                continue;
            }
            for e in outs {
                let t = &self.nodes[e.to];
                if t.is_test || !t.is_lib {
                    continue;
                }
                s.push_str(&format!("  n{from} -> n{};\n", e.to));
            }
        }
        s.push_str("}\n");
        s
    }
}

impl PartialOrd for Edge {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Edge {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.to, self.line).cmp(&(other.to, other.line))
    }
}

struct Resolver<'a> {
    asts: &'a [FileAst],
    nodes: &'a [Node],
    by_name: BTreeMap<&'a str, Vec<usize>>,
    fields: BTreeMap<(&'a str, &'a str), BTreeMap<&'a str, &'a str>>,
    closure: BTreeMap<String, BTreeSet<String>>,
    all_crates: BTreeSet<String>,
}

impl<'a> Resolver<'a> {
    /// Crates whose items `caller_crate` can reference.
    fn visible(&self, caller_crate: &str) -> BTreeSet<String> {
        match self.closure.get(caller_crate) {
            Some(set) => {
                let mut v = set.clone();
                v.insert(caller_crate.to_string());
                v
            }
            // Unknown crate (fixture mini-crates): conservatively sees
            // everything analyzed alongside it.
            None => self.all_crates.clone(),
        }
    }

    fn resolve(&self, caller: &Node, call: &crate::ast::CallSite) -> Vec<usize> {
        match &call.kind {
            CallKind::Macro { .. } => Vec::new(), // macro bodies are not expanded
            CallKind::Method { name, recv } => {
                let visible = self.visible(&caller.crate_name);
                let self_type = |id: usize| {
                    let n = &self.nodes[id];
                    self.asts[n.file].fns[n.fn_idx].self_type.as_deref()
                };
                let methods: Vec<usize> = self
                    .by_name
                    .get(name.as_str())
                    .into_iter()
                    .flatten()
                    .copied()
                    .filter(|&id| {
                        self_type(id).is_some() && visible.contains(&self.nodes[id].crate_name)
                    })
                    .collect();
                if let Some(ty) = recv.as_deref().and_then(|c| self.receiver_type(caller, c)) {
                    let typed: Vec<usize> = methods
                        .iter()
                        .copied()
                        .filter(|&id| self_type(id) == Some(ty))
                        .collect();
                    if !typed.is_empty() || STD_TYPES.contains(&ty) {
                        return typed;
                    }
                }
                methods
            }
            CallKind::Path { segments } => self.resolve_path(caller, segments),
        }
    }

    /// The type head of the receiver `self.<a>.<b>…` (of `self` for an
    /// empty `chain`) inside a method of `caller`'s type, following each
    /// declared field's type in turn.
    fn receiver_type<'c>(&'c self, caller: &'c Node, chain: &[String]) -> Option<&'c str> {
        let mut ty = self.asts[caller.file].fns[caller.fn_idx]
            .self_type
            .as_deref()?;
        let mut krate = caller.crate_name.as_str();
        for field in chain {
            let (owner_crate, fields) = self.struct_fields(krate, ty)?;
            ty = match *fields.get(field.as_str())? {
                "" => return None,
                "Self" => ty,
                next => next,
            };
            krate = owner_crate;
        }
        Some(ty)
    }

    /// The declared fields of struct `ty`: `krate`'s own, else those of
    /// the one other crate declaring a struct of that name.
    fn struct_fields<'c>(
        &'c self,
        krate: &'c str,
        ty: &'c str,
    ) -> Option<(&'c str, &'c BTreeMap<&'a str, &'a str>)> {
        if let Some(fields) = self.fields.get(&(krate, ty)) {
            return Some((krate, fields));
        }
        let mut named = self.fields.iter().filter(|((_, s), _)| *s == ty);
        match (named.next(), named.next()) {
            (Some(((k, _), fields)), None) => Some((k, fields)),
            _ => None,
        }
    }

    fn resolve_path(&self, caller: &Node, segments: &[String]) -> Vec<usize> {
        let ast = &self.asts[caller.file];
        let caller_def = &ast.fns[caller.fn_idx];
        // Head rewrite through the use-map, then keyword normalization.
        let mut segs: Vec<String> = segments.to_vec();
        if let Some(full) = ast.uses.get(&segs[0]) {
            // `use a::b; … b::f()` — but `use a::b::f; f()` also lands
            // here with segs == [f]; either way splice the full path in
            // place of the head segment.
            let mut new = full.clone();
            new.extend(segs[1..].iter().cloned());
            segs = new;
        }
        match segs[0].as_str() {
            // The umbrella crate defines no fns: `eadrl::core::f` is
            // `eadrl_core::f` through its `pub use eadrl_core as core`.
            "eadrl" if segs.len() >= 3 => {
                let krate = format!("eadrl_{}", segs[1]);
                segs.splice(0..2, [krate]);
            }
            "crate" => segs[0] = format!("eadrl_{}", ast.crate_name),
            "self" => {
                let mut new = vec![format!("eadrl_{}", ast.crate_name)];
                new.extend(caller_def.module.iter().cloned());
                new.extend(segs[1..].iter().cloned());
                segs = new;
            }
            "super" => {
                let mut new = vec![format!("eadrl_{}", ast.crate_name)];
                let m = &caller_def.module;
                new.extend(m[..m.len().saturating_sub(1)].iter().cloned());
                new.extend(segs[1..].iter().cloned());
                segs = new;
            }
            "Self" => {
                if let Some(ty) = &caller_def.self_type {
                    segs[0] = ty.clone();
                } else {
                    return Vec::new();
                }
            }
            _ => {}
        }
        let fname = segs.last().cloned().unwrap_or_default();
        let candidates: &[usize] = match self.by_name.get(fname.as_str()) {
            Some(v) => v,
            None => return Vec::new(),
        };

        // Crate pin: `eadrl_<x>::…` restricts to crate x; otherwise the
        // caller's visibility set bounds the search.
        let (pinned, qualifier): (Option<String>, Option<&String>) = if segs.len() >= 2 {
            let head = &segs[0];
            let pin = head
                .strip_prefix("eadrl_")
                .map(str::to_string)
                .or_else(|| (head == "eadrl").then(|| "eadrl".to_string()));
            let q = &segs[segs.len() - 2];
            let q = if pin.is_some() && segs.len() == 2 {
                None // `eadrl_obs::warn(…)` — crate-root free fn
            } else {
                Some(q)
            };
            (pin, q)
        } else {
            (None, None)
        };
        let visible = match &pinned {
            Some(c) => {
                let mut s = BTreeSet::new();
                s.insert(c.clone());
                s
            }
            None => self.visible(&caller.crate_name),
        };

        let matches = |id: usize, same_module_only: bool| -> bool {
            let n = &self.nodes[id];
            if !visible.contains(&n.crate_name) {
                return false;
            }
            let def = &self.asts[n.file].fns[n.fn_idx];
            match qualifier {
                Some(q) => {
                    def.self_type.as_deref() == Some(q.as_str())
                        || def.trait_impl.as_deref() == Some(q.as_str())
                        || def.module.last() == Some(q)
                }
                None => {
                    // Bare call (or crate-root path): free fns only; a
                    // method cannot be invoked without a receiver path.
                    if def.self_type.is_some() {
                        return false;
                    }
                    if pinned.is_some() {
                        return true;
                    }
                    // Unqualified: same crate; same module preferred.
                    n.crate_name == caller.crate_name
                        && (!same_module_only || def.module == caller_def.module)
                }
            }
        };
        if qualifier.is_none() && pinned.is_none() {
            // Same-module match wins outright when it exists (tightest
            // scope); otherwise fall back to same-crate free fns.
            let same: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&id| matches(id, true))
                .collect();
            if !same.is_empty() {
                return same;
            }
        }
        candidates
            .iter()
            .copied()
            .filter(|&id| matches(id, false))
            .collect()
    }
}

/// Transitive closure of the direct-dependency map.
fn transitive_deps(
    deps: &BTreeMap<String, BTreeSet<String>>,
) -> BTreeMap<String, BTreeSet<String>> {
    let mut out = BTreeMap::new();
    for name in deps.keys() {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut stack: Vec<&String> = deps
            .get(name)
            .map(|s| s.iter().collect())
            .unwrap_or_default();
        while let Some(d) = stack.pop() {
            if seen.insert(d.clone()) {
                if let Some(next) = deps.get(d) {
                    stack.extend(next.iter());
                }
            }
        }
        out.insert(name.clone(), seen);
    }
    out
}

/// Parses `crates/*/Cargo.toml` (plus the workspace root's) into a map
/// of crate short name → direct `eadrl-*` dependency short names. The
/// umbrella crate at the workspace root is registered as `eadrl`.
pub fn workspace_deps(workspace_root: &Path) -> io::Result<BTreeMap<String, BTreeSet<String>>> {
    let mut map = BTreeMap::new();
    let crates_dir = workspace_root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates_dir) {
        for entry in entries.flatten() {
            let manifest = entry.path().join("Cargo.toml");
            if !manifest.is_file() {
                continue;
            }
            let short = entry.file_name().to_string_lossy().to_string();
            let text = fs::read_to_string(&manifest)?;
            map.insert(short, manifest_deps(&text));
        }
    }
    let root_manifest = workspace_root.join("Cargo.toml");
    if root_manifest.is_file() {
        let text = fs::read_to_string(&root_manifest)?;
        map.insert("eadrl".to_string(), manifest_deps(&text));
    }
    Ok(map)
}

/// Extracts `eadrl-*` dependency short names from a manifest's
/// `[dependencies]` / `[dev-dependencies]` sections.
fn manifest_deps(text: &str) -> BTreeSet<String> {
    let mut deps = BTreeSet::new();
    let mut in_deps = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_deps = line.starts_with("[dependencies")
                || line.starts_with("[dev-dependencies")
                || line.starts_with("[build-dependencies");
            continue;
        }
        if !in_deps {
            continue;
        }
        // The dependency name is the key's first dotted segment, quoted
        // or bare: `eadrl-x = {…}`, `eadrl-x.workspace = true`,
        // `"eadrl-x".workspace = true`.
        let Some(eq) = line.find('=') else { continue };
        let key = line[..eq].trim();
        let name = match key.strip_prefix('"') {
            Some(quoted) => quoted.split('"').next(),
            None => key.split('.').next(),
        };
        if let Some(short) = name.and_then(|n| n.trim().strip_prefix("eadrl-")) {
            deps.insert(short.replace('-', "_"));
        }
    }
    deps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_file;
    use crate::source::SourceFile;

    fn build(files: &[(&str, &str)]) -> (Vec<FileAst>, CallGraph) {
        let asts: Vec<FileAst> = files
            .iter()
            .map(|(p, s)| parse_file(&SourceFile::parse(p, s)))
            .collect();
        let mut deps = BTreeMap::new();
        deps.insert("core".to_string(), {
            let mut s = BTreeSet::new();
            s.insert("linalg".to_string());
            s
        });
        deps.insert("linalg".to_string(), BTreeSet::new());
        deps.insert("island".to_string(), BTreeSet::new());
        let graph = CallGraph::build(&asts, &deps);
        (asts, graph)
    }

    fn node(graph: &CallGraph, q: &str) -> usize {
        graph
            .nodes
            .iter()
            .position(|n| n.qualified() == q)
            .unwrap_or_else(|| panic!("no node {q}"))
    }

    fn has_edge(graph: &CallGraph, from: &str, to: &str) -> bool {
        let f = node(graph, from);
        let t = node(graph, to);
        graph.edges[f].iter().any(|e| e.to == t)
    }

    #[test]
    fn bare_calls_resolve_same_module_first() {
        let (_, g) = build(&[
            (
                "crates/core/src/a.rs",
                "pub fn caller() { helper(); }\nfn helper() {}\n",
            ),
            ("crates/core/src/b.rs", "pub fn helper() {}\n"),
        ]);
        assert!(has_edge(&g, "core::caller", "core::helper"));
        // Same-module helper wins; cross-module same-name is not edged.
        let f = node(&g, "core::caller");
        assert_eq!(g.edges[f].len(), 1);
    }

    #[test]
    fn qualified_paths_resolve_modules_types_and_crates() {
        let (_, g) = build(&[
            (
                "crates/linalg/src/kernels.rs",
                "pub fn gemm() {}\npub struct Workspace;\nimpl Workspace { pub fn take(&mut self) {} }\n",
            ),
            (
                "crates/core/src/x.rs",
                "use eadrl_linalg::kernels;\npub fn run(w: &mut kernels::Workspace) {\n    kernels::gemm();\n    w.take();\n    eadrl_linalg::kernels::gemm();\n}\n",
            ),
        ]);
        assert!(has_edge(&g, "core::run", "linalg::gemm"));
        assert!(has_edge(&g, "core::run", "linalg::Workspace::take"));
    }

    #[test]
    fn dep_map_blocks_invisible_crates() {
        let (_, g) = build(&[
            (
                "crates/island/src/lib.rs",
                "pub fn gemm() {}\n", // same name, but core does not depend on island
            ),
            ("crates/linalg/src/kernels.rs", "pub fn gemm() {}\n"),
            (
                "crates/core/src/x.rs",
                "pub fn run() { kernels::gemm(); }\n",
            ),
        ]);
        assert!(has_edge(&g, "core::run", "linalg::gemm"));
        assert!(!has_edge(&g, "core::run", "island::gemm"));
    }

    #[test]
    fn trait_calls_fan_out_to_all_implementors() {
        let (_, g) = build(&[(
            "crates/core/src/m.rs",
            "pub trait Model { fn fit(&mut self); }\n\
             pub struct A; impl Model for A { fn fit(&mut self) { a_only(); } }\n\
             pub struct B; impl Model for B { fn fit(&mut self) { b_only(); } }\n\
             fn a_only() {}\nfn b_only() {}\n\
             pub fn train(m: &mut dyn Model) { m.fit(); }\n",
        )]);
        let train = node(&g, "core::train");
        // `.fit()` edges to the decl and both impls; decl fans out too.
        let decl = node(&g, "core::Model::fit");
        assert!(g.edges[train].iter().any(|e| e.to == decl));
        assert!(has_edge(&g, "core::Model::fit", "core::A::fit"));
        assert!(has_edge(&g, "core::Model::fit", "core::B::fit"));
        assert!(has_edge(&g, "core::A::fit", "core::a_only"));
    }

    #[test]
    fn trait_fanout_skips_tool_crate_implementors() {
        // `sim` is in TOOL_CRATES: its fault-injection proxies implement
        // library traits but are dev-only, so a library trait decl must
        // not fan out into them (their injected panics would otherwise
        // taint every production caller of the trait).
        let (_, g) = build(&[
            (
                "crates/models/src/m.rs",
                "pub trait Model { fn fit(&mut self); }\n\
                 pub struct Real; impl Model for Real { fn fit(&mut self) {} }\n",
            ),
            (
                "crates/sim/src/proxy.rs",
                "use eadrl_models::Model;\n\
                 pub struct Faulty; impl Model for Faulty { fn fit(&mut self) { panic!(\"injected\") } }\n",
            ),
        ]);
        assert!(has_edge(&g, "models::Model::fit", "models::Real::fit"));
        assert!(!has_edge(&g, "models::Model::fit", "sim::Faulty::fit"));
    }

    #[test]
    fn self_paths_resolve_to_own_impl() {
        let (_, g) = build(&[(
            "crates/core/src/s.rs",
            "pub struct S;\nimpl S {\n    pub fn outer(&self) { Self::inner(); }\n    fn inner() {}\n}\n",
        )]);
        assert!(has_edge(&g, "core::S::outer", "core::S::inner"));
    }

    #[test]
    fn fn_references_in_par_map_produce_edges() {
        let (_, g) = build(&[(
            "crates/core/src/p.rs",
            "pub struct S;\nimpl S { pub fn step(x: u64) -> u64 { x } }\n\
             pub fn run(xs: Vec<u64>) { par_map(xs, S::step); }\n",
        )]);
        assert!(has_edge(&g, "core::run", "core::S::step"));
    }

    #[test]
    fn test_fns_are_not_call_targets() {
        let (_, g) = build(&[(
            "crates/core/src/t.rs",
            "pub fn caller() { helper(); }\n\
             #[cfg(test)]\nmod tests {\n    pub fn helper() { panic!(\"boom\") }\n}\n",
        )]);
        let c = node(&g, "core::caller");
        assert!(g.edges[c].is_empty(), "test helper must not be a target");
    }

    #[test]
    fn manifest_deps_parse_every_key_form() {
        let toml = "[package]\nname = \"eadrl-core\"\n\n[dependencies]\n\
                    eadrl-linalg = { path = \"../linalg\" }\neadrl-rl.workspace = true\n\
                    \"eadrl-obs\" = { path = \"../obs\" }\n\"eadrl-par\".workspace = true\n\n\
                    [dev-dependencies]\neadrl-ptest.workspace = true\n";
        let want: BTreeSet<String> = ["linalg", "obs", "par", "ptest", "rl"]
            .map(String::from)
            .into();
        assert_eq!(manifest_deps(toml), want);
    }

    #[test]
    fn umbrella_paths_resolve_into_the_reexported_crate() {
        let (_, g) = build(&[
            (
                "crates/core/src/lib.rs",
                "pub struct EaDrl;\nimpl EaDrl { pub fn new() -> EaDrl { EaDrl } }\npub fn run() {}\n",
            ),
            (
                "examples/demo.rs",
                "use eadrl::core::EaDrl;\nfn main() { EaDrl::new(); eadrl::core::run(); }\n",
            ),
        ]);
        assert!(has_edge(&g, "eadrl::main", "core::EaDrl::new"));
        assert!(has_edge(&g, "eadrl::main", "core::run"));
    }

    #[test]
    fn self_field_calls_resolve_through_the_field_type() {
        let (_, g) = build(&[(
            "crates/core/src/f.rs",
            "pub struct Adam;\nimpl Adam { pub fn step(&mut self) {} }\n\
             pub struct Env;\nimpl Env { pub fn step(&mut self) {} pub fn len(&self) -> usize { 0 } }\n\
             pub struct Bufs { env: Env, sizes: Vec<usize> }\n\
             pub struct Agent { opt: Adam, pool: Vec<Env>, bufs: Bufs }\n\
             impl Agent {\n    pub fn update(&mut self) { self.opt.step(); }\n\
             \x20   pub fn size(&self) -> usize { self.pool.len() }\n\
             \x20   pub fn nested(&mut self) { self.bufs.env.step(); self.bufs.sizes.len(); }\n\
             \x20   pub fn step(&mut self) {}\n\
             \x20   pub fn own(&mut self) { self.step(); }\n}\n\
             pub fn loose(a: &mut Adam) { a.step(); }\n",
        )]);
        assert!(has_edge(&g, "core::Agent::update", "core::Adam::step"));
        assert!(!has_edge(&g, "core::Agent::update", "core::Env::step"));
        // Field chains and `self` itself narrow the same way.
        let nested = node(&g, "core::Agent::nested");
        let env_step = node(&g, "core::Env::step");
        let targets: Vec<usize> = g.edges[nested].iter().map(|e| e.to).collect();
        assert_eq!(targets, [env_step]);
        assert!(has_edge(&g, "core::Agent::own", "core::Agent::step"));
        assert!(!has_edge(&g, "core::Agent::own", "core::Adam::step"));
        // A std container's `len` is std's, not the workspace `Env::len`.
        assert!(g.edges[node(&g, "core::Agent::size")].is_empty());
        // Without a known receiver, name-only resolution stays.
        assert!(has_edge(&g, "core::loose", "core::Env::step"));
    }

    #[test]
    fn dot_export_is_deterministic_and_clustered() {
        let (_, g) = build(&[(
            "crates/core/src/a.rs",
            "pub fn caller() { helper(); }\nfn helper() {}\n",
        )]);
        let dot = g.to_dot();
        assert!(dot.contains("subgraph \"cluster_core\""));
        assert!(dot.contains("->"));
        assert_eq!(dot, g.to_dot());
    }
}
