//! A lightweight Rust parser on top of the lexer — just deep enough for
//! call-graph construction.
//!
//! This is *not* an expression grammar. The parser recovers exactly the
//! structure the interprocedural passes need:
//!
//! * the **item tree**: `mod` nesting, `impl` blocks (inherent and
//!   trait), `trait` declarations, and `fn` items (including nested
//!   fns), each with its module path, receiver type, visibility and
//!   body span;
//! * per-fn **call sites**: bare calls (`helper(…)`), qualified paths
//!   (`kernels::gemm(…)`, `Type::method(…)`, turbofish included),
//!   method calls (`.predict(…)`), macro invocations (`format!(…)`),
//!   and multi-segment function *references* passed as values
//!   (`par_map(xs, Self::step)`). Calls inside closures belong to the
//!   enclosing fn — a closure is not an item, so its body simply stays
//!   inside the fn's token range;
//! * per-fn **intrinsic sites**: the panic escape hatches
//!   (`.unwrap()`, `panic!`, …), the allocating std calls
//!   (`Vec::new`, `.push(…)`, `format!`, `.clone()`, …) and the
//!   nondeterminism sources (`Instant::now`, `HashMap`,
//!   `thread::current`) — each tagged with whether a suppression
//!   marker covers its line;
//! * the file's **use-map** (`use a::b::{c as d}` → `d` ⇒ `a::b::c`),
//!   which drives cross-module name resolution in `callgraph`.
//!
//! Everything is conservative: what the parser cannot classify it
//! ignores (no call edge) or over-approximates (method calls dispatch
//! by name); it never panics on malformed input.

use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// Keywords that can never be a called function's name (unless raw).
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "true", "type", "union", "unsafe",
    "use", "where", "while", "yield",
];

/// Panic escape hatches matched as method calls (`.name(`).
pub const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
/// Panic escape hatches matched as macros (`name!`).
pub const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
/// Allocating std method calls (`.name(`) — growth or fresh ownership.
pub const ALLOC_METHODS: &[&str] = &[
    "push",
    "push_str",
    "to_vec",
    "to_string",
    "to_owned",
    "clone",
    "collect",
    "extend",
];
/// Allocating constructors matched as `Type::fn` path suffixes.
pub const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
];
/// Allocating macros (`name!`).
pub const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// What a call site refers to, before resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `.name(…)`. `recv` is the field chain when the receiver is
    /// `self` (empty) or `self.<a>.<b>…`, whose declared type narrows the
    /// targets; otherwise the call resolves to every workspace method of
    /// that name the caller's crate can see.
    Method {
        name: String,
        recv: Option<Vec<String>>,
    },
    /// `a::b::name(…)` or bare `name(…)` (one segment), or a
    /// multi-segment path used as a function value.
    Path { segments: Vec<String> },
    /// `name!(…)` — only interesting when it is a panic/alloc intrinsic
    /// (workspace `macro_rules!` bodies are not expanded).
    Macro { name: String },
}

/// One call site inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// What is being called.
    pub kind: CallKind,
    /// 1-based source line.
    pub line: usize,
}

/// What an intrinsic site is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// `.unwrap()` / `panic!` / … — can abort the process.
    Panic,
    /// `Vec::push` / `format!` / `.clone()` / … — allocates.
    Alloc,
    /// `Instant::now` / `HashMap` / `thread::current` — nondeterminism.
    Taint,
}

/// One intrinsic (panic / alloc / taint) site inside a fn body.
#[derive(Debug, Clone)]
pub struct Site {
    /// Classification.
    pub kind: SiteKind,
    /// Human-readable description of the construct (`.unwrap()`,
    /// `Instant::now`, `format!`).
    pub what: String,
    /// 1-based source line.
    pub line: usize,
    /// A suppression marker covers this line for the matching rule
    /// (line-level `allow` lifted into the dataflow analysis).
    pub allowed: bool,
}

/// One `fn` item (free fn, inherent/trait-impl method, trait default
/// method, or nested fn), or an `init` pseudo-fn.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The fn's own name.
    pub name: String,
    /// Module path inside the crate (file-derived base + inline `mod`s).
    pub module: Vec<String>,
    /// Receiver type for methods (`impl Type`), the trait's name for
    /// trait-default bodies, `None` for free fns.
    pub self_type: Option<String>,
    /// Trait being implemented, for `impl Trait for Type` methods.
    pub trait_impl: Option<String>,
    /// Declared inside a `trait` block (signature or default body).
    pub in_trait_decl: bool,
    /// Has a `{…}` body (false for trait signatures / extern decls).
    pub has_body: bool,
    /// `pub`-reachable (trait members count as pub).
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Last line of the item (body close or `;`).
    pub end_line: usize,
    /// Inside `#[cfg(test)]` / `#[test]` code.
    pub is_test: bool,
    /// Not a fn but a `const`/`static` initializer, a `macro_rules!`
    /// body or an item-position macro invocation: its calls root the
    /// reachability pass, and it is never a call target.
    pub init: bool,
    /// Call sites in the body (closures included, nested fns excluded).
    pub calls: Vec<CallSite>,
    /// Panic/alloc/taint intrinsics in the body.
    pub sites: Vec<Site>,
}

impl FnDef {
    /// `Type::name` or plain `name` — the workspace-unique-ish label used
    /// in reports and chains (path disambiguates the rest).
    pub fn label(&self) -> String {
        match &self.self_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One parsed file: the item tree plus its use-map.
#[derive(Debug)]
pub struct FileAst {
    /// Workspace-relative path (as in [`SourceFile::rel_path`]).
    pub rel_path: String,
    /// Owning crate's short name (`linalg`, `nn`, …; `eadrl` for the
    /// umbrella crate). Derived from the path.
    pub crate_name: String,
    /// True for `src/` library code (not `tests/`, `benches/`,
    /// `examples/`, or `src/bin/`).
    pub is_lib: bool,
    /// `use` alias → absolute-ish path segments (leading `crate`
    /// rewritten to the crate name).
    pub uses: BTreeMap<String, Vec<String>>,
    /// Every fn item in the file.
    pub fns: Vec<FnDef>,
    /// Struct name → named field → the field type's head (`Adam`,
    /// `Vec`, `[]`; empty when unknown); drives `self.<a>.<b>….m()`
    /// resolution.
    pub fields: BTreeMap<String, BTreeMap<String, String>>,
}

/// Derives `(crate_name, is_lib)` from a workspace-relative path. The
/// *last* `crates/<name>/` match wins so fixture trees
/// (`crates/lint/tests/fixtures/deep_bad/crates/mini/src/lib.rs`) are
/// attributed to the crate they mimic.
pub fn crate_of(rel_path: &str) -> (String, bool) {
    let mut crate_name = "eadrl".to_string();
    let mut rest = rel_path;
    let mut tail = rel_path;
    while let Some(at) = rest.find("crates/") {
        let after = &rest[at + "crates/".len()..];
        if let Some(slash) = after.find('/') {
            crate_name = after[..slash].to_string();
            tail = &after[slash + 1..];
        }
        rest = &rest[at + "crates/".len()..];
    }
    let is_lib = tail.starts_with("src/") && !tail.starts_with("src/bin/") && tail != "src/main.rs";
    (crate_name, is_lib)
}

/// The module path a file's items live in (`src/lib.rs` → `[]`,
/// `src/rules/mod.rs` → `["rules"]`, `src/rules/float_eq.rs` →
/// `["rules", "float_eq"]`).
fn base_module(rel_path: &str) -> Vec<String> {
    let tail = match rel_path.rfind("src/") {
        Some(at) => &rel_path[at + 4..],
        None => match rel_path.rsplit('/').next() {
            Some(f) => f,
            None => rel_path,
        },
    };
    let tail = tail.trim_end_matches(".rs");
    if tail == "lib" || tail == "main" {
        return Vec::new();
    }
    let mut segs: Vec<String> = tail.split('/').map(str::to_string).collect();
    if segs.last().map(String::as_str) == Some("mod") {
        segs.pop();
    }
    segs
}

/// Skips a balanced `<…>` starting at `i` (which must point at `<`).
/// Returns the index just past the closing `>`; accounts for `<<`/`>>`
/// lexing as single shift operators inside nested generics.
fn skip_angles(tokens: &[Token], i: usize) -> usize {
    let mut depth: isize = 0;
    let mut j = i;
    while j < tokens.len() {
        let t = &tokens[j];
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, "<") => depth += 1,
            (TokenKind::Punct, ">") => {
                depth -= 1;
                if depth <= 0 {
                    return j + 1;
                }
            }
            (TokenKind::Op, "<<") => depth += 2,
            (TokenKind::Op, ">>") => {
                depth -= 2;
                if depth <= 0 {
                    return j + 1;
                }
            }
            // A `;` or `{` at angle depth means we mis-guessed (comparison
            // operator, not generics) — bail out conservatively.
            (TokenKind::Punct, ";" | "{") => return j,
            _ => {}
        }
        j += 1;
    }
    j
}

/// The type a method call on a value of this type dispatches on: the
/// last path segment before any generics (`eadrl_nn::Adam` → `Adam`,
/// `Vec<Box<dyn F>>` → `Vec`), looking through references, `dyn`/`impl`
/// and the smart pointers `Box`/`Rc`/`Arc`, which deref to their
/// argument. Arrays and slices are `[]`, tuples `()`; empty when unknown.
fn type_head(toks: &[Token]) -> String {
    let mut head = String::new();
    for t in toks {
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, "&") | (TokenKind::Op, "&&" | "::") | (TokenKind::Lifetime, _) => {}
            (TokenKind::Ident, "mut" | "dyn" | "impl") if !t.raw => {}
            (TokenKind::Punct, "[") => return "[]".to_string(),
            (TokenKind::Punct, "(") => return "()".to_string(),
            (TokenKind::Punct, "<") if matches!(head.as_str(), "Box" | "Rc" | "Arc") => {
                head.clear()
            }
            (TokenKind::Ident, _) => head = t.text.clone(),
            _ => break,
        }
    }
    head
}

/// Parses one file into its item tree. Never fails; unparseable stretches
/// simply contribute no items.
pub fn parse_file(file: &SourceFile) -> FileAst {
    let (crate_name, is_lib) = crate_of(&file.rel_path);
    let mut p = Parser {
        toks: &file.tokens,
        file,
        crate_name: crate_name.clone(),
        uses: BTreeMap::new(),
        fns: Vec::new(),
        fields: BTreeMap::new(),
    };
    let base = base_module(&file.rel_path);
    let end = p.toks.len();
    p.items(0, end, &base, &ImplCtx::None);
    let mut ast = FileAst {
        rel_path: file.rel_path.clone(),
        crate_name,
        is_lib,
        uses: p.uses,
        fns: p.fns,
        fields: p.fields,
    };
    // Sites/calls were collected per fn over its body span; nested fns
    // are separate items whose spans are inside the parent's — strip the
    // parent's view of them.
    strip_nested(&mut ast.fns);
    ast
}

/// Enclosing impl/trait context while walking items.
enum ImplCtx {
    None,
    Impl {
        ty: Option<String>,
        trait_name: Option<String>,
    },
    Trait(String),
}

struct Parser<'a> {
    toks: &'a [Token],
    file: &'a SourceFile,
    crate_name: String,
    uses: BTreeMap<String, Vec<String>>,
    fns: Vec<FnDef>,
    fields: BTreeMap<String, BTreeMap<String, String>>,
}

/// True when `t` is the punctuation `p`.
fn is_punct(t: &Token, p: &str) -> bool {
    t.kind == TokenKind::Punct && t.text == p
}

impl<'a> Parser<'a> {
    /// Walks the token range `[i, end)` as an item sequence inside module
    /// path `module` and impl context `ctx`.
    fn items(&mut self, mut i: usize, end: usize, module: &[String], ctx: &ImplCtx) {
        while i < end {
            let t = &self.toks[i];
            if t.is_kw("use") {
                i = self.use_decl(i + 1, end);
            } else if t.is_kw("mod") {
                i = self.mod_item(i, end, module, ctx);
            } else if t.is_kw("impl") {
                i = self.impl_item(i, end, module);
            } else if t.is_kw("trait") {
                i = self.trait_item(i, end, module);
            } else if t.is_kw("fn") {
                i = self.fn_item(i, end, module, ctx);
            } else if t.is_kw("struct") {
                i = self.struct_item(i, end);
            } else if t.is_kw("const") || t.is_kw("static") {
                i = self.init_item(i, end, module, ctx);
            } else if t.kind == TokenKind::Ident
                && self.toks.get(i + 1).is_some_and(|n| is_punct(n, "!"))
            {
                i = self.macro_item(i, end, module, ctx);
            } else if t.kind == TokenKind::Punct && t.text == "{" {
                // An expression / const / static block we don't model —
                // recurse so nested items are still found.
                let close = self.matching_brace(i, end);
                self.items(i + 1, close, module, ctx);
                i = close + 1;
            } else {
                i += 1;
            }
        }
    }

    /// Index of the `}` matching the `{` at `i` (or `end` if unbalanced).
    fn matching_brace(&self, i: usize, end: usize) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while j < end {
            match (self.toks[j].kind, self.toks[j].text.as_str()) {
                (TokenKind::Punct, "{") => depth += 1,
                (TokenKind::Punct, "}") => {
                    depth -= 1;
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        end.saturating_sub(1).max(i)
    }

    /// `use path::{a, b as c, d::*};` — fills the alias map. `i` points
    /// just past the `use` keyword; returns the index past the `;`.
    fn use_decl(&mut self, i: usize, end: usize) -> usize {
        let mut j = i;
        while j < end && !(self.toks[j].kind == TokenKind::Punct && self.toks[j].text == ";") {
            j += 1;
        }
        let prefix: Vec<String> = Vec::new();
        self.use_tree(i, j, &prefix);
        j + 1
    }

    /// Recursive use-tree walk over `[i, end)` with the accumulated
    /// `prefix` of outer segments.
    fn use_tree(&mut self, i: usize, end: usize, prefix: &[String]) {
        let mut segs: Vec<String> = Vec::new();
        let mut j = i;
        while j < end {
            let t = &self.toks[j];
            match (t.kind, t.text.as_str()) {
                (TokenKind::Ident, "as") if !t.raw => {
                    // `path as alias`
                    if let Some(alias) = self.toks.get(j + 1) {
                        if alias.kind == TokenKind::Ident {
                            let mut full = prefix.to_vec();
                            full.extend(segs.iter().cloned());
                            self.record_use(alias.text.clone(), full);
                        }
                    }
                    return;
                }
                (TokenKind::Ident, _) => segs.push(t.text.clone()),
                (TokenKind::Op, "::") => {}
                (TokenKind::Punct, "{") => {
                    // Group: recurse per comma-separated subtree.
                    let close = self.matching_brace(j, end);
                    let mut outer = prefix.to_vec();
                    outer.extend(segs.iter().cloned());
                    let mut part = j + 1;
                    let mut depth = 0usize;
                    for k in j + 1..close {
                        match (self.toks[k].kind, self.toks[k].text.as_str()) {
                            (TokenKind::Punct, "{") => depth += 1,
                            (TokenKind::Punct, "}") => depth = depth.saturating_sub(1),
                            (TokenKind::Punct, ",") if depth == 0 => {
                                self.use_tree(part, k, &outer);
                                part = k + 1;
                            }
                            _ => {}
                        }
                    }
                    self.use_tree(part, close, &outer);
                    return;
                }
                (TokenKind::Punct, "*") => return, // glob — not tracked
                _ => {}
            }
            j += 1;
        }
        if let Some(last) = segs.last().cloned() {
            let mut full = prefix.to_vec();
            full.extend(segs);
            self.record_use(last, full);
        }
    }

    fn record_use(&mut self, alias: String, mut full: Vec<String>) {
        if alias == "self" {
            // `use a::b::{self}` — aliases the module name itself.
            if let Some(pos) = full.iter().rposition(|s| s == "self") {
                full.remove(pos);
            }
            if let Some(m) = full.last().cloned() {
                self.uses.insert(m, full);
            }
            return;
        }
        // Normalize a leading `crate::` to the owning crate's name so the
        // resolver treats both spellings identically.
        if full.first().map(String::as_str) == Some("crate") {
            full[0] = format!("eadrl_{}", self.crate_name);
        }
        self.uses.insert(alias, full);
    }

    /// `mod name { … }` or `mod name;`. `i` points at `mod`.
    fn mod_item(&mut self, i: usize, end: usize, module: &[String], ctx: &ImplCtx) -> usize {
        let Some(name) = self.toks.get(i + 1) else {
            return i + 1;
        };
        if name.kind != TokenKind::Ident {
            return i + 1;
        }
        let mut j = i + 2;
        while j < end {
            match (self.toks[j].kind, self.toks[j].text.as_str()) {
                (TokenKind::Punct, ";") => return j + 1,
                (TokenKind::Punct, "{") => {
                    let close = self.matching_brace(j, end);
                    let mut inner = module.to_vec();
                    inner.push(name.text.clone());
                    self.items(j + 1, close, &inner, ctx);
                    return close + 1;
                }
                _ => j += 1,
            }
        }
        j
    }

    /// `impl<…> [Trait for] Type { … }`. `i` points at `impl`.
    fn impl_item(&mut self, i: usize, end: usize, module: &[String]) -> usize {
        let mut j = i + 1;
        if j < end && self.toks[j].kind == TokenKind::Punct && self.toks[j].text == "<" {
            j = skip_angles(self.toks, j);
        }
        // Collect path idents until `{`, splitting on a `for` keyword.
        let mut before_for: Vec<String> = Vec::new();
        let mut after_for: Vec<String> = Vec::new();
        let mut saw_for = false;
        while j < end {
            let t = &self.toks[j];
            if t.kind == TokenKind::Punct && t.text == "{" {
                break;
            }
            if t.is_kw("for") {
                saw_for = true;
            } else if t.is_kw("where") {
                // `impl Trait for Type where …` — type idents are done.
                while j < end
                    && !(self.toks[j].kind == TokenKind::Punct && self.toks[j].text == "{")
                {
                    j += 1;
                }
                break;
            } else if t.kind == TokenKind::Punct && t.text == "<" {
                j = skip_angles(self.toks, j);
                continue;
            } else if t.kind == TokenKind::Ident && !KEYWORDS.contains(&t.text.as_str()) {
                if saw_for {
                    after_for.push(t.text.clone());
                } else {
                    before_for.push(t.text.clone());
                }
            }
            j += 1;
        }
        if j >= end {
            return end;
        }
        let close = self.matching_brace(j, end);
        // `impl Type` → type = last path ident; `impl Trait for Type` →
        // trait = last ident before `for`, type = first ident after.
        let (ty, trait_name) = if saw_for {
            (after_for.first().cloned(), before_for.last().cloned())
        } else {
            (before_for.last().cloned(), None)
        };
        let ctx = ImplCtx::Impl { ty, trait_name };
        self.items(j + 1, close, module, &ctx);
        close + 1
    }

    /// `trait Name { … }`. `i` points at `trait`.
    fn trait_item(&mut self, i: usize, end: usize, module: &[String]) -> usize {
        let Some(name) = self.toks.get(i + 1) else {
            return i + 1;
        };
        if name.kind != TokenKind::Ident {
            return i + 1;
        }
        let mut j = i + 2;
        while j < end && !(self.toks[j].kind == TokenKind::Punct && self.toks[j].text == "{") {
            if self.toks[j].kind == TokenKind::Punct && self.toks[j].text == ";" {
                return j + 1; // `trait Alias = …;` or malformed
            }
            j += 1;
        }
        if j >= end {
            return end;
        }
        let close = self.matching_brace(j, end);
        let ctx = ImplCtx::Trait(name.text.clone());
        self.items(j + 1, close, module, &ctx);
        close + 1
    }

    /// `struct Name<…> { field: Type, … }`: records each named field's
    /// `type_head`. Tuple and unit structs record nothing. `i` points
    /// at `struct`.
    fn struct_item(&mut self, i: usize, end: usize) -> usize {
        let Some(name) = self.toks.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
            return i + 1;
        };
        let mut j = i + 2;
        while j < end && !is_punct(&self.toks[j], "{") {
            if is_punct(&self.toks[j], "(") || is_punct(&self.toks[j], ";") {
                return j;
            }
            j = if is_punct(&self.toks[j], "<") {
                skip_angles(self.toks, j)
            } else {
                j + 1
            };
        }
        if j >= end {
            return end;
        }
        let close = self.matching_brace(j, end);
        let mut fields = BTreeMap::new();
        let (mut part, mut depth) = (j + 1, 0isize);
        for k in j + 1..=close {
            let t = &self.toks[k];
            match (t.kind, t.text.as_str()) {
                (TokenKind::Punct, "(" | "[" | "{" | "<") => depth += 1,
                (TokenKind::Punct, ")" | "]" | "}" | ">") => depth -= 1,
                (TokenKind::Op, "<<") => depth += 2,
                (TokenKind::Op, ">>") => depth -= 2,
                _ => {}
            }
            if k == close || (depth == 0 && is_punct(t, ",")) {
                // `[#[attr]] [pub(…)] name: Type` — the first `:` outside
                // brackets follows the field name.
                let colon = (part..k).find(|&c| is_punct(&self.toks[c], ":"));
                if let Some(c) = colon.filter(|&c| c > part) {
                    let ty = type_head(&self.toks[c + 1..k]);
                    fields.insert(self.toks[c - 1].text.clone(), ty);
                }
                part = k + 1;
            }
        }
        self.fields
            .entry(name.text.clone())
            .or_default()
            .extend(fields);
        close + 1
    }

    /// `const NAME: T = expr;` or `static [mut] NAME: T = expr;`: an
    /// `init` pseudo-fn owning the initializer's calls. Anything else
    /// (`const fn`, `const { … }`) is left to the item walk. `i` points
    /// at the keyword.
    fn init_item(&mut self, i: usize, end: usize, module: &[String], ctx: &ImplCtx) -> usize {
        let mut j = i + 1;
        if self.toks.get(j).is_some_and(|t| t.is_kw("mut")) {
            j += 1;
        }
        let named = self
            .toks
            .get(j)
            .is_some_and(|t| t.kind == TokenKind::Ident && !t.is_kw("fn"))
            && self.toks.get(j + 1).is_some_and(|t| is_punct(t, ":"));
        if !named {
            return i + 1;
        }
        // The item ends at the `;` outside brackets; the initializer
        // starts after the first `=` there (none: a trait-associated const).
        let (mut k, mut depth, mut eq) = (j + 2, 0usize, None);
        while k < end {
            match (self.toks[k].kind, self.toks[k].text.as_str()) {
                (TokenKind::Punct, "<") if eq.is_none() => {
                    k = skip_angles(self.toks, k);
                    continue;
                }
                (TokenKind::Punct, "(" | "[" | "{") => depth += 1,
                (TokenKind::Punct, ")" | "]" | "}") => depth = depth.saturating_sub(1),
                (TokenKind::Punct, "=") if depth == 0 && eq.is_none() => eq = Some(k),
                (TokenKind::Punct, ";") if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        if let Some(eq) = eq {
            let name = self.toks[j].text.clone();
            self.push_init(name, i, eq + 1, k, module, ctx);
        }
        k + 1
    }

    /// `macro_rules! name { … }`, or an invocation `name! { … }` in item
    /// position: an `init` pseudo-fn owning every call spelled in the
    /// braces. Workspace macros are not expanded where they are invoked,
    /// and an invocation's tokens outside fns (`#![proptest_config(…)]`)
    /// belong to no fn. Returns the `{`, so the item walk still visits
    /// items spelled inside. `i` points at the name before the `!`.
    fn macro_item(&mut self, i: usize, end: usize, module: &[String], ctx: &ImplCtx) -> usize {
        let defines = self.toks[i].is_kw("macro_rules");
        let (name, open) = if defines { (i + 2, i + 3) } else { (i, i + 2) };
        let shaped = self.toks.get(open).is_some_and(|t| is_punct(t, "{"))
            && self.toks[name].kind == TokenKind::Ident;
        if !shaped {
            return i + 1;
        }
        let close = self.matching_brace(open, end);
        let name = format!("{}!", self.toks[name].text);
        self.push_init(name, i, open + 1, close, module, ctx);
        open
    }

    /// Records an `init` pseudo-fn over the token range `[start, stop)`,
    /// declared by the keyword at `kw`.
    fn push_init(
        &mut self,
        name: String,
        kw: usize,
        start: usize,
        stop: usize,
        module: &[String],
        ctx: &ImplCtx,
    ) {
        let mut def = FnDef {
            in_trait_decl: false,
            init: true,
            end_line: self.toks[stop.min(self.toks.len() - 1)].line,
            ..self.new_def(name, kw, module, ctx)
        };
        extract_body(self.file, self.toks, start, stop, &mut def);
        self.fns.push(def);
    }

    /// A bodied, private item named `name` whose keyword is token `kw`,
    /// inside module `module` and impl context `ctx`.
    fn new_def(&self, name: String, kw: usize, module: &[String], ctx: &ImplCtx) -> FnDef {
        let (self_type, trait_impl, in_trait_decl) = match ctx {
            ImplCtx::None => (None, None, false),
            ImplCtx::Impl { ty, trait_name } => (ty.clone(), trait_name.clone(), false),
            ImplCtx::Trait(t) => (Some(t.clone()), None, true),
        };
        let line = self.toks[kw].line;
        FnDef {
            name,
            module: module.to_vec(),
            self_type,
            trait_impl,
            in_trait_decl,
            has_body: true,
            is_pub: false,
            line,
            end_line: line,
            is_test: self.file.in_test_code(line),
            init: false,
            calls: Vec::new(),
            sites: Vec::new(),
        }
    }

    /// `fn name(…) -> T { … }` or `fn name(…);`. `i` points at `fn`.
    fn fn_item(&mut self, i: usize, end: usize, module: &[String], ctx: &ImplCtx) -> usize {
        let Some(name) = self.toks.get(i + 1) else {
            return i + 1;
        };
        if name.kind != TokenKind::Ident {
            // `fn(…)` pointer type — not an item.
            return i + 1;
        }
        // Signature runs to the body `{` or a terminating `;`, tracking
        // paren depth (param lists, `Fn(…)` bounds) and generics.
        let mut j = i + 2;
        let mut paren: isize = 0;
        let mut body_open = None;
        while j < end {
            let t = &self.toks[j];
            match (t.kind, t.text.as_str()) {
                (TokenKind::Punct, "(") => paren += 1,
                (TokenKind::Punct, ")") => paren -= 1,
                (TokenKind::Punct, "<") if paren == 0 => {
                    j = skip_angles(self.toks, j);
                    continue;
                }
                (TokenKind::Punct, "{") if paren == 0 => {
                    body_open = Some(j);
                    break;
                }
                (TokenKind::Punct, ";") if paren == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let line = self.toks[i].line;
        let mut def = FnDef {
            has_body: body_open.is_some(),
            is_pub: self.fn_is_pub(i) || matches!(ctx, ImplCtx::Trait(_)),
            ..self.new_def(name.text.clone(), i, module, ctx)
        };
        let next = match body_open {
            Some(open) => {
                let close = self.matching_brace(open, end);
                def.end_line = self.toks[close.min(self.toks.len() - 1)].line;
                extract_body(self.file, self.toks, open + 1, close, &mut def);
                // Nested items (incl. nested fns) inside the body.
                self.items(open + 1, close, module, &ImplCtx::None);
                close + 1
            }
            None => {
                def.end_line = self.toks.get(j).map_or(line, |t| t.line);
                j + 1
            }
        };
        self.fns.push(def);
        next
    }

    /// Looks backward from the `fn` keyword across modifiers
    /// (`pub(crate) const unsafe extern "C" async`) for a `pub`.
    fn fn_is_pub(&self, fn_idx: usize) -> bool {
        let mut k = fn_idx;
        while k > 0 {
            let t = &self.toks[k - 1];
            let modifier = matches!(t.kind, TokenKind::Str)
                || (t.kind == TokenKind::Punct && (t.text == "(" || t.text == ")"))
                || (t.kind == TokenKind::Ident
                    && matches!(
                        t.text.as_str(),
                        "pub"
                            | "const"
                            | "unsafe"
                            | "extern"
                            | "async"
                            | "crate"
                            | "in"
                            | "super"
                            | "self"
                    ));
            if !modifier {
                return false;
            }
            if t.is_kw("pub") {
                return true;
            }
            k -= 1;
        }
        false
    }
}

/// Removes, from each fn, the calls/sites whose lines fall inside a
/// *nested* fn's span (they belong to the nested fn, which collected
/// them itself). An `init` inside a fn shares its calls with the fn.
fn strip_nested(fns: &mut [FnDef]) {
    let spans: Vec<(usize, usize, usize)> = fns
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.init)
        .map(|(i, f)| (i, f.line, f.end_line))
        .collect();
    for (i, f) in fns.iter_mut().enumerate() {
        let (line, end) = (f.line, f.end_line);
        let nested: Vec<(usize, usize)> = spans
            .iter()
            .filter(|&&(j, l, e)| j != i && l > line && e <= end)
            .map(|&(_, l, e)| (l, e))
            .collect();
        if nested.is_empty() {
            continue;
        }
        let inside = |l: usize| nested.iter().any(|&(a, b)| l >= a && l <= b);
        f.calls.retain(|c| !inside(c.line));
        f.sites.retain(|s| !inside(s.line));
    }
}

/// Scans a fn body's token range for call sites and intrinsic sites.
fn extract_body(file: &SourceFile, toks: &[Token], start: usize, end: usize, def: &mut FnDef) {
    let mut i = start;
    while i < end.min(toks.len()) {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || (KEYWORDS.contains(&t.text.as_str()) && !t.raw) {
            // Bare taint idents are interesting even outside call position.
            i += 1;
            continue;
        }
        let line = t.line;
        // Hash collections: any mention in a body is a nondeterminism
        // source (mirrors the line-level rule).
        if t.text == "HashMap" || t.text == "HashSet" {
            def.sites.push(Site {
                kind: SiteKind::Taint,
                what: t.text.clone(),
                line,
                allowed: taint_allowed(file, line),
            });
            i += 1;
            continue;
        }
        // Macro invocation `name!(…)`.
        if matches!(toks.get(i + 1), Some(n) if n.kind == TokenKind::Punct && n.text == "!")
            && matches!(
                toks.get(i + 2),
                Some(n) if n.kind == TokenKind::Punct && (n.text == "(" || n.text == "[" || n.text == "{")
            )
        {
            let name = t.text.clone();
            if PANIC_MACROS.contains(&name.as_str()) {
                def.sites.push(Site {
                    kind: SiteKind::Panic,
                    what: format!("{name}!"),
                    line,
                    allowed: panic_allowed(file, line),
                });
            } else if ALLOC_MACROS.contains(&name.as_str()) {
                def.sites.push(Site {
                    kind: SiteKind::Alloc,
                    what: format!("{name}!"),
                    line,
                    allowed: alloc_allowed(file, line),
                });
            } else {
                def.calls.push(CallSite {
                    kind: CallKind::Macro { name },
                    line,
                });
            }
            i += 3;
            continue;
        }
        // Assemble the full `a::b::name` path ending at this ident.
        let mut segments = vec![t.text.clone()];
        {
            let mut k = i;
            while k >= 2
                && matches!(toks.get(k - 1), Some(p) if p.kind == TokenKind::Op && p.text == "::")
                && matches!(toks.get(k - 2), Some(p) if p.kind == TokenKind::Ident)
            {
                segments.insert(0, toks[k - 2].text.clone());
                k -= 2;
            }
        }
        // Call position: `(` directly after, or after a turbofish.
        let mut after = i + 1;
        if matches!(toks.get(after), Some(n) if n.kind == TokenKind::Op && n.text == "::")
            && matches!(toks.get(after + 1), Some(n) if n.kind == TokenKind::Punct && n.text == "<")
        {
            after = skip_angles(toks, after + 1);
        }
        let is_call =
            matches!(toks.get(after), Some(n) if n.kind == TokenKind::Punct && n.text == "(");
        let is_method = segments.len() == 1
            && matches!(toks.get(i.wrapping_sub(1)), Some(p) if p.kind == TokenKind::Punct && p.text == ".");
        let name = t.text.as_str();

        if is_call && is_method {
            if PANIC_METHODS.contains(&name) {
                def.sites.push(Site {
                    kind: SiteKind::Panic,
                    what: format!(".{name}()"),
                    line,
                    allowed: panic_allowed(file, line),
                });
            } else {
                if ALLOC_METHODS.contains(&name) {
                    def.sites.push(Site {
                        kind: SiteKind::Alloc,
                        what: format!(".{name}()"),
                        line,
                        allowed: alloc_allowed(file, line),
                    });
                }
                // The receiver `self.<a>.<b>…`, walked back from the `.`
                // before `name` to a `self` that starts the expression.
                let (mut chain, mut dot) = (Vec::new(), i - 1);
                let recv = loop {
                    let Some(t) = dot.checked_sub(1).map(|k| &toks[k]) else {
                        break None;
                    };
                    if t.is_kw("self") {
                        let starts = dot < 2
                            || !(is_punct(&toks[dot - 2], ".") || toks[dot - 2].text == "::");
                        chain.reverse();
                        break starts.then_some(chain);
                    }
                    if t.kind != TokenKind::Ident || dot < 2 || !is_punct(&toks[dot - 2], ".") {
                        break None;
                    }
                    chain.push(t.text.clone());
                    dot -= 2;
                };
                def.calls.push(CallSite {
                    kind: CallKind::Method {
                        name: name.to_string(),
                        recv,
                    },
                    line,
                });
            }
            i = after + 1;
            continue;
        }

        if segments.len() >= 2 {
            let pen = segments[segments.len() - 2].as_str();
            let last = segments[segments.len() - 1].as_str();
            // Clock / thread-id taint sources.
            if (pen == "Instant" || pen == "SystemTime") && last == "now" {
                def.sites.push(Site {
                    kind: SiteKind::Taint,
                    what: format!("{pen}::now"),
                    line,
                    allowed: taint_allowed(file, line),
                });
                i = after + 1;
                continue;
            }
            if pen == "thread" && last == "current" {
                def.sites.push(Site {
                    kind: SiteKind::Taint,
                    what: "thread::current".to_string(),
                    line,
                    allowed: taint_allowed(file, line),
                });
                i = after + 1;
                continue;
            }
            // Allocating constructors.
            if is_call && ALLOC_PATHS.contains(&(pen, last)) {
                def.sites.push(Site {
                    kind: SiteKind::Alloc,
                    what: format!("{pen}::{last}"),
                    line,
                    allowed: alloc_allowed(file, line),
                });
                i = after + 1;
                continue;
            }
        }

        if is_call || segments.len() >= 2 {
            // A direct call, or a multi-segment path used as a function
            // value (`par_map(xs, Self::step)`). Single-segment non-call
            // idents are far too noisy to treat as references.
            def.calls.push(CallSite {
                kind: CallKind::Path { segments },
                line,
            });
        }
        i = after.max(i + 1);
    }
}

fn panic_allowed(file: &SourceFile, line: usize) -> bool {
    file.allows(line, "no-unwrap-in-lib") || file.allows(line, "panic-reachable")
}

fn alloc_allowed(file: &SourceFile, line: usize) -> bool {
    file.allows(line, "hot-path-alloc")
}

fn taint_allowed(file: &SourceFile, line: usize) -> bool {
    file.allows(line, "determinism") || file.allows(line, "determinism-taint")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(path: &str, src: &str) -> FileAst {
        parse_file(&SourceFile::parse(path, src))
    }

    #[test]
    fn items_and_modules_are_tracked() {
        let src = "pub fn top() {}\nmod inner {\n    fn nested_free() {}\n    mod deeper { pub fn deep() {} }\n}\n";
        let ast = parse("crates/core/src/lib.rs", src);
        let names: Vec<(String, Vec<String>)> = ast
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.module.clone()))
            .collect();
        assert!(names.contains(&("top".into(), vec![])));
        assert!(names.contains(&("nested_free".into(), vec!["inner".into()])));
        assert!(names.contains(&("deep".into(), vec!["inner".into(), "deeper".into()])));
        assert!(ast.fns.iter().find(|f| f.name == "top").unwrap().is_pub);
        assert!(
            !ast.fns
                .iter()
                .find(|f| f.name == "nested_free")
                .unwrap()
                .is_pub
        );
    }

    #[test]
    fn impl_blocks_attach_self_type_and_trait() {
        let src = "struct Foo;\nimpl Foo { pub fn m(&self) {} }\nimpl Clone for Foo { fn clone(&self) -> Foo { Foo } }\n";
        let ast = parse("crates/core/src/x.rs", src);
        let m = ast.fns.iter().find(|f| f.name == "m").unwrap();
        assert_eq!(m.self_type.as_deref(), Some("Foo"));
        assert_eq!(m.trait_impl, None);
        let c = ast.fns.iter().find(|f| f.name == "clone").unwrap();
        assert_eq!(c.self_type.as_deref(), Some("Foo"));
        assert_eq!(c.trait_impl.as_deref(), Some("Clone"));
    }

    #[test]
    fn generic_impl_headers_parse() {
        let src = "impl<'a, T: Iterator<Item = Vec<u8>>> Wrapper<'a, T> { fn g(&self) { helper() } }\nfn helper() {}\n";
        let ast = parse("crates/core/src/x.rs", src);
        let g = ast.fns.iter().find(|f| f.name == "g").unwrap();
        assert_eq!(g.self_type.as_deref(), Some("Wrapper"));
        assert!(g.calls.iter().any(|c| c.kind
            == CallKind::Path {
                segments: vec!["helper".into()]
            }));
    }

    #[test]
    fn trait_decls_record_signatures_and_default_bodies() {
        let src = "trait Model {\n    fn fit(&mut self);\n    fn describe(&self) -> String { format!(\"m\") }\n}\n";
        let ast = parse("crates/models/src/x.rs", src);
        let fit = ast.fns.iter().find(|f| f.name == "fit").unwrap();
        assert!(fit.in_trait_decl && !fit.has_body && fit.is_pub);
        assert_eq!(fit.self_type.as_deref(), Some("Model"));
        let desc = ast.fns.iter().find(|f| f.name == "describe").unwrap();
        assert!(desc.has_body);
        assert!(desc
            .sites
            .iter()
            .any(|s| s.kind == SiteKind::Alloc && s.what == "format!"));
    }

    #[test]
    fn call_sites_cover_methods_paths_and_turbofish() {
        let src = "fn f(xs: &[u64]) {\n    helper();\n    kernels::gemm(1);\n    Matrix::zeros(2, 2);\n    xs.iter().collect::<Vec<_>>();\n    obj.predict(3);\n}\n";
        let ast = parse("crates/core/src/x.rs", src);
        let f = &ast.fns[0];
        let has_path = |segs: &[&str]| {
            f.calls.iter().any(|c| {
                c.kind
                    == CallKind::Path {
                        segments: segs.iter().map(|s| s.to_string()).collect(),
                    }
            })
        };
        assert!(has_path(&["helper"]));
        assert!(has_path(&["kernels", "gemm"]));
        assert!(has_path(&["Matrix", "zeros"]));
        assert!(f.calls.iter().any(
            |c| matches!(&c.kind, CallKind::Method { name, recv: None } if name == "predict")
        ));
        // `.collect::<Vec<_>>()` is an alloc site *and* a method call.
        assert!(f
            .sites
            .iter()
            .any(|s| s.kind == SiteKind::Alloc && s.what == ".collect()"));
    }

    #[test]
    fn method_calls_on_self_carry_the_field_chain() {
        let src = "impl A { fn f(&mut self) {\n\
                   \x20   self.step(); self.opt.step(); self.a.b.step();\n\
                   \x20   other.step(); other.self_.step(); x.a.step();\n} }\n";
        let ast = parse("crates/core/src/x.rs", src);
        let chains: Vec<Option<Vec<String>>> = ast.fns[0]
            .calls
            .iter()
            .filter_map(|c| match &c.kind {
                CallKind::Method { recv, .. } => Some(recv.clone()),
                _ => None,
            })
            .collect();
        let chain = |c: &[&str]| Some(c.iter().map(|s| s.to_string()).collect());
        assert_eq!(
            chains,
            vec![
                chain(&[]),
                chain(&["opt"]),
                chain(&["a", "b"]),
                None,
                None,
                None
            ]
        );
    }

    #[test]
    fn struct_fields_record_type_heads() {
        let src = "pub struct A<'a, F> {\n    pub opt: eadrl_nn::Adam,\n    pool: Vec<Box<dyn Forecaster>>,\n\
                   \x20   model: Box<dyn Forecaster + Send>,\n    xs: &'a [f64],\n\
                   \x20   #[allow(dead_code)]\n    pub(crate) inner: F,\n}\npub struct T(u8);\n";
        let ast = parse("crates/core/src/x.rs", src);
        let f = &ast.fields["A"];
        let heads: Vec<(&str, &str)> = f.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        assert_eq!(
            heads,
            [
                ("inner", "F"),
                ("model", "Forecaster"),
                ("opt", "Adam"),
                ("pool", "Vec"),
                ("xs", "[]")
            ]
        );
        assert!(!ast.fields.contains_key("T"));
    }

    #[test]
    fn const_static_and_macro_bodies_become_init_roots() {
        let src = "const GATES: [Gate; 2] = [Gate::at_most(1), Gate::within(2)];\n\
                   const fn limit() -> u32 { 3 }\n\
                   macro_rules! run { () => { $crate::runner::go() }; }\n\
                   proptest! {\n    #![proptest_config(Config::with_cases(8))]\n\
                   \x20   fn law(x in 0..1) { check(x); }\n}\n";
        let ast = parse("crates/bench/benches/x.rs", src);
        let init = |name: &str| {
            ast.fns
                .iter()
                .find(|f| f.init && f.name == name)
                .unwrap_or_else(|| panic!("no init {name}"))
        };
        let calls = |name: &str| -> Vec<Vec<String>> {
            init(name)
                .calls
                .iter()
                .filter_map(|c| match &c.kind {
                    CallKind::Path { segments } => Some(segments.clone()),
                    _ => None,
                })
                .collect()
        };
        assert!(calls("GATES").contains(&vec!["Gate".into(), "within".into()]));
        assert!(calls("run!").contains(&vec!["crate".into(), "runner".into(), "go".into()]));
        assert!(calls("proptest!").contains(&vec!["Config".into(), "with_cases".into()]));
        // The fn spelled inside the invocation owns its own calls, and a
        // `const fn` is a fn.
        assert!(!calls("proptest!").contains(&vec!["check".into()]));
        assert!(ast.fns.iter().any(|f| f.name == "limit" && !f.init));
    }

    #[test]
    fn closures_attribute_calls_to_enclosing_fn() {
        let src = "fn outer(xs: Vec<u64>) {\n    par_map(xs, |x| inner(x));\n}\nfn inner(x: u64) -> u64 { x }\n";
        let ast = parse("crates/core/src/x.rs", src);
        let outer = ast.fns.iter().find(|f| f.name == "outer").unwrap();
        assert!(outer.calls.iter().any(|c| c.kind
            == CallKind::Path {
                segments: vec!["inner".into()]
            }));
    }

    #[test]
    fn nested_fns_own_their_call_sites() {
        let src = "fn outer() {\n    fn nested() { danger(); }\n    nested();\n}\nfn danger() {}\n";
        let ast = parse("crates/core/src/x.rs", src);
        let outer = ast.fns.iter().find(|f| f.name == "outer").unwrap();
        let nested = ast.fns.iter().find(|f| f.name == "nested").unwrap();
        assert!(nested.calls.iter().any(|c| c.kind
            == CallKind::Path {
                segments: vec!["danger".into()]
            }));
        assert!(!outer.calls.iter().any(|c| c.kind
            == CallKind::Path {
                segments: vec!["danger".into()]
            }));
        assert!(outer.calls.iter().any(|c| c.kind
            == CallKind::Path {
                segments: vec!["nested".into()]
            }));
    }

    #[test]
    fn intrinsic_sites_with_allow_markers() {
        let src = "fn f(v: Option<u8>) {\n    v.unwrap();\n    v.unwrap(); // eadrl-lint: allow(no-unwrap-in-lib): guarded above\n    let t = Instant::now();\n    let m: HashMap<u8, u8>;\n}\n";
        let ast = parse("crates/core/src/x.rs", src);
        let f = &ast.fns[0];
        let panics: Vec<_> = f
            .sites
            .iter()
            .filter(|s| s.kind == SiteKind::Panic)
            .collect();
        assert_eq!(panics.len(), 2);
        assert!(!panics[0].allowed);
        assert!(panics[1].allowed);
        assert!(f
            .sites
            .iter()
            .any(|s| s.kind == SiteKind::Taint && s.what == "Instant::now"));
        assert!(f
            .sites
            .iter()
            .any(|s| s.kind == SiteKind::Taint && s.what == "HashMap"));
    }

    #[test]
    fn use_map_resolves_aliases_groups_and_crate_prefix() {
        let src = "use eadrl_linalg::kernels;\nuse crate::util::{helper, other as o};\nuse std::collections::BTreeMap;\n";
        let ast = parse("crates/core/src/x.rs", src);
        assert_eq!(
            ast.uses.get("kernels"),
            Some(&vec!["eadrl_linalg".to_string(), "kernels".to_string()])
        );
        assert_eq!(
            ast.uses.get("helper"),
            Some(&vec![
                "eadrl_core".to_string(),
                "util".to_string(),
                "helper".to_string()
            ])
        );
        assert_eq!(
            ast.uses.get("o"),
            Some(&vec![
                "eadrl_core".to_string(),
                "util".to_string(),
                "other".to_string()
            ])
        );
    }

    #[test]
    fn raw_identifiers_do_not_derail_items() {
        let src = "fn f() { let r#fn = 1; let r#type = r#fn + 1; g(r#type); }\nfn g(x: i32) {}\n";
        let ast = parse("crates/core/src/x.rs", src);
        assert_eq!(ast.fns.len(), 2, "r#fn must not open a phantom item");
        assert!(ast.fns[0].calls.iter().any(|c| c.kind
            == CallKind::Path {
                segments: vec!["g".into()]
            }));
    }

    #[test]
    fn crate_attribution_prefers_last_crates_segment() {
        assert_eq!(
            crate_of("crates/lint/tests/fixtures/deep_bad/crates/mini/src/lib.rs"),
            ("mini".to_string(), true)
        );
        assert_eq!(crate_of("crates/nn/src/dense.rs"), ("nn".to_string(), true));
        assert_eq!(
            crate_of("crates/nn/tests/alloc.rs"),
            ("nn".to_string(), false)
        );
        assert_eq!(crate_of("src/lib.rs"), ("eadrl".to_string(), true));
        assert_eq!(
            crate_of("crates/lint/src/main.rs"),
            ("lint".to_string(), false)
        );
    }
}
