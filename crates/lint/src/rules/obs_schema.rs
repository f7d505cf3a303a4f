//! `obs-event-schema`: the telemetry contract in `DESIGN.md` is
//! machine-checked.
//!
//! PR 1 introduced a documented schema for every `eadrl_obs` event and
//! span name ("Telemetry event schema" table in `DESIGN.md`). This rule
//! extracts the string literal passed to `eadrl_obs::{event, event_with,
//! warn, span, span_at}` call-sites and validates the dotted name
//! against that table, so adding an event without documenting it — or
//! typo-ing `eadrl.onlien.drift` — fails CI instead of silently
//! producing a trace `obs_report check --schema` can't account for.

use crate::lexer::TokenKind;
use crate::rules::{Finding, LintContext, Rule};
use crate::source::SourceFile;

// The schema parser/matcher itself lives in `eadrl-obs` (`eadrl_obs::schema`)
// so the trace checker (`obs_report check --schema`) shares it without
// depending on the linter; this rule consumes it.
pub use eadrl_obs::schema::ObsSchema;

/// Functions in `eadrl_obs` whose first string-literal argument is an
/// event/span name.
const EMITTERS: &[&str] = &["event", "event_with", "warn", "span", "span_at"];

/// See module docs.
pub struct ObsEventSchema;

impl Rule for ObsEventSchema {
    fn name(&self) -> &'static str {
        "obs-event-schema"
    }

    fn description(&self) -> &'static str {
        "event names passed to eadrl_obs emitters must appear in DESIGN.md's telemetry schema table"
    }

    fn check(&self, file: &SourceFile, ctx: &LintContext, out: &mut Vec<Finding>) {
        // The obs crate itself builds arbitrary names (tests, validator);
        // the contract binds the *emitting* crates.
        if file.in_any(&["crates/obs/", "crates/lint/"]) {
            return;
        }
        let Some(schema) = &ctx.schema else {
            return;
        };
        let toks = &file.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident || t.text != "eadrl_obs" || file.in_test_code(t.line) {
                continue;
            }
            let coloncolon = matches!(
                toks.get(i + 1),
                Some(n) if n.kind == TokenKind::Op && n.text == "::"
            );
            let Some(func) = toks.get(i + 2) else {
                continue;
            };
            if !coloncolon || func.kind != TokenKind::Ident {
                continue;
            }
            if !EMITTERS.contains(&func.text.as_str()) {
                continue;
            }
            if !matches!(
                toks.get(i + 3),
                Some(p) if p.kind == TokenKind::Punct && p.text == "("
            ) {
                continue;
            }
            // First string literal at argument depth 1 is the name (for
            // span_at it follows the Level argument).
            let mut depth = 1usize;
            let mut j = i + 4;
            let mut found = None;
            while let Some(tok) = toks.get(j) {
                match (tok.kind, tok.text.as_str()) {
                    (TokenKind::Punct, "(" | "[" | "{") => depth += 1,
                    (TokenKind::Punct, ")" | "]" | "}") => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    (TokenKind::Str, _) if depth == 1 => {
                        found = Some(tok);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            if let Some(name_tok) = found {
                if !schema.matches(&name_tok.text) {
                    out.push(Finding {
                        rule: self.name(),
                        path: file.rel_path.clone(),
                        line: name_tok.line,
                        message: format!(
                            "event name \"{}\" is not in DESIGN.md's telemetry schema table — document it there or fix the typo",
                            name_tok.text
                        ),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Parser/matcher behaviour is tested where the type lives
    // (`eadrl_obs::schema`); this pins the re-export.
    #[test]
    fn reexported_schema_type_works() {
        let s = ObsSchema::from_patterns(&["a.b", "x.*.skipped"]);
        assert!(s.matches("a.b"));
        assert!(s.matches("x.two.deep.skipped"));
        assert!(!s.matches("a.b.c"));
    }
}
