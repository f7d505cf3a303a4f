//! The telemetry name schema: the machine-readable form of DESIGN.md's
//! "Telemetry event schema" table.
//!
//! One table, two consumers: `eadrl-lint` validates emitter call-sites
//! at review time, and `obs_report check --schema` validates a captured
//! trace after a run. [`ObsSchema`] lives here (rather than in the lint
//! crate, where it originated) so the trace checker doesn't need a
//! dependency on the linter.

/// The event-name schema: one pattern per documented name; `*` matches
/// one or more dot-separated segments (`eadrl.*.skipped`).
#[derive(Debug, Clone, Default)]
pub struct ObsSchema {
    patterns: Vec<Vec<String>>,
}

impl ObsSchema {
    /// Parses the "Telemetry event schema" markdown table out of
    /// `DESIGN.md` text. Names come from the first column; comma-
    /// separated cells list several names for one row.
    pub fn from_design_md(md: &str) -> Option<ObsSchema> {
        let mut patterns = Vec::new();
        let mut in_section = false;
        for line in md.lines() {
            if line.starts_with('#') {
                in_section = line.to_lowercase().contains("telemetry event schema");
                continue;
            }
            if !in_section || !line.trim_start().starts_with('|') {
                continue;
            }
            let first_cell = line.trim_start().trim_start_matches('|');
            let Some(cell) = first_cell.split('|').next() else {
                continue;
            };
            for raw in cell.split(',') {
                let name = raw.trim().trim_matches('`').trim();
                // Keep only dotted identifiers (skips the header row and
                // separator rows like `|---|`).
                if !name.is_empty()
                    && name.contains('.')
                    && name
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._*".contains(c))
                {
                    patterns.push(name.split('.').map(str::to_string).collect());
                }
            }
        }
        if patterns.is_empty() {
            None
        } else {
            Some(ObsSchema { patterns })
        }
    }

    /// A schema from explicit patterns (for tests).
    pub fn from_patterns(names: &[&str]) -> ObsSchema {
        ObsSchema {
            patterns: names
                .iter()
                .map(|n| n.split('.').map(str::to_string).collect())
                .collect(),
        }
    }

    /// True when `name` matches a documented pattern. `*` matches one or
    /// more consecutive segments, so `eadrl.*.skipped` covers both
    /// `eadrl.warm_up.skipped` and `eadrl.online.refresh.skipped`.
    pub fn matches(&self, name: &str) -> bool {
        fn seg_match(pat: &[String], segs: &[&str]) -> bool {
            match (pat.first(), segs.first()) {
                (None, None) => true,
                (Some(p), Some(_)) if p == "*" => {
                    (1..=segs.len()).any(|k| seg_match(&pat[1..], &segs[k..]))
                }
                (Some(p), Some(s)) if p == s => seg_match(&pat[1..], &segs[1..]),
                _ => false,
            }
        }
        let segs: Vec<&str> = name.split('.').collect();
        self.patterns.iter().any(|pat| seg_match(pat, &segs))
    }

    /// True when every `/`-separated segment of a span path matches (a
    /// span event's wire name is its full path, but the schema documents
    /// the per-span names). Non-span names have one segment, so this is
    /// [`ObsSchema::matches`] for them.
    pub fn matches_path(&self, path: &str) -> bool {
        path.split('/').all(|seg| self.matches(seg))
    }

    /// Number of documented name patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True when no patterns were parsed.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_schema_from_markdown_table() {
        let md = "\
# Design

### Telemetry event schema

| Name | Kind |
|---|---|
| `a.b`, `c.d.e` | event |
| `x.*.skipped` | event |

### Next section

| `not.me` | event |
";
        let s = ObsSchema::from_design_md(md).expect("schema parses");
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(s.matches("a.b"));
        assert!(s.matches("c.d.e"));
        assert!(s.matches("x.anything.skipped"));
        assert!(s.matches("x.two.deep.skipped"));
        assert!(!s.matches("not.me"));
        assert!(!s.matches("a.b.c"));
    }

    #[test]
    fn matches_path_checks_every_span_segment() {
        let s = ObsSchema::from_patterns(&["a.b", "c.d"]);
        assert!(s.matches_path("a.b"));
        assert!(s.matches_path("a.b/c.d"));
        assert!(s.matches_path("a.b/c.d/a.b"));
        assert!(!s.matches_path("a.b/nope.c"));
    }
}
