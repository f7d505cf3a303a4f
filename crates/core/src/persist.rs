//! Persistence of trained combination policies.
//!
//! EA-DRL's whole deployment story is "train offline, ship the policy
//! network" — so the policy must survive a process restart. A
//! [`PolicySnapshot`] captures everything needed to rebuild the deployed
//! actor (topology, squash, parameters) in a small, dependency-free text
//! format. Parameters are stored as hexadecimal `f64` bit patterns, so
//! the round trip is bit-exact.

use eadrl_rl::ActionSquash;
use std::io::{BufRead, BufReader, Read, Write};

/// A serializable snapshot of a trained EA-DRL actor.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySnapshot {
    /// State window length ω.
    pub omega: usize,
    /// Action dimension (pool size m).
    pub action_dim: usize,
    /// Hidden-layer sizes of the actor MLP.
    pub hidden: Vec<usize>,
    /// Output map.
    pub squash: ActionSquash,
    /// Flat actor parameters (see `eadrl_nn::Network::flat_params`).
    pub params: Vec<f64>,
    /// The deployed policy's current state window (so a restored policy
    /// resumes exactly where the saved one stopped).
    pub window: Vec<f64>,
}

/// Errors while reading a snapshot.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem in the snapshot text.
    Format(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Format(msg) => write!(f, "snapshot format error: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

const MAGIC: &str = "eadrl-policy v1";

fn squash_tag(squash: ActionSquash) -> String {
    match squash {
        ActionSquash::Identity => "identity".to_string(),
        ActionSquash::Tanh => "tanh".to_string(),
        ActionSquash::Softmax => "softmax".to_string(),
        ActionSquash::BoundedSoftmax { scale } => {
            format!("bounded:{:x}", scale.to_bits())
        }
    }
}

fn parse_squash(tag: &str) -> Result<ActionSquash, PersistError> {
    match tag {
        "identity" => Ok(ActionSquash::Identity),
        "tanh" => Ok(ActionSquash::Tanh),
        "softmax" => Ok(ActionSquash::Softmax),
        other => {
            if let Some(hex) = other.strip_prefix("bounded:") {
                let bits = u64::from_str_radix(hex, 16)
                    .map_err(|_| PersistError::Format(format!("bad squash scale {hex:?}")))?;
                Ok(ActionSquash::BoundedSoftmax {
                    scale: f64::from_bits(bits),
                })
            } else {
                Err(PersistError::Format(format!("unknown squash {other:?}")))
            }
        }
    }
}

fn write_floats<W: Write>(writer: &mut W, label: &str, values: &[f64]) -> std::io::Result<()> {
    write!(writer, "{label} {}", values.len())?;
    for v in values {
        write!(writer, " {:x}", v.to_bits())?;
    }
    writeln!(writer)
}

/// Parses a `label count value…` line, each value with `parse`.
fn parse_list<T>(
    line: &str,
    label: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, PersistError> {
    let mut parts = line.split_whitespace();
    let got = parts.next().unwrap_or_default();
    if got != label {
        return Err(PersistError::Format(format!(
            "expected {label:?} line, got {got:?}"
        )));
    }
    let count: usize = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| PersistError::Format(format!("{label}: bad count")))?;
    let values: Option<Vec<T>> = parts.map(parse).collect();
    let values = values.ok_or_else(|| PersistError::Format(format!("{label}: bad value")))?;
    if values.len() != count {
        return Err(PersistError::Format(format!(
            "{label}: expected {count} values, found {}",
            values.len()
        )));
    }
    Ok(values)
}

fn parse_floats(line: &str, label: &str) -> Result<Vec<f64>, PersistError> {
    parse_list(line, label, |hex| {
        u64::from_str_radix(hex, 16).ok().map(f64::from_bits)
    })
}

/// Parameter count (`in·out + out` per layer) of the actor MLP
/// `[omega, hidden…, action_dim]`, in checked arithmetic so that a huge
/// size is an error, not a sizing; `None` for a zero size or on overflow.
fn actor_param_count(omega: usize, hidden: &[usize], action_dim: usize) -> Option<usize> {
    if omega == 0 || action_dim == 0 || hidden.contains(&0) {
        return None;
    }
    let fan_in = std::iter::once(omega).chain(hidden.iter().copied());
    let fan_out = hidden.iter().copied().chain([action_dim]);
    fan_in.zip(fan_out).try_fold(0usize, |n, (i, o)| {
        n.checked_add(i.checked_mul(o)?.checked_add(o)?)
    })
}

impl PolicySnapshot {
    /// Writes the snapshot in the v1 text format.
    pub fn write<W: Write>(&self, mut writer: W) -> Result<(), PersistError> {
        writeln!(writer, "{MAGIC}")?;
        writeln!(writer, "omega {}", self.omega)?;
        writeln!(writer, "action_dim {}", self.action_dim)?;
        write!(writer, "hidden {}", self.hidden.len())?;
        for h in &self.hidden {
            write!(writer, " {h}")?;
        }
        writeln!(writer)?;
        writeln!(writer, "squash {}", squash_tag(self.squash))?;
        write_floats(&mut writer, "params", &self.params)?;
        write_floats(&mut writer, "window", &self.window)?;
        Ok(())
    }

    /// Reads a snapshot written by [`PolicySnapshot::write`]. A snapshot
    /// whose `params` do not fit its actor topology is a
    /// [`PersistError::Format`], so `EaDrlPolicy::restore` accepts it all.
    pub fn read<R: Read>(reader: R) -> Result<Self, PersistError> {
        let mut lines = BufReader::new(reader).lines();
        let mut next = |what: &str| -> Result<String, PersistError> {
            lines
                .next()
                .ok_or_else(|| PersistError::Format(format!("missing {what} line")))?
                .map_err(PersistError::Io)
        };
        let magic = next("magic")?;
        if magic.trim() != MAGIC {
            return Err(PersistError::Format(format!(
                "bad magic {magic:?}, expected {MAGIC:?}"
            )));
        }
        let parse_usize_line = |line: String, label: &str| -> Result<usize, PersistError> {
            let mut parts = line.split_whitespace();
            if parts.next() != Some(label) {
                return Err(PersistError::Format(format!("expected {label} line")));
            }
            parts
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| PersistError::Format(format!("{label}: bad value")))
        };
        let omega = parse_usize_line(next("omega")?, "omega")?;
        let action_dim = parse_usize_line(next("action_dim")?, "action_dim")?;
        let hidden = parse_list(&next("hidden")?, "hidden", |v| v.parse().ok())?;
        let squash_line = next("squash")?;
        let tag = squash_line
            .strip_prefix("squash ")
            .ok_or_else(|| PersistError::Format("expected squash line".into()))?;
        let squash = parse_squash(tag.trim())?;
        let Some(expected) = actor_param_count(omega, &hidden, action_dim) else {
            let bad = format!("actor [{omega}, {hidden:?}, {action_dim}]");
            let msg = format!("{bad} has a zero size or too many parameters");
            return Err(PersistError::Format(msg));
        };
        let params = parse_floats(&next("params")?, "params")?;
        if params.len() != expected {
            let found = params.len();
            let msg = format!("params: the actor needs {expected} values, found {found}");
            return Err(PersistError::Format(msg));
        }
        let window = parse_floats(&next("window")?, "window")?;
        Ok(PolicySnapshot {
            omega,
            action_dim,
            hidden,
            squash,
            params,
            window,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A valid snapshot: the actor `[2, 3, 2]` holds 2·3+3 + 3·2+2 = 17
    /// parameters, some of them awkward bit patterns.
    fn sample() -> PolicySnapshot {
        let mut params: Vec<f64> = (0..17).map(|i| f64::from(i) * 0.37 - 2.5).collect();
        params[..4].copy_from_slice(&[std::f64::consts::PI, 1e-300, -0.0, f64::MIN_POSITIVE / 4.0]);
        PolicySnapshot {
            omega: 2,
            action_dim: 2,
            hidden: vec![3],
            squash: ActionSquash::BoundedSoftmax { scale: 6.0 },
            params,
            window: vec![1.0, 2.0, 3.0],
        }
    }

    fn sample_text() -> String {
        let mut buf = Vec::new();
        sample().write(&mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    fn rejected(text: &str) -> String {
        match PolicySnapshot::read(text.as_bytes()) {
            Err(PersistError::Format(msg)) => msg,
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let snap = sample();
        let mut buf = Vec::new();
        snap.write(&mut buf).unwrap();
        let back = PolicySnapshot::read(buf.as_slice()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn all_squash_variants_roundtrip() {
        for squash in [
            ActionSquash::Identity,
            ActionSquash::Tanh,
            ActionSquash::Softmax,
            ActionSquash::BoundedSoftmax { scale: 3.25 },
        ] {
            let snap = PolicySnapshot { squash, ..sample() };
            let mut buf = Vec::new();
            snap.write(&mut buf).unwrap();
            assert_eq!(PolicySnapshot::read(buf.as_slice()).unwrap().squash, squash);
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = PolicySnapshot::read("not a policy\n".as_bytes()).unwrap_err();
        assert!(matches!(err, PersistError::Format(_)));
    }

    #[test]
    fn truncated_input_is_rejected() {
        let snap = sample();
        let mut buf = Vec::new();
        snap.write(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let truncated: String = text.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(PolicySnapshot::read(truncated.as_bytes()).is_err());
    }

    #[test]
    fn corrupted_params_are_rejected() {
        let text = sample_text().replace("params 17", "params 18");
        assert!(PolicySnapshot::read(text.as_bytes()).is_err());
    }

    #[test]
    fn params_must_fit_the_actor_topology() {
        // Three parameters for an actor that needs 17: consistent as
        // text, but `restore` would index past the end of the slice.
        let text = "eadrl-policy v1\nomega 2\naction_dim 2\nhidden 1 3\nsquash softmax\n\
                    params 3 0 0 0\nwindow 0\n";
        assert!(rejected(text).contains("needs 17 values, found 3"));
    }

    #[test]
    fn zero_omega_is_rejected() {
        let text = sample_text().replace("omega 2", "omega 0");
        assert!(rejected(&text).contains("zero size or too many parameters"));
    }

    #[test]
    fn zero_action_dim_is_rejected() {
        let text = sample_text().replace("action_dim 2", "action_dim 0");
        assert!(rejected(&text).contains("zero size or too many parameters"));
    }

    #[test]
    fn zero_hidden_size_is_rejected() {
        let text = sample_text().replace("hidden 1 3", "hidden 2 3 0");
        assert!(rejected(&text).contains("zero size or too many parameters"));
    }

    #[test]
    fn overflowing_topology_is_rejected_without_allocating() {
        // 2⁶³·2⁶³ weights overflow the count: an error, not a sizing.
        let huge = 1usize << (usize::BITS - 1);
        let text = sample_text().replace("hidden 1 3", &format!("hidden 2 {huge} {huge}"));
        assert!(rejected(&text).contains("zero size or too many parameters"));
    }
}
