//! The open-loop request generator and what one serving pass measured.
//!
//! Step `i` is due at `start + i / rate` whether or not the server has
//! finished step `i - 1`, as with independent users. Latency runs from
//! the due time to the returned forecast, so a stall (a policy refresh)
//! also counts against every request that queued behind it.
//!
//! While it waits for a step, the generator times a fixed kernel of its
//! own, the speed probe, on the serving core. The reported times are
//! scaled by the probe to the speed of a reference machine; see
//! [`Pass::reference_scale`].

use crate::layers::Tracer;
use crate::workload::{Data, Server};
use std::hint::black_box;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Probe time of the reference machine, µs: the probe's median on an
/// otherwise idle core of the 2-core Intel Xeon virtual machine the
/// README's numbers come from. Reported times are times on a core that
/// runs the probe this fast.
pub const REFERENCE_PROBE_US: f64 = 8.0;

/// Probe readings per speed estimate: a step's speed is the median of
/// the last `PROBE_WINDOW` readings, so one interrupted probe does not
/// rescale it.
const PROBE_WINDOW: usize = 9;

/// The probe runs only while the next step is due at least this far
/// ahead, so it never delays a step.
const PROBE_SLACK: Duration = Duration::from_micros(150);

/// An arrival rate no server keeps up with: every step is due at once,
/// so the loop never waits.
pub const FLOOD: f64 = 1e9;

/// What one serving pass measured, one entry per step.
#[derive(Debug, Default)]
pub struct Pass {
    /// Served forecasts (NaN for a step that panicked).
    pub forecasts: Vec<f64>,
    /// Due time → forecast returned, µs.
    pub latency_us: Vec<f64>,
    /// Step start → forecast returned, µs.
    pub service_us: Vec<f64>,
    /// Due time → step start, µs.
    pub wait_us: Vec<f64>,
    /// Due time → step start for the steps that found the server idle:
    /// how late the generator itself ran.
    pub late_us: Vec<f64>,
    /// Duration of the speed probe run while waiting for the step, µs;
    /// NaN where the step was due too soon to run it.
    pub probe_us: Vec<f64>,
    /// Most steps due but not yet started, seen at any step start.
    pub backlog_max: usize,
    /// Steps whose forecast was non-finite or whose call panicked.
    pub failed: usize,
    /// Duration of each deployed policy refresh, ms.
    pub refresh_ms: Vec<f64>,
    /// The step each deployed refresh blocked.
    pub refresh_steps: Vec<usize>,
    /// Steps per statistics block. Latency percentiles, capacity and the
    /// SLO share are computed per block; see [`Pass::across_blocks`].
    pub block: usize,
    /// The history grew by one value per step, so later steps cost more.
    pub growing: bool,
}

impl Pass {
    /// Latency percentile `p` (0–1) at the reference speed, µs.
    pub fn latency(&self, p: f64) -> f64 {
        let latency = self.at_reference(&self.latency_us);
        self.across_blocks(|r| percentile(&latency[r], p))
    }

    /// Steps served per second of service time at the reference speed.
    pub fn capacity(&self) -> f64 {
        let service = self.at_reference(&self.service_us);
        self.across_blocks(|r| r.len() as f64 * 1e6 / service[r].iter().sum::<f64>())
    }

    /// Share of steps served within `limit_us` at the reference speed
    /// with a finite forecast.
    pub fn within(&self, limit_us: f64) -> f64 {
        let latency = self.at_reference(&self.latency_us);
        self.across_blocks(|r| {
            let met = r
                .clone()
                .filter(|&i| latency[i] <= limit_us && self.forecasts[i].is_finite())
                .count();
            met as f64 / r.len() as f64
        })
    }

    /// Median probe reading, µs; 0 when no probe ran.
    pub fn probe_p50(&self) -> f64 {
        let readings: Vec<f64> = self
            .probe_us
            .iter()
            .copied()
            .filter(|p| p.is_finite())
            .collect();
        median(&readings)
    }

    /// Per-step `values` scaled to the reference speed.
    fn at_reference(&self, values: &[f64]) -> Vec<f64> {
        values
            .iter()
            .zip(self.reference_scale())
            .map(|(v, s)| v * s)
            .collect()
    }

    /// Per step, the factor that scales its times to the reference
    /// speed: [`REFERENCE_PROBE_US`] over the median of the last
    /// [`PROBE_WINDOW`] probe readings up to the step. Steps before the
    /// first reading take the first reading; a pass without readings
    /// (one served unpaced) stays unscaled.
    ///
    /// Each core of a shared virtual machine switches between speeds,
    /// ~1.6× apart, for spans of half a second to ten seconds, and its
    /// fast speed drifts ~10 % over minutes, as other tenants come and
    /// go. The probe, code of the benchmark's own that no change to the
    /// program moves, runs on the serving core between steps, so it
    /// slows with the serving work and the ratio cancels the machine's
    /// speed while keeping every change to the served work.
    fn reference_scale(&self) -> Vec<f64> {
        let n = self.latency_us.len();
        let Some(mut speed) = self.probe_us.iter().copied().find(|p| p.is_finite()) else {
            return vec![1.0; n];
        };
        let mut recent = Vec::with_capacity(PROBE_WINDOW);
        (0..n)
            .map(|i| {
                if let Some(&p) = self.probe_us.get(i).filter(|p| p.is_finite()) {
                    if recent.len() == PROBE_WINDOW {
                        recent.remove(0);
                    }
                    recent.push(p);
                    speed = median(&recent);
                }
                REFERENCE_PROBE_US / speed
            })
            .collect()
    }

    /// A per-block statistic summarised over the pass: `stat` is applied
    /// to each of the `len / block` equal blocks except the first, which
    /// warms caches up, and the median across blocks (the mean of the
    /// middle two for an even count) is returned. A pass shorter than two
    /// blocks is one block.
    ///
    /// The median lets a few seconds slowed by other tenants of a shared
    /// machine pass, while a change that slows half the blocks or more
    /// moves it. Blocks of a growing history are not alike, as each
    /// costs more than the one before; there the median is taken around
    /// the Theil–Sen line through the blocks (the median of pairwise
    /// slopes, which slowed blocks barely move) and read at the middle
    /// block.
    fn across_blocks(&self, stat: impl Fn(Range<usize>) -> f64) -> f64 {
        let len = self.latency_us.len();
        let blocks = len / self.block.max(1);
        let values: Vec<f64> = if blocks < 2 {
            vec![stat(0..len)]
        } else {
            (1..blocks)
                .map(|b| stat(b * len / blocks..(b + 1) * len / blocks))
                .collect()
        };
        if !self.growing || values.len() < 3 {
            return median(&values);
        }
        let mut slopes = Vec::new();
        for (i, a) in values.iter().enumerate() {
            for (j, b) in values.iter().enumerate().skip(i + 1) {
                slopes.push((b - a) / (j - i) as f64);
            }
        }
        let slope = median(&slopes);
        let middle = (values.len() - 1) as f64 / 2.0;
        let level: Vec<f64> = values
            .iter()
            .enumerate()
            .map(|(b, v)| v - slope * (b as f64 - middle))
            .collect();
        median(&level)
    }
}

/// Serves every step of `data` from `server` at `rate` steps per second.
/// With a tracer, member calls, probes and spans are recorded too.
pub fn serve(server: &mut Server, data: &Data, rate: f64, mut tracer: Option<&mut Tracer>) -> Pass {
    let n = data.steps;
    let mut pass = Pass {
        forecasts: Vec::with_capacity(n),
        latency_us: Vec::with_capacity(n),
        service_us: Vec::with_capacity(n),
        wait_us: Vec::with_capacity(n),
        probe_us: Vec::with_capacity(n),
        block: data.block,
        growing: data.window.is_none(),
        ..Pass::default()
    };
    let start = Instant::now() + Duration::from_millis(1);
    let mut idle_since = start;
    for i in 0..n {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        let probe_us = if Instant::now() + PROBE_SLACK <= due {
            probe()
        } else {
            f64::NAN
        };
        wait_until(due);
        let begin = Instant::now();
        let history = data.history(i);
        let refreshes = server.refreshes();
        let forecast = catch_unwind(AssertUnwindSafe(|| server.step(history))).unwrap_or(f64::NAN);
        let end = Instant::now();
        let refreshed = server.refreshes() > refreshes;
        if !forecast.is_finite() {
            pass.failed += 1;
        }
        if refreshed {
            pass.refresh_ms
                .push(server.last_observe().as_secs_f64() * 1e3);
            pass.refresh_steps.push(i);
        }
        if idle_since <= due {
            pass.late_us.push(micros(begin - due));
        }
        let due_by_now = ((begin - start).as_secs_f64() * rate).floor() as usize + 1;
        pass.backlog_max = pass.backlog_max.max(due_by_now.saturating_sub(i + 1));
        pass.forecasts.push(forecast);
        pass.latency_us.push(micros(end - due));
        pass.service_us.push(micros(end - begin));
        pass.wait_us.push(micros(begin - due));
        pass.probe_us.push(probe_us);
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.after_step(i, begin, end, refreshed, server, history);
        }
        idle_since = Instant::now();
    }
    pass
}

/// Busy-waits until `due`. The serving core never sleeps: on a shared
/// virtual machine, waking from sleep costs a varying tens of
/// microseconds per step that would swamp the serving work measured.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Runs the speed probe and returns its duration, µs: 1,024 `tanh`
/// updates of a 2 KB array it owns, the arithmetic of the members'
/// recurrent steps, with no memory traffic beyond the first cache level.
fn probe() -> f64 {
    let start = Instant::now();
    let mut v = [0.0f64; 256];
    for (i, x) in v.iter_mut().enumerate() {
        *x = black_box(i as f64 * 1e-3);
    }
    for round in 0..4 {
        let shift = f64::from(round) * 1e-9;
        for x in v.iter_mut() {
            *x = (*x * 1.000_001 + shift).tanh();
        }
    }
    black_box(&v);
    micros(start.elapsed())
}

/// A duration in microseconds.
pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank percentile `p` (0–1) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values`, the mean of the middle two for an even count; 0
/// when empty.
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// FNV-1a over the bit patterns of `values`: equal digests mean
/// bitwise-equal forecasts.
pub fn digest(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
