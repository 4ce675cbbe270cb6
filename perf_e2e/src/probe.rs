//! A fixed, memory-bound probe of the host's speed, and the [`Meter`] that
//! times a stream with it.
//!
//! On a shared host the CPU time this VM needs for a fixed piece of
//! memory-bound work swings by up to 2.5x within seconds, as neighbours
//! load the shared caches and memory, without any CPU being stolen; the
//! same code's compute-bound work stays within 5%. The workloads are
//! memory-bound, so neither their wall time nor their CPU time holds
//! still from one run to the next. The meter runs the probe at tick
//! boundaries, about every [`PROBE_EVERY_S`] of stream CPU time, and
//! rescales the process CPU time of each stretch between two probes by
//! how slowly the probe ran around it, relative to
//! [`PROBE_REFERENCE_S`]. The result is the stream's CPU time at the
//! host's reference speed. The probe is none of the program's code, so a
//! program that does more work reads slower however busy the host is.

use crate::env::{self, Elapsed, Stamp};
use crate::stats;
use std::hint::black_box;

/// The probe's working set: 2 MiB of words, read in order to warm the
/// caches, then touched at random. Warmed first, the probe reads the same
/// however much the stream evicted since the last one, and it slows when
/// neighbours contend for the shared cache and memory.
const PROBE_WORDS: usize = 1 << 18;
/// Random read-modify-writes per probe.
const PROBE_STEPS: u32 = 40_000;
/// The probe's CPU time on a quiet 2-vCPU Intel Xeon VM. Only a scale:
/// normalised times are seconds at this speed.
pub const PROBE_REFERENCE_S: f64 = 220e-6;
/// Stream CPU time between probes, at least.
const PROBE_EVERY_S: f64 = 0.01;

pub struct Probe {
    words: Vec<u64>,
    state: u64,
}

impl Probe {
    pub fn new() -> Self {
        let mut probe = Probe { words: (0..PROBE_WORDS as u64).collect(), state: 0x9E37_79B9 };
        probe.run();
        probe
    }

    /// Runs the probe once; returns the process CPU seconds of its random
    /// pass.
    pub fn run(&mut self) -> f64 {
        black_box(self.words.iter().fold(0u64, |a, &w| a.wrapping_add(w)));
        let start = env::process_cpu_s();
        let mut x = self.state;
        for _ in 0..PROBE_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let word = &mut self.words[x as usize & (PROBE_WORDS - 1)];
            *word = word.wrapping_add(x);
        }
        self.state = black_box(x);
        env::process_cpu_s() - start
    }

    /// Rescales CPU time spent between two probes to the reference speed.
    pub fn factor(before_s: f64, after_s: f64) -> f64 {
        2.0 * PROBE_REFERENCE_S / (before_s + after_s)
    }
}

/// What a [`Meter`] measured over a stream.
pub struct Metered {
    /// Wall and process CPU time of the stream, probes and pauses left out.
    pub time: Elapsed,
    /// The stream's CPU time at the reference speed.
    pub norm_s: f64,
    /// Median probe time over the stream: how slow the host ran.
    pub probe_s: f64,
}

/// Times a stream, probing the host's speed at tick boundaries.
pub struct Meter<'p> {
    probe: &'p mut Probe,
    /// Start of the stretch running now; `None` while paused.
    since: Option<Stamp>,
    /// Stream time since the last probe.
    pending: Elapsed,
    last_probe_s: f64,
    time: Elapsed,
    norm_s: f64,
    probes: Vec<f64>,
}

impl<'p> Meter<'p> {
    /// Probes once, then starts the stream's clock.
    pub fn start(probe: &'p mut Probe) -> Self {
        let first = probe.run();
        Meter {
            probe,
            since: Some(Stamp::now()),
            pending: Elapsed::default(),
            last_probe_s: first,
            time: Elapsed::default(),
            norm_s: 0.0,
            probes: vec![first],
        }
    }

    /// A tick boundary: probes once [`PROBE_EVERY_S`] of stream CPU time
    /// has run since the last probe.
    pub fn boundary(&mut self) {
        let Some(since) = self.since else { return };
        let stretch = since.elapsed();
        if self.pending.cpu_s + stretch.cpu_s < PROBE_EVERY_S {
            return;
        }
        self.pending += stretch;
        self.probe_now();
        self.since = Some(Stamp::now());
    }

    fn probe_now(&mut self) {
        let probe_s = self.probe.run();
        self.norm_s += self.pending.cpu_s * Probe::factor(self.last_probe_s, probe_s);
        self.time += self.pending;
        self.pending = Elapsed::default();
        self.last_probe_s = probe_s;
        self.probes.push(probe_s);
    }

    /// Leaves what follows out of the stream's time, until [`Meter::resume`].
    pub fn pause(&mut self) {
        if let Some(since) = self.since.take() {
            self.pending += since.elapsed();
        }
    }

    pub fn resume(&mut self) {
        self.since.get_or_insert_with(Stamp::now);
    }

    /// Stream wall seconds so far, probes and pauses left out.
    pub fn wall_s(&self) -> f64 {
        self.time.wall_s + self.pending.wall_s + self.since.map_or(0.0, |s| s.wall_s())
    }

    /// Stops the clock and probes a last time.
    pub fn finish(mut self) -> Metered {
        self.pause();
        self.probe_now();
        Metered { time: self.time, norm_s: self.norm_s, probe_s: stats::median(&mut self.probes) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn meter_leaves_pauses_and_probes_out() {
        let mut probe = Probe::new();
        let mut meter = Meter::start(&mut probe);
        meter.pause();
        std::thread::sleep(Duration::from_millis(50));
        meter.resume();
        for _ in 0..3 {
            meter.boundary();
        }
        let metered = meter.finish();
        assert!(metered.time.wall_s < 0.05, "paused time counted: {}", metered.time.wall_s);
        assert!(metered.probe_s > 0.0);
        assert!(metered.norm_s >= 0.0 && metered.norm_s.is_finite());
    }
}
