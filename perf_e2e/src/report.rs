//! What a round measures, and how rounds fold into a run's result.

use crate::probe::Metered;
use crate::stats::{self, Tail};
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// One measured pass of a workload, set-up included.
pub struct Round {
    pub traced: bool,
    /// Set-up times: dictionary build, tagger, engine and query handle,
    /// in CPU seconds at the probe's reference speed.
    pub setup_s: Vec<f64>,
    /// First document fed to last tick visible, probes left out.
    pub wall_s: f64,
    /// Process CPU seconds over the same stream (every thread; time the
    /// host stole is not in it), and the same at the probe's reference
    /// speed.
    pub stream_cpu_s: f64,
    pub norm_s: f64,
    /// Median CPU time of the host-speed probe during the stream.
    pub probe_s: f64,
    pub docs: u64,
    /// Per tick: first document fed until the handle shows the tick.
    pub visible_ms: Vec<f64>,
    /// Operations checked against the reference, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Workload-specific end-to-end figures (name, unit, value).
    pub extra: Vec<(&'static str, &'static str, f64)>,
    /// Per-layer figures of a traced round (name, unit, value).
    pub layers: Vec<(&'static str, &'static str, f64)>,
    /// Self time per layer of a traced round, in seconds.
    pub layer_self_s: Vec<(&'static str, f64)>,
    pub tracer: Option<Tracer>,
    /// Steal seconds and process CPU seconds during the round, set-up
    /// included.
    pub steal_s: f64,
    pub cpu_s: f64,
    /// Share of the VM's CPU capacity the hypervisor stole during the
    /// round, and whether that was enough to distort it.
    pub steal_share: f64,
    pub contended: bool,
}

impl Round {
    pub fn new(traced: bool) -> Self {
        Round {
            traced,
            setup_s: Vec::new(),
            wall_s: 0.0,
            stream_cpu_s: 0.0,
            norm_s: 0.0,
            probe_s: 0.0,
            docs: 0,
            visible_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            extra: Vec::new(),
            layers: Vec::new(),
            layer_self_s: Vec::new(),
            tracer: None,
            steal_s: 0.0,
            cpu_s: 0.0,
            steal_share: 0.0,
            contended: false,
        }
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn docs_per_s(&self) -> f64 {
        self.docs as f64 / self.wall_s
    }

    /// Documents per second of stream CPU time at the reference speed.
    pub fn norm_docs_per_s(&self) -> f64 {
        self.docs as f64 / self.norm_s
    }

    pub fn set_stream(&mut self, metered: Metered) {
        self.wall_s = metered.time.wall_s;
        self.stream_cpu_s = metered.time.cpu_s;
        self.norm_s = metered.norm_s;
        self.probe_s = metered.probe_s;
    }

    /// Layers' summed self time over wall time.
    pub fn coverage(&self) -> f64 {
        self.layer_self_s.iter().map(|(_, s)| s).sum::<f64>() / self.wall_s
    }
}

/// The rounds the medians use: the uncontended ones when they are at
/// least half, otherwise the half with the least steal.
pub fn least_contended(mut rounds: Vec<&Round>) -> Vec<&Round> {
    let quiet = rounds.iter().filter(|r| !r.contended).count();
    let keep = quiet.max(rounds.len().div_ceil(2));
    rounds.sort_by(|a, b| a.steal_share.total_cmp(&b.steal_share));
    rounds.truncate(keep);
    rounds
}

/// Median over rounds of each named figure, in first-seen order.
pub fn median_by_name(
    rows: impl Iterator<Item = (&'static str, &'static str, f64)>,
) -> Vec<(&'static str, &'static str, f64)> {
    let mut order: Vec<(&'static str, &'static str)> = Vec::new();
    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (name, unit, value) in rows {
        if !values.contains_key(name) {
            order.push((name, unit));
        }
        values.entry(name).or_default().push(value);
    }
    order
        .into_iter()
        .map(|(name, unit)| {
            let v = values.get_mut(name).expect("collected above");
            (name, unit, stats::median(v))
        })
        .collect()
}

/// Pooled tick-visibility latencies of the given rounds.
pub fn visible(rounds: &[&Round]) -> (f64, Tail) {
    let mut all: Vec<f64> = rounds.iter().flat_map(|r| r.visible_ms.iter().copied()).collect();
    let p50 = stats::median(&mut all);
    (p50, stats::tail(&mut all))
}
