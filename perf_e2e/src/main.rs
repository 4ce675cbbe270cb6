//! End-to-end benchmark of the EnBlogue pipeline.
//!
//! Drives the library's public API along the whole path — generated
//! stream → `EntityTagger` → feed → tick close → publish → `QueryHandle`
//! → checkpoint/resume — over three workloads, checks every published
//! ranking against a sequential reference replay, and prints each metric
//! by name with its unit. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`; with
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones from a traced run. See `README.md` for the workloads,
//! the metrics and which layer moves which metric.
//!
//! ```text
//! cargo run --release --manifest-path perf_e2e/Cargo.toml -- \
//!     --workload <archive_timelapse|live_minutely|hostile_restart|all> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```

mod archive;
mod common;
mod env;
mod hostile;
mod live;
mod probe;
mod report;
mod stats;
mod trace;

use report::Round;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Every workload the command runs. `BENCHMARK.json` gates all but
/// `live_minutely`: its writer, close workers and spinning reader share two
/// CPUs, and its throughput swings 12-27% between runs of the same code on
/// a shared host, more than a regression bound can absorb.
const WORKLOADS: [&str; 3] = ["archive_timelapse", "live_minutely", "hostile_restart"];

/// The gated end-to-end metrics, reported on every workload (listed in
/// `BENCHMARK.json`). Their times are process CPU time rescaled to a
/// reference host speed by the probe (see `probe.rs`): on a shared 2-vCPU
/// host the wall time of identical runs swings by up to 2x with CPU
/// stolen by the hypervisor and with neighbours' load on the shared
/// caches, far past any regression bound. The others are printed but not
/// gated: `docs_per_s` and the visibility latencies are wall-clock
/// figures and move with the host, tails swing wider still, and read,
/// recovery and quality figures exist on one workload only or are exact
/// per seed.
const END_TO_END: [&str; 3] = ["setup_s", "norm_docs_per_s", "peak_rss_mb"];

/// Per-layer metrics and their units, reported on every workload (listed
/// in `BENCHMARK.json`); a layer a workload does not drive reports 0. The
/// reader's figures (`serve.reads`, `serve.read_busy_s`,
/// `serve.epoch_lag_max`) exist on `live_minutely` only and are printed in
/// its layer table. Times of layers a workload does not drive
/// (`entity.tag_s`, `ingest.offer_s`, `serve.read_busy_s`,
/// `snapshot.write_s`, `snapshot.restore_s`, `recovery.tail_s`) appear in
/// that workload's layer table only.
const PER_LAYER: [(&str, &str); 39] = [
    ("entity.dict_build_s", "s"),
    ("entity.docs", "count"),
    ("entity.mentions", "count"),
    ("ingest.feed_s", "s"),
    ("ingest.partition_s", "s"),
    ("ingest.observations", "count"),
    ("ingest.ns_per_observation", "ns"),
    ("ingest.arrivals", "count"),
    ("ingest.late_dropped", "count"),
    ("ingest.deduped", "count"),
    ("ingest.rate_capped", "count"),
    ("ingest.overflow_dropped", "count"),
    ("ingest.admitted_share", "ratio"),
    ("close.tick_s", "s"),
    ("close.seed_select_s", "s"),
    ("close.term_window_s", "s"),
    ("close.pair_count_s", "s"),
    ("close.shift_score_s", "s"),
    ("close.score_s", "s"),
    ("close.expiry_s", "s"),
    ("close.rank_s", "s"),
    ("close.rank_emit_s", "s"),
    ("close.ns_per_pair", "ns"),
    ("close.shard_makespan_s", "s"),
    ("close.shard_imbalance", "ratio"),
    ("pairs.scored", "count"),
    ("pairs.tracked_mean", "count"),
    ("pairs.discovered", "count"),
    ("pairs.evicted", "count"),
    ("routing.rebalances", "count"),
    ("routing.pairs_migrated", "count"),
    ("serve.publish_s", "s"),
    ("serve.epochs", "count"),
    ("snapshot.writes", "count"),
    ("snapshot.bytes", "bytes"),
    ("recovery.tail_arrivals", "count"),
    ("layer.core_share", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// A run is cut short of `--seconds` rather than overrun this budget.
const RUN_BUDGET_S: f64 = 150.0;

/// A round during which the hypervisor stole more than this share of the
/// VM's CPU capacity is contended: it is printed and its checks count, but
/// it stays out of the medians while at least half the rounds of its kind
/// are quiet; otherwise the medians use the least-stolen half. Quiet
/// rounds on a shared 2-vCPU host see under 2%; a busy host steals 5-35%
/// and slows every layer with it.
const MAX_STEAL_SHARE: f64 = 0.03;

/// `trace.coverage` below this fails a traced run.
const MIN_COVERAGE: f64 = 0.95;

/// Input generation plus the reference replay happen once per run; each
/// round then sets up a fresh engine and drives the whole stream.
pub trait Workload {
    fn round(&mut self, traced: bool, probe: &mut probe::Probe) -> Round;
    /// Figures independent of the measured rounds: detection quality of
    /// the last published rankings on the planted script, and the
    /// single-thread reference figures.
    fn summary(&self) -> Vec<(&'static str, &'static str, f64)>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: "all".into(), seed: 42, seconds: 25.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {} (one of {WORKLOADS:?} or all)", args.workload));
    }
    Ok(args)
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, &'static str, f64)>,
}

fn prepare(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "archive_timelapse" => Box::new(archive::Archive::prepare(seed)),
        "live_minutely" => Box::new(live::Live::prepare(seed)),
        "hostile_restart" => Box::new(hostile::Hostile::prepare(seed)),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

fn run(name: &str, args: &Args, process_start: Instant) -> Outcome {
    println!(
        "# workload={name} seed={} seconds={} trace={}",
        args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# env machine_parallelism={} rustc=\"{}\" git_rev={}",
        env::parallelism(),
        env::rustc(),
        env::git_rev()
    );
    let steal_start = env::steal_s();
    let cpu_start = env::cpu_s();
    let prepare_start = Instant::now();
    let mut workload = prepare(name, args.seed);
    let mut probe = probe::Probe::new();
    let prepare_s = prepare_start.elapsed().as_secs_f64();

    // Rounds until --seconds have been measured; a traced run alternates
    // untraced and traced rounds, so the tracing overhead is measured
    // under the same conditions.
    let min_rounds = if args.trace { 2 } else { 3 };
    let measure_start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut rss: Vec<f64> = Vec::new();
    let mut longest_round = 0.0f64;
    loop {
        let traced = args.trace && rounds.len() % 2 == 1;
        env::reset_peak_rss();
        let round_start = Instant::now();
        let (steal0, cpu0) = (env::steal_s(), env::cpu_s());
        let mut round = workload.round(traced, &mut probe);
        let elapsed = round_start.elapsed().as_secs_f64();
        round.steal_s = env::steal_s() - steal0;
        round.cpu_s = env::cpu_s() - cpu0;
        round.steal_share = round.steal_s / (elapsed * env::parallelism() as f64);
        round.contended = round.steal_share > MAX_STEAL_SHARE;
        rounds.push(round);
        longest_round = longest_round.max(elapsed);
        rss.push(env::peak_rss_mb());
        let measured = measure_start.elapsed().as_secs_f64();
        let spent = process_start.elapsed().as_secs_f64();
        if spent + 1.5 * longest_round > RUN_BUDGET_S {
            break;
        }
        if measured >= args.seconds && rounds.len() >= min_rounds {
            break;
        }
    }
    let measured_s = measure_start.elapsed().as_secs_f64();
    let steal = env::steal_s() - steal_start;
    let cpu = env::cpu_s() - cpu_start;

    let untraced = report::least_contended(rounds.iter().filter(|r| !r.traced).collect());
    let traced = report::least_contended(rounds.iter().filter(|r| r.traced).collect());
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();

    let docs_per_s =
        |rs: &[&Round]| stats::median(&mut rs.iter().map(|r| r.docs_per_s()).collect::<Vec<_>>());
    let (p50, tail) = report::visible(&untraced);
    let mut e2e: Vec<(&'static str, &'static str, f64)> = vec![
        (
            "setup_s",
            "s",
            stats::median(
                &mut untraced
                    .iter()
                    .chain(&traced)
                    .flat_map(|r| r.setup_s.iter().copied())
                    .collect::<Vec<_>>(),
            ),
        ),
        ("docs_per_s", "1/s", docs_per_s(&untraced)),
        (
            "norm_docs_per_s",
            "1/s",
            stats::median(&mut untraced.iter().map(|r| r.norm_docs_per_s()).collect::<Vec<_>>()),
        ),
        ("visible_p50_ms", "ms", p50),
        ("visible_tail_ms", "ms", tail.value),
        ("peak_rss_mb", "MiB", stats::median(&mut rss)),
    ];
    e2e.extend(report::median_by_name(untraced.iter().flat_map(|r| r.extra.iter().copied())));
    e2e.push(("error_share", "ratio", failed as f64 / attempted.max(1) as f64));
    e2e.extend(workload.summary());

    let contended = rounds.iter().filter(|r| r.contended).count();
    println!(
        "# rounds={} (untraced {}, traced {}; {contended} contended) measured_s={measured_s:.3} prepare_s={prepare_s:.3}",
        rounds.len(),
        rounds.len() - rounds.iter().filter(|r| r.traced).count(),
        rounds.iter().filter(|r| r.traced).count(),
    );
    for (i, r) in rounds.iter().enumerate() {
        println!(
            "# round {i}: traced={} contended={} setup_s={:.6?} wall_s={:.4} stream_cpu_s={:.4} probe_us={:.1} docs_per_s={:.1} norm_docs_per_s={:.1} steal_s={:.2} cpu_s={:.2} checked={} failed={}",
            r.traced as u8,
            r.contended as u8,
            r.setup_s,
            r.wall_s,
            r.stream_cpu_s,
            r.probe_s * 1e6,
            r.docs_per_s(),
            r.norm_docs_per_s(),
            r.steal_s,
            r.cpu_s,
            r.attempted,
            r.failed
        );
    }
    if contended > 0 {
        println!(
            "# {contended} round(s) saw steal above {:.0}% of the VM's CPU; the medians use {} untraced and {} traced round(s), the least stolen",
            MAX_STEAL_SHARE * 100.0,
            untraced.len(),
            traced.len()
        );
    }
    println!("# env.steal_s={steal:.2} env.cpu_s={cpu:.2} (host CPU stolen from this VM during the run, and this process's CPU time)");
    if steal > 0.05 * measured_s {
        println!("# WARNING: {steal:.2} s of CPU steal during the run: the host was contended; compare this run with care");
    }
    println!("# visible_tail_ms is p{:.2} of {} tick samples", tail.percentile, tail.samples);
    println!("{:<34} {:>16}  unit", "end-to-end metric", "value");
    for (name, unit, value) in &e2e {
        println!("{name:<34} {value:>16.6}  {unit}");
    }

    let mut correct = failed == 0;
    let mut metrics: Vec<(String, &'static str, f64)> = Vec::new();
    if args.trace {
        let layers = report::median_by_name(traced.iter().flat_map(|r| r.layers.iter().copied()));
        let coverage = stats::median(&mut traced.iter().map(|r| r.coverage()).collect::<Vec<_>>());
        let norm_docs_per_s = |rs: &[&Round]| {
            stats::median(&mut rs.iter().map(|r| r.norm_docs_per_s()).collect::<Vec<_>>())
        };
        let overhead = norm_docs_per_s(&untraced) / norm_docs_per_s(&traced);
        let shares = report::median_by_name(
            traced.iter().flat_map(|r| r.layer_self_s.iter().map(|(l, s)| (*l, "s", s / r.wall_s))),
        );
        println!("# per-layer table (median of {} traced rounds)", traced.len());
        println!("{:<10} {:>12}", "layer", "share_of_wall");
        for (layer, _, share) in &shares {
            println!("{layer:<10} {share:>12.4}");
        }
        let mut all = layers.clone();
        let core_share = shares.iter().find(|(l, _, _)| *l == "core").map_or(0.0, |s| s.2);
        all.push(("layer.core_share", "ratio", core_share));
        all.push(("trace.coverage", "ratio", coverage));
        all.push(("trace.overhead", "ratio", overhead));
        println!("{:<34} {:>16}  unit", "per-layer metric", "value");
        for (name, unit, value) in &all {
            println!("{name:<34} {value:>16.6}  {unit}");
        }
        if coverage < MIN_COVERAGE {
            println!("# FAIL: trace.coverage {coverage:.4} < {MIN_COVERAGE}: the layers miss part of the wall time");
            correct = false;
        }
        if let Some(tracer) = rounds.iter_mut().rev().find_map(|r| r.tracer.take()) {
            let path = format!(".bench_out/spans-{name}.tsv");
            match std::fs::create_dir_all(".bench_out")
                .and_then(|_| std::fs::write(&path, tracer.to_tsv()))
            {
                Ok(()) => println!("# spans of the last traced round written to {path}"),
                Err(e) => println!("# could not write {path}: {e}"),
            }
        }
        for (name, unit) in PER_LAYER {
            let value = all.iter().find(|(n, _, _)| *n == name).map_or(0.0, |(_, u, v)| {
                assert_eq!(*u, unit, "unit of {name}");
                *v
            });
            metrics.push((name.to_string(), unit, value));
        }
    } else {
        for name in END_TO_END {
            let (_, unit, value) =
                e2e.iter().find(|(n, _, _)| *n == name).expect("always measured");
            metrics.push((name.to_string(), unit, *value));
        }
    }
    if failed > 0 {
        println!("# FAIL: {failed} of {attempted} checked operations failed");
    }
    if metrics.iter().any(|(_, _, v)| !v.is_finite()) {
        println!("# FAIL: a metric is not a finite number");
        correct = false;
    }
    Outcome { correct, attempted, failed, metrics }
}

fn json(outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, (name, unit, value)) in outcome.metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    let mut outcomes = Vec::new();
    for name in &names {
        let start = if names.len() > 1 { Instant::now() } else { process_start };
        outcomes.push((*name, run(name, &args, start)));
    }
    let combined = if outcomes.len() == 1 {
        outcomes.pop().expect("one workload").1
    } else {
        let mut metrics = BTreeMap::new();
        for (name, o) in &outcomes {
            for (metric, unit, value) in &o.metrics {
                metrics.insert(format!("{name}.{metric}"), (*unit, *value));
            }
        }
        Outcome {
            correct: outcomes.iter().all(|(_, o)| o.correct),
            attempted: outcomes.iter().map(|(_, o)| o.attempted).sum(),
            failed: outcomes.iter().map(|(_, o)| o.failed).sum(),
            metrics: metrics.into_iter().map(|(n, (u, v))| (n, u, v)).collect(),
        }
    };
    println!("{}", json(&combined));
    if combined.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics the benchmark prints.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let listed = |section: &str| -> Vec<String> {
            let body = &json[json.find(&format!("\"{section}\"")).expect(section)..];
            let body = &body[..body.find(']').expect("section ends")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name")].to_string())
                .collect()
        };
        assert_eq!(listed("end_to_end"), END_TO_END);
        let per_layer: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(listed("per_layer"), per_layer);
        let gated = listed("workloads");
        assert!(gated.iter().all(|w| WORKLOADS.contains(&w.as_str())), "{gated:?}");
        for (name, unit) in PER_LAYER {
            assert!(
                json.contains(&format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
    }
}
