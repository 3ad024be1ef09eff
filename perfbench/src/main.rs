//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```sh
//! perfbench --workload <wave_jitter|tenant_storm|routed_plane> --seed <n> \
//!           --seconds <s> --trace <0|1> [--state-dir <dir>]
//! ```
//!
//! One process runs one workload, so its peak resident set belongs to that
//! workload alone. A run measures a fixed set of inputs derived from
//! `--seed` (each input its own network, catalog and arrival stream, so the
//! same seed always gives the same inputs). It runs the whole set in rounds,
//! one fresh topology and runtime per input, until `--seconds` are spent
//! (at least one round). A per-iteration figure is the mean over inputs of
//! each input's median over rounds; a per-call figure (deploy, tick) is a
//! quantile of all calls pooled. Averaging over inputs is what keeps a
//! figure steady from seed to seed. Every timing is calibrated to a nominal
//! host speed by the yardstick run between iterations (see
//! [`yardstick`]), which keeps it steady from minute to minute on a shared
//! host.
//!
//! * `--trace 0` measures the end-to-end metrics on untraced iterations.
//! * `--trace 1` alternates untraced and traced iterations and reports the
//!   per-layer metrics from the traced ones; the spans go to
//!   `<state-dir>/trace-<workload>-<seed>.jsonl`.
//!
//! Every iteration is checked (outside its timed region); every round must
//! reproduce the first round's determinism fingerprints exactly, and so must
//! every earlier process that ran the same binary on the same seed (through
//! `<state-dir>/fingerprints/`); and one untimed reference run per process
//! checks input 0's output against an independent path. Any failure exits
//! non-zero without a result. A human-readable table of every metric, with
//! units and sample counts, goes to stderr; the last line of stdout is the
//! JSON result.

#![forbid(unsafe_code)]
// Benchmark harness: wall-clock timing around public calls is its purpose.
#![allow(clippy::disallowed_methods)]

mod probe;
mod stats;
mod workloads;
mod yardstick;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use probe::{Probe, C};
use stats::{fnv1a, json_num, json_str, median, peak_rss_mib, quantile};
use workloads::{Iteration, Workload};

/// Smallest sample count for which a p99 has ten samples beyond it.
const P99_MIN_SAMPLES: usize = 1_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    state_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut state_dir = PathBuf::from(".bench_build/perfbench-state");
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--state-dir" => state_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        state_dir,
    })
}

/// One reported figure.
struct Metric {
    name: &'static str,
    value: Option<f64>,
    unit: &'static str,
    /// Samples behind the figure.
    n: usize,
    /// Why there is no value, or what qualifies it.
    note: &'static str,
    /// Whether the figure goes into the JSON result.
    in_result: bool,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric { name, value: Some(value), unit, n, note: "", in_result: true }
    }

    /// A figure printed in the table only (see `perfbench/interactions.json`
    /// for why it is not in the result).
    fn table_only(mut self, note: &'static str) -> Metric {
        self.in_result = false;
        self.note = note;
        self
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let epoch = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);

    // Rounds over the run's fixed input set, until starting another round
    // would likely overrun the budget by more than half a round.
    let mut plain = Rounds::default();
    let mut traced = Rounds::default();
    let mut probe = Probe::on(epoch);
    let mut host = Host { before: yardstick::measure()?, samples: Vec::new() };
    loop {
        let mut round = Vec::new();
        let mut traced_round = Vec::new();
        for input in 0..w.inputs() {
            round.push(host.calibrate(w.iterate(args.seed, input, &mut Probe::off())?)?);
            if args.trace {
                traced_round.push(host.calibrate(w.iterate(args.seed, input, &mut probe)?)?);
            }
        }
        plain.0.push(round);
        if args.trace {
            traced.0.push(traced_round);
        }
        let per_round = epoch.elapsed() / plain.0.len() as u32;
        if epoch.elapsed() + per_round / 2 >= budget {
            break;
        }
    }
    let measured_s = epoch.elapsed().as_secs_f64();
    let rss = peak_rss_mib()?;

    // Determinism: every round must reproduce the first one exactly, and so
    // must every earlier process that ran this binary on this seed.
    let fingerprints: Vec<String> = plain.0[0].iter().map(|it| it.fingerprint.clone()).collect();
    for round in plain.0.iter().chain(&traced.0) {
        for (it, expected) in round.iter().zip(&fingerprints) {
            if &it.fingerprint != expected {
                return Err(format!("non-deterministic run:\n  {expected}\n  {}", it.fingerprint));
            }
        }
    }
    let digest = fnv1a(fingerprints.join("\n").as_bytes());
    let stored = check_fingerprint_store(&args, &fingerprints)?;
    let reference = w.check_against_reference(args.seed, &plain.0[0][0])?;

    let offered: usize = plain.all().chain(traced.all()).map(|it| it.deploy_ms.len()).sum();
    let undeploys: usize = plain.all().chain(traced.all()).map(|it| it.undeploy_ms.len()).sum();
    let failed: usize =
        plain.all().chain(traced.all()).map(|it| it.deploy_failed + it.undeploy_failed).sum();
    let shown = if args.trace { layer_metrics(&plain, &traced) } else { end_to_end(&plain, rss) };

    eprintln!(
        "perfbench {} seed={} inputs={} nodes={} runtime threads={} of nproc={} trace={} \
         rounds={} ({} traced), {:.1} s measured",
        w.name(),
        args.seed,
        w.inputs(),
        plain.0[0][0].nodes,
        workloads::RUNTIME_THREADS,
        nproc,
        u8::from(args.trace),
        plain.0.len(),
        traced.0.len(),
        measured_s
    );
    eprintln!(
        "  host factor (yardstick s / {} s nominal): median {:.3}, range {:.3}-{:.3} over {} \
         iterations; timings below are divided by it",
        yardstick::NOMINAL_S,
        median(&host.samples),
        quantile(&host.samples, 0.0).unwrap_or(0.0),
        quantile(&host.samples, 1.0).unwrap_or(0.0),
        host.samples.len()
    );
    eprintln!("  {:<36} {:>16} {:<10} {:>7}", "metric", "value", "unit", "n");
    for m in &shown {
        let value = m.value.map_or("n/a".to_string(), |v| format!("{v:.6}"));
        eprintln!("  {:<36} {:>16} {:<10} {:>7}  {}", m.name, value, m.unit, m.n, m.note);
    }
    eprintln!("  fingerprint {digest:016x} over {} inputs ({stored}):", fingerprints.len());
    for line in &fingerprints {
        eprintln!("    {line}");
    }
    eprintln!("  check: {reference}");
    if args.trace {
        let path = args.state_dir.join(format!("trace-{}-{}.jsonl", w.name(), args.seed));
        write_file(&path, probe.jsonl())?;
        eprintln!("  trace: {} spans written to {}", probe.span_count(), path.display());
    }

    let metrics: Vec<String> = shown
        .iter()
        .filter(|m| m.in_result)
        .map(|m| {
            let value = m.value.ok_or_else(|| format!("{} has no value", m.name))?;
            Ok(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_num(value),
                json_str(m.unit)
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok(format!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        offered + undeploys,
        metrics.join(",")
    ))
}

/// The yardstick readings of one run.
struct Host {
    /// The latest reading (s): the one just before the next iteration.
    before: f64,
    /// Every iteration's host factor, in run order.
    samples: Vec<f64>,
}

impl Host {
    /// Reads the yardstick after an iteration and sets the iteration's host
    /// factor from the readings on either side of it.
    fn calibrate(&mut self, mut it: Iteration) -> Result<Iteration, String> {
        let after = yardstick::measure()?;
        it.host = (self.before + after) / 2.0 / yardstick::NOMINAL_S;
        self.before = after;
        self.samples.push(it.host);
        Ok(it)
    }
}

/// The iterations of one run: `.0[round][input]`.
#[derive(Default)]
struct Rounds(Vec<Vec<Iteration>>);

impl Rounds {
    fn all(&self) -> impl Iterator<Item = &Iteration> {
        self.0.iter().flatten()
    }

    /// The mean over inputs of each input's median over rounds: repeats
    /// damp timing noise, the input average damps input-to-input spread.
    fn per_input(&self, f: impl Fn(&Iteration) -> f64) -> f64 {
        let inputs = self.0[0].len();
        let medians: Vec<f64> = (0..inputs)
            .map(|i| median(&self.0.iter().map(|round| f(&round[i])).collect::<Vec<_>>()))
            .collect();
        medians.iter().sum::<f64>() / inputs as f64
    }

    /// Every sample of a per-call timing series, pooled over inputs and
    /// rounds, each calibrated by its iteration's host factor.
    fn pooled(&self, f: impl Fn(&Iteration) -> &[f64]) -> Vec<f64> {
        self.all().flat_map(|it| f(it).iter().map(|&t| t / it.host)).collect()
    }

    /// Total sample count of a per-call series.
    fn count(&self, f: impl Fn(&Iteration) -> usize) -> usize {
        self.all().map(f).sum()
    }
}

/// The end-to-end metrics, from untraced iterations only; every timing is
/// calibrated.
fn end_to_end(plain: &Rounds, rss: f64) -> Vec<Metric> {
    let setups: Vec<f64> = plain.all().map(|it| it.cal(it.generate_s + it.new_s)).collect();
    let deploys = plain.pooled(|it| &it.deploy_ms);
    let ticks = plain.pooled(|it| &it.tick_ms);
    let iters = setups.len();
    let offered = deploys.len();
    let failed = plain.count(|it| it.deploy_failed);
    let samples = plain.count(|it| it.report.samples.len());

    let mut out = vec![
        Metric::new("setup_s", median(&setups), "s", iters),
        Metric::new("total_s", plain.per_input(|it| it.cal(it.total_s)), "s", iters),
        Metric::new(
            "deploy_total_s",
            plain.per_input(|it| it.cal(it.deploy_ms.iter().sum::<f64>() / 1e3)),
            "s",
            iters,
        ),
        Metric::new("deploy_p50_ms", median(&deploys), "ms", offered),
    ];
    let p99 = quantile(&deploys, 0.99).filter(|_| offered >= P99_MIN_SAMPLES);
    let note = if p99.is_some() { "pooled; table only" } else { "needs >= 1000 deploys" };
    out.push(
        Metric { value: p99, ..Metric::new("deploy_p99_ms", 0.0, "ms", offered) }.table_only(note),
    );
    out.extend([
        Metric::new("tick_p50_ms", median(&ticks), "ms", ticks.len()),
        Metric::new("tick_p90_ms", quantile(&ticks, 0.9).unwrap_or(0.0), "ms", ticks.len()),
        Metric::new(
            "sim_speedup",
            plain.per_input(|it| it.sim_s / it.cal(it.train_s)),
            "sim_s/s",
            iters,
        ),
        Metric::new(
            "lifecycle_ops_per_s",
            plain.per_input(|it| it.lifecycle_ops as f64 / it.cal(it.lifecycle_s)),
            "ops/s",
            iters,
        ),
        Metric::new("peak_rss_mib", rss, "MiB", 1),
        Metric::new("deploy_failed_ratio", failed as f64 / offered.max(1) as f64, "ratio", offered)
            .table_only("0 when nothing fails; see result.failed"),
        Metric::new("usage_mean", plain.per_input(|it| it.report.mean_usage()), "usage", samples),
    ]);
    let lookups = plain.count(|it| it.lookup_vms.map_or(0, |v| v.2 as usize));
    let note = if lookups > 0 { "routed only; table only" } else { "no routed lookups" };
    let lookup = |q: fn(&(f64, f64, u64)) -> f64| {
        (lookups > 0).then(|| plain.per_input(|it| it.lookup_vms.as_ref().map_or(0.0, q)))
    };
    out.push(
        Metric { value: lookup(|v| v.0), ..Metric::new("lookup_p50_vms", 0.0, "vms", lookups) }
            .table_only(note),
    );
    out.push(
        Metric { value: lookup(|v| v.1), ..Metric::new("lookup_p90_vms", 0.0, "vms", lookups) }
            .table_only(note),
    );
    out
}

/// The per-layer metrics, from traced iterations, plus the tracing
/// overhead against the interleaved untraced ones; every timing is
/// calibrated.
fn layer_metrics(plain: &Rounds, traced: &Rounds) -> Vec<Metric> {
    let n = traced.count(|_| 1);
    let avg = |f: &dyn Fn(&Iteration) -> f64| traced.per_input(f);
    let total = |c: C| avg(&|it| it.totals.get(c));
    let ms = |c: C| avg(&|it| it.cal(it.totals.get(c) / 1e6));
    let layer = |it: &Iteration| it.layers.clone().unwrap_or_default();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let overhead =
        ratio(traced.per_input(|it| it.cal(it.total_s)), plain.per_input(|it| it.cal(it.total_s)))
            - 1.0;
    let count = |name, c| Metric::new(name, total(c), "count", n);
    vec![
        Metric::new("netsim.topology.generate_s", avg(&|it| it.cal(it.generate_s)), "s", n),
        Metric::new("overlay.runtime.new_s", avg(&|it| it.cal(it.new_s)), "s", n),
        count("netsim.lazy.rows_computed", C::RowsComputed),
        Metric::new(
            "netsim.lazy.rows_resident",
            avg(&|it| layer(it).rows_resident_peak),
            "count",
            n,
        ),
        Metric::new(
            "netsim.lazy.resident_mib",
            avg(&|it| layer(it).rows_resident_peak * (it.nodes * 8) as f64 / (1024.0 * 1024.0)),
            "MiB",
            n,
        ),
        count("netsim.lazy.rows_repaired", C::RowsRepaired),
        count("netsim.lazy.vertices_settled", C::VerticesSettled),
        count("netsim.lazy.rows_rebuilt", C::RowsRebuilt),
        count("netsim.lazy.cache_hits", C::CacheHits),
        Metric::new("overlay.join_ms", ms(C::JoinNs), "ms", n),
        count("overlay.nodes_joined", C::NodesJoined),
        Metric::new("core.costspace.refresh_ms", ms(C::RefreshNs), "ms", n),
        count("core.costspace.points_updated", C::PointsUpdated),
        count("core.costspace.dirty_nodes", C::DirtyNodes),
        count("dht.catalog.lookups", C::DhtLookups),
        Metric::new(
            "dht.catalog.hops_per_lookup",
            avg(&|it| ratio(it.totals.get(C::DhtHops), it.totals.get(C::DhtLookups))),
            "hops",
            n,
        ),
        count("dht.catalog.candidates_examined", C::DhtCandidates),
        count("dht.proto.messages", C::RoutedMessages),
        count("dht.proto.lookups", C::RoutedLookups),
        count("dht.proto.retries", C::RoutedRetries),
        count("dht.proto.timeouts", C::RoutedTimeouts),
        Metric::new(
            "dht.proto.lookup_p50_vms",
            avg(&|it| it.lookup_vms.map_or(0.0, |v| v.0)),
            "vms",
            n,
        ),
        Metric::new(
            "dht.proto.lookup_p90_vms",
            avg(&|it| it.lookup_vms.map_or(0.0, |v| v.1)),
            "vms",
            n,
        ),
        Metric::new(
            "core.optimizer.deploy_cold_ms",
            avg(&|it| it.cal(median(&layer(it).deploy_cold_ms))),
            "ms",
            traced.count(|it| layer(it).deploy_cold_ms.len()),
        ),
        Metric::new(
            "core.optimizer.deploy_reuse_ms",
            avg(&|it| it.cal(median(&layer(it).deploy_reuse_ms))),
            "ms",
            traced.count(|it| layer(it).deploy_reuse_ms.len()),
        ),
        Metric::new(
            "core.optimizer.deploy_failed_ratio",
            avg(&|it| it.deploy_failed as f64 / it.deploy_ms.len().max(1) as f64),
            "ratio",
            traced.count(|it| it.deploy_ms.len()),
        ),
        count("core.multiquery.reuse_hits", C::ReuseHits),
        count("core.multiquery.reused_services", C::ReusedServices),
        Metric::new(
            "core.multiquery.undeploy_ms",
            avg(&|it| it.cal(median(&it.undeploy_ms))),
            "ms",
            traced.count(|it| it.undeploy_ms.len()),
        ),
        Metric::new(
            "core.multiquery.retained_peak",
            avg(&|it| layer(it).retained_peak),
            "count",
            n,
        ),
        Metric::new("core.reopt.local_ms", ms(C::LocalNs), "ms", n),
        Metric::new("core.reopt.rewrite_ms", ms(C::RewriteNs), "ms", n),
        Metric::new("core.reopt.full_ms", ms(C::FullNs), "ms", n),
        Metric::new("core.reopt.evac_ms", ms(C::EvacNs), "ms", n),
        count("core.reopt.evaluated", C::Evaluated),
        count("core.reopt.skipped", C::Skipped),
        Metric::new(
            "core.reopt.skip_ratio",
            ratio(total(C::Skipped), total(C::Skipped) + total(C::Evaluated)),
            "ratio",
            n,
        ),
        Metric::new("overlay.usage_ms", ms(C::UsageNs), "ms", n),
        Metric::new(
            "overlay.tick.unattributed_share",
            avg(&|it| {
                let l = layer(it);
                1.0 - ratio(l.tick_attributed_s, l.tick_wall_s)
            }),
            "share",
            n,
        ),
        Metric::new("obs.trace_overhead_share", overhead, "share", n + plain.count(|_| 1)),
    ]
}

/// Compares this run's fingerprint with the one stored by an earlier
/// process running the same binary on the same workload and seed, and
/// stores it when there is none.
fn check_fingerprint_store(args: &Args, lines: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("read {}: {e}", exe.display()))?;
    let path = args.state_dir.join("fingerprints").join(format!(
        "{}-{}-{:016x}.txt",
        args.workload.name(),
        args.seed,
        fnv1a(&bytes)
    ));
    let text = lines.join("\n") + "\n";
    match std::fs::read_to_string(&path) {
        Ok(stored) if stored == text => Ok("matches the stored run".into()),
        Ok(stored) => Err(format!(
            "fingerprint differs from an earlier run of this binary and seed:\n  stored:\n{stored}  \
             now:\n{text}"
        )),
        Err(_) => {
            write_file(&path, &text)?;
            Ok("stored as the first run".into())
        }
    }
}

fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}
