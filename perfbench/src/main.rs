//! The rfdump benchmark: end-to-end numbers from untraced runs, per-layer
//! numbers from a separate traced run, and correctness checks on every
//! record stream. See NOTES.md for the workloads and what each metric
//! should move.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload offline_quiet --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod live;
mod measure;
mod offline;
mod traced;
mod workload;

use measure::{median, percentile, Checks};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Mode, Workload};

/// Timed passes or sessions per run, at the least.
const MIN_REPEATS: usize = 3;
/// Latency samples per run, at the least: p99 needs ten beyond it.
const MIN_LATENCY_SAMPLES: usize = 1_000;
/// Upper bound on a run's timed phase, whatever else is unmet.
const MAX_TIMED: Duration = Duration::from_secs(120);
/// A live session whose sender ran further behind its schedule than this
/// measured the generator, not the monitor: its record stream is still
/// checked, but its timings are left out and another session is run. A
/// run in which more than half the sessions were late is invalid (a
/// failed check).
const MAX_GEN_LAG_MS: f64 = 100.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::by_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// Metrics in output order, with their units.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A scratch directory in the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(name: &str) -> std::io::Result<Self> {
        let dir = PathBuf::from(".perfbench-work").join(name);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run is using the parent.
        let _ = std::fs::remove_dir(".perfbench-work");
    }
}

/// What the timed phase measured, in the end-to-end metrics' terms.
#[derive(Default)]
struct EndToEnd {
    throughput_msps: Vec<f64>,
    cpu_per_signal_s: Vec<f64>,
    setup_s: Vec<f64>,
    latencies_ms: Vec<f64>,
    first_record_ms: Vec<f64>,
    drain_ms: Vec<f64>,
    /// Untraced wall time of the stage the traced run takes apart: the
    /// whole pass offline, `Pipeline::analyze` live.
    untraced_wall_s: Vec<f64>,
    pool: Vec<offline::PoolTotals>,
    /// Live sessions whose timings were kept.
    sessions: Vec<live::Session>,
    /// Live sessions left out because the generator fell behind.
    late_sessions: usize,
}

impl EndToEnd {
    fn repeats(&self) -> usize {
        self.setup_s.len()
    }
}

/// The reference: a single-threaded, untraced `run_architecture` over the
/// same file.
struct Reference {
    lines: Vec<String>,
    n_samples: usize,
    sample_rate: f64,
    signal_s: f64,
}

fn offline_phase(
    w: &Workload,
    args: &Args,
    path: &std::path::Path,
    reference: &Reference,
    checks: &mut Checks,
) -> std::io::Result<EndToEnd> {
    let mut e = EndToEnd::default();
    let start = Instant::now();
    while (e.repeats() < MIN_REPEATS
        || e.latencies_ms.len() < MIN_LATENCY_SAMPLES
        || start.elapsed().as_secs_f64() < args.seconds)
        && start.elapsed() < MAX_TIMED
    {
        let p = offline::pass(w, w.workers, path)?;
        checks.stream(
            &reference.lines,
            &p.lines,
            "timed pass against the reference",
        );
        e.throughput_msps.push(p.n_samples as f64 / p.wall_s / 1e6);
        e.cpu_per_signal_s.push(p.cpu_s / reference.signal_s);
        e.setup_s.push(p.read_s);
        e.untraced_wall_s.push(p.wall_s);
        if let (Some(first), Some(last)) = (p.latencies_ms.first(), p.latencies_ms.last()) {
            e.first_record_ms.push(*first);
            e.drain_ms.push(*last);
        }
        e.latencies_ms.extend(&p.latencies_ms);
        e.pool.extend(p.pool);
    }
    Ok(e)
}

fn live_phase(
    w: &Workload,
    args: &Args,
    path: &std::path::Path,
    reference: &Reference,
    checks: &mut Checks,
) -> std::io::Result<EndToEnd> {
    let mut e = EndToEnd::default();
    let n = reference.n_samples as u64;
    let fs = reference.sample_rate;
    let start = Instant::now();
    while (e.repeats() < MIN_REPEATS
        || e.latencies_ms.len() < MIN_LATENCY_SAMPLES
        || start.elapsed().as_secs_f64() < args.seconds)
        && start.elapsed() < MAX_TIMED
    {
        let s = live::session(w, path, n, fs)?;
        let lines: Vec<String> = s.records.iter().map(|(_, r)| r.line.clone()).collect();
        checks.stream(
            &reference.lines,
            &lines,
            "live stream against the offline stream",
        );
        checks.check(
            s.fleet.per_source.iter().map(|p| p.samples_in).sum::<u64>() == n,
            "fleet ingested every sample",
        );
        if s.lag_ms > MAX_GEN_LAG_MS {
            eprintln!(
                "perfbench: generator lag {:.1} ms over {MAX_GEN_LAG_MS} ms; session timings left out",
                s.lag_ms
            );
            e.late_sessions += 1;
            continue;
        }
        e.setup_s.push(s.setup_s);
        e.cpu_per_signal_s.push(s.cpu_s / reference.signal_s);
        e.untraced_wall_s.push(s.analyze_s);
        let last_sample_us = (n - 1) as f64 / fs * 1e6;
        if let (Some((first, _)), Some((last, _))) = (s.records.first(), s.records.last()) {
            e.first_record_ms
                .push(measure::latency_ms(s.t0, 0.0, *first));
            e.drain_ms
                .push(measure::latency_ms(s.t0, last_sample_us, *last));
            e.throughput_msps
                .push(n as f64 / (*last - s.t0).as_secs_f64() / 1e6);
        }
        e.latencies_ms.extend(
            s.records
                .iter()
                .map(|(at, r)| measure::latency_ms(s.t0, r.end_us, *at)),
        );
        e.sessions.push(s);
    }
    checks.check(
        e.late_sessions <= e.repeats(),
        &format!(
            "generator kept its schedule in at least half the sessions; {} of {} were late",
            e.late_sessions,
            e.late_sessions + e.repeats()
        ),
    );
    Ok(e)
}

/// Median, or 0 (with a failed check) when nothing was measured.
fn med(v: &[f64], what: &str, checks: &mut Checks) -> f64 {
    checks.check(!v.is_empty(), &format!("{what} measured"));
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

fn end_to_end_metrics(e: &EndToEnd, peak_rss_mb: f64, checks: &mut Checks) -> Metrics {
    let mut m = Metrics::default();
    let n = e.latencies_ms.len();
    checks.check(
        measure::highest_supported_percentile(n).is_some_and(|p| p >= 99.0),
        &format!("p99 needs ten samples beyond it; {n} latency samples"),
    );
    let (p50, p99) = if n == 0 {
        (0.0, 0.0)
    } else {
        (
            percentile(&e.latencies_ms, 50.0),
            percentile(&e.latencies_ms, 99.0),
        )
    };
    m.put(
        "throughput_msps",
        med(&e.throughput_msps, "throughput", checks),
        "Msps",
    );
    m.put(
        "cpu_per_signal_s",
        med(&e.cpu_per_signal_s, "CPU", checks),
        "s/s",
    );
    m.put("setup_s", med(&e.setup_s, "set-up", checks), "s");
    m.put("peak_rss_mb", peak_rss_mb, "MiB");
    m.put("latency_p50_ms", p50, "ms");
    m.put("latency_p99_ms", p99, "ms");
    m.put(
        "first_record_ms",
        med(&e.first_record_ms, "first record", checks),
        "ms",
    );
    m.put("drain_ms", med(&e.drain_ms, "drain", checks), "ms");
    m
}

fn per_layer_metrics(w: &Workload, t: &traced::Traced, e: &EndToEnd, miss_rate: f64) -> Metrics {
    let mut m = Metrics::default();
    let med0 = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    m.put("ether.trace.decode_s", t.decode_s, "s");
    m.put("ether.trace.bytes", t.trace_bytes as f64, "bytes");
    m.put("core.chunk.time_s", t.chunk_s, "s");
    m.put("core.chunk.count", t.chunks as f64, "count");
    m.put("core.peak.time_s", t.peak_s, "s");
    m.put("core.peak.peaks", t.peaks as f64, "count");
    m.put("core.peak.busy_fraction", t.busy_fraction, "ratio");
    for d in &t.detectors {
        m.put(format!("core.detect.{}.time_s", d.name), d.time_s, "s");
        m.put(
            format!("core.detect.{}.calls", d.name),
            d.calls as f64,
            "count",
        );
        m.put(
            format!("core.detect.{}.votes", d.name),
            d.useful as f64,
            "count",
        );
    }
    m.put("core.dispatch.time_s", t.dispatch_s, "s");
    m.put("core.dispatch.dispatches", t.dispatches as f64, "count");
    m.put(
        "core.dispatch.forwarded_fraction",
        t.forwarded_fraction,
        "ratio",
    );
    for a in &t.analyzers {
        m.put(format!("core.analyze.{}.time_s", a.name), a.time_s, "s");
        m.put(
            format!("core.analyze.{}.calls", a.name),
            a.calls as f64,
            "count",
        );
        let ratio = if a.calls == 0 {
            0.0
        } else {
            a.useful as f64 / a.calls as f64
        };
        m.put(
            format!("core.analyze.{}.decoded_ratio", a.name),
            ratio,
            "ratio",
        );
    }
    m.put("core.records.time_s", t.records_s, "s");
    m.put("core.records.bytes", t.record_bytes as f64, "bytes");

    let pool = |f: fn(&offline::PoolTotals) -> f64| med0(&e.pool.iter().map(f).collect::<Vec<_>>());
    m.put("flowgraph.pool.busy_s", pool(|p| p.busy_s), "s");
    m.put("flowgraph.pool.stall_s", pool(|p| p.stall_s), "s");
    m.put("flowgraph.pool.stolen", pool(|p| p.stolen as f64), "count");
    // Live, the untraced stage is `Pipeline::analyze`, which decodes no file.
    let traced_s = match w.mode {
        Mode::Offline => t.layer_sum_s(),
        Mode::Live => t.layer_sum_s() - t.decode_s,
    };
    let untraced_s = med0(&e.untraced_wall_s);
    m.put("flowgraph.untraced_wall_s", untraced_s, "s");
    m.put("flowgraph.traced_sum_s", traced_s, "s");
    m.put("flowgraph.unaccounted_s", untraced_s - traced_s, "s");

    let sessions =
        |f: &dyn Fn(&live::Session) -> f64| med0(&e.sessions.iter().map(f).collect::<Vec<_>>());
    let source = |s: &live::Session, f: fn(&rfd_net::SourceSnapshot) -> f64| {
        s.fleet.per_source.iter().map(f).sum::<f64>()
    };
    m.put(
        "net.send.wall_s",
        sessions(&|s| s.send.wall.as_secs_f64()),
        "s",
    );
    m.put(
        "net.send.bytes",
        sessions(&|s| s.send.bytes as f64),
        "bytes",
    );
    m.put(
        "net.send.throttles",
        sessions(&|s| s.send.throttles as f64),
        "count",
    );
    m.put(
        "net.fleet.ingest_wall_s",
        sessions(&|s| source(s, |p| p.ingest_wall_us as f64) / 1e6),
        "s",
    );
    m.put(
        "net.fleet.chunks_in",
        sessions(&|s| source(s, |p| p.chunks_in as f64)),
        "count",
    );
    m.put(
        "net.fleet.sample_gaps",
        sessions(&|s| source(s, |p| p.sample_gaps as f64)),
        "count",
    );
    m.put(
        "net.fleet.chunks_dropped",
        sessions(&|s| source(s, |p| p.chunks_dropped as f64)),
        "count",
    );
    m.put(
        "net.fleet.fanout_p99_us",
        sessions(&|s| source(s, |p| p.fanout_p99_us)),
        "us",
    );
    m.put("live.analyze_s", sessions(&|s| s.analyze_s), "s");
    m.put("live.calls", sessions(&|s| s.analyze_calls as f64), "count");
    m.put("gen.lag_ms", sessions(&|s| s.lag_ms), "ms");
    m.put("gen.late_sessions", e.late_sessions as f64, "count");
    m.put("eval.packet_miss_rate", miss_rate, "ratio");
    m
}

struct Report {
    checks: Checks,
    metrics: Metrics,
    notes: String,
}

fn run(args: &Args) -> std::io::Result<Report> {
    let w = args.workload;
    let work = WorkDir::create(&format!("{}-{}-{}", w.name, args.seed, std::process::id()))?;
    let path = work.0.join("trace.rfdt");
    let truth = workload::write_trace(&w, args.seed, &path)?;
    let utilisation = truth.utilisation();

    let mut checks = Checks::default();
    let r = offline::pass(&w, 0, &path)?;
    let miss_rate = offline::packet_miss_rate(&r.records, &truth, r.sample_rate, r.n_samples);
    checks.check(miss_rate.is_some(), "packet_miss_rate computed");
    let miss_rate = miss_rate.unwrap_or(0.0);
    let reference = Reference {
        n_samples: r.n_samples,
        sample_rate: r.sample_rate,
        signal_s: r.n_samples as f64 / r.sample_rate,
        lines: r.lines,
    };
    drop(truth);

    measure::reset_peak_rss();
    let e = match w.mode {
        Mode::Offline => offline_phase(&w, args, &path, &reference, &mut checks)?,
        Mode::Live => live_phase(&w, args, &path, &reference, &mut checks)?,
    };
    let peak_rss_mb = measure::peak_rss_mb();

    let metrics = if args.trace {
        let t = traced::run(&w, &path)?;
        checks.stream(
            &reference.lines,
            &t.lines,
            "traced run against the reference",
        );
        per_layer_metrics(&w, &t, &e, miss_rate)
    } else {
        end_to_end_metrics(&e, peak_rss_mb, &mut checks)
    };
    let notes = format!(
        "# perfbench workload={} seed={} trace={} kernel={} nproc={} workers={} \
         signal_s={} utilisation={:.3} records={} repeats={} packet_miss_rate={:.4}",
        w.name,
        args.seed,
        u8::from(args.trace),
        rfd_dsp::kernels::active().name(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        w.workers,
        reference.signal_s,
        utilisation,
        reference.lines.len(),
        e.repeats(),
        miss_rate,
    );
    Ok(Report {
        checks,
        metrics,
        notes,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N [--seconds S] [--trace 0|1]",
                workload::ALL.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, v, _) in report.metrics.0.iter_mut() {
        if !v.is_finite() {
            report.checks.check(false, &format!("{name} is finite"));
            *v = 0.0;
        }
    }
    println!("{}", report.notes);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.checks.failed == 0,
        report.checks.attempted,
        report.checks.failed,
        report.metrics.to_json()
    );
    ExitCode::SUCCESS
}
