//! Bounded-latency mode: the budget ↔ latency/throughput trade-off curve.
//!
//! `--latency-budget MS` closes a control loop from measured sample→record
//! tail latency to the governor's shed ladder (demodulation first, weak
//! detectors second; chunk size stays fixed). This bench
//! sweeps the budget from "never binding" down to "aggressively binding"
//! over one Wi-Fi + Bluetooth traffic mix and reports, per point:
//!
//! * **e2e latency** — p50/p99 µs out of the run's `latency.e2e_us`
//!   histogram (the same signal the governor's window watches);
//! * **throughput** — Msps over the run's wall time;
//! * **governor activity** — budget violations, shed-level escalations,
//!   and the final shed level;
//! * **identical** — whether the record stream matched the no-budget
//!   baseline byte for byte (asserted for the generous point; reported,
//!   not asserted, for binding ones — shedding may legitimately change
//!   records, and that visibility is the point of the curve).
//!
//! Writes `BENCH_latency.json`. Run:
//! `cargo bench -p rfd-bench --bench latency_budget`

use rfd_bench::report::BenchReport;
use rfd_bench::*;
use rfd_telemetry::json::JsonValue;
use rfd_telemetry::Histogram;
use rfdump::arch::{run_architecture, ArchConfig, ArchOutput};
use rfdump::governor::GovernorConfig;
use std::time::Instant;

/// Budget sweep, milliseconds. The first point is deliberately generous —
/// it must never bind, proving an unviolated budget is free in record
/// terms — and the rest descend into territory where the ladder engages.
const BUDGETS_MS: [f64; 5] = [60_000.0, 100.0, 20.0, 5.0, 1.0];

fn serialized(out: &ArchOutput) -> String {
    out.records
        .iter()
        .map(|r| r.format_line())
        .collect::<Vec<_>>()
        .join("\n")
}

/// (p50, p99) of the run's end-to-end latency histogram, µs.
fn e2e_quantiles(out: &ArchOutput) -> (f64, f64) {
    let reg = out.registry.as_ref().expect("telemetry run");
    let h = reg.histogram("latency.e2e_us", || Histogram::exponential(1.0, 1e7, 28));
    (h.quantile(0.50), h.quantile(0.99))
}

fn main() {
    let trace = mix_trace(scaled(6), scaled(18), 28.0, 909);
    let fs = trace.band.sample_rate;
    let n_samples = trace.samples.len() as f64;
    let cfg = ArchConfig {
        band: trace.band,
        noise_floor: Some(trace.noise_power),
        ..ArchConfig::rfdump(vec![piconet()])
    };

    // No-budget baseline: the record stream every point is compared to.
    let t0 = Instant::now();
    let baseline = run_architecture(&cfg, &trace.samples, fs);
    let base_wall = t0.elapsed().as_secs_f64();
    let base_msps = n_samples / base_wall / 1e6;
    let want = serialized(&baseline);
    let (base_p50, base_p99) = e2e_quantiles(&baseline);
    assert!(
        !baseline.records.is_empty(),
        "baseline produced no records — the sweep would be vacuous"
    );

    let mut rows = vec![vec![
        "none".to_string(),
        format!("{base_p50:.0}"),
        format!("{base_p99:.0}"),
        format!("{base_msps:.2}"),
        "-".into(),
        "-".into(),
        "nominal".into(),
        "yes".into(),
    ]];
    let mut points = Vec::new();
    for (i, &budget_ms) in BUDGETS_MS.iter().enumerate() {
        let budgeted = ArchConfig {
            governor: Some(GovernorConfig {
                latency_budget_us: Some(budget_ms * 1_000.0),
                // No CPU-ratio ladder (the default), so every violation
                // and shed on the curve is attributable to the latency
                // signal alone.
                ..Default::default()
            }),
            ..cfg.clone()
        };
        let t0 = Instant::now();
        let out = run_architecture(&budgeted, &trace.samples, fs);
        let wall = t0.elapsed().as_secs_f64();
        let msps = n_samples / wall / 1e6;
        let (p50, p99) = e2e_quantiles(&out);
        let lat = out.latency.clone().expect("budget run carries a report");
        let gov = out.governor.clone().expect("budget run carries a governor");
        let identical = serialized(&out) == want;
        if i == 0 {
            // The generous point is a contract, not a data point: the
            // governor armed but never walked the ladder.
            assert_eq!(lat.violations, 0, "a 60 s budget bound in a bench run");
            assert!(identical, "an unviolated budget changed the records");
        }

        rows.push(vec![
            format!("{budget_ms}"),
            format!("{p50:.0}"),
            format!("{p99:.0}"),
            format!("{msps:.2}"),
            format!("{}", lat.violations),
            format!("{}", gov.escalations),
            rfdump::governor::LEVEL_NAMES[usize::from(gov.level)].to_string(),
            if identical {
                "yes".into()
            } else {
                "NO".to_string()
            },
        ]);
        points.push(JsonValue::obj(vec![
            ("budget_ms", JsonValue::num(budget_ms)),
            ("wall_s", JsonValue::num(wall)),
            ("msps", JsonValue::num(msps)),
            ("e2e_p50_us", JsonValue::num(p50)),
            ("e2e_p99_us", JsonValue::num(p99)),
            ("violations", JsonValue::num(lat.violations as f64)),
            ("escalations", JsonValue::num(gov.escalations as f64)),
            ("shed_level", JsonValue::num(f64::from(gov.level))),
            ("records", JsonValue::num(out.records.len() as f64)),
            ("identical_records", JsonValue::Bool(identical)),
        ]));
    }

    print_table(
        "Bounded-latency mode — budget sweep over the Wi-Fi + Bluetooth mix",
        &[
            "budget (ms)",
            "p50 (us)",
            "p99 (us)",
            "Msps",
            "violations",
            "sheds",
            "level",
            "identical",
        ],
        &rows,
    );
    println!(
        "\nexpected: the generous budget is free — zero violations, records\n\
         byte-identical to the no-budget baseline. As the budget tightens\n\
         past the pipeline's natural p99, violations appear and binding\n\
         budgets shed: demodulation first, then weak detectors, trading\n\
         record completeness for latency."
    );

    let mut doc = BenchReport::new("latency");
    doc.push("samples", JsonValue::num(n_samples));
    doc.push("trace_seconds", JsonValue::num(baseline.trace_seconds));
    doc.push(
        "baseline",
        JsonValue::obj(vec![
            ("wall_s", JsonValue::num(base_wall)),
            ("msps", JsonValue::num(base_msps)),
            ("e2e_p50_us", JsonValue::num(base_p50)),
            ("e2e_p99_us", JsonValue::num(base_p99)),
            ("records", JsonValue::num(baseline.records.len() as f64)),
        ]),
    );
    doc.push("points", JsonValue::Arr(points));
    let out = doc.write().unwrap();
    println!("  wrote {}", out.display());
}
