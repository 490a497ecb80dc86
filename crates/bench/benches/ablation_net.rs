//! Ablation: live loopback ingest vs offline batch analysis.
//!
//! The net subsystem claims the live path (TraceSender → TCP → FleetServer
//! → LivePipeline) adds transport on top of — but does not change — the
//! analysis. This bench quantifies the transport tax: it replays the same
//! rendered trace (a) offline via `decode_trace` + `run_architecture` and
//! (b) over a localhost loopback at `SendRate::Max`, and reports ingest
//! throughput in Msps for both, plus the record-stream diff (which must be
//! empty — the loopback is required to be byte-identical).
//!
//! Writes `BENCH_net.json` with both throughputs, the live/offline ratio,
//! and the wire-level counters (bytes, chunks, throttle advisories).
//!
//! Run: `cargo bench -p rfd-bench --bench ablation_net`

use rfd_bench::report::BenchReport;
use rfd_bench::*;
use rfd_net::{FleetConfig, FleetServer, RecordSubscriber, SendRate, SubEvent, TraceSender};
use rfd_telemetry::json::JsonValue;
use rfdump::arch::{run_architecture, ArchConfig};
use rfdump::fleet::pipeline_factory;
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn arch_cfg(band: rfd_ether::Band) -> ArchConfig {
    let mut cfg = ArchConfig::rfdump(vec![piconet()]);
    cfg.band = band;
    cfg.telemetry = false;
    cfg.workers = 0;
    cfg
}

fn main() {
    // The mixed Wi-Fi + Bluetooth scene, rendered once and written to disk
    // the way a replayed USRP capture would be.
    let trace = mix_trace(scaled(3), scaled(8), 28.0, 9090);
    let dir = std::env::temp_dir().join("rfd-bench-net");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ablation_net.rfdt");
    rfd_ether::trace::write_trace(
        &path,
        trace.band.sample_rate,
        trace.band.center_hz,
        &trace.samples,
    )
    .unwrap();
    let n_samples = trace.samples.len() as f64;

    // --- Offline baseline: decode + analyze in-process -----------------
    let t0 = Instant::now();
    let (header, samples) = rfd_ether::trace::read_trace(&path).unwrap();
    let cfg = arch_cfg(rfd_ether::Band {
        sample_rate: header.sample_rate,
        center_hz: header.center_hz,
    });
    let offline_out = run_architecture(&cfg, &samples, header.sample_rate);
    let offline_wall = t0.elapsed();
    let offline_lines: Vec<String> = offline_out
        .records
        .iter()
        .map(|r| r.format_line())
        .collect();
    let offline_msps = n_samples / offline_wall.as_secs_f64() / 1e6;

    // --- Live loopback: TCP replay into a one-session server ----------
    let t0 = Instant::now();
    let server = FleetServer::bind(
        "127.0.0.1:0",
        FleetConfig {
            expect: Some(1),
            ..Default::default()
        },
        pipeline_factory(arch_cfg(trace.band), None, Arc::new(Mutex::new(None))),
        None,
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let run = std::thread::spawn(move || server.run().unwrap());

    let mut sub = RecordSubscriber::connect(addr).unwrap();
    let mut tx = TraceSender::connect(addr).unwrap();
    let report = tx.send_trace_file(&path, SendRate::Max, 4096).unwrap();
    tx.finish().unwrap();
    let mut live_lines = Vec::new();
    loop {
        match sub.next_event().unwrap() {
            SubEvent::Record(r) => live_lines.push(r.line),
            SubEvent::Bye => break,
            _ => {}
        }
    }
    let stats = run.join().unwrap().net;
    let live_wall = t0.elapsed();
    let live_msps = n_samples / live_wall.as_secs_f64() / 1e6;
    let ingest_msps = if stats.ingest_wall_us > 0 {
        stats.samples_in as f64 / stats.ingest_wall_us as f64
    } else {
        0.0
    };

    assert_eq!(
        live_lines, offline_lines,
        "loopback record stream must be byte-identical to offline"
    );
    assert_eq!(stats.samples_in, report.samples);
    assert_eq!(stats.chunks_dropped, 0);

    print_table(
        "Ablation — live loopback ingest vs offline batch",
        &["path", "samples", "wall", "Msps", "records"],
        &[
            vec![
                "offline".to_string(),
                format!("{}", samples.len()),
                format!("{:.3} s", offline_wall.as_secs_f64()),
                format!("{offline_msps:.2}"),
                format!("{}", offline_lines.len()),
            ],
            vec![
                "loopback".to_string(),
                format!("{}", stats.samples_in),
                format!("{:.3} s", live_wall.as_secs_f64()),
                format!("{live_msps:.2}"),
                format!("{}", live_lines.len()),
            ],
        ],
    );
    println!(
        "  ingest-only {ingest_msps:.2} Msps  |  wire {} bytes in {} chunks, {} throttle(s)  |  live/offline {:.2}x",
        report.bytes, report.chunks, report.throttles,
        live_msps / offline_msps.max(1e-12),
    );

    let mut doc = BenchReport::new("net");
    doc.push("samples", JsonValue::num(n_samples));
    doc.push("records", JsonValue::num(offline_lines.len() as f64));
    doc.push("offline_wall_s", JsonValue::num(offline_wall.as_secs_f64()));
    doc.push("offline_msps", JsonValue::num(offline_msps));
    doc.push("loopback_wall_s", JsonValue::num(live_wall.as_secs_f64()));
    doc.push("loopback_msps", JsonValue::num(live_msps));
    doc.push("ingest_msps", JsonValue::num(ingest_msps));
    doc.push(
        "loopback_over_offline",
        JsonValue::num(live_msps / offline_msps.max(1e-12)),
    );
    doc.push("wire_bytes", JsonValue::num(report.bytes as f64));
    doc.push("wire_chunks", JsonValue::num(report.chunks as f64));
    doc.push("throttles", JsonValue::num(report.throttles as f64));
    doc.push(
        "byte_identical",
        JsonValue::Bool(live_lines == offline_lines),
    );
    let out = doc.write().unwrap();
    println!("  wrote {}", out.display());
}
