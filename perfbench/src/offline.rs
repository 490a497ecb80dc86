//! The offline path as the CLI runs it: whole-file `read_trace`, one
//! `run_architecture`, every record formatted.

use crate::measure::process_cpu_s;
use crate::workload::{Truth, Workload};
use rfd_phy::Protocol;
use rfdump::arch::run_architecture;
use rfdump::eval::{score_detector, ClassifiedPeak, EvalOptions};
use rfdump::records::{PacketInfo, PacketRecord};
use std::path::Path;
use std::time::Instant;

/// One untraced pass over the trace file.
pub struct Pass {
    /// Record lines, as `rfdump -r` prints them.
    pub lines: Vec<String>,
    pub records: Vec<PacketRecord>,
    pub n_samples: usize,
    pub sample_rate: f64,
    /// Opening the file to the last record line formatted, s.
    pub wall_s: f64,
    /// The whole-file read (`read_trace`), s.
    pub read_s: f64,
    /// Process CPU over the pass, s.
    pub cpu_s: f64,
    /// Per record: from the end of the read (when every sample is
    /// available to analysis) to its line being formatted, ms.
    pub latencies_ms: Vec<f64>,
    /// Work-stealing pool totals (`workers >= 1` only).
    pub pool: Option<PoolTotals>,
}

/// Pool totals of a pooled run, from `ArchOutput::pool_stats`.
#[derive(Debug, Clone, Copy)]
pub struct PoolTotals {
    pub busy_s: f64,
    pub stall_s: f64,
    pub stolen: u64,
}

/// Reads and analyzes `path` with `w`'s configuration at `workers`.
pub fn pass(w: &Workload, workers: usize, path: &Path) -> std::io::Result<Pass> {
    let cpu0 = process_cpu_s();
    let t_open = Instant::now();
    let (header, samples) = rfd_ether::trace::read_trace(path)?;
    let t_read = Instant::now();
    let mut cfg = w.config(header.sample_rate, header.center_hz);
    cfg.workers = workers;
    let out = run_architecture(&cfg, &samples, header.sample_rate);
    let mut lines = Vec::with_capacity(out.records.len());
    let mut latencies_ms = Vec::with_capacity(out.records.len());
    for r in &out.records {
        lines.push(r.format_line());
        latencies_ms.push(t_read.elapsed().as_secs_f64() * 1e3);
    }
    let wall_s = t_open.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let pool = out.pool_stats.as_ref().map(|p| PoolTotals {
        busy_s: p.busy().as_secs_f64(),
        stall_s: p.workers.iter().map(|w| w.stall.as_secs_f64()).sum(),
        stolen: p.stolen(),
    });
    Ok(Pass {
        lines,
        records: out.records,
        n_samples: samples.len(),
        sample_rate: header.sample_rate,
        wall_s,
        read_s: (t_read - t_open).as_secs_f64(),
        cpu_s,
        latencies_ms,
        pool,
    })
}

/// Share of the in-band Wi-Fi and Bluetooth ground-truth transmissions that
/// no decoded record covers, collisions discounted (§5.1.5), scored by
/// `rfdump::eval`. `None` when the trace holds no such transmission.
pub fn packet_miss_rate(
    records: &[PacketRecord],
    truth: &Truth,
    sample_rate: f64,
    n_samples: usize,
) -> Option<f64> {
    let to_sample = |us: f64| (us * 1e-6 * sample_rate).max(0.0) as u64;
    let decoded: Vec<ClassifiedPeak> = records
        .iter()
        .filter(|r| !matches!(r.info, PacketInfo::DetectedOnly { .. }))
        .map(|r| ClassifiedPeak {
            protocol: r.protocol,
            start_sample: to_sample(r.start_us),
            end_sample: to_sample(r.end_us),
        })
        .collect();
    let opts = EvalOptions {
        discount_collisions: true,
        ..Default::default()
    };
    let (mut missed, mut total) = (0usize, 0usize);
    for proto in [Protocol::Wifi, Protocol::Bluetooth] {
        let r = score_detector(
            proto,
            &truth.records,
            &truth.collided,
            &decoded,
            n_samples as u64,
            opts,
        );
        missed += r.missed;
        total += r.total_true;
    }
    (total > 0).then(|| missed as f64 / total as f64)
}
