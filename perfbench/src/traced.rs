//! The traced run: the RFDump pipeline driven layer by layer through its
//! public API, in the order `run_rfdump` drives it on the single-threaded
//! scheduler, with a span around every call into a layer. Only used for
//! per-layer numbers; the end-to-end numbers come from untraced passes.

use crate::workload::Workload;
use rfd_phy::Protocol;
use rfdump::analyze::{Analyzer, BtAnalyzer, MicrowaveAnalyzer, WifiAnalyzer};
use rfdump::chunk::SampleChunk;
use rfdump::detect::{
    BtPhaseDetector, BtTimingDetector, Classification, FastDetector, MicrowaveTimingDetector,
    WifiDifsDetector, WifiPhaseDetector, WifiSifsDetector,
};
use rfdump::dispatch::{DispatchConfig, Dispatcher};
use rfdump::peak::{PeakDetector, PeakDetectorConfig};
use rfdump::records::{PacketInfo, PacketRecord};
use std::path::Path;
use std::time::Instant;

/// Busy time and work counts of one fast detector or analyzer.
#[derive(Debug, Clone, Default)]
pub struct Stage {
    /// Name without its `detect:` / `analyze:` prefix.
    pub name: String,
    pub time_s: f64,
    pub calls: u64,
    /// Votes cast (detectors) or records decoded (analyzers).
    pub useful: u64,
}

/// Everything the traced run measured.
#[derive(Debug, Default)]
pub struct Traced {
    pub lines: Vec<String>,
    pub decode_s: f64,
    pub trace_bytes: u64,
    pub chunk_s: f64,
    pub chunks: u64,
    pub peak_s: f64,
    pub peaks: u64,
    /// Share of the trace's samples inside a peak.
    pub busy_fraction: f64,
    pub detectors: Vec<Stage>,
    pub dispatch_s: f64,
    pub dispatches: u64,
    /// Share of the trace's samples forwarded to any analyzer (Table 4).
    pub forwarded_fraction: f64,
    pub analyzers: Vec<Stage>,
    pub records_s: f64,
    pub record_bytes: u64,
}

impl Traced {
    /// Sum of every layer's traced time, s.
    pub fn layer_sum_s(&self) -> f64 {
        self.decode_s
            + self.chunk_s
            + self.peak_s
            + self.detectors.iter().map(|d| d.time_s).sum::<f64>()
            + self.dispatch_s
            + self.analyzers.iter().map(|a| a.time_s).sum::<f64>()
            + self.records_s
    }
}

fn strip(name: &str) -> String {
    name.split_once(':').map_or(name, |(_, n)| n).to_string()
}

/// Times one call, adding its duration to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let v = f();
    *acc += t0.elapsed().as_secs_f64();
    v
}

/// Runs the traced pipeline over `path` with `w`'s configuration.
pub fn run(w: &Workload, path: &Path) -> std::io::Result<Traced> {
    let mut t = Traced::default();
    let (header, samples) = timed(&mut t.decode_s, || rfd_ether::trace::read_trace(path))?;
    t.trace_bytes = std::fs::metadata(path)?.len();
    let fs = header.sample_rate;
    let cfg = w.config(fs, header.center_hz);

    let chunks = timed(&mut t.chunk_s, || {
        SampleChunk::chunk_trace(&samples, fs, cfg.chunk_samples)
    });
    t.chunks = chunks.len() as u64;

    let mut peaks = Vec::new();
    timed(&mut t.peak_s, || {
        let mut det = PeakDetector::new(
            PeakDetectorConfig {
                noise_floor: cfg.noise_floor,
                ..Default::default()
            },
            fs,
        );
        for c in &chunks {
            det.push_chunk(c, &mut peaks);
        }
        det.finish(&mut peaks);
    });
    drop(chunks);
    t.peaks = peaks.len() as u64;
    let peak_samples: u64 = peaks.iter().map(|p| p.peak.len()).sum();
    t.busy_fraction = peak_samples as f64 / samples.len().max(1) as f64;

    // The default lineup of `ArchConfig::rfdump` with timing + phase
    // detectors and microwave on, in the order the pipeline builds it.
    let mut detectors: Vec<Box<dyn FastDetector>> = vec![
        Box::new(WifiSifsDetector::new()),
        Box::new(WifiDifsDetector::new()),
        Box::new(BtTimingDetector::new()),
        Box::new(MicrowaveTimingDetector::new()),
        Box::new(WifiPhaseDetector::new(fs)),
        Box::new(BtPhaseDetector::new(cfg.band.center_hz)),
    ];
    let mut analyzers: Vec<Box<dyn Analyzer>> = vec![
        Box::new(WifiAnalyzer),
        Box::new(BtAnalyzer::new(
            fs,
            cfg.band.center_hz,
            cfg.piconets.clone(),
        )),
        Box::new(MicrowaveAnalyzer),
    ];
    t.detectors = detectors
        .iter()
        .map(|d| Stage {
            name: strip(d.name()),
            ..Default::default()
        })
        .collect();
    t.analyzers = analyzers
        .iter()
        .map(|a| Stage {
            name: strip(a.name()),
            ..Default::default()
        })
        .collect();
    let ports: Vec<Protocol> = analyzers.iter().map(|a| a.protocol()).collect();
    let mut per_port: Vec<Vec<PacketRecord>> = vec![Vec::new(); ports.len()];
    let mut dispatcher = Dispatcher::new(DispatchConfig::default());

    let mut analyze = |t: &mut Traced, ds: Vec<rfdump::dispatch::Dispatch>| {
        t.dispatches += ds.len() as u64;
        for d in ds {
            for (i, proto) in ports.iter().enumerate() {
                if d.vote_for(*proto).is_none() {
                    continue;
                }
                let stage = &mut t.analyzers[i];
                let recs = timed(&mut stage.time_s, || analyzers[i].analyze(&d));
                stage.calls += 1;
                if recs
                    .iter()
                    .any(|r| !matches!(r.info, PacketInfo::DetectedOnly { .. }))
                {
                    stage.useful += 1;
                }
                per_port[i].extend(recs);
            }
        }
    };
    for pk in peaks {
        let mut votes: Vec<Classification> = Vec::new();
        for (det, stage) in detectors.iter_mut().zip(t.detectors.iter_mut()) {
            let v = timed(&mut stage.time_s, || det.on_peak(&pk));
            stage.calls += 1;
            stage.useful += v.len() as u64;
            votes.extend(v);
        }
        let ds = timed(&mut t.dispatch_s, || dispatcher.on_peak(pk, votes));
        analyze(&mut t, ds);
    }
    for det in detectors.iter_mut() {
        // Late votes have no peak to attach to; the pipeline drops them too.
        let _ = det.finish();
    }
    let ds = timed(&mut t.dispatch_s, || dispatcher.finish());
    analyze(&mut t, ds);
    let forwarded: u64 = dispatcher.stats().forwarded_samples.values().sum();
    t.forwarded_fraction = forwarded as f64 / samples.len().max(1) as f64;

    t.lines = timed(&mut t.records_s, || {
        let mut records: Vec<PacketRecord> = per_port.into_iter().flatten().collect();
        records.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        records
            .iter()
            .map(PacketRecord::format_line)
            .collect::<Vec<_>>()
    });
    t.record_bytes = t.lines.iter().map(|l| l.len() as u64 + 1).sum();
    Ok(t)
}
