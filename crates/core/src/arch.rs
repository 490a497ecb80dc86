//! The three comparable monitoring architectures (paper Figures 1 and 2,
//! evaluated in Figure 9):
//!
//! * **Naïve** — every demodulator runs over every sample: a continuous
//!   802.11 receiver plus one Bluetooth receiver per covered channel.
//! * **Naïve + energy detection** — an energy gate first discards quiet
//!   regions, then *all* demodulators process every busy region.
//! * **RFDump** — the energy-integrated peak detector feeds protocol-
//!   specific fast detectors (timing and/or phase/frequency); a dispatcher
//!   forwards only classified peaks to the per-protocol analyzers.
//!
//! Each architecture is assembled as an `rfd-flowgraph` graph so per-block
//! CPU time comes out of the same accounting machinery, and each can run
//! with or without the demodulation stage (the paper's "no demodulation"
//! curves isolate detection cost).
//!
//! Every graph is a push-fed stream ([`ArchStream`]) that begins at one
//! source block and ends at one record merge. Offline runs and the live
//! server drive the same stream; only the push sizes differ.

use crate::analyze::{Analyzer, BtAnalyzer, MicrowaveAnalyzer, WifiAnalyzer, ZigbeeAnalyzer};
use crate::chunk::{PeakBlock, SampleChunk};
use crate::detect::{
    BtFreqDetector, BtPhaseDetector, BtTimingDetector, Classification, FastDetector,
    MicrowaveTimingDetector, WifiDifsDetector, WifiPhaseDetector, WifiSifsDetector,
    ZigbeePhaseDetector, ZigbeeTimingDetector,
};
use crate::dispatch::{
    AnalysisPool, Dispatch, DispatchConfig, DispatchStats, Dispatcher, PooledAnalysis,
    QUARANTINE_STRIKES,
};
use crate::eval::ClassifiedPeak;
use crate::governor::{GovernorConfig, GovernorReport, LoadGovernor};
use crate::peak::{PeakDetector, PeakDetectorConfig};
use crate::records::{PacketInfo, PacketRecord};
use rfd_dsp::Complex32;
use rfd_ether::Band;
use rfd_fault::{Action, FaultPlan, FaultStats};
use rfd_flowgraph::sync::Mutex;
use rfd_flowgraph::{Block, BlockId, Flowgraph, Payload, RunStats, WorkStatus};
use rfd_phy::bluetooth::demod::PiconetId;
use rfd_phy::Protocol;
use rfd_telemetry::event::EventKind;
use rfd_telemetry::{Counter, Histogram, Registry};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which fast detectors the RFDump detection stage runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorSet {
    /// Timing detectors only (peak metadata).
    Timing,
    /// Phase detectors only (peak samples).
    Phase,
    /// Both timing and phase.
    TimingAndPhase,
    /// Timing + phase + FFT frequency detection.
    All,
}

/// Architecture choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchKind {
    /// All demodulators over all samples (Figure 1).
    Naive,
    /// Energy gate, then all demodulators over busy regions.
    NaiveEnergy,
    /// The RFDump architecture (Figure 2).
    RfDump(DetectorSet),
}

/// Full architecture configuration.
#[derive(Debug, Clone)]
pub struct ArchConfig {
    /// Which architecture.
    pub kind: ArchKind,
    /// Run the analysis/demodulation stage (false isolates detection cost).
    pub demodulate: bool,
    /// Monitored band.
    pub band: Band,
    /// Piconets the Bluetooth receivers acquire.
    pub piconets: Vec<PiconetId>,
    /// Fixed noise floor for the energy/peak stage (None = online).
    pub noise_floor: Option<f32>,
    /// Include the ZigBee detectors/analyzer.
    pub zigbee: bool,
    /// Include the microwave detector/analyzer.
    pub microwave: bool,
    /// Run the flowgraph on the multi-threaded scheduler (one thread per
    /// block). The paper notes this "inherent parallelism" but could not
    /// exploit it on 2009 GNU Radio; here it is a switch.
    pub threaded: bool,
    /// Collect unified telemetry (metrics registry + span trace) during the
    /// run. Off measures the pipeline's bare cost; the delta between the
    /// two settings is the observability overhead.
    pub telemetry: bool,
    /// Worker threads for the RFDump analysis stage. `0` is the
    /// single-threaded reference path (analyzers as flowgraph blocks on the
    /// scheduler thread); `N >= 1` runs them on a work-stealing pool of `N`
    /// threads with a deterministic merge, so the record output is
    /// byte-identical either way. Ignored by the naïve architectures.
    pub workers: usize,
    /// Chaos fault plan threaded through the pipeline's injection sites.
    /// The constructors default it to [`FaultPlan::ambient`] (the
    /// `RFD_FAULTS` environment variable), so a whole test suite can run
    /// under chaos without touching any call site.
    pub faults: Option<Arc<FaultPlan>>,
    /// Graceful-degradation governor (RFDump only). `None` — the default —
    /// never sheds, preserving the byte-identical determinism contract;
    /// `Some` lets the [`LoadGovernor`] shed demodulation first and weak
    /// detectors second when the pipeline falls behind real time.
    pub governor: Option<GovernorConfig>,
    /// Ingest chunk size, samples (default [`crate::CHUNK_SAMPLES`], the
    /// paper's 25 µs). The one place chunk size is decided; it holds for
    /// the whole run. A pure CPU/latency knob: the peak detector re-blocks
    /// internally at a fixed [`crate::peak::DETECT_BLOCK`], so the record
    /// stream is byte-identical at any chunk size.
    pub chunk_samples: usize,
    /// Crash-safe durability (RFDump only): journal emitted records and
    /// commit watermarks under a directory, and optionally resume from them.
    /// `None` — the default — journals nothing. See [`crate::durability`].
    pub durability: Option<crate::durability::DurabilityConfig>,
}

/// The default analysis worker count: the `RFD_WORKERS` environment
/// variable when set to a non-negative integer, else `0` (single-threaded).
/// Letting the environment pick means an entire test suite can be rerun
/// against the pool without touching any call site.
pub fn default_workers() -> usize {
    std::env::var("RFD_WORKERS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

impl ArchConfig {
    /// RFDump with both detector families on the paper's band.
    pub fn rfdump(piconets: Vec<PiconetId>) -> Self {
        Self {
            kind: ArchKind::RfDump(DetectorSet::TimingAndPhase),
            demodulate: true,
            band: Band::usrp_8mhz(),
            piconets,
            noise_floor: None,
            zigbee: false,
            microwave: true,
            threaded: false,
            telemetry: true,
            workers: default_workers(),
            faults: FaultPlan::ambient(),
            governor: None,
            chunk_samples: crate::CHUNK_SAMPLES,
            durability: None,
        }
    }

    /// The naïve baseline on the paper's band.
    pub fn naive(piconets: Vec<PiconetId>) -> Self {
        Self {
            kind: ArchKind::Naive,
            demodulate: true,
            band: Band::usrp_8mhz(),
            piconets,
            noise_floor: None,
            zigbee: false,
            microwave: false,
            threaded: false,
            telemetry: true,
            workers: default_workers(),
            faults: FaultPlan::ambient(),
            governor: None,
            chunk_samples: crate::CHUNK_SAMPLES,
            durability: None,
        }
    }
}

/// Everything an architecture run produces.
#[derive(Debug)]
pub struct ArchOutput {
    /// Packet records (decoded or detected).
    pub records: Vec<PacketRecord>,
    /// Classified peaks (detection-stage output; for naïve architectures
    /// these are synthesized from decoded packets).
    pub classified: Vec<ClassifiedPeak>,
    /// Dispatcher statistics (RFDump only).
    pub dispatch_stats: Option<DispatchStats>,
    /// Per-block CPU accounting.
    pub stats: RunStats,
    /// Trace duration in seconds.
    pub trace_seconds: f64,
    /// Sample rate of the processed trace, Hz.
    pub sample_rate: f64,
    /// The telemetry registry, when [`ArchConfig::telemetry`] was set:
    /// counters, gauges, histograms and the span trace from the run.
    pub registry: Option<Arc<Registry>>,
    /// Work-stealing pool statistics (RFDump with [`ArchConfig::workers`]
    /// ≥ 1 only): per-worker executed/stolen counts, busy and stall time.
    pub pool_stats: Option<rfd_flowgraph::pool::PoolStats>,
    /// Fault-injection counters, when [`ArchConfig::faults`] was set.
    pub faults: Option<FaultStats>,
    /// Degradation report, when [`ArchConfig::governor`] was set.
    pub governor: Option<GovernorReport>,
    /// Bounded-latency mode report, when a latency budget was set.
    pub latency: Option<crate::governor::LatencyReport>,
    /// Analyzer panics caught by the supervisor (RFDump only).
    pub panics: u64,
    /// Analyzers quarantined after repeated panics, by name (RFDump only).
    pub quarantined: Vec<String>,
    /// Durability/recovery report, when [`ArchConfig::durability`] was set.
    pub recovery: Option<crate::durability::RecoveryReport>,
}

impl ArchOutput {
    /// The paper's headline efficiency metric.
    pub fn cpu_over_realtime(&self) -> f64 {
        self.stats.total_cpu().as_secs_f64() / self.trace_seconds
    }
}

/// Runs an architecture over a whole trace: pushes it through an
/// [`ArchStream`] in [`PUMP_BATCH`]-chunk batches (one source `work` call's
/// worth, so every block sees the same calls as a run over the whole
/// trace at once) and pumps after each.
pub fn run_architecture(cfg: &ArchConfig, samples: &[Complex32], fs: f64) -> ArchOutput {
    run_architecture_with_registry(cfg, samples, fs, None)
}

/// Like [`run_architecture`], but accumulating telemetry into `shared`
/// when provided (and [`ArchConfig::telemetry`] is on) instead of a fresh
/// per-run registry. This is how `rfdump serve --metrics-addr` exposes one
/// long-lived registry across every capture session: the scrape endpoint
/// holds the same `Arc`, so counters and stage-latency histograms keep
/// accumulating while sessions come and go.
pub fn run_architecture_with_registry(
    cfg: &ArchConfig,
    samples: &[Complex32],
    fs: f64,
    shared: Option<Arc<Registry>>,
) -> ArchOutput {
    let mut stream = ArchStream::new(cfg, fs, Some(samples.len() as u64), shared);
    for batch in samples.chunks(PUMP_BATCH.saturating_mul(cfg.chunk_samples.max(1))) {
        stream.push(batch);
        stream.pump();
    }
    stream.finish()
}

/// Chunks the source cuts per `work` call. Before the stream ends it cuts
/// only whole batches, so the blocks downstream see the same `work` calls
/// whatever sizes the samples were pushed in — which keeps the naïve
/// baselines' batch-sensitive receivers identical between a live stream
/// and an offline run.
const PUMP_BATCH: usize = 64;

/// An architecture as a push-fed stream: [`push`](Self::push) samples as
/// they arrive, [`pump`](Self::pump) to run the graph over them and
/// collect the records that became final, [`finish`](Self::finish) at end
/// of stream.
///
/// Records leave through one merge stage in the stream's final order —
/// start time, then analyzer port, then per-port arrival — so the batches
/// `pump` returns concatenate to the globally sorted record stream an
/// offline run prints. RFDump releases a record once the *low watermark*
/// passes its start: the smallest of the peak detector's open-peak start,
/// the oldest peak the dispatcher still holds for retroactive votes, and
/// the oldest dispatch in flight on the analysis pool. No record still to
/// come can start earlier, so release latency is bounded by the
/// dispatcher's `hold_peaks` window. The naïve baselines and the
/// one-thread-per-block scheduler (`threaded`) have no watermark: they
/// release everything at `finish`.
pub struct ArchStream {
    fg: Flowgraph,
    feed: Arc<Mutex<Feed>>,
    /// Records the merge released, drained into `records` after each pump.
    outbox: Arc<Mutex<Vec<PacketRecord>>>,
    /// Every record released so far, in final order.
    records: Vec<PacketRecord>,
    threaded: bool,
    fs: f64,
    pushed: u64,
    samples_ctr: Option<Arc<Counter>>,
    registry: Option<Arc<Registry>>,
    faults: Option<Arc<FaultPlan>>,
    /// RFDump-only state read back at `finish` (None for the baselines).
    rfdump: Option<RfDumpParts>,
}

impl ArchStream {
    /// Builds the architecture's graph. `len` is the stream's total sample
    /// count when known up front (a trace file); it enters the durability
    /// journal's fingerprint, and a live stream passes `None`. `shared` is
    /// as in [`run_architecture_with_registry`].
    pub fn new(cfg: &ArchConfig, fs: f64, len: Option<u64>, shared: Option<Arc<Registry>>) -> Self {
        let registry = cfg
            .telemetry
            .then(|| shared.unwrap_or_else(|| Arc::new(Registry::new())));
        if let Some(reg) = &registry {
            // Which DSP kernel backend this run executes with (scrapes as
            // `rfd_kernel_backend`; values match `kernels::Backend as u8`).
            reg.gauge("kernel.backend")
                .set(i64::from(rfd_dsp::kernels::active() as u8));
        }
        let feed = Arc::new(Mutex::new(Feed::default()));
        let outbox = Arc::new(Mutex::new(Vec::new()));
        let mut fg = Flowgraph::new();
        if let Some(reg) = &registry {
            fg.set_telemetry(reg.clone());
        }
        let rfdump = match cfg.kind {
            ArchKind::Naive => {
                build_naive(&mut fg, cfg, fs, &feed, &outbox);
                None
            }
            ArchKind::NaiveEnergy => {
                build_naive_energy(&mut fg, cfg, &registry, fs, &feed, &outbox);
                None
            }
            ArchKind::RfDump(set) => Some(build_rfdump(
                &mut fg, cfg, &registry, set, fs, len, &feed, &outbox,
            )),
        };
        // Ingest stamps feed the stage-latency histograms and, in
        // bounded-latency mode, the budget loop (even with telemetry off).
        let budgeted = rfdump
            .as_ref()
            .and_then(|r| r.governor.as_ref())
            .is_some_and(|g| g.latency_budget_us().is_some());
        feed.lock().stamp = registry.is_some() || budgeted;
        Self {
            fg,
            feed,
            outbox,
            records: Vec::new(),
            threaded: cfg.threaded,
            fs,
            pushed: 0,
            samples_ctr: registry.as_ref().map(|r| r.counter("trace.samples")),
            registry,
            faults: cfg.faults.clone(),
            rfdump,
        }
    }

    /// Appends the next contiguous samples of the stream. Nothing runs until
    /// the next [`pump`](Self::pump); with telemetry or a latency budget the
    /// samples are stamped with their ingest time here.
    pub fn push(&mut self, samples: &[Complex32]) {
        self.pushed += samples.len() as u64;
        if let Some(c) = &self.samples_ctr {
            c.add(samples.len() as u64);
        }
        self.feed.lock().push(samples);
    }

    /// Runs the graph until it is quiescent and returns the records this
    /// call released, in final order. A no-op under the one-thread-per-block
    /// scheduler, which runs the whole stream at `finish`.
    pub fn pump(&mut self) -> &[PacketRecord] {
        let from = self.records.len();
        if !self.threaded {
            self.fg.pump();
            self.records.append(&mut self.outbox.lock());
        }
        &self.records[from..]
    }

    /// How many records have been released so far.
    pub fn released(&self) -> usize {
        self.records.len()
    }

    /// Ends the stream: flushes every stage and returns the run's output,
    /// whose `records` hold every record the stream released, in order.
    pub fn finish(mut self) -> ArchOutput {
        self.feed.lock().closed = true;
        let stats = if self.threaded {
            self.fg.run_threaded()
        } else {
            self.fg.pump();
            self.fg.finish()
        };
        self.records.append(&mut self.outbox.lock());
        let records = std::mem::take(&mut self.records);
        let trace_seconds = self.pushed as f64 / self.fs;
        let mut out = match self.rfdump.take() {
            Some(parts) => parts.finish(stats, records, trace_seconds, self.fs),
            None => ArchOutput {
                classified: classified_from_records(&records, self.fs),
                records,
                dispatch_stats: None,
                stats,
                trace_seconds,
                sample_rate: self.fs,
                registry: None,
                pool_stats: None,
                faults: None,
                governor: None,
                latency: None,
                panics: 0,
                quarantined: Vec::new(),
                recovery: None,
            },
        };
        out.registry = self.registry.take();
        out.faults = self.faults.as_ref().map(|p| p.snapshot());
        out
    }
}

// ---------------------------------------------------------------------------
// Shared blocks
// ---------------------------------------------------------------------------

/// Samples pushed into a stream and not yet cut into chunks.
#[derive(Default)]
struct Feed {
    buf: Vec<Complex32>,
    /// Index in `buf` of the next sample to cut.
    head: usize,
    /// Absolute sample index of `buf[head]`.
    pos: u64,
    /// Stamp pushes with their ingest time.
    stamp: bool,
    /// `(absolute end, push instant)` of each stamped push not yet fully
    /// cut; a chunk carries the stamp of the push holding its first sample.
    stamps: VecDeque<(u64, Instant)>,
    /// No more pushes: cut what is left, short final chunk included.
    closed: bool,
}

impl Feed {
    fn push(&mut self, samples: &[Complex32]) {
        self.buf.drain(..self.head);
        self.head = 0;
        self.buf.extend_from_slice(samples);
        if self.stamp {
            let end = self.pos + self.buf.len() as u64;
            self.stamps.push_back((end, Instant::now()));
        }
    }

    fn available(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Cuts the next `n` samples: (start index, samples, ingest stamp).
    fn cut(&mut self, n: usize) -> (u64, Vec<Complex32>, Option<Instant>) {
        let start = self.pos;
        while self.stamps.front().is_some_and(|&(end, _)| end <= start) {
            self.stamps.pop_front();
        }
        let samples = self.buf[self.head..self.head + n].to_vec();
        self.head += n;
        self.pos += n as u64;
        (start, samples, self.stamps.front().map(|&(_, t)| t))
    }
}

/// The push-fed source every architecture starts from: cuts the samples
/// pushed into its [`Feed`] into chunks of [`ArchConfig::chunk_samples`].
/// Chunk size never affects the record output: the peak detector
/// re-blocks internally (see [`crate::peak::DETECT_BLOCK`]).
struct PushSource {
    feed: Arc<Mutex<Feed>>,
    fs: f64,
    seq: u64,
    /// Chunk size, samples.
    size: usize,
}

impl Block for PushSource {
    fn name(&self) -> &str {
        "source:trace"
    }
    fn num_inputs(&self) -> usize {
        0
    }
    fn work(&mut self, _i: &mut [VecDeque<Payload>], outputs: &mut [Vec<Payload>]) -> WorkStatus {
        let mut feed = self.feed.lock();
        if !feed.closed && feed.available() < PUMP_BATCH.saturating_mul(self.size) {
            return WorkStatus::Again;
        }
        for _ in 0..PUMP_BATCH {
            let n = self.size.min(feed.available());
            if n == 0 {
                break;
            }
            let (start, samples, ingest) = feed.cut(n);
            outputs[0].push(Box::new(SampleChunk {
                seq: self.seq,
                start,
                samples: Arc::new(samples),
                sample_rate: self.fs,
                ingest,
            }));
            self.seq += 1;
        }
        if feed.closed && feed.available() == 0 {
            WorkStatus::Done
        } else {
            WorkStatus::Again
        }
    }
}

/// Adds the push-fed source to a graph under construction.
fn add_source(fg: &mut Flowgraph, cfg: &ArchConfig, fs: f64, feed: &Arc<Mutex<Feed>>) -> BlockId {
    fg.add(Box::new(PushSource {
        feed: feed.clone(),
        fs,
        seq: 0,
        size: cfg.chunk_samples.max(1),
    }))
}

/// Inputs to the record merge's low watermark, in absolute samples: each
/// RFDump stage upstream of the merge publishes, after every `work` call,
/// a lower bound on the peak start of any record it can still give rise
/// to. On the single-threaded scheduler the merge runs last in each sweep,
/// when every queue between these stages has drained, so the minimum is a
/// bound on every record not yet at the merge. Every store and load
/// happens on that scheduler thread, so `Relaxed` ordering suffices.
struct Watermarks {
    /// [`PeakDetector::low_watermark`].
    peak: AtomicU64,
    /// [`Dispatcher::low_watermark`] (`u64::MAX`: nothing pending).
    dispatch: AtomicU64,
    /// [`AnalysisPool::low_watermark`] (`u64::MAX`: nothing in flight).
    pool: AtomicU64,
}

impl Watermarks {
    fn new() -> Self {
        Self {
            peak: AtomicU64::new(0),
            dispatch: AtomicU64::new(u64::MAX),
            pool: AtomicU64::new(u64::MAX),
        }
    }

    fn low(&self) -> u64 {
        [&self.peak, &self.dispatch, &self.pool]
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .min()
            .expect("three inputs")
    }
}

/// A record plus its dispatch's ingest stamp, passed from the analysis
/// stage to the [`MergeBlock`]. The stamp rides in the payload — never
/// inside [`PacketRecord`] — so serialized records and record equality stay
/// byte-identical with and without telemetry.
struct StampedRecord {
    rec: PacketRecord,
    ingest: Option<Instant>,
}

impl StampedRecord {
    /// A record without an ingest stamp (the baselines' demodulators).
    fn bare(rec: PacketRecord) -> Self {
        Self { rec, ingest: None }
    }
}

/// A record the merge holds until the watermark passes its start.
struct Held {
    rec: PacketRecord,
    port: usize,
    /// Arrival order at the merge (per-port order is what the sort keys on).
    arrival: u64,
    ingest: Option<Instant>,
}

/// The record merge, the graph's only sink: one input port per analyzer
/// (or baseline demodulator). Records are journaled and counted as they
/// arrive, held until the low watermark passes their start, then released
/// sorted by start time (`total_cmp`), port and per-port arrival into the
/// stream's outbox. Records released at one watermark all start before it
/// and every later record starts at or after it, so the released batches
/// concatenate to one globally sorted stream.
struct MergeBlock {
    n_ports: usize,
    held: Vec<Held>,
    arrivals: u64,
    outbox: Arc<Mutex<Vec<PacketRecord>>>,
    /// Release before `finish` (RFDump on the sweep scheduler only).
    wm: Option<Arc<Watermarks>>,
    fs: f64,
    /// Highest watermark seen, µs (for the debug check that no record
    /// arrives behind it).
    released_below: f64,
    /// Durability: records are journaled here as they arrive, so the log is
    /// complete before the next commit (see [`crate::durability`]).
    journal: Option<Arc<crate::durability::JournalState>>,
    /// `latency.journal_us` stage histogram (time since ingest at append).
    journal_hist: Option<Arc<Histogram>>,
    /// `latency.e2e_us` end-to-end histogram (time since ingest at release).
    e2e_hist: Option<Arc<Histogram>>,
    /// `records.<protocol>` counters, one per port.
    record_counters: Option<Vec<Arc<Counter>>>,
    /// Feeds the bounded-latency control loop, when configured.
    governor: Option<Arc<LoadGovernor>>,
}

impl MergeBlock {
    fn new(n_ports: usize, outbox: &Arc<Mutex<Vec<PacketRecord>>>, fs: f64) -> Self {
        Self {
            n_ports,
            held: Vec::new(),
            arrivals: 0,
            outbox: outbox.clone(),
            wm: None,
            fs,
            released_below: f64::NEG_INFINITY,
            journal: None,
            journal_hist: None,
            e2e_hist: None,
            record_counters: None,
            governor: None,
        }
    }

    fn hold(&mut self, port: usize, rec: PacketRecord, ingest: Option<Instant>) {
        self.held.push(Held {
            rec,
            port,
            arrival: self.arrivals,
            ingest,
        });
        self.arrivals += 1;
    }

    /// Releases every held record starting before `below` µs (all of them
    /// for `None`), in final order.
    fn release(&mut self, below: Option<f64>) {
        if let Some(w) = below {
            self.released_below = self.released_below.max(w);
        }
        let due = |h: &Held| below.is_none_or(|w| h.rec.start_us < w);
        if !self.held.iter().any(due) {
            return;
        }
        self.held.sort_by(|a, b| {
            a.rec
                .start_us
                .total_cmp(&b.rec.start_us)
                .then(a.port.cmp(&b.port))
                .then(a.arrival.cmp(&b.arrival))
        });
        let n = self.held.partition_point(due);
        let mut outbox = self.outbox.lock();
        for h in self.held.drain(..n) {
            if let Some(hist) = &self.e2e_hist {
                crate::latency::record_since(hist, h.ingest);
            }
            if let Some(g) = &self.governor {
                g.record_e2e(h.ingest);
            }
            outbox.push(h.rec);
        }
        drop(outbox);
        if let Some(g) = &self.governor {
            g.latency_tick();
        }
    }
}

impl Block for MergeBlock {
    fn name(&self) -> &str {
        "sink:records"
    }
    fn num_inputs(&self) -> usize {
        self.n_ports
    }
    fn num_outputs(&self) -> usize {
        0
    }
    fn work(
        &mut self,
        inputs: &mut [VecDeque<Payload>],
        _outputs: &mut [Vec<Payload>],
    ) -> WorkStatus {
        for (port, queue) in inputs.iter_mut().enumerate() {
            while let Some(p) = queue.pop_front() {
                let StampedRecord { rec, ingest } = *p.downcast().expect("StampedRecord");
                debug_assert!(
                    rec.start_us >= self.released_below,
                    "a record starting at {} µs arrived after the merge released below {} µs",
                    rec.start_us,
                    self.released_below
                );
                if let Some(j) = &self.journal {
                    j.journal_record(port, &rec);
                    if let Some(h) = &self.journal_hist {
                        crate::latency::record_since(h, ingest);
                    }
                }
                if let Some(cs) = &self.record_counters {
                    cs[port].inc();
                }
                self.hold(port, rec, ingest);
            }
        }
        if let Some(wm) = &self.wm {
            let below = wm.low() as f64 / self.fs * 1e6;
            self.release(Some(below));
        }
        WorkStatus::Again
    }
    fn finish(&mut self, _outputs: &mut [Vec<Payload>]) {
        self.release(None);
    }
    fn pending(&self) -> bool {
        self.wm.is_some() && !self.held.is_empty()
    }
}

/// Peak detection with integrated energy filtering (the protocol-agnostic
/// stage; doubles as the energy gate of the naïve+energy baseline).
struct PeakDetectBlock {
    det: PeakDetector,
    /// `peaks.detected` counter when telemetry is on.
    peak_counter: Option<Arc<Counter>>,
    /// `latency.detect_us` stage histogram when telemetry is on.
    detect_hist: Option<Arc<Histogram>>,
    /// Publishes the detector's low watermark for the record merge.
    wm: Option<Arc<Watermarks>>,
}

impl PeakDetectBlock {
    fn new(
        cfg: &ArchConfig,
        registry: &Option<Arc<Registry>>,
        fs: f64,
        wm: Option<Arc<Watermarks>>,
    ) -> Self {
        Self {
            det: PeakDetector::new(
                PeakDetectorConfig {
                    noise_floor: cfg.noise_floor,
                    ..Default::default()
                },
                fs,
            ),
            peak_counter: registry.as_ref().map(|r| r.counter("peaks.detected")),
            detect_hist: registry
                .as_ref()
                .map(|r| crate::latency::stage_histogram(r, crate::latency::DETECT)),
            wm,
        }
    }

    fn emit(&self, peaks: Vec<crate::chunk::PeakBlock>, outputs: &mut [Vec<Payload>]) {
        if let Some(c) = &self.peak_counter {
            c.add(peaks.len() as u64);
        }
        for pk in peaks {
            if let Some(h) = &self.detect_hist {
                crate::latency::record_since(h, pk.ingest);
            }
            outputs[0].push(Box::new(pk));
        }
    }
}

impl Block for PeakDetectBlock {
    fn name(&self) -> &str {
        "detect:peak/energy"
    }
    fn work(
        &mut self,
        inputs: &mut [VecDeque<Payload>],
        outputs: &mut [Vec<Payload>],
    ) -> WorkStatus {
        let mut peaks = Vec::new();
        while let Some(p) = inputs[0].pop_front() {
            let chunk = p.downcast::<SampleChunk>().expect("SampleChunk");
            self.det.push_chunk(&chunk, &mut peaks);
        }
        self.emit(peaks, outputs);
        if let Some(wm) = &self.wm {
            wm.peak.store(self.det.low_watermark(), Ordering::Relaxed);
        }
        WorkStatus::Again
    }
    fn finish(&mut self, outputs: &mut [Vec<Payload>]) {
        let mut peaks = Vec::new();
        self.det.finish(&mut peaks);
        self.emit(peaks, outputs);
    }
}

/// Tee for sample chunks (naïve architecture fan-out).
struct ChunkTee {
    n: usize,
}

impl Block for ChunkTee {
    fn name(&self) -> &str {
        "tee:chunks"
    }
    fn num_outputs(&self) -> usize {
        self.n
    }
    fn work(
        &mut self,
        inputs: &mut [VecDeque<Payload>],
        outputs: &mut [Vec<Payload>],
    ) -> WorkStatus {
        while let Some(p) = inputs[0].pop_front() {
            let chunk = p.downcast::<SampleChunk>().expect("SampleChunk");
            for port in outputs.iter_mut() {
                port.push(Box::new((*chunk).clone()));
            }
        }
        WorkStatus::Again
    }
}

// ---------------------------------------------------------------------------
// Naïve architecture
// ---------------------------------------------------------------------------

/// Continuous 802.11 receiver over the raw stream.
struct NaiveWifiBlock {
    rx: rfd_phy::wifi::WifiRx,
    buf: Vec<Complex32>,
}

impl NaiveWifiBlock {
    const BATCH: usize = 8192;

    fn flush_results(&mut self, outputs: &mut [Vec<Payload>]) {
        for r in self.rx.take_results() {
            let start_us = r.start_chip as f64 / rfd_phy::wifi::CHIP_RATE * 1e6;
            let end_us = start_us + 192.0 + r.header.length_us as f64;
            let frame = r.frame.as_ref();
            let rec = PacketRecord {
                protocol: Protocol::Wifi,
                start_us,
                end_us,
                snr_db: f32::NAN,
                channel: None,
                info: PacketInfo::Wifi {
                    rate: r.header.rate,
                    kind: frame.map(|f| f.kind),
                    src: frame.and_then(|f| f.addr2),
                    dst: frame.map(|f| f.addr1),
                    seq: frame.map(|f| f.seq),
                    psdu_len: r.psdu.len(),
                    fcs_ok: r.fcs_ok,
                },
            };
            outputs[0].push(Box::new(StampedRecord::bare(rec)));
        }
    }
}

impl Block for NaiveWifiBlock {
    fn name(&self) -> &str {
        "demod:wifi-continuous"
    }
    fn work(
        &mut self,
        inputs: &mut [VecDeque<Payload>],
        outputs: &mut [Vec<Payload>],
    ) -> WorkStatus {
        while let Some(p) = inputs[0].pop_front() {
            let chunk = p.downcast::<SampleChunk>().expect("SampleChunk");
            self.buf.extend_from_slice(&chunk.samples);
            if self.buf.len() >= Self::BATCH {
                self.rx.process(&self.buf);
                self.buf.clear();
            }
        }
        self.flush_results(outputs);
        WorkStatus::Again
    }
    fn finish(&mut self, outputs: &mut [Vec<Payload>]) {
        let buf = std::mem::take(&mut self.buf);
        if !buf.is_empty() {
            self.rx.process(&buf);
        }
        self.flush_results(outputs);
    }
}

/// One continuous Bluetooth channel receiver over the raw stream (the
/// naïve architecture runs one of these blocks per covered channel, as in
/// the paper's Figure 1 — which also gives the multi-threaded scheduler
/// real parallelism to exploit).
struct NaiveBtChannelBlock {
    name: String,
    rx: rfd_phy::bluetooth::demod::BtChannelRx,
    fs: f64,
}

impl NaiveBtChannelBlock {
    fn record(fs: f64, r: &rfd_phy::bluetooth::demod::BtRxResult) -> PacketRecord {
        let start_us = r.start_sample as f64 / fs * 1e6;
        let dur = r
            .parsed
            .as_ref()
            .map(|p| 126.0 + p.payload.len() as f64 * 8.0)
            .unwrap_or(366.0);
        PacketRecord {
            protocol: Protocol::Bluetooth,
            start_us,
            end_us: start_us + dur,
            snr_db: f32::NAN,
            channel: Some(r.channel),
            info: PacketInfo::Bluetooth {
                lap: r.piconet.lap,
                ptype: r.parsed.as_ref().map(|p| p.ptype),
                payload_len: r.parsed.as_ref().map(|p| p.payload.len()).unwrap_or(0),
                crc_ok: r.parsed.as_ref().map(|p| p.crc_ok).unwrap_or(false),
            },
        }
    }
}

impl Block for NaiveBtChannelBlock {
    fn name(&self) -> &str {
        &self.name
    }
    fn work(
        &mut self,
        inputs: &mut [VecDeque<Payload>],
        outputs: &mut [Vec<Payload>],
    ) -> WorkStatus {
        while let Some(p) = inputs[0].pop_front() {
            let chunk = p.downcast::<SampleChunk>().expect("SampleChunk");
            self.rx.process(&chunk.samples);
        }
        for r in self.rx.take_results() {
            outputs[0].push(Box::new(StampedRecord::bare(Self::record(self.fs, &r))));
        }
        WorkStatus::Again
    }
    fn finish(&mut self, outputs: &mut [Vec<Payload>]) {
        for r in self.rx.finish() {
            outputs[0].push(Box::new(StampedRecord::bare(Self::record(self.fs, &r))));
        }
    }
}

fn build_naive(
    fg: &mut Flowgraph,
    cfg: &ArchConfig,
    fs: f64,
    feed: &Arc<Mutex<Feed>>,
    outbox: &Arc<Mutex<Vec<PacketRecord>>>,
) {
    // One demodulator block per technology/channel, as in the paper's
    // Figure 1 (1 Wi-Fi receiver + one Bluetooth receiver per covered
    // channel), each on its own merge port: Wi-Fi first, then Bluetooth in
    // channel order.
    let bt_channels: Vec<u8> = (0..rfd_phy::bluetooth::NUM_CHANNELS)
        .filter(|&ch| {
            (rfd_phy::bluetooth::hop::channel_freq_hz(ch) - cfg.band.center_hz).abs() + 0.5e6
                <= fs / 2.0
        })
        .collect();
    let src = add_source(fg, cfg, fs, feed);
    let tee = fg.add(Box::new(ChunkTee {
        n: 1 + bt_channels.len(),
    }));
    fg.connect(src, 0, tee, 0);
    let merge = fg.add(Box::new(MergeBlock::new(1 + bt_channels.len(), outbox, fs)));

    let wifi = fg.add(Box::new(NaiveWifiBlock {
        rx: rfd_phy::wifi::WifiRx::new(fs),
        buf: Vec::new(),
    }));
    fg.connect(tee, 0, wifi, 0);
    fg.connect(wifi, 0, merge, 0);

    for (i, &ch) in bt_channels.iter().enumerate() {
        let offset = rfd_phy::bluetooth::hop::channel_freq_hz(ch) - cfg.band.center_hz;
        let blk = fg.add(Box::new(NaiveBtChannelBlock {
            name: format!("demod:bt-ch{ch}-continuous"),
            rx: rfd_phy::bluetooth::demod::BtChannelRx::new(ch, fs, offset, cfg.piconets.clone()),
            fs,
        }));
        fg.connect(tee, 1 + i, blk, 0);
        fg.connect(blk, 0, merge, 1 + i);
    }
}

/// All demodulators applied to each energy-gated peak block.
struct DemodAllBlock {
    fs: f64,
    band_center_hz: f64,
    piconets: Vec<PiconetId>,
    channels: Vec<u8>,
    demodulate: bool,
}

impl Block for DemodAllBlock {
    fn name(&self) -> &str {
        "demod:all-on-busy"
    }
    fn work(
        &mut self,
        inputs: &mut [VecDeque<Payload>],
        outputs: &mut [Vec<Payload>],
    ) -> WorkStatus {
        while let Some(p) = inputs[0].pop_front() {
            let pk = p.downcast::<PeakBlock>().expect("PeakBlock");
            if !self.demodulate {
                continue;
            }
            // 802.11 demodulator.
            if let Some(rx) = rfd_phy::wifi::demodulate(&pk.samples, self.fs) {
                let frame = rx.frame.as_ref();
                outputs[0].push(Box::new(StampedRecord::bare(PacketRecord {
                    protocol: Protocol::Wifi,
                    start_us: pk.start_us(),
                    end_us: pk.end_us(),
                    snr_db: pk.peak.snr_db(),
                    channel: None,
                    info: PacketInfo::Wifi {
                        rate: rx.header.rate,
                        kind: frame.map(|f| f.kind),
                        src: frame.and_then(|f| f.addr2),
                        dst: frame.map(|f| f.addr1),
                        seq: frame.map(|f| f.seq),
                        psdu_len: rx.psdu.len(),
                        fcs_ok: rx.fcs_ok,
                    },
                })));
            }
            // Every Bluetooth channel demodulator.
            for &ch in &self.channels {
                let offset = rfd_phy::bluetooth::hop::channel_freq_hz(ch) - self.band_center_hz;
                let mut rx = rfd_phy::bluetooth::demod::BtChannelRx::new(
                    ch,
                    self.fs,
                    offset,
                    self.piconets.clone(),
                );
                rx.process(&pk.samples);
                for r in rx.finish() {
                    outputs[0].push(Box::new(StampedRecord::bare(PacketRecord {
                        protocol: Protocol::Bluetooth,
                        start_us: pk.start_us(),
                        end_us: pk.end_us(),
                        snr_db: pk.peak.snr_db(),
                        channel: Some(ch),
                        info: PacketInfo::Bluetooth {
                            lap: r.piconet.lap,
                            ptype: r.parsed.as_ref().map(|p| p.ptype),
                            payload_len: r.parsed.as_ref().map(|p| p.payload.len()).unwrap_or(0),
                            crc_ok: r.parsed.as_ref().map(|p| p.crc_ok).unwrap_or(false),
                        },
                    })));
                }
            }
        }
        WorkStatus::Again
    }
}

fn build_naive_energy(
    fg: &mut Flowgraph,
    cfg: &ArchConfig,
    registry: &Option<Arc<Registry>>,
    fs: f64,
    feed: &Arc<Mutex<Feed>>,
    outbox: &Arc<Mutex<Vec<PacketRecord>>>,
) {
    let src = add_source(fg, cfg, fs, feed);
    let peak = fg.add(Box::new(PeakDetectBlock::new(cfg, registry, fs, None)));
    let channels: Vec<u8> = (0..rfd_phy::bluetooth::NUM_CHANNELS)
        .filter(|&ch| {
            (rfd_phy::bluetooth::hop::channel_freq_hz(ch) - cfg.band.center_hz).abs() + 0.5e6
                <= fs / 2.0
        })
        .collect();
    let demod = fg.add(Box::new(DemodAllBlock {
        fs,
        band_center_hz: cfg.band.center_hz,
        piconets: cfg.piconets.clone(),
        channels,
        demodulate: cfg.demodulate,
    }));
    let merge = fg.add(Box::new(MergeBlock::new(1, outbox, fs)));
    fg.connect(src, 0, peak, 0);
    fg.connect(peak, 0, demod, 0);
    fg.connect(demod, 0, merge, 0);
}

// ---------------------------------------------------------------------------
// RFDump
// ---------------------------------------------------------------------------

/// Detection + dispatch: runs the fast-detector bank over each peak and
/// finalizes classifications. One output port per analyzer protocol.
struct DetectDispatchBlock {
    detectors: Vec<Box<dyn FastDetector>>,
    dispatcher: Dispatcher,
    /// Per-detector CPU accumulation (merged into the stats table later).
    timings: Arc<Mutex<Vec<(String, Duration)>>>,
    classified: Arc<Mutex<Vec<ClassifiedPeak>>>,
    stats_out: Arc<Mutex<Option<DispatchStats>>>,
    /// Protocol of each output port.
    ports: Vec<Protocol>,
    /// Fan-out mode: `true` clones each dispatch to one output port per
    /// matching protocol (the single-threaded graph, one analyzer block per
    /// port); `false` emits each dispatch exactly once on port 0 (the
    /// pooled graph, where the pool task runs every matching analyzer).
    fan_out: bool,
    /// Per-detector (vote counter, confidence histogram), parallel to
    /// `detectors`; empty when telemetry is off.
    det_tel: Vec<(Arc<Counter>, Arc<Histogram>)>,
    /// Chaos injection site `detect` (honours the delay actions and `kill`
    /// — the protocol-agnostic stage is never failed or shed, so `panic`
    /// and `io` rules aimed here are deliberately inert).
    faults: Option<Arc<FaultPlan>>,
    /// Degradation ladder. The detection stage is where load is observed
    /// (peak end time = signal progress) and where levels ≥ 2 shed the
    /// expensive phase/frequency detectors and raise the confidence floor.
    governor: Option<Arc<LoadGovernor>>,
    /// For governor transition spans/counters.
    registry: Option<Arc<Registry>>,
    /// `latency.dispatch_us` stage histogram when telemetry is on.
    dispatch_hist: Option<Arc<Histogram>>,
    /// Durability: this block notes every emitted dispatch sequence (the
    /// candidate commit watermark), skips forwarding dispatches the journal
    /// already holds records for, and — on the single-threaded sweep
    /// scheduler — commits at `work` entry, when everything previously
    /// emitted is known-sunk.
    journal: Option<Arc<crate::durability::JournalState>>,
    /// Publishes the dispatcher's low watermark for the record merge.
    wm: Option<Arc<Watermarks>>,
}

impl DetectDispatchBlock {
    fn publish_watermark(&self) {
        if let Some(wm) = &self.wm {
            let low = self.dispatcher.low_watermark().unwrap_or(u64::MAX);
            wm.dispatch.store(low, Ordering::Relaxed);
        }
    }

    fn route(&self, dispatches: Vec<Dispatch>, outputs: &mut [Vec<Payload>]) {
        let mut classified = self.classified.lock();
        for d in dispatches {
            for v in &d.votes {
                let (a, b) = match v.range {
                    Some(r) => r,
                    None => (d.block.peak.start, d.block.peak.end),
                };
                classified.push(ClassifiedPeak {
                    protocol: v.protocol,
                    start_sample: a,
                    end_sample: b,
                });
            }
            if let Some(j) = &self.journal {
                j.note_emitted(d.seq);
                if j.should_skip(d.seq) {
                    // Deterministic redo: this dispatch's records were
                    // recovered from the journal; detection bookkeeping
                    // above still ran so `classified` stays identical.
                    continue;
                }
            }
            if let Some(h) = &self.dispatch_hist {
                crate::latency::record_since(h, d.block.ingest);
            }
            if self.fan_out {
                for (port, proto) in self.ports.iter().enumerate() {
                    if d.vote_for(*proto).is_some() {
                        outputs[port].push(Box::new(d.clone()));
                    }
                }
            } else {
                outputs[0].push(Box::new(d));
            }
        }
    }
}

/// Name of the combined fast-detector + dispatcher block; the per-detector
/// pseudo-rows in the stats table are carved out of this block's CPU.
const DISPATCH_BLOCK_NAME: &str = "detect:fast-detectors+dispatch";

impl Block for DetectDispatchBlock {
    fn name(&self) -> &str {
        DISPATCH_BLOCK_NAME
    }
    fn num_outputs(&self) -> usize {
        if self.fan_out {
            self.ports.len()
        } else {
            1
        }
    }
    fn work(
        &mut self,
        inputs: &mut [VecDeque<Payload>],
        outputs: &mut [Vec<Payload>],
    ) -> WorkStatus {
        if let Some(j) = &self.journal {
            j.tick_commit();
        }
        while let Some(p) = inputs[0].pop_front() {
            let pk = p.downcast::<PeakBlock>().expect("PeakBlock");
            if let Some(plan) = &self.faults {
                match plan.decide("detect") {
                    Some(Action::Slow(d)) => std::thread::sleep(d),
                    Some(Action::Spin(d)) => rfd_fault::spin_for(d),
                    Some(Action::Kill) => std::process::abort(),
                    _ => {}
                }
            }
            if let Some(g) = &self.governor {
                if let Some((from, to)) = g.observe(pk.end_us()) {
                    if let Some(reg) = &self.registry {
                        reg.counter("governor.transitions").inc();
                        reg.gauge("governor.level").set(i64::from(to));
                        reg.tracer().record(
                            "governor",
                            if to > from { "degraded" } else { "recovered" },
                            Instant::now(),
                            Duration::ZERO,
                        );
                        let names = crate::governor::LEVEL_NAMES;
                        let detail = format!(
                            "{} -> {}",
                            names.get(from as usize).copied().unwrap_or("?"),
                            names.get(to as usize).copied().unwrap_or("?"),
                        );
                        reg.emit_event(
                            if to > from {
                                EventKind::GovernorShed
                            } else {
                                EventKind::GovernorRestore
                            },
                            detail,
                        );
                    }
                }
            }
            let mut votes: Vec<Classification> = Vec::new();
            {
                let mut timings = self.timings.lock();
                for (i, det) in self.detectors.iter_mut().enumerate() {
                    if let Some(g) = &self.governor {
                        if !g.detector_allowed(det.name()) {
                            g.note_shed_detector();
                            continue;
                        }
                    }
                    let t0 = Instant::now();
                    let before = votes.len();
                    votes.extend(det.on_peak(&pk));
                    timings[i].1 += t0.elapsed();
                    if let Some((counter, hist)) = self.det_tel.get(i) {
                        counter.add((votes.len() - before) as u64);
                        for v in &votes[before..] {
                            hist.record(v.confidence as f64);
                        }
                    }
                }
            }
            if let Some(floor) = self.governor.as_ref().and_then(|g| g.confidence_floor()) {
                let g = self.governor.as_ref().expect("floor implies governor");
                votes.retain(|c| {
                    let keep = c.confidence >= floor;
                    if !keep {
                        g.note_shed_vote();
                    }
                    keep
                });
            }
            let dispatches = self.dispatcher.on_peak(*pk, votes);
            self.route(dispatches, outputs);
        }
        self.publish_watermark();
        WorkStatus::Again
    }
    fn finish(&mut self, outputs: &mut [Vec<Payload>]) {
        let mut votes = Vec::new();
        for det in self.detectors.iter_mut() {
            votes.extend(det.finish());
        }
        // Late votes cannot be absorbed without a peak; flush pending.
        let _ = votes;
        let dispatches = self.dispatcher.finish();
        self.route(dispatches, outputs);
        self.publish_watermark();
        *self.stats_out.lock() = Some(self.dispatcher.stats().clone());
    }
}

/// Wraps an [`Analyzer`] as a flowgraph block, with the same supervision
/// the pooled path applies: every `analyze` call runs under `catch_unwind`,
/// and after [`QUARANTINE_STRIKES`] panics the analyzer is quarantined
/// (its dispatches dropped) while the rest of the graph keeps running.
struct AnalyzerBlock {
    analyzer: Box<dyn Analyzer>,
    demodulate: bool,
    /// Registry for per-packet decode latency spans and histogram.
    registry: Option<Arc<Registry>>,
    /// `analyze.<protocol>.latency_us` (exponential buckets, µs).
    latency: Option<Arc<Histogram>>,
    /// `latency.analyze_us` stage histogram (time since ingest).
    stage_analyze: Option<Arc<Histogram>>,
    /// Chaos injection site (the analyzer's own name).
    faults: Option<Arc<FaultPlan>>,
    /// Demodulation gate for the degradation ladder.
    governor: Option<Arc<LoadGovernor>>,
    strikes: u64,
    quarantined: bool,
    /// Run-wide panic count, shared across analyzer blocks.
    panics_out: Arc<AtomicU64>,
    /// Run-wide quarantine list, shared across analyzer blocks.
    quarantined_out: Arc<Mutex<Vec<String>>>,
    /// Durability: strike counts mirror into the checkpoint under this port.
    journal: Option<(Arc<crate::durability::JournalState>, usize)>,
}

impl AnalyzerBlock {
    #[allow(clippy::too_many_arguments)]
    fn new(
        analyzer: Box<dyn Analyzer>,
        demodulate: bool,
        registry: &Option<Arc<Registry>>,
        faults: Option<Arc<FaultPlan>>,
        governor: Option<Arc<LoadGovernor>>,
        panics_out: Arc<AtomicU64>,
        quarantined_out: Arc<Mutex<Vec<String>>>,
        initial_strikes: u64,
        journal: Option<(Arc<crate::durability::JournalState>, usize)>,
    ) -> Self {
        let latency = registry.as_ref().map(|r| {
            r.histogram(
                &format!("analyze.{}.latency_us", analyzer.protocol().name()),
                || Histogram::exponential(1.0, 1e6, 24),
            )
        });
        let stage_analyze = registry
            .as_ref()
            .map(|r| crate::latency::stage_histogram(r, crate::latency::ANALYZE));
        // Resumed supervision: an analyzer quarantined before the crash
        // stays quarantined — a crash must not reset the strike ledger.
        let quarantined = initial_strikes >= QUARANTINE_STRIKES;
        if quarantined {
            quarantined_out.lock().push(analyzer.name().to_string());
        }
        Self {
            analyzer,
            demodulate,
            registry: registry.clone(),
            latency,
            stage_analyze,
            faults,
            governor,
            strikes: initial_strikes,
            quarantined,
            panics_out,
            quarantined_out,
            journal,
        }
    }
}

impl Block for AnalyzerBlock {
    fn name(&self) -> &str {
        self.analyzer.name()
    }
    fn work(
        &mut self,
        inputs: &mut [VecDeque<Payload>],
        outputs: &mut [Vec<Payload>],
    ) -> WorkStatus {
        while let Some(p) = inputs[0].pop_front() {
            let d = p.downcast::<Dispatch>().expect("Dispatch");
            if self.quarantined {
                continue;
            }
            let demod_now = match (&self.governor, self.demodulate) {
                (Some(g), true) => {
                    let ok = g.demod_allowed();
                    if !ok {
                        g.note_shed_demod();
                    }
                    ok
                }
                _ => self.demodulate,
            };
            if demod_now {
                let t0 = Instant::now();
                let analyzer = &mut self.analyzer;
                let faults = &self.faults;
                let recs = catch_unwind(AssertUnwindSafe(|| {
                    if let Some(plan) = faults {
                        match plan.decide(analyzer.name()) {
                            Some(Action::Panic) => panic!("injected fault: {}", analyzer.name()),
                            Some(Action::Slow(dur)) => std::thread::sleep(dur),
                            Some(Action::Spin(dur)) => rfd_fault::spin_for(dur),
                            Some(Action::Kill) => std::process::abort(),
                            _ => {}
                        }
                    }
                    analyzer.analyze(&d)
                }));
                let dur = t0.elapsed();
                let recs = match recs {
                    Ok(recs) => {
                        crate::analyze::debug_assert_starts(&d, &recs, self.analyzer.name());
                        recs
                    }
                    Err(_) => {
                        self.panics_out.fetch_add(1, Ordering::Relaxed);
                        self.strikes += 1;
                        if let Some((j, port)) = &self.journal {
                            j.set_strike(*port, self.strikes);
                        }
                        if let Some(reg) = &self.registry {
                            reg.counter("analyze.panics").inc();
                        }
                        if self.strikes >= QUARANTINE_STRIKES {
                            self.quarantined = true;
                            self.quarantined_out
                                .lock()
                                .push(self.analyzer.name().to_string());
                            if let Some(reg) = &self.registry {
                                reg.counter(&format!(
                                    "analyze.{}.quarantined",
                                    self.analyzer.protocol().name()
                                ))
                                .inc();
                                reg.tracer()
                                    .record(self.analyzer.name(), "quarantine", t0, dur);
                                reg.emit_event(
                                    EventKind::Quarantine,
                                    format!(
                                        "{} after {} panics",
                                        self.analyzer.name(),
                                        self.strikes
                                    ),
                                );
                            }
                        }
                        continue;
                    }
                };
                if let Some(reg) = &self.registry {
                    reg.tracer()
                        .record(self.analyzer.name(), "analyze", t0, dur);
                }
                if let Some(h) = &self.latency {
                    h.record(dur.as_secs_f64() * 1e6);
                }
                if let Some(h) = &self.stage_analyze {
                    crate::latency::record_since(h, d.block.ingest);
                }
                for rec in recs {
                    outputs[0].push(Box::new(StampedRecord {
                        rec,
                        ingest: d.block.ingest,
                    }));
                }
            } else {
                // Detection-only: emit the tentative classification (shared
                // with the pooled path, so both modes emit identical records).
                outputs[0].push(Box::new(StampedRecord {
                    rec: crate::analyze::detected_only_record(&d, self.analyzer.protocol()),
                    ingest: d.block.ingest,
                }));
            }
        }
        WorkStatus::Again
    }
}

/// Name of the pooled analysis block; its row in the stats table carries
/// only the submit/merge bookkeeping — worker CPU is reported as one
/// pseudo-row per analyzer, under the same names the single-threaded graph
/// uses for its analyzer blocks.
const POOL_BLOCK_NAME: &str = "analyze:pool";

/// The pooled analysis stage as a flowgraph block: dispatches in, records
/// out on one port per analyzer, in the pool's deterministic merge order —
/// the same per-port sequences the single-threaded analyzer blocks emit.
struct PooledAnalyzeBlock {
    pool: Option<AnalysisPool>,
    n_ports: usize,
    result: Arc<Mutex<Option<PooledAnalysis>>>,
    /// Durability: the pool's merge watermark (offset by the recovered
    /// base) becomes the commit once the records below it are journaled.
    journal: Option<Arc<crate::durability::JournalState>>,
    /// Commit at `work` entry: on the sweep scheduler the merge has
    /// journaled everything this block emitted in earlier sweeps by then.
    /// The one-thread-per-block scheduler has no such barrier and commits
    /// only at the end of the run.
    sweep_commits: bool,
    wm: Option<Arc<Watermarks>>,
}

impl PooledAnalyzeBlock {
    /// Journals a commit at the pool's merge watermark: submissions are the
    /// dense dispatch sequence minus the recovered prefix, so pool-local
    /// merge position `k` means absolute dispatch `base + k` is durable.
    fn commit_merged(&self) {
        let (Some(j), Some(pool)) = (&self.journal, self.pool.as_ref()) else {
            return;
        };
        j.set_strikes(&pool.strike_counts());
        j.commit(j.base() + pool.merged_seq());
    }

    fn emit(recs: Vec<(usize, PacketRecord, Option<Instant>)>, outputs: &mut [Vec<Payload>]) {
        for (port, rec, ingest) in recs {
            outputs[port].push(Box::new(StampedRecord { rec, ingest }));
        }
    }
}

impl Block for PooledAnalyzeBlock {
    fn name(&self) -> &str {
        POOL_BLOCK_NAME
    }
    fn num_outputs(&self) -> usize {
        self.n_ports
    }
    fn work(
        &mut self,
        inputs: &mut [VecDeque<Payload>],
        outputs: &mut [Vec<Payload>],
    ) -> WorkStatus {
        if self.sweep_commits {
            self.commit_merged();
        }
        let pool = self.pool.as_mut().expect("pool lives until finish");
        while let Some(p) = inputs[0].pop_front() {
            let d = p.downcast::<Dispatch>().expect("Dispatch");
            // Blocks when the injector is full: backpressure toward the
            // detection stage (and, through it, the trace reader).
            pool.submit(*d);
        }
        Self::emit(pool.drain_ordered(), outputs);
        if let Some(wm) = &self.wm {
            wm.pool
                .store(pool.low_watermark().unwrap_or(u64::MAX), Ordering::Relaxed);
        }
        WorkStatus::Again
    }
    fn finish(&mut self, outputs: &mut [Vec<Payload>]) {
        let pool = self.pool.take().expect("finish called exactly once");
        let (rest, result) = pool.finish();
        Self::emit(rest, outputs);
        *self.result.lock() = Some(result);
        if let Some(wm) = &self.wm {
            wm.pool.store(u64::MAX, Ordering::Relaxed);
        }
    }
    fn pending(&self) -> bool {
        self.pool
            .as_ref()
            .is_some_and(|p| p.low_watermark().is_some())
    }
}

/// The analyzer lineup for an RFDump run, in output-port order. Both the
/// single-threaded graph and every pool worker build their lineup through
/// this one function, so the per-port analyzers — and therefore the records
/// they emit — cannot diverge between modes.
fn make_analyzers(cfg: &ArchConfig, fs: f64) -> Vec<Box<dyn Analyzer>> {
    let mut analyzers: Vec<Box<dyn Analyzer>> = vec![
        Box::new(WifiAnalyzer),
        Box::new(BtAnalyzer::new(
            fs,
            cfg.band.center_hz,
            cfg.piconets.clone(),
        )),
    ];
    if cfg.zigbee {
        analyzers.push(Box::new(ZigbeeAnalyzer::new(
            cfg.band.center_hz,
            cfg.band.center_hz,
        )));
    }
    if cfg.microwave {
        analyzers.push(Box::new(MicrowaveAnalyzer));
    }
    analyzers
}

fn build_detectors(cfg: &ArchConfig, set: DetectorSet, fs: f64) -> Vec<Box<dyn FastDetector>> {
    let timing = matches!(
        set,
        DetectorSet::Timing | DetectorSet::TimingAndPhase | DetectorSet::All
    );
    let phase = matches!(
        set,
        DetectorSet::Phase | DetectorSet::TimingAndPhase | DetectorSet::All
    );
    let freq = matches!(set, DetectorSet::All);
    let mut v: Vec<Box<dyn FastDetector>> = Vec::new();
    if timing {
        v.push(Box::new(WifiSifsDetector::new()));
        v.push(Box::new(WifiDifsDetector::new()));
        v.push(Box::new(BtTimingDetector::new()));
        if cfg.microwave {
            v.push(Box::new(MicrowaveTimingDetector::new()));
        }
        if cfg.zigbee {
            v.push(Box::new(ZigbeeTimingDetector::new()));
        }
    }
    if phase {
        v.push(Box::new(WifiPhaseDetector::new(fs)));
        v.push(Box::new(BtPhaseDetector::new(cfg.band.center_hz)));
        if cfg.zigbee {
            v.push(Box::new(ZigbeePhaseDetector::new()));
        }
    }
    if freq {
        v.push(Box::new(BtFreqDetector::new(fs, cfg.band.center_hz)));
    }
    v
}

/// RFDump state shared with the graph's blocks and read back when the
/// stream finishes.
struct RfDumpParts {
    pooled: bool,
    timings: Arc<Mutex<Vec<(String, Duration)>>>,
    classified: Arc<Mutex<Vec<ClassifiedPeak>>>,
    dstats: Arc<Mutex<Option<DispatchStats>>>,
    pool_result: Arc<Mutex<Option<PooledAnalysis>>>,
    az_panics: Arc<AtomicU64>,
    az_quarantined: Arc<Mutex<Vec<String>>>,
    governor: Option<Arc<LoadGovernor>>,
    journal: Option<Arc<crate::durability::JournalState>>,
}

#[allow(clippy::too_many_arguments)]
fn build_rfdump(
    fg: &mut Flowgraph,
    cfg: &ArchConfig,
    registry: &Option<Arc<Registry>>,
    set: DetectorSet,
    fs: f64,
    len: Option<u64>,
    feed: &Arc<Mutex<Feed>>,
    outbox: &Arc<Mutex<Vec<PacketRecord>>>,
) -> RfDumpParts {
    // Analyzer lineup.
    let analyzers = make_analyzers(cfg, fs);
    let ports: Vec<Protocol> = analyzers.iter().map(|a| a.protocol()).collect();
    let pooled = cfg.workers > 0;
    let governor = cfg.governor.map(|g| Arc::new(LoadGovernor::new(g)));
    if let (Some(g), Some(reg)) = (&governor, registry) {
        g.set_registry(reg.clone());
    }

    // Crash-safe durability: open (or recover) the journal before the graph
    // is built, so recovered record streams can seed the merge and the
    // recovered commit watermark can gate dispatch forwarding. An IO error
    // here degrades to a non-durable run rather than failing it.
    let mut recovered = None;
    let journal = cfg.durability.as_ref().and_then(|d| {
        // A live stream's length is unknown up front: fingerprint it as
        // unbounded.
        let fingerprint = crate::durability::config_fingerprint(cfg, len.unwrap_or(u64::MAX), fs);
        // Intermediate sweep commits are only sound on the single-threaded
        // scheduler; the pooled block commits on its own (see below).
        let single_commit = !pooled && !cfg.threaded;
        match crate::durability::JournalState::prepare(
            d,
            &fingerprint,
            ports.len(),
            single_commit,
            governor.clone(),
            cfg.faults.clone(),
            registry.clone(),
        ) {
            Ok((js, rec)) => {
                recovered = rec;
                Some(js)
            }
            Err(e) => {
                eprintln!("rfdump: journaling disabled: {e}");
                None
            }
        }
    });
    if let (Some(g), Some(r)) = (&governor, &recovered) {
        g.restore_level(r.governor_level);
    }

    let detectors = build_detectors(cfg, set, fs);
    let timings = Arc::new(Mutex::new(
        detectors
            .iter()
            .map(|d| (d.name().to_string(), Duration::ZERO))
            .collect::<Vec<_>>(),
    ));
    let classified = Arc::new(Mutex::new(Vec::new()));
    let dstats = Arc::new(Mutex::new(None));

    // Per-detector vote counters and confidence histograms.
    let det_tel: Vec<(Arc<Counter>, Arc<Histogram>)> = match registry {
        Some(reg) => detectors
            .iter()
            .map(|d| {
                (
                    reg.counter(&format!("detector.{}.votes", d.name())),
                    reg.histogram(&format!("detector.{}.confidence", d.name()), || {
                        Histogram::linear(0.0, 1.0, 20)
                    }),
                )
            })
            .collect(),
        None => Vec::new(),
    };
    let dispatcher = match registry {
        Some(reg) => Dispatcher::with_telemetry(DispatchConfig::default(), reg),
        None => Dispatcher::new(DispatchConfig::default()),
    };

    // The low watermark exists only where the sweep scheduler orders the
    // merge after every stage that publishes into it.
    let wm = (!cfg.threaded).then(|| Arc::new(Watermarks::new()));
    let src = add_source(fg, cfg, fs, feed);
    let peak = fg.add(Box::new(PeakDetectBlock::new(
        cfg,
        registry,
        fs,
        wm.clone(),
    )));
    let detect = fg.add(Box::new(DetectDispatchBlock {
        detectors,
        dispatcher,
        timings: timings.clone(),
        classified: classified.clone(),
        stats_out: dstats.clone(),
        ports: ports.clone(),
        fan_out: !pooled,
        det_tel,
        faults: cfg.faults.clone(),
        governor: governor.clone(),
        registry: registry.clone(),
        dispatch_hist: registry
            .as_ref()
            .map(|r| crate::latency::stage_histogram(r, crate::latency::DISPATCH)),
        journal: journal.clone(),
        wm: wm.clone(),
    }));
    fg.connect(src, 0, peak, 0);
    fg.connect(peak, 0, detect, 0);

    // The merge: stage-latency histograms and per-protocol record counters
    // on telemetry runs (see `crate::latency` for the stamp points), and
    // the recovered per-port record streams, exactly where the crashed run
    // left them.
    let mut merge = MergeBlock::new(ports.len(), outbox, fs);
    merge.wm = wm.clone();
    merge.journal = journal.clone();
    merge.journal_hist = registry
        .as_ref()
        .filter(|_| journal.is_some())
        .map(|r| crate::latency::stage_histogram(r, crate::latency::JOURNAL));
    merge.e2e_hist = registry
        .as_ref()
        .map(|r| crate::latency::stage_histogram(r, crate::latency::E2E));
    merge.record_counters = registry.as_ref().map(|r| {
        ports
            .iter()
            .map(|p| r.counter(&format!("records.{}", p.name())))
            .collect()
    });
    merge.governor = governor.clone();
    if let Some(r) = recovered.as_mut() {
        for (port, recs) in std::mem::take(&mut r.per_port).into_iter().enumerate() {
            for rec in recs {
                merge.hold(port, rec, None);
            }
        }
    }
    let merge = fg.add(Box::new(merge));

    let pool_result = Arc::new(Mutex::new(None));
    let az_panics = Arc::new(AtomicU64::new(0));
    let az_quarantined = Arc::new(Mutex::new(Vec::new()));
    if pooled {
        drop(analyzers); // pool workers build their own lineups
        let factory_cfg = cfg.clone();
        let pool = AnalysisPool::new(
            cfg.workers,
            move || make_analyzers(&factory_cfg, fs),
            cfg.demodulate,
            registry.clone(),
            cfg.faults.clone(),
            governor.clone(),
        );
        if let Some(r) = &recovered {
            pool.restore_supervision(&r.strikes);
        }
        let blk = fg.add(Box::new(PooledAnalyzeBlock {
            pool: Some(pool),
            n_ports: ports.len(),
            result: pool_result.clone(),
            journal: journal.clone(),
            sweep_commits: !cfg.threaded,
            wm,
        }));
        fg.connect(detect, 0, blk, 0);
        for port in 0..ports.len() {
            fg.connect(blk, port, merge, port);
        }
    } else {
        for (i, az) in analyzers.into_iter().enumerate() {
            let initial_strikes = recovered
                .as_ref()
                .and_then(|r| r.strikes.get(i).copied())
                .unwrap_or(0);
            let blk = fg.add(Box::new(AnalyzerBlock::new(
                az,
                cfg.demodulate,
                registry,
                cfg.faults.clone(),
                governor.clone(),
                az_panics.clone(),
                az_quarantined.clone(),
                initial_strikes,
                journal.as_ref().map(|j| (j.clone(), i)),
            )));
            fg.connect(detect, i, blk, 0);
            fg.connect(blk, 0, merge, i);
        }
    }
    RfDumpParts {
        pooled,
        timings,
        classified,
        dstats,
        pool_result,
        az_panics,
        az_quarantined,
        governor,
        journal,
    }
}

impl RfDumpParts {
    fn finish(
        self,
        mut stats: RunStats,
        records: Vec<PacketRecord>,
        trace_seconds: f64,
        fs: f64,
    ) -> ArchOutput {
        // Everything emitted is now merged and journaled: commit it,
        // checkpoint, and make the journal durable before reporting.
        if let Some(j) = &self.journal {
            j.finalize_run();
        }
        // Break out per-detector timings as pseudo-blocks. Their CPU was spent
        // inside the dispatch block's `work()` and is already counted there, so
        // move it out of that row rather than adding it twice — `total_cpu()`
        // must stay <= wall on a single thread.
        let detector_cpu: Duration = self.timings.lock().iter().map(|(_, cpu)| *cpu).sum();
        if let Some(b) = stats
            .blocks
            .iter_mut()
            .find(|b| b.name == DISPATCH_BLOCK_NAME)
        {
            b.cpu = b.cpu.saturating_sub(detector_cpu);
        }
        for (name, cpu) in self.timings.lock().iter() {
            stats.blocks.push(rfd_flowgraph::BlockStats {
                name: name.clone(),
                cpu: *cpu,
                items_in: 0,
                items_out: 0,
            });
        }

        // Pooled runs: surface worker CPU as one pseudo-row per analyzer, under
        // the same names the single-threaded analyzer blocks use, so stage and
        // per-analyzer accounting is comparable across modes. The pool block's
        // own row spent most of its measured time *blocked* on submit/join while
        // workers ran that same analyzer CPU, so carve the analyzer total out of
        // it (same saturating treatment as the detector timings above).
        let mut pool_stats = None;
        let mut panics = self.az_panics.load(Ordering::Relaxed);
        let mut quarantined = self.az_quarantined.lock().clone();
        if self.pooled {
            let result = self.pool_result.lock().take().expect("pooled run finished");
            let analyzer_cpu: Duration = result.analyzers.iter().map(|a| a.cpu).sum();
            if let Some(b) = stats.blocks.iter_mut().find(|b| b.name == POOL_BLOCK_NAME) {
                b.cpu = b.cpu.saturating_sub(analyzer_cpu);
            }
            for a in &result.analyzers {
                stats.blocks.push(rfd_flowgraph::BlockStats {
                    name: a.name.clone(),
                    cpu: a.cpu,
                    items_in: a.items_in,
                    items_out: a.items_out,
                });
            }
            panics = result.panics;
            quarantined = result.quarantined.clone();
            pool_stats = Some(result.pool);
        }

        let classified = Arc::try_unwrap(self.classified)
            .map(|m| m.into_inner())
            .unwrap_or_else(|arc| arc.lock().clone());
        let dispatch_stats = self.dstats.lock().clone();
        ArchOutput {
            records,
            classified,
            dispatch_stats,
            stats,
            trace_seconds,
            sample_rate: fs,
            registry: None,
            pool_stats,
            faults: None,
            governor: self.governor.as_ref().map(|g| g.report()),
            latency: self.governor.as_ref().and_then(|g| g.latency_report()),
            panics,
            quarantined,
            recovery: self.journal.as_ref().map(|j| j.report()),
        }
    }
}

/// Synthesizes classified peaks from decoded records (for the naïve
/// baselines, whose only "classification" is successful demodulation).
fn classified_from_records(records: &[PacketRecord], fs: f64) -> Vec<ClassifiedPeak> {
    records
        .iter()
        .map(|r| ClassifiedPeak {
            protocol: r.protocol,
            start_sample: (r.start_us * 1e-6 * fs).max(0.0) as u64,
            end_sample: (r.end_us * 1e-6 * fs).max(0.0) as u64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfd_ether::scene::Scene;
    use rfd_mac::{L2PingConfig, L2PingSim};

    const LAP: u32 = 0x9E8B33;
    const UAP: u8 = 0x47;

    fn piconets() -> Vec<PiconetId> {
        vec![PiconetId { lap: LAP, uap: UAP }]
    }

    /// A short mixed trace: a few wifi pings + a few l2pings.
    fn mixed_trace() -> rfd_ether::scene::EtherTrace {
        let mut wifi = rfd_mac::WifiDcfSim::new(rfd_mac::DcfConfig::default());
        wifi.queue_ping_flow(1, 2, 3, 120, 9_000.0, 0.0);
        let wifi_ev = wifi.run();
        let mut bt = L2PingSim::new(L2PingConfig {
            count: 12,
            ptype: rfd_phy::bluetooth::packet::BtPacketType::Dh1,
            size_base: 20,
            size_span: 7,
            gap_slots: 2,
            ..Default::default()
        });
        let bt_ev = bt.run();
        let events = rfd_mac::merge_schedules(vec![wifi_ev, bt_ev]);
        let horizon = events.iter().map(|e| e.end_us()).fold(0.0, f64::max) + 500.0;
        let mut scene = Scene::new(1e-4, 77);
        for n in 0..16 {
            scene.set_node(n, 0.0, 0.0);
        }
        scene.render(&events, horizon)
    }

    fn rec(start_us: f64, protocol: Protocol) -> PacketRecord {
        PacketRecord {
            protocol,
            start_us,
            end_us: start_us + 100.0,
            snr_db: 20.0,
            channel: None,
            info: PacketInfo::DetectedOnly { confidence: 0.9 },
        }
    }

    fn record_payload(r: PacketRecord) -> Payload {
        Box::new(StampedRecord::bare(r))
    }

    #[test]
    fn merge_releases_below_the_watermark_in_final_order() {
        let outbox = Arc::new(Mutex::new(Vec::new()));
        let wm = Arc::new(Watermarks::new());
        let mut merge = MergeBlock::new(2, &outbox, 1e6);
        merge.wm = Some(wm.clone());
        // 1 sample = 1 µs at 1 Msps.
        wm.peak.store(250, Ordering::Relaxed);
        let mut inputs = vec![VecDeque::new(), VecDeque::new()];
        inputs[1].push_back(record_payload(rec(100.0, Protocol::Bluetooth)));
        inputs[0].push_back(record_payload(rec(300.0, Protocol::Wifi)));
        inputs[0].push_back(record_payload(rec(100.0, Protocol::Wifi)));
        inputs[1].push_back(record_payload(rec(50.0, Protocol::Bluetooth)));
        merge.work(&mut inputs, &mut []);
        let starts = |v: &[PacketRecord]| -> Vec<(f64, Protocol)> {
            v.iter().map(|r| (r.start_us, r.protocol)).collect()
        };
        // Start, then port (wifi is port 0); the 300 µs record waits.
        assert_eq!(
            starts(&outbox.lock()),
            vec![
                (50.0, Protocol::Bluetooth),
                (100.0, Protocol::Wifi),
                (100.0, Protocol::Bluetooth)
            ]
        );
        assert!(merge.pending());
        merge.finish(&mut []);
        assert_eq!(outbox.lock().len(), 4);
        assert_eq!(outbox.lock()[3].start_us, 300.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "arrived after the merge released below")]
    fn merge_asserts_no_record_arrives_behind_the_watermark() {
        let outbox = Arc::new(Mutex::new(Vec::new()));
        let wm = Arc::new(Watermarks::new());
        let mut merge = MergeBlock::new(1, &outbox, 1e6);
        merge.wm = Some(wm.clone());
        wm.peak.store(500, Ordering::Relaxed);
        let mut inputs = vec![VecDeque::new()];
        merge.work(&mut inputs, &mut []);
        inputs[0].push_back(record_payload(rec(400.0, Protocol::Wifi)));
        merge.work(&mut inputs, &mut []);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "starting before its dispatch's block start")]
    fn analyzers_may_not_emit_records_before_their_dispatch() {
        /// Emits a record 1 ms before the peak it was handed.
        struct Early;
        impl Analyzer for Early {
            fn name(&self) -> &str {
                "analyze:early"
            }
            fn protocol(&self) -> Protocol {
                Protocol::Wifi
            }
            fn analyze(&mut self, d: &Dispatch) -> Vec<PacketRecord> {
                vec![rec(d.block.start_us() - 1_000.0, Protocol::Wifi)]
            }
        }
        let mut blk = AnalyzerBlock::new(
            Box::new(Early),
            true,
            &None,
            None,
            None,
            Arc::new(AtomicU64::new(0)),
            Arc::new(Mutex::new(Vec::new())),
            0,
            None,
        );
        let d = Dispatch {
            seq: 0,
            block: PeakBlock {
                peak: crate::chunk::Peak {
                    id: 0,
                    start: 8_000,
                    end: 9_000,
                    mean_power: 1.0,
                    noise_floor: 1e-4,
                },
                samples: Arc::new(vec![Complex32::ZERO; 1_080]),
                sample_start: 7_960,
                sample_rate: 8e6,
                ingest: None,
            },
            votes: vec![crate::dispatch::Vote {
                protocol: Protocol::Wifi,
                confidence: 0.9,
                channel: None,
                range: None,
            }],
        };
        let mut inputs = vec![VecDeque::from([Box::new(d) as Payload])];
        blk.work(&mut inputs, &mut [Vec::new()]);
    }

    #[test]
    fn rfdump_classifies_wifi_and_bluetooth() {
        let trace = mixed_trace();
        let cfg = ArchConfig::rfdump(piconets());
        let out = run_architecture(&cfg, &trace.samples, trace.band.sample_rate);
        let wifi_found = out
            .classified
            .iter()
            .filter(|c| c.protocol == Protocol::Wifi)
            .count();
        let bt_found = out
            .classified
            .iter()
            .filter(|c| c.protocol == Protocol::Bluetooth)
            .count();
        // 3 ping exchanges = 12 wifi packets (req+rep+2 acks each).
        assert!(wifi_found >= 9, "wifi classified {wifi_found}");
        let bt_inband = trace
            .truth
            .iter()
            .filter(|t| t.protocol == Protocol::Bluetooth && t.in_band)
            .count();
        assert!(
            bt_found + 1 >= bt_inband,
            "bt classified {bt_found} of {bt_inband} in-band"
        );
        // Demodulated records decode real frames.
        let decoded_wifi = out
            .records
            .iter()
            .filter(|r| matches!(r.info, PacketInfo::Wifi { fcs_ok: true, .. }))
            .count();
        assert!(decoded_wifi >= 9, "decoded {decoded_wifi} wifi frames");
        assert!(out.dispatch_stats.is_some());
    }

    #[test]
    fn telemetry_registry_captures_the_pipeline() {
        let trace = mixed_trace();
        let cfg = ArchConfig::rfdump(piconets());
        let out = run_architecture(&cfg, &trace.samples, trace.band.sample_rate);
        let reg = out.registry.as_ref().expect("telemetry on by default");
        let snap = reg.snapshot();
        // The peak stage counted peaks and the dispatcher mirrored stats.
        assert_eq!(snap.counters["trace.samples"], trace.samples.len() as u64);
        let ds = out.dispatch_stats.as_ref().unwrap();
        assert_eq!(snap.counters["peaks.detected"], ds.total_peaks);
        assert_eq!(snap.counters["dispatch.total_peaks"], ds.total_peaks);
        // Every detector has a vote counter and confidence histogram.
        for name in ["detect:wifi-sifs-timing", "detect:bt-slot-timing"] {
            assert!(
                snap.counters
                    .contains_key(&format!("detector.{name}.votes")),
                "missing vote counter for {name}"
            );
            assert!(
                snap.histograms
                    .contains_key(&format!("detector.{name}.confidence")),
                "missing confidence histogram for {name}"
            );
        }
        // Scheduler metrics and analyzer latency histograms are present.
        assert!(snap.counters["flowgraph.runs"] >= 1);
        assert!(snap.histograms["analyze.802.11.latency_us"].count > 0);
        // Spans were recorded for analyzer work.
        assert!(reg.tracer().events().iter().any(|e| e.cat == "analyze"));

        // With telemetry off, no registry is produced.
        let mut cfg2 = ArchConfig::rfdump(piconets());
        cfg2.telemetry = false;
        let out2 = run_architecture(&cfg2, &trace.samples, trace.band.sample_rate);
        assert!(out2.registry.is_none());
    }

    #[test]
    fn stats_json_round_trips_for_a_real_run() {
        let trace = mixed_trace();
        let cfg = ArchConfig::rfdump(piconets());
        let out = run_architecture(&cfg, &trace.samples, trace.band.sample_rate);
        let text = crate::stats::stats_json(&out).to_json();
        let doc = rfd_telemetry::json::parse(&text).expect("valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("rfd-stats"));
        let blocks = doc.get("blocks").unwrap().as_arr().unwrap();
        assert!(
            blocks.len() >= 4,
            "expected full pipeline, got {}",
            blocks.len()
        );
        assert!(doc.get("stages").unwrap().get("detect").is_some());
        assert!(doc.get("dispatch").unwrap().get("per_protocol").is_some());
    }

    #[test]
    fn naive_decodes_the_same_trace() {
        let trace = mixed_trace();
        let cfg = ArchConfig::naive(piconets());
        let out = run_architecture(&cfg, &trace.samples, trace.band.sample_rate);
        let wifi_ok = out
            .records
            .iter()
            .filter(|r| matches!(r.info, PacketInfo::Wifi { fcs_ok: true, .. }))
            .count();
        assert!(wifi_ok >= 10, "naive decoded {wifi_ok} wifi");
        let bt_ok = out
            .records
            .iter()
            .filter(|r| matches!(r.info, PacketInfo::Bluetooth { crc_ok: true, .. }))
            .count();
        let bt_inband = trace
            .truth
            .iter()
            .filter(|t| t.protocol == Protocol::Bluetooth && t.in_band)
            .count();
        assert!(
            bt_ok + 1 >= bt_inband,
            "naive decoded {bt_ok}/{bt_inband} bt"
        );
    }

    #[test]
    fn rfdump_is_cheaper_than_naive() {
        let trace = mixed_trace();
        let naive = run_architecture(&ArchConfig::naive(piconets()), &trace.samples, 8e6);
        let rfdump = run_architecture(&ArchConfig::rfdump(piconets()), &trace.samples, 8e6);
        let a = naive.cpu_over_realtime();
        let b = rfdump.cpu_over_realtime();
        assert!(
            b < a,
            "RFDump ({b:.3}x) must beat naive ({a:.3}x) on a mostly-idle trace"
        );
    }

    #[test]
    fn detection_only_is_cheaper_than_with_demod() {
        let trace = mixed_trace();
        let mut cfg = ArchConfig::rfdump(piconets());
        let with = run_architecture(&cfg, &trace.samples, 8e6);
        cfg.demodulate = false;
        let without = run_architecture(&cfg, &trace.samples, 8e6);
        assert!(without.cpu_over_realtime() <= with.cpu_over_realtime());
        // Detection-only still yields records.
        assert!(without
            .records
            .iter()
            .all(|r| matches!(r.info, PacketInfo::DetectedOnly { .. })));
        assert!(!without.records.is_empty());
    }

    #[test]
    fn naive_energy_sits_between() {
        let trace = mixed_trace();
        let naive = run_architecture(&ArchConfig::naive(piconets()), &trace.samples, 8e6);
        let mut cfg = ArchConfig::naive(piconets());
        cfg.kind = ArchKind::NaiveEnergy;
        let gated = run_architecture(&cfg, &trace.samples, 8e6);
        assert!(
            gated.cpu_over_realtime() < naive.cpu_over_realtime(),
            "energy gating must help on an idle-heavy trace"
        );
        let wifi_ok = gated
            .records
            .iter()
            .filter(|r| matches!(r.info, PacketInfo::Wifi { fcs_ok: true, .. }))
            .count();
        assert!(wifi_ok >= 9, "gated naive decoded {wifi_ok} wifi");
    }
}
