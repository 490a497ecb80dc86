//! The live analysis pipeline: the glue that lets `rfd_net`'s ingest
//! server stream each source through the full architecture.
//!
//! `rfd-net` is deliberately ignorant of the analysis stack (it only knows
//! the [`rfd_net::Pipeline`] trait); this module closes the loop by pushing
//! each call's samples into an [`ArchStream`] built with the stream's own
//! band parameters and returning the records the stream released. Records
//! are rendered with the same
//! [`PacketRecord::format_line`](crate::records::PacketRecord::format_line)
//! the offline CLI prints, and the stream releases them in the same
//! globally time-sorted order — which is what makes a subscriber's stream
//! byte-identical to `rfdump -r` on the same trace while records still
//! appear as the samples arrive.

use crate::arch::{ArchConfig, ArchOutput, ArchStream};
use crate::records::PacketRecord;
use rfd_dsp::Complex32;
use rfd_net::frame::{RecordMsg, StreamMeta};
use rfd_telemetry::Registry;
use std::sync::{Arc, Mutex};

/// Shared slot where the pipeline deposits each finished stream's full
/// output, so the serving CLI can render `--stats-json` (with the live
/// `net` section) after the server stops (the pipeline itself is owned by
/// the server by then).
pub type SharedOutput = Arc<Mutex<Option<ArchOutput>>>;

/// [`rfd_net::Pipeline`] implementation backed by the full rfdump
/// architecture, streaming.
pub struct LivePipeline {
    cfg: ArchConfig,
    output: SharedOutput,
    registry: Option<Arc<Registry>>,
    /// The open stream, built on the first samples.
    stream: Option<ArchStream>,
}

impl LivePipeline {
    /// Wraps `cfg`. The band in `cfg` is a placeholder: each stream's
    /// [`StreamMeta`] overrides it, so one server handles traces captured
    /// at different rates or band centers.
    pub fn new(cfg: ArchConfig) -> Self {
        Self {
            cfg,
            output: Arc::new(Mutex::new(None)),
            registry: None,
            stream: None,
        }
    }

    /// Accumulates every stream's telemetry into `registry` (the registry
    /// a `--metrics-addr` scrape endpoint serves) instead of a fresh
    /// per-stream one. No effect when the config has telemetry off.
    pub fn with_registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Replaces the output slot with an externally owned one, so several
    /// pipeline instances (one per fleet source) can deposit into a single
    /// slot the serving CLI drains after shutdown. Last writer wins.
    pub fn with_output(mut self, slot: SharedOutput) -> Self {
        self.output = slot;
        self
    }
}

fn render(records: &[PacketRecord]) -> Vec<RecordMsg> {
    records
        .iter()
        .map(|r| RecordMsg {
            start_us: r.start_us,
            end_us: r.end_us,
            line: r.format_line(),
        })
        .collect()
}

impl rfd_net::Pipeline for LivePipeline {
    fn analyze(&mut self, meta: &StreamMeta, samples: Vec<Complex32>) -> Vec<RecordMsg> {
        if samples.is_empty() {
            // End of stream: flush, deposit the run's output, and return
            // whatever the flush released.
            let Some(stream) = self.stream.take() else {
                return Vec::new();
            };
            let released = stream.released();
            let out = stream.finish();
            let tail = render(&out.records[released..]);
            *self.output.lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
            return tail;
        }
        let stream = self.stream.get_or_insert_with(|| {
            let mut cfg = self.cfg.clone();
            cfg.band = rfd_ether::Band {
                sample_rate: meta.sample_rate,
                center_hz: meta.center_hz,
            };
            ArchStream::new(&cfg, meta.sample_rate, None, self.registry.clone())
        });
        stream.push(&samples);
        render(stream.pump())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{ArchKind, DetectorSet};
    use rfd_net::Pipeline as _;

    #[test]
    fn live_pipeline_matches_offline_records() {
        // A short Wi-Fi-ish burst through both paths must render the same
        // lines: the whole byte-identity contract in miniature.
        let fs = 8e6;
        let n = 80_000;
        let samples: Vec<Complex32> = (0..n)
            .map(|i| {
                let t = i as f32 / fs as f32;
                if (8_000..24_000).contains(&i) {
                    Complex32::new((t * 1e6).sin() * 0.5, (t * 1e6).cos() * 0.5)
                } else {
                    Complex32::new((t * 7e5).sin() * 1e-3, 0.0)
                }
            })
            .collect();
        let cfg = ArchConfig {
            kind: ArchKind::RfDump(DetectorSet::TimingAndPhase),
            demodulate: false,
            band: rfd_ether::Band {
                sample_rate: fs,
                center_hz: 0.0,
            },
            piconets: Vec::new(),
            noise_floor: None,
            zigbee: false,
            microwave: true,
            threaded: false,
            telemetry: false,
            workers: 0,
            faults: None,
            governor: None,
            chunk_samples: crate::CHUNK_SAMPLES,
            durability: None,
        };
        let offline = crate::arch::run_architecture(&cfg, &samples, fs);
        let slot: SharedOutput = Arc::new(Mutex::new(None));
        let mut live = LivePipeline::new(cfg).with_output(slot.clone());
        let meta = StreamMeta {
            sample_rate: fs,
            center_hz: 0.0,
            scale: 1.0,
        };
        let mut records = live.analyze(&meta, samples);
        records.extend(live.analyze(&meta, Vec::new()));
        assert_eq!(records.len(), offline.records.len());
        for (msg, rec) in records.iter().zip(offline.records.iter()) {
            assert_eq!(msg.line, rec.format_line());
        }
        assert!(
            slot.lock().unwrap().is_some(),
            "session output must be deposited"
        );
    }
}
