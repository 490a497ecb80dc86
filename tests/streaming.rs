//! Streamed output properties: an [`ArchStream`] fed a trace in pushes of
//! any size releases exactly the record stream [`run_architecture`] returns
//! for the whole trace, never releases a record that starts before one it
//! already released, and — with the watermark — releases records while
//! samples are still being pushed.
//!
//! The workspace's test profile keeps debug assertions on, so the
//! analyzers' and the merge's watermark assertions (no record starts
//! before its dispatch's peak; none arrives behind what was already
//! released) are checked on every record as well.

use rfd_dsp::rng::Xoshiro256;
use rfd_dsp::Complex32;
use rfd_integration::{mixed_trace, piconet};
use rfdump::arch::{run_architecture, ArchConfig, ArchKind, ArchStream};
use rfdump::dispatch::DispatchConfig;
use rfdump::governor::GovernorConfig;
use rfdump::records::PacketRecord;
use std::path::Path;

/// How a trace is cut into pushes.
#[derive(Debug, Clone, Copy)]
enum Pushes {
    Fixed(usize),
    Whole,
    /// Seeded random sizes: single samples, primes and 4096.
    Random(u64),
}

impl Pushes {
    fn sizes(self, n: usize) -> Vec<usize> {
        const MENU: [usize; 7] = [1, 2, 7, 509, 1021, 4096, 7919];
        let mut out = Vec::new();
        let mut rng = match self {
            Pushes::Random(seed) => Some(Xoshiro256::new(seed)),
            _ => None,
        };
        let mut left = n;
        while left > 0 {
            let want = match (self, rng.as_mut()) {
                (Pushes::Fixed(k), _) => k,
                (Pushes::Whole, _) => left,
                (_, Some(r)) => MENU[r.next_range(MENU.len() as u64) as usize],
                (_, None) => unreachable!(),
            };
            let k = want.min(left);
            out.push(k);
            left -= k;
        }
        out
    }
}

/// What one streamed run released.
struct Streamed {
    /// Records released by pumps, before the stream was finished.
    early: Vec<PacketRecord>,
    /// Every record, in release order (the finished output).
    all: Vec<PacketRecord>,
}

fn stream(cfg: &ArchConfig, samples: &[Complex32], fs: f64, pushes: Pushes) -> Streamed {
    let mut s = ArchStream::new(cfg, fs, Some(samples.len() as u64), None);
    let mut early = Vec::new();
    let mut at = 0;
    for k in pushes.sizes(samples.len()) {
        s.push(&samples[at..at + k]);
        at += k;
        early.extend_from_slice(s.pump());
    }
    assert_eq!(s.released(), early.len());
    let out = s.finish();
    assert_eq!(
        out.records[..early.len()],
        early[..],
        "finish must keep what the pumps released, in order"
    );
    Streamed {
        early,
        all: out.records,
    }
}

fn lines(records: &[PacketRecord]) -> Vec<String> {
    records.iter().map(PacketRecord::format_line).collect()
}

/// Checks one configuration over every push schedule.
fn check(label: &str, cfg: &ArchConfig, samples: &[Complex32], fs: f64, schedules: &[Pushes]) {
    let reference = run_architecture(cfg, samples, fs);
    assert!(
        !reference.records.is_empty(),
        "{label}: no records — the property is vacuous"
    );
    let want = lines(&reference.records);
    for &pushes in schedules {
        let got = stream(cfg, samples, fs, pushes);
        assert_eq!(
            lines(&got.all),
            want,
            "{label}: streamed records differ from run_architecture ({pushes:?})"
        );
        assert!(
            got.all
                .windows(2)
                .all(|w| w[0].start_us.total_cmp(&w[1].start_us).is_le()),
            "{label}: a record was released before one that starts earlier ({pushes:?})"
        );
        let hold = DispatchConfig::default().hold_peaks as u64;
        let peaks = reference
            .dispatch_stats
            .as_ref()
            .map_or(0, |d| d.total_peaks);
        // The first record is final once `hold_peaks` later peaks have
        // reached the dispatcher; with twice that many in the trace, that
        // happens well before its end.
        if peaks > 2 * hold && !cfg.threaded {
            assert!(
                !got.early.is_empty(),
                "{label}: {peaks} peaks but nothing released before the flush ({pushes:?})"
            );
        }
    }
}

/// Workers 0, 1 and 4, each with a different telemetry / latency-budget
/// combination (and the remaining combination on a second pass at 0).
fn variants(base: &ArchConfig) -> Vec<(String, ArchConfig)> {
    let budget = || {
        Some(GovernorConfig {
            latency_budget_us: Some(60_000_000.0),
            ..Default::default()
        })
    };
    [
        (0, false, None),
        (1, true, None),
        (4, false, budget()),
        (0, true, budget()),
    ]
    .into_iter()
    .map(|(workers, telemetry, governor)| {
        let label = format!(
            "workers={workers} telemetry={telemetry} budget={}",
            governor.is_some()
        );
        let cfg = ArchConfig {
            workers,
            telemetry,
            governor,
            faults: None,
            ..base.clone()
        };
        (label, cfg)
    })
    .collect()
}

fn golden(name: &str) -> (Vec<Complex32>, ArchConfig, f64) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{name}.rfdt"));
    let (header, samples) = rfd_ether::trace::read_trace(&path).unwrap();
    let cfg = ArchConfig {
        band: rfd_ether::Band {
            sample_rate: header.sample_rate,
            center_hz: header.center_hz,
        },
        zigbee: name == "zigbee",
        ..ArchConfig::rfdump(vec![piconet()])
    };
    (samples, cfg, header.sample_rate)
}

#[test]
fn golden_traces_stream_byte_identically_in_any_push_sizes() {
    for name in ["wifi", "bluetooth", "zigbee"] {
        let (samples, base, fs) = golden(name);
        for (label, cfg) in variants(&base) {
            check(
                &format!("{name} {label}"),
                &cfg,
                &samples,
                fs,
                &[
                    Pushes::Fixed(1),
                    Pushes::Fixed(509),
                    Pushes::Fixed(4096),
                    Pushes::Whole,
                    Pushes::Random(11),
                ],
            );
        }
    }
}

#[test]
fn busy_mix_streams_byte_identically_and_releases_before_the_end() {
    let trace = mixed_trace(6, 12, 28.0, 5150);
    let base = ArchConfig {
        band: trace.band,
        ..ArchConfig::rfdump(vec![piconet()])
    };
    let fs = trace.band.sample_rate;
    for (label, cfg) in variants(&base) {
        check(
            &format!("busy mix {label}"),
            &cfg,
            &trace.samples,
            fs,
            &[
                Pushes::Fixed(7919),
                Pushes::Fixed(4096),
                Pushes::Whole,
                Pushes::Random(5150),
            ],
        );
    }
}

#[test]
fn baselines_and_the_threaded_scheduler_release_only_at_finish() {
    let (samples, base, fs) = golden("wifi");
    let naive = ArchConfig {
        kind: ArchKind::Naive,
        ..base.clone()
    };
    let gated = ArchConfig {
        kind: ArchKind::NaiveEnergy,
        ..base.clone()
    };
    let threaded = ArchConfig {
        threaded: true,
        ..base
    };
    for (label, cfg) in [
        ("naive", naive),
        ("naive-energy", gated),
        ("threaded", threaded),
    ] {
        let want = lines(&run_architecture(&cfg, &samples, fs).records);
        for pushes in [Pushes::Fixed(4096), Pushes::Random(5)] {
            let got = stream(&cfg, &samples, fs, pushes);
            assert!(
                got.early.is_empty(),
                "{label}: released records before finish ({pushes:?})"
            );
            assert_eq!(lines(&got.all), want, "{label} ({pushes:?})");
        }
    }
}

/// In-process latency counts from the ingest of a peak's *last* sample,
/// like the fleet deadline: a burst whose second half arrives 60 ms after
/// its first (its airtime, were the stream real time) must not charge that
/// wait to `latency.e2e_us`.
#[test]
fn e2e_latency_counts_from_the_ingest_of_a_peaks_last_sample() {
    let trace = mixed_trace(1, 0, 28.0, 61);
    let burst = &trace.truth[0];
    let cfg = ArchConfig {
        band: trace.band,
        telemetry: true,
        noise_floor: Some(trace.noise_power),
        ..ArchConfig::rfdump(vec![piconet()])
    };
    let mid = (burst.start_sample + burst.end_sample) / 2;
    let mut s = ArchStream::new(&cfg, trace.band.sample_rate, None, None);
    s.push(&trace.samples[..mid]);
    s.pump();
    std::thread::sleep(std::time::Duration::from_millis(60));
    s.push(&trace.samples[mid..burst.end_sample]);
    // A quiet tail (the noise before the burst) closes the peak.
    s.push(&trace.samples[..burst.start_sample]);
    s.pump();
    let out = s.finish();
    assert!(!out.records.is_empty(), "the burst produced no record");
    let reg = out.registry.as_ref().expect("telemetry run");
    let e2e = rfdump::latency::stage_histogram(reg, rfdump::latency::E2E);
    assert!(e2e.count() > 0, "no e2e latency was recorded");
    assert!(
        e2e.max() < 60_000.0,
        "e2e latency {:.0} us counts the wait for the burst's second half",
        e2e.max()
    );
}
