//! The three workloads: what ether each one renders, and how the program
//! is configured to monitor it. Every input comes from the seed.

use rfd_ether::scene::{EtherTrace, Scene};
use rfd_mac::{DcfConfig, L2PingConfig, L2PingSim, TxEvent, WifiDcfSim};
use rfd_phy::bluetooth::demod::PiconetId;
use rfd_phy::wifi::plcp::WifiRate;
use rfdump::arch::{ArchConfig, ArchKind, DetectorSet};
use std::path::Path;

/// How a workload hands its trace to the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `read_trace` + `run_architecture` in the benchmark's process.
    Offline,
    /// One fleet source streaming the file at real time into an
    /// in-process `FleetServer`.
    Live,
}

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub mode: Mode,
    /// Analysis worker threads (`ArchConfig::workers`).
    pub workers: usize,
    /// Seconds of signal in the rendered trace.
    pub signal_s: f64,
    /// Target 802.11b medium utilisation.
    pub wifi_util: f64,
    /// Overlay Bluetooth l2ping traffic.
    pub bluetooth: bool,
}

/// Idle ether: trace decode, chunking and the energy/peak front end do the
/// work; demodulators and the pool barely run. Single-threaded baseline.
pub const OFFLINE_QUIET: Workload = Workload {
    name: "offline_quiet",
    mode: Mode::Offline,
    workers: 0,
    signal_s: 4.0,
    wifi_util: 0.05,
    bluetooth: false,
};

/// Busy ether: the Wi-Fi DBPSK phase detector and the demodulators do the
/// work, on the scheduler thread plus one pool worker (2 cores, not
/// oversubscribed).
pub const OFFLINE_BUSY: Workload = Workload {
    name: "offline_busy",
    mode: Mode::Offline,
    workers: 1,
    signal_s: 3.0,
    wifi_util: 0.6,
    bluetooth: true,
};

/// The live sample→record path: rfd-net ingest, the fleet analysis thread
/// and record fan-out. One source; see NOTES.md for why not more.
pub const LIVE_REALTIME: Workload = Workload {
    name: "live_realtime",
    mode: Mode::Live,
    workers: 0,
    signal_s: 2.0,
    wifi_util: 0.6,
    bluetooth: true,
};

pub const ALL: [Workload; 3] = [OFFLINE_QUIET, OFFLINE_BUSY, LIVE_REALTIME];

/// The Bluetooth piconet the l2ping overlay uses (and the monitor acquires,
/// as `rfdump -p 9e8b33:47` would).
pub fn piconet() -> PiconetId {
    PiconetId {
        lap: 0x9E8B33,
        uap: 0x47,
    }
}

/// Noise power of every scene, -40 dBfs across the band.
const NOISE_POWER: f32 = 1e-4;
/// SNR of every transmitter.
const SNR_DB: f32 = 30.0;
/// ICMP payload of the Wi-Fi pings, bytes (as in the Fig. 9 workload).
const PING_PAYLOAD: usize = 500;

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name == name)
    }

    /// The CLI's default RFDump configuration (timing+phase detectors,
    /// microwave on, online noise floor, telemetry on), with what the
    /// program would otherwise read from the environment pinned:
    /// `workers` instead of `RFD_WORKERS`, no fault plan instead of
    /// `RFD_FAULTS`.
    pub fn config(&self, sample_rate: f64, center_hz: f64) -> ArchConfig {
        ArchConfig {
            kind: ArchKind::RfDump(DetectorSet::TimingAndPhase),
            demodulate: true,
            band: rfd_ether::Band {
                sample_rate,
                center_hz,
            },
            piconets: vec![piconet()],
            noise_floor: None,
            zigbee: false,
            microwave: true,
            threaded: false,
            telemetry: true,
            workers: self.workers,
            faults: None,
            governor: None,
            chunk_samples: rfdump::CHUNK_SAMPLES,
            durability: None,
        }
    }

    /// The transmissions of this workload's ether.
    fn schedule(&self, seed: u64) -> Vec<TxEvent> {
        let horizon_us = self.signal_s * 1e6;
        // One ping exchange: request + ACK + reply + ACK at 1 Mbps.
        let data_air = rfd_phy::wifi::frame_airtime_us(PING_PAYLOAD + 28, WifiRate::R1);
        let ack_air = rfd_phy::wifi::frame_airtime_us(14, WifiRate::R1);
        let exchange_air = 2.0 * (data_air + ack_air);
        let interval = (exchange_air / self.wifi_util).max(exchange_air + 800.0);
        let mut wifi = WifiDcfSim::new(DcfConfig {
            seed,
            ..Default::default()
        });
        let pings = (horizon_us / interval).floor().max(1.0) as usize;
        wifi.queue_ping_flow(1, 2, pings, PING_PAYLOAD, interval, 0.0);
        let mut lists = vec![wifi.run()];
        if self.bluetooth {
            let p = piconet();
            let mut bt = L2PingSim::new(L2PingConfig {
                lap: p.lap,
                uap: p.uap,
                // DH5 request + reply + 2 idle slots = 12 slots of 625 µs.
                count: (horizon_us / (12.0 * 625.0)).ceil() as usize,
                start_clock: (seed % 997) as u32 * 2,
                ..Default::default()
            });
            lists.push(bt.run());
        }
        rfd_mac::merge_schedules(lists)
    }

    /// Renders the workload's ether for `seed`.
    pub fn render(&self, seed: u64) -> EtherTrace {
        let events = self.schedule(seed);
        let horizon_us = self.signal_s * 1e6;
        let mut scene = Scene::new(NOISE_POWER, seed);
        let gain = SNR_DB + rfd_dsp::energy::power_to_db(NOISE_POWER);
        for node in 0..16u16 {
            scene.set_node(node, gain, (f64::from(node) - 8.0) * 700.0);
        }
        scene.render(&events, horizon_us)
    }
}

/// Renders `w` for `seed` and writes it as an `.rfdt` file at `path`.
/// Returns the ground truth; the rendered samples are dropped here, the
/// program only ever sees the file.
pub fn write_trace(w: &Workload, seed: u64, path: &Path) -> std::io::Result<Truth> {
    let trace = w.render(seed);
    rfd_ether::trace::write_trace(
        path,
        trace.band.sample_rate,
        trace.band.center_hz,
        &trace.samples,
    )?;
    Ok(Truth {
        collided: trace.collided_ids(),
        n_samples: trace.samples.len(),
        records: trace.truth,
    })
}

/// Ground truth of a rendered trace.
pub struct Truth {
    pub records: Vec<rfd_ether::scene::TruthRecord>,
    pub collided: std::collections::HashSet<u64>,
    pub n_samples: usize,
}

impl Truth {
    /// Share of the trace during which at least one in-band transmission
    /// is on the air: the medium utilisation the monitor sees.
    pub fn utilisation(&self) -> f64 {
        let mut iv: Vec<(usize, usize)> = self
            .records
            .iter()
            .filter(|t| t.in_band)
            .map(|t| (t.start_sample, t.end_sample.min(self.n_samples)))
            .collect();
        iv.sort_unstable();
        let (mut busy, mut reach) = (0usize, 0usize);
        for (a, b) in iv {
            let a = a.max(reach);
            if b > a {
                busy += b - a;
                reach = b;
            }
        }
        busy as f64 / self.n_samples.max(1) as f64
    }
}
