//! The live path: one fleet source replays the trace file at real time
//! into an in-process `FleetServer` running `rfdump::fleet::pipeline_factory`;
//! records are collected from `server.subscribe()` on the calling thread.
//!
//! One source only: on a 2-core box two 8 Msps sources took 2.7–3.2 s to
//! send 2.37 s of signal even at `SendRate::Max`, so a second source would
//! measure the generator, not the monitor.

use crate::measure::{process_cpu_s, thread_cpu_s};
use crate::workload::Workload;
use rfd_dsp::Complex32;
use rfd_net::frame::{RecordMsg, StreamMeta};
use rfd_net::{
    FleetConfig, FleetServer, FleetSnapshot, HubMsg, Pipeline, SendRate, SendReport, TraceSender,
};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The fleet source id of the generator.
const SOURCE: &str = "sensor-0";
/// Samples per wire chunk (512 µs at 8 Msps; the `send` CLI's default).
pub const SEND_CHUNK: usize = rfd_net::frame::DEFAULT_CHUNK_SAMPLES;
/// Longest a session may take before the harness gives up on it.
const SESSION_TIMEOUT: Duration = Duration::from_secs(60);

/// Total time and calls of the pipelines the factory handed out.
type AnalyzeClock = Arc<Mutex<(f64, u64)>>;

/// Times `Pipeline::analyze` of the pipeline it wraps.
struct TimedPipeline {
    inner: Box<dyn Pipeline>,
    clock: AnalyzeClock,
}

impl Pipeline for TimedPipeline {
    fn analyze(&mut self, meta: &StreamMeta, samples: Vec<Complex32>) -> Vec<RecordMsg> {
        let t0 = Instant::now();
        let out = self.inner.analyze(meta, samples);
        let mut c = self.clock.lock().expect("analyze clock poisoned");
        c.0 += t0.elapsed().as_secs_f64();
        c.1 += 1;
        out
    }
}

/// One bind → stream → drain session.
pub struct Session {
    /// Bind + connect + handshake, until the server has admitted the
    /// source, s.
    pub setup_s: f64,
    /// When the first sample was due on the sender's schedule.
    pub t0: Instant,
    /// Records in arrival order, with their arrival time.
    pub records: Vec<(Instant, RecordMsg)>,
    pub send: SendReport,
    /// How far the sender's last chunk ran behind its due time, ms.
    pub lag_ms: f64,
    /// CPU of every thread but the generator's over the session, s.
    pub cpu_s: f64,
    pub fleet: FleetSnapshot,
    /// Time inside the source's `Pipeline::analyze`, s.
    pub analyze_s: f64,
    pub analyze_calls: u64,
}

/// Streams `path` (`n_samples` at `sample_rate`) through a fresh
/// single-source fleet and collects its records.
pub fn session(w: &Workload, path: &Path, n_samples: u64, sample_rate: f64) -> io::Result<Session> {
    let clock: AnalyzeClock = Arc::new(Mutex::new((0.0, 0)));
    let inner = rfdump::fleet::pipeline_factory(
        // The band is a placeholder: the stream's meta overrides it.
        w.config(sample_rate, 0.0),
        None,
        Arc::new(Mutex::new(None)),
    );
    let factory_clock = clock.clone();
    let factory: rfd_net::PipelineFactory = Box::new(move |source: &str| {
        Box::new(TimedPipeline {
            inner: inner(source),
            clock: factory_clock.clone(),
        })
    });
    let cfg = FleetConfig {
        expect: Some(1),
        // Records are published as one burst per session; never evict the
        // harness's subscription for being behind.
        sub_queue_cap: 1 << 16,
        ..Default::default()
    };

    let cpu0 = process_cpu_s();
    let t_bind = Instant::now();
    let server = FleetServer::bind("127.0.0.1:0", cfg, factory, None)?;
    let addr = server.local_addr()?;
    let sub = server.subscribe();
    let handle = server.handle();
    let srv = std::thread::spawn(move || server.run());
    let file: PathBuf = path.to_path_buf();
    let gen = std::thread::spawn(move || -> io::Result<(Instant, SendReport, f64)> {
        let mut tx = TraceSender::connect_source(addr, SOURCE)?;
        let t0 = Instant::now();
        let report = tx.send_trace_file(&file, SendRate::RealTime, SEND_CHUNK)?;
        tx.finish()?;
        Ok((t0, report, thread_cpu_s()))
    });

    let deadline = t_bind + SESSION_TIMEOUT;
    while handle.stats().sources_joined == 0 {
        if Instant::now() > deadline || gen.is_finished() || srv.is_finished() {
            handle.shutdown();
            break;
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    let setup_s = t_bind.elapsed().as_secs_f64();

    let mut records = Vec::new();
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match sub.rx.recv_timeout(left) {
            Ok(HubMsg::SourceRecord { record, .. }) => records.push((Instant::now(), record)),
            Ok(HubMsg::Bye) => break,
            Ok(_) => {}
            Err(_) => {
                handle.shutdown();
                break;
            }
        }
    }
    let fleet = srv.join().expect("fleet server thread panicked")?;
    let (t0, send, gen_cpu_s) = gen.join().expect("generator thread panicked")?;
    let cpu_s = process_cpu_s() - cpu0 - gen_cpu_s;

    let last_chunk_start = n_samples.saturating_sub(1) / SEND_CHUNK as u64 * SEND_CHUNK as u64;
    let lag_ms = (send.wall.as_secs_f64() - last_chunk_start as f64 / sample_rate) * 1e3;
    let (analyze_s, analyze_calls) = *clock.lock().expect("analyze clock poisoned");
    Ok(Session {
        setup_s,
        t0,
        records,
        send,
        lag_ms,
        cpu_s,
        fleet,
        analyze_s,
        analyze_calls,
    })
}
