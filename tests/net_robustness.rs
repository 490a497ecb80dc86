//! Fuzz-style robustness tests for the `RFDN` wire-frame codec, mirroring
//! `trace_robustness.rs`: truncations at every boundary, random bytes,
//! random bit flips, corrupt CRCs, bad versions — the decoder must return
//! a structured [`FrameError`] or wait for more bytes, never panic and
//! never allocate from a hostile length field.

use rfd_integration::{random_bytes, seeded_cases};
use rfd_net::frame::{
    encode_frame, payload_crc, Frame, FrameDecoder, FrameError, RecordMsg, Role, SeqFrame,
    StreamMeta, HEADER_LEN, MAX_PAYLOAD,
};

/// One of each frame type, with non-trivial payloads.
fn sample_frames() -> Vec<Frame> {
    vec![
        Frame::Hello(Role::Producer),
        Frame::Hello(Role::Subscriber),
        Frame::StreamMeta(StreamMeta {
            sample_rate: 8e6,
            center_hz: 37e6,
            scale: 1.25,
        }),
        Frame::SampleChunk {
            start_sample: 123_456,
            iq: (0..257).map(|i| (i as i16, -(i as i16))).collect(),
        },
        Frame::Record(RecordMsg {
            start_us: 1.5,
            end_us: 99.25,
            line: "0001.500 802.11 ch 6 snr 21.0 seq 7".into(),
        }),
        Frame::Stats("{\"schema\":\"rfd-stats\"}".into()),
        Frame::Heartbeat,
        Frame::Throttle { depth: 64, cap: 64 },
        Frame::SourceHello {
            source: "usrp-roof.2".into(),
            meta: StreamMeta {
                sample_rate: 8e6,
                center_hz: 2.437e9,
                scale: 0.75,
            },
        },
        Frame::SourceRecord {
            source: "usrp-roof.2".into(),
            record: RecordMsg {
                start_us: 12.5,
                end_us: 640.0,
                line: "0012.500 bluetooth slot 3".into(),
            },
        },
        Frame::SourceBye {
            source: "usrp-roof.2".into(),
        },
        Frame::Bye,
    ]
}

/// A raw frame with an arbitrary (possibly malformed) payload behind a
/// valid header and CRC, so payload parsing itself gets exercised.
fn raw_frame(ty: u8, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
    bytes.extend_from_slice(rfd_net::frame::MAGIC);
    bytes.push(rfd_net::frame::VERSION);
    bytes.push(ty);
    bytes.extend_from_slice(&0u16.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&payload_crc(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

fn encode_stream(frames: &[Frame]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (seq, f) in frames.iter().enumerate() {
        bytes.extend_from_slice(&encode_frame(f, seq as u32));
    }
    bytes
}

fn decode_all(bytes: &[u8]) -> Result<Vec<SeqFrame>, FrameError> {
    let mut dec = FrameDecoder::new();
    dec.push(bytes);
    let mut out = Vec::new();
    while let Some(sf) = dec.next_frame()? {
        out.push(sf);
    }
    Ok(out)
}

#[test]
fn every_frame_type_round_trips_through_a_byte_stream() {
    let frames = sample_frames();
    let decoded = decode_all(&encode_stream(&frames)).unwrap();
    assert_eq!(decoded.len(), frames.len());
    for (i, (sf, f)) in decoded.iter().zip(frames.iter()).enumerate() {
        assert_eq!(sf.seq, i as u32);
        assert_eq!(&sf.frame, f, "frame {i}");
    }
}

#[test]
fn truncation_at_every_boundary_waits_never_panics() {
    // A streaming decoder treats a truncated tail as "not yet arrived":
    // every prefix must yield exactly the complete frames it contains and
    // then Ok(None), with no error and no panic.
    let frames = sample_frames();
    let bytes = encode_stream(&frames);
    // Frame boundaries, to know how many complete frames a prefix holds.
    let mut boundaries = vec![0usize];
    for f in &frames {
        boundaries.push(boundaries.last().unwrap() + encode_frame(f, 0).len());
    }
    for len in 0..bytes.len() {
        let complete = boundaries.iter().filter(|&&b| b > 0 && b <= len).count();
        let got = decode_all(&bytes[..len]).unwrap_or_else(|e| {
            panic!("{len}-byte prefix must not error (got {e})");
        });
        assert_eq!(got.len(), complete, "{len}-byte prefix");
    }
}

#[test]
fn byte_at_a_time_feeding_matches_bulk_decode() {
    let frames = sample_frames();
    let bytes = encode_stream(&frames);
    let mut dec = FrameDecoder::new();
    let mut got = Vec::new();
    for b in &bytes {
        dec.push(std::slice::from_ref(b));
        while let Some(sf) = dec.next_frame().unwrap() {
            got.push(sf.frame);
        }
    }
    assert_eq!(got, frames);
}

#[test]
fn corrupt_crc_is_a_sticky_error() {
    let f = Frame::Stats("hello".into());
    let mut bytes = encode_frame(&f, 0);
    *bytes.last_mut().unwrap() ^= 0x40; // flip a payload bit
    let mut dec = FrameDecoder::new();
    dec.push(&bytes);
    assert!(matches!(dec.next_frame(), Err(FrameError::BadCrc { .. })));
    // Poisoned: a following pristine frame must NOT decode — after CRC
    // failure resynchronization cannot be trusted.
    dec.push(&encode_frame(&Frame::Heartbeat, 1));
    assert!(dec.next_frame().is_err());
}

#[test]
fn bad_version_and_bad_magic_are_rejected() {
    let good = encode_frame(&Frame::Heartbeat, 0);
    let mut bad_ver = good.clone();
    bad_ver[4] = 99;
    assert!(matches!(
        decode_all(&bad_ver),
        Err(FrameError::BadVersion(99))
    ));
    let mut bad_magic = good.clone();
    bad_magic[0] = b'X';
    assert!(matches!(decode_all(&bad_magic), Err(FrameError::BadMagic)));
}

#[test]
fn hostile_length_field_is_rejected_before_allocation() {
    // Declare a payload far beyond MAX_PAYLOAD: the decoder must reject on
    // the header alone (buffered bytes stay tiny) instead of reserving
    // gigabytes for a payload that will never arrive.
    let mut bytes = encode_frame(&Frame::Heartbeat, 0);
    bytes[12..16].copy_from_slice(&(u32::MAX).to_le_bytes());
    let mut dec = FrameDecoder::new();
    dec.push(&bytes);
    assert!(matches!(
        dec.next_frame(),
        Err(FrameError::Oversized(n)) if n as usize > MAX_PAYLOAD
    ));
}

#[test]
fn random_bytes_never_panic_the_decoder() {
    seeded_cases(0xF0AA_0001, 300, |rng| {
        let data = random_bytes(rng, 0, 4096);
        let _ = decode_all(&data);
    });
}

#[test]
fn random_mutations_of_a_valid_stream_never_panic() {
    seeded_cases(0xF0AA_0002, 300, |rng| {
        let mut bytes = encode_stream(&sample_frames());
        for _ in 0..1 + rng.next_range(8) {
            let pos = rng.next_range(bytes.len() as u64) as usize;
            bytes[pos] ^= 1 << rng.next_range(8);
        }
        if let Ok(frames) = decode_all(&bytes) {
            // Still decodable: every surviving frame must be well formed
            // (validated metas, consistent chunks).
            for sf in frames {
                if let Frame::StreamMeta(m) = &sf.frame {
                    assert!(m.validate().is_ok());
                }
            }
        }
    });
}

#[test]
fn random_bytes_behind_a_valid_header_prefix_never_panic() {
    // Force the decoder past the magic/version checks so payload parsing
    // gets fuzzed too: a valid header for a random-length payload, then
    // garbage (the CRC check catches essentially all of it; the point is
    // no panic on any path).
    seeded_cases(0xF0AA_0003, 300, |rng| {
        let payload = random_bytes(rng, 0, 2048);
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(rfd_net::frame::MAGIC);
        bytes.push(rfd_net::frame::VERSION);
        bytes.push(rng.next_range(16) as u8); // type, valid or not
        bytes.extend_from_slice(&0u16.to_le_bytes()); // flags
        bytes.extend_from_slice(&7u32.to_le_bytes()); // seq
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let crc = if rng.next_range(2) == 0 {
            payload_crc(&payload) // valid CRC: exercise payload parsing
        } else {
            rng.next_range(u64::from(u32::MAX)) as u32
        };
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes.extend_from_slice(&payload);
        let _ = decode_all(&bytes);
    });
}

#[test]
fn malformed_source_ids_never_decode_and_never_panic() {
    // Hostile id payloads for all three source-tagged frame types: empty,
    // zero-length id, id length past the payload end, invalid characters,
    // non-UTF-8 bytes, and an id longer than MAX_SOURCE_ID. Each must
    // yield a structured error (or, for a length pointing past the end,
    // at minimum not a bogus frame), never a panic and never an
    // allocation driven by the hostile length byte.
    let mut hostiles: Vec<Vec<u8>> = vec![
        vec![],
        vec![0],
        vec![5, b'a', b'b'],
        vec![3, b'a', b' ', b'b'],
        vec![4, 0xFF, 0xFE, 0xFF, 0xFE],
    ];
    let mut oversized = vec![(rfd_net::MAX_SOURCE_ID + 1) as u8];
    oversized.extend(std::iter::repeat_n(b'x', rfd_net::MAX_SOURCE_ID + 1));
    hostiles.push(oversized);
    // A valid id but nothing after it (SourceHello needs a meta too).
    hostiles.push(vec![4, b'r', b'o', b'o', b'f']);
    for ty in [10u8, 11, 12] {
        for payload in &hostiles {
            let bytes = raw_frame(ty, payload);
            // SourceBye with exactly a valid id is a valid frame; every
            // other hostile payload must be rejected.
            if let Ok(frames) = decode_all(&bytes) {
                for sf in frames {
                    match &sf.frame {
                        Frame::SourceHello { source, .. }
                        | Frame::SourceRecord { source, .. }
                        | Frame::SourceBye { source } => {
                            assert!(rfd_net::validate_source_id(source).is_ok())
                        }
                        _ => {}
                    }
                }
            }
        }
    }
}

#[test]
fn fuzzed_source_id_payloads_never_panic() {
    seeded_cases(0xF0AA_0004, 300, |rng| {
        let ty = 10 + rng.next_range(3) as u8;
        let mut payload = random_bytes(rng, 0, 512);
        if !payload.is_empty() && rng.next_range(2) == 0 {
            // Half the cases: make the declared id length wildly wrong.
            payload[0] = rng.next_range(256) as u8;
        }
        let _ = decode_all(&raw_frame(ty, &payload));
    });
}

/// A factory of trivial pipelines for server-level robustness tests: one
/// record per stream, released when the stream ends.
fn stub_factory() -> rfd_net::PipelineFactory {
    Box::new(|_source: &str| {
        let mut n = 0usize;
        Box::new(
            move |_meta: &StreamMeta, samples: Vec<rfd_dsp::Complex32>| {
                if !samples.is_empty() {
                    n += samples.len();
                    return Vec::new();
                }
                vec![RecordMsg {
                    start_us: 0.0,
                    end_us: 1.0,
                    line: format!("session of {n} samples"),
                }]
            },
        )
    })
}

/// Polls `cond` for up to 5 s; panics with `what` on timeout.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !cond() {
        assert!(std::time::Instant::now() < deadline, "timed out: {what}");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

#[test]
fn duplicate_source_handshake_on_one_connection_is_dropped_not_fatal() {
    use std::io::Write;
    let server = rfd_net::FleetServer::bind(
        "127.0.0.1:0",
        rfd_net::FleetConfig {
            // Zero grace: the violating connection's source finalizes at
            // once instead of parking for a resume that never comes.
            resume_grace: std::time::Duration::ZERO,
            ..Default::default()
        },
        stub_factory(),
        None,
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let run = std::thread::spawn(move || server.run().unwrap());

    let meta = StreamMeta {
        sample_rate: 8e6,
        center_hz: 0.0,
        scale: 1.0,
    };
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.write_all(&encode_frame(&Frame::Hello(Role::Producer), 0))
        .unwrap();
    s.write_all(&encode_frame(
        &Frame::SourceHello {
            source: "twice".into(),
            meta,
        },
        1,
    ))
    .unwrap();
    // A second handshake on the same connection is a protocol violation:
    // the connection must be dropped, the server must keep running.
    s.write_all(&encode_frame(
        &Frame::SourceHello {
            source: "twice".into(),
            meta,
        },
        2,
    ))
    .unwrap();
    wait_for("duplicate handshake counted as a decode error", || {
        handle.stats().net.decode_errors >= 1
    });
    let snap = handle.stats();
    assert_eq!(snap.sources_joined, 1);
    // The server survives: a well-formed producer still completes.
    let mut tx = rfd_net::TraceSender::connect_source(addr, "after").unwrap();
    tx.send_samples(
        meta,
        &(0..256)
            .map(|i| rfd_dsp::Complex32::new(i as f32 * 1e-3, 0.0))
            .collect::<Vec<_>>(),
        rfd_net::SendRate::Max,
        128,
    )
    .unwrap();
    tx.finish().unwrap();
    wait_for("post-violation source completes", || {
        handle.stats().sources_done >= 2
    });
    handle.shutdown();
    let snap = run.join().unwrap();
    assert_eq!(snap.sources_joined, 2);
    assert!(snap.net.decode_errors >= 1);
}

#[test]
fn tagged_frames_without_a_handshake_are_dropped_not_fatal() {
    use std::io::Write;
    let server = rfd_net::FleetServer::bind(
        "127.0.0.1:0",
        rfd_net::FleetConfig::default(),
        stub_factory(),
        None,
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let run = std::thread::spawn(move || server.run().unwrap());

    // A producer that skips SourceHello and fires a chunk, and another
    // that sends a record tagged with a source the server never saw: both
    // are protocol violations, both must be dropped without registering a
    // source and without panicking the readiness loop.
    let mut chunker = std::net::TcpStream::connect(addr).unwrap();
    chunker
        .write_all(&encode_frame(&Frame::Hello(Role::Producer), 0))
        .unwrap();
    chunker
        .write_all(&encode_frame(
            &Frame::SampleChunk {
                start_sample: 0,
                iq: vec![(1, -1); 64],
            },
            1,
        ))
        .unwrap();
    let mut tagger = std::net::TcpStream::connect(addr).unwrap();
    tagger
        .write_all(&encode_frame(&Frame::Hello(Role::Producer), 0))
        .unwrap();
    tagger
        .write_all(&encode_frame(
            &Frame::SourceRecord {
                source: "ghost".into(),
                record: RecordMsg {
                    start_us: 0.0,
                    end_us: 1.0,
                    line: "spoofed".into(),
                },
            },
            1,
        ))
        .unwrap();
    wait_for("both violations counted as decode errors", || {
        handle.stats().net.decode_errors >= 2
    });
    let snap = handle.stats();
    assert_eq!(snap.sources_joined, 0);
    assert_eq!(snap.per_source.len(), 0);
    handle.shutdown();
    run.join().unwrap();
}

#[test]
fn fuzzed_resume_handshakes_never_kill_the_fleet_server() {
    use std::io::Write;
    let server = rfd_net::FleetServer::bind(
        "127.0.0.1:0",
        rfd_net::FleetConfig {
            resume_grace: std::time::Duration::from_secs(30),
            ..Default::default()
        },
        stub_factory(),
        None,
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let run = std::thread::spawn(move || server.run().unwrap());
    let meta = StreamMeta {
        sample_rate: 8e6,
        center_hz: 0.0,
        scale: 1.0,
    };

    // One source completes cleanly first, so fuzzed claims of its id also
    // exercise the "already done" refusal path.
    let samples: Vec<rfd_dsp::Complex32> = vec![rfd_dsp::Complex32::new(1e-3, 0.0); 256];
    let mut tx = rfd_net::TraceSender::connect_source(addr, "landed").unwrap();
    tx.send_samples(meta, &samples, rfd_net::SendRate::Max, 128)
        .unwrap();
    tx.finish().unwrap();
    wait_for("first source done", || handle.stats().sources_done >= 1);

    // Hostile resume handshakes: replayed hellos, garbage session ids,
    // advisory positions far beyond any stream end, connections that die
    // mid-handshake. None may panic or wedge the readiness loop.
    seeded_cases(0xF0AA_0005, 25, |rng| {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        let mut seq = 0u32;
        let send = |s: &mut std::net::TcpStream, f: &Frame, seq: &mut u32| {
            let _ = s.write_all(&encode_frame(f, *seq));
            *seq += 1;
        };
        send(&mut s, &Frame::Hello(Role::Producer), &mut seq);
        let name = match rng.next_range(3) {
            0 => "landed",
            1 => "fuzz-a",
            _ => "fuzz-b",
        };
        send(
            &mut s,
            &Frame::SourceHello {
                source: name.into(),
                meta,
            },
            &mut seq,
        );
        if rng.next_bool(0.3) {
            // Replayed hello on the same connection (protocol violation).
            send(
                &mut s,
                &Frame::SourceHello {
                    source: name.into(),
                    meta,
                },
                &mut seq,
            );
        }
        for _ in 0..rng.next_range(3) {
            let position = match rng.next_range(3) {
                0 => u64::MAX,
                1 => rng.next_u64(),
                _ => 0,
            };
            send(
                &mut s,
                &Frame::Resume {
                    session: rng.next_u64(),
                    position,
                },
                &mut seq,
            );
        }
        if rng.next_bool(0.5) {
            send(
                &mut s,
                &Frame::SampleChunk {
                    start_sample: rng.next_range(1 << 20),
                    iq: vec![(1, -1); 64],
                },
                &mut seq,
            );
        }
        if rng.next_bool(0.5) {
            send(&mut s, &Frame::Bye, &mut seq);
        }
        drop(s);
    });

    // The loop survived the fuzz: a clean source still completes.
    let before = handle.stats().sources_done;
    let mut tx = rfd_net::TraceSender::connect_source(addr, "after-fuzz").unwrap();
    tx.send_samples(meta, &samples, rfd_net::SendRate::Max, 128)
        .unwrap();
    tx.finish().unwrap();
    wait_for("post-fuzz source completes", || {
        handle.stats().sources_done > before
    });
    handle.shutdown();
    run.join().unwrap();
}

#[test]
fn resume_position_beyond_stream_end_is_overridden_by_the_server_ack() {
    use std::io::{Read, Write};
    let server = rfd_net::FleetServer::bind(
        "127.0.0.1:0",
        rfd_net::FleetConfig {
            resume_grace: std::time::Duration::from_secs(30),
            ..Default::default()
        },
        stub_factory(),
        None,
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let run = std::thread::spawn(move || server.run().unwrap());
    let meta = StreamMeta {
        sample_rate: 8e6,
        center_hz: 0.0,
        scale: 1.0,
    };

    // First incarnation: handshake, one 256-sample chunk, die without Bye.
    let mut a = std::net::TcpStream::connect(addr).unwrap();
    a.write_all(&encode_frame(&Frame::Hello(Role::Producer), 0))
        .unwrap();
    a.write_all(&encode_frame(
        &Frame::SourceHello {
            source: "det".into(),
            meta,
        },
        1,
    ))
    .unwrap();
    a.write_all(&encode_frame(
        &Frame::SampleChunk {
            start_sample: 0,
            iq: vec![(100, -100); 256],
        },
        2,
    ))
    .unwrap();
    wait_for("first chunk ingested", || {
        handle
            .stats()
            .per_source
            .iter()
            .any(|s| s.source == "det" && s.samples_in == 256)
    });
    drop(a);
    wait_for("source parked", || handle.stats().net.sessions_parked >= 1);

    // Second incarnation claims a position far beyond the stream end. The
    // server's ack is authoritative: it must answer with its own durable
    // position (256), not the client's fantasy.
    let mut b = std::net::TcpStream::connect(addr).unwrap();
    b.write_all(&encode_frame(&Frame::Hello(Role::Producer), 0))
        .unwrap();
    b.write_all(&encode_frame(
        &Frame::SourceHello {
            source: "det".into(),
            meta,
        },
        1,
    ))
    .unwrap();
    b.write_all(&encode_frame(
        &Frame::Resume {
            session: 424242,
            position: u64::MAX,
        },
        2,
    ))
    .unwrap();
    b.set_read_timeout(Some(std::time::Duration::from_millis(200)))
        .unwrap();
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let acked = 'ack: loop {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for the resume ack"
        );
        match b.read(&mut buf) {
            Ok(0) => panic!("server closed the resumed connection"),
            Ok(n) => {
                dec.push(&buf[..n]);
                while let Some(sf) = dec.next_frame().unwrap() {
                    if let Frame::Ack { position, .. } = sf.frame {
                        break 'ack position;
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("read failed: {e}"),
        }
    };
    assert_eq!(acked, 256, "ack must carry the server's position");

    // Continue from the acked position and finish cleanly.
    b.write_all(&encode_frame(
        &Frame::SampleChunk {
            start_sample: 256,
            iq: vec![(100, -100); 256],
        },
        3,
    ))
    .unwrap();
    b.write_all(&encode_frame(&Frame::Bye, 4)).unwrap();
    wait_for("resumed source completes", || {
        handle.stats().sources_done >= 1
    });
    let snap = handle.stats();
    let det = snap.per_source.iter().find(|s| s.source == "det").unwrap();
    assert_eq!(det.samples_in, 512);
    assert_eq!(det.resumes, 1);
    handle.shutdown();
    run.join().unwrap();
}

#[test]
fn stream_meta_rejects_hostile_fields_end_to_end() {
    for meta in [
        StreamMeta {
            sample_rate: f64::NAN,
            center_hz: 0.0,
            scale: 1.0,
        },
        StreamMeta {
            sample_rate: -8e6,
            center_hz: 0.0,
            scale: 1.0,
        },
        StreamMeta {
            sample_rate: 8e6,
            center_hz: f64::INFINITY,
            scale: 1.0,
        },
        StreamMeta {
            sample_rate: 8e6,
            center_hz: 0.0,
            scale: 0.0,
        },
    ] {
        let bytes = encode_frame(&Frame::StreamMeta(meta), 0);
        assert!(
            decode_all(&bytes).is_err(),
            "hostile meta {meta:?} must not decode"
        );
    }
}
