//! Resilience-layer integration tests against a **live daemon**:
//! heartbeats, idle deadlines, admission control, load-shedding, and
//! the reconnect+RESUME path continuing a stream mid-packet with a
//! byte-identical transcript.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use tnb_core::{StreamingConfig, StreamingReceiver};
use tnb_gateway::netfaults::{NetFault, NetFaultPlan};
use tnb_gateway::wire::{encode_frame, Frame};
use tnb_gateway::{ClientConfig, Gateway, GatewayClient, GatewayConfig};
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor, Transmitter};
use tnb_sim::loopback::{self, reference_transcript, scene, uplink_transcript, LoopbackConfig};

fn params() -> LoRaParams {
    LoRaParams::new(SpreadingFactor::SF7, CodingRate::CR4)
}

fn spawn_daemon(cfg: GatewayConfig) -> Gateway {
    Gateway::spawn(("127.0.0.1", 0), cfg).expect("bind loopback")
}

fn connect(addr: std::net::SocketAddr) -> GatewayClient {
    GatewayClient::connect(addr, ClientConfig::default()).expect("connect")
}

#[test]
fn hello_assigns_tokens_and_ping_answers_with_the_nonce() {
    let gw = spawn_daemon(GatewayConfig::new(params()));
    let mut a = connect(gw.local_addr());
    let mut b = connect(gw.local_addr());
    assert_ne!(a.session_token(), b.session_token(), "tokens are unique");
    assert!(a.session_token() > 0 && b.session_token() > 0);
    assert!(a.ping(0xC0FF_EE00).expect("ping"), "pong echoes the nonce");
    assert!(b.ping(7).expect("ping"));
    drop(a);
    drop(b);
    let stats = gw.join();
    assert!(stats.pings_answered >= 2, "{stats:?}");
}

#[test]
fn idle_deadline_disconnects_a_silent_peer() {
    let gw = spawn_daemon(GatewayConfig {
        idle_timeout: Some(Duration::from_millis(150)),
        ..GatewayConfig::new(params())
    });
    // A plain peer (no session) that sends one frame, then goes silent.
    let mut peer = TcpStream::connect(gw.local_addr()).expect("tcp connect");
    peer.write_all(&encode_frame(&Frame::stats()))
        .expect("stats");
    // Reading to EOF ends only when the daemon hangs up on the silent
    // peer. The read timeout is a failsafe: a daemon that never hangs
    // up fails the assertions below instead of hanging the test.
    peer.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let lines: Vec<String> = BufReader::new(&peer)
        .lines()
        .map_while(Result::ok)
        .collect();
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"type\":\"goaway\"") && l.contains("idle-timeout")),
        "{lines:?}"
    );
    let stats = gw.join();
    assert_eq!(stats.idle_disconnects, 1, "{stats:?}");
    assert_eq!(stats.connections_closed, 1, "{stats:?}");
}

#[test]
fn admission_control_answers_busy_past_the_connection_cap() {
    let gw = spawn_daemon(GatewayConfig {
        max_conns: 1,
        ..GatewayConfig::new(params())
    });
    // The HELLO reply proves the daemon counted the first connection:
    // the accept loop counts it before spawning the pipeline that
    // answers HELLO. The daemon then answers BUSY to the next peer
    // without spawning a decode pipeline for it.
    let first = connect(gw.local_addr());
    let second = TcpStream::connect(gw.local_addr()).expect("tcp connect");
    let mut line = String::new();
    BufReader::new(&second)
        .read_line(&mut line)
        .expect("busy line");
    assert!(
        line.starts_with("{\"type\":\"busy\""),
        "expected busy reject, got {line:?}"
    );
    // The rejected socket is closed server-side.
    let mut rest = Vec::new();
    let _ = (&second).read_to_end(&mut rest);
    assert!(rest.is_empty());
    drop(second);
    drop(first);
    let stats = gw.join();
    assert_eq!(stats.busy_rejects, 1, "{stats:?}");
    assert_eq!(
        stats.connections_accepted, 1,
        "only the first got a pipeline"
    );
}

#[test]
fn backpressure_sheds_load_while_the_decoder_is_busy() {
    // Tiny ingest queue + per-stream quota. The first frame is a heavy
    // decode: it spans a whole streaming window, so the decoder runs a
    // full batch decode of repeated collisions on it. While the decoder
    // chews on it the follow-up frames — one write, parsed in
    // microseconds — pile onto the queue and must be shed/evicted,
    // deterministically, because the decode takes far longer.
    let streaming = StreamingConfig::default();
    let window =
        streaming.window_factor * Transmitter::new(params()).packet_samples(streaming.max_payload);
    let collision = scene(
        &LoopbackConfig {
            packets: 2,
            seed: 3,
            ..LoopbackConfig::new(params())
        },
        0,
    );
    let heavy = collision.repeat(window.div_ceil(collision.len()));
    // Premise: pushing the first frame alone runs a batch decode.
    let mut probe = StreamingReceiver::with_config(params(), streaming);
    probe.push(&heavy);
    assert!(
        probe.report().stages.detect_windows >= 1,
        "the first frame must span a streaming window"
    );

    let gw = spawn_daemon(GatewayConfig {
        queue_chunks: 4,
        quota_chunks: 2,
        ..GatewayConfig::new(params())
    });
    let mut c = connect(gw.local_addr());
    c.send_samples(0, &heavy, heavy.len(), false)
        .expect("heavy chunk");
    let blast: Vec<u8> = (0..40)
        .flat_map(|_| {
            encode_frame(&Frame::data(
                0,
                u32::MAX,
                vec![tnb_dsp::Complex32::ZERO; 64],
            ))
        })
        .collect();
    c.send_raw(&blast).expect("blast");
    c.end_stream(0).expect("end");
    let _ = c.finish();
    let stats = gw.join();
    assert!(
        stats.shed_frames > 0,
        "quota must shed the over-quota blast: {stats:?}"
    );
    assert_eq!(stats.worker_panics, 0);
    // Accounting: every DATA frame in is consumed, shed, evicted, or a
    // seq drop — the shed+dropped total can never exceed what came in.
    assert!(stats.shed_frames + stats.chunks_dropped + stats.seq_dups <= stats.chunks_in);
}

#[test]
fn reconnect_resume_continues_a_stream_mid_packet_byte_identically() {
    // The core resilience contract: cut the connection mid-frame while
    // packets are still being decoded; the client reconnects, RESUMEs,
    // resends from the last ack, the daemon replays undelivered uplink
    // lines — and the final transcript equals a clean run's, byte for
    // byte.
    let plan = NetFaultPlan {
        name: "cut-mid-frame",
        seed: 0,
        faults: vec![NetFault::DisconnectAt { byte: 40_000 }],
        recoverable: true,
    };
    let cfg = LoopbackConfig {
        packets: 2,
        chunk: 4096,
        seed: 11,
        faults: Some(plan),
        ..LoopbackConfig::new(params())
    };
    let outcome = loopback::run(&cfg).expect("all frames acked after recovery");
    let stats = outcome.stats;

    let client_stats = (outcome.reconnects, outcome.resent);
    assert!(outcome.reconnects >= 1, "{client_stats:?}");
    assert!(outcome.resent >= 1, "{client_stats:?}");
    assert!(stats.sessions_parked >= 1, "{stats:?}");
    assert!(stats.sessions_resumed >= 1, "{stats:?}");
    assert_eq!(stats.worker_panics, 0);
    assert_eq!(
        outcome.daemon_lines, outcome.reference_lines,
        "recovered transcript must be byte-identical"
    );
}

#[test]
fn shutdown_with_streams_in_flight_drains_and_exits_clean() {
    // Satellite: SHUTDOWN arrives on one connection while another
    // connection's stream is open mid-stream (no END sent). The daemon
    // must drain what it consumed, flush the open stream's tail, keep
    // every uplink already emitted, and exit cleanly.
    let p = params();
    let gw = spawn_daemon(GatewayConfig {
        // Ack every consumed chunk so drain() proves consumption
        // without an END frame.
        ack_every: 1,
        ..GatewayConfig::new(p)
    });
    let cfg = LoopbackConfig {
        packets: 2,
        chunk: 4096,
        seed: 5,
        ..LoopbackConfig::new(p)
    };
    let samples = scene(&cfg, 0);
    let mut inflight = connect(gw.local_addr());
    inflight
        .send_samples(0, &samples, cfg.chunk, false)
        .expect("send");
    // No end_stream: the stream stays open. Wait until the daemon has
    // consumed (acked) every chunk, so the shutdown below races only
    // the flush, not the ingest.
    inflight.drain().expect("all chunks consumed");

    let mut killer = connect(gw.local_addr());
    killer.request_shutdown().expect("shutdown verb");
    let _ = killer.finish();
    let stats = gw.join();

    let got = uplink_transcript(&inflight.finish());
    // The shutdown flush equals a clean END-driven decode: push all
    // chunks, finish, end line.
    let (reference, _) = reference_transcript(&cfg, 0, &samples);
    assert_eq!(got, reference, "drained transcript must be complete");
    assert_eq!(stats.worker_panics, 0);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(
        stats.connections_accepted, stats.connections_closed,
        "every connection torn down: {stats:?}"
    );
}
