//! Criterion benches for the receiver pipeline stages: detection scan,
//! the 36-point fractional synchronization (vs an exhaustive grid — the
//! ablation DESIGN.md calls out), Thrive checkpoint assignment, and the
//! full TnB decode of a short collided trace.

use criterion::{criterion_group, criterion_main, Criterion};
use tnb_channel::trace::{PacketConfig, TraceBuilder};
use tnb_core::detect::Detector;
use tnb_core::sync::{fractional_sync, SyncConfig};
use tnb_core::TnbReceiver;
use tnb_phy::demodulate::Demodulator;
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};

fn params() -> LoRaParams {
    LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4)
}

fn two_packet_trace(seed: u64) -> tnb_channel::trace::Trace {
    let p = params();
    let l = p.samples_per_symbol();
    let mut b = TraceBuilder::new(p, seed);
    b.add_packet(
        &[1; 16],
        PacketConfig {
            start_sample: 4_000,
            snr_db: 12.0,
            cfo_hz: 1500.0,
            ..Default::default()
        },
    );
    b.add_packet(
        &[2; 16],
        PacketConfig {
            start_sample: 4_000 + 15 * l + 700,
            snr_db: 9.0,
            cfo_hz: -2200.0,
            ..Default::default()
        },
    );
    b.build()
}

fn bench_detection(c: &mut Criterion) {
    let trace = two_packet_trace(1);
    let det = Detector::new(params());
    c.bench_function("detect/two_packet_trace", |b| {
        b.iter(|| det.detect(std::hint::black_box(trace.samples())));
    });
}

fn bench_sync(c: &mut Criterion) {
    let trace = two_packet_trace(2);
    let demod = Demodulator::new(params());
    let mut g = c.benchmark_group("fractional_sync");
    // The paper's 36-point three-phase search …
    g.bench_function("three_phase_36pt", |b| {
        b.iter(|| {
            fractional_sync(
                std::hint::black_box(trace.samples()),
                &demod,
                4_000,
                3.0,
                &SyncConfig::default(),
            )
        });
    });
    // … against a naive exhaustive grid with the same resolution
    // (17 CFO × 17 timing points = 289 evaluations), approximated by
    // running the phase-1 line 17 times.
    g.bench_function("exhaustive_grid_289pt", |b| {
        b.iter(|| {
            for dt in -8..=8i64 {
                let cfg = SyncConfig {
                    cfo_grid: 17,
                    require_qstar: false,
                };
                let _ = fractional_sync(
                    std::hint::black_box(trace.samples()),
                    &demod,
                    4_000 + dt,
                    3.0,
                    &cfg,
                );
            }
        });
    });
    g.finish();
}

fn bench_full_decode(c: &mut Criterion) {
    let trace = two_packet_trace(3);
    let rx = TnbReceiver::new(params());
    let mut g = c.benchmark_group("tnb_full_decode");
    g.sample_size(10);
    g.bench_function("two_collided_packets", |b| {
        b.iter(|| rx.decode(std::hint::black_box(trace.samples())));
    });
    g.finish();
}

/// Eight staggered packets in well-separated clusters — the workload the
/// receiver fans out over its workers.
fn staggered_trace(seed: u64, n: usize) -> tnb_channel::trace::Trace {
    let p = params();
    let l = p.samples_per_symbol();
    let mut b = TraceBuilder::new(p, seed);
    for i in 0..n {
        b.add_packet(
            &[(i as u8 + 1) * 13; 16],
            PacketConfig {
                start_sample: 4_000 + i * 60 * l + i * 137,
                snr_db: 9.0 + (i % 3) as f32,
                cfo_hz: -2_000.0 + 550.0 * i as f64,
                ..Default::default()
            },
        );
    }
    b.build()
}

fn bench_parallel_decode(c: &mut Criterion) {
    let trace = staggered_trace(7, 8);
    let p = params();
    let serial = TnbReceiver::new(p);
    let mut g = c.benchmark_group("parallel_decode");
    g.sample_size(10);
    g.bench_function("serial_8_packets", |b| {
        b.iter(|| serial.decode(std::hint::black_box(trace.samples())));
    });
    for workers in [2usize, 4] {
        let rx = TnbReceiver::new(p)
            .with_workers(workers)
            .with_max_payload_len(16);
        g.bench_function(format!("workers_{workers}_8_packets"), |b| {
            b.iter(|| rx.decode(std::hint::black_box(trace.samples())));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_detection,
    bench_sync,
    bench_full_decode,
    bench_parallel_decode
);
criterion_main!(benches);
