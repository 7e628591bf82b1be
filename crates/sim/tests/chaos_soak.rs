//! Chaos soak: the full `NetFaultPlan::matrix` against a live daemon,
//! driven through the `ChaosProxy` by the `GatewayClient`. Under
//! every injector the daemon must never panic, the counters must
//! account for the faults, and — since every matrix scenario is
//! recoverable by construction (destructive faults are one-shot) — the
//! uplink transcript must be byte-identical to a fault-free run.

use tnb_gateway::NetFaultPlan;
use tnb_phy::{CodingRate, LoRaParams, SpreadingFactor};
use tnb_sim::loopback::{run, LoopbackConfig};

#[test]
fn chaos_matrix_never_panics_and_recovers_byte_identically() {
    let cfg = LoopbackConfig {
        packets: 2,
        chunk: 4096,
        ..LoopbackConfig::new(LoRaParams::new(SpreadingFactor::SF7, CodingRate::CR4))
    };
    let plans = NetFaultPlan::matrix(1);
    let rows = plans
        .iter()
        .map(|plan| {
            run(&LoopbackConfig {
                faults: Some(plan.clone()),
                ..cfg.clone()
            })
            .map(|row| (plan.name, plan.recoverable, row))
        })
        .collect::<std::io::Result<Vec<_>>>()
        .expect("chaos matrix runs");
    assert_eq!(rows.len(), 8, "every matrix scenario ran");
    for (scenario, recoverable, row) in &rows {
        assert_eq!(
            row.stats.worker_panics, 0,
            "{}: no contained panics either",
            scenario
        );
        assert!(*recoverable, "{}: matrix plans are recoverable", scenario);
        assert!(
            row.byte_identical(),
            "{}: transcript must be byte-identical to a clean run \
             (reconnects={} resent={} stats={:?})",
            scenario,
            row.reconnects,
            row.resent,
            row.stats
        );
    }
    // The clean scenario needs no recovery machinery at all…
    let clean = &rows[0].2;
    assert_eq!(clean.reconnects, 0, "clean run never reconnects");
    assert_eq!(clean.stats.sessions_parked, 0);
    assert_eq!(clean.proxy_faults, 0);
    // …while every destructive scenario exercised park/resume and the
    // counters account for the recovery: a fault fired, the session
    // parked and resumed, and the resent frames show up on both sides.
    for (scenario, _, row) in rows.iter().filter(|(scenario, _, _)| {
        matches!(
            *scenario,
            "disconnect-mid-frame" | "bitflip" | "split+disconnect" | "coalesce+bitflip"
        )
    }) {
        assert!(row.proxy_faults >= 1, "{}: fault must fire", scenario);
        assert!(
            row.reconnects >= 1,
            "{}: destructive faults force a reconnect",
            scenario
        );
        assert!(
            row.stats.sessions_parked >= 1 && row.stats.sessions_resumed >= 1,
            "{}: park/resume must run: {:?}",
            scenario,
            row.stats
        );
        assert!(
            row.resent >= 1,
            "{}: the unacked tail must be retransmitted",
            scenario
        );
        // Stale retransmissions the daemon dropped are visible in its
        // counters, never decoded twice (parity above proves that).
        assert!(
            row.stats.retransmitted_frames + row.stats.seq_dups + row.resent
                >= row.stats.retransmitted_frames,
            "{}: accounting holds",
            scenario
        );
    }
    // Content-transparent scenarios must not trip the recovery path.
    for (scenario, _, row) in rows.iter().filter(|(scenario, _, _)| {
        matches!(*scenario, "split-writes" | "coalesced-reads" | "stall")
    }) {
        assert_eq!(
            row.stats.protocol_errors, 0,
            "{}: segmentation/timing chaos is invisible to the wire layer",
            scenario
        );
    }
}

#[test]
fn wideband_stream_recovers_from_a_mid_frame_disconnect() {
    // The wideband front under the same recovery contract: the
    // WIDEBAND-flagged stream is cut inside its first frame, resumed,
    // and still uplinks byte-identical per-channel lines.
    let plan = NetFaultPlan::matrix(1)
        .into_iter()
        .find(|p| p.name == "disconnect-mid-frame")
        .expect("matrix has the disconnect injector");
    let row = run(&LoopbackConfig {
        faults: Some(plan),
        ..LoopbackConfig::wideband(LoRaParams::new(SpreadingFactor::SF8, CodingRate::CR4))
    })
    .expect("wideband chaos run");
    assert!(
        row.per_channel.iter().sum::<u64>() >= 1,
        "scene decodes: {:?}",
        row.per_channel
    );
    assert!(
        row.byte_identical(),
        "transcript must be byte-identical to a clean run \
         (reconnects={} resent={} stats={:?})",
        row.reconnects,
        row.resent,
        row.stats
    );
    assert!(row.reconnects >= 1, "the cut forces a reconnect");
    assert!(
        row.stats.sessions_resumed >= 1,
        "park/resume must run: {:?}",
        row.stats
    );
    assert_eq!(row.stats.worker_panics, 0);
}
