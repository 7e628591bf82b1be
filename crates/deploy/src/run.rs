//! The sharded decode loop: deterministic fan-out over
//! `(gateway, SF, time-shard)` tasks.
//!
//! The timeline splits into fixed-length shards (a pure function of the
//! config — never of the worker count). Each task synthesizes its shard
//! window padded by [`Overlap::shard_padding`], streams it through a
//! fresh [`StreamDecoder`], and keeps only the decodes whose start falls
//! inside the shard it owns. A work-stealing `std::thread::scope` pool
//! executes tasks in any order; results land in a slot per task id and
//! merge in task order through one [`Owned`] claim set per channel, so
//! the output — down to the uplink-line bytes — is identical for 1, 2
//! or 8 workers. The padding, the claim set and the narrowband|wideband
//! switch all come from `tnb-core`, shared with the streaming receivers
//! and the gateway daemon, so a shard decodes exactly as they do.

use crate::network::NetworkReport;
use crate::synth::Scene;
use crate::TrafficModel;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use tnb_core::{
    DecodedPacket, Overlap, Owned, SicConfig, StreamDecoder, StreamingConfig, TnbConfig,
    WidebandConfig,
};
use tnb_dsp::ChannelizerConfig;
use tnb_gateway::uplink;
use tnb_sim::traffic::PAYLOAD_LEN;

/// One decode task: a gateway's shard of the timeline at one SF.
#[derive(Debug, Clone, Copy)]
struct Task {
    gw: u32,
    sf_idx: usize,
    shard: u64,
}

/// One decoded packet attributed to where it was heard (`channel` is
/// `None` on a narrowband gateway). `packet.start` is absolute on the
/// gateway's channel-rate sample clock.
#[derive(Debug, Clone)]
struct Heard {
    sf_idx: usize,
    channel: Option<usize>,
    packet: DecodedPacket,
}

/// Everything one deployment run produced.
#[derive(Debug, Clone)]
pub struct DeployReport {
    /// The scene's config echo (see [`DeployReport::to_json`]).
    pub nodes: u32,
    /// Gateways simulated.
    pub gateways: u32,
    /// Offered load, packets/s.
    pub load_pps: f64,
    /// Simulated seconds.
    pub duration_s: f64,
    /// Master seed.
    pub seed: u64,
    /// SIC rescue pass on?
    pub sic: bool,
    /// Wideband front-end?
    pub wideband: bool,
    /// Traffic model echo.
    pub traffic: TrafficModel,
    /// SF values in use.
    pub sfs: Vec<u8>,
    /// Scheduled transmissions.
    pub offered: usize,
    /// Offered count per SF slot.
    pub offered_per_sf: Vec<usize>,
    /// Uplink lines emitted per gateway (pre-dedup).
    pub uplinks: Vec<Vec<String>>,
    /// The deduped network view.
    pub network: NetworkReport,
}

/// Runs the deployment end to end with `workers` decode threads.
/// Byte-identical output for any `workers ≥ 1`.
pub fn run_deploy(scene: &Scene, workers: usize) -> DeployReport {
    let cfg = &scene.cfg;
    let total = scene.total_samples();
    let shard_len = cfg.shard_samples.max(1);
    let n_shards = total.div_ceil(shard_len).max(1);
    let n_sfs = cfg.sfs.len().max(1);

    let mut tasks = Vec::new();
    for gw in 0..cfg.gateways.max(1) {
        for sf_idx in 0..n_sfs {
            for shard in 0..n_shards {
                tasks.push(Task { gw, sf_idx, shard });
            }
        }
    }

    let results: Mutex<Vec<Option<Vec<Heard>>>> = Mutex::new(vec![None; tasks.len()]);
    let next = AtomicUsize::new(0);
    let n_workers = workers.clamp(1, tasks.len().max(1));
    std::thread::scope(|s| {
        for _ in 0..n_workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(task) = tasks.get(i) else { break };
                let heard = decode_task(scene, *task, total, shard_len, n_shards);
                if let Ok(mut slots) = results.lock() {
                    if let Some(slot) = slots.get_mut(i) {
                        *slot = Some(heard);
                    }
                }
            });
        }
    });
    let slots = match results.into_inner() {
        Ok(v) => v,
        Err(e) => e.into_inner(),
    };

    // Merge in task order: per (gateway, SF), shards concatenate in
    // time order and boundary duplicates collapse under one claim set
    // per (gateway, SF, channel), the one the receivers use internally.
    let mut per_gateway: Vec<Vec<Heard>> = vec![Vec::new(); cfg.gateways.max(1) as usize];
    let mut owned: BTreeMap<(u32, usize, Option<usize>), Owned> = BTreeMap::new();
    for (t, heard) in tasks.iter().zip(slots) {
        for h in heard.unwrap_or_default() {
            let claims = owned
                .entry((t.gw, t.sf_idx, h.channel))
                .or_insert_with(|| Owned::new(scene.params(t.sf_idx)));
            if claims.claim(h.packet.start, h.packet.cfo_cycles).is_ok() {
                if let Some(bucket) = per_gateway.get_mut(t.gw as usize) {
                    bucket.push(h);
                }
            }
        }
    }

    // Gateway uplink feeds: every gateway orders its packets by start
    // time (then SF, then channel) and emits PR 5 Semtech-style lines.
    let mut uplinks: Vec<Vec<String>> = Vec::new();
    for (gw, heard) in per_gateway.iter_mut().enumerate() {
        heard.sort_by(|a, b| {
            a.packet
                .start
                .total_cmp(&b.packet.start)
                .then(a.sf_idx.cmp(&b.sf_idx))
                .then(a.channel.cmp(&b.channel))
        });
        let mut lines = Vec::with_capacity(heard.len());
        for (n, h) in heard.iter().enumerate() {
            let params = scene.params(h.sf_idx);
            let line =
                uplink::tagged_uplink_line(&params, gw as u32, n as u64, h.channel, &h.packet);
            lines.push(line);
        }
        uplinks.push(lines);
    }

    let network = NetworkReport::collect(scene, &uplinks);
    let mut offered_per_sf = vec![0usize; n_sfs];
    for tx in &scene.schedule {
        if let Some(slot) = offered_per_sf.get_mut(tx.sf_idx as usize) {
            *slot += 1;
        }
    }
    DeployReport {
        nodes: cfg.nodes,
        gateways: cfg.gateways,
        load_pps: cfg.load_pps,
        duration_s: cfg.duration_s,
        seed: cfg.seed,
        sic: cfg.sic,
        wideband: cfg.wideband,
        traffic: cfg.traffic,
        sfs: cfg.sfs.iter().map(|s| s.value() as u8).collect(),
        offered: scene.schedule.len(),
        offered_per_sf,
        uplinks,
        network,
    }
}

/// Decodes one `(gateway, SF, shard)` task and returns the decodes the
/// shard owns, with absolute channel-clock starts.
fn decode_task(scene: &Scene, t: Task, total: u64, shard_len: u64, n_shards: u64) -> Vec<Heard> {
    let cfg = &scene.cfg;
    let params = scene.params(t.sf_idx);
    let streaming = StreamingConfig {
        receiver: TnbConfig {
            noise_power: Some(1.0),
            sic: SicConfig { enabled: cfg.sic },
            ..TnbConfig::default()
        },
        max_payload: PAYLOAD_LEN,
        ..StreamingConfig::default()
    };
    let (lead, tail) = Overlap::new(params, &streaming).shard_padding;
    let shard_lo = t.shard * shard_len;
    let shard_hi = (shard_lo + shard_len).min(total);
    let a = shard_lo.saturating_sub(lead);
    let b = (shard_hi + tail).min(total);
    let upper = if t.shard + 1 >= n_shards {
        f64::INFINITY
    } else {
        shard_hi as f64
    };

    let wideband = WidebandConfig {
        channelizer: ChannelizerConfig {
            channels: cfg.channels.max(1),
        },
        streaming,
    };
    let mut rx = StreamDecoder::new(params, &wideband, cfg.wideband);
    let chunk = (cfg.chunk_samples.max(1024)) as u64;
    let mut decoded = Vec::new();
    let mut pos = a;
    while pos < b {
        let e = (pos + chunk).min(b);
        decoded.extend(rx.push(&scene.synth_stream(t.gw, pos, e)));
        pos = e;
    }
    decoded.extend(rx.finish());
    decoded
        .into_iter()
        .filter_map(|(channel, mut packet)| {
            packet.start += a as f64;
            (packet.start >= shard_lo as f64 && packet.start < upper).then_some(Heard {
                sf_idx: t.sf_idx,
                channel,
                packet,
            })
        })
        .collect()
}

impl DeployReport {
    /// Deterministic JSON rendering of the run: config echo, offered
    /// load, per-gateway uplink counts and the deduped network metrics.
    /// Worker count is deliberately absent — the bytes of this string
    /// are part of the determinism contract across worker counts.
    pub fn to_json(&self) -> String {
        let sfs: Vec<String> = self.sfs.iter().map(|s| s.to_string()).collect();
        let per_sf: Vec<String> = self
            .offered_per_sf
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                format!(
                    "{{\"sf\":{},\"offered\":{},\"delivered\":{}}}",
                    self.sfs.get(i).copied().unwrap_or(0),
                    n,
                    self.network
                        .delivered_for_sf(self.sfs.get(i).copied().unwrap_or(0))
                )
            })
            .collect();
        let per_gw: Vec<String> = self
            .uplinks
            .iter()
            .enumerate()
            .map(|(g, lines)| {
                format!(
                    "{{\"gateway\":{},\"uplinks\":{},\"wins\":{}}}",
                    g,
                    lines.len(),
                    self.network.wins_per_gateway.get(g).copied().unwrap_or(0)
                )
            })
            .collect();
        let traffic = match self.traffic {
            TrafficModel::Poisson => "\"poisson\"".to_string(),
            TrafficModel::Bursty { max_burst } => {
                format!("{{\"bursty\":{{\"max_burst\":{max_burst}}}}}")
            }
        };
        let (p50, p95, p99) = self.network.delay_percentiles_ms();
        format!(
            "{{\"deploy\":{{\"nodes\":{},\"gateways\":{},\"load_pps\":{:.4},\
             \"duration_s\":{:.4},\"seed\":{},\"traffic\":{},\"sic\":{},\
             \"wideband\":{},\"sfs\":[{}],\"offered\":{}}},\
             \"network\":{{\"delivered\":{},\"duplicates\":{},\"ghosts\":{},\
             \"goodput_pps\":{:.4},\"prr\":{:.4},\
             \"delay_ms\":{{\"p50\":{:.3},\"p95\":{:.3},\"p99\":{:.3}}},\
             \"per_gateway\":[{}],\"per_sf\":[{}]}}}}",
            self.nodes,
            self.gateways,
            self.load_pps,
            self.duration_s,
            self.seed,
            traffic,
            self.sic,
            self.wideband,
            sfs.join(","),
            self.offered,
            self.network.deliveries.len(),
            self.network.duplicates,
            self.network.ghosts,
            self.network.goodput_pps(self.duration_s),
            self.network.prr(self.offered),
            p50,
            p95,
            p99,
            per_gw.join(","),
            per_sf.join(","),
        )
    }

    /// One-screen human summary.
    pub fn summary(&self) -> String {
        let (p50, p95, p99) = self.network.delay_percentiles_ms();
        let mut s = format!(
            "deploy: {} nodes, {} gateways, {:.1} pps offered over {:.1} s (seed {})\n\
             offered {} | delivered {} | goodput {:.2} pps | PRR {:.3}\n\
             cross-gateway duplicates {} | ghosts {} | delay ms p50 {:.2} p95 {:.2} p99 {:.2}\n",
            self.nodes,
            self.gateways,
            self.load_pps,
            self.duration_s,
            self.seed,
            self.offered,
            self.network.deliveries.len(),
            self.network.goodput_pps(self.duration_s),
            self.network.prr(self.offered),
            self.network.duplicates,
            self.network.ghosts,
            p50,
            p95,
            p99,
        );
        for (g, lines) in self.uplinks.iter().enumerate() {
            s.push_str(&format!(
                "  gateway {g}: {} uplinks, {} capture wins\n",
                lines.len(),
                self.network.wins_per_gateway.get(g).copied().unwrap_or(0)
            ));
        }
        s
    }
}
