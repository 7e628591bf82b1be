//! Streaming per-gateway IQ synthesis.
//!
//! The deployment's IQ is never materialized whole: a gateway's stream
//! is defined *functionally* — `synth_window(gw, a, b)` returns samples
//! `[a, b)` of the stream — and the run loop asks for one chunk at a
//! time. Two properties make any chunking byte-identical:
//!
//! 1. **Counter-based noise.** Each noise sample is a pure hash of
//!    `(seed, gateway, absolute sample index)` pushed through
//!    Box–Muller, not a draw from a sequential RNG, so sample `n` has
//!    the same value no matter which window asked for it.
//! 2. **Whole-packet rendering.** A transmission overlapping a window
//!    is rendered from its own sample 0 (chirp synthesis, fractional
//!    delay, CFO, amplitude, phase, and — in wideband mode — channel
//!    upconversion all walk the packet from its start) and then sliced,
//!    so a packet straddling a window boundary contributes identical
//!    values to both windows.
//!
//! Memory is O(window + one packet), independent of the city duration.

use crate::traffic::{self, Tx};
use crate::{space, DeployConfig};
use tnb_channel::impairments::{apply_cfo, fractional_delay};
use tnb_dsp::channelizer::upconvert;
use tnb_dsp::stats::from_db;
use tnb_dsp::Complex32;
use tnb_phy::params::LoRaParams;
use tnb_phy::Transmitter;
use tnb_sim::traffic::{make_payload, PAYLOAD_LEN};

const TAG_NOISE: u64 = 0x006e_6f69_7365; // "noise"
const TAG_PHASE: u64 = 0x0070_6861_7365; // "phase"
const SQRT_HALF: f32 = std::f32::consts::FRAC_1_SQRT_2;

/// A fully specified deployment scene: the config plus its transmission
/// schedule (generated, or injected for tests), with per-SF PHY
/// parameters resolved. All synthesis is a pure function of this.
#[derive(Debug, Clone)]
pub struct Scene {
    /// The deployment configuration.
    pub cfg: DeployConfig,
    /// Transmissions sorted by `(start, node)`.
    pub schedule: Vec<Tx>,
    params_by_sf: Vec<LoRaParams>,
    /// Rendered waveform length per SF slot (packet samples plus the
    /// one-sample fractional-delay spill).
    len_by_sf: Vec<usize>,
    /// Upper bound on `waveform length + propagation delay`, for the
    /// window candidate search.
    max_span: u64,
}

impl Scene {
    /// Builds the scene with the schedule drawn from the traffic model.
    pub fn new(cfg: DeployConfig) -> Scene {
        let schedule = traffic::generate(&cfg);
        Scene::with_schedule(cfg, schedule)
    }

    /// Builds the scene around an explicit schedule (sorted internally);
    /// used by tests that need exact packet placement.
    pub fn with_schedule(cfg: DeployConfig, mut schedule: Vec<Tx>) -> Scene {
        schedule.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.node.cmp(&b.node)));
        let params_by_sf: Vec<LoRaParams> =
            (0..cfg.sfs.len().max(1)).map(|i| cfg.params(i)).collect();
        let len_by_sf: Vec<usize> = params_by_sf
            .iter()
            .map(|p| Transmitter::new(*p).packet_samples(PAYLOAD_LEN) + 1)
            .collect();
        let max_len = len_by_sf.iter().copied().max().unwrap_or(0) as u64;
        let max_delay = cfg.side_m * std::f64::consts::SQRT_2 / space::SPEED_OF_LIGHT_M_S
            * cfg.params(0).sample_rate();
        let max_span = max_len + max_delay.ceil() as u64 + 4;
        Scene {
            cfg,
            schedule,
            params_by_sf,
            len_by_sf,
            max_span,
        }
    }

    /// PHY parameters of SF slot `i`.
    pub fn params(&self, sf_idx: usize) -> LoRaParams {
        self.params_by_sf
            .get(sf_idx)
            .or_else(|| self.params_by_sf.first())
            .copied()
            .unwrap_or_else(|| self.cfg.params(0))
    }

    /// Longest rendered packet over all SFs, channel-rate samples.
    pub fn max_packet_samples(&self) -> usize {
        self.len_by_sf.iter().copied().max().unwrap_or(0)
    }

    /// Channel-rate length of every gateway's stream: the configured
    /// duration (or the last packet's end, whichever is later) plus a
    /// flush tail of four symbols of the slowest SF.
    pub fn total_samples(&self) -> u64 {
        let fs = self.cfg.sample_rate();
        let mut end = (self.cfg.duration_s * fs).ceil() as u64;
        if let Some(last) = self.schedule.last() {
            end = end.max(last.start.ceil() as u64 + self.max_span);
        }
        let sps = self
            .params_by_sf
            .iter()
            .map(|p| p.samples_per_symbol())
            .max()
            .unwrap_or(0) as u64;
        end + 4 * sps
    }

    /// Samples `[a, b)` of gateway `gw`'s channel-rate stream.
    pub fn synth_window(&self, gw: u32, a: u64, b: u64) -> Vec<Complex32> {
        let n = b.saturating_sub(a) as usize;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(noise_sample(self.cfg.seed, gw as u64, a + i as u64));
        }
        for (start, w) in self.render_overlapping(gw, a, b, false) {
            add_slice(&mut out, a, start, &w);
        }
        out
    }

    /// Samples `[a·M, b·M)` of gateway `gw`'s *wideband* stream, where
    /// `a`/`b` are channel-rate bounds and `M = cfg.channels`. Each
    /// packet is rendered at the wideband rate and upconverted to its
    /// node's channel slot; noise is counter-based on the wideband
    /// sample index.
    pub fn synth_window_wideband(&self, gw: u32, a: u64, b: u64) -> Vec<Complex32> {
        let m = self.cfg.channels.max(1) as u64;
        let (wa, wb) = (a * m, b * m);
        let n = wb.saturating_sub(wa) as usize;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(noise_sample(
                self.cfg.seed ^ 0x5749_4445,
                gw as u64,
                wa + i as u64,
            ));
        }
        for (start, w) in self.render_overlapping(gw, wa, wb, true) {
            add_slice(&mut out, wa, start, &w);
        }
        out
    }

    /// Samples `[a, b)` (channel-rate bounds) of gateway `gw`'s stream
    /// as its receiver sees it: the wideband capture in wideband mode,
    /// the channel-rate stream otherwise.
    pub fn synth_stream(&self, gw: u32, a: u64, b: u64) -> Vec<Complex32> {
        if self.cfg.wideband {
            self.synth_window_wideband(gw, a, b)
        } else {
            self.synth_window(gw, a, b)
        }
    }

    /// The whole stream of one gateway in a single allocation — the
    /// materialized reference the chunked path is tested against. Only
    /// sized for test scenes.
    pub fn materialize(&self, gw: u32) -> Vec<Complex32> {
        self.synth_stream(gw, 0, self.total_samples())
    }

    /// Renders every transmission overlapping `[a, b)` (wideband-rate
    /// bounds when `wideband`): `(absolute start, waveform)`.
    fn render_overlapping(
        &self,
        gw: u32,
        a: u64,
        b: u64,
        wideband: bool,
    ) -> Vec<(u64, Vec<Complex32>)> {
        let m = if wideband {
            self.cfg.channels.max(1) as u64
        } else {
            1
        };
        let span = self.max_span * m;
        // Schedule is sorted by channel-rate start; candidates lie in
        // [a − span, b) on the stream clock.
        let lo_key = (a.saturating_sub(span)) as f64 / m as f64;
        let hi_key = b as f64 / m as f64;
        let lo = self.schedule.partition_point(|t| t.start < lo_key);
        let hi = self.schedule.partition_point(|t| t.start < hi_key);
        let mut out = Vec::new();
        for tx in self.schedule.get(lo..hi).unwrap_or(&[]) {
            let delay = space::prop_delay_samples(&self.cfg, tx.node, gw);
            let s = (tx.start + delay) * m as f64;
            let start = s.floor().max(0.0) as u64;
            let frac = (s - start as f64) as f32;
            let len = self.len_by_sf.get(tx.sf_idx as usize).copied().unwrap_or(0) as u64 * m;
            if start >= b || start + len + m <= a {
                continue;
            }
            out.push((start, self.render_tx(tx, gw, frac, wideband)));
        }
        out
    }

    /// Renders one transmission as heard by `gw`: chirp synthesis at
    /// the (wideband-scaled) rate, fractional arrival delay, the node's
    /// CFO, link amplitude from the SNR against unit noise power, a
    /// per-(tx, gateway) random carrier phase, and — in wideband mode —
    /// upconversion to the node's channel.
    fn render_tx(&self, tx: &Tx, gw: u32, frac: f32, wideband: bool) -> Vec<Complex32> {
        let mut params = self.params(tx.sf_idx as usize);
        let m = self.cfg.channels.max(1);
        if wideband {
            params.osf *= m;
        }
        let payload = make_payload(tx.node, tx.seq);
        let w = Transmitter::new(params).transmit(&payload);
        let mut w = fractional_delay(&w, frac);
        apply_cfo(
            &mut w,
            space::node_cfo_hz(&self.cfg, tx.node),
            params.sample_rate(),
        );
        let snr = space::link_snr_db(&self.cfg, tx.node, gw);
        let amp = from_db(snr).sqrt();
        let phase = space::unit_f64(space::hash_words(
            self.cfg.seed,
            &[TAG_PHASE, tx.node as u64, tx.seq as u64, gw as u64],
        )) * 2.0
            * std::f64::consts::PI;
        let rot = Complex32::from_polar(amp, phase as f32);
        for s in w.iter_mut() {
            *s *= rot;
        }
        if wideband {
            upconvert(&mut w, space::node_channel(&self.cfg, tx.node), m);
        }
        w
    }
}

/// Unit-power complex AWGN as a pure function of the sample counter.
#[inline]
fn noise_sample(seed: u64, gw: u64, idx: u64) -> Complex32 {
    let z = space::hash_words(seed, &[TAG_NOISE, gw, idx]);
    let u1 = space::unit_f64(space::mix64(z ^ 0x9E37_79B9)).max(f64::MIN_POSITIVE);
    let u2 = space::unit_f64(space::mix64(z ^ 0x85EB_CA6B));
    let r = (-2.0 * u1.ln()).sqrt();
    let th = 2.0 * std::f64::consts::PI * u2;
    Complex32::new(
        (r * th.cos()) as f32 * SQRT_HALF,
        (r * th.sin()) as f32 * SQRT_HALF,
    )
}

/// Adds `w` (starting at absolute sample `start`) into `out`, whose
/// first element is absolute sample `base`.
fn add_slice(out: &mut [Complex32], base: u64, start: u64, w: &[Complex32]) {
    let lo_abs = start.max(base);
    let hi_abs = (start + w.len() as u64).min(base + out.len() as u64);
    if lo_abs >= hi_abs {
        return;
    }
    let src = (lo_abs - start) as usize;
    let dst = (lo_abs - base) as usize;
    let n = (hi_abs - lo_abs) as usize;
    for i in 0..n {
        if let (Some(o), Some(s)) = (out.get_mut(dst + i), w.get(src + i)) {
            *o += *s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnb_phy::params::SpreadingFactor;

    fn tiny() -> Scene {
        let cfg = DeployConfig {
            nodes: 70_000,
            gateways: 2,
            sfs: vec![SpreadingFactor::SF7, SpreadingFactor::SF8],
            duration_s: 0.25,
            load_pps: 12.0,
            ..DeployConfig::default()
        };
        Scene::new(cfg)
    }

    #[test]
    fn noise_is_counter_based_and_unit_power() {
        let mut p = 0.0f64;
        let n = 20_000u64;
        for i in 0..n {
            let s = noise_sample(7, 1, i);
            assert_eq!(s, noise_sample(7, 1, i), "pure function of the index");
            p += s.norm_sqr() as f64;
        }
        let mean = p / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "noise power {mean}");
    }

    #[test]
    fn windows_tile_into_the_materialized_stream() {
        let sc = tiny();
        let total = sc.total_samples();
        let full = sc.synth_window(0, 0, total);
        assert_eq!(full.len() as u64, total);
        for chunk in [977u64, 65_536] {
            let mut tiled = Vec::new();
            let mut a = 0;
            while a < total {
                let b = (a + chunk).min(total);
                tiled.extend(sc.synth_window(0, a, b));
                a = b;
            }
            assert_eq!(tiled, full, "chunk {chunk} must tile exactly");
        }
    }

    #[test]
    fn gateways_hear_different_streams() {
        let sc = tiny();
        let a = sc.synth_window(0, 0, 4_096);
        let b = sc.synth_window(1, 0, 4_096);
        assert_ne!(a, b);
    }

    #[test]
    fn wideband_window_is_m_times_longer_and_tiles() {
        let mut sc = tiny();
        sc.cfg.wideband = true;
        sc.cfg.duration_s = 0.05;
        let sc = Scene::with_schedule(sc.cfg.clone(), Vec::new());
        let m = sc.cfg.channels as u64;
        let full = sc.synth_window_wideband(0, 0, 10_000);
        assert_eq!(full.len() as u64, 10_000 * m);
        let mut tiled = sc.synth_window_wideband(0, 0, 6_000);
        tiled.extend(sc.synth_window_wideband(0, 6_000, 10_000));
        assert_eq!(tiled, full);
    }
}
