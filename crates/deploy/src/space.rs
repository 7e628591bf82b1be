//! Planar spatial model: stateless node geometry and link budgets.
//!
//! A city of 10⁶ nodes must not cost 10⁶ stored positions. Every
//! per-node and per-link quantity here — position, shadowing, CFO,
//! spreading factor, uplink channel — is a pure hash of
//! `(seed, node[, gateway])`, computed on demand in O(1). The hash is
//! the SplitMix64 finalizer, whose output is uniform enough for
//! Box–Muller shadowing draws and is endian- and platform-independent,
//! so a config reproduces the same city everywhere.

use crate::DeployConfig;

/// Propagation speed used for per-gateway arrival offsets, m/s.
pub const SPEED_OF_LIGHT_M_S: f64 = 299_792_458.0;

/// Link SNRs are clamped into this range (dB): the floor keeps the
/// weakest nodes barely undecodable rather than minus-infinitely so,
/// the ceiling models front-end saturation.
pub const SNR_CLAMP_DB: (f64, f64) = (-10.0, 30.0);

/// Log-distance path-loss exponent.
pub const PATH_LOSS_EXP: f64 = 3.5;

/// Link SNR at 1 m (transmit power minus noise floor, dB).
pub const REF_SNR_DB: f64 = 120.0;

/// Per-node CFO is drawn uniformly from `±CFO_MAX_HZ` (the paper's
/// ±4.88 kHz).
pub const CFO_MAX_HZ: f64 = 4_880.0;

// Domain-separation tags so independent draws never reuse a hash.
const TAG_X: u64 = 0x0070_6f73_5f78; // "pos_x"
const TAG_Y: u64 = 0x0070_6f73_5f79; // "pos_y"
const TAG_SHADOW: u64 = 0x7368_6164_6f77; // "shadow"
const TAG_CFO: u64 = 0x63666f; // "cfo"
const TAG_CHANNEL: u64 = 0x6368_616e; // "chan"

/// SplitMix64 finalizer: a bijective avalanche mix on 64 bits.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a word sequence under `seed` (order-sensitive).
#[inline]
pub fn hash_words(seed: u64, words: &[u64]) -> u64 {
    let mut z = mix64(seed ^ 0xD1B5_4A32_D192_ED03);
    for &w in words {
        z = mix64(z ^ w);
    }
    z
}

/// Maps a hash to a uniform `f64` in `[0, 1)` (53 mantissa bits).
#[inline]
pub fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Standard-normal draw from two independent hashes (Box–Muller).
#[inline]
pub fn gaussian(h1: u64, h2: u64) -> f64 {
    let u1 = unit_f64(h1).max(f64::MIN_POSITIVE);
    let u2 = unit_f64(h2);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Node position: uniform over the `side_m × side_m` square.
pub fn node_pos(cfg: &DeployConfig, node: u32) -> (f64, f64) {
    let x = unit_f64(hash_words(cfg.seed, &[TAG_X, node as u64])) * cfg.side_m;
    let y = unit_f64(hash_words(cfg.seed, &[TAG_Y, node as u64])) * cfg.side_m;
    (x, y)
}

/// Gateway position: the single gateway sits at the city center; `K ≥ 2`
/// gateways spread evenly on a circle of radius `side/3` around it.
pub fn gateway_pos(cfg: &DeployConfig, gw: u32) -> (f64, f64) {
    let c = cfg.side_m / 2.0;
    let k = cfg.gateways.max(1);
    if k == 1 {
        return (c, c);
    }
    let r = cfg.side_m / 3.0;
    let th = 2.0 * std::f64::consts::PI * gw as f64 / k as f64;
    (c + r * th.cos(), c + r * th.sin())
}

/// Node→gateway distance, metres (floored at 1 m so the log-distance
/// model never sees a co-located pair).
pub fn link_distance_m(cfg: &DeployConfig, node: u32, gw: u32) -> f64 {
    let (nx, ny) = node_pos(cfg, node);
    let (gx, gy) = gateway_pos(cfg, gw);
    let (dx, dy) = (nx - gx, ny - gy);
    (dx * dx + dy * dy).sqrt().max(1.0)
}

/// Link SNR in dB: log-distance path loss from the 1 m reference plus
/// per-link log-normal shadowing, clamped to [`SNR_CLAMP_DB`]. Distance
/// spread across the square gives the near-far power deltas (and thus
/// capture) for free.
pub fn link_snr_db(cfg: &DeployConfig, node: u32, gw: u32) -> f32 {
    let d = link_distance_m(cfg, node, gw);
    let path_loss = 10.0 * PATH_LOSS_EXP * d.log10();
    let h1 = hash_words(cfg.seed, &[TAG_SHADOW, node as u64, gw as u64, 0]);
    let h2 = hash_words(cfg.seed, &[TAG_SHADOW, node as u64, gw as u64, 1]);
    let shadow = gaussian(h1, h2) * cfg.shadow_sigma_db;
    (REF_SNR_DB - path_loss + shadow).clamp(SNR_CLAMP_DB.0, SNR_CLAMP_DB.1) as f32
}

/// Best link SNR over all gateways (what ADR would see).
pub fn best_snr_db(cfg: &DeployConfig, node: u32) -> f32 {
    let mut best = SNR_CLAMP_DB.0 as f32;
    for gw in 0..cfg.gateways.max(1) {
        best = best.max(link_snr_db(cfg, node, gw));
    }
    best
}

/// ADR-style spreading-factor assignment: the clamped SNR range splits
/// into `cfg.sfs.len()` equal buckets, strongest links taking the first
/// (fastest) SF and the weakest the last (slowest, most robust).
pub fn node_sf_index(cfg: &DeployConfig, node: u32) -> usize {
    let n = cfg.sfs.len();
    if n <= 1 {
        return 0;
    }
    let span = (SNR_CLAMP_DB.1 - SNR_CLAMP_DB.0) as f32;
    let depth = (SNR_CLAMP_DB.1 as f32 - best_snr_db(cfg, node)).max(0.0);
    ((depth / (span / n as f32)) as usize).min(n - 1)
}

/// Per-node crystal CFO, uniform in `±`[`CFO_MAX_HZ`].
pub fn node_cfo_hz(cfg: &DeployConfig, node: u32) -> f64 {
    let u = unit_f64(hash_words(cfg.seed, &[TAG_CFO, node as u64]));
    (2.0 * u - 1.0) * CFO_MAX_HZ
}

/// Uplink channel of a node in wideband mode (`0..channels`, by hash).
pub fn node_channel(cfg: &DeployConfig, node: u32) -> usize {
    (hash_words(cfg.seed, &[TAG_CHANNEL, node as u64]) % cfg.channels.max(1) as u64) as usize
}

/// Propagation delay of the node→gateway link in channel-rate samples
/// (at 1 Msps one sample is ~300 m of travel, so a 2 km city spans a
/// few samples of inter-gateway arrival skew).
pub fn prop_delay_samples(cfg: &DeployConfig, node: u32, gw: u32) -> f64 {
    link_distance_m(cfg, node, gw) / SPEED_OF_LIGHT_M_S * cfg.sample_rate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_stable() {
        // Pinned values: the spatial model is part of the reproducibility
        // contract, so the mixer must never drift.
        assert_eq!(mix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(
            hash_words(1, &[2, 3]),
            hash_words(1, &[2, 3]),
            "hash must be pure"
        );
        assert_ne!(hash_words(1, &[2, 3]), hash_words(1, &[3, 2]));
    }

    #[test]
    fn unit_in_range_and_gaussian_sane() {
        let mut acc = 0.0;
        for i in 0..4096u64 {
            let u = unit_f64(mix64(i));
            assert!((0.0..1.0).contains(&u));
            acc += gaussian(mix64(i ^ 0xAAAA), mix64(i ^ 0x5555));
        }
        // Mean of 4096 standard normals is within ~5σ/64 of zero.
        assert!((acc / 4096.0).abs() < 0.1, "gaussian mean {acc}");
    }

    #[test]
    fn geometry_inside_city() {
        let cfg = DeployConfig::default();
        for node in [0u32, 7, 65_536, 999_999] {
            let (x, y) = node_pos(&cfg, node);
            assert!(x >= 0.0 && x < cfg.side_m && y >= 0.0 && y < cfg.side_m);
        }
        for gw in 0..cfg.gateways {
            let (x, y) = gateway_pos(&cfg, gw);
            assert!(x >= 0.0 && x <= cfg.side_m && y >= 0.0 && y <= cfg.side_m);
        }
    }

    #[test]
    fn snr_falls_with_distance_on_average() {
        let cfg = DeployConfig {
            shadow_sigma_db: 0.0,
            ..DeployConfig::default()
        };
        // With shadowing off, SNR is monotone in distance.
        let mut pairs: Vec<(f64, f32)> = (0..200)
            .map(|n| (link_distance_m(&cfg, n, 0), link_snr_db(&cfg, n, 0)))
            .collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in pairs.windows(2) {
            assert!(w[0].1 >= w[1].1 - 1e-3);
        }
    }

    #[test]
    fn sf_assignment_covers_all_slots() {
        let cfg = DeployConfig::default();
        let mut seen = [false; 2];
        for n in 0..2_000 {
            seen[node_sf_index(&cfg, n)] = true;
        }
        assert!(seen[0] && seen[1], "both SFs should be in use");
    }

    #[test]
    fn cfo_bounded_and_channels_cover_band() {
        let cfg = DeployConfig::default();
        let mut chans = std::collections::HashSet::new();
        for n in 0..4_000 {
            assert!(node_cfo_hz(&cfg, n).abs() <= CFO_MAX_HZ);
            chans.insert(node_channel(&cfg, n));
        }
        assert_eq!(chans.len(), cfg.channels);
    }
}
