//! Critically-sampled polyphase DFT filterbank: splits one wideband IQ
//! stream into `M` evenly spaced channels, each decimated by `M`.
//!
//! A real LoRa gateway (SX1302 class) digitizes one wide swath and
//! channelizes the 8 standard uplink channels in hardware; this module
//! reproduces that front-end so the per-channel `StreamingReceiver`s can
//! keep running at their native rate. Channels sit on an `fs/M` raster
//! (with `fs` the wideband input rate): channel `c ∈ 0..M` is centered
//! at offset `(c − M/2)·fs/M`, ascending in frequency. (EU868 hardware
//! uses a 200 kHz raster; the synthetic front-end keeps the raster tied
//! to `fs/M` so every downstream receiver sees exactly `fs/M` samples
//! per second — with `M = 8` and 1 Msps channels, an 8 Msps input.)
//!
//! The analysis bank computes, per output step `n` and DFT bin `k`,
//!
//! ```text
//! y_k[n] = Σ_l h[l] · x[nM − l] · e^{+j2πkl/M}
//!        = Σ_p e^{+j2πkp/M} · v_p[n],   v_p[n] = Σ_t h[tM+p] · x[nM−tM−p]
//! ```
//!
//! i.e. `M` polyphase FIR partial sums followed by an `M`-point DFT
//! (direct `M×M` matrix — `M` is 8, a matrix beats FFT bookkeeping).
//! The prototype is a Hamming-windowed sinc with cutoff at half the
//! channel spacing and unity DC gain, generated in `f64`.
//!
//! Each output step reads its `l = M·8` taps as one contiguous slice: the
//! delay line is mirrored (every sample is written twice, `l` apart), so
//! no tap index wraps. The FIR runs tap block by tap block with one lane
//! per branch `p`, so each `v_p` still sums its own taps in ascending
//! order from zero. The DFT matrix is stored by column, and each output
//! channel sums `v_p · e^{+j2πkp/M}` in ascending `p` from zero.
//!
//! Streaming state (the FIR delay line and the decimation phase) is kept
//! across [`Channelizer::push`] calls, so output is **chunk-invariant**:
//! any way of slicing the same input produces bit-identical per-channel
//! streams. All accumulation orders are fixed, so output is also
//! deterministic across runs and worker counts.

use crate::complex::Complex32;

/// Configuration for [`Channelizer`].
#[derive(Debug, Clone, Copy)]
pub struct ChannelizerConfig {
    /// Number of channels `M` (and the decimation factor). Clamped to at
    /// least 1. The LoRa uplink default is 8.
    pub channels: usize,
}

impl Default for ChannelizerConfig {
    fn default() -> Self {
        ChannelizerConfig { channels: 8 }
    }
}

/// Prototype FIR taps per polyphase branch; the total length is
/// `channels · TAPS_PER_PHASE`.
const TAPS_PER_PHASE: usize = 8;

/// Streaming polyphase analysis filterbank. See the module docs.
#[derive(Debug, Clone)]
pub struct Channelizer {
    m: usize,
    /// Hamming-windowed sinc prototype, length `l = m · TAPS_PER_PHASE`.
    proto: Vec<f32>,
    /// DFT matrix in column order, one column per logical output channel:
    /// `cols[p·m + c] = e^{+j2πkp/m}` with `k = (c + m/2) % m` the DFT bin
    /// of channel `c`, generated in `f64`.
    cols: Vec<Complex32>,
    /// Mirrored FIR delay line of length `2l`: each sample is written at
    /// `wpos` and `wpos + l`, so `delay[wpos + j]` is `x[now − j]` for
    /// every tap `j < l` without wrapping.
    delay: Vec<Complex32>,
    wpos: usize,
    /// Input samples accumulated toward the next output step (0..m).
    phase: usize,
    /// Per-step polyphase partial sums `v_p` (scratch, length `m`).
    vbuf: Vec<Complex32>,
    /// Per-step channel outputs (scratch, length `m`).
    obuf: Vec<Complex32>,
}

impl Channelizer {
    /// Builds a channelizer for `cfg`.
    pub fn new(cfg: ChannelizerConfig) -> Self {
        let m = cfg.channels.max(1);
        let len = m * TAPS_PER_PHASE;
        // Windowed-sinc prototype, cutoff at half the channel spacing
        // (±fs/2M): sinc((i − center)/M) · hamming(i), unity DC gain.
        // The LoRa signal occupies only the middle of each channel
        // (125 kHz of 1 MHz at the default raster), so the generous
        // transition band still leaves the passband flat and the
        // neighbouring channels well rejected.
        let center = (len - 1) as f64 / 2.0;
        let mut proto_f64: Vec<f64> = (0..len)
            .map(|i| {
                let t = (i as f64 - center) / m as f64;
                let s = if t.abs() < 1e-12 {
                    1.0
                } else {
                    (std::f64::consts::PI * t).sin() / (std::f64::consts::PI * t)
                };
                let w = if len > 1 {
                    0.54 - 0.46 * (2.0 * std::f64::consts::PI * i as f64 / (len - 1) as f64).cos()
                } else {
                    1.0
                };
                s * w
            })
            .collect();
        let sum: f64 = proto_f64.iter().sum();
        if sum.abs() > 1e-12 {
            for h in proto_f64.iter_mut() {
                *h /= sum;
            }
        }
        let proto: Vec<f32> = proto_f64.iter().map(|&h| h as f32).collect();
        // Logical channel c (ascending frequency) is DFT bin (c + M/2) % M.
        let cols: Vec<Complex32> = (0..m * m)
            .map(|i| {
                let (p, k) = (i / m, (i % m + m / 2) % m);
                Complex32::from_phase(2.0 * std::f64::consts::PI * ((k * p) % m) as f64 / m as f64)
            })
            .collect();
        Channelizer {
            m,
            proto,
            cols,
            delay: vec![Complex32::ZERO; 2 * len],
            wpos: 0,
            phase: 0,
            vbuf: vec![Complex32::ZERO; m],
            obuf: vec![Complex32::ZERO; m],
        }
    }

    /// Number of channels `M` (also the decimation factor).
    pub fn channels(&self) -> usize {
        self.m
    }

    /// Center-frequency offset of channel `c` as a fraction of the
    /// wideband input rate: `(c − M/2)/M`.
    pub fn channel_offset(&self, c: usize) -> f64 {
        (c as f64 - (self.m / 2) as f64) / self.m as f64
    }

    /// Clears the delay line and decimation phase for a fresh stream.
    pub fn reset(&mut self) {
        for d in self.delay.iter_mut() {
            *d = Complex32::ZERO;
        }
        self.wpos = 0;
        self.phase = 0;
    }

    /// Feeds wideband samples; appends each completed output step to the
    /// per-channel vectors (`out[c]` gains one sample per `M` input
    /// samples). Channels beyond `out.len()` are dropped; extra `out`
    /// entries are left untouched.
    pub fn push(&mut self, samples: &[Complex32], out: &mut [Vec<Complex32>]) {
        let l = self.proto.len();
        for &s in samples {
            self.wpos = if self.wpos == 0 { l - 1 } else { self.wpos - 1 };
            self.delay[self.wpos] = s;
            self.delay[self.wpos + l] = s;
            self.phase += 1;
            if self.phase == self.m {
                self.phase = 0;
                self.step(out);
            }
        }
    }

    /// One output step: polyphase partial sums, then the `M`-point DFT.
    // tnb-lint: no_alloc_root -- per output step of the wideband front-end; every buffer is sized in `new`
    fn step(&mut self, out: &mut [Vec<Complex32>]) {
        let m = self.m;
        let taps = self
            .delay
            .get(self.wpos..self.wpos + self.proto.len())
            .unwrap_or_default();
        // Tap block t holds taps j = t·m + p, one per branch p, so branch
        // p accumulates its taps in ascending-j order from zero.
        self.vbuf.fill(Complex32::ZERO);
        for (xs, hs) in taps.chunks_exact(m).zip(self.proto.chunks_exact(m)) {
            for ((v, &x), &h) in self.vbuf.iter_mut().zip(xs).zip(hs) {
                *v += x.scale(h);
            }
        }
        // Channel c accumulates v_p · w over ascending p from zero.
        self.obuf.fill(Complex32::ZERO);
        for (&v, ws) in self.vbuf.iter().zip(self.cols.chunks_exact(m)) {
            for (o, &w) in self.obuf.iter_mut().zip(ws) {
                *o += v * w;
            }
        }
        for (dst, &y) in out.iter_mut().zip(&self.obuf) {
            dst.push(y);
        }
    }
}

/// Mixes `samples` (at the wideband rate) up to channel `c`'s center:
/// sample `n` is multiplied by `e^{+j2π(c − M/2)n/M}`. The rotator is
/// periodic with period `M` and generated in `f64`, so long scenes
/// accumulate no phase error. Used to synthesize multi-channel scenes.
pub fn upconvert(samples: &mut [Complex32], c: usize, m: usize) {
    let m = m.max(1);
    let off = c as i64 - (m / 2) as i64;
    let rot: Vec<Complex32> = (0..m)
        .map(|r| {
            let cyc = (off * r as i64).rem_euclid(m as i64);
            Complex32::from_phase(2.0 * std::f64::consts::PI * cyc as f64 / m as f64)
        })
        .collect();
    for (n, s) in samples.iter_mut().enumerate() {
        *s *= rot[n % m];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(n: usize, cycles_per_sample: f64) -> Vec<Complex32> {
        (0..n)
            .map(|i| {
                Complex32::from_phase(2.0 * std::f64::consts::PI * cycles_per_sample * i as f64)
            })
            .collect()
    }

    fn energy(x: &[Complex32]) -> f32 {
        x.iter().map(|v| v.norm_sqr()).sum()
    }

    fn run(ch: &mut Channelizer, input: &[Complex32], chunk: usize) -> Vec<Vec<Complex32>> {
        let mut out: Vec<Vec<Complex32>> = (0..ch.channels()).map(|_| Vec::new()).collect();
        for c in input.chunks(chunk.max(1)) {
            ch.push(c, &mut out);
        }
        out
    }

    #[test]
    fn decimates_by_m() {
        let mut ch = Channelizer::new(ChannelizerConfig::default());
        let out = run(&mut ch, &tone(8000, 0.0), 8000);
        for c in &out {
            assert_eq!(c.len(), 1000);
        }
    }

    #[test]
    fn tone_lands_in_its_channel() {
        // A tone at each channel center must dominate that channel.
        for c in 0..8usize {
            let mut ch = Channelizer::new(ChannelizerConfig::default());
            let off = (c as f64 - 4.0) / 8.0;
            let input = tone(16_000, off);
            let out = run(&mut ch, &input, 16_000);
            let energies: Vec<f32> = out.iter().map(|o| energy(o)).collect();
            let best = energies
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap();
            assert_eq!(best, c, "tone at offset {off}: energies {energies:?}");
            // Strong isolation: every other channel at least 30 dB down.
            for (i, &e) in energies.iter().enumerate() {
                if i != c {
                    assert!(
                        e < energies[c] * 1e-3,
                        "channel {i} leakage {e} vs {}",
                        energies[c]
                    );
                }
            }
        }
    }

    #[test]
    fn chunk_invariant_bit_exact() {
        let input: Vec<Complex32> = (0..10_000)
            .map(|i| {
                let t = i as f64 * 0.013;
                Complex32::new((t.sin() * 0.7) as f32, (t.cos() * 0.3) as f32)
            })
            .collect();
        let mut ch1 = Channelizer::new(ChannelizerConfig::default());
        let whole = run(&mut ch1, &input, usize::MAX);
        for chunk in [1usize, 7, 64, 333, 4096] {
            let mut ch2 = Channelizer::new(ChannelizerConfig::default());
            let split = run(&mut ch2, &input, chunk);
            assert_eq!(whole, split, "chunk={chunk}");
        }
    }

    /// `Channelizer`'s state and kernel as they were before the mirrored
    /// delay line, the branch-lane FIR and the column-ordered DFT, kept as
    /// the bit-identity reference: a ring delay line indexed modulo its
    /// length and a row-major DFT matrix.
    struct FrozenChannelizer {
        m: usize,
        proto: Vec<f32>,
        dft: Vec<Complex32>,
        delay: Vec<Complex32>,
        wpos: usize,
        phase: usize,
        vbuf: Vec<Complex32>,
    }

    impl FrozenChannelizer {
        fn new(m: usize) -> Self {
            let dft = (0..m * m)
                .map(|i| {
                    let (k, p) = (i / m, i % m);
                    Complex32::from_phase(
                        2.0 * std::f64::consts::PI * ((k * p) % m) as f64 / m as f64,
                    )
                })
                .collect();
            FrozenChannelizer {
                m,
                proto: Channelizer::new(ChannelizerConfig { channels: m }).proto,
                dft,
                delay: vec![Complex32::ZERO; m * TAPS_PER_PHASE],
                wpos: 0,
                phase: 0,
                vbuf: Vec::new(),
            }
        }

        fn reset(&mut self) {
            for d in self.delay.iter_mut() {
                *d = Complex32::ZERO;
            }
            self.wpos = 0;
            self.phase = 0;
        }

        fn push(&mut self, samples: &[Complex32], out: &mut [Vec<Complex32>]) {
            let l = self.delay.len();
            for &s in samples {
                self.wpos = if self.wpos == 0 { l - 1 } else { self.wpos - 1 };
                self.delay[self.wpos] = s;
                self.phase += 1;
                if self.phase == self.m {
                    self.phase = 0;
                    self.frozen_step(out);
                }
            }
        }

        fn frozen_step(&mut self, out: &mut [Vec<Complex32>]) {
            let m = self.m;
            let l = self.delay.len();
            self.vbuf.clear();
            self.vbuf.resize(m, Complex32::ZERO);
            for (j, &h) in self.proto.iter().enumerate() {
                let x = self.delay[(self.wpos + j) % l];
                self.vbuf[j % m] += x.scale(h);
            }
            for (c, dst) in out.iter_mut().enumerate().take(m) {
                let k = (c + m / 2) % m;
                let mut acc = Complex32::ZERO;
                for (p, &v) in self.vbuf.iter().enumerate() {
                    acc += v * self.dft[k * m + p];
                }
                dst.push(acc);
            }
        }
    }

    /// Bits with every NaN mapped to one pattern: NaN payloads are outside
    /// the kernels' contract (see `tests/simd_parity.rs`).
    fn canon(out: &[Vec<Complex32>]) -> Vec<Vec<(u32, u32)>> {
        let c = |v: f32| if v.is_nan() { 0x7FC0_0000 } else { v.to_bits() };
        out.iter()
            .map(|o| o.iter().map(|z| (c(z.re), c(z.im))).collect())
            .collect()
    }

    #[test]
    fn bit_identical_to_the_frozen_channelizer() {
        // A wideband mix with -0 runs and sparse NaN and ±inf samples.
        let mut input = tone(300_000, 0.137);
        for (i, v) in input.iter_mut().enumerate() {
            match i % 4099 {
                0 => v.re = f32::NAN,
                1000 => v.im = f32::INFINITY,
                2000 => v.re = f32::NEG_INFINITY,
                3000..=3199 => *v = Complex32::new(-0.0, -0.0),
                _ => {}
            }
        }
        // Five channels as well as all eight: `push` fills only `out.len()`.
        for channels in [8, 5] {
            for chunk in [1usize, 7, 8, 64, 333, 262_144] {
                let mut ch = Channelizer::new(ChannelizerConfig::default());
                let mut frozen = FrozenChannelizer::new(8);
                let mut got: Vec<Vec<Complex32>> = vec![Vec::new(); channels];
                let mut want = got.clone();
                // The second pass runs after a reset, from a state the
                // first pass left mid-step.
                for part in [&input[..], &input[..100_003]] {
                    for c in part.chunks(chunk) {
                        ch.push(c, &mut got);
                        frozen.push(c, &mut want);
                    }
                    ch.reset();
                    frozen.reset();
                }
                assert_eq!(
                    canon(&got),
                    canon(&want),
                    "chunk={chunk} channels={channels}"
                );
            }
        }
    }

    #[test]
    fn reset_restores_initial_state() {
        let input = tone(4096, 0.05);
        let mut ch = Channelizer::new(ChannelizerConfig::default());
        let first = run(&mut ch, &input, 999);
        ch.reset();
        let mut out: Vec<Vec<Complex32>> = (0..8).map(|_| Vec::new()).collect();
        ch.push(&input, &mut out);
        assert_eq!(first, out);
    }

    #[test]
    fn upconvert_by_dc_channel_is_identity() {
        let mut x = tone(64, 0.01);
        let y = x.clone();
        upconvert(&mut x, 4, 8); // offset 0
        assert_eq!(x, y);
    }

    #[test]
    fn upconvert_then_channelize_recovers_channel() {
        // Baseband noise-ish signal upconverted to channel 6 must land
        // in channel 6.
        let mut x: Vec<Complex32> = (0..16_000)
            .map(|i| Complex32::from_phase((i as f64 * 0.002).sin() * 0.5))
            .collect();
        upconvert(&mut x, 6, 8);
        let mut ch = Channelizer::new(ChannelizerConfig::default());
        let out = run(&mut ch, &x, 16_000);
        let energies: Vec<f32> = out.iter().map(|o| energy(o)).collect();
        let best = energies
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(best, 6, "{energies:?}");
    }

    #[test]
    fn channel_offsets_are_ascending() {
        let ch = Channelizer::new(ChannelizerConfig::default());
        for c in 0..7 {
            assert!(ch.channel_offset(c) < ch.channel_offset(c + 1));
        }
        assert_eq!(ch.channel_offset(4), 0.0);
    }
}
