//! One run's result record: metrics with units, work counters, output
//! checks and the run environment, plus the statistics helpers every
//! workload uses to turn repeated measurements into reported values.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The end-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("msamples_per_core_s", "Msamples/s"),
    ("packets_per_core_s", "1/s"),
    ("prr", "ratio"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// The pinned, machine-independent counters (see `pins.json`).
pub const PINNED_COUNTERS: [&str; 7] = [
    "offered",
    "delivered",
    "detect.windows",
    "sync.attempts",
    "sigcalc.vectors",
    "bec.candidates",
    "bec.crc_pass",
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Metric name → (value, unit), in insertion-independent order.
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    /// Deterministic work counters (summed over the run's realizations).
    pub counters: BTreeMap<&'static str, u64>,
    /// Output checks: name → passed.
    pub checks: BTreeMap<String, bool>,
    /// Requests made of the system under test.
    pub attempted: u64,
    /// Requests that errored, were refused or were shed.
    pub failed: u64,
    /// Fingerprint of the generated input (gates the pins: a pin only
    /// applies to the exact input it was recorded on).
    pub input: u64,
    /// How the counters compare with the pinned ones (see `pins`).
    pub pins: &'static str,
    /// Human-readable lines describing the run (sample counts, traced
    /// breakdown), printed before the result.
    pub notes: Vec<String>,
}

impl Ledger {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    /// Records an output check; a failed check makes the run incorrect.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        let prev = self.checks.get(&name).copied().unwrap_or(true);
        self.checks.insert(name, prev && ok);
    }

    /// Adds a decode's stage counters to the pinned work counters.
    pub fn count_stages(&mut self, s: &tnb_core::StageCounters) {
        for (k, v) in [
            ("detect.windows", s.detect_windows),
            ("sync.attempts", s.sync_attempts),
            ("sigcalc.vectors", s.sigcalc_vectors),
            ("bec.candidates", s.bec_candidates),
            ("bec.crc_pass", s.crc_pass),
        ] {
            *self.counters.entry(k).or_insert(0) += v;
        }
    }

    /// Names of the failed checks.
    pub fn failures(&self) -> Vec<&str> {
        self.checks
            .iter()
            .filter(|(_, ok)| !**ok)
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// Records the end-to-end metrics shared by every workload: set-up
    /// time is the median of the run's set-ups, throughput divides one
    /// pass's work by its best-of-passes decode time on `workers` threads.
    pub fn end_to_end(&mut self, e: &EndToEnd) {
        let core_s = e.decode.total() * e.workers as f64;
        self.metric("setup_s", median(&e.setup_s), "s");
        self.metric(
            "msamples_per_core_s",
            e.samples as f64 / 1e6 / core_s,
            "Msamples/s",
        );
        self.metric("packets_per_core_s", e.delivered as f64 / core_s, "1/s");
        self.metric("prr", e.delivered as f64 / e.offered.max(1) as f64, "ratio");
        self.metric("latency_ms_p50", percentile(&e.latency_ms, 0.5), "ms");
        self.metric("latency_ms_p90", percentile(&e.latency_ms, 0.9), "ms");
        self.metric("peak_rss_mib", peak_rss_mib(), "MiB");
        self.notes.push(format!(
            "{} timed passes of {} steps, best pass {:.3} s vs step-wise best {:.3} s; \
             {} latency samples",
            e.decode.passes,
            e.decode.best.len(),
            e.decode.best_pass,
            e.decode.total(),
            e.latency_ms.len()
        ));
    }
}

/// Raw end-to-end measurements of one run. A pass decodes the run's
/// whole input once.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Every set-up duration, seconds.
    pub setup_s: Vec<f64>,
    /// Step-wise best decode times over the run's passes.
    pub decode: Envelope,
    /// Decode threads (throughput is per thread).
    pub workers: usize,
    /// Input samples one pass decodes.
    pub samples: u64,
    /// Transmissions offered in one pass's input.
    pub offered: u64,
    /// Of those, delivered.
    pub delivered: u64,
    /// Latency samples, ms (see each workload for what one is).
    pub latency_ms: Vec<f64>,
}

/// Best-of-passes timing of a sequence of steps that every pass repeats
/// exactly: the same calls on the same input. Per step it keeps the
/// fastest pass. The shared host's neighbours only ever add time, so the
/// minimum is the steadiest estimate of what the code costs; taking it
/// per step rather than per pass keeps one slow second from costing a
/// whole pass.
#[derive(Debug, Default, Clone)]
pub struct Envelope {
    /// Fastest time of each step, seconds.
    pub best: Vec<f64>,
    /// Passes recorded.
    pub passes: usize,
    /// Fastest whole pass, seconds (for the notes).
    pub best_pass: f64,
}

impl Envelope {
    /// Records one pass: the duration of each step, in order.
    pub fn record(&mut self, steps: &[f64]) {
        if self.passes == 0 {
            self.best = steps.to_vec();
            self.best_pass = steps.iter().sum();
        } else {
            for (b, s) in self.best.iter_mut().zip(steps) {
                *b = b.min(*s);
            }
            self.best_pass = self.best_pass.min(steps.iter().sum());
        }
        self.passes += 1;
    }

    /// Best time of one pass: the sum of the step-wise minima.
    pub fn total(&self) -> f64 {
        self.best.iter().sum()
    }

    /// Start of step `k` on the best-case timeline.
    pub fn start(&self, k: usize) -> f64 {
        self.best[..k.min(self.best.len())].iter().sum()
    }
}

/// Median (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Linear-interpolated `q`-quantile (0 for an empty slice).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Reference kernel: microseconds per 2048-point forward FFT (the
/// SF8 × OSF-8 dechirp size), median of several batches. Runs on every
/// result so timings from different runners can be put side by side.
pub fn calib_fft_us() -> f64 {
    let n = 2048;
    let plan = tnb_dsp::FftPlan::new(n);
    let mut buf: Vec<tnb_dsp::Complex32> = (0..n)
        .map(|i| tnb_dsp::Complex32::new((i as f32 * 0.37).sin(), (i as f32 * 0.11).cos()))
        .collect();
    let reps = 200;
    let mut per = Vec::new();
    for _ in 0..9 {
        let t0 = Instant::now();
        for _ in 0..reps {
            plan.forward(std::hint::black_box(&mut buf));
        }
        per.push(secs(t0) * 1e6 / reps as f64);
    }
    median(&per)
}

/// FNV-1a over 64-bit words: the input fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(pub u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Mixes one word in.
    pub fn word(&mut self, w: u64) {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    /// Mixes IQ samples in (exact bit patterns).
    pub fn samples(&mut self, s: &[tnb_dsp::Complex32]) {
        for z in s {
            self.word(u64::from(z.re.to_bits()) << 32 | u64::from(z.im.to_bits()));
        }
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (non-finite values, which no metric should
/// produce, render as 0 so the line stays parseable).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `{"name":{"value":v,"unit":"u"},…}` over the given metric names.
pub fn metrics_json(ledger: &Ledger, names: &[&str]) -> String {
    let mut out = String::from("{");
    for (i, name) in names.iter().enumerate() {
        let (v, unit) = ledger.metrics.get(name).copied().unwrap_or((0.0, ""));
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(name),
            json_num(v),
            json_str(unit)
        );
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(percentile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn envelope_keeps_the_fastest_pass_of_each_step() {
        let mut e = Envelope::default();
        e.record(&[3.0, 1.0, 2.0]);
        e.record(&[1.0, 2.0, 2.5]);
        assert_eq!(e.best, [1.0, 1.0, 2.0]);
        assert_eq!(e.total(), 4.0);
        assert_eq!(e.best_pass, 5.5);
        assert_eq!(e.start(2), 2.0);
        assert_eq!(e.passes, 2);
    }

    #[test]
    fn json_helpers_escape_and_guard() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(0.25), "0.25");
    }
}
