//! `perf`: the TnB perf ledger.
//!
//! Drives four seeded workloads through the public APIs of the TnB crates
//! and prints every end-to-end metric by name with its unit (or, with
//! `--trace`, every per-layer metric), then one JSON result line:
//!
//! ```text
//! perf --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--scale F]
//! perf --all [--seed N] [--trace]       # each workload in its own process
//! perf --pin [--seeds A-B]               # re-record pins.json
//! perf --check-pins [--seeds A-B]        # exit non-zero unless every pin holds
//! ```
//!
//! The run exits non-zero when any output check fails. See README.md for
//! the workloads, metrics, bounds and the layer → end-to-end map.

mod batch;
mod city;
mod gateway;
mod layers;
mod ledger;
mod pins;
mod wideband;

use ledger::{json_num, json_str, metrics_json, Ledger, END_TO_END};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// The workloads, in `--all` order.
pub const WORKLOADS: [&str; 4] = [
    "batch_dense_sf8",
    "gateway_rt_sf8",
    "wideband_sparse_8ch",
    "city_sic_2gw",
];

/// Options of one workload run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: draws the radio realization of the workload's scene.
    pub seed: u64,
    /// Measurement budget, seconds (each workload also has a minimum
    /// number of repeats its output checks need).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input-size multiplier (1.0 is the benchmark; the smoke test uses
    /// 0.05). Pins only apply at 1.0.
    pub scale: f64,
    /// Test seam: corrupt the input of a re-run so the output checks
    /// must fail.
    pub corrupt: bool,
}

impl Opts {
    /// Seed of realization `r` of this run.
    pub fn realization(&self, r: usize) -> u64 {
        tnb_deploy::space::hash_words(self.seed, &[0x7265_616c, r as u64])
    }
}

/// The run's realization of a deploy scene. The traffic schedule (who
/// transmits when) is fixed by `cfg`; the run seed draws everything
/// else — node positions, shadowing, CFOs and the noise. Packets then
/// keep their timing against frame, window and shard boundaries, so the
/// work and the latency structure stay comparable across seeds, while
/// every seed decodes other signals.
pub fn seeded_scene(o: &Opts, cfg: tnb_deploy::DeployConfig) -> tnb_deploy::Scene {
    let schedule = tnb_deploy::traffic::generate(&cfg);
    let seed = o.realization(0);
    tnb_deploy::Scene::with_schedule(tnb_deploy::DeployConfig { seed, ..cfg }, schedule)
}

/// Ground truth of a deploy scene: per `(node, seq)`, the channel-rate
/// sample index just past the transmission's last sample at gateway 0.
pub fn on_air_ends(sc: &tnb_deploy::Scene) -> std::collections::BTreeMap<(u32, u32), f64> {
    sc.schedule
        .iter()
        .map(|t| {
            let len = tnb_phy::Transmitter::new(sc.params(usize::from(t.sf_idx)))
                .packet_samples(tnb_sim::traffic::PAYLOAD_LEN) as f64;
            let end = t.start + tnb_deploy::space::prop_delay_samples(&sc.cfg, t.node, 0) + len;
            ((t.node, t.seq), end)
        })
        .collect()
}

/// Gateway 0's stream of a scene (wideband when the scene is),
/// synthesized a second at a time: synthesis is chunk-invariant, and
/// whole-stream synthesis would hold every packet's waveform at once.
pub fn materialize(sc: &tnb_deploy::Scene) -> Vec<tnb_dsp::Complex32> {
    let total = sc.total_samples();
    let m = if sc.cfg.wideband {
        sc.cfg.channels.max(1)
    } else {
        1
    };
    let step = 1 << 20;
    let mut iq = Vec::with_capacity(total as usize * m);
    let mut a = 0;
    while a < total {
        let b = (a + step).min(total);
        iq.extend(if sc.cfg.wideband {
            sc.synth_window_wideband(0, a, b)
        } else {
            sc.synth_window(0, a, b)
        });
        a = b;
    }
    iq
}

fn usage() -> String {
    format!(
        "usage: perf --workload <{}> [--seed N] [--seconds S] [--trace [0|1]] [--scale F]\n\
         \x20      perf --all [--seed N] [--seconds S] [--trace [0|1]] [--scale F]\n\
         \x20      perf --pin [--seeds A-B]\n\
         \x20      perf --check-pins [--seeds A-B]",
        WORKLOADS.join("|")
    )
}

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    all: bool,
    /// `Some(true)` re-records the pins, `Some(false)` checks them.
    pin: Option<bool>,
    seeds: (u64, u64),
    opts: Opts,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        pin: None,
        seeds: (1, 10),
        opts: Opts {
            seed: 1,
            seconds: 10.0,
            trace: false,
            scale: 1.0,
            corrupt: false,
        },
    };
    let mut i = 0;
    let value = |i: usize, flag: &str| -> Result<&String, String> {
        argv.get(i + 1).ok_or(format!("{flag} needs a value"))
    };
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--workload" => {
                a.workload = Some(value(i, flag)?.clone());
                i += 1;
            }
            "--all" => a.all = true,
            "--pin" => a.pin = Some(true),
            "--check-pins" => a.pin = Some(false),
            "--corrupt" => a.opts.corrupt = true,
            "--trace" => {
                // `--trace` alone or `--trace 0|1`.
                match argv.get(i + 1).map(String::as_str) {
                    Some("0") => i += 1,
                    Some("1") => {
                        a.opts.trace = true;
                        i += 1;
                    }
                    _ => a.opts.trace = true,
                }
            }
            "--seed" | "--seconds" | "--scale" | "--seeds" => {
                let v = value(i, flag)?;
                let bad = || format!("{flag}: bad value {v:?}");
                match flag {
                    "--seed" => a.opts.seed = v.parse().map_err(|_| bad())?,
                    "--seconds" => {
                        a.opts.seconds = v.parse().map_err(|_| bad())?;
                        if !(a.opts.seconds >= 0.0 && a.opts.seconds <= 3600.0) {
                            return Err(bad());
                        }
                    }
                    "--scale" => {
                        a.opts.scale = v.parse().map_err(|_| bad())?;
                        if !(a.opts.scale > 0.0 && a.opts.scale <= 1.0) {
                            return Err(bad());
                        }
                    }
                    _ => {
                        let (lo, hi) = v.split_once('-').ok_or_else(bad)?;
                        a.seeds = (
                            lo.parse().map_err(|_| bad())?,
                            hi.parse().map_err(|_| bad())?,
                        );
                    }
                }
                i += 1;
            }
            _ => return Err(format!("unknown argument {flag:?}\n{}", usage())),
        }
        i += 1;
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?}\n{}", usage()));
        }
    }
    if a.workload.is_none() && !a.all && a.pin.is_none() {
        return Err(usage());
    }
    Ok(a)
}

/// Runs one workload in this process.
fn run_workload(name: &str, o: &Opts) -> Ledger {
    let mut led = Ledger::default();
    let calib = ledger::calib_fft_us();
    match name {
        "batch_dense_sf8" => batch::run(o, &mut led, calib),
        "gateway_rt_sf8" => gateway::run(o, &mut led, calib),
        "wideband_sparse_8ch" => wideband::run(o, &mut led, calib),
        _ => city::run(o, &mut led, calib),
    }
    led.metric("calib.fft_us", calib, "us");
    led.pins = if o.scale == 1.0 {
        pins::check(name, o.seed, &mut led)
    } else {
        "none"
    };
    led
}

/// The run environment recorded with every result.
fn environment(calib: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().map(|p| p.display().to_string());
    let mut git = Command::new("git");
    git.args(["rev-parse", "--short=12", "HEAD"]);
    if let Some(c) = ceiling {
        // Never let git look above the checkout.
        git.env("GIT_CEILING_DIRECTORIES", c);
    }
    let first_line = |c: &mut Command| {
        c.output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_string))
            .unwrap_or_else(|| "unknown".to_string())
    };
    let commit = first_line(&mut git);
    let rustc = first_line(Command::new("rustc").arg("--version"));
    format!(
        "{{\"nproc\":{nproc},\"simd\":{},\"commit\":{},\"rustc\":{},\"calib.fft_us\":{}}}",
        json_str(tnb_dsp::simd::active().name()),
        json_str(&commit),
        json_str(&rustc),
        json_num(calib)
    )
}

/// Prints one run: metric lines, the ledger record, then the result line
/// (always the last line). Returns whether every check passed.
fn report(name: &str, o: &Opts, led: &Ledger) -> bool {
    for note in &led.notes {
        println!("# {note}");
    }
    let names: Vec<&str> = if o.trace {
        layers::PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    for n in &names {
        let (v, unit) = led.metrics.get(n).copied().unwrap_or((0.0, ""));
        println!("{name} {n} {} {unit}", json_num(v));
    }
    let failures = led.failures();
    for f in &failures {
        println!("# CHECK FAILED: {f}");
    }
    let calib = led.metrics.get("calib.fft_us").map_or(0.0, |m| m.0);
    // An operation is an offered transmission; a failed one was never
    // delivered.
    let offered = led.counters.get("offered").copied().unwrap_or(0);
    let delivered = led.counters.get("delivered").copied().unwrap_or(0);
    println!(
        "{{\"ledger\":\"tnb-perf\",\"workload\":{},\"seed\":{},\"trace\":{},\"scale\":{},\
         \"input\":\"{:016x}\",\"pins\":\"{}\",\"ops\":{offered},\"ops_failed\":{},\"env\":{},\
         \"metrics\":{},\"counters\":{},\"checks\":{}}}",
        json_str(name),
        o.seed,
        o.trace,
        json_num(o.scale),
        led.input,
        led.pins,
        offered.saturating_sub(delivered),
        environment(calib),
        metrics_json(led, &names),
        json_object(&led.counters),
        json_object(&led.checks),
    );
    let correct = failures.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        led.attempted.max(1),
        led.failed,
        metrics_json(led, &names)
    );
    correct
}

/// `{"k":v,…}` of a map whose values print as JSON literals.
fn json_object<K: AsRef<str>, V: std::fmt::Display>(
    map: &std::collections::BTreeMap<K, V>,
) -> String {
    let body: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k.as_ref())))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// `--all`: each workload in its own child process, so peak RSS is per
/// workload.
fn run_all(o: &Opts) -> bool {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perf: cannot locate own executable: {e}");
            return false;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--scale", &o.scale.to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }]);
        if o.corrupt {
            cmd.arg("--corrupt");
        }
        match cmd.output() {
            Ok(out) => {
                print!("{}", String::from_utf8_lossy(&out.stdout));
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                ok &= out.status.success();
            }
            Err(e) => {
                eprintln!("perf: {w}: {e}");
                ok = false;
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let ok = if let Some(write) = args.pin {
        pins::record(args.seeds, write, |w, seed| {
            let o = Opts {
                seed,
                ..args.opts.clone()
            };
            let t0 = Instant::now();
            let led = run_workload(w, &o);
            eprintln!("ran {w} seed {seed} in {:.1} s", ledger::secs(t0));
            led
        })
    } else if args.all {
        run_all(&args.opts)
    } else {
        let name = args.workload.unwrap_or_default();
        let led = run_workload(&name, &args.opts);
        report(&name, &args.opts, &led)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
