//! `perfbench`: one workload of the gating benchmark, measured in its own
//! process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale paper|smoke]
//! ```
//!
//! Normally driven by `run.py`, which builds this binary, runs it and turns
//! its report (the last line of stdout, one JSON object) into the benchmark's
//! result line.  With `--trace 0` the report carries the end-to-end metrics
//! (`wall_s`, `cpu_s`, `setup_s`, `peak_rss_mb`); with `--trace 1` it carries
//! the per-layer metrics of a separate traced run.  See `NOTES.md`.

mod measure;
mod replicate;
mod serve;
mod spans;

use measure::Rep;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
pub const WORKLOADS: [&str; 3] = [
    "replicate-exact",
    "replicate-analytic",
    "serve-light-overload",
];

/// The end-to-end metrics of a timed run (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of a traced run (`--trace 1`), with units.  A
/// workload whose path does not reach a layer reports that layer's metrics
/// as 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("workloads.build_s", "s"),
    ("workloads.dags", "count"),
    ("workloads.tasks", "count"),
    ("workloads.refs", "count"),
    ("schedulers.simulate_s", "s"),
    ("schedulers.cells", "count"),
    ("schedulers.instructions", "count"),
    ("schedulers.refs", "count"),
    ("schedulers.ns_per_ref", "ns"),
    ("schedulers.sim_cycles", "cycles"),
    ("schedulers.migrations", "count"),
    ("schedulers.profile_s", "s"),
    ("schedulers.profiled_refs", "count"),
    ("schedulers.ns_per_profiled_ref", "ns"),
    ("cache-sim.l1_hits", "count"),
    ("cache-sim.l2_hits", "count"),
    ("cache-sim.l2_misses", "count"),
    ("cache-sim.writebacks", "count"),
    ("cache-sim.l2_hit_ratio", "ratio"),
    ("cache-sim.replay_ns_per_access", "ns"),
    ("memsys.offchip_bytes", "bytes"),
    ("memsys.bus_queue_cycles", "cycles"),
    ("memsys.dram_queue_cycles", "cycles"),
    ("memsys.row_hit_ratio", "ratio"),
    ("memsys.replay_ns_per_txn", "ns"),
    ("core.sweep_s", "s"),
    ("core.sweeps", "count"),
    ("core.runner_overhead_s", "s"),
    ("report.claim_s.c1-fig1-mpki", "s"),
    ("report.claim_s.c2-fig1-speedup", "s"),
    ("report.claim_s.c3-classa-traffic", "s"),
    ("report.claim_s.c4-classb-tie", "s"),
    ("report.claim_s.c5-fine-grain-threading-is-required", "s"),
    ("report.claim_s.c6-power-down", "s"),
    ("report.claim_s.c7-stream-tail", "s"),
    ("report.claim_s.c8-serve-slo-matrix", "s"),
    ("report.render_s", "s"),
    ("serve.run_s.light", "s"),
    ("serve.run_s.overload", "s"),
    ("serve.calibrate_s", "s"),
    ("serve.loop_ns_per_job", "ns"),
    ("serve.offered", "count"),
    ("serve.completed", "count"),
    ("serve.shed", "count"),
    ("serve.scale_events", "count"),
    ("serve.peak_active", "count"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.reference_loop_s", "s"),
];

/// Problem sizes: the gated paper scale, or a seconds-long smoke scale for
/// the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Paper,
    Smoke,
}

impl Scale {
    fn name(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Smoke => "smoke",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Only build the workload's set-up, print `setup_s` of this process in
    /// seconds and exit.
    pub setup_probe: bool,
    /// When `main` started: the origin of `setup_s`.
    pub started: Instant,
}

impl Args {
    /// Time budget of one measured loop.  A traced run splits its budget
    /// between an untraced and a traced loop.
    pub fn budget(&self) -> Duration {
        let share = if self.trace { 0.5 } else { 1.0 };
        Duration::from_secs_f64(self.seconds * share)
    }

    /// Repetitions a measured loop makes at least: the fastest of three for
    /// the timed runs, one per loop in a traced run.
    pub fn min_reps(&self) -> usize {
        if self.trace {
            1
        } else {
            3
        }
    }
}

fn parse_args(started: Instant) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Paper,
        setup_probe: false,
        started,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = match v.parse::<f64>() {
                    Ok(s) if s > 0.0 && s.is_finite() => s,
                    _ => return Err(format!("bad --seconds '{v}'")),
                };
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace '{v}' (want 0 or 1)")),
                };
            }
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "paper" => Scale::Paper,
                    "smoke" => Scale::Smoke,
                    v => return Err(format!("bad --scale '{v}' (want paper or smoke)")),
                };
            }
            "--setup-probe" => args.setup_probe = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown --workload '{}' (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// What one run found: operations attempted and failed, the checks behind
/// them, metrics, run health and digests.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    checks: Vec<(String, bool, String)>,
    metrics: Vec<(String, f64, &'static str)>,
    health: Vec<(String, String)>,
    digests: Vec<(String, String)>,
    pub trace: Option<String>,
    /// Host readings taken when set-up ended, to compare with the end.
    start_steal_ticks: u64,
    start_load: f64,
    start_reference: Duration,
}

impl Outcome {
    /// Count one operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Count one output check as an operation and record it.  Repeated
    /// checks of the same name are folded into one record.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.op(ok);
        match self.checks.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) => {
                if entry.1 && !ok {
                    entry.1 = false;
                    entry.2 = detail.into();
                }
            }
            None => self.checks.push((name.to_string(), ok, detail.into())),
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(
            self.metrics.iter().all(|(n, _, _)| *n != name),
            "metric '{name}' reported twice"
        );
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, value, unit));
    }

    /// Complete and order the metric set against `declared`: a declared
    /// metric the run did not reach is reported as 0, and an undeclared or
    /// mis-unitted one is a bug in this program.
    fn settle_metrics(&mut self, declared: &[(&'static str, &'static str)]) {
        for (name, value, unit) in &self.metrics {
            assert!(
                declared.contains(&(name.as_str(), *unit)),
                "undeclared metric '{name}' ({value} {unit})"
            );
        }
        self.metrics = declared
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .metrics
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .map_or(0.0, |m| m.1);
                (name.to_string(), value, unit)
            })
            .collect();
    }

    /// The process ran the timed phase on one thread: no other thread is
    /// alive and no repetition used more CPU time than wall time.
    pub fn single_thread_check(&mut self, reps: &[Rep]) {
        let best = measure::fastest(reps);
        let alive = measure::thread_count();
        self.health_num("threads_after_run", alive as f64);
        self.health_num(
            "cpu_over_wall",
            best.cpu.as_secs_f64() / best.wall.as_secs_f64(),
        );
        self.check(
            "single_threaded",
            alive == 1 && best.cpu <= best.wall.mul_f64(1.02) + Duration::from_millis(20),
            format!(
                "threads alive {alive}, cpu {:?}, wall {:?}",
                best.cpu, best.wall
            ),
        );
    }

    pub fn secs(&mut self, name: impl Into<String>, value: Duration) {
        self.metric(name, value.as_secs_f64(), "s");
    }

    pub fn health_num(&mut self, key: &str, value: f64) {
        self.health.push((key.to_string(), json_num(value)));
    }

    pub fn health_str(&mut self, key: &str, value: &str) {
        self.health.push((key.to_string(), json_str(value)));
    }

    pub fn digest(&mut self, key: &str, hex: String) {
        self.digests.push((key.to_string(), hex));
    }

    /// The end-to-end metrics of a timed run, plus its repetition health.
    pub fn end_to_end(&mut self, setup: Duration, reps: &[Rep]) {
        let best = measure::fastest(reps);
        self.secs("wall_s", best.wall);
        self.secs("cpu_s", best.cpu);
        self.secs("setup_s", setup);
        self.metric("peak_rss_mb", measure::peak_rss_mb(), "MB");
        self.repetition_health("", reps);
    }

    /// `bench.trace_overhead_frac` (the traced phase's fastest wall time over
    /// the untraced one's, minus one) and the health of both loops.
    pub fn trace_overhead(&mut self, untraced: &[Rep], traced: &[Rep], traced_wall: Duration) {
        let untraced_wall = measure::fastest(untraced).wall;
        let overhead = traced_wall.as_secs_f64() / untraced_wall.as_secs_f64() - 1.0;
        self.metric("bench.trace_overhead_frac", overhead, "ratio");
        self.repetition_health("untraced_", untraced);
        self.repetition_health("traced_", traced);
    }

    /// Repetition count and the fastest and slowest repetition of a loop.
    pub fn repetition_health(&mut self, prefix: &str, reps: &[Rep]) {
        self.health_num(&format!("{prefix}reps"), reps.len() as f64);
        let (best, worst) = (measure::fastest(reps), measure::slowest(reps));
        self.health_num(&format!("{prefix}fastest_rep_s"), best.wall.as_secs_f64());
        self.health_num(&format!("{prefix}slowest_rep_s"), worst.wall.as_secs_f64());
    }

    fn to_json(&self, args: &Args) -> String {
        let object = |pairs: Vec<String>| format!("{{{}}}", pairs.join(","));
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(name, ok, detail)| {
                format!(
                    "{{\"name\":{},\"ok\":{ok},\"detail\":{}}}",
                    json_str(name),
                    json_str(detail)
                )
            })
            .collect();
        let metrics = object(
            self.metrics
                .iter()
                .map(|(name, value, unit)| {
                    format!(
                        "{}:{{\"value\":{},\"unit\":{}}}",
                        json_str(name),
                        json_num(*value),
                        json_str(unit)
                    )
                })
                .collect(),
        );
        let health = object(
            self.health
                .iter()
                .map(|(k, v)| format!("{}:{v}", json_str(k)))
                .collect(),
        );
        let digests = object(
            self.digests
                .iter()
                .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
                .collect(),
        );
        format!(
            "{{\"workload\":{},\"seed\":{},\"trace\":{},\"correct\":{},\"attempted\":{},\
             \"failed\":{},\"checks\":[{}],\"metrics\":{metrics},\"health\":{health},\
             \"digest\":{digests}}}",
            json_str(&args.workload),
            args.seed,
            u8::from(args.trace),
            self.failed == 0,
            self.attempted,
            self.failed,
            checks.join(","),
        )
    }
}

/// Processes `setup_s` is the median over: the workload's own and fresh
/// copies of this program run with `--setup-probe`.
const SETUP_PROCESSES: usize = 21;

/// Call once the workload's set-up is built, just before its first timed
/// call.  Returns `setup_s`: the time from the start of `main` to that
/// point, median over this process and fresh copies of it that build the
/// same set-up, print their figure and exit (`--setup-probe`).  One
/// process's figure is 25–80 microseconds of cold code, page faults and
/// allocation and moves by tens of percent between processes; the median
/// over processes narrows it.  Then takes the run-health readings the end
/// of the run is compared with.
pub fn setup_done(args: &Args, out: &mut Outcome) -> Duration {
    let own = args.started.elapsed();
    let exe = std::env::current_exe().expect("path of this executable");
    let seed = args.seed.to_string();
    let mut samples = vec![own];
    for _ in 1..SETUP_PROCESSES {
        let probe = std::process::Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed])
            .args(["--scale", args.scale.name(), "--setup-probe"])
            .output()
            .expect("spawn a set-up probe");
        assert!(
            probe.status.success(),
            "set-up probe failed: {}",
            String::from_utf8_lossy(&probe.stderr)
        );
        let secs: f64 = String::from_utf8_lossy(&probe.stdout)
            .trim()
            .parse()
            .expect("set-up probe prints seconds");
        samples.push(Duration::from_secs_f64(secs));
    }
    out.health_num("own_setup_s", own.as_secs_f64());
    out.health_num("nproc", measure::nproc() as f64);
    out.start_steal_ticks = measure::steal_ticks();
    out.start_load = measure::load_average();
    out.start_reference = measure::reference_loop();
    out.health_num("reference_loop_s", out.start_reference.as_secs_f64());
    measure::median(samples)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let started = Instant::now();
    let args = match parse_args(started) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.setup_probe {
        // Kept alive until the time is taken, as the workload's own process
        // keeps it through its timed phase.
        let setup: Box<dyn std::any::Any> = match args.workload.as_str() {
            "replicate-exact" => Box::new(replicate::setup(args.scale, false)),
            "replicate-analytic" => Box::new(replicate::setup(args.scale, true)),
            "serve-light-overload" => Box::new(serve::configs(&args)),
            _ => unreachable!("parse_args validated the workload"),
        };
        let elapsed = started.elapsed();
        drop(setup);
        println!("{}", elapsed.as_secs_f64());
        return;
    }
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "replicate-exact" => replicate::run(&args, false, &mut out),
        "replicate-analytic" => replicate::run(&args, true, &mut out),
        "serve-light-overload" => serve::run(&args, &mut out),
        _ => unreachable!("parse_args validated the workload"),
    }
    out.health_num(
        "steal_ticks",
        measure::steal_ticks().saturating_sub(out.start_steal_ticks) as f64,
    );
    out.health_num("loadavg_start", out.start_load);
    out.health_num("loadavg_end", measure::load_average());
    out.health_num(
        "reference_loop_end_s",
        measure::reference_loop().as_secs_f64(),
    );
    if args.trace {
        out.secs("bench.reference_loop_s", out.start_reference);
        out.settle_metrics(&PER_LAYER);
    } else {
        out.settle_metrics(&END_TO_END);
    }
    if let Some(trace) = &out.trace {
        print!("{trace}");
    }
    println!("{}", out.to_json(&args));
}
