//! `serve-light-overload`: the `serve` binary's two default scenarios —
//! Poisson light load (2 jobs/Mcycle) and overload (400 jobs/Mcycle) over the
//! default interactive+batch tenant pair on 8 cores, shedding and
//! autoscaling on — each offering 10^6 jobs with the seed from `--seed`.
//!
//! The timed phase is the two `run_serve` calls.  The fluid loop, DRR
//! dispatch, the admission predictor and the P² sinks do most of the work;
//! each call starts with a small simulator calibration (single-threaded).

use crate::measure::{self, Digest};
use crate::spans::Tracer;
use crate::{Args, Outcome, Scale};
use pdfws_schedulers::SchedulerSpec;
use pdfws_serve::{run_serve, ArrivalSpec, ServeConfig, ServeReport, TenantSpec};

/// The scenarios, as (label, arrival spec).
const SCENARIOS: [(&str, &str); 2] = [
    ("light", "poisson:rate=2"),
    ("overload", "poisson:rate=400"),
];

/// Jobs offered in the calibration-only runs of the traced pass.
const CALIBRATION_JOBS: usize = 16;

/// Every (scenario label, config) of one repetition: the workload's set-up.
pub fn configs(args: &Args) -> Vec<(&'static str, ServeConfig)> {
    // Before the timed phase allocates: with glibc's default, adaptive mmap
    // threshold, the peak RSS of the same repetition landed 3.5 MB apart from
    // process to process, and from one repetition to the next.
    measure::pin_mmap_threshold();
    let jobs = match args.scale {
        Scale::Paper => 1_000_000,
        Scale::Smoke => 20_000,
    };
    SCENARIOS
        .iter()
        .map(|&(label, arrivals)| {
            let mut cfg = ServeConfig::new(8, SchedulerSpec::pdf());
            cfg.jobs = jobs;
            cfg.tenants = TenantSpec::default_pair();
            cfg.arrivals = ArrivalSpec::parse(arrivals).expect("built-in arrival spec parses");
            cfg.seed = args.seed;
            (label, cfg)
        })
        .collect()
}

fn serve_all(
    configs: &[(&'static str, ServeConfig)],
    mut tracer: Option<&mut Tracer>,
) -> Vec<ServeReport> {
    configs
        .iter()
        .map(|(label, cfg)| {
            let span = tracer.as_deref_mut().map(|t| t.open("serve.run", *label));
            let report = run_serve(cfg).expect("default configurations exist for 8 cores");
            if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
                t.close(span);
            }
            report
        })
        .collect()
}

/// Checks each scenario's accounting and SLO bound, and that every
/// repetition reproduces the first one's counters exactly.
struct RepChecker {
    jobs: u64,
    labels: Vec<&'static str>,
    first_digest: Option<String>,
}

impl RepChecker {
    fn check(&mut self, out: &mut Outcome, reports: &[ServeReport]) {
        let mut d = Digest::default();
        for (report, label) in reports.iter().zip(self.labels.iter().copied()) {
            let accounted =
                report.offered == report.completed + report.shed && report.offered == self.jobs;
            out.check(
                "offered_equals_completed_plus_shed",
                accounted,
                format!(
                    "{label}: offered {} completed {} shed {} configured {}",
                    report.offered, report.completed, report.shed, self.jobs
                ),
            );
            let worst = report.worst_p99_over_target();
            out.check(
                "admitted_p99_within_target",
                worst <= 1.0,
                format!("{label}: worst p99/target {worst}"),
            );
            d.write_str(&format!("{report:?}"));
        }
        let digest = d.hex();
        let first = self.first_digest.get_or_insert_with(|| digest.clone());
        out.check(
            "serve_digest_repeats",
            *first == digest,
            format!("{first} then {digest}"),
        );
    }
}

pub fn run(args: &Args, out: &mut Outcome) {
    let configs = configs(args);
    let setup_time = crate::setup_done(args, out);
    let mut checker = RepChecker {
        jobs: configs[0].1.jobs as u64,
        labels: configs.iter().map(|(label, _)| *label).collect(),
        first_digest: None,
    };
    let mut first: Option<Vec<ServeReport>> = None;
    let reps = measure::repeat(
        args.budget(),
        args.min_reps(),
        || (),
        |()| serve_all(&configs, None),
        |reports| {
            checker.check(out, &reports);
            first.get_or_insert(reports);
        },
    );
    out.single_thread_check(&reps);
    out.digest("serve", checker.first_digest.clone().unwrap_or_default());
    let first = first.expect("at least one repetition");
    for (label, _) in SCENARIOS {
        let (shed, offered) = first
            .iter()
            .zip(&configs)
            .filter(|(_, (l, _))| *l == label)
            .fold((0, 0), |(s, o), (r, _)| (s + r.shed, o + r.offered));
        out.health_num(
            &format!("{label}_shed_rate"),
            shed as f64 / offered.max(1) as f64,
        );
    }

    if !args.trace {
        out.end_to_end(setup_time, &reps);
        return;
    }
    let mut tracers: Vec<Tracer> = Vec::new();
    let traced = measure::repeat(
        args.budget(),
        1,
        Tracer::default,
        |mut tracer| {
            let reports = serve_all(&configs, Some(&mut tracer));
            (reports, tracer)
        },
        |(reports, tracer)| {
            checker.check(out, &reports);
            tracers.push(tracer);
        },
    );
    let mut trace = std::mem::take(&mut tracers[measure::fastest_index(&traced)]);

    // Calibration: the same configs offering a handful of jobs, so the call
    // is almost all simulator calibration.
    for (label, cfg) in &configs {
        let mut small = cfg.clone();
        small.jobs = CALIBRATION_JOBS;
        trace.scope("serve.calibrate", *label, |_| {
            run_serve(&small).expect("default configurations exist for 8 cores")
        });
    }

    let offered: u64 = first.iter().map(|r| r.offered).sum();
    for (label, _) in SCENARIOS {
        out.secs(
            format!("serve.run_s.{label}"),
            trace.total_for("serve.run", label),
        );
    }
    let calibrate = trace.total("serve.calibrate");
    out.secs("serve.calibrate_s", calibrate);
    let loop_time = trace.total("serve.run").saturating_sub(calibrate);
    out.metric(
        "serve.loop_ns_per_job",
        loop_time.as_secs_f64() * 1e9 / offered.max(1) as f64,
        "ns",
    );
    out.metric("serve.offered", offered as f64, "count");
    out.metric(
        "serve.completed",
        first.iter().map(|r| r.completed).sum::<u64>() as f64,
        "count",
    );
    out.metric(
        "serve.shed",
        first.iter().map(|r| r.shed).sum::<u64>() as f64,
        "count",
    );
    out.metric(
        "serve.scale_events",
        first.iter().map(|r| r.scale_events).sum::<u64>() as f64,
        "count",
    );
    out.metric(
        "serve.peak_active",
        first.iter().map(|r| r.peak_active).max().unwrap_or(0) as f64,
        "count",
    );
    out.trace_overhead(&reps, &traced, measure::fastest(&traced).wall);
    out.trace = Some(trace.render());
}
