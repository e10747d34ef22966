//! `replicate-exact` and `replicate-analytic`: the paper-claim replication
//! suite (`ReplicationSuite::paper()`, claims C1–C8) run with one sweep
//! worker, in exact or analytic cache mode.
//!
//! The timed phase is one `ReplicationSuite::run` plus the in-memory
//! rendering of its report (markdown, artifact set, status CSV, JSONL).  The
//! suite pins its own seeded workload specs, so `--seed` is recorded but
//! changes nothing here.
//!
//! The traced run adds three layer passes over the Figure-1 (C1/C2),
//! class-A (C3) and class-B (C4) sweeps: a cell-by-cell pass
//! (`WorkloadInstance` builds, `analytic::profile_for`, `simulate_shared`),
//! the same grids through `SweepRunner::run_profiled`, and — in exact mode —
//! a replay of the Figure-1 DAG's references in 1DF order through
//! `CmpCacheHierarchy::access` and of its misses through
//! `MemSystem::transact`.

use crate::measure::{self, Digest};
use crate::spans::Tracer;
use crate::{Args, Outcome, Scale};
use pdfws_cache_sim::{CacheStats, CmpCacheHierarchy};
use pdfws_cmp_model::default_config;
use pdfws_core::{SweepGrid, SweepRunner, WorkloadInstance};
use pdfws_memsys::MemSystem;
use pdfws_report::{ArtifactSet, ClaimStatus, ReplicationReport, ReplicationSuite, SuiteConfig};
use pdfws_schedulers::analytic::profile_for;
use pdfws_schedulers::{simulate_shared, CacheModeSpec, SchedulerSpec, SimOptions, SimResult};
use pdfws_task_dag::TaskDag;
use std::time::Duration;

/// The suite's claim ids, in suite order (also the `report.claim_s.<id>`
/// metric suffixes).
pub const CLAIMS: [&str; 8] = [
    "c1-fig1-mpki",
    "c2-fig1-speedup",
    "c3-classa-traffic",
    "c4-classb-tie",
    "c5-fine-grain-threading-is-required",
    "c6-power-down",
    "c7-stream-tail",
    "c8-serve-slo-matrix",
];

/// Everything the timed phase needs, built before it starts.
pub struct Setup {
    suite: ReplicationSuite,
    cfg: SuiteConfig,
}

/// Spec parsing, registry initialisation and suite construction.
pub fn setup(scale: Scale, analytic: bool) -> Setup {
    // Spec parsing and registry initialisation: the cache-mode and scheduler
    // registries are built on first use.
    let mode = CacheModeSpec::parse(if analytic { "analytic" } else { "exact" })
        .expect("built-in cache mode parses");
    for spec in ["pdf", "ws"] {
        spec.parse::<SchedulerSpec>()
            .expect("built-in scheduler spec parses");
    }
    let cfg = SuiteConfig::new(scale == Scale::Smoke)
        .threads(1)
        .cache(mode);
    Setup {
        suite: ReplicationSuite::paper(),
        cfg,
    }
}

/// One timed repetition's output.
struct Rendered {
    report: Result<ReplicationReport, String>,
    status_csv: String,
    jsonl: String,
    markdown: String,
    artifacts: ArtifactSet,
}

/// Run the suite and render its report in memory, with a span per claim and
/// one around rendering when `tracer` is given.
fn replicate_once(setup: &Setup, mut tracer: Option<&mut Tracer>) -> Rendered {
    let root = tracer
        .as_deref_mut()
        .map(|t| t.open("replicate", setup.cfg.cache.to_string()));
    let mut current: Option<usize> = None;
    // `progress` fires before each claim runs, so a claim's span ends where
    // the next one starts (or where the suite returns).
    let report = setup.suite.run(setup.cfg.clone(), |claim| {
        if let Some(t) = tracer.as_deref_mut() {
            if let Some(open) = current.take() {
                t.close(open);
            }
            current = Some(t.open("report.claim", claim.id.clone()));
        }
    });
    if let (Some(t), Some(open)) = (tracer.as_deref_mut(), current) {
        t.close(open);
    }
    let render = tracer
        .as_deref_mut()
        .map(|t| t.open("report.render", "all"));
    let rendered = match report {
        Ok(report) => Rendered {
            status_csv: report.status_csv(),
            jsonl: report.to_jsonl(),
            markdown: report.to_markdown(),
            artifacts: report.artifacts(),
            report: Ok(report),
        },
        Err(e) => Rendered {
            report: Err(e.to_string()),
            status_csv: String::new(),
            jsonl: String::new(),
            markdown: String::new(),
            artifacts: ArtifactSet::new(),
        },
    };
    if let Some(t) = tracer {
        t.close(render.expect("opened with the tracer"));
        t.close(root.expect("opened with the tracer"));
    }
    rendered
}

/// Checks one repetition's output and digests it; every repetition must
/// reproduce the first one's digest.
struct RepChecker<'a> {
    expected_status: &'a str,
    first_digest: Option<String>,
}

impl RepChecker<'_> {
    fn check(&mut self, out: &mut Outcome, r: Rendered) {
        let report = match r.report {
            Ok(report) => report,
            Err(e) => {
                // Every claim of this repetition is lost.
                for _ in CLAIMS {
                    out.op(false);
                }
                out.check("suite_runs", false, e);
                return;
            }
        };
        for result in &report.results {
            out.op(result.status == ClaimStatus::Confirmed);
        }
        out.check(
            "claim_status_matches_expected",
            r.status_csv == self.expected_status,
            format!("got {:?}", r.status_csv),
        );
        let mut d = Digest::default();
        d.write_str(&r.status_csv);
        d.write_str(&r.jsonl);
        d.write_str(&r.markdown);
        for artifact in r.artifacts.iter() {
            d.write_str(&artifact.rel_path);
            d.write_str(&artifact.contents);
        }
        let digest = d.hex();
        let first = self.first_digest.get_or_insert_with(|| digest.clone());
        out.check(
            "report_digest_repeats",
            *first == digest,
            format!("{first} then {digest}"),
        );
    }
}

pub fn run(args: &Args, analytic: bool, out: &mut Outcome) {
    let setup = setup(args.scale, analytic);
    let setup_time = crate::setup_done(args, out);
    let expected_file = match args.scale {
        Scale::Paper => "full_claim_status.csv",
        Scale::Smoke => "quick_claim_status.csv",
    };
    // Relative to the checkout root, where run.py starts this process.
    let expected_path = format!("crates/report/expected/{expected_file}");
    let expected_status = std::fs::read_to_string(&expected_path)
        .unwrap_or_else(|e| panic!("cannot read {expected_path}: {e}"));
    out.health_str(
        "seed_effect",
        "none: the suite pins its own seeded workload specs",
    );
    let mut checker = RepChecker {
        expected_status: &expected_status,
        first_digest: None,
    };
    let reps = measure::repeat(
        args.budget(),
        args.min_reps(),
        || (),
        |()| replicate_once(&setup, None),
        |r| {
            checker.check(out, r);
        },
    );
    out.digest("report", checker.first_digest.clone().unwrap_or_default());
    out.health_num("sweep_threads", setup.cfg.threads as f64);
    out.check(
        "one_sweep_worker",
        setup.cfg.threads == 1,
        format!("the suite ran with {} sweep threads", setup.cfg.threads),
    );
    out.single_thread_check(&reps);

    if !args.trace {
        out.end_to_end(setup_time, &reps);
    } else {
        let mut tracers: Vec<Tracer> = Vec::new();
        let traced = measure::repeat(
            args.budget(),
            1,
            Tracer::default,
            |mut tracer| {
                let rendered = replicate_once(&setup, Some(&mut tracer));
                (rendered, tracer)
            },
            |(r, tracer)| {
                checker.check(out, r);
                tracers.push(tracer);
            },
        );
        let suite_trace = &tracers[measure::fastest_index(&traced)];
        for claim in CLAIMS {
            out.secs(
                format!("report.claim_s.{claim}"),
                suite_trace.total_for("report.claim", claim),
            );
        }
        out.secs("report.render_s", suite_trace.total("report.render"));
        out.trace_overhead(&reps, &traced, measure::fastest(&traced).wall);

        let mut layers = Tracer::default();
        layer_passes(args.scale, &setup.cfg.cache, analytic, &mut layers, out);
        out.trace = Some(format!("{}{}", suite_trace.render(), layers.render()));
    }
}

/// One of the claims' sweep grids, re-run layer by layer.  The specs mirror
/// the ones claims C1–C4 pin.
struct Sweep {
    name: &'static str,
    workloads: Vec<&'static str>,
    cores: Vec<usize>,
}

fn sweeps(scale: Scale) -> Vec<Sweep> {
    let paper = scale == Scale::Paper;
    let pick = |p: &'static str, q: &'static str| if paper { p } else { q };
    vec![
        Sweep {
            name: "fig1",
            workloads: vec![pick(
                "mergesort:grain=2048,n=1048576",
                "mergesort:grain=2048,n=65536",
            )],
            cores: vec![1, 2, 4, 8, 16, 32],
        },
        Sweep {
            name: "class-a",
            workloads: vec![pick("spmv:rows=131072", "spmv:rows=8192")],
            cores: vec![32],
        },
        Sweep {
            name: "class-b",
            workloads: vec![
                pick("scan:n=2097152", "scan:n=131072"),
                pick("compute-kernel:items=131072", "compute-kernel:items=8192"),
            ],
            cores: vec![32],
        },
    ]
}

/// Counters summed over every cell of the layer passes.
#[derive(Debug, Default)]
struct CellTotals {
    cells: u64,
    instructions: u64,
    refs: u64,
    sim_cycles: u64,
    migrations: u64,
    l1: CacheStats,
    l2: CacheStats,
    offchip_bytes: u64,
    bus_queue_cycles: u64,
    dram_queue_cycles: u64,
}

impl CellTotals {
    fn add(&mut self, r: &SimResult) {
        self.cells += 1;
        self.instructions += r.instructions;
        self.refs += r.memory_accesses;
        self.sim_cycles += r.cycles;
        self.migrations += r.migrations;
        self.l1.merge(&r.hierarchy.l1_total());
        self.l2.merge(&r.hierarchy.l2);
        self.offchip_bytes += r.hierarchy.offchip_bytes;
        self.bus_queue_cycles += r.bus_queue_cycles;
        self.dram_queue_cycles += r.dram_queue_cycles;
    }
}

fn dag_refs(dag: &TaskDag) -> u64 {
    dag.nodes().iter().map(|n| n.memory_accesses()).sum()
}

fn ns_per(d: Duration, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        d.as_secs_f64() * 1e9 / count as f64
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn layer_passes(
    scale: Scale,
    mode: &CacheModeSpec,
    analytic: bool,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let line_bytes = default_config(1)
        .expect("one-core default config")
        .l2
        .line_bytes as u64;
    let options = SimOptions {
        cache_mode: mode.clone(),
        ..SimOptions::default()
    };
    let specs = SchedulerSpec::paper_pair();
    let (mut dags, mut tasks, mut dag_ref_total, mut profiled_refs) = (0u64, 0u64, 0u64, 0u64);
    let mut totals = CellTotals::default();
    let mut runner_overhead = Duration::ZERO;
    let mut cell_digest = Digest::default();
    let mut fig1_dag = None;
    let all_sweeps = sweeps(scale);
    for sweep in &all_sweeps {
        let pass = tracer.open("bench.sweep", sweep.name);
        let instances: Vec<WorkloadInstance> = sweep
            .workloads
            .iter()
            .map(|w| {
                tracer.scope("workloads.build", *w, |_| {
                    w.parse::<WorkloadInstance>()
                        .expect("claim workload specs parse")
                })
            })
            .collect();
        for inst in &instances {
            dags += 1;
            tasks += inst.dag.len() as u64;
            dag_ref_total += dag_refs(&inst.dag);
            if analytic {
                tracer.scope("schedulers.profile", inst.spec.canonical(), |_| {
                    profile_for(&inst.dag, line_bytes)
                });
                profiled_refs += dag_refs(&inst.dag);
            }
        }

        // Cell by cell, in the runner's report order: per workload its
        // one-core sequential baseline, then cores (outer) x specs (inner).
        let mut direct: Vec<SimResult> = Vec::new();
        for inst in &instances {
            let baseline = SchedulerSpec::sequential_baseline();
            let mut cells = vec![(1, baseline, "baseline".to_string())];
            for &cores in &sweep.cores {
                cells.extend(specs.iter().map(|s| (cores, s.clone(), s.to_string())));
            }
            for (cores, spec, label) in cells {
                let config = default_config(cores).expect("default config per core count");
                let id = format!("{}@{cores}/{label}", inst.spec.canonical());
                let result = tracer.scope("schedulers.simulate", id, |_| {
                    simulate_shared(inst.dag.clone(), &config, &spec, &options)
                });
                totals.add(&result);
                cell_digest.write_str(&format!("{result:?}"));
                direct.push(result);
            }
        }

        let grid = instances.iter().fold(
            SweepGrid::new()
                .cores(&sweep.cores)
                .specs(&specs)
                .cache(mode.clone()),
            |grid, inst| grid.workload(inst.clone()),
        );
        let span = tracer.open("core.sweep", sweep.name);
        let (report, profile) = SweepRunner::new(1)
            .run_profiled(&grid)
            .expect("claim sweep grids are valid");
        tracer.close(span);
        let cell_wall: Duration = (0..profile.cell_count())
            .map(|i| profile.cell_wall(i))
            .sum();
        runner_overhead += tracer.spans()[span].duration().saturating_sub(cell_wall);
        let via_runner: Vec<SimResult> = report
            .reports()
            .iter()
            .flat_map(|r| {
                std::iter::once(r.baseline.clone())
                    .chain(r.runs().iter().map(|run| run.metrics.clone()))
            })
            .collect();
        out.check(
            "cell_pass_matches_runner",
            direct == via_runner,
            format!(
                "sweep {}: simulate_shared cells vs SweepRunner reports",
                sweep.name
            ),
        );
        if sweep.name == "fig1" {
            fig1_dag = instances.first().map(|inst| inst.dag.clone());
        }
        tracer.close(pass);
    }

    out.secs("workloads.build_s", tracer.total("workloads.build"));
    out.metric("workloads.dags", dags as f64, "count");
    out.metric("workloads.tasks", tasks as f64, "count");
    out.metric("workloads.refs", dag_ref_total as f64, "count");

    let simulate = tracer.total("schedulers.simulate");
    out.secs("schedulers.simulate_s", simulate);
    out.metric("schedulers.cells", totals.cells as f64, "count");
    out.metric(
        "schedulers.instructions",
        totals.instructions as f64,
        "count",
    );
    out.metric("schedulers.refs", totals.refs as f64, "count");
    out.metric("schedulers.ns_per_ref", ns_per(simulate, totals.refs), "ns");
    out.metric("schedulers.sim_cycles", totals.sim_cycles as f64, "cycles");
    out.metric("schedulers.migrations", totals.migrations as f64, "count");
    let profile = tracer.total("schedulers.profile");
    out.secs("schedulers.profile_s", profile);
    out.metric("schedulers.profiled_refs", profiled_refs as f64, "count");
    out.metric(
        "schedulers.ns_per_profiled_ref",
        ns_per(profile, profiled_refs),
        "ns",
    );

    out.metric("cache-sim.l1_hits", totals.l1.hits() as f64, "count");
    out.metric("cache-sim.l2_hits", totals.l2.hits() as f64, "count");
    out.metric("cache-sim.l2_misses", totals.l2.misses() as f64, "count");
    out.metric("cache-sim.writebacks", totals.l2.writebacks as f64, "count");
    out.metric(
        "cache-sim.l2_hit_ratio",
        ratio(totals.l2.hits(), totals.l2.accesses()),
        "ratio",
    );
    out.metric("memsys.offchip_bytes", totals.offchip_bytes as f64, "bytes");
    out.metric(
        "memsys.bus_queue_cycles",
        totals.bus_queue_cycles as f64,
        "cycles",
    );
    out.metric(
        "memsys.dram_queue_cycles",
        totals.dram_queue_cycles as f64,
        "cycles",
    );

    out.secs("core.sweep_s", tracer.total("core.sweep"));
    out.metric("core.sweeps", all_sweeps.len() as f64, "count");
    out.secs("core.runner_overhead_s", runner_overhead);
    out.digest("cells", cell_digest.hex());

    // The replay probes price references through the hierarchy and the
    // memory system; analytic mode does neither, so its run skips them.
    if !analytic {
        let dag = fig1_dag.expect("the fig1 sweep ran");
        replay_probes(&dag, tracer, out);
    }
}

/// Replay the Figure-1 DAG's references in 1DF order (the sequential
/// schedule) through a one-core hierarchy, then its misses through the
/// memory system.  An in-order core: each reference advances the clock by
/// its hit latency, and each miss issues at the clock it was found.
fn replay_probes(dag: &TaskDag, tracer: &mut Tracer, out: &mut Outcome) {
    let config = default_config(1).expect("one-core default config");
    let mut refs: Vec<(u64, bool)> = Vec::new();
    for task in dag.one_df_order() {
        for pattern in &dag.node(task).accesses {
            refs.extend(pattern.iter().map(|a| (a.addr, a.write)));
        }
    }
    let mut hierarchy = CmpCacheHierarchy::new(&config);
    let line = hierarchy.line_bytes();
    let mut misses: Vec<(u64, u64, u64)> = Vec::new();
    let mut clock = 0u64;
    tracer.scope("cache-sim.replay", "fig1-1df", |_| {
        for &(addr, write) in &refs {
            let outcome = hierarchy.access(0, addr, write);
            clock += outcome.latency.max(1);
            if outcome.is_offchip() {
                misses.push((addr / line, outcome.offchip_bytes, clock));
            }
        }
    });
    let mut mem = MemSystem::new(&config.resolved_memsys());
    let mut queued = 0u64;
    tracer.scope("memsys.replay", "fig1-1df", |_| {
        for &(block, bytes, at) in &misses {
            let tx = mem.transact(0, block, bytes, at);
            queued += tx.bus_queue_cycles + tx.dram_queue_cycles;
        }
    });
    out.metric(
        "cache-sim.replay_ns_per_access",
        ns_per(tracer.total("cache-sim.replay"), refs.len() as u64),
        "ns",
    );
    out.metric(
        "memsys.row_hit_ratio",
        ratio(mem.row_hits(), mem.row_hits() + mem.row_misses()),
        "ratio",
    );
    out.metric(
        "memsys.replay_ns_per_txn",
        ns_per(tracer.total("memsys.replay"), misses.len() as u64),
        "ns",
    );
    let mut d = Digest::default();
    d.write_str(&format!("{:?}", hierarchy.stats()));
    d.write_str(&format!(
        "{} {} {} {queued}",
        misses.len(),
        mem.row_hits(),
        mem.row_misses()
    ));
    out.digest("replay", d.hex());
}
