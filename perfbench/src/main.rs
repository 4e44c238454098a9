//! `gts-perfbench`: the repository's benchmark.
//!
//! ```text
//! gts-perfbench --workload <pagerank-stream|bfs-point|serve-live>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, sets the engine up
//! several times, then runs one closed-loop client for `--seconds` and
//! checks every answer. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` runs half the time untraced and half traced, measures
//! each layer, writes a Chrome trace under `.perfbench/`, and prints the
//! per-layer metrics. The last line of stdout is one JSON object; the
//! exit code is 0 only if every answer was right.

mod bench;
mod cal;
mod host;
mod inputs;
mod layers;
mod stats;
mod trace;
mod workloads;

use bench::{closed_loop, Clock, Loop};
use cal::{calibrated, Kernel};
use gts_core::Engine;
use gts_storage::{build_graph_store, GraphStore};
use stats::{median, percentile};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{
    config, page_format, BfsPoint, Env, PagerankStream, ServeLive, SimRecord, Workload,
};

/// End-to-end metrics, printed by `--trace 0` in this order.
const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("edges_per_s", "edges/s"),
    ("jobs_per_s", "jobs/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by `--trace 1` in this order.
const LAYERS: &[(&str, &str)] = &[
    ("storage.build_ms", "ms"),
    ("storage.verify_us_per_page", "us"),
    ("storage.decode_ns_per_edge", "ns"),
    ("storage.lru_probe_ns", "ns"),
    ("storage.apply_ms_per_batch", "ms"),
    ("storage.wal_append_us", "us"),
    ("core.phase_a_ns_per_edge", "ns"),
    ("core.phase_b_ms_per_op", "ms"),
    ("core.rest_ms_per_op", "ms"),
    ("core.sweeps_per_op", "count"),
    ("core.pages_streamed_per_op", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.edges_per_op", "count"),
    ("core.kernel_launches_per_op", "count"),
    ("exec.par_map_us", "us"),
    ("exec.cpu_per_wall", "ratio"),
    ("serve.batch_gen_ms", "ms"),
    ("serve.session_ms", "ms"),
    ("serve.solo_sum_ms", "ms"),
    ("serve.speedup_vs_solo", "ratio"),
    ("serve.epochs_per_session", "count"),
    ("serve.wal_bytes_per_session", "bytes"),
    ("serve.journal_bytes_per_session", "bytes"),
    ("sim.op_ms", "ms"),
    ("sim.lat_p50_ms", "ms"),
    ("sim.lat_p90_ms", "ms"),
    ("sim.kernel_ms_per_op", "ms"),
    ("sim.transfer_ms_per_op", "ms"),
    ("sim.stream_stalls_per_op", "count"),
    ("host.steal_pct", "%"),
    ("host.cal_ms", "ms"),
    ("host.raw_op_p50_ms", "ms"),
    ("host.cores", "count"),
    ("trace.overhead_pct", "%"),
];

/// Set up at least this many times per run...
const SETUP_REPS: usize = 10;

/// ...and for at least this long, so that small stores set up often
/// enough for a steady median.
const SETUP_SECONDS: f64 = 4.0;

/// Every run times at least this many ops, so that p90 has ten samples
/// beyond it.
const MIN_OPS: usize = 100;

/// Ops per half of a traced run, at least (enough for a median).
const MIN_TRACED_OPS: usize = 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The result line's content.
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

/// Collects metric values, then emits them in a declared order.
struct Values(Vec<(&'static str, f64)>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    fn ordered(
        &self,
        decl: &[(&'static str, &'static str)],
    ) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        decl.iter()
            .map(|&(name, unit)| {
                let v = self
                    .0
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, v)| v)
                    .ok_or_else(|| format!("metric {name} was not measured"))?;
                if !v.is_finite() {
                    return Err(format!("metric {name} is {v}"));
                }
                Ok((name, v, unit))
            })
            .collect()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gts-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = PathBuf::from(".perfbench").join(std::process::id().to_string());
    let result = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(report) => {
            println!("{}", report.json());
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "gts-perfbench: {} of {} ops failed their check",
                    report.failed, report.attempted
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("gts-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &Args, scratch: &std::path::Path) -> Result<Report, String> {
    let (scale, kernel) = match args.workload.as_str() {
        "pagerank-stream" => (18, Kernel::OneThread),
        "bfs-point" => (16, Kernel::OneThread),
        "serve-live" => (13, Kernel::OneAndTwoThreads),
        other => {
            return Err(format!(
                "unknown workload {other:?} (pagerank-stream | bfs-point | serve-live)"
            ))
        }
    };
    std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let graph = inputs::graph(scale, args.seed);
    let mut clock = Clock::new(kernel);
    let mut tracer = Tracer::new(args.trace);
    let (store, engine, setup) = set_up(&mut clock, &mut tracer, &graph)?;
    let mut env = Env {
        clock,
        tracer,
        store,
        engine,
        traced_engine: Engine::new(config(true)).map_err(|e| e.to_string())?,
        scratch: scratch.to_path_buf(),
    };
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "pagerank-stream" => Box::new(PagerankStream::new(&graph)),
        "bfs-point" => Box::new(BfsPoint::new(&graph, args.seed)),
        _ => Box::new(ServeLive::new(&graph, args.seed)),
    };
    drop(graph);

    // A traced run spends half its time untraced, half traced, and runs
    // every fixed op untraced for the simulated-clock metrics.
    let fixed = workload.fixed_ops();
    let (seconds, min_ops) = if args.trace {
        (args.seconds / 2.0, MIN_TRACED_OPS.max(fixed))
    } else {
        (args.seconds, MIN_OPS)
    };
    let mut sim: Vec<SimRecord> = Vec::new();
    let plain = closed_loop(seconds, min_ops, |i| {
        let (out, rec) = workload.op(&mut env, i, false)?;
        if i == sim.len() && i < fixed {
            sim.push(rec);
        }
        Ok(out)
    })?;
    summarize("untraced", &plain);
    let mut attempted = plain.ops.len();
    let mut failed = plain.failed();

    let mut values = Values(Vec::new());
    if !args.trace {
        values.set("setup_s", setup.s);
        values.set("edges_per_s", plain.median_rate(|o| o.edges));
        values.set("jobs_per_s", plain.median_rate(|o| o.jobs));
        values.set("op_p50_ms", plain.op_pct_ms(50.0)?);
        values.set("op_p90_ms", plain.op_pct_ms(90.0)?);
        values.set("peak_rss_mb", host::peak_rss_mb()?);
        return Ok(Report {
            attempted,
            failed,
            metrics: values.ordered(E2E)?,
        });
    }

    let traced = closed_loop(seconds, MIN_TRACED_OPS, |i| {
        Ok(workload.op(&mut env, i, true)?.0)
    })?;
    summarize("traced", &traced);
    attempted += traced.ops.len();
    failed += traced.failed();

    let sessions = workload.sessions().to_vec();
    let serve = layers::serve_layer(&mut env, &sessions)?;
    attempted += serve.solo.len();
    failed += serve.mismatches;
    let micro = layers::micro(&mut env, &serve.solo, args.seed)?;
    sim_values(&mut values, &sim)?;
    layer_values(&mut values, setup.build_ms, &plain, &traced, &serve, &micro);

    let path =
        PathBuf::from(".perfbench").join(format!("trace-{}-{}.json", args.workload, args.seed));
    std::fs::write(&path, env.tracer.to_chrome_trace())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("trace: {} spans in {}", env.tracer.len(), path.display());
    Ok(Report {
        attempted,
        failed,
        metrics: values.ordered(LAYERS)?,
    })
}

/// Calibrated set-up times.
struct SetUp {
    /// Generated edge list to ready engine, s.
    s: f64,
    /// The `build_graph_store` part, ms.
    build_ms: f64,
}

/// Set up at least [`SETUP_REPS`] times and for at least
/// [`SETUP_SECONDS`]; each figure is the median raw time calibrated by
/// the median kernel time, which steadies small set-ups more than
/// calibrating each one.
fn set_up(
    clock: &mut Clock,
    tracer: &mut Tracer,
    graph: &gts_graph::EdgeList,
) -> Result<(GraphStore, Engine, SetUp), String> {
    let (mut raw_ms, mut build_ms, mut cal_ms) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        let (built, t) = clock.time(|| {
            tracer.span("setup", |tr| {
                let t0 = Instant::now();
                let store = tr.span("storage.build_graph_store", |_| {
                    build_graph_store(graph, page_format())
                });
                let build = t0.elapsed().as_secs_f64() * 1e3;
                let engine = tr.span("core.Engine::new", |_| Engine::new(config(false)));
                (store, engine, build)
            })
        })?;
        let (store, engine, build) = built;
        raw_ms.push(t.raw_ms);
        build_ms.push(build);
        cal_ms.push(t.cal_ms);
        if raw_ms.len() >= SETUP_REPS && start.elapsed().as_secs_f64() >= SETUP_SECONDS {
            let cal = median(&cal_ms);
            let setup = SetUp {
                s: calibrated(median(&raw_ms), cal) / 1e3,
                build_ms: calibrated(median(&build_ms), cal),
            };
            return Ok((
                store.map_err(|e| format!("build: {e}"))?,
                engine.map_err(|e| format!("engine: {e}"))?,
                setup,
            ));
        }
    }
}

/// The simulated-clock metrics of the fixed ops.
fn sim_values(v: &mut Values, sim: &[SimRecord]) -> Result<(), String> {
    let lat: Vec<f64> = sim
        .iter()
        .flat_map(|r| r.job_lat_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    let pct = |p| {
        percentile(&lat, p)
            .ok_or_else(|| format!("{} simulated latencies: too few for p{p}", lat.len()))
    };
    let op_ms: Vec<f64> = sim.iter().map(|r| r.op_ns as f64 / 1e6).collect();
    v.set("sim.op_ms", median(&op_ms));
    v.set("sim.lat_p50_ms", pct(50.0)?);
    v.set("sim.lat_p90_ms", pct(90.0)?);
    Ok(())
}

/// The per-layer metrics of a traced run.
fn layer_values(
    v: &mut Values,
    build_ms: f64,
    plain: &Loop,
    traced: &Loop,
    serve: &layers::ServeLayer,
    micro: &layers::Micro,
) {
    v.set("storage.build_ms", build_ms);
    v.set("storage.verify_us_per_page", micro.verify_us_per_page);
    v.set("storage.decode_ns_per_edge", micro.decode_ns_per_edge);
    v.set("storage.lru_probe_ns", micro.lru_probe_ns);
    v.set("storage.apply_ms_per_batch", micro.apply_ms);
    v.set("storage.wal_append_us", micro.wal_append_us);

    // Core figures come from the solo replay, where jobs run one at a
    // time and their phases add up to their wall time.
    let solo = &serve.solo;
    let jobs = solo.len() as f64;
    let sum =
        |f: &dyn Fn(&bench::JobStats) -> u64| solo.iter().map(|j| f(&j.stats)).sum::<u64>() as f64;
    let edges = sum(&|s| s.edges);
    let pages = sum(&|s| s.pages);
    let per_job =
        |f: &dyn Fn(&layers::SoloJob) -> f64| median(&solo.iter().map(f).collect::<Vec<_>>());
    v.set("core.phase_a_ns_per_edge", {
        let a: f64 = solo
            .iter()
            .map(|j| j.timing.scale(j.stats.phase_a_ns as f64 / 1e6))
            .sum();
        a * 1e6 / edges
    });
    v.set(
        "core.phase_b_ms_per_op",
        per_job(&|j| j.timing.scale(j.stats.phase_b_ns as f64 / 1e6)),
    );
    v.set(
        "core.rest_ms_per_op",
        per_job(&|j| {
            j.timing
                .scale(j.timing.raw_ms - (j.stats.phase_a_ns + j.stats.phase_b_ns) as f64 / 1e6)
        }),
    );
    v.set("core.sweeps_per_op", sum(&|s| s.sweeps) / jobs);
    v.set("core.pages_streamed_per_op", pages / jobs);
    let hits = sum(&|s| s.cache_hits);
    v.set("core.cache_hit_ratio", hits / (hits + pages));
    v.set("core.edges_per_op", edges / jobs);
    v.set("core.kernel_launches_per_op", sum(&|s| s.launches) / jobs);

    v.set("exec.par_map_us", micro.par_map_us);
    v.set("exec.cpu_per_wall", plain.cpu_per_wall());

    let sessions = serve.session_ms.len() as f64;
    let mean = |xs: &[u64]| xs.iter().sum::<u64>() as f64 / sessions;
    v.set("serve.batch_gen_ms", micro.batch_gen_ms);
    v.set("serve.session_ms", median(&serve.session_ms));
    v.set("serve.solo_sum_ms", median(&serve.solo_sum_ms));
    v.set(
        "serve.speedup_vs_solo",
        median(&serve.solo_sum_ms) / median(&serve.session_ms),
    );
    v.set("serve.epochs_per_session", mean(&serve.epochs));
    v.set("serve.wal_bytes_per_session", mean(&serve.wal_bytes));
    v.set(
        "serve.journal_bytes_per_session",
        mean(&serve.journal_bytes),
    );

    v.set("sim.kernel_ms_per_op", sum(&|s| s.kernel_ns) / 1e6 / jobs);
    v.set(
        "sim.transfer_ms_per_op",
        sum(&|s| s.transfer_ns) / 1e6 / jobs,
    );
    v.set("sim.stream_stalls_per_op", sum(&|s| s.stalls) / jobs);

    v.set("host.steal_pct", plain.steal_pct);
    v.set("host.cal_ms", plain.cal_ms());
    v.set("host.raw_op_p50_ms", plain.raw_p50_ms());
    v.set(
        "host.cores",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );
    let untraced_p50 = median(&plain.op_ms());
    v.set(
        "trace.overhead_pct",
        100.0 * (median(&traced.op_ms()) - untraced_p50) / untraced_p50,
    );
}

/// One stderr line per loop: counts, calibrated and raw medians, steal.
fn summarize(label: &str, l: &Loop) {
    eprintln!(
        "{label}: {} ops ({} failed), op p50 {:.3} ms calibrated / {:.3} ms raw, cal {:.3} ms, steal {:.1}%",
        l.ops.len(),
        l.failed(),
        median(&l.op_ms()),
        l.raw_p50_ms(),
        l.cal_ms(),
        l.steal_pct
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics this binary prints,
    /// with the same units.
    #[test]
    fn benchmark_json_declares_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let lines: Vec<&str> = text.lines().map(str::trim).collect();
        let declared = |name: &str| {
            let at = lines
                .iter()
                .position(|l| *l == format!("\"name\": \"{name}\","))
                .unwrap_or_else(|| panic!("{name} not declared"));
            lines[at + 1].to_string()
        };
        for &(name, unit) in E2E.iter().chain(LAYERS) {
            assert_eq!(declared(name), format!("\"unit\": \"{unit}\","), "{name}");
        }
        let units = lines.iter().filter(|l| l.starts_with("\"unit\"")).count();
        assert_eq!(units, E2E.len() + LAYERS.len());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let r = Report {
            attempted: 3,
            failed: 1,
            metrics: vec![("op_p50_ms", 1.25, "ms"), ("setup_s", 0.5, "s")],
        };
        assert_eq!(
            r.json(),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn values_refuse_missing_and_non_finite_metrics() {
        let mut v = Values(Vec::new());
        v.set("setup_s", 1.0);
        assert!(v.ordered(&[("setup_s", "s")]).is_ok());
        assert!(v.ordered(&[("setup_s", "s"), ("op_p50_ms", "ms")]).is_err());
        v.set("op_p50_ms", f64::NAN);
        assert!(v.ordered(&[("op_p50_ms", "ms")]).is_err());
    }

    #[test]
    fn flags_parse_and_reject() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse(&argv(
            "--workload bfs-point --seed 7 --seconds 30 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("bfs-point", 7, 30.0, true)
        );
        assert!(parse(&argv("--workload bfs-point --seed 7 --seconds 0 --trace 0")).is_err());
        assert!(parse(&argv("--workload bfs-point --seed x --seconds 3 --trace 0")).is_err());
        assert!(parse(&argv("--workload bfs-point --seed 7 --seconds 3 --trace 2")).is_err());
        assert!(parse(&argv("--seed 7 --seconds 3")).is_err());
    }
}
