//! The three workloads: what one op is, how its answer is checked, and
//! which serve sessions stand for it in the traced run's serve layer.

use crate::bench::{Clock, Outcome, Timing};
use crate::inputs::{self, SourceSampler};
use crate::trace::Tracer;
use gts_core::programs::{Bfs, GtsProgram, PageRank};
use gts_core::{Engine, GtsConfig, JobOptions, RunReport, StorageLocation, Telemetry};
use gts_graph::{reference, Csr, EdgeList};
use gts_serve::{serve, JobSpec, JournalConfig, ServeConfig};
use gts_storage::{GraphStore, PageFormatConfig, PhysicalIdConfig};
use std::path::{Path, PathBuf};

/// Host worker threads: the program's default on the 2-vCPU host the
/// benchmark was sized on, fixed so that a bigger host runs the same
/// configuration.
pub const HOST_THREADS: usize = 2;

/// The engine at the paper's 1/1024 scale: 2 GPUs with 12 MiB of device
/// memory each, topology streamed from a 2-SSD array. The traced run
/// also splits host time into phases A and B.
pub fn config(traced: bool) -> GtsConfig {
    GtsConfig {
        num_gpus: 2,
        storage: StorageLocation::Ssds(2),
        gpu: gts_gpu::GpuConfig::titan_x().with_device_memory(12 << 20),
        host_threads: HOST_THREADS,
        measure_host_phases: traced,
        ..GtsConfig::default()
    }
}

/// 64 KiB pages with (2,2) physical ids: the paper's format for graphs
/// of this size, scaled.
pub fn page_format() -> PageFormatConfig {
    PageFormatConfig::new(PhysicalIdConfig::ORIGINAL, 64 * 1024)
}

/// The service every serve session runs under: 4 slots, queues large
/// enough that no job is dropped, and a WAL and journal in `dir`.
pub fn serve_config(dir: &Path) -> ServeConfig {
    ServeConfig {
        slots: 4,
        queue_capacity: 64,
        tenant_queue_capacity: 64,
        wal_dir: Some(dir.join("wal")),
        journal: Some(JournalConfig::new(dir.join("journal"))),
        ..ServeConfig::default()
    }
}

/// Everything an op runs against.
pub struct Env {
    /// Times every op between calibration-kernel runs.
    pub clock: Clock,
    /// Wall-clock spans (recording only in the traced run).
    pub tracer: Tracer,
    /// The store built in set-up; serve sessions run on clones.
    pub store: GraphStore,
    /// The engine built in set-up.
    pub engine: Engine,
    /// The same engine with host phase timing on.
    pub traced_engine: Engine,
    /// A private directory for WALs and journals.
    pub scratch: PathBuf,
}

/// The simulated-clock account of one op.
#[derive(Debug, Clone)]
pub struct SimRecord {
    /// Simulated time of the op (a session's makespan).
    pub op_ns: u64,
    /// Arrival-to-completion simulated latency of each of its jobs.
    pub job_lat_ns: Vec<u64>,
}

/// One workload.
pub trait Workload {
    /// Ops `0..fixed_ops()` are the fixed, seeded set whose simulated
    /// figures are reported; later ops repeat them.
    fn fixed_ops(&self) -> usize;
    /// Run and check op `i`.
    fn op(&mut self, env: &mut Env, i: usize, traced: bool)
        -> Result<(Outcome, SimRecord), String>;
    /// The sessions the traced run serves and replays solo.
    fn sessions(&self) -> &[Vec<JobSpec>];
}

/// Run `prog` as one timed job on the set-up store. A traced job records
/// spans, and with them each page-cache probe.
fn timed_job(
    env: &mut Env,
    prog: &mut dyn GtsProgram,
    traced: bool,
) -> Result<(RunReport, Timing), String> {
    let tel = if traced {
        Telemetry::with_spans()
    } else {
        Telemetry::new()
    };
    let opts = JobOptions::with_telemetry(tel);
    let engine = if traced {
        &env.traced_engine
    } else {
        &env.engine
    };
    let (run, timing) = env.clock.time(|| {
        env.tracer
            .span("core.run_job", |_| engine.run_job(&env.store, prog, &opts))
    })?;
    Ok((run.map_err(|e| e.to_string())?, timing))
}

/// A PageRank iteration's answers agree with the reference within this
/// share of the reference rank (the engine scatters in fixed point and
/// stores `f32`).
const PAGERANK_REL_TOL: f64 = 1e-4;

/// Damping factor of the engine's PageRank.
const DAMPING: f64 = 0.85;

/// `pagerank-stream`: one full PageRank iteration per op over a topology
/// larger than device memory, so every op streams and verifies every page.
pub struct PagerankStream {
    want: Vec<f64>,
    sessions: Vec<Vec<JobSpec>>,
}

impl PagerankStream {
    /// Iterations per op: one, so a run holds the 100 ops a p90 needs.
    pub const ITERATIONS: u32 = 1;

    /// The workload over graph `g`.
    pub fn new(g: &EdgeList) -> PagerankStream {
        let want = reference::pagerank(&Csr::from_edge_list(g), DAMPING, Self::ITERATIONS);
        // The serve layer's session: four tenants, one iteration each.
        let session = (0..4)
            .map(|t| {
                let mut job = JobSpec::new(t * 100_000, format!("t{t}"), "pagerank");
                job.iterations = Self::ITERATIONS;
                job
            })
            .collect();
        PagerankStream {
            want,
            sessions: vec![session],
        }
    }
}

impl Workload for PagerankStream {
    fn fixed_ops(&self) -> usize {
        // Every op is identical; 100 of them carry a p90.
        100
    }

    fn op(
        &mut self,
        env: &mut Env,
        _i: usize,
        traced: bool,
    ) -> Result<(Outcome, SimRecord), String> {
        let mut pr = PageRank::new(env.store.num_vertices(), Self::ITERATIONS);
        let (report, timing) =
            timed_job(env, &mut pr, traced).map_err(|e| format!("pagerank: {e}"))?;
        let ok = pr.ranks().len() == self.want.len()
            && pr
                .ranks()
                .iter()
                .zip(&self.want)
                .all(|(&got, &want)| (f64::from(got) - want).abs() <= PAGERANK_REL_TOL * want);
        let sim = report.elapsed.as_nanos();
        Ok((
            Outcome {
                timing,
                edges: report.edges_traversed,
                jobs: 1,
                ok,
            },
            SimRecord {
                op_ns: sim,
                job_lat_ns: vec![sim],
            },
        ))
    }

    fn sessions(&self) -> &[Vec<JobSpec>] {
        &self.sessions
    }
}

/// `bfs-point`: BFS point queries from seeded sources over a topology
/// that fits in the GPU page caches.
pub struct BfsPoint {
    csr: Csr,
    sources: Vec<u64>,
    want: Vec<Option<Vec<u32>>>,
    sessions: Vec<Vec<JobSpec>>,
}

impl BfsPoint {
    /// Distinct queries per run; op `i` asks query `i % QUERIES`.
    pub const QUERIES: usize = 128;

    /// The workload over graph `g` with sources from `seed`.
    pub fn new(g: &EdgeList, seed: u64) -> BfsPoint {
        let sources = SourceSampler::new(g).sources(Self::QUERIES, seed);
        // The serve layer's session: the first 24 queries from 4 tenants.
        let session = sources[..24]
            .iter()
            .zip(0u64..)
            .map(|(&s, i)| {
                let mut job = JobSpec::new(i * 100_000, format!("t{}", i % 4), "bfs");
                job.source = s;
                job
            })
            .collect();
        BfsPoint {
            csr: Csr::from_edge_list(g),
            sources,
            want: vec![None; Self::QUERIES],
            sessions: vec![session],
        }
    }
}

impl Workload for BfsPoint {
    fn fixed_ops(&self) -> usize {
        Self::QUERIES
    }

    fn op(
        &mut self,
        env: &mut Env,
        i: usize,
        traced: bool,
    ) -> Result<(Outcome, SimRecord), String> {
        let q = i % Self::QUERIES;
        let source = self.sources[q];
        let mut bfs = Bfs::new(env.store.num_vertices(), source);
        let (report, timing) =
            timed_job(env, &mut bfs, traced).map_err(|e| format!("bfs from {source}: {e}"))?;
        let csr = &self.csr;
        let want = self.want[q].get_or_insert_with(|| reference::bfs(csr, source as u32));
        let sim = report.elapsed.as_nanos();
        Ok((
            Outcome {
                timing,
                edges: report.edges_traversed,
                jobs: 1,
                ok: bfs.levels_u32() == *want,
            },
            SimRecord {
                op_ns: sim,
                job_lat_ns: vec![sim],
            },
        ))
    }

    fn sessions(&self) -> &[Vec<JobSpec>] {
        &self.sessions
    }
}

/// `serve-live`: whole serve sessions, reads beside mutating jobs, each
/// on a fresh clone of the store with a fresh WAL and journal.
pub struct ServeLive {
    sessions: Vec<Vec<JobSpec>>,
    /// Result fingerprints of each session's first run; later runs of
    /// the session must reproduce them.
    first: Vec<Option<Vec<u64>>>,
}

impl ServeLive {
    /// Distinct sessions per run; op `i` serves session `i % SESSIONS`.
    /// Many, so that the latency tail reflects the seed's session mix
    /// rather than its slowest few sessions.
    pub const SESSIONS: usize = 32;

    /// Sessions the traced run serves and replays solo.
    pub const TRACED_SESSIONS: usize = 8;

    /// The workload over graph `g` with sessions from `seed`.
    pub fn new(g: &EdgeList, seed: u64) -> ServeLive {
        let sampler = SourceSampler::new(g);
        ServeLive {
            sessions: (0..Self::SESSIONS as u64)
                .map(|k| inputs::serve_session(&sampler, seed, k))
                .collect(),
            first: vec![None; Self::SESSIONS],
        }
    }
}

impl Workload for ServeLive {
    fn fixed_ops(&self) -> usize {
        Self::SESSIONS
    }

    fn op(
        &mut self,
        env: &mut Env,
        i: usize,
        traced: bool,
    ) -> Result<(Outcome, SimRecord), String> {
        let k = i % Self::SESSIONS;
        let jobs = &self.sessions[k];
        let mut store = env.store.clone();
        let dir = fresh_dir(&env.scratch, &format!("live-{i}"))?;
        let cfg = serve_config(&dir);
        let engine = if traced {
            &env.traced_engine
        } else {
            &env.engine
        };
        let (run, timing) = env.clock.time(|| {
            env.tracer
                .span("serve.serve", |_| serve(engine, &mut store, jobs, &cfg))
        })?;
        let out = run.map_err(|e| format!("serve session {k}: {e}"))?;
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mutating = jobs.iter().filter(|j| j.mutate.is_some()).count() as u64;
        let fps: Vec<u64> = out.jobs.iter().map(|j| j.result_fp).collect();
        let first = self.first[k].get_or_insert_with(|| fps.clone());
        let ok = out.completed == jobs.len()
            && store.epoch() - env.store.epoch() == mutating
            && *first == fps;
        let edges = out
            .jobs
            .iter()
            .filter_map(|j| j.report.as_ref())
            .map(|r| r.edges_traversed)
            .sum();
        Ok((
            Outcome {
                timing,
                edges,
                jobs: out.completed as u64,
                ok,
            },
            SimRecord {
                op_ns: out.makespan_ns,
                job_lat_ns: out.jobs.iter().map(|j| j.latency_ns()).collect(),
            },
        ))
    }

    fn sessions(&self) -> &[Vec<JobSpec>] {
        &self.sessions[..Self::TRACED_SESSIONS]
    }
}

/// An empty directory `name` under `scratch`.
pub fn fresh_dir(scratch: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = scratch.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}
