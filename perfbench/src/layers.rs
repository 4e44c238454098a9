//! Per-layer measurements of the traced run: each times calls into one
//! crate's public functions, on the workload's own store.

use crate::bench::{JobStats, Timing};
use crate::inputs::{SplitMix, Stream, MUTATE_DELETES, MUTATE_INSERTS};
use crate::stats::median;
use crate::workloads::{config, fresh_dir, page_format, serve_config, Env, HOST_THREADS};
use gts_ckpt::fnv1a;
use gts_core::programs::{Bfs, Cc, GtsProgram, PageRank, Sssp};
use gts_core::{Engine, JobOptions, MutationSchedule, Telemetry};
use gts_exec::ThreadPool;
use gts_serve::workload::seeded_batch;
use gts_serve::{serve, JobSpec, JobStatus};
use gts_storage::{CachePolicy, LruCache, Page, PageKind, Wal};
use gts_telemetry::SpanCat;
use std::hint::black_box;
use std::path::Path;

/// One job of a serve-layer session, replayed solo.
pub struct SoloJob {
    /// The engine's account of the job.
    pub stats: JobStats,
    /// The job's wall time.
    pub timing: Timing,
    /// Page-cache probe order per GPU, and that GPU's cache capacity.
    pub probes: Vec<(Vec<u64>, usize)>,
}

/// The serve layer: sessions served, then replayed job by job.
#[derive(Default)]
pub struct ServeLayer {
    /// Calibrated wall time of each served session, ms.
    pub session_ms: Vec<f64>,
    /// Calibrated sum of each session's solo job times, ms.
    pub solo_sum_ms: Vec<f64>,
    /// Epochs each session advanced the store by.
    pub epochs: Vec<u64>,
    /// Bytes each session's WAL holds at its end.
    pub wal_bytes: Vec<u64>,
    /// Bytes each session's journal holds at its end.
    pub journal_bytes: Vec<u64>,
    /// Every solo job, in session order.
    pub solo: Vec<SoloJob>,
    /// Served jobs that did not complete or differ from their solo run.
    pub mismatches: usize,
}

/// The program a serve job names.
fn program(spec: &JobSpec, n: u64) -> Result<Box<dyn GtsProgram>, String> {
    Ok(match spec.algorithm.as_str() {
        "bfs" => Box::new(Bfs::new(n, spec.source)),
        "pagerank" => Box::new(PageRank::new(n, spec.iterations)),
        "cc" => Box::new(Cc::new(n)),
        "sssp" => Box::new(Sssp::new(n, spec.source)),
        other => return Err(format!("no program for {other:?}")),
    })
}

/// Serve each session on a fresh clone of the store, then run its jobs
/// one by one on another clone, and check that every served job matches
/// its solo run: same counters, simulated time and final state.
pub fn serve_layer(env: &mut Env, sessions: &[Vec<JobSpec>]) -> Result<ServeLayer, String> {
    let mut layer = ServeLayer::default();
    let n = env.store.num_vertices();
    for (k, jobs) in sessions.iter().enumerate() {
        let mut store = env.store.clone();
        let dir = fresh_dir(&env.scratch, &format!("served-{k}"))?;
        let cfg = serve_config(&dir);
        let engine = &env.engine;
        let (run, t) = env.clock.time(|| {
            env.tracer
                .span("serve.serve", |_| serve(engine, &mut store, jobs, &cfg))
        })?;
        let out = run.map_err(|e| format!("serve-layer session {k}: {e}"))?;
        layer.session_ms.push(t.ms());
        layer.epochs.push(store.epoch() - env.store.epoch());
        layer.wal_bytes.push(dir_bytes(&dir.join("wal"))?);
        layer.journal_bytes.push(dir_bytes(&dir.join("journal"))?);

        let mut solo_store = env.store.clone();
        let solo_dir = fresh_dir(&env.scratch, &format!("solo-{k}"))?;
        let mut solo_cfg = config(true);
        solo_cfg.wal_dir = Some(solo_dir.join("wal"));
        let solo_engine = Engine::new(solo_cfg).map_err(|e| e.to_string())?;
        let mut sum_ms = 0.0;
        for (job, spec) in out.jobs.iter().zip(jobs) {
            let mut prog = program(spec, n)?;
            let opts =
                JobOptions::with_telemetry(Telemetry::with_spans()).tenant(spec.tenant.clone());
            let (run, t) = env.clock.time(|| {
                env.tracer.span("core.run_job", |_| match spec.mutate {
                    Some(m) => {
                        let batch = seeded_batch(&solo_store, m.inserts, m.deletes, m.seed);
                        let schedule = MutationSchedule::new().at(m.at_sweep, batch);
                        solo_engine.run_job_live(&mut solo_store, &mut *prog, schedule, &opts)
                    }
                    None => solo_engine.run_job(&solo_store, &mut *prog, &opts),
                })
            })?;
            let report = run.map_err(|e| format!("solo {}: {e}", spec.algorithm))?;
            sum_ms += t.ms();
            let mut counters = opts.telemetry.counters();
            counters.retain(|key, _| !key.starts_with("host."));
            let same = job.status == JobStatus::Completed
                && job.counters == counters
                && job.service_ns == report.elapsed.as_nanos()
                && job.result_fp == fnv1a(&prog.save_state());
            layer.mismatches += usize::from(!same);
            layer.solo.push(SoloJob {
                stats: JobStats::new(&report, &opts.telemetry),
                timing: t,
                probes: probe_order(&opts.telemetry)
                    .into_iter()
                    .zip(report.per_gpu.iter().map(|g| g.cache_capacity_pages))
                    .collect(),
            });
        }
        layer.solo_sum_ms.push(sum_ms);
        for d in [&dir, &solo_dir] {
            std::fs::remove_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
        }
    }
    Ok(layer)
}

/// Total size of the files under `dir`.
fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let meta = entry.metadata().map_err(|e| e.to_string())?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// The pids each GPU probed its page cache with, in order, from the
/// engine's cache-probe spans (`hit p<pid> g<gpu>` / `miss p<pid> g<gpu>`).
fn probe_order(tel: &Telemetry) -> Vec<Vec<u64>> {
    let mut per_gpu: Vec<Vec<u64>> = Vec::new();
    for s in tel.spans().iter().filter(|s| s.cat == SpanCat::Cache) {
        let mut parts = s.name.split_whitespace().skip(1);
        let pid = parts.next().and_then(|p| p.strip_prefix('p')?.parse().ok());
        let gpu = parts
            .next()
            .and_then(|g| g.strip_prefix('g')?.parse::<usize>().ok());
        if let (Some(pid), Some(gpu)) = (pid, gpu) {
            if per_gpu.len() <= gpu {
                per_gpu.resize(gpu + 1, Vec::new());
            }
            per_gpu[gpu].push(pid);
        }
    }
    per_gpu
}

/// Storage, serve and exec micro-measurements on the workload's store.
pub struct Micro {
    /// Full verification (checksum and layout) of a never-verified page.
    pub verify_us_per_page: f64,
    /// Walking every record id of every page through `PageView`.
    pub decode_ns_per_edge: f64,
    /// One `LruCache` probe, replaying the solo jobs' probe order.
    pub lru_probe_ns: f64,
    /// Generating one mutation batch with `seeded_batch`.
    pub batch_gen_ms: f64,
    /// Applying one batch with `GraphStore::apply_mutations`.
    pub apply_ms: f64,
    /// Appending one batch to a WAL with `Wal::log_batch`.
    pub wal_append_us: f64,
    /// One `ThreadPool::par_map` over trivial items: spawn plus join.
    pub par_map_us: f64,
}

/// Mutation batches timed per measurement.
const BATCHES: u64 = 3;

/// Run every micro-measurement.
pub fn micro(env: &mut Env, solo: &[SoloJob], seed: u64) -> Result<Micro, String> {
    let store = env.store.clone();
    let fmt = page_format();

    let fresh: Vec<Page> = store
        .pages()
        .iter()
        .map(|p| Page::new(p.pid, p.kind, p.data.clone()))
        .collect();
    let (verified, t) = env.clock.time(|| {
        env.tracer.span("storage.verify", |_| {
            fresh.iter().all(|p| p.verify(fmt).is_ok())
        })
    })?;
    if !verified {
        return Err("a freshly built page failed verification".into());
    }
    let verify_us_per_page = t.ms() * 1e3 / fresh.len() as f64;

    // Walk at least ~4M edges so that small stores time as steadily.
    let walks = (4_000_000 / store.num_edges().max(1)).max(1);
    let (edges, t) = env.clock.time(|| {
        env.tracer.span("storage.decode", |_| {
            (0..walks).map(|_| decode_all(&store)).sum::<u64>()
        })
    })?;
    let decode_ns_per_edge = t.ms() * 1e6 / edges as f64;

    let lru_probe_ns = lru_replay(env, solo)?;

    let mut rng = SplitMix::new(seed, Stream::Batches, 0);
    let (mut gen_ms, mut apply_ms) = (Vec::new(), Vec::new());
    let mut batches = Vec::new();
    for _ in 0..BATCHES {
        let mut target = store.clone();
        let s = rng.next();
        let (batch, t) = env.clock.time(|| {
            env.tracer.span("serve.seeded_batch", |_| {
                seeded_batch(&target, MUTATE_INSERTS, MUTATE_DELETES, s)
            })
        })?;
        gen_ms.push(t.ms());
        let (applied, t) = env.clock.time(|| {
            env.tracer.span("storage.apply_mutations", |_| {
                target.apply_mutations(&batch)
            })
        })?;
        applied.map_err(|e| format!("apply_mutations: {e}"))?;
        apply_ms.push(t.ms());
        batches.push(batch);
    }

    let dir = fresh_dir(&env.scratch, "wal-append")?;
    let mut wal = Wal::open(&dir, &store).map_err(|e| format!("wal: {e}"))?;
    let e0 = store.epoch();
    let mut append_us = Vec::new();
    for (pre, batch) in (e0..).zip(&batches) {
        let (logged, t) = env.clock.time(|| {
            env.tracer.span("storage.wal_log_batch", |_| {
                wal.log_batch(batch, pre, pre + 1)
            })
        })?;
        logged.map_err(|e| format!("wal: {e}"))?;
        append_us.push(t.ms() * 1e3);
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    const CALLS: usize = 1000;
    let pool = ThreadPool::new(HOST_THREADS);
    let items: Vec<u64> = (0..64).collect();
    let (_, t) = env.clock.time(|| {
        env.tracer.span("exec.par_map", |_| {
            for _ in 0..CALLS {
                black_box(pool.par_map(&items, |i, &x| x ^ i as u64));
            }
        })
    })?;
    let par_map_us = t.ms() * 1e3 / CALLS as f64;

    Ok(Micro {
        verify_us_per_page,
        decode_ns_per_edge,
        lru_probe_ns,
        batch_gen_ms: median(&gen_ms),
        apply_ms: median(&apply_ms),
        wal_append_us: median(&append_us),
        par_map_us,
    })
}

/// Decode every record id of every page; returns the edges walked.
fn decode_all(store: &gts_storage::GraphStore) -> u64 {
    let mut edges = 0u64;
    let mut acc = 0u64;
    for pid in 0..store.num_pages() {
        let view = store.view(pid);
        match view.kind() {
            PageKind::Small => {
                for (vid, adj) in view.sp_vertices() {
                    acc ^= vid;
                    for rid in adj {
                        acc = acc.wrapping_add(rid.pid ^ u64::from(rid.slot));
                        edges += 1;
                    }
                }
            }
            PageKind::Large => {
                for i in 0..view.count() {
                    let rid = view.lp_adj(i);
                    acc = acc.wrapping_add(rid.pid ^ u64::from(rid.slot));
                    edges += 1;
                }
            }
        }
    }
    black_box(acc);
    edges
}

/// Replay every solo job's per-GPU probe order through a fresh
/// `LruCache` of that GPU's capacity, enough times for ~1M probes;
/// returns ns per probe.
fn lru_replay(env: &mut Env, solo: &[SoloJob]) -> Result<f64, String> {
    let per_pass: usize = solo
        .iter()
        .flat_map(|j| &j.probes)
        .map(|(pids, _)| pids.len())
        .sum();
    if per_pass == 0 {
        return Err("no page-cache probes recorded".into());
    }
    let passes = (1_000_000 / per_pass).max(1);
    let (hits, t) = env.clock.time(|| {
        env.tracer.span("storage.lru_replay", |_| {
            let mut hits = 0u64;
            for _ in 0..passes {
                for (pids, cap) in solo.iter().flat_map(|j| &j.probes) {
                    let mut cache = LruCache::new(*cap);
                    for &p in pids {
                        hits += u64::from(cache.access(p));
                    }
                }
            }
            hits
        })
    })?;
    black_box(hits);
    Ok(t.ms() * 1e6 / (passes * per_pass) as f64)
}
