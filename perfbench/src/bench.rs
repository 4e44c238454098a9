//! The closed loop: one client, back-to-back ops after one
//! warm-up op, each op timed between two runs of the calibration kernel.

use crate::cal::{calibrated, Calibrator, Kernel};
use crate::host;
use crate::stats::{median, percentile};
use gts_core::RunReport;
use gts_telemetry::{keys, Telemetry};
use std::time::{Duration, Instant};

/// One timed region and the calibration kernel around it.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Uncalibrated wall time of the region.
    pub raw_ms: f64,
    /// Mean of the kernel times just before and just after the region.
    pub cal_ms: f64,
    /// Process CPU time (all threads) spent in the region.
    pub cpu_s: f64,
}

impl Timing {
    /// The region's calibrated wall time.
    pub fn ms(&self) -> f64 {
        calibrated(self.raw_ms, self.cal_ms)
    }

    /// Calibrate another raw time taken inside this region.
    pub fn scale(&self, raw_ms: f64) -> f64 {
        calibrated(raw_ms, self.cal_ms)
    }
}

/// Times regions between two calibration-kernel runs.
pub struct Clock {
    cal: Calibrator,
}

impl Clock {
    /// A clock with a warmed-up calibration kernel.
    pub fn new(kernel: Kernel) -> Clock {
        Clock {
            cal: Calibrator::new(kernel),
        }
    }

    /// Run `f` as one timed region.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> Result<(R, Timing), String> {
        let before = self.cal.time_ms();
        let cpu0 = host::process_cpu_s()?;
        let t0 = Instant::now();
        let out = f();
        let raw_ms = t0.elapsed().as_secs_f64() * 1e3;
        let cpu1 = host::process_cpu_s()?;
        let after = self.cal.time_ms();
        Ok((
            out,
            Timing {
                raw_ms,
                cal_ms: (before + after) / 2.0,
                cpu_s: cpu1 - cpu0,
            },
        ))
    }
}

/// What one op did, as checked by its workload.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// The op's timing.
    pub timing: Timing,
    /// Edges the op traversed (the engine's own count).
    pub edges: u64,
    /// Jobs the op completed.
    pub jobs: u64,
    /// Whether every answer of the op matched its reference.
    pub ok: bool,
}

/// The timed ops of one closed-loop run.
pub struct Loop {
    /// Every timed op, in order (the warm-up op excluded).
    pub ops: Vec<Outcome>,
    /// Hypervisor steal over the timed region, percent of all CPU time.
    pub steal_pct: f64,
}

/// Never run longer than this, whatever the op-count floor asks: the two
/// loops of a traced run must end well within three minutes.
const HARD_LIMIT: Duration = Duration::from_secs(75);

/// Run op 0 once as warm-up, then ops `0, 1, 2, ...` back to back for
/// `seconds` and at least `min_ops` ops.
pub fn closed_loop(
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut(usize) -> Result<Outcome, String>,
) -> Result<Loop, String> {
    op(0)?;
    let stat0 = host::cpu_stat()?;
    let start = Instant::now();
    let mut ops = Vec::new();
    while (start.elapsed().as_secs_f64() < seconds || ops.len() < min_ops)
        && start.elapsed() < HARD_LIMIT
    {
        ops.push(op(ops.len())?);
    }
    Ok(Loop {
        ops,
        steal_pct: host::steal_pct(stat0, host::cpu_stat()?),
    })
}

impl Loop {
    /// Calibrated op wall times, ms.
    pub fn op_ms(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.timing.ms()).collect()
    }

    /// Calibrated op latency percentile, ms.
    pub fn op_pct_ms(&self, p: f64) -> Result<f64, String> {
        percentile(&self.op_ms(), p).ok_or_else(|| {
            format!(
                "only {} ops: too few for a p{p} with ten samples beyond",
                self.ops.len()
            )
        })
    }

    /// Median over ops of `per_op(op) / calibrated op seconds`.
    pub fn median_rate(&self, per_op: impl Fn(&Outcome) -> u64) -> f64 {
        let rates: Vec<f64> = self
            .ops
            .iter()
            .map(|o| per_op(o) as f64 / (o.timing.ms() / 1e3))
            .collect();
        median(&rates)
    }

    /// Median uncalibrated op wall time, ms.
    pub fn raw_p50_ms(&self) -> f64 {
        median(&self.ops.iter().map(|o| o.timing.raw_ms).collect::<Vec<_>>())
    }

    /// Median calibration-kernel time, ms.
    pub fn cal_ms(&self) -> f64 {
        median(&self.ops.iter().map(|o| o.timing.cal_ms).collect::<Vec<_>>())
    }

    /// Process CPU seconds per wall second over the ops.
    pub fn cpu_per_wall(&self) -> f64 {
        let cpu: f64 = self.ops.iter().map(|o| o.timing.cpu_s).sum();
        let wall: f64 = self.ops.iter().map(|o| o.timing.raw_ms / 1e3).sum();
        cpu / wall
    }

    /// Ops whose answers failed their check.
    pub fn failed(&self) -> usize {
        self.ops.iter().filter(|o| !o.ok).count()
    }
}

/// The engine's account of one job, from its report and counters.
#[derive(Debug, Clone, Copy)]
pub struct JobStats {
    /// Sweeps (supersteps).
    pub sweeps: u64,
    /// Pages streamed to a GPU (cache misses).
    pub pages: u64,
    /// Page visits served by a GPU page cache.
    pub cache_hits: u64,
    /// Edges traversed.
    pub edges: u64,
    /// Kernel launches over all GPUs.
    pub launches: u64,
    /// Simulated kernel busy time over all GPUs.
    pub kernel_ns: u64,
    /// Simulated transfer busy time over all GPUs.
    pub transfer_ns: u64,
    /// Copy/compute stream stalls.
    pub stalls: u64,
    /// Host wall time in phase A (kernel emulation), when measured.
    pub phase_a_ns: u64,
    /// Host wall time in phase B (accounting), when measured.
    pub phase_b_ns: u64,
}

impl JobStats {
    /// Read a job's report and its telemetry's counters.
    pub fn new(report: &RunReport, tel: &Telemetry) -> JobStats {
        JobStats {
            sweeps: u64::from(report.sweeps),
            pages: report.pages_streamed,
            cache_hits: report.cache_hits,
            edges: report.edges_traversed,
            launches: report.per_gpu.iter().map(|g| g.kernels).sum(),
            kernel_ns: report
                .per_gpu
                .iter()
                .map(|g| g.kernel_time.as_nanos())
                .sum(),
            transfer_ns: report
                .per_gpu
                .iter()
                .map(|g| g.transfer_time.as_nanos())
                .sum(),
            stalls: tel.counter(keys::STREAM_STALLS),
            phase_a_ns: tel.counter(keys::HOST_PHASE_A_NS),
            phase_b_ns: tel.counter(keys::HOST_PHASE_B_NS),
        }
    }
}
