//! Same-run calibration against hypervisor steal and neighbour load.
//!
//! On a shared 2-vCPU VM, steal time swings from 0% to ~28% between runs
//! and moves raw wall medians by 20-50%. A fixed kernel timed right
//! beside every op slows down with the op, so the ratio `op / kernel` is
//! far steadier than the op alone. Every calibrated wall metric is
//! `raw * CAL_NOMINAL_MS / cal_ms`: the op's time on a machine where the
//! kernel takes exactly its nominal time.
//!
//! Which kernel matches an op depends on how the op uses the two host
//! threads, because steal often lands on one vCPU. A run workload
//! executes one job at a time: its work follows the less-stolen vCPU,
//! and the one-threaded kernel tracks it. A serve session runs read jobs
//! two at a time, and each wave waits for the slower vCPU. So serve is
//! calibrated by the geometric mean of a one-thread pass and a pass split
//! over two threads. The two-thread pass alone over-corrects a run
//! workload: at 29% steal it read 90% slow beside a PageRank op that ran
//! 25% slow.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's nominal time: the one-thread pass's typical time on an
/// unloaded 2-vCPU Xeon VM. A constant, so calibrated values stay
/// comparable between commits; changing it rescales every calibrated
/// metric.
pub const CAL_NOMINAL_MS: f64 = 11.0;

/// Typical time of the one-thread pass over the two-thread pass; scales
/// the two-pass kernel into one-thread milliseconds.
const TWO_THREAD_RATIO: f64 = 2.4;

/// The calibration kernel a workload is timed against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// One pass on one thread: for ops that run one job at a time.
    OneThread,
    /// The geometric mean of a one-thread pass and a two-thread pass:
    /// for ops that run jobs two at a time.
    OneAndTwoThreads,
}

/// 8 MiB of `u64`: larger than a core's L2, so the kernel exercises the
/// same shared-cache and memory path the engine's scatter does.
const CAL_WORDS: usize = 1 << 20;

/// Scatter-adds per kernel pass (~11 ms on one thread on the nominal
/// host).
const CAL_ADDS: usize = 1 << 21;

/// The kernel's fixed xorshift seed: every run does identical work.
const CAL_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Owns the kernel's table so that every run touches the same memory.
pub struct Calibrator {
    kernel: Kernel,
    table: Vec<u64>,
}

impl Calibrator {
    /// Allocate the table and run the kernel once to fault its pages in.
    pub fn new(kernel: Kernel) -> Calibrator {
        let mut cal = Calibrator {
            kernel,
            table: vec![0; CAL_WORDS],
        };
        cal.time_ms();
        cal
    }

    /// Run the kernel once; returns its time in one-thread milliseconds.
    pub fn time_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        scatter_adds(&mut self.table, CAL_SEED, CAL_ADDS);
        black_box(&self.table);
        let one = t0.elapsed().as_secs_f64() * 1e3;
        if self.kernel == Kernel::OneThread {
            return one;
        }
        // Each thread does half the adds on its own half of the table.
        let t0 = Instant::now();
        let (lo, hi) = self.table.split_at_mut(CAL_WORDS / 2);
        std::thread::scope(|s| {
            s.spawn(|| scatter_adds(lo, CAL_SEED, CAL_ADDS / 2));
            s.spawn(|| scatter_adds(hi, !CAL_SEED, CAL_ADDS / 2));
        });
        black_box(&self.table);
        let two = t0.elapsed().as_secs_f64() * 1e3;
        (one * two * TWO_THREAD_RATIO).sqrt()
    }
}

/// `adds` seeded xorshift scatter-adds into `table` (length a power of
/// two).
fn scatter_adds(table: &mut [u64], seed: u64, adds: usize) {
    let mask = table.len() - 1;
    let mut x = seed;
    for _ in 0..adds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & mask;
        table[i] = table[i].wrapping_add(x);
    }
}

/// Scale a raw wall time by the adjacent kernel time `cal_ms`.
pub fn calibrated(raw: f64, cal_ms: f64) -> f64 {
    raw * CAL_NOMINAL_MS / cal_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_the_nominal_over_measured_ratio() {
        // A kernel running at its nominal time leaves the op unchanged.
        assert_eq!(calibrated(40.0, CAL_NOMINAL_MS), 40.0);
        // A host twice as slow halves the op back to nominal speed.
        assert_eq!(calibrated(80.0, 2.0 * CAL_NOMINAL_MS), 40.0);
        // A faster host scales up: a kernel at half its nominal time.
        assert_eq!(calibrated(10.0, CAL_NOMINAL_MS / 2.0), 20.0);
        // Rates scale inversely: edges per calibrated second.
        let raw_s = 0.5;
        let cal_s = calibrated(raw_s, 2.0 * CAL_NOMINAL_MS);
        assert_eq!(1000.0 / cal_s, 4000.0);
    }

    #[test]
    fn kernel_work_is_fixed() {
        let mut a = vec![0u64; 1 << 10];
        let mut b = vec![0u64; 1 << 10];
        scatter_adds(&mut a, CAL_SEED, 5000);
        scatter_adds(&mut b, CAL_SEED, 5000);
        assert_eq!(a, b);
        assert!(a.iter().any(|&w| w != 0));
    }
}
