//! Every input the benchmark feeds the program, derived from the
//! workload seed alone. The generators live here, not in the program,
//! so that a change to the program cannot change the benchmark's input.

use gts_graph::generate::Rmat;
use gts_graph::EdgeList;
use gts_serve::{JobSpec, MutateSpec};

/// Independent streams drawn from one workload seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// The RMAT generator's seed.
    Graph = 1,
    /// Query sources.
    Sources = 2,
    /// Serve sessions (one sub-stream per session).
    Sessions = 3,
    /// Mutation batches of the traced run's storage measurements.
    Batches = 4,
}

/// SplitMix64: a small, well-mixed generator for derived seeds and draws.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `stream` (and sub-stream `k`) of `seed`.
    pub fn new(seed: u64, stream: Stream, k: u64) -> SplitMix {
        let mut g = SplitMix(seed);
        let a = g.next();
        let mut g = SplitMix(a ^ (stream as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        let b = g.next();
        SplitMix(b ^ k.wrapping_mul(0x9FB2_1C65_1E98_DF25))
    }

    /// The next 64-bit draw.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The paper-default RMAT graph at `scale`, seeded from the workload seed.
pub fn graph(scale: u32, seed: u64) -> EdgeList {
    Rmat::new(scale)
        .with_seed(SplitMix::new(seed, Stream::Graph, 0).next())
        .generate()
}

/// Draws query sources uniformly among vertices with out-degree >= 1.
/// RMAT leaves many vertices isolated; a BFS from one of them ends after
/// one sweep, which makes point-query latency bimodal.
pub struct SourceSampler {
    candidates: Vec<u64>,
}

impl SourceSampler {
    /// Index the vertices of `g` that have at least one out-edge.
    ///
    /// # Panics
    /// Panics if no vertex has an out-edge: no query can be drawn.
    pub fn new(g: &EdgeList) -> SourceSampler {
        let mut has_out = vec![false; g.num_vertices as usize];
        for &(s, _) in &g.edges {
            has_out[s as usize] = true;
        }
        let candidates: Vec<u64> = (0..g.num_vertices as u64)
            .filter(|&v| has_out[v as usize])
            .collect();
        assert!(!candidates.is_empty(), "graph has no edges to query");
        SourceSampler { candidates }
    }

    /// One source.
    pub fn draw(&self, rng: &mut SplitMix) -> u64 {
        self.candidates[rng.below(self.candidates.len() as u64) as usize]
    }

    /// `count` sources from the workload seed.
    pub fn sources(&self, count: usize, seed: u64) -> Vec<u64> {
        let mut rng = SplitMix::new(seed, Stream::Sources, 0);
        (0..count).map(|_| self.draw(&mut rng)).collect()
    }
}

/// Jobs in one serve session.
pub const SESSION_JOBS: u64 = 24;
/// Every this-many-th job mutates the topology (an epoch barrier).
pub const MUTATE_EVERY: u64 = 8;
/// Edge inserts per mutating job.
pub const MUTATE_INSERTS: u64 = 256;
/// Edge deletes per mutating job.
pub const MUTATE_DELETES: u64 = 32;

/// Serve session `k` of the workload seed: [`SESSION_JOBS`] jobs from four
/// tenants, each with its own query class, arriving 50-500 us apart on
/// the simulated clock; every [`MUTATE_EVERY`]-th job mutates.
pub fn serve_session(sampler: &SourceSampler, seed: u64, k: u64) -> Vec<JobSpec> {
    const TENANTS: [(&str, &str); 4] = [
        ("bfs", "bfs"),
        ("rank", "pagerank"),
        ("comp", "cc"),
        ("path", "sssp"),
    ];
    let mut rng = SplitMix::new(seed, Stream::Sessions, k);
    let mut at = 0;
    (0..SESSION_JOBS)
        .map(|i| {
            at += 50_000 + rng.below(450_000);
            let (tenant, alg) = TENANTS[(i % 4) as usize];
            let mut job = JobSpec::new(at, tenant, alg);
            job.source = sampler.draw(&mut rng);
            job.iterations = 3;
            if i % MUTATE_EVERY == MUTATE_EVERY - 1 {
                job.mutate = Some(MutateSpec {
                    at_sweep: 1,
                    inserts: MUTATE_INSERTS,
                    deletes: MUTATE_DELETES,
                    seed: rng.next(),
                });
            }
            job
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_serve::workload::render;

    fn edge_bytes(g: &EdgeList) -> Vec<u8> {
        let mut b = g.num_vertices.to_le_bytes().to_vec();
        for &(s, d) in &g.edges {
            b.extend_from_slice(&s.to_le_bytes());
            b.extend_from_slice(&d.to_le_bytes());
        }
        b
    }

    #[test]
    fn generators_are_byte_deterministic() {
        for seed in [0, 1, 42] {
            let (a, b) = (graph(10, seed), graph(10, seed));
            assert_eq!(edge_bytes(&a), edge_bytes(&b));
            let s = SourceSampler::new(&a);
            assert_eq!(s.sources(64, seed), s.sources(64, seed));
            for k in 0..3 {
                assert_eq!(
                    render(&serve_session(&s, seed, k)),
                    render(&serve_session(&s, seed, k))
                );
            }
        }
    }

    #[test]
    fn seeds_and_streams_are_independent() {
        assert_ne!(edge_bytes(&graph(10, 1)), edge_bytes(&graph(10, 2)));
        let s = SourceSampler::new(&graph(10, 1));
        assert_ne!(s.sources(64, 1), s.sources(64, 2));
        assert_ne!(
            render(&serve_session(&s, 1, 0)),
            render(&serve_session(&s, 1, 1))
        );
    }

    #[test]
    fn sampler_never_draws_a_vertex_without_out_edges() {
        // Half the vertices have no out-edge.
        let g = EdgeList::new(64, (0..32).map(|v| (2 * v, (2 * v + 1) % 64)).collect());
        let s = SourceSampler::new(&g);
        for seed in 0..50 {
            for v in s.sources(200, seed) {
                assert_eq!(v % 2, 0, "vertex {v} has no out-edge");
            }
        }
        // The same on RMAT, where most vertices are isolated.
        let g = graph(12, 7);
        let mut out = vec![0u32; g.num_vertices as usize];
        for &(src, _) in &g.edges {
            out[src as usize] += 1;
        }
        assert!(out.contains(&0));
        let s = SourceSampler::new(&g);
        for v in s.sources(5000, 7) {
            assert!(out[v as usize] > 0, "vertex {v} has no out-edge");
        }
    }

    #[test]
    fn sessions_mutate_every_eighth_job() {
        let s = SourceSampler::new(&graph(10, 3));
        let jobs = serve_session(&s, 3, 0);
        assert_eq!(jobs.len() as u64, SESSION_JOBS);
        let mutating = jobs.iter().filter(|j| j.mutate.is_some()).count() as u64;
        assert_eq!(mutating, SESSION_JOBS / MUTATE_EVERY);
        assert!(jobs.windows(2).all(|w| w[0].at_ns < w[1].at_ns));
    }
}
