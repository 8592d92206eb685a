//! The benchmark's inputs, all derived from `--seed`, and the program
//! configurations it drives. The program under test receives only these
//! generated operands.

use std::sync::Arc;

use matraptor_core::MatRaptorConfig;
use matraptor_service::wire::WireServerConfig;
use matraptor_service::{
    BreakerConfig, DeadlinePolicy, ParallelConfig, ServiceConfig, TenantConfig,
};
use matraptor_sparse::gen::suite::table2;
use matraptor_sparse::{gen, Csr};

/// Table II down-scaling for `suite`: one pass over all 14 matrices takes
/// about 9 s of simulation on a 2-core Xeon, so a run holds whole passes.
pub const SUITE_SCALE: usize = 128;

/// Table II down-scaling for `sliced`: large enough that each job spans
/// 100+ slices of [`SLICE_CYCLES`], where per-slice costs settle.
pub const SLICED_SCALE: usize = 64;

/// The large-output Table II matrices `sliced` squares (about 105–135 slices
/// each at [`SLICED_SCALE`]). The last one, the cheapest, also feeds the
/// traced run's slice and executor probes.
pub const SLICED_IDS: [&str; 3] = ["of", "cg", "f3"];

/// The executor's slice length, in accelerator cycles.
pub const SLICE_CYCLES: u64 = 4_096;

/// `wire` jobs: `WIRE_DIM`² uniform operands with 4 non-zeros per row.
pub const WIRE_DIM: usize = 32;
const WIRE_NNZ: usize = WIRE_DIM * 4;

const SUITE_TAG: u64 = 1;
const SLICED_TAG: u64 = 2;
const WIRE_TAG: u64 = 3;

/// Derives an input seed from the run seed and a path of indices
/// (SplitMix64 over each part), so every operand has its own stream.
pub fn mix(seed: u64, parts: &[u64]) -> u64 {
    let mut x = seed;
    for &p in parts {
        x = x.wrapping_add(p).wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
    }
    x
}

/// The paper's design point (8 lanes, Q = 10), with the software
/// reference cross-check off as in the figure binaries; ABFT stays on.
pub fn accel_config() -> MatRaptorConfig {
    MatRaptorConfig { verify_against_reference: false, ..MatRaptorConfig::default() }
}

/// One squared operand: the job multiplies `a` by itself.
#[derive(Debug, Clone)]
pub struct Square {
    /// Table II id.
    pub id: &'static str,
    /// The operand.
    pub a: Arc<Csr<f64>>,
}

fn table2_squares(
    ids: Option<&[&str]>,
    scale: usize,
    seed: u64,
    tag: u64,
    round: u64,
) -> Vec<Square> {
    table2()
        .into_iter()
        .filter(|s| ids.is_none_or(|ids| ids.contains(&s.id)))
        .enumerate()
        .map(|(i, s)| Square {
            id: s.id,
            a: Arc::new(s.generate(scale, mix(seed, &[tag, round, i as u64]))),
        })
        .collect()
}

/// `suite` round `round`: all 14 Table II matrices at [`SUITE_SCALE`].
pub fn suite_inputs(seed: u64, round: u64) -> Vec<Square> {
    table2_squares(None, SUITE_SCALE, seed, SUITE_TAG, round)
}

/// `sliced` round `round`: the [`SLICED_IDS`] matrices at [`SLICED_SCALE`].
pub fn sliced_inputs(seed: u64, round: u64) -> Vec<Square> {
    table2_squares(Some(&SLICED_IDS), SLICED_SCALE, seed, SLICED_TAG, round)
}

/// `wire` job `job` (a global index across all clients): a fresh uniform
/// operand pair.
pub fn wire_job(seed: u64, job: u64) -> (Csr<f64>, Csr<f64>) {
    let a = gen::uniform(WIRE_DIM, WIRE_DIM, WIRE_NNZ, mix(seed, &[WIRE_TAG, job, 0]));
    let b = gen::uniform(WIRE_DIM, WIRE_DIM, WIRE_NNZ, mix(seed, &[WIRE_TAG, job, 1]));
    (a, b)
}

/// One tenant whose queue holds every client's in-flight job, with a
/// deadline far beyond any `wire` job so none is cancelled.
pub fn service_config(clients: usize) -> ServiceConfig {
    ServiceConfig {
        accel: accel_config(),
        tenants: vec![TenantConfig {
            name: "bench".to_string(),
            weight: 1,
            queue_capacity: clients.max(1) * 2,
            deadline: DeadlinePolicy { base_cycles: 100_000_000, cycles_per_flop: 1_000 },
        }],
        quantum_cycles: 100_000,
        breaker: BreakerConfig::default(),
        quarantine_threshold: 2,
        max_attempts: 2,
        cpu_cycles_per_flop: 64,
    }
}

/// Loopback server for `clients` connections. The idle budget (100 s)
/// outlasts any run, so no connection is closed for idling.
pub fn server_config(clients: usize) -> WireServerConfig {
    WireServerConfig {
        max_connections: clients as u64 + 1,
        idle_reads: 4_000,
        ..WireServerConfig::local(service_config(clients))
    }
}

/// The threaded executor on `threads` workers with 4096-cycle slices. The
/// hang budget (10 000 polls × 200 µs = 2 s) sits far above the slowest
/// slice's wall time (tens of ms), so host noise never reads as a hang.
pub fn parallel_config(threads: usize) -> ParallelConfig {
    ParallelConfig {
        accel: accel_config(),
        threads,
        slice_cycles: SLICE_CYCLES,
        hang_poll_budget: 10_000,
        poll_sleep_us: 200,
        ..ParallelConfig::small_test()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds_and_rounds() {
        let (a0, b0) = wire_job(5, 2);
        let (a1, b1) = wire_job(5, 2);
        assert_eq!((a0.clone(), b0.clone()), (a1, b1));
        assert_ne!(wire_job(6, 2).0, a0);
        assert_ne!(wire_job(5, 3).0, a0);
        assert_ne!(a0, b0);
        assert_eq!(a0.nnz(), WIRE_NNZ);

        let s = sliced_inputs(5, 0);
        assert_eq!(s.iter().map(|x| x.id).collect::<Vec<_>>(), SLICED_IDS);
        assert_eq!(s[2].a, sliced_inputs(5, 0)[2].a);
        assert_ne!(s[2].a, sliced_inputs(5, 1)[2].a);
        assert_ne!(mix(1, &[2, 3]), mix(1, &[3, 2]));
    }
}
