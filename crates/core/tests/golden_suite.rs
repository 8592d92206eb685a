//! Golden bit-identity pins for the simulator.
//!
//! A subset of the Table II suite, squared on the paper's
//! `MatRaptorConfig::default()`, with every observable of the modelled
//! machine pinned to the values it had before the drive loop's hot paths
//! were optimised: total cycles, HBM traffic, bursts and row misses, the
//! PE busy/stall breakdown of Fig. 9, and an FNV-1a fingerprint of the
//! output. A simulator speed-up must leave every one of them unchanged;
//! a change that moves one changes the modelled design and must re-pin
//! the table on purpose, saying why.

use matraptor_core::{Accelerator, MatRaptorConfig, MatRaptorStats, SliceRun};
use matraptor_sim::trace::fnv1a64;
use matraptor_sparse::gen::suite;
use matraptor_sparse::Csr;

/// Scale divisor for the Table II stand-ins: small enough that the
/// subset runs in a few seconds under a debug build.
const SCALE: usize = 2048;
const SEED: u64 = 1;

/// One pinned run.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    id: &'static str,
    total_cycles: u64,
    bytes_read: u64,
    bytes_written: u64,
    traffic_read: u64,
    traffic_written: u64,
    bursts: u64,
    row_misses: u64,
    /// Fig. 9 breakdown summed over PEs: busy, merge stall, memory stall, idle.
    breakdown: [u64; 4],
    /// FNV-1a over the output's row pointers, column ids and value bits.
    output_fnv: u64,
}

/// Table II in the paper's order, without `fb`: its stand-in alone would
/// cost as many cycles as the other thirteen together.
const GOLDEN: &[Golden] = &[
    Golden {
        id: "wg",
        total_cycles: 23995,
        bytes_read: 142552,
        bytes_written: 72960,
        traffic_read: 420800,
        traffic_written: 166528,
        bursts: 9177,
        row_misses: 2293,
        breakdown: [12394, 11161, 124823, 43582],
        output_fnv: 0x9ef7685ec6e5a672,
    },
    Golden {
        id: "m2",
        total_cycles: 9577,
        bytes_read: 61992,
        bytes_written: 23712,
        traffic_read: 197248,
        traffic_written: 56896,
        bursts: 3971,
        row_misses: 873,
        breakdown: [5513, 98, 64303, 6702],
        output_fnv: 0xc126809ab0aea73e,
    },
    Golden {
        id: "az",
        total_cycles: 20097,
        bytes_read: 122000,
        bytes_written: 68888,
        traffic_read: 307776,
        traffic_written: 144768,
        bursts: 7071,
        row_misses: 1453,
        breakdown: [11995, 1381, 112999, 34401],
        output_fnv: 0x91ea7c05cac3e756,
    },
    Golden {
        id: "mb",
        total_cycles: 4043,
        bytes_read: 19400,
        bytes_written: 12488,
        traffic_read: 62080,
        traffic_written: 27520,
        bursts: 1400,
        row_misses: 335,
        breakdown: [1552, 0, 27517, 3275],
        output_fnv: 0x9ce03e2a6fe99314,
    },
    Golden {
        id: "sc",
        total_cycles: 4971,
        bytes_read: 28888,
        bytes_written: 10592,
        traffic_read: 86144,
        traffic_written: 25984,
        bursts: 1752,
        row_misses: 347,
        breakdown: [2598, 4, 29505, 7661],
        output_fnv: 0x351f8ddb76e58f6c,
    },
    Golden {
        id: "pg",
        total_cycles: 1123,
        bytes_read: 2656,
        bytes_written: 1360,
        traffic_read: 11840,
        traffic_written: 4416,
        bursts: 254,
        row_misses: 58,
        breakdown: [162, 66, 4519, 4237],
        output_fnv: 0x930f5964bc48f4a8,
    },
    Golden {
        id: "of",
        total_cycles: 18091,
        bytes_read: 296048,
        bytes_written: 55608,
        traffic_read: 535232,
        traffic_written: 111168,
        bursts: 10100,
        row_misses: 1231,
        breakdown: [32810, 10293, 86117, 15508],
        output_fnv: 0x99aa5def438964f2,
    },
    Golden {
        id: "cg",
        total_cycles: 10237,
        bytes_read: 129024,
        bytes_written: 31744,
        traffic_read: 242048,
        traffic_written: 61056,
        bursts: 4736,
        row_misses: 820,
        breakdown: [14175, 4373, 53129, 10219],
        output_fnv: 0x1c68e537441fcd4f,
    },
    Golden {
        id: "cs",
        total_cycles: 11987,
        bytes_read: 145624,
        bytes_written: 23624,
        traffic_read: 265024,
        traffic_written: 48640,
        bursts: 4901,
        row_misses: 758,
        breakdown: [16111, 4449, 51716, 23620],
        output_fnv: 0x4dc317a099f26eca,
    },
    Golden {
        id: "f3",
        total_cycles: 30039,
        bytes_read: 576544,
        bytes_written: 62184,
        traffic_read: 874048,
        traffic_written: 118976,
        bursts: 15516,
        row_misses: 1465,
        breakdown: [66770, 34297, 88807, 50438],
        output_fnv: 0x96f62c92e4b4ac96,
    },
    Golden {
        id: "cc",
        total_cycles: 3759,
        bytes_read: 24144,
        bytes_written: 6856,
        traffic_read: 55552,
        traffic_written: 13184,
        bursts: 1074,
        row_misses: 166,
        breakdown: [2449, 286, 18875, 8462],
        output_fnv: 0x6310d1be91b074d6,
    },
    Golden {
        id: "wv",
        total_cycles: 8209,
        bytes_read: 67432,
        bytes_written: 13248,
        traffic_read: 141440,
        traffic_written: 26624,
        bursts: 2626,
        row_misses: 468,
        breakdown: [7100, 2719, 36428, 19425],
        output_fnv: 0x51ebf667dbc5702e,
    },
    Golden {
        id: "p3",
        total_cycles: 32787,
        bytes_read: 560288,
        bytes_written: 61376,
        traffic_read: 851136,
        traffic_written: 122880,
        bursts: 15219,
        row_misses: 1512,
        breakdown: [64841, 33360, 89929, 74166],
        output_fnv: 0xfe84f563e0c063a1,
    },
];

/// `(matrix, cycle, FNV-1a of the checkpoint bytes)`: cycles about half
/// way through each run.
const CHECKPOINTS: [(&str, u64, u64); 3] = [
    ("m2", 4788, 0x8cdd_95ee_48f4_9d43),
    ("pg", 561, 0x85c5_9191_0f85_2e7f),
    ("of", 9045, 0x5304_a13f_1ff4_87e9),
];

/// FNV-1a over `row_ptr`, `col_idx` and the value bits, little-endian.
fn output_fingerprint(c: &Csr<f64>) -> u64 {
    let mut bytes = Vec::new();
    for &p in c.row_ptr() {
        bytes.extend_from_slice(&(p as u64).to_le_bytes());
    }
    for &j in c.col_idx() {
        bytes.extend_from_slice(&j.to_le_bytes());
    }
    for v in c.values() {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

fn observe(id: &'static str, stats: &MatRaptorStats, c: &Csr<f64>) -> Golden {
    let b = &stats.breakdown;
    Golden {
        id,
        total_cycles: stats.total_cycles,
        bytes_read: stats.bytes_read,
        bytes_written: stats.bytes_written,
        traffic_read: stats.traffic_read,
        traffic_written: stats.traffic_written,
        bursts: stats.bursts,
        row_misses: stats.row_misses,
        breakdown: [b.busy.get(), b.merge_stall.get(), b.memory_stall.get(), b.idle.get()],
        output_fnv: output_fingerprint(c),
    }
}

#[test]
fn table2_subset_is_bit_identical_to_the_pinned_run() {
    let accel = Accelerator::new(MatRaptorConfig::default());
    for want in GOLDEN {
        let a = operand(want.id);
        let out = accel.try_run(&a, &a).unwrap_or_else(|e| panic!("{}: {e}", want.id));
        assert_eq!(&observe(want.id, &out.stats, &out.c), want);
    }
}

/// The checkpoint format is unchanged, so the bytes of a checkpoint taken
/// mid-run — every queue, job window, bank and in-flight request of the
/// machine — are pinned too.
#[test]
fn mid_run_checkpoints_are_byte_identical_to_the_pinned_run() {
    let accel = Accelerator::new(MatRaptorConfig::default());
    for (id, at, want) in CHECKPOINTS {
        let a = operand(id);
        let ck = match accel.try_run_slice(&a, &a, None, None, at).expect(id) {
            SliceRun::Paused(ck) => ck,
            SliceRun::Completed(_) => panic!("{id} drained before cycle {at}"),
        };
        assert_eq!(fnv1a64(&ck.to_bytes()), want, "{id} checkpoint at cycle {at}");
    }
}

fn operand(id: &str) -> Csr<f64> {
    suite::by_id(id).unwrap_or_else(|| panic!("no Table II matrix {id}")).generate(SCALE, SEED)
}
