//! Property-style tests of the HBM model's request handling: every
//! accepted request completes exactly once with exactly its bytes, no
//! matter how requests split across bursts and channels.
//!
//! Runs as deterministic seeded sweeps (the offline build cannot fetch
//! `proptest`); each case reproduces exactly from the printed seed.

use matraptor_mem::{FaultWindow, Hbm, HbmConfig, MemFaults, MemKind, MemRequest};
use matraptor_sim::Cycle;
use matraptor_sparse::rng::ChaCha8Rng;
use std::collections::BTreeMap;

const CASES: u64 = 64;

/// Drives a batch of requests to completion, returning (id → bytes) of
/// responses and the elapsed mem cycles.
fn drive(cfg: HbmConfig, reqs: Vec<MemRequest>) -> (BTreeMap<u64, (MemKind, u32)>, u64) {
    let mut hbm = Hbm::new(cfg);
    let mut pending: Vec<MemRequest> = reqs;
    let mut done = BTreeMap::new();
    let total = pending.len();
    let mut t = 0u64;
    while done.len() < total {
        let now = Cycle(t);
        pending.retain(|r| !hbm.submit(now, *r));
        hbm.tick(now);
        while let Some(resp) = hbm.pop_response(now) {
            let prior = done.insert(resp.id.0, (resp.kind, resp.bytes));
            assert!(prior.is_none(), "request {} completed twice", resp.id.0);
        }
        t += 1;
        assert!(t < 10_000_000, "drive did not drain");
    }
    (done, t)
}

/// Between 1 and `max - 1` random read/write requests with random addresses
/// and sizes.
fn random_requests(rng: &mut ChaCha8Rng, max: usize) -> Vec<MemRequest> {
    let n = rng.gen_range(1..max);
    (0..n)
        .map(|i| {
            let addr = rng.gen_range(0u64..1_000_000);
            let bytes = rng.gen_range(1u32..512);
            if rng.gen_bool(0.5) {
                MemRequest::read(i as u64, addr, bytes)
            } else {
                MemRequest::write(i as u64, addr, bytes)
            }
        })
        .collect()
}

#[test]
fn every_request_completes_exactly_once() {
    for seed in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let reqs = random_requests(&mut rng, 40);
        let cfg = HbmConfig::default();
        let n = reqs.len();
        let expect: BTreeMap<u64, (MemKind, u32)> =
            reqs.iter().map(|r| (r.id.0, (r.kind, r.bytes))).collect();
        let (done, _) = drive(cfg, reqs);
        assert_eq!(done.len(), n, "seed {seed}");
        for (id, got) in &done {
            assert_eq!(got, &expect[id], "seed {seed}: request {id} response mismatch");
        }
    }
}

#[test]
fn useful_bytes_account_exactly() {
    for seed in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x4B1D_0001);
        let reqs = random_requests(&mut rng, 30);
        let cfg = HbmConfig::with_channels(4);
        let mut hbm = Hbm::new(cfg);
        let total_bytes: u64 = reqs.iter().map(|r| r.bytes as u64).sum();
        let mut pending = reqs;
        let total = pending.len();
        let mut completed = 0usize;
        let mut t = 0u64;
        while completed < total {
            let now = Cycle(t);
            pending.retain(|r| !hbm.submit(now, *r));
            hbm.tick(now);
            while hbm.pop_response(now).is_some() {
                completed += 1;
            }
            t += 1;
            assert!(t < 10_000_000, "seed {seed}");
        }
        let s = hbm.stats();
        assert_eq!(s.bytes_read + s.bytes_written, total_bytes, "seed {seed}");
        // Pin traffic is burst-quantized: at least the useful bytes, and a
        // whole number of bursts.
        assert!(s.traffic_read + s.traffic_written >= total_bytes, "seed {seed}");
        assert_eq!((s.traffic_read + s.traffic_written) % 64, 0, "seed {seed}");
        assert!(hbm.is_idle(), "seed {seed}");
    }
}

#[test]
fn more_channels_rarely_slower() {
    for seed in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x4B1D_0002);
        let reqs = random_requests(&mut rng, 24);
        let (_, t2) = drive(HbmConfig::with_channels(2), reqs.clone());
        let (_, t8) = drive(HbmConfig::with_channels(8), reqs);
        // More channels means more parallelism, but the channel count also
        // changes which rows/banks addresses map to, so a small adversarial
        // batch can lose a little row locality. Allow one activation of
        // slack; anything beyond that indicates a scaling bug.
        assert!(
            t8 <= t2 + HbmConfig::default().row_miss_penalty + 1,
            "seed {seed}: 8ch {t8} vs 2ch {t2}"
        );
    }
}

#[test]
fn mixed_reads_and_writes_share_channels_fairly() {
    let cfg = HbmConfig::with_channels(2);
    let reqs: Vec<MemRequest> = (0..64)
        .map(|i| {
            if i % 2 == 0 {
                MemRequest::read(i, i * 64, 64)
            } else {
                MemRequest::write(i, (i + 1000) * 64, 64)
            }
        })
        .collect();
    let (done, _) = drive(cfg, reqs);
    assert_eq!(done.len(), 64);
    assert_eq!(done.values().filter(|(k, _)| *k == MemKind::Read).count(), 32);
}

/// The channel of each burst fragment of `req`, in address order: the
/// fragment list the admission rule is defined over.
fn fragment_channels(cfg: &HbmConfig, req: &MemRequest) -> Vec<usize> {
    let burst = cfg.burst_bytes as u64;
    let mut channels = Vec::new();
    let mut addr = req.addr;
    let end = req.addr + req.bytes as u64;
    while addr < end {
        channels.push(cfg.channel_of_addr(addr));
        addr = ((addr / burst + 1) * burst).min(end);
    }
    channels
}

/// Capacity admission spelled out the slow way: count the fragments per
/// channel in a map and admit only if the request is non-empty, its id
/// is not in flight, and every target queue has room for its count.
/// Returns the per-channel counts when admitted.
fn reference_admission(
    cfg: &HbmConfig,
    hbm: &Hbm,
    in_flight: &[u64],
    req: &MemRequest,
) -> Option<BTreeMap<usize, usize>> {
    let mut need = BTreeMap::new();
    for ch in fragment_channels(cfg, req) {
        *need.entry(ch).or_insert(0) += 1;
    }
    let depths = hbm.queue_depths();
    let fits = need.iter().all(|(&ch, &n)| cfg.queue_depth - depths[ch] >= n);
    (req.bytes > 0 && !in_flight.contains(&req.id.0) && fits).then_some(need)
}

/// The allocation-free admission of `Hbm::can_accept` / `Hbm::submit`
/// agrees with the fragment-list reference, attempt for attempt: across
/// random geometries (including interleaves that are not a multiple of
/// the burst), requests spanning up to 24 bursts, shallow queues that
/// refuse often, duplicate ids, and installed refusal windows. An
/// accepted request must add exactly the reference's fragment count to
/// each channel queue.
#[test]
fn allocation_free_admission_agrees_with_the_fragment_list() {
    let (mut admitted_long, mut refused, mut fault_refused, mut duplicates) = (0, 0, 0, 0);
    for seed in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xAD31_5510);
        let burst = [16u32, 32, 64][rng.gen_range(0..3usize)];
        let cfg = HbmConfig {
            num_channels: rng.gen_range(1..9usize),
            burst_bytes: burst,
            interleave_bytes: burst * rng.gen_range(1..5u32) + [0, 8][rng.gen_range(0..2usize)],
            queue_depth: rng.gen_range(2..12usize),
            ..HbmConfig::default()
        };
        let faults = if rng.gen_bool(0.5) {
            let refusals = (0..rng.gen_range(1..4usize))
                .map(|_| {
                    let start = rng.gen_range(0..200u64);
                    FaultWindow {
                        channel: rng.gen_range(0..cfg.num_channels),
                        start,
                        end: start + rng.gen_range(1..100u64),
                    }
                })
                .collect();
            MemFaults { stalls: Vec::new(), refusals }
        } else {
            MemFaults::none()
        };
        let mut hbm = Hbm::new(cfg.clone());
        hbm.set_faults(faults.clone());
        for t in 0..300u64 {
            let now = Cycle(t);
            // Ids accepted this cycle: certainly still in flight, as no
            // fragment is serviced before the next tick. Ids of earlier
            // cycles never recur.
            let mut in_flight: Vec<u64> = Vec::new();
            for _ in 0..rng.gen_range(0..6usize) {
                // Ids mostly fresh, sometimes a duplicate of one in flight.
                let id = if !in_flight.is_empty() && rng.gen_bool(0.2) {
                    in_flight[rng.gen_range(0..in_flight.len())]
                } else {
                    1_000 * seed + t * 8 + rng.gen_range(0..8u64)
                };
                let bytes = rng.gen_range(0..24 * burst);
                let req = MemRequest::read(id, rng.gen_range(0u64..100_000), bytes);
                let fits = reference_admission(&cfg, &hbm, &in_flight, &req);
                assert_eq!(hbm.can_accept(&req), fits.is_some(), "seed {seed} t {t}: {req:?}");
                let refusing =
                    fragment_channels(&cfg, &req).iter().any(|&ch| faults.refusing(ch, t));
                let want = if refusing { None } else { fits };
                fault_refused += usize::from(refusing);
                duplicates += usize::from(in_flight.contains(&id));
                let before = hbm.queue_depths();
                let refused_before = hbm.fault_counters().refused_submits;
                assert_eq!(hbm.submit(now, req), want.is_some(), "seed {seed} t {t}: {req:?}");
                assert_eq!(
                    hbm.fault_counters().refused_submits - refused_before,
                    u64::from(refusing),
                    "seed {seed} t {t}: refusal not counted once"
                );
                let after = hbm.queue_depths();
                match want {
                    Some(need) => {
                        for ch in 0..cfg.num_channels {
                            let added = need.get(&ch).copied().unwrap_or(0);
                            assert_eq!(after[ch], before[ch] + added, "seed {seed} t {t} ch {ch}");
                        }
                        in_flight.push(id);
                        admitted_long += usize::from(need.values().sum::<usize>() > 8);
                    }
                    None => {
                        assert_eq!(after, before, "seed {seed} t {t}: a refusal changed a queue");
                        refused += 1;
                    }
                }
            }
            hbm.tick(now);
            while hbm.pop_response(now).is_some() {}
        }
    }
    assert!(admitted_long > 0, "no request spanning more than 8 bursts was admitted");
    assert!(refused > 0, "no request was refused");
    assert!(fault_refused > 0, "no refusal window bit");
    assert!(duplicates > 0, "no duplicate id was submitted");
}

/// The full-channel mask that lets a requester skip a submit the device
/// would refuse. After every random submit and tick it equals the
/// fullness of the queues recomputed from their depths, and `submit`
/// refuses every request whose first fragment lands on a set channel.
/// While a refusal or stall schedule is installed the mask reads 0, so
/// requesters still reach `submit`, and the refusal counter matches a
/// reference count of requests that touched a refusing window.
#[test]
fn full_channel_mask_tracks_the_queues_and_reads_zero_under_faults() {
    let (mut skipped, mut masked, mut fault_refused) = (0, 0, 0);
    for seed in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF011_C4A1);
        let burst = [16u32, 32, 64][rng.gen_range(0..3usize)];
        let cfg = HbmConfig {
            num_channels: rng.gen_range(1..17usize),
            burst_bytes: burst,
            interleave_bytes: burst * rng.gen_range(1..3u32),
            queue_depth: rng.gen_range(1..5usize),
            ..HbmConfig::default()
        };
        let window = |rng: &mut ChaCha8Rng| {
            let start = rng.gen_range(0..150u64);
            FaultWindow {
                channel: rng.gen_range(0..cfg.num_channels),
                start,
                end: start + rng.gen_range(1..100u64),
            }
        };
        let faults = match rng.gen_range(0..3usize) {
            0 => MemFaults::none(),
            1 => {
                MemFaults { stalls: Vec::new(), refusals: vec![window(&mut rng), window(&mut rng)] }
            }
            _ => MemFaults { stalls: vec![window(&mut rng)], refusals: Vec::new() },
        };
        let mut hbm = Hbm::new(cfg.clone());
        hbm.set_faults(faults.clone());
        let recomputed = |hbm: &Hbm| {
            let full =
                hbm.queue_depths().iter().enumerate().fold(0u64, |mask, (c, &depth)| {
                    mask | u64::from(depth == cfg.queue_depth) << c
                });
            if faults.is_empty() {
                full
            } else {
                0
            }
        };
        let (mut next_id, mut want_refused) = (0u64, 0u64);
        for t in 0..300u64 {
            let now = Cycle(t);
            for _ in 0..rng.gen_range(0..8usize) {
                let req = MemRequest::write(
                    next_id,
                    rng.gen_range(0u64..100_000),
                    rng.gen_range(1..4 * burst),
                );
                next_id += 1;
                let mask = hbm.full_channels();
                assert_eq!(mask, recomputed(&hbm), "seed {seed} t {t}: mask out of step");
                masked += usize::from(mask != 0);
                let refusing =
                    fragment_channels(&cfg, &req).iter().any(|&ch| faults.refusing(ch, t));
                want_refused += u64::from(refusing);
                fault_refused += usize::from(refusing);
                let accepted = hbm.submit(now, req);
                if mask & 1 << cfg.channel_of_addr(req.addr) != 0 {
                    assert!(!accepted, "seed {seed} t {t}: admitted to a full channel: {req:?}");
                    skipped += 1;
                }
                assert_eq!(hbm.fault_counters().refused_submits, want_refused, "seed {seed} t {t}");
            }
            hbm.tick(now);
            while hbm.pop_response(now).is_some() {}
            assert_eq!(hbm.full_channels(), recomputed(&hbm), "seed {seed} t {t}: after tick");
        }
    }
    assert!(skipped > 0, "no request met a full channel");
    assert!(masked > 0, "the mask never read non-zero");
    assert!(fault_refused > 0, "no refusal window bit");
}
