//! The ablation figure's rows (`hcc_lab figures ablations`) hold the
//! design claims DESIGN.md §6 makes for them: a warm bounce pool pays
//! only the reservation fee, bigger UVM fault batches and the
//! prefetcher never slow a cold range down, the transfer ciphers rank as
//! Fig. 4b's modeled throughputs do, deeper rings never wait longer, and
//! every added crypto worker shortens the CC transfer.

use hcc::crypto::CryptoAlgorithm;
use hcc::types::calib::TdxCalib;
use hcc::types::{ByteSize, CpuModel, SimDuration};
use hcc_bench::figures::{ablations, fig04b};

/// Each value is at most the one before it.
fn non_increasing(label: &str, values: &[(u64, SimDuration)]) {
    for pair in values.windows(2) {
        assert!(
            pair[1].1 <= pair[0].1,
            "{label}: {} at {} > {} at {}",
            pair[1].1,
            pair[1].0,
            pair[0].1,
            pair[0].0
        );
    }
}

#[test]
fn a_warm_pool_pays_only_the_reservation_fee() {
    let [thrash, _] = ablations::reservations(ByteSize::mib(4));
    let [cold, steady] = ablations::reservations(ByteSize::mib(64));
    assert_eq!(steady, TdxCalib::default().bounce_reserve);
    assert_eq!(
        cold, thrash,
        "the pool's capacity must not change a conversion"
    );
    assert!(cold > steady * 1000, "cold {cold} vs steady {steady}");
}

#[test]
fn uvm_batching_and_prefetch_never_slow_a_cold_range() {
    let mut batches: Vec<u64> = (0..=8).map(|i| 1 << i).collect();
    batches.extend(ablations::UVM_BATCHES);
    batches.sort_unstable();
    for prefetch in [true, false] {
        let times: Vec<_> = batches
            .iter()
            .map(|&batch| (batch, ablations::uvm(batch, prefetch)))
            .collect();
        non_increasing(&format!("UVM, prefetch {prefetch}"), &times);
    }
    assert!(ablations::uvm(32, true) < ablations::uvm(32, false));
}

#[test]
fn cipher_times_rank_as_fig04b_throughputs_do() {
    let mut by_throughput: Vec<_> = fig04b::entries(false)
        .into_iter()
        .filter(|e| e.cpu == CpuModel::EmeraldRapids)
        .collect();
    by_throughput.sort_by(|a, b| b.modeled_gbs.total_cmp(&a.modeled_gbs));
    let fastest_first: Vec<CryptoAlgorithm> = by_throughput.iter().map(|e| e.alg).collect();
    let mut by_time = CryptoAlgorithm::ALL;
    by_time.sort_by_key(|&alg| ablations::cipher(alg));
    assert_eq!(by_time.to_vec(), fastest_first);
    for pair in by_time.windows(2) {
        assert!(ablations::cipher(pair[0]) < ablations::cipher(pair[1]));
    }
}

#[test]
fn deeper_rings_never_wait_longer() {
    let mut depths: Vec<usize> = (0..=12).map(|i| 1 << i).collect();
    depths.extend(ablations::RING_DEPTHS);
    depths.sort_unstable();
    let waits: Vec<_> = depths
        .iter()
        .map(|&depth| (depth as u64, ablations::ring_wait(depth)))
        .collect();
    non_increasing("ring wait", &waits);
    // The deepest ring the figure prints still queues the burst.
    assert!(ablations::ring_wait(256) > SimDuration::ZERO);
}

#[test]
fn every_crypto_worker_shortens_the_transfer() {
    for workers in 1..8 {
        let (fewer, more) = (
            ablations::pipeline(workers),
            ablations::pipeline(workers + 1),
        );
        assert!(
            more < fewer,
            "{} workers {more} vs {workers} {fewer}",
            workers + 1
        );
    }
}
