//! `CyclicRepetitionScheme::decoding_coefficients` against the dense path it
//! replaced, bit for bit.
//!
//! The reference builds `B_F` dense (`coding_matrix()` → `select_rows`),
//! solves it with `qr::solve_row_combination` and checks the residual with a
//! dense `gemv_t`, all in worker-id order as the decoder does. The windowed
//! decoder must return the same coefficients to the last bit, and `None` on
//! exactly the same sets. The sets are below, at and above the recovery
//! threshold, in shuffled and sorted arrival order, with blocks of
//! consecutive stragglers (wrapping ones included), and with ids out of
//! range or repeated. The sweep covers every `r` at every `n ≤ 64` (every
//! [`STRIDE`]-th pair in a debug build), then the benchmark's `(200, 10)` and
//! `(1000, 10)`.

use bcc_coding::CyclicRepetitionScheme;
use bcc_linalg::{qr, Matrix};
use bcc_stats::rng::derive_rng;
use rand::seq::SliceRandom;
use rand::Rng;

/// The decoder's residual tolerance.
const DECODE_TOL: f64 = 1e-6;
const STRIDE: usize = if cfg!(debug_assertions) { 7 } else { 1 };

/// The dense decode: `a` with `aᵀB_F = 1ᵀ`, one coefficient per entry of
/// `received`, or `None` when the set cannot decode.
fn dense_reference(b: &Matrix, threshold: usize, received: &[usize]) -> Option<Vec<f64>> {
    let n = b.rows();
    if received.len() < threshold {
        return None;
    }
    let mut order: Vec<usize> = (0..received.len()).collect();
    order.sort_by_key(|&arrival| received[arrival]);
    let sorted: Vec<usize> = order.iter().map(|&arrival| received[arrival]).collect();
    if sorted.last().is_some_and(|&id| id >= n) || sorted.windows(2).any(|w| w[0] == w[1]) {
        return None;
    }
    let bf = b.select_rows(&sorted).ok()?;
    let ones = vec![1.0; n];
    let by_id = qr::solve_row_combination(&bf, &ones).ok()?;
    let recon = bf.gemv_t(&by_id).ok()?;
    if !recon.iter().all(|x| (x - 1.0).abs() < DECODE_TOL) {
        return None;
    }
    let mut by_arrival = vec![0.0; by_id.len()];
    for (&arrival, &coefficient) in order.iter().zip(&by_id) {
        by_arrival[arrival] = coefficient;
    }
    Some(by_arrival)
}

/// How many sets of each outcome a scheme saw.
#[derive(Default)]
struct Tally {
    decoded: usize,
    refused: usize,
}

/// Holds the decoder to the reference on one received set and tallies the
/// outcome.
fn check(scheme: &CyclicRepetitionScheme, b: &Matrix, received: &[usize], tally: &mut Tally) {
    let bits = |a: Option<Vec<f64>>| a.map(|a| a.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
    let got = bits(scheme.decoding_coefficients(received));
    let expect = bits(dense_reference(b, scheme.recovery_threshold(), received));
    let (n, r) = (b.rows(), scheme.stragglers_tolerated() + 1);
    assert_eq!(got, expect, "n {n}, r {r}, received {received:?}");
    if got.is_some() {
        tally.decoded += 1;
    } else {
        tally.refused += 1;
    }
}

/// The survivors of `r − 1` consecutive stragglers from `start` (wrapping
/// past worker `n − 1`), in a shuffled order.
fn block_survivors<R: Rng>(n: usize, r: usize, start: usize, rng: &mut R) -> Vec<usize> {
    let mut survivors: Vec<usize> = (r - 1..n).map(|k| (start + k) % n).collect();
    survivors.shuffle(rng);
    survivors
}

/// Every kind of received set against one scheme; `rounds` random draws of
/// each. Threshold sets must decode (they do with probability 1).
fn check_scheme(n: usize, r: usize, seed: u64, rounds: usize) -> Tally {
    let scheme = CyclicRepetitionScheme::new(n, r, &mut derive_rng(seed, 0));
    let b = scheme.coding_matrix();
    let threshold = scheme.recovery_threshold();
    let mut rng = derive_rng(seed, 1);
    let mut tally = Tally::default();
    let at_threshold = |received: &[usize], tally: &mut Tally| {
        let decoded = tally.decoded;
        check(&scheme, &b, received, tally);
        assert_eq!(tally.decoded, decoded + 1, "n {n}, r {r}: {received:?}");
    };
    for _ in 0..rounds {
        let start = rng.gen_range(0..n);
        at_threshold(&block_survivors(n, r, start, &mut rng), &mut tally);
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(&mut rng);
        let mut fastest = ids[..threshold].to_vec();
        at_threshold(&fastest, &mut tally);
        fastest.sort_unstable();
        at_threshold(&fastest, &mut tally);

        // Below the threshold, then above it up to every worker.
        check(&scheme, &b, &ids[..threshold - 1], &mut tally);
        let more = rng.gen_range(threshold..=n);
        check(&scheme, &b, &ids[..more], &mut tally);
        check(&scheme, &b, &ids, &mut tally);

        // An id out of range, in place of a survivor and on top of them.
        let mut bad = ids[..threshold].to_vec();
        let k = rng.gen_range(0..threshold);
        for id in [n, n + rng.gen_range(1..n + 1), usize::MAX] {
            bad[k] = id;
            check(&scheme, &b, &bad, &mut tally);
        }
        bad[k] = ids[k];
        bad.push(n);
        check(&scheme, &b, &bad, &mut tally);

        // A repeated id, in place of a survivor and on top of them.
        let mut repeated = ids[..threshold].to_vec();
        repeated.push(repeated[rng.gen_range(0..threshold)]);
        check(&scheme, &b, &repeated, &mut tally);
        if threshold > 1 {
            repeated.pop();
            repeated[k] = repeated[(k + 1) % threshold];
            check(&scheme, &b, &repeated, &mut tally);
        }
    }
    tally
}

#[test]
fn windowed_decode_matches_dense_at_every_r_up_to_64_workers() {
    let (mut tally, mut pair) = (Tally::default(), 0);
    for n in 1..=64 {
        for r in 1..=n {
            pair += 1;
            if pair % STRIDE == 0 {
                let t = check_scheme(n, r, (n * 100 + r) as u64, 3);
                tally.decoded += t.decoded;
                tally.refused += t.refused;
            }
        }
    }
    assert!(tally.decoded > 0 && tally.refused > 0);
}

#[test]
fn windowed_decode_matches_dense_at_benchmark_scale() {
    for seed in [1, 2024] {
        let t = check_scheme(200, 10, seed, 4);
        assert!(t.decoded >= 12 && t.refused > 0);
        // Every block start, wrapping ones included.
        let scheme = CyclicRepetitionScheme::new(200, 10, &mut derive_rng(seed, 0));
        let b = scheme.coding_matrix();
        let mut rng = derive_rng(seed, 2);
        let mut tally = Tally::default();
        for start in (0..200).step_by(STRIDE) {
            check(
                &scheme,
                &b,
                &block_survivors(200, 10, start, &mut rng),
                &mut tally,
            );
        }
        assert_eq!(tally.refused, 0);
    }
    let t = check_scheme(1000, 10, 7, 1);
    assert!(t.decoded >= 3 && t.refused > 0);
}
