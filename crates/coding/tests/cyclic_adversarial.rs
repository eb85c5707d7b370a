//! Cyclic-repetition decoding at the benchmark's shape (n = 200, r = 10)
//! under the worst-case adversary of Tandon et al.: every cyclic shift of
//! `r − 1` consecutive stragglers, plus random straggler sets, each with the
//! survivors arriving in a shuffled order.
//!
//! Held for every case: the decoder completes on exactly the
//! `(n − r + 1)`-th message; the coefficients, paired with the rows *in
//! arrival order*, leave a residual below 1e-6; the decoded sum is the true
//! sum; and the same survivors arriving sorted get the same coefficients,
//! each at its own worker's position, and decode to the same sum. The
//! residual is also compared with a textbook dense Householder solve that
//! knows nothing of the band (on every case in an optimised build, on every
//! [`REFERENCE_STRIDE`]-th one in a debug build, where that solve takes
//! ~50 ms).

use bcc_coding::scheme::test_support::{random_gradients, total_sum, worker_partials};
use bcc_coding::{CyclicRepetitionScheme, GradientCodingScheme, Payload};
use bcc_linalg::{vec_ops, Matrix};
use bcc_stats::rng::derive_rng;
use rand::seq::SliceRandom;

const N: usize = 200;
const R: usize = 10;
const THRESHOLD: usize = N - R + 1;
const SCHEME_SEEDS: [u64; 5] = [1, 7, 2024, 31_337, 4_294_967_311];
const RANDOM_SETS: usize = 200;
const REFERENCE_STRIDE: usize = if cfg!(debug_assertions) { 25 } else { 1 };

/// Every cyclic shift of `R − 1` consecutive stragglers, then `RANDOM_SETS`
/// uniformly drawn straggler sets of the same size.
fn straggler_sets(seed: u64) -> Vec<Vec<usize>> {
    let shifts = (0..N).map(|start| (0..R - 1).map(|k| (start + k) % N).collect());
    let random = (0..RANDOM_SETS).map(|i| {
        let mut ids: Vec<usize> = (0..N).collect();
        ids.shuffle(&mut derive_rng(seed, 1_000 + i as u64));
        ids.truncate(R - 1);
        ids
    });
    shifts.chain(random).collect()
}

/// `‖aᵀB_F − 1ᵀ‖∞` with `a[k]` paired with the row of `received[k]`.
fn residual(b: &Matrix, received: &[usize], a: &[f64]) -> f64 {
    let mut recon = vec![0.0; b.cols()];
    for (&coeff, &worker) in a.iter().zip(received) {
        vec_ops::axpy(coeff, b.row(worker), &mut recon);
    }
    recon.iter().fold(0.0f64, |m, x| m.max((x - 1.0).abs()))
}

/// Textbook Householder least squares for `B_Fᵀ a = 1` on the rows exactly as
/// received: every reflector runs over all remaining rows of every remaining
/// column, zero or not.
fn dense_reference(b: &Matrix, received: &[usize]) -> Vec<f64> {
    let (m, f) = (b.cols(), received.len());
    // Column k of B_Fᵀ is the coding row of the k-th arrival.
    let mut cols: Vec<Vec<f64>> = received.iter().map(|&w| b.row(w).to_vec()).collect();
    let mut y = vec![1.0; m];
    for k in 0..f {
        let (head, rest) = cols.split_at_mut(k + 1);
        let v = &mut head[k][k..];
        let norm = vec_ops::dot(v, v).sqrt();
        let alpha = if v[0] >= 0.0 { -norm } else { norm };
        v[0] -= alpha;
        let beta = 2.0 / vec_ops::dot(v, v);
        for target in rest.iter_mut().map(|c| &mut c[k..]).chain([&mut y[k..]]) {
            let s = beta * vec_ops::dot(v, target);
            vec_ops::axpy(-s, v, target);
        }
        v[0] = alpha;
    }
    let mut a = vec![0.0; f];
    for i in (0..f).rev() {
        let tail: f64 = (i + 1..f).map(|j| cols[j][i] * a[j]).sum();
        a[i] = (y[i] - tail) / cols[i][i];
    }
    a
}

fn relative_distance(x: &[f64], y: &[f64]) -> f64 {
    vec_ops::dist2_sq(x, y).sqrt() / vec_ops::norm2(y)
}

/// Feeds `arrival` to a fresh decoder until it completes; returns the
/// coefficients it settled on, one per message received, and the decoded sum.
fn drive(
    scheme: &CyclicRepetitionScheme,
    payloads: &[Payload],
    arrival: &[usize],
) -> (Vec<f64>, Vec<f64>) {
    let mut dec = scheme.decoder();
    for &worker in arrival {
        if dec.receive(worker, payloads[worker].clone()).unwrap() {
            let terms = dec.partial_sum_terms().unwrap();
            let coefficients = terms.iter().map(|&(a, _)| a).collect();
            return (coefficients, dec.decode().unwrap());
        }
    }
    panic!("decoder never completed on {} messages", arrival.len());
}

/// Runs every straggler set against the scheme drawn from `scheme_seed`;
/// returns the worst residual and the worst ratio to the dense reference's.
fn check_scheme(scheme_seed: u64) -> (f64, f64) {
    let scheme = CyclicRepetitionScheme::new(N, R, &mut derive_rng(scheme_seed, 0));
    let b = &scheme.coding_matrix();
    let grads = random_gradients(N, 3, scheme_seed ^ 0x5eed);
    let expect = total_sum(&grads);
    let payloads: Vec<Payload> = (0..N)
        .map(|i| {
            let partials = worker_partials(scheme.placement(), i, &grads);
            scheme.encode(i, &partials).unwrap()
        })
        .collect();

    let (mut worst, mut worst_vs_reference) = (0.0f64, 0.0f64);
    for (case, stragglers) in straggler_sets(scheme_seed).into_iter().enumerate() {
        let at = format!("seed {scheme_seed} case {case}");
        // Survivors in a shuffled order, the stragglers after them.
        let mut arrival: Vec<usize> = (0..N).filter(|w| !stragglers.contains(w)).collect();
        arrival.shuffle(&mut derive_rng(scheme_seed, 5_000 + case as u64));
        assert_eq!(arrival.len(), THRESHOLD);
        let mut sorted = arrival.clone();
        sorted.sort_unstable();
        arrival.extend(&stragglers);

        let (a, sum) = drive(&scheme, &payloads, &arrival);
        assert_eq!(a.len(), THRESHOLD, "{at}: completed late");
        let off = relative_distance(&sum, &expect);
        assert!(off < 1e-6, "{at}: sum off by {off}");

        let received = &arrival[..THRESHOLD];
        let (sorted_a, sorted_sum) = drive(&scheme, &payloads, &sorted);
        let apart = relative_distance(&sum, &sorted_sum);
        // Same coefficients, summed in another order: equal to 1e-9, or to the
        // rounding of that sum on the sets whose coefficients are large (‖a‖₁
        // reaches 1e8 on some, and the true sum is then off by as much).
        let reordering = f64::EPSILON * a.iter().map(|x| x.abs()).sum::<f64>();
        assert!(
            apart < reordering.max(1e-9),
            "{at}: arrival order moved the sum by {apart}"
        );
        for (k, worker) in received.iter().enumerate() {
            let rank = sorted.binary_search(worker).unwrap();
            assert_eq!(a[k], sorted_a[rank], "{at}: coefficient {k} misplaced");
        }

        let res = residual(b, received, &a);
        assert!(res < 1e-6, "{at}: residual {res}");
        worst = worst.max(res);

        if case % REFERENCE_STRIDE == 0 {
            let reference = residual(b, received, &dense_reference(b, received));
            assert!(
                res <= 10.0 * reference,
                "{at}: residual {res} against dense {reference}"
            );
            worst_vs_reference = worst_vs_reference.max(res / reference);
        }
    }
    (worst, worst_vs_reference)
}

#[test]
fn adversarial_straggler_sets_decode_on_the_threshold_message() {
    // One thread per scheme; a failed assertion surfaces when the scope joins.
    let worst = std::thread::scope(|scope| {
        let runs: Vec<_> = SCHEME_SEEDS
            .iter()
            .map(|&seed| scope.spawn(move || check_scheme(seed)))
            .collect();
        runs.into_iter()
            .map(|run| run.join().expect("a scheme's checks failed"))
            .fold((0.0f64, 0.0f64), |w, r| (w.0.max(r.0), w.1.max(r.1)))
    });
    println!(
        "worst residual {:.3e}, worst ratio to dense reference {:.3}",
        worst.0, worst.1
    );
}
