//! Cyclic-repetition (CR) gradient coding — Tandon, Lei, Dimakis,
//! Karampatziakis, *"Gradient Coding"* \[7\]; the paper's main coded baseline.
//!
//! With `m = n` data units and computational load `r`, the scheme tolerates
//! any `s = r − 1` stragglers: worker `i` stores the cyclic window
//! `{i, …, i+s} mod n` and sends one linear combination
//! `z_i = Σ_u B[i,u]·g_u`. The coding matrix `B` comes from Algorithm 1
//! of \[7\]:
//!
//! 1. draw `H ∈ ℝ^{s×n}` with i.i.d. Gaussian entries, then force its
//!    columns to sum to zero (so `H·1 = 0`);
//! 2. row `i` of `B` has support `{i,…,i+s}`, `B[i,i] = 1`, and the other
//!    `s` entries solve `H[:, S_i∖{i}]·x = −H[:, i]`, giving `H·Bᵀ = 0`.
//!
//! Every row of `B` then lies in `null(H)` — an `(n−s)`-dimensional space
//! containing the all-ones vector — and (w.p. 1 over the Gaussian draw) any
//! `n−s` rows span it, so the master can decode from *any* `n−s` workers by
//! solving `aᵀB_F = 1ᵀ`. Recovery threshold: `K_CR = m − r + 1` (eq. (7)).

use crate::error::CodingError;
use crate::payload::Payload;
use crate::scheme::{assigned_examples, Coverage, Decoder, GradientCodingScheme, ReceiveLog};
use bcc_data::Placement;
use bcc_linalg::{qr::Qr, solve, vec_ops, Matrix};
use bcc_stats::dist::Gaussian;
use rand::Rng;

/// Residual tolerance for accepting a decoding vector.
const DECODE_TOL: f64 = 1e-6;

/// The CR gradient-coding scheme over `n` workers / `n` data units.
#[derive(Debug, Clone)]
pub struct CyclicRepetitionScheme {
    placement: Placement,
    /// The coding matrix `B` by windows: `windows[i·r + k] = B[i, (i+k) mod n]`,
    /// the only entries of row `i` that can be non-zero.
    windows: Vec<f64>,
    n: usize,
    r: usize,
}

impl CyclicRepetitionScheme {
    /// Constructs the scheme via Algorithm 1 of \[7\].
    ///
    /// # Panics
    /// Panics when `r == 0` or `r > n`; [`Self::try_new`] is the fallible
    /// form.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(n: usize, r: usize, rng: &mut R) -> Self {
        Self::try_new(n, r, rng).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: returns [`CodingError::InvalidConfig`] instead
    /// of panicking when the load is outside `0 < r ≤ n`.
    ///
    /// # Errors
    /// [`CodingError::InvalidConfig`] when `r == 0` or `r > n`.
    pub fn try_new<R: Rng + ?Sized>(n: usize, r: usize, rng: &mut R) -> Result<Self, CodingError> {
        if r == 0 || r > n {
            return Err(CodingError::InvalidConfig {
                reason: format!("cyclic repetition needs 0 < r ≤ n (n={n}, r={r})"),
            });
        }
        let windows = Self::build_windows(n, r - 1, rng);
        let placement = Placement::cyclic(n, r);
        Ok(Self {
            placement,
            windows,
            n,
            r,
        })
    }

    /// Algorithm 1: random `H` with zero column sums, then per-row solves.
    /// Returns row `i`'s window `B[i, i..=i+s]` (mod `n`) for every `i`.
    fn build_windows<R: Rng + ?Sized>(n: usize, s: usize, rng: &mut R) -> Vec<f64> {
        if s == 0 {
            return vec![1.0; n];
        }
        let gauss = Gaussian::standard();
        // H ∈ ℝ^{s×n}: first n−1 columns Gaussian, last = −(sum of others).
        let mut h = Matrix::zeros(s, n);
        for t in 0..s {
            let mut rowsum = 0.0;
            for u in 0..n - 1 {
                let v = bcc_stats::dist::Sample::sample(&gauss, rng);
                h[(t, u)] = v;
                rowsum += v;
            }
            h[(t, n - 1)] = -rowsum;
        }

        let mut windows = Vec::with_capacity(n * (s + 1));
        for i in 0..n {
            windows.push(1.0);
            // Remaining support columns: {i+1, …, i+s} mod n.
            let cols: Vec<usize> = (1..=s).map(|k| (i + k) % n).collect();
            // Solve H[:, cols]·x = −H[:, i].
            let hsub = Matrix::from_fn(s, s, |t, k| h[(t, cols[k])]);
            let rhs: Vec<f64> = (0..s).map(|t| -h[(t, i)]).collect();
            let x = solve::solve(&hsub, &rhs)
                .expect("Gaussian submatrix is invertible with probability 1");
            windows.extend_from_slice(&x);
        }
        windows
    }

    /// Worker `i`'s coefficients `B[i, i..=i+r−1]`, unit ids taken mod `n`.
    fn window(&self, i: usize) -> &[f64] {
        &self.windows[i * self.r..(i + 1) * self.r]
    }

    /// The coding matrix `B` (rows = workers, columns = data units), built
    /// dense from the windows.
    #[must_use]
    pub fn coding_matrix(&self) -> Matrix {
        let mut b = Matrix::zeros(self.n, self.n);
        for i in 0..self.n {
            for (k, &coefficient) in self.window(i).iter().enumerate() {
                b[(i, (i + k) % self.n)] = coefficient;
            }
        }
        b
    }

    /// Number of stragglers tolerated in the worst case: `s = r − 1`.
    #[must_use]
    pub fn stragglers_tolerated(&self) -> usize {
        self.r - 1
    }

    /// Worst-case recovery threshold `K_CR = n − r + 1` (eq. (7)).
    #[must_use]
    pub fn recovery_threshold(&self) -> usize {
        self.n - self.r + 1
    }

    /// Tries to compute decoding coefficients for the received worker set
    /// `F`: `a` with `aᵀB_F = 1ᵀ`, one coefficient per entry of `received` in
    /// the order given. Returns `None` when there are too few workers, when
    /// an id is out of range or repeated, or when the solve fails or leaves a
    /// residual of `1e-6` or more.
    ///
    /// Exactly `n − r + 1` distinct workers decode with probability 1 over
    /// the Gaussian draw of `B`. More usually do not: the rows of `B` span
    /// only an `(n − r + 1)`-dimensional space, so `B_F` is then
    /// rank-deficient, and the solve goes through only when roundoff leaves
    /// every pivot of `R` above the solver's absolute `1e-10` tolerance. At
    /// `n = 200`, `r = 5` fewer than one such set in a hundred decodes (and
    /// then with a residual under the tolerance). The decoder never asks: it
    /// solves on every message until one decodes, and the threshold message
    /// does.
    ///
    /// The solve runs on the rows sorted by worker id, where `B_Fᵀ` is a band
    /// of width at most `2r` plus at most `r − 1` wrap-around columns. Each
    /// row goes to the profile-aware [`Qr`] kernel straight from its window,
    /// so no dense `B_F` is built and the solve spends `O(n·r²)` time and
    /// `O(n·r)` memory.
    #[must_use]
    pub fn decoding_coefficients(&self, received: &[usize]) -> Option<Vec<f64>> {
        if received.len() < self.recovery_threshold() {
            return None;
        }
        let (n, r) = (self.n, self.r);
        solve_in_id_order(received, n, |sorted| {
            // Row `i` of `B` is a column of `B_Fᵀ` that holds its window from
            // row `i` on, unless the window wraps past unit n − 1. The
            // wrapping rows come last in id order and go to the kernel as
            // whole columns.
            let wrap = sorted.partition_point(|&i| i + r <= n);
            let mut wrapped = vec![0.0; (sorted.len() - wrap) * n];
            for (&i, column) in sorted[wrap..].iter().zip(wrapped.chunks_exact_mut(n)) {
                let (tail, head) = self.window(i).split_at(n - i);
                column[i..].copy_from_slice(tail);
                column[..head.len()].copy_from_slice(head);
            }
            let columns = sorted[..wrap]
                .iter()
                .map(|&i| (i, self.window(i)))
                .chain(wrapped.chunks_exact(n).map(|column| (0, column)));
            let a = Qr::from_columns(n, columns)
                .and_then(|qr| qr.solve_least_squares(&vec![1.0; n]))
                .ok()?;
            // Verify: residual ‖aᵀB_F − 1ᵀ‖∞ below tolerance, summed row by
            // row in id order over each window.
            let mut recon = vec![0.0; n];
            for (&i, &coefficient) in sorted.iter().zip(&a) {
                let (tail, head) = self.window(i).split_at(r.min(n - i));
                vec_ops::axpy(coefficient, tail, &mut recon[i..i + tail.len()]);
                vec_ops::axpy(coefficient, head, &mut recon[..head.len()]);
            }
            let ok = recon.iter().all(|x| (x - 1.0).abs() < DECODE_TOL);
            ok.then_some(a)
        })
    }
}

/// Runs the decoding solve in worker-id order and hands the
/// coefficients back in arrival order.
///
/// Sorted by id, the received rows of the cyclic coding matrix form a band (plus
/// the few rows whose window wraps around), which is what makes the solve
/// cheap; arrival order scatters it. `solve` gets the sorted ids and returns
/// one coefficient per id, or `None` when they cannot decode. Ids outside
/// `0..num_workers` or received twice cannot decode either.
fn solve_in_id_order(
    received: &[usize],
    num_workers: usize,
    solve: impl FnOnce(&[usize]) -> Option<Vec<f64>>,
) -> Option<Vec<f64>> {
    let mut order: Vec<usize> = (0..received.len()).collect();
    order.sort_unstable_by_key(|&arrival| received[arrival]);
    let sorted: Vec<usize> = order.iter().map(|&arrival| received[arrival]).collect();
    if sorted.last().is_some_and(|&id| id >= num_workers) || sorted.windows(2).any(|w| w[0] == w[1])
    {
        return None;
    }
    let by_id = solve(&sorted)?;
    let mut by_arrival = by_id.clone();
    for (&arrival, &coefficient) in order.iter().zip(&by_id) {
        by_arrival[arrival] = coefficient;
    }
    Some(by_arrival)
}

impl GradientCodingScheme for CyclicRepetitionScheme {
    fn name(&self) -> &'static str {
        "cyclic-repetition"
    }

    fn placement(&self) -> &Placement {
        &self.placement
    }

    fn encode(&self, worker: usize, partials: &[Vec<f64>]) -> Result<Payload, CodingError> {
        let units = assigned_examples(&self.placement, worker, partials)?;
        // z_i = Σ_{u ∈ S_i} B[i,u]·g_u, B[i,u] at window offset (u − i) mod n.
        let window = self.window(worker);
        let terms = units
            .iter()
            .zip(partials)
            .map(|(&u, g)| (window[(u + self.n - worker) % self.n], g.as_slice()));
        let vector = vec_ops::linear_combination(terms).ok_or(CodingError::MalformedPayload {
            reason: "CR worker stores a non-empty window".into(),
        })?;
        Ok(Payload::Linear { vector })
    }

    fn decoder(&self) -> Box<dyn Decoder + '_> {
        Box::new(CrDecoder {
            scheme: self,
            log: ReceiveLog::new(self.n),
            received: Vec::new(),
            messages: Vec::new(),
            coefficients: None,
        })
    }

    fn analytic_recovery_threshold(&self) -> Option<f64> {
        Some(self.recovery_threshold() as f64)
    }
}

struct CrDecoder<'a> {
    scheme: &'a CyclicRepetitionScheme,
    log: ReceiveLog,
    received: Vec<usize>,
    messages: Vec<Vec<f64>>,
    coefficients: Option<Vec<f64>>,
}

impl Decoder for CrDecoder<'_> {
    fn receive(&mut self, worker: usize, payload: Payload) -> Result<bool, CodingError> {
        let Payload::Linear { vector } = payload else {
            return Err(CodingError::MalformedPayload {
                reason: "CR expects Linear payloads".into(),
            });
        };
        self.log.record(worker, 1)?;
        self.received.push(worker);
        self.messages.push(vector);
        if self.coefficients.is_none() {
            self.coefficients = self.scheme.decoding_coefficients(&self.received);
        }
        Ok(self.is_complete())
    }

    fn is_complete(&self) -> bool {
        self.coefficients.is_some()
    }

    fn decode(&self) -> Result<Vec<f64>, CodingError> {
        let Some(a) = &self.coefficients else {
            return Err(CodingError::NotComplete {
                received: self.log.messages(),
            });
        };
        vec_ops::linear_combination(
            a.iter()
                .copied()
                .zip(self.messages.iter().map(Vec::as_slice)),
        )
        .ok_or_else(|| CodingError::DecodingFailed {
            reason: "no messages to combine".into(),
        })
    }

    fn messages_received(&self) -> usize {
        self.log.messages()
    }

    fn communication_units(&self) -> usize {
        self.log.units()
    }

    fn coverage(&self) -> Coverage {
        // A linear-combination code recovers nothing until the received
        // rows span the decoding space, then everything at once.
        Coverage::all_or_nothing(self.is_complete(), self.scheme.num_examples())
    }

    fn partial_sum_terms(&self) -> Option<Vec<(f64, &[f64])>> {
        // Only meaningful once the decoding coefficients exist; before
        // completion the serial path must surface `NotComplete`.
        let a = self.coefficients.as_ref()?;
        let terms: Vec<_> = a
            .iter()
            .copied()
            .zip(self.messages.iter().map(Vec::as_slice))
            .collect();
        (!terms.is_empty()).then_some(terms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::test_support::{random_gradients, total_sum, worker_partials};
    use bcc_stats::rng::derive_rng;

    fn scheme(n: usize, r: usize, seed: u64) -> CyclicRepetitionScheme {
        let mut rng = derive_rng(seed, 0);
        CyclicRepetitionScheme::new(n, r, &mut rng)
    }

    #[test]
    fn coding_matrix_annihilated_by_construction() {
        // Every row of B sums to ... rows lie in null(H) which contains 1;
        // verify the decodability consequence directly: the all-ones vector
        // is reproducible from ANY n−s rows.
        let s = scheme(8, 3, 1);
        let b = s.coding_matrix();
        assert_eq!(b.shape(), (8, 8));
        // Support structure: row i nonzero only on {i, i+1, i+2} mod 8.
        for i in 0..8 {
            for u in 0..8 {
                let in_window = (0..3).any(|k| (i + k) % 8 == u);
                if !in_window {
                    assert_eq!(b[(i, u)], 0.0, "B[{i},{u}] outside window");
                }
            }
            assert_eq!(b[(i, i)], 1.0);
        }
    }

    #[test]
    fn decodes_from_any_fastest_subset() {
        let (n, r) = (7, 3);
        let s = scheme(n, r, 2);
        let grads = random_gradients(n, 4, 3);
        let expect = total_sum(&grads);
        let k = s.recovery_threshold(); // n - r + 1 = 5

        // Try every (n choose k) subset of finished workers.
        let subsets = all_subsets(n, k);
        assert!(!subsets.is_empty());
        for subset in subsets {
            let mut dec = s.decoder();
            let mut done = false;
            for &i in &subset {
                let partials = worker_partials(s.placement(), i, &grads);
                done = dec.receive(i, s.encode(i, &partials).unwrap()).unwrap();
            }
            assert!(done, "subset {subset:?} must decode at threshold");
            let sum = dec.decode().unwrap();
            assert!(
                bcc_linalg::approx_eq_slice(&sum, &expect, 1e-5),
                "subset {subset:?} decoded wrong sum"
            );
            assert_eq!(dec.messages_received(), k);
            assert_eq!(dec.communication_units(), k);
        }
    }

    fn all_subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut cur = Vec::new();
        fn rec(start: usize, n: usize, k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if cur.len() == k {
                out.push(cur.clone());
                return;
            }
            for i in start..n {
                cur.push(i);
                rec(i + 1, n, k, cur, out);
                cur.pop();
            }
        }
        rec(0, n, k, &mut cur, &mut out);
        out
    }

    #[test]
    fn not_complete_below_threshold() {
        let s = scheme(6, 3, 4);
        let grads = random_gradients(6, 2, 5);
        let mut dec = s.decoder();
        // Feed threshold−1 = 3 workers.
        for i in 0..3 {
            let partials = worker_partials(s.placement(), i, &grads);
            let done = dec.receive(i, s.encode(i, &partials).unwrap()).unwrap();
            assert!(!done);
        }
        assert!(matches!(
            dec.decode(),
            Err(CodingError::NotComplete { received: 3 })
        ));
    }

    #[test]
    fn r_equals_one_is_identity_code() {
        let s = scheme(5, 1, 6);
        assert_eq!(s.recovery_threshold(), 5);
        assert!(s.coding_matrix().approx_eq(&Matrix::identity(5), 0.0));
        let grads = random_gradients(5, 2, 7);
        let mut dec = s.decoder();
        for i in 0..5 {
            let partials = worker_partials(s.placement(), i, &grads);
            dec.receive(i, s.encode(i, &partials).unwrap()).unwrap();
        }
        assert!(dec.is_complete());
        assert!(bcc_linalg::approx_eq_slice(
            &dec.decode().unwrap(),
            &total_sum(&grads),
            1e-9
        ));
    }

    #[test]
    fn r_equals_n_single_worker_suffices() {
        let s = scheme(4, 4, 8);
        assert_eq!(s.recovery_threshold(), 1);
        let grads = random_gradients(4, 3, 9);
        let mut dec = s.decoder();
        let partials = worker_partials(s.placement(), 2, &grads);
        assert!(dec.receive(2, s.encode(2, &partials).unwrap()).unwrap());
        assert!(bcc_linalg::approx_eq_slice(
            &dec.decode().unwrap(),
            &total_sum(&grads),
            1e-6
        ));
    }

    #[test]
    fn extra_messages_beyond_threshold_still_exact() {
        let (n, r) = (9, 4);
        let s = scheme(n, r, 10);
        let grads = random_gradients(n, 2, 11);
        let mut dec = s.decoder();
        for i in 0..n {
            let partials = worker_partials(s.placement(), i, &grads);
            dec.receive(i, s.encode(i, &partials).unwrap()).unwrap();
        }
        assert!(bcc_linalg::approx_eq_slice(
            &dec.decode().unwrap(),
            &total_sum(&grads),
            1e-5
        ));
    }

    #[test]
    fn coefficients_follow_the_order_given() {
        let s = scheme(9, 4, 14);
        let sorted = s.decoding_coefficients(&[0, 2, 3, 5, 7, 8]).unwrap();
        let shuffled = s.decoding_coefficients(&[7, 0, 8, 3, 2, 5]).unwrap();
        let expect = [4, 0, 5, 2, 1, 3].map(|k: usize| sorted[k]);
        assert_eq!(shuffled, expect);
    }

    #[test]
    fn out_of_range_or_repeated_ids_do_not_decode() {
        let s = scheme(6, 3, 15);
        assert!(s.decoding_coefficients(&[0, 1, 2, 3]).is_some());
        assert_eq!(s.decoding_coefficients(&[0, 1, 2, 6]), None);
        assert_eq!(s.decoding_coefficients(&[0, 1, 2, usize::MAX]), None);
        assert_eq!(s.decoding_coefficients(&[0, 1, 2, 3, 1]), None);
    }

    #[test]
    fn more_than_the_threshold_decodes_only_by_roundoff() {
        // 197 of 200 workers at r = 5, one more than the threshold: B_F is
        // rank-deficient. These outcomes are pinned, not promised.
        let s = scheme(200, 5, 1);
        let all_but_three_from =
            |start: usize| -> Vec<usize> { (3..200).map(|k| (start + k) % 200).collect() };
        let a = s.decoding_coefficients(&all_but_three_from(113)).unwrap();
        assert!(a.iter().all(|x| x.abs() < 1e3));
        assert_eq!(s.decoding_coefficients(&all_but_three_from(112)), None);
        let everyone: Vec<usize> = (0..200).collect();
        assert_eq!(s.decoding_coefficients(&everyone), None);
    }

    #[test]
    fn terms_appear_exactly_when_the_coefficients_do() {
        let s = scheme(10, 3, 5);
        let grads = random_gradients(10, 8, 13);
        let mut dec = s.decoder();
        for i in 0..10 {
            let partials = worker_partials(s.placement(), i, &grads);
            dec.receive(i, s.encode(i, &partials).unwrap()).unwrap();
            assert_eq!(dec.partial_sum_terms().is_some(), dec.is_complete());
        }
    }

    #[test]
    fn stragglers_tolerated_is_r_minus_one() {
        assert_eq!(scheme(10, 4, 12).stragglers_tolerated(), 3);
    }

    #[test]
    #[should_panic(expected = "0 < r")]
    fn zero_r_panics() {
        let _ = scheme(5, 0, 13);
    }
}
