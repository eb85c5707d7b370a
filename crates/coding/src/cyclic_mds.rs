//! Cyclic-MDS gradient coding over ℂ — Raviv, Tamo, Tandon, Dimakis,
//! *"Gradient Coding from Cyclic MDS Codes and Expander Graphs"* \[9\].
//!
//! Same cyclic support and `(r, K)` point as CR (eq. (7)/(8)), but the
//! coding matrix is **deterministic**, built from the complex roots of
//! unity. We realize it with the parity-check construction:
//!
//! * `H ∈ ℂ^{s×n}` with `H[t,u] = ω^{u(t+1)}`, `ω = e^{2πi/n}` — rows are
//!   the DFT characters at frequencies `1..s`, so `H·1 = 0` (the all-ones
//!   vector is "frequency 0") and every `s×s` column submatrix is a scaled
//!   Vandermonde in distinct nodes, hence invertible.
//! * row `i` of `B` has support `{i,…,i+s} mod n`, `B[i,i] = 1`, remaining
//!   entries solve `H[:,S_i∖{i}]·x = −H[:,i]` exactly as in CR — but now the
//!   construction is deterministic and decodability from any `n−s` workers
//!   holds structurally (cyclic Reed–Solomon), not just almost surely.
//!
//! Workers send complex combinations; the decoded combination collapses to
//! the real gradient sum (imaginary parts cancel to numerical noise, which
//! the decoder checks and strips).
//!
//! # Decoding
//!
//! The master solves `aᵀB_F = 1ᵀ` for the complex coefficients `a` as a real
//! system of twice the size, interleaved so that the cyclic band survives:
//! the unknowns `re aₖ, im aₖ` are columns `2k, 2k+1` and the real and
//! imaginary parts of unit `u`'s equation are rows `2u, 2u+1`. With the
//! received rows sorted by worker id that is a band twice as wide as CR's,
//! and the same profile-aware Householder kernel ([`bcc_linalg::qr`]) solves
//! it in `O(n·r²)`; a solution is accepted only if `‖aᵀB_F − 1ᵀ‖∞` is within
//! `DECODE_TOL` = 1e-6.
//!
//! **Limit.** `B_F` is built from Vandermonde blocks in roots of unity and
//! its condition number grows quickly with `n`. At `r = 10` every threshold
//! set tried decodes up to `n = 80`; from `n ≈ 100` some sets, and from
//! `n ≈ 200` all of them, miss the tolerance in `f64`, the decoder returns
//! `None` and the round reports a stall rather than a wrong gradient.

use crate::error::CodingError;
use crate::payload::Payload;
use crate::scheme::{solve_in_id_order, Coverage, Decoder, GradientCodingScheme, ReceiveLog};
use bcc_data::Placement;
use bcc_linalg::{qr, CMatrix, Complex, Matrix};

/// Residual tolerance for accepting a decoding vector.
const DECODE_TOL: f64 = 1e-6;

/// Tolerance on leftover imaginary components after decoding.
const IMAG_TOL: f64 = 1e-6;

/// Deterministic cyclic-MDS gradient coding over ℂ.
#[derive(Debug, Clone)]
pub struct CyclicMdsScheme {
    placement: Placement,
    b: CMatrix,
    n: usize,
    r: usize,
}

impl CyclicMdsScheme {
    /// Builds the deterministic code for `n` workers/units and load `r`.
    ///
    /// # Panics
    /// Panics when `r == 0` or `r > n`; [`Self::try_new`] is the fallible
    /// form.
    #[must_use]
    pub fn new(n: usize, r: usize) -> Self {
        Self::try_new(n, r).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: returns [`CodingError::InvalidConfig`] instead
    /// of panicking when the load is outside `0 < r ≤ n`.
    ///
    /// # Errors
    /// [`CodingError::InvalidConfig`] when `r == 0` or `r > n`.
    pub fn try_new(n: usize, r: usize) -> Result<Self, CodingError> {
        if r == 0 || r > n {
            return Err(CodingError::InvalidConfig {
                reason: format!("cyclic MDS needs 0 < r ≤ n (n={n}, r={r})"),
            });
        }
        let s = r - 1;
        let b = Self::build_coding_matrix(n, s);
        let placement = Placement::cyclic(n, r);
        Ok(Self { placement, b, n, r })
    }

    fn build_coding_matrix(n: usize, s: usize) -> CMatrix {
        let mut b = CMatrix::zeros(n, n);
        if s == 0 {
            for i in 0..n {
                b.set(i, i, Complex::ONE);
            }
            return b;
        }
        // H[t,u] = ω^{u(t+1)} for t in 0..s.
        let h = CMatrix::from_fn(s, n, |t, u| Complex::root_of_unity(n, u * (t + 1)));
        for i in 0..n {
            b.set(i, i, Complex::ONE);
            let cols: Vec<usize> = (1..=s).map(|k| (i + k) % n).collect();
            let hsub = CMatrix::from_fn(s, s, |t, k| h.get(t, cols[k]));
            let rhs: Vec<Complex> = (0..s).map(|t| -h.get(t, i)).collect();
            let x = hsub
                .solve(&rhs)
                .expect("Vandermonde submatrix in distinct roots is invertible");
            for (k, &c) in cols.iter().enumerate() {
                b.set(i, c, x[k]);
            }
        }
        b
    }

    /// The complex coding matrix `B`.
    #[must_use]
    pub fn coding_matrix(&self) -> &CMatrix {
        &self.b
    }

    /// Worst-case recovery threshold `K_CM = n − r + 1` (eq. (7)).
    #[must_use]
    pub fn recovery_threshold(&self) -> usize {
        self.n - self.r + 1
    }

    /// Decoding coefficients for the received set, if it can decode: `a` with
    /// `aᵀB_F = 1ᵀ`, one coefficient per entry of `received` in the order
    /// given. Returns `None` below the threshold, for an id that is out of
    /// range or repeated, and when the solve misses `DECODE_TOL` (see the
    /// module docs on conditioning).
    #[must_use]
    pub fn decoding_coefficients(&self, received: &[usize]) -> Option<Vec<Complex>> {
        if received.len() < self.recovery_threshold() {
            return None;
        }
        solve_in_id_order(received, self.n, |sorted| {
            // Row 2k holds `B[w_k, ·]` as (re, im) pairs and row 2k+1 the same
            // entries multiplied by i, so that `xᵀ·rows` is the real embedding
            // of `aᵀB_F` for `a_k = x[2k] + i·x[2k+1]`.
            let mut rows = Matrix::zeros(2 * sorted.len(), 2 * self.n);
            for (k, &worker) in sorted.iter().enumerate() {
                for (u, z) in self.b.row(worker).iter().enumerate() {
                    rows[(2 * k, 2 * u)] = z.re;
                    rows[(2 * k, 2 * u + 1)] = z.im;
                    rows[(2 * k + 1, 2 * u)] = -z.im;
                    rows[(2 * k + 1, 2 * u + 1)] = z.re;
                }
            }
            let ones: Vec<f64> = [1.0, 0.0].repeat(self.n);
            let x = qr::solve_row_combination(&rows, &ones).ok()?;
            let a: Vec<Complex> = x
                .chunks_exact(2)
                .map(|p| Complex::new(p[0], p[1]))
                .collect();
            // Residual check: aᵀB_F ≈ 1ᵀ.
            let mut recon = vec![Complex::ZERO; self.n];
            for (&coeff, &worker) in a.iter().zip(sorted) {
                for (sum, &z) in recon.iter_mut().zip(self.b.row(worker)) {
                    *sum += coeff * z;
                }
            }
            let ok = recon
                .iter()
                .all(|&sum| (sum - Complex::ONE).abs() <= DECODE_TOL);
            ok.then_some(a)
        })
    }
}

impl GradientCodingScheme for CyclicMdsScheme {
    fn name(&self) -> &'static str {
        "cyclic-mds"
    }

    fn placement(&self) -> &Placement {
        &self.placement
    }

    fn encode(&self, worker: usize, partials: &[Vec<f64>]) -> Result<Payload, CodingError> {
        if worker >= self.n {
            return Err(CodingError::UnknownWorker {
                worker,
                num_workers: self.n,
            });
        }
        let units = self.placement.worker_examples(worker);
        if partials.len() != units.len() {
            return Err(CodingError::MalformedPayload {
                reason: format!(
                    "worker {worker} expected {} partial gradients, got {}",
                    units.len(),
                    partials.len()
                ),
            });
        }
        let dim = partials.first().map_or(0, Vec::len);
        let mut vector = vec![Complex::ZERO; dim];
        for (&u, g) in units.iter().zip(partials) {
            let coeff = self.b.get(worker, u);
            for (acc, &gk) in vector.iter_mut().zip(g) {
                *acc += coeff * gk;
            }
        }
        Ok(Payload::LinearComplex { vector })
    }

    fn decoder(&self) -> Box<dyn Decoder + '_> {
        Box::new(CmDecoder {
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

struct CmDecoder<'a> {
    scheme: &'a CyclicMdsScheme,
    log: ReceiveLog,
    received: Vec<usize>,
    messages: Vec<Vec<Complex>>,
    coefficients: Option<Vec<Complex>>,
}

impl Decoder for CmDecoder<'_> {
    fn receive(&mut self, worker: usize, payload: Payload) -> Result<bool, CodingError> {
        let Payload::LinearComplex { vector } = payload else {
            return Err(CodingError::MalformedPayload {
                reason: "cyclic-MDS expects LinearComplex payloads".into(),
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
        let dim = self.messages.first().map_or(0, Vec::len);
        let mut acc = vec![Complex::ZERO; dim];
        for (coeff, msg) in a.iter().zip(&self.messages) {
            for (s, &z) in acc.iter_mut().zip(msg) {
                *s += *coeff * z;
            }
        }
        // Imaginary parts must cancel; surface a decoding failure otherwise.
        let max_imag = acc.iter().fold(0.0f64, |m, z| m.max(z.im.abs()));
        let scale = acc.iter().fold(1.0f64, |m, z| m.max(z.re.abs()));
        if max_imag > IMAG_TOL * scale {
            return Err(CodingError::DecodingFailed {
                reason: format!("imaginary residue {max_imag} exceeds tolerance"),
            });
        }
        Ok(acc.into_iter().map(|z| z.re).collect())
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::test_support::{random_gradients, total_sum, worker_partials};

    #[test]
    fn deterministic_construction() {
        let a = CyclicMdsScheme::new(8, 3);
        let b = CyclicMdsScheme::new(8, 3);
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(a.b.get(i, j), b.b.get(i, j));
            }
        }
    }

    #[test]
    fn support_is_cyclic_window() {
        let s = CyclicMdsScheme::new(7, 3);
        for i in 0..7 {
            for u in 0..7 {
                let in_window = (0..3).any(|k| (i + k) % 7 == u);
                if !in_window {
                    assert!(
                        s.b.get(i, u).abs() < 1e-14,
                        "B[{i},{u}] should be zero outside the window"
                    );
                }
            }
            assert!((s.b.get(i, i) - Complex::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn decodes_from_every_threshold_subset() {
        let (n, r) = (6, 3);
        let s = CyclicMdsScheme::new(n, r);
        let grads = random_gradients(n, 3, 1);
        let expect = total_sum(&grads);
        let k = s.recovery_threshold(); // 4
        for subset in all_subsets(n, k) {
            let mut dec = s.decoder();
            let mut done = false;
            for &i in &subset {
                let partials = worker_partials(s.placement(), i, &grads);
                done = dec.receive(i, s.encode(i, &partials).unwrap()).unwrap();
            }
            assert!(done, "subset {subset:?} must decode (MDS property)");
            let sum = dec.decode().unwrap();
            assert!(
                bcc_linalg::approx_eq_slice(&sum, &expect, 1e-5),
                "subset {subset:?} wrong: {sum:?} vs {expect:?}"
            );
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
    fn below_threshold_incomplete() {
        let s = CyclicMdsScheme::new(6, 3);
        let grads = random_gradients(6, 2, 2);
        let mut dec = s.decoder();
        for i in 0..3 {
            let partials = worker_partials(s.placement(), i, &grads);
            assert!(!dec.receive(i, s.encode(i, &partials).unwrap()).unwrap());
        }
        assert!(!dec.is_complete());
    }

    #[test]
    fn identity_when_r_is_one() {
        let s = CyclicMdsScheme::new(4, 1);
        assert_eq!(s.recovery_threshold(), 4);
        let grads = random_gradients(4, 2, 3);
        let mut dec = s.decoder();
        for i in 0..4 {
            let partials = worker_partials(s.placement(), i, &grads);
            dec.receive(i, s.encode(i, &partials).unwrap()).unwrap();
        }
        assert!(bcc_linalg::approx_eq_slice(
            &dec.decode().unwrap(),
            &total_sum(&grads),
            1e-9
        ));
    }

    #[test]
    fn matches_cr_threshold_formula() {
        for (n, r) in [(10, 3), (12, 5), (9, 9)] {
            let s = CyclicMdsScheme::new(n, r);
            assert_eq!(s.recovery_threshold(), n - r + 1);
            assert_eq!(s.analytic_recovery_threshold(), Some((n - r + 1) as f64));
        }
    }

    #[test]
    fn cyclic_mds_decodes_at_threshold_n48_r10() {
        // The normal equations this replaced squared the condition number
        // and decoded none of these sets (7 of 20 at n = 40).
        use bcc_stats::rng::derive_rng;
        use rand::seq::SliceRandom;
        let (n, r) = (48, 10);
        let s = CyclicMdsScheme::new(n, r);
        let grads = random_gradients(n, 3, 4);
        let expect = total_sum(&grads);
        for trial in 0..20 {
            let mut arrival: Vec<usize> = (0..n).collect();
            arrival.shuffle(&mut derive_rng(trial, 48));
            let mut dec = s.decoder();
            let used = arrival.iter().position(|&i| {
                let partials = worker_partials(s.placement(), i, &grads);
                dec.receive(i, s.encode(i, &partials).unwrap()).unwrap()
            });
            assert_eq!(used, Some(n - r), "trial {trial}: complete on message 39");
            assert!(
                bcc_linalg::approx_eq_slice(&dec.decode().unwrap(), &expect, 1e-5),
                "trial {trial} decoded a wrong sum"
            );
        }
    }

    #[test]
    fn out_of_range_or_repeated_ids_do_not_decode() {
        let s = CyclicMdsScheme::new(6, 3);
        assert!(s.decoding_coefficients(&[0, 1, 2, 3]).is_some());
        assert_eq!(s.decoding_coefficients(&[0, 1, 2, 6]), None);
        assert_eq!(s.decoding_coefficients(&[0, 1, 2, usize::MAX]), None);
        assert_eq!(s.decoding_coefficients(&[0, 1, 2, 3, 1]), None);
    }

    #[test]
    fn wrong_payload_variant_rejected() {
        let s = CyclicMdsScheme::new(4, 2);
        let mut dec = s.decoder();
        assert!(matches!(
            dec.receive(0, Payload::Linear { vector: vec![] }),
            Err(CodingError::MalformedPayload { .. })
        ));
    }
}
