//! Fig. 2 as CSV: the computational-load vs recovery-threshold tradeoff for
//! every scheme, the paper's curves beside the exact finite-cluster means —
//! pipe into your plotter of choice.
//!
//! ```sh
//! cargo run --release --example tradeoff > fig2.csv
//! ```

use bcc::core::theory::fig2_tradeoff;

fn main() {
    let m = 100; // the paper's m = n = 100
    let loads: Vec<usize> = (1..=20).map(|k| k * 5).collect();
    let points = fig2_tradeoff(m, &loads);

    println!("r,lower_bound,bcc,bcc_exact,random_approx,random_exact,cyclic_repetition");
    for p in &points {
        println!(
            "{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
            p.r, p.lower_bound, p.bcc, p.bcc_exact, p.random, p.random_exact, p.cyclic_repetition
        );
    }

    eprintln!(
        "wrote {} rows; headline: at r = 10 BCC waits for {:.1} workers vs \
         {:.0} for cyclic repetition",
        points.len(),
        points.iter().find(|p| p.r == 10).unwrap().bcc,
        points.iter().find(|p| p.r == 10).unwrap().cyclic_repetition,
    );
}
