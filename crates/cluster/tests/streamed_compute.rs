//! Pin: the chunk-streamed worker compute path encodes payloads
//! bit-identical to the resident-arena path, on every builtin scheme, for
//! full and minibatch rounds, at chunk sizes both tiling and straddling
//! the units — so swapping the data path can never change a result.

use bcc_cluster::engine::RoundContext;
use bcc_cluster::{Minibatch, StreamedContext, UnitMap, WorkerBlocks};
use bcc_coding::{
    BccScheme, CyclicRepetitionScheme, FractionalRepetitionScheme, GeneralizedBccScheme,
    GradientCodingScheme, RandomSubsetScheme, UncodedScheme, UncompressedBccScheme,
};
use bcc_data::synthetic::{generate, SyntheticConfig};
use bcc_data::ChunkedDataset;
use bcc_optim::{GradScratch, LogisticLoss};
use bcc_stats::rng::derive_rng;

fn builtin_schemes(
    m: usize,
    n: usize,
    r: usize,
) -> Vec<(&'static str, Box<dyn GradientCodingScheme>)> {
    let mut rng = derive_rng(91, 0);
    let bcc = loop {
        let s = BccScheme::new(m, n, r, &mut rng);
        if s.covers_all_batches() {
            break s;
        }
    };
    let bcc_uncompressed = loop {
        let s = UncompressedBccScheme::new(m, n, r, &mut rng);
        if s.covers_all_batches() {
            break s;
        }
    };
    let random = loop {
        let s = RandomSubsetScheme::new(m, n, r, &mut rng);
        if s.placement().covers_all() {
            break s;
        }
    };
    let generalized = GeneralizedBccScheme::new(m, &vec![r; n], &mut rng)
        .expect("generalized BCC coverage with r·n ≥ m");
    vec![
        (
            "uncoded",
            Box::new(UncodedScheme::new(m, n)) as Box<dyn GradientCodingScheme>,
        ),
        ("bcc", Box::new(bcc)),
        ("bcc_uncompressed", Box::new(bcc_uncompressed)),
        ("random", Box::new(random)),
        ("generalized_bcc", Box::new(generalized)),
        (
            "cyclic_repetition",
            Box::new(CyclicRepetitionScheme::new(n, r, &mut rng)),
        ),
        (
            "fractional",
            Box::new(FractionalRepetitionScheme::new(n, r)),
        ),
    ]
}

#[test]
fn streamed_payloads_match_arena_payloads() {
    let m = 10;
    let n = 10;
    let cfg = SyntheticConfig::small(40, 4, 33);
    let g = generate(&cfg);
    let units = UnitMap::grouped(40, m);
    let w = vec![0.04; 4];
    let selections = [None, Some(Minibatch::new(4, 55).select(0, m))];

    // Chunk sizes: tiling the 4-row units exactly, and straddling them.
    for chunk_rows in [4, 7] {
        let chunked = ChunkedDataset::synthetic(cfg, chunk_rows, 3);
        for (name, scheme) in builtin_schemes(m, n, 2) {
            let packed = WorkerBlocks::build(scheme.as_ref(), &units, &g.dataset);
            let ctx = RoundContext {
                scheme: scheme.as_ref(),
                units: &units,
                data: &g.dataset,
                loss: &LogisticLoss,
                packed: &packed,
                minibatch: None,
            };
            let streamed = StreamedContext {
                scheme: scheme.as_ref(),
                units: &units,
                data: &chunked,
                loss: &LogisticLoss,
            };
            for selection in &selections {
                for worker in 0..n {
                    let mut sa = GradScratch::new();
                    let mut sb = GradScratch::new();
                    let arena = ctx
                        .compute_and_encode_selected(worker, &w, &mut sa, selection.as_ref())
                        .expect("arena path encodes");
                    let stream = streamed
                        .compute_and_encode(worker, &w, &mut sb, selection.as_ref())
                        .expect("streamed path encodes");
                    assert_eq!(
                        arena,
                        stream,
                        "{name}: worker {worker} payload must be bit-identical \
                         (chunk_rows={chunk_rows}, minibatch={})",
                        selection.is_some()
                    );
                }
            }
        }
    }
}

#[test]
fn unit_tiling_chunks_read_zero_copy() {
    let cfg = SyntheticConfig::small(40, 4, 33);
    let units = UnitMap::grouped(40, 10);
    // chunk_rows == unit size → every unit read aliases a live chunk.
    let chunked = ChunkedDataset::synthetic(cfg, 4, 10);
    for u in 0..units.num_units() {
        assert!(
            chunked.read(units.unit_range(u)).is_shared(),
            "unit {u} tiles a chunk and must read zero-copy"
        );
    }
}
