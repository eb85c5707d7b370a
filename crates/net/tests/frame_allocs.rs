//! Allocation counts of the frame and wire codecs at full size, pinned.
//!
//! A `System` wrapper installed as the global allocator counts allocations
//! and requested bytes in thread-local counters, so each test sees only the
//! allocations of its own thread — not the harness's or its sibling tests'.
//! Sizes are `wire_tcp`'s: 131 072 weights, a 1 MiB vector.
//!
//! What the counts hold: a received frame is read once into one buffer
//! (no zero-filled staging copy, no second copy of the body inside
//! `decode_frame`); a Data frame's payload is a view into that buffer; a
//! Round frame or a wire envelope adds exactly its decoded `Vec<f64>`; and
//! the encoders write into a warm buffer without allocating.

use bcc_cluster::message::Envelope;
use bcc_cluster::wire;
use bcc_coding::Payload;
use bcc_net::frame::{self, NetMessage};
use bytes::BytesMut;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: a thread being torn down has no counters left to bump.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + size));
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations and requested bytes made on this thread while `f` runs.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (a0, b0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let (a1, b1) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    (out, a1 - a0, b1 - b0)
}

const WEIGHTS: usize = 131_072;
const MIB: usize = 1 << 20;
const KIB: usize = 1 << 10;

fn weights() -> Vec<f64> {
    (0..WEIGHTS).map(|i| i as f64 * 0.25 - 3.0).collect()
}

fn envelope() -> Envelope {
    Envelope {
        iteration: 5,
        worker: 2,
        compute_seconds: 0.5,
        payload: Payload::Sum {
            unit: 1,
            vector: weights(),
        },
    }
}

#[test]
fn reading_a_round_frame_allocates_the_frame_and_the_weights() {
    let wire = frame::encode(&NetMessage::Round {
        round: 1,
        epoch: 1,
        delay_seconds: 0.0,
        weights: weights(),
    });
    let (msg, allocs, bytes) = counted(|| frame::read_message(&mut Cursor::new(wire.as_slice())));
    assert!(matches!(msg, Ok(Some(NetMessage::Round { .. }))));
    assert_eq!(allocs, 2, "the read buffer and the weight vector");
    assert!(bytes <= 2 * MIB + KIB, "{bytes} bytes");
}

#[test]
fn reading_a_data_frame_keeps_the_payload_in_the_read_buffer() {
    let wire = frame::encode(&NetMessage::Data {
        epoch: 3,
        payload: wire::encode(&envelope()),
    });
    let (msg, allocs, bytes) = counted(|| frame::read_message(&mut Cursor::new(wire.as_slice())));
    assert!(matches!(msg, Ok(Some(NetMessage::Data { .. }))));
    assert!(
        allocs <= 2,
        "the read buffer and its shared handle, got {allocs}"
    );
    assert!(bytes <= MIB + KIB, "{bytes} bytes");
}

#[test]
fn decoding_an_envelope_allocates_only_its_vector() {
    let payload = wire::encode(&envelope());
    let (env, allocs, bytes) = counted(|| wire::decode(payload));
    assert_eq!(env.unwrap(), envelope());
    assert_eq!(allocs, 1, "the gradient vector");
    assert_eq!(bytes, 8 * WEIGHTS);
}

#[test]
fn warm_encoders_do_not_allocate() {
    let w = weights();
    let env = envelope();
    let mut frame_buf = BytesMut::new();
    let mut wire_buf = BytesMut::new();
    frame::encode_round_into(&mut frame_buf, 1, 1, 0.0, &w);
    wire::encode_into(&env, &mut wire_buf);
    let (_, allocs, _) = counted(|| {
        frame::encode_round_into(&mut frame_buf, 2, 2, 0.5, &w);
        wire::encode_into(&env, &mut wire_buf);
    });
    assert_eq!(allocs, 0);
}
