//! Traced-pass loops timing the primitives under the round loop, on
//! frames and buffers built from the workload's own payload and fault
//! model: wire encode/decode, send-buffer insert/age, and fault draws.

use std::hint::black_box;

use noc_fabric::{Message, MessageId, NodeId, WireCodec};
use noc_faults::{FaultInjector, FaultModel};
use noc_obs::Stopwatch;
use stochastic_noc::SendBuffer;

use crate::output::Values;
use crate::stats::{median, MEDIAN_SAMPLES};

/// What a workload's primitives are timed on.
pub struct PrimitiveInputs {
    /// A payload of the workload's length and kind.
    pub payload: Vec<u8>,
    /// The workload's (faulty) fault model.
    pub model: FaultModel,
    /// Seed for the injector's draws.
    pub seed: u64,
}

/// Batches per primitive; the median batch is reported.
const BATCHES: usize = MEDIAN_SAMPLES + 1;
/// Operations per batch.
const OPS: usize = 4096;
/// Messages per send buffer.
const BUFFER: usize = 64;

/// Nanoseconds per operation: the median over [`BATCHES`] of one batch
/// of `ops` operations run by `batch`.
fn per_op(ops: usize, mut batch: impl FnMut()) -> f64 {
    per_op_prepared(ops, || (), |()| batch())
}

/// [`per_op`] with an untimed `prepare` step before each batch.
fn per_op_prepared<T>(ops: usize, mut prepare: impl FnMut() -> T, mut batch: impl FnMut(T)) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let input = prepare();
            let span = Stopwatch::start();
            batch(input);
            span.elapsed_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

fn messages(inputs: &PrimitiveInputs, first_id: u64) -> Vec<Message> {
    (0..BUFFER as u64)
        .map(|i| {
            Message::new(
                MessageId(first_id + i),
                NodeId(1),
                NodeId(2),
                255,
                inputs.payload.clone(),
            )
        })
        .collect()
}

/// Times every primitive into `values`.
pub fn measure(inputs: &PrimitiveInputs, values: &mut Values) {
    let codec = WireCodec::default();
    let message = Message::new(
        MessageId(inputs.seed),
        NodeId(5),
        NodeId(6),
        40,
        inputs.payload.clone(),
    );
    let frame = codec.encode(&message);
    let mut scratch = Vec::with_capacity(frame.len());
    values.set(
        "wire.encode_ns",
        per_op(OPS, || {
            for _ in 0..OPS {
                scratch.clear();
                codec.encode_into(black_box(&message), &mut scratch);
                black_box(&scratch);
            }
        }),
    );
    values.set(
        "wire.decode_view_ns",
        per_op(OPS, || {
            for _ in 0..OPS {
                black_box(codec.decode_view(black_box(&frame)).is_ok());
            }
        }),
    );
    values.set(
        "wire.decode_trusted_ns",
        per_op(OPS, || {
            for _ in 0..OPS {
                black_box(codec.decode_view_trusted(black_box(&frame)).is_ok());
            }
        }),
    );

    // Insert: fresh ids into empty buffers, BUFFER at a time.
    let batches = OPS / BUFFER;
    let mut next_id = 0;
    values.set(
        "send_buffer.insert_ns",
        per_op_prepared(
            batches * BUFFER,
            || {
                next_id += OPS as u64;
                (0..batches)
                    .map(|b| messages(inputs, next_id + (b * BUFFER) as u64))
                    .collect::<Vec<_>>()
            },
            |prepared| {
                for batch in prepared {
                    let mut buffer = SendBuffer::new();
                    for m in batch {
                        black_box(buffer.insert(m));
                    }
                    black_box(&buffer);
                }
            },
        ),
    );
    // Age: one TTL decrement of every message of a full buffer.
    let ages = 200;
    values.set(
        "send_buffer.age_ns",
        per_op_prepared(
            ages * BUFFER,
            || {
                let mut buffer = SendBuffer::new();
                for m in messages(inputs, 0) {
                    buffer.insert(m);
                }
                buffer
            },
            |mut buffer| {
                for _ in 0..ages {
                    buffer.age();
                }
                black_box(buffer.len());
            },
        ),
    );

    let mut injector = FaultInjector::new(inputs.model, inputs.seed);
    values.set(
        "faults.upset_draw_ns",
        per_op(OPS, || {
            for _ in 0..OPS {
                black_box(injector.upset_occurs());
            }
        }),
    );
    let mut bytes = frame.clone();
    values.set(
        "faults.scramble_ns",
        per_op(OPS, || {
            for _ in 0..OPS {
                injector.scramble(black_box(&mut bytes));
            }
        }),
    );
    values.set(
        "faults.overflow_draw_ns",
        per_op(OPS, || {
            for _ in 0..OPS {
                black_box(injector.overflow_drop());
            }
        }),
    );
    values.set(
        "faults.skew_draw_ns",
        per_op(OPS, || {
            for _ in 0..OPS {
                black_box(injector.round_skew());
            }
        }),
    );
}
