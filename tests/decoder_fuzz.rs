//! Adversarial-bytes fuzzing for the two wire decoders: the RPC frame
//! reader and the journal record decoder. The contract under fuzz is the
//! same for both: arbitrary truncation or corruption of valid bytes yields
//! a *typed* error — never a panic, and never a silently wrong record.

use nnrt::graph::{DataflowGraph, OpKind, Shape};
use nnrt::rpc::{read_frame, FrameError, Request};
use nnrt::serve::{decode_record, encode_record, replay, JournalRecord};
use proptest::prelude::*;

/// Valid journal records spanning every payload shape (ids, floats,
/// strings, empty vectors, a graph). `Admit` names its graph by id, so it
/// is as small as the others; `Graph` carries a three-node graph whose
/// shapes vary, since fuzzing bit flips does not need the multi-kilobyte
/// graphs of the real models. `StoreInsert` is left to the round-trip
/// tests in the journal module.
fn arb_name() -> sample::Select<&'static str> {
    sample::select(vec![
        "",
        "dcgan-0",
        "résumé \"x\"\\n",
        "a-very-long-job-name-indeed",
    ])
}

/// A three-node graph: conv → relu → matmul, the matmul also depending on
/// the conv.
fn three_node_graph(batch: usize, width: usize) -> DataflowGraph {
    let mut g = DataflowGraph::new();
    let a = g.add_op(OpKind::Conv2D, Shape::nhwc(batch, 8, 8, 3), &[]);
    let b = g.add_op(OpKind::Relu, Shape::nhwc(batch, 8, 8, 16), &[a]);
    g.add_op(OpKind::MatMul, Shape::mat(batch, width), &[a, b]);
    g
}

fn arb_record() -> impl Strategy<Value = JournalRecord> {
    let id = 0u64..=u64::MAX;
    let small = 0u32..=u32::MAX;
    let finite = 0.0f64..1e9;
    prop_oneof![
        (id.clone(), arb_name()).prop_map(|(version, format)| JournalRecord::Header {
            format: format.to_string(),
            version
        }),
        (id.clone(), 1usize..64, 1usize..4096).prop_map(|(id, batch, width)| {
            JournalRecord::Graph {
                id,
                graph: three_node_graph(batch, width),
            }
        }),
        (
            id.clone(),
            arb_name(),
            arb_name(),
            small.clone(),
            0u8..=u8::MAX,
            finite.clone(),
            id.clone()
        )
            .prop_map(|(id, name, model, steps, priority, weight, graph)| {
                JournalRecord::Admit {
                    id,
                    name: name.to_string(),
                    model: model.to_string(),
                    steps,
                    priority,
                    weight,
                    graph,
                }
            }),
        (id.clone(), small.clone()).prop_map(|(id, node)| JournalRecord::Place { id, node }),
        (id.clone(), small.clone(), finite.clone()).prop_map(|(id, steps_done, at)| {
            JournalRecord::Checkpoint {
                id,
                steps_done,
                at,
                fitted_keys: Vec::new(),
            }
        }),
        (id.clone(), finite.clone()).prop_map(|(id, at)| JournalRecord::Evict { id, at }),
        (id.clone(), small.clone()).prop_map(|(id, node)| JournalRecord::Retry { id, node }),
        (id, arb_name(), arb_name(), small.clone(), small, finite).prop_map(
            |(id, name, model, steps, node, at)| JournalRecord::Complete {
                id,
                name: name.to_string(),
                model: model.to_string(),
                steps,
                node,
                at
            }
        ),
    ]
}

proptest! {
    /// Arbitrary garbage through the record decoder and the replay loop:
    /// typed results only, no panics.
    #[test]
    fn journal_decoder_survives_arbitrary_bytes(bytes in collection::vec(0u8..=255, 0..256)) {
        let _ = decode_record(&bytes);
        let rep = replay(&bytes);
        prop_assert!(rep.discarded_bytes <= bytes.len());
        // Random bytes essentially never carry a valid checksum, so the
        // replay must report the input as a torn tail, not invent records.
        if !bytes.is_empty() && rep.records.is_empty() {
            prop_assert!(rep.torn.is_some());
            prop_assert_eq!(rep.discarded_bytes, bytes.len());
        }
    }

    /// Every proper prefix of a valid record is a typed truncation-class
    /// error, never a success and never a panic.
    #[test]
    fn truncated_journal_record_is_a_typed_error(rec in arb_record(), cut in 0.0f64..1.0) {
        let bytes = encode_record(&rec);
        let cut = ((bytes.len() as f64) * cut) as usize;
        prop_assert!(cut < bytes.len());
        prop_assert!(decode_record(&bytes[..cut]).is_err());
    }

    /// A single flipped bit anywhere in a valid record either surfaces as a
    /// typed error or decodes to the exact original — never to a silently
    /// different record.
    #[test]
    fn bit_flipped_journal_record_is_never_silently_wrong(
        rec in arb_record(),
        pos in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let original = encode_record(&rec);
        let mut bytes = original.clone();
        let pos = ((bytes.len() as f64) * pos) as usize % bytes.len();
        bytes[pos] ^= 1 << bit;
        match decode_record(&bytes) {
            Err(_) => {}
            Ok((decoded, used)) => {
                prop_assert_eq!(&decoded, &rec, "flip at byte {} bit {}", pos, bit);
                prop_assert_eq!(used, original.len());
            }
        }
    }

    /// Arbitrary garbage through the RPC frame reader: typed `FrameError`
    /// only, and a salvaged payload never panics the request decoder.
    #[test]
    fn rpc_frame_reader_survives_arbitrary_bytes(bytes in collection::vec(0u8..=255, 0..256)) {
        let mut cursor = std::io::Cursor::new(bytes);
        if let Ok(payload) = read_frame(&mut cursor) {
            let _ = nnrt::rpc::decode::<Request>(&payload);
        }
    }

    /// Every proper prefix of a valid frame fails with the I/O (truncation)
    /// error class — the stream just ended mid-frame.
    #[test]
    fn truncated_rpc_frame_is_a_typed_error(steps in 0u32..=u32::MAX, cut in 0.0f64..1.0) {
        let mut frame = Vec::new();
        nnrt::rpc::write_frame(
            &mut frame,
            &nnrt::rpc::encode(&Request::Status { job_id: steps as u64 }),
        ).expect("vec write");
        let cut = ((frame.len() as f64) * cut) as usize;
        prop_assert!(cut < frame.len());
        let mut cursor = std::io::Cursor::new(&frame[..cut]);
        let result = read_frame(&mut cursor);
        prop_assert!(matches!(result, Err(FrameError::Io(_))));
    }
}
