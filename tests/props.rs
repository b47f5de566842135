//! Cross-crate property-based tests (proptest) on serialization and
//! supervision invariants.

use overton_model::{ServedOutput, ServingResponse};
use overton_serving::net::wire;
use overton_store::rowstore::{
    decode_record, encode_record, read_str, read_u64, write_str, write_u64, RowStore,
};
use overton_store::{
    example_schema, Dataset, PayloadValue, Record, SetElement, StoreError, TaskLabel,
};
use overton_supervision::{majority_vote, LabelMatrix, LabelModel, LabelModelConfig};
use proptest::prelude::*;
use serde_json::{Map, Value};
use std::sync::Arc;

fn arb_payload() -> impl Strategy<Value = PayloadValue> {
    prop_oneof![
        "[a-z ]{0,24}".prop_map(PayloadValue::Singleton),
        prop::collection::vec("[a-z]{1,8}", 0..12).prop_map(PayloadValue::Sequence),
        prop::collection::vec(("[a-zA-Z_]{1,12}", 0usize..8, 1usize..4), 0..5).prop_map(|els| {
            PayloadValue::Set(
                els.into_iter().map(|(id, lo, w)| SetElement { id, span: (lo, lo + w) }).collect(),
            )
        }),
    ]
}

fn arb_label() -> impl Strategy<Value = TaskLabel> {
    prop_oneof![
        "[A-Z][a-z]{0,8}".prop_map(TaskLabel::MulticlassOne),
        prop::collection::vec("[A-Z]{1,4}", 1..8).prop_map(TaskLabel::MulticlassSeq),
        prop::collection::vec("[a-z]{1,6}", 0..4).prop_map(TaskLabel::BitvectorOne),
        prop::collection::vec(prop::collection::vec("[a-z]{1,6}", 0..3), 1..6)
            .prop_map(TaskLabel::BitvectorSeq),
        (0usize..16).prop_map(TaskLabel::Select),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    (
        prop::collection::btree_map("[a-z]{1,8}", arb_payload(), 0..4),
        prop::collection::btree_map(
            "[A-Z][a-z]{0,6}",
            prop::collection::btree_map("[a-z0-9_]{1,8}", arb_label(), 0..4),
            0..4,
        ),
        prop::collection::btree_set("[a-z:.-]{1,12}", 0..5),
    )
        .prop_map(|(payloads, tasks, tags)| Record { payloads, tasks, tags })
}

/// Strings over controls, `"`, `\\`, ASCII, Latin and IPA letters, and
/// one astral emoji: everything the JSON escaper treats differently.
fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..0x300, 0..10).prop_map(|cs| {
        cs.into_iter()
            .map(|c| if c >= 0x2F0 { '\u{1F600}' } else { char::from_u32(c).expect("BMP") })
            .collect()
    })
}

/// Any bit pattern (NaN, infinities, subnormals, `-0.0`) plus the
/// ordinary probabilities the serving path emits.
fn arb_f32() -> impl Strategy<Value = f32> {
    prop_oneof![any::<u32>().prop_map(f32::from_bits), 0.0f32..1.0]
}

/// [`arb_text`] as a shared name, the way a server hands out its
/// interned task, class, label and slice names.
fn arb_name() -> impl Strategy<Value = Arc<str>> {
    arb_text().prop_map(Arc::from)
}

fn arb_served_output() -> impl Strategy<Value = ServedOutput> {
    prop_oneof![
        (arb_name(), prop::collection::vec((arb_name(), arb_f32()), 0..4))
            .prop_map(|(class, dist)| ServedOutput::Multiclass { class, dist }),
        prop::collection::vec(arb_name(), 0..4)
            .prop_map(|classes| ServedOutput::MulticlassSeq { classes }),
        prop::collection::vec(arb_name(), 0..4).prop_map(|set| ServedOutput::Bits { set }),
        prop::collection::vec(prop::collection::vec(arb_name(), 0..3), 0..3)
            .prop_map(|rows| ServedOutput::BitsSeq { rows }),
        (any::<usize>(), arb_text()).prop_map(|(index, id)| ServedOutput::Select { index, id }),
    ]
}

fn arb_serving_result() -> impl Strategy<Value = Result<ServingResponse, StoreError>> {
    prop_oneof![
        (
            prop::collection::btree_map(arb_name(), arb_served_output(), 0..4),
            prop::collection::vec((arb_name(), arb_f32()), 0..4),
            arb_f32(),
        )
            .prop_map(|(tasks, slices, confidence)| Ok(ServingResponse {
                tasks,
                slices,
                confidence
            })),
        arb_text().prop_map(|msg| Err(StoreError::Validation(msg))),
    ]
}

/// The wire body as the `Value` tree renders it: `{key: [items...]}`.
fn value_path_body(key: &str, items: Vec<Value>) -> String {
    Value::Object(Map::from([(key.to_string(), Value::Array(items))])).to_string()
}

/// What `record` reads back as from JSON. The untagged `PayloadValue` and
/// `TaskLabel` unions resolve to their first variant that reads, so an
/// empty `Set` comes back as an empty `Sequence` and a `BitvectorOne` as
/// a `MulticlassSeq` (a schema tells them apart: `normalize_labels`).
fn as_read_back(mut record: Record) -> Record {
    for payload in record.payloads.values_mut() {
        if matches!(payload, PayloadValue::Set(elements) if elements.is_empty()) {
            *payload = PayloadValue::Sequence(Vec::new());
        }
    }
    for label in record.tasks.values_mut().flat_map(|sources| sources.values_mut()) {
        if let TaskLabel::BitvectorOne(bits) = label {
            *label = TaskLabel::MulticlassSeq(std::mem::take(bits));
        }
    }
    record
}

/// `got` is `sent` after a wire round trip, bit for bit: non-finite
/// floats write a lossy `null`, which reads back as NaN.
fn same_f32(sent: f32, got: f32) -> bool {
    if sent.is_finite() {
        sent.to_bits() == got.to_bits()
    } else {
        got.is_nan()
    }
}

fn same_response(sent: &ServingResponse, got: &ServingResponse) -> bool {
    let same_pairs = |a: &[(Arc<str>, f32)], b: &[(Arc<str>, f32)]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.0 == y.0 && same_f32(x.1, y.1))
    };
    let same_output = |a: &ServedOutput, b: &ServedOutput| match (a, b) {
        (
            ServedOutput::Multiclass { class, dist },
            ServedOutput::Multiclass { class: got_class, dist: got_dist },
        ) => class == got_class && same_pairs(dist, got_dist),
        _ => a == b,
    };
    same_f32(sent.confidence, got.confidence)
        && same_pairs(&sent.slices, &got.slices)
        && sent.tasks.len() == got.tasks.len()
        && sent.tasks.iter().zip(&got.tasks).all(|(a, b)| a.0 == b.0 && same_output(a.1, b.1))
}

/// The writer renders a `usize` above `i64::MAX` as the `f64` it rounds
/// to, which no integer reads back; keep `Select` indices below it.
fn with_readable_indices(
    mut results: Vec<Result<ServingResponse, StoreError>>,
) -> Vec<Result<ServingResponse, StoreError>> {
    for response in results.iter_mut().flatten() {
        for output in response.tasks.values_mut() {
            if let ServedOutput::Select { index, .. } = output {
                *index &= i64::MAX as usize;
            }
        }
    }
    results
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn wire_request_decode_inverts_encode(
        records in prop::collection::vec(
            (arb_record(), prop::collection::btree_set(arb_text(), 0..3)),
            1..6,
        ),
    ) {
        let records: Vec<Record> = records
            .into_iter()
            .map(|(record, tags)| Record { tags, ..record })
            .collect();
        let body = wire::encode_predict_request(&records);
        let back = wire::decode_predict_request(body.as_bytes(), records.len()).unwrap();
        let expected: Vec<Record> = records.into_iter().map(as_read_back).collect();
        prop_assert_eq!(back, expected);
    }

    #[test]
    fn wire_response_decode_inverts_encode_bit_for_bit(
        results in prop::collection::vec(arb_serving_result(), 0..6),
    ) {
        let results = with_readable_indices(results);
        let body = wire::encode_predict_response(&results);
        let back = wire::decode_predict_response(body.as_bytes()).unwrap();
        prop_assert_eq!(back.len(), results.len());
        for (sent, got) in results.iter().zip(&back) {
            match (sent, got) {
                (Ok(sent), Ok(got)) => prop_assert!(same_response(sent, got), "{:?} vs {:?}", sent, got),
                (Err(sent), Err(got)) => prop_assert_eq!(&sent.to_string(), got),
                _ => prop_assert!(false, "{:?} came back as {:?}", sent, got),
            }
        }
    }

    #[test]
    fn wire_request_decode_rejects_what_the_value_reader_rejects(
        records in prop::collection::vec(arb_record(), 1..4),
        mutations in prop::collection::vec((0u8..3, any::<u64>(), any::<u8>()), 1..4),
    ) {
        // Flip, overwrite or truncate bytes of a valid body. Whenever the
        // result is not JSON, the typed decoder must not accept it either.
        let mut body = wire::encode_predict_request(&records).into_bytes();
        for (kind, pos_pick, byte) in mutations {
            if body.is_empty() {
                break;
            }
            let pos = (pos_pick % body.len() as u64) as usize;
            match kind {
                0 => body[pos] ^= 1 << (byte % 8),
                1 => body[pos] = byte,
                _ => body.truncate(pos),
            }
        }
        if serde_json::from_slice::<Value>(&body).is_err() {
            prop_assert!(
                wire::decode_predict_request(&body, 4096).is_err(),
                "accepted {:?}",
                String::from_utf8_lossy(&body)
            );
        }
    }

    #[test]
    fn wire_request_encoder_matches_the_value_path(
        records in prop::collection::vec(
            (arb_record(), prop::collection::btree_set(arb_text(), 0..3)),
            0..6,
        ),
    ) {
        let records: Vec<Record> = records
            .into_iter()
            .map(|(record, tags)| Record { tags, ..record })
            .collect();
        let tree = records.iter().map(|r| serde_json::to_value(r).unwrap()).collect();
        prop_assert_eq!(wire::encode_predict_request(&records), value_path_body("records", tree));
    }

    #[test]
    fn wire_response_encoder_matches_the_value_path(
        results in prop::collection::vec(arb_serving_result(), 0..6),
    ) {
        let tree = results
            .iter()
            .map(|r| {
                let (key, value) = match r {
                    Ok(response) => ("ok", serde_json::to_value(response).unwrap()),
                    Err(e) => ("err", Value::String(e.to_string())),
                };
                Value::Object(Map::from([(key.to_string(), value)]))
            })
            .collect();
        prop_assert_eq!(wire::encode_predict_response(&results), value_path_body("results", tree));
    }

    #[test]
    fn varint_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        write_u64(&mut buf, v);
        let mut slice = buf.as_slice();
        prop_assert_eq!(read_u64(&mut slice).unwrap(), v);
        prop_assert!(slice.is_empty());
    }

    #[test]
    fn string_roundtrip(s in "\\PC{0,64}") {
        let mut buf = Vec::new();
        write_str(&mut buf, &s);
        let mut slice = buf.as_slice();
        prop_assert_eq!(read_str(&mut slice).unwrap(), s);
    }

    #[test]
    fn record_binary_roundtrip(record in arb_record()) {
        let mut buf = Vec::new();
        encode_record(&record, &mut buf);
        let mut slice = buf.as_slice();
        let back = decode_record(&mut slice).unwrap();
        prop_assert!(slice.is_empty());
        prop_assert_eq!(back, record);
    }

    #[test]
    fn record_json_roundtrip(record in arb_record()) {
        // JSON cannot distinguish BitvectorOne from MulticlassSeq without a
        // schema, so compare through a second encode (fixed point).
        let json = record.to_json();
        let back = Record::from_json(&json).unwrap();
        prop_assert_eq!(back.to_json(), json);
    }

    #[test]
    fn rowstore_roundtrip(records in prop::collection::vec(arb_record(), 0..20)) {
        let store = RowStore::build(&records);
        let mut bytes = Vec::new();
        store.write(&mut bytes).unwrap();
        let loaded = RowStore::from_bytes(bytes).unwrap();
        prop_assert_eq!(loaded.len(), records.len());
        for (i, r) in records.iter().enumerate() {
            prop_assert_eq!(&loaded.get(i).unwrap(), r);
        }
    }

    #[test]
    fn sharded_store_roundtrip(
        records in prop::collection::vec(arb_record(), 0..20),
        shards in 1usize..5,
    ) {
        // Records cross shard boundaries at arbitrary points; every
        // variant must round-trip through encode → shard → decode, both
        // as owned records and as zero-copy views.
        let mut ds = Dataset::new(example_schema());
        for r in &records {
            ds.push_unchecked(r.clone());
        }
        let store = ds.seal_shards(shards);
        prop_assert_eq!(store.len(), records.len());
        store.verify().unwrap();
        for (i, r) in records.iter().enumerate() {
            prop_assert_eq!(&store.get(i).unwrap(), r);
            prop_assert_eq!(&store.view(i).unwrap().to_record(), r);
        }
        let back = store.dataset_view().unwrap();
        prop_assert_eq!(back.records(), &records[..]);
    }

    #[test]
    fn sharded_store_flipped_byte_surfaces_corrupt(
        records in prop::collection::vec(arb_record(), 1..10),
        shards in 1usize..4,
        shard_pick in any::<u64>(),
        pos_pick in any::<u64>(),
    ) {
        let mut ds = Dataset::new(example_schema());
        for r in &records {
            ds.push_unchecked(r.clone());
        }
        let store = ds.seal_shards(shards);
        let dir = std::env::temp_dir().join(format!(
            "overton-props-{}-{}",
            std::process::id(),
            shard_pick ^ pos_pick,
        ));
        store.write_dir(&dir).unwrap();
        // Flip one byte at an arbitrary position of an arbitrary shard
        // file: the whole-file checksum must surface StoreError::Corrupt.
        let shard = (shard_pick % store.num_shards() as u64) as usize;
        let path = dir.join(format!("shard-{shard:04}.ovrs"));
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = (pos_pick % bytes.len() as u64) as usize;
        bytes[pos] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();
        let err = overton_store::ShardedStore::read_dir(&dir).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert!(matches!(err, StoreError::Corrupt(_)), "{}", err);
    }

    #[test]
    fn majority_vote_outputs_distributions(
        rows in prop::collection::vec(
            prop::collection::vec(prop::option::of(0u32..4), 3),
            1..30,
        )
    ) {
        let matrix = LabelMatrix::from_rows(4, &rows);
        for dist in majority_vote(&matrix) {
            let sum: f32 = dist.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(dist.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn label_model_posteriors_are_distributions(
        rows in prop::collection::vec(
            prop::collection::vec(prop::option::of(0u32..3), 4),
            2..40,
        )
    ) {
        let matrix = LabelMatrix::from_rows(3, &rows);
        let model = LabelModel::fit(&matrix, &LabelModelConfig {
            max_iter: 20,
            ..Default::default()
        });
        for acc in model.accuracies() {
            prop_assert!((0.0..=1.0).contains(acc));
        }
        for dist in model.predict_proba(&matrix) {
            let sum: f32 = dist.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn tensor_matmul_associates_with_identity(
        rows in 1usize..6,
        cols in 1usize..6,
        data in prop::collection::vec(-10.0f32..10.0, 36),
    ) {
        let m = overton_tensor::Matrix::from_vec(
            rows, cols, data[..rows * cols].to_vec(),
        );
        let eye = overton_tensor::Matrix::eye(cols);
        prop_assert_eq!(m.matmul(&eye), m);
    }

    #[test]
    fn tensor_transpose_involution(
        rows in 1usize..6,
        cols in 1usize..6,
        data in prop::collection::vec(-10.0f32..10.0, 36),
    ) {
        let m = overton_tensor::Matrix::from_vec(
            rows, cols, data[..rows * cols].to_vec(),
        );
        prop_assert_eq!(m.transpose().transpose(), m);
    }
}
