//! The JSON wire format of the prediction endpoint — one codec shared by
//! the server-side router and the loopback client, so the two cannot
//! drift apart.
//!
//! Request body (`POST /predict`):
//!
//! ```json
//! {"records": [{"payloads": {...}, "tasks": {...}, "tags": [...]}, ...]}
//! ```
//!
//! Each element is one record in exactly the `data.jsonl` line format of
//! the two-file contract. Response body (`200`):
//!
//! ```json
//! {"results": [{"ok": {"tasks": {...}, "slices": [...], "confidence": c}}
//!              | {"err": "message"}, ...]}
//! ```
//!
//! `results[i]` answers `records[i]`; per-record failures (unknown
//! payloads, vocabulary misses) travel as `err` strings without failing
//! the sibling records — the same contract [`crate::WorkerPool`] gives
//! in-process callers. Floats print shortest-round-trip, so a wire
//! round-trip reproduces the in-process response bit for bit.
//!
//! Encoding writes bytes directly: the `_into` encoders append the body
//! to a caller's buffer through the derive-generated
//! [`serde::Serialize::write_json`], with no `Value` tree in between, and
//! produce exactly the bytes the tree would. The router hands its buffer
//! to the response as the body; the listener then frames it into one
//! write buffer per connection, and [`super::NetClient`] reuses its
//! request buffers the same way. Decoding still goes through a `Value`.

use overton_model::ServingResponse;
use overton_store::{Record, StoreError};
use serde::{Serialize, Value};

/// Encodes the request body for a batch of records.
pub fn encode_predict_request(records: &[Record]) -> String {
    let mut out = Vec::new();
    encode_predict_request_into(records, &mut out);
    String::from_utf8(out).expect("the JSON writer emits UTF-8")
}

/// Appends the request body for a batch of records to `out`.
pub(crate) fn encode_predict_request_into(records: &[Record], out: &mut Vec<u8>) {
    out.extend_from_slice(b"{\"records\":");
    records.write_json(out);
    out.push(b'}');
}

/// Decodes a request body into records. `max_records` bounds the batch
/// (the decoded error names the cap); malformed JSON, a missing or
/// non-array `records` field, an empty batch, and per-record shape errors
/// all come back as one client-facing message.
pub fn decode_predict_request(body: &[u8], max_records: usize) -> Result<Vec<Record>, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    let value: Value = serde_json::from_str_value(text).map_err(|e| format!("bad JSON: {e}"))?;
    let Value::Object(mut fields) = value else {
        return Err("request body must be a JSON object".to_string());
    };
    let Some(records) = fields.remove("records") else {
        return Err("request body needs a 'records' array".to_string());
    };
    let Value::Array(records) = records else {
        return Err("'records' must be an array".to_string());
    };
    if records.is_empty() {
        return Err("'records' is empty".to_string());
    }
    if records.len() > max_records {
        return Err(format!("{} records exceed the {max_records}-record batch cap", records.len()));
    }
    records
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            <Record as serde::Deserialize>::from_value(v).map_err(|e| format!("records[{i}]: {e}"))
        })
        .collect()
}

/// Encodes the response body for a batch of per-record results.
pub fn encode_predict_response(results: &[Result<ServingResponse, StoreError>]) -> String {
    let mut out = Vec::new();
    encode_predict_response_into(results, &mut out);
    String::from_utf8(out).expect("the JSON writer emits UTF-8")
}

/// Appends the response body for a batch of per-record results to `out`.
pub(crate) fn encode_predict_response_into(
    results: &[Result<ServingResponse, StoreError>],
    out: &mut Vec<u8>,
) {
    out.extend_from_slice(b"{\"results\":[");
    for (i, result) in results.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        match result {
            Ok(response) => {
                out.extend_from_slice(b"{\"ok\":");
                response.write_json(out);
            }
            Err(e) => {
                out.extend_from_slice(b"{\"err\":");
                serde::json::write_str(&e.to_string(), out);
            }
        }
        out.push(b'}');
    }
    out.extend_from_slice(b"]}");
}

/// Decodes a response body into per-record results (the client half).
pub fn decode_predict_response(
    body: &[u8],
) -> Result<Vec<Result<ServingResponse, String>>, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    let value: Value = serde_json::from_str_value(text).map_err(|e| format!("bad JSON: {e}"))?;
    let Value::Object(mut fields) = value else {
        return Err("response body must be a JSON object".to_string());
    };
    let Some(Value::Array(results)) = fields.remove("results") else {
        return Err("response body needs a 'results' array".to_string());
    };
    results
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            let Value::Object(mut entry) = v else {
                return Err(format!("results[{i}] is not an object"));
            };
            if let Some(ok) = entry.remove("ok") {
                return <ServingResponse as serde::Deserialize>::from_value(ok)
                    .map(Ok)
                    .map_err(|e| format!("results[{i}].ok: {e}"));
            }
            match entry.remove("err") {
                Some(Value::String(msg)) => Ok(Err(msg)),
                _ => Err(format!("results[{i}] has neither 'ok' nor 'err'")),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use overton_model::ServedOutput;
    use std::collections::BTreeMap;

    fn record() -> Record {
        Record::new()
            .with_payload("query", overton_store::PayloadValue::Singleton("who is ada".into()))
            .with_tag("live")
    }

    fn response(confidence: f32) -> ServingResponse {
        ServingResponse {
            tasks: BTreeMap::from([(
                "Intent".to_string(),
                ServedOutput::Multiclass {
                    class: "Person".into(),
                    dist: vec![("Person".into(), 0.62519), ("Age".into(), 0.37481)],
                },
            )]),
            slices: vec![("hard".into(), 0.123_456_79)],
            confidence,
        }
    }

    #[test]
    fn request_roundtrips_records_exactly() {
        let records = vec![record(), Record::new()];
        let body = encode_predict_request(&records);
        let back = decode_predict_request(body.as_bytes(), 16).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn request_decode_rejects_malformed_shapes() {
        let cap = 4;
        for (body, needle) in [
            (&b"\xff\xfe"[..], "UTF-8"),
            (b"{not json", "bad JSON"),
            (b"[1,2]", "must be a JSON object"),
            (b"{}", "'records' array"),
            (b"{\"records\": 3}", "must be an array"),
            (b"{\"records\": []}", "empty"),
            (b"{\"records\": [1,2,3,4,5]}", "batch cap"),
            (b"{\"records\": [{\"payloads\": 7}]}", "records[0]"),
        ] {
            let err = decode_predict_request(body, cap).unwrap_err();
            assert!(err.contains(needle), "{err:?} missing {needle:?}");
        }
    }

    #[test]
    fn response_roundtrips_bit_for_bit_including_errors() {
        let results: Vec<Result<ServingResponse, StoreError>> = vec![
            Ok(response(0.73001397)),
            Err(StoreError::Validation("record has unknown payload 'x'".into())),
            Ok(response(f32::MIN_POSITIVE)),
        ];
        let body = encode_predict_response(&results);
        let back = decode_predict_response(body.as_bytes()).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0].as_ref().unwrap(), results[0].as_ref().unwrap());
        assert_eq!(back[1].as_ref().unwrap_err(), &results[1].as_ref().unwrap_err().to_string());
        assert_eq!(back[2].as_ref().unwrap(), results[2].as_ref().unwrap());
    }

    #[test]
    fn response_decode_rejects_malformed_shapes() {
        for (body, needle) in [
            (&b"nope"[..], "bad JSON"),
            (b"{}", "'results' array"),
            (b"{\"results\": [42]}", "not an object"),
            (b"{\"results\": [{}]}", "neither 'ok' nor 'err'"),
            (b"{\"results\": [{\"ok\": 9}]}", "results[0].ok"),
        ] {
            let err = decode_predict_response(body).unwrap_err();
            assert!(err.contains(needle), "{err:?} missing {needle:?}");
        }
    }
}
