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
//! request buffers the same way.
//!
//! Decoding pulls tokens from a strict [`serde::json::Reader`] over the
//! body and reads each record or response straight into its type through
//! the derive-generated [`serde::Deserialize::read_json`], with no `Value`
//! tree in between. The request decoder stops at record `max_records + 1`
//! instead of reading the rest of an oversized batch.

use overton_model::ServingResponse;
use overton_store::{Record, StoreError};
use serde::json::{Kind, Reader};
use serde::{Deserialize, Serialize};

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
///
/// Errors rank as they did when the whole body was parsed before being
/// shaped: malformed JSON anywhere beats a shape error, and the cap beats
/// a record's shape error. The cap alone is reported without reading
/// further: the decoder stops at record `max_records + 1`.
pub fn decode_predict_request(body: &[u8], max_records: usize) -> Result<Vec<Record>, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    let mut r = Reader::new(text);
    begin_envelope(&mut r, "request body must be a JSON object")?;
    let (mut records, mut shape) = (None, None);
    while let Some(key) = r.next_key().map_err(bad_json)? {
        if key == "records" {
            records = read_records(&mut r, max_records, &mut shape)?;
        } else {
            r.skip_value().map_err(bad_json)?;
        }
    }
    r.end().map_err(bad_json)?;
    if let Some(e) = shape {
        return Err(e);
    }
    records.ok_or_else(|| "request body needs a 'records' array".to_string())
}

/// Reads the `records` array. A record of the wrong shape leaves its
/// error in `shape` (the first one wins), and it and every record after it
/// are skipped: still validated and counted against the cap.
fn read_records(
    r: &mut Reader<'_>,
    max_records: usize,
    shape: &mut Option<String>,
) -> Result<Option<Vec<Record>>, String> {
    if r.peek_kind().map_err(bad_json)? != Kind::Array {
        r.skip_value().map_err(bad_json)?;
        shape.get_or_insert_with(|| "'records' must be an array".to_string());
        return Ok(None);
    }
    r.begin_array("array").map_err(bad_json)?;
    let (mut records, mut count) = (Vec::new(), 0);
    while r.next_element().map_err(bad_json)? {
        if count == max_records {
            return Err(format!(
                "more than {max_records} records exceed the {max_records}-record batch cap"
            ));
        }
        count += 1;
        let mark = r.mark();
        if shape.is_none() {
            match Record::read_json(r) {
                Ok(record) => {
                    records.push(record);
                    continue;
                }
                Err(e) if e.is_syntax() => return Err(bad_json(e)),
                Err(e) => *shape = Some(format!("records[{}]: {e}", records.len())),
            }
            r.rewind(mark);
        }
        r.skip_value().map_err(bad_json)?;
    }
    if count == 0 {
        shape.get_or_insert_with(|| "'records' is empty".to_string());
    }
    Ok(Some(records))
}

/// Opens the body's top-level object. Any other value is validated to
/// its end first, so malformed JSON still reads as such.
fn begin_envelope(r: &mut Reader<'_>, not_object: &str) -> Result<(), String> {
    if r.peek_kind().map_err(bad_json)? != Kind::Object {
        r.skip_value().and_then(|()| r.end()).map_err(bad_json)?;
        return Err(not_object.to_string());
    }
    r.begin_object("object").map_err(bad_json)
}

fn bad_json(e: serde::Error) -> String {
    format!("bad JSON: {e}")
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

/// One decoded result: a response or the server's per-record error.
type Answer = Result<ServingResponse, String>;

/// Decodes a response body into per-record results (the client half).
/// Malformed JSON reads as such, but a result's shape error is reported
/// where it is found, before any malformed text after it.
pub fn decode_predict_response(body: &[u8]) -> Result<Vec<Answer>, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    let mut r = Reader::new(text);
    begin_envelope(&mut r, "response body must be a JSON object")?;
    let mut results = None;
    while let Some(key) = r.next_key().map_err(bad_json)? {
        if key == "results" && r.peek_kind().map_err(bad_json)? == Kind::Array {
            results = Some(read_results(&mut r)?);
        } else {
            r.skip_value().map_err(bad_json)?;
            if key == "results" {
                results = None;
            }
        }
    }
    r.end().map_err(bad_json)?;
    results.ok_or_else(|| "response body needs a 'results' array".to_string())
}

/// Reads the `results` array: each entry is `{"ok": response}` or
/// `{"err": "message"}`, and `ok` wins when both are present.
fn read_results(r: &mut Reader<'_>) -> Result<Vec<Answer>, String> {
    r.begin_array("array").map_err(bad_json)?;
    let mut results = Vec::new();
    while r.next_element().map_err(bad_json)? {
        let i = results.len();
        if r.peek_kind().map_err(bad_json)? != Kind::Object {
            return Err(format!("results[{i}] is not an object"));
        }
        r.begin_object("object").map_err(bad_json)?;
        let (mut ok, mut err) = (None, None);
        while let Some(key) = r.next_key().map_err(bad_json)? {
            match &*key {
                "ok" => {
                    let response = ServingResponse::read_json(r).map_err(|e| {
                        if e.is_syntax() {
                            bad_json(e)
                        } else {
                            format!("results[{i}].ok: {e}")
                        }
                    })?;
                    ok = Some(response);
                }
                "err" if r.peek_kind().map_err(bad_json)? == Kind::String => {
                    err = Some(r.read_str().map_err(bad_json)?.into_owned());
                }
                _ => {
                    r.skip_value().map_err(bad_json)?;
                    if key == "err" {
                        err = None;
                    }
                }
            }
        }
        results.push(match (ok, err) {
            (Some(response), _) => Ok(response),
            (None, Some(msg)) => Err(msg),
            (None, None) => return Err(format!("results[{i}] has neither 'ok' nor 'err'")),
        });
    }
    Ok(results)
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
                "Intent".into(),
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
    fn request_cap_stops_reading_past_the_cap() {
        // 4,097 records and then junk: the decoder must stop at the cap
        // rather than read (and trip over) the rest of the body.
        let mut body = b"{\"records\":[".to_vec();
        body.extend_from_slice(&[&b"{}"[..]; 4097].join(&b","[..]));
        body.extend_from_slice(b",{\"payloads\": junk");
        let err = decode_predict_request(&body, 4096).unwrap_err();
        assert_eq!(err, "more than 4096 records exceed the 4096-record batch cap");
        // At the cap itself the junk is reached and reported.
        let err = decode_predict_request(&body, 4098).unwrap_err();
        assert!(err.starts_with("bad JSON: "), "{err}");
    }

    #[test]
    fn request_shape_errors_wait_for_the_rest_of_the_body() {
        // A record's shape error is reported only if the body is valid;
        // a response's is reported where it is found.
        let err = decode_predict_request(b"{\"records\": [7, {}]}", 4).unwrap_err();
        assert!(err.starts_with("records[0]: "), "{err}");
        let err = decode_predict_request(b"{\"records\": [7, {]}", 4).unwrap_err();
        assert!(err.starts_with("bad JSON: "), "{err}");
        let err = decode_predict_request(b"{\"records\": [{}, {\"tags\": 1}]}", 4).unwrap_err();
        assert!(err.starts_with("records[1]: "), "{err}");
        let err = decode_predict_response(b"{\"results\": [{\"ok\": 1}, nope]}").unwrap_err();
        assert!(err.starts_with("results[0].ok: "), "{err}");
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
