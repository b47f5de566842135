//! A minimal blocking loopback client for the serving tier's wire
//! format — the test battery's, CLI probe's, and bench's view of the
//! socket, built on the same bounded line reader discipline as the
//! server (a misbehaving *server* can't hang a test either).

use super::http::HttpLimits;
use super::wire;
use overton_model::ServingResponse;
use overton_store::Record;
use std::io::{self, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, timeout).
    Io(io::Error),
    /// The server's bytes did not parse as the expected HTTP/JSON shape.
    Protocol(String),
    /// A non-2xx, non-shed status.
    Http {
        /// The status code.
        status: u16,
        /// The (lossy-decoded) response body.
        body: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Http { status, body } => write!(f, "HTTP {status}: {body}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One parsed response.
#[derive(Debug)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The first value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

/// The outcome of one prediction call.
#[derive(Debug)]
pub enum PredictOutcome {
    /// The batch was admitted; per-record results in submission order.
    Answered(Vec<Result<ServingResponse, String>>),
    /// The server shed the request (overload or drain); retry after the
    /// hinted seconds.
    Shed {
        /// The server's `Retry-After` hint, when present and numeric.
        retry_after_secs: Option<u64>,
    },
}

/// A blocking keep-alive connection to a [`super::NetServer`].
pub struct NetClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// The framed request (head and body), reused across requests.
    request: Vec<u8>,
    /// The encoded `/predict` body, reused across requests.
    body: Vec<u8>,
}

impl NetClient {
    /// Connects with 5-second transport timeouts.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_with_timeout(addr, Duration::from_secs(5))
    }

    /// Connects with the given read/write timeout.
    pub fn connect_with_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { writer: stream, reader, request: Vec::new(), body: Vec::new() })
    }

    /// Sends one request and reads the response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> Result<ClientResponse, ClientError> {
        self.request_with(method, path, body, &[])
    }

    /// Sends one request with extra headers and reads the response.
    pub fn request_with(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        extra_headers: &[(&str, &str)],
    ) -> Result<ClientResponse, ClientError> {
        frame_request(&mut self.request, method, path, body, extra_headers)?;
        self.writer.write_all(&self.request)?;
        self.read_response()
    }

    /// `POST /predict` for a batch of records.
    pub fn predict(&mut self, records: &[Record]) -> Result<PredictOutcome, ClientError> {
        Ok(self.predict_traced(records, None)?.0)
    }

    /// `POST /predict` carrying an `x-overton-trace` header when
    /// `trace_id` is given. Returns the outcome plus the trace id the
    /// server echoed back (`None` when the server has tracing off or the
    /// request was refused before tracing). An answer with more or fewer
    /// results than `records` is a [`ClientError::Protocol`].
    pub fn predict_traced(
        &mut self,
        records: &[Record],
        trace_id: Option<&str>,
    ) -> Result<(PredictOutcome, Option<String>), ClientError> {
        self.body.clear();
        wire::encode_predict_request_into(records, &mut self.body);
        let headers: Vec<(&str, &str)> =
            trace_id.map(|id| ("x-overton-trace", id)).into_iter().collect();
        frame_request(&mut self.request, "POST", "/predict", Some(&self.body), &headers)?;
        self.writer.write_all(&self.request)?;
        let response = self.read_response()?;
        let echoed = response.header("x-overton-trace").map(str::to_string);
        let outcome = match response.status {
            200 => {
                let results =
                    wire::decode_predict_response(&response.body).map_err(ClientError::Protocol)?;
                // `results[i]` answers `records[i]`: a short or long answer
                // cannot be matched up.
                if results.len() != records.len() {
                    return Err(ClientError::Protocol(format!(
                        "{} results answer {} records",
                        results.len(),
                        records.len()
                    )));
                }
                PredictOutcome::Answered(results)
            }
            503 => PredictOutcome::Shed {
                retry_after_secs: response.header("retry-after").and_then(|v| v.parse().ok()),
            },
            status => {
                return Err(ClientError::Http {
                    status,
                    body: String::from_utf8_lossy(&response.body).into_owned(),
                })
            }
        };
        Ok((outcome, echoed))
    }

    /// `GET /healthz`; `Ok(true)` when serving, `Ok(false)` when draining.
    pub fn health(&mut self) -> Result<bool, ClientError> {
        let response = self.request("GET", "/healthz", None)?;
        match response.status {
            200 => Ok(true),
            503 => Ok(false),
            status => Err(ClientError::Http {
                status,
                body: String::from_utf8_lossy(&response.body).into_owned(),
            }),
        }
    }

    /// `GET /telemetry`, parsed into the shared snapshot type.
    pub fn telemetry(&mut self) -> Result<crate::TelemetrySnapshot, ClientError> {
        let response = self.request("GET", "/telemetry", None)?;
        if response.status != 200 {
            return Err(ClientError::Http {
                status: response.status,
                body: String::from_utf8_lossy(&response.body).into_owned(),
            });
        }
        let text = std::str::from_utf8(&response.body)
            .map_err(|e| ClientError::Protocol(format!("telemetry body not UTF-8: {e}")))?;
        serde_json::from_str(text).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    fn expect_200(response: ClientResponse) -> Result<ClientResponse, ClientError> {
        if response.status != 200 {
            return Err(ClientError::Http {
                status: response.status,
                body: String::from_utf8_lossy(&response.body).into_owned(),
            });
        }
        Ok(response)
    }

    /// `GET /metrics` — the raw Prometheus text exposition.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let response = Self::expect_200(self.request("GET", "/metrics", None)?)?;
        String::from_utf8(response.body)
            .map_err(|e| ClientError::Protocol(format!("metrics body not UTF-8: {e}")))
    }

    /// `GET /trace/<id>` — one retained trace.
    pub fn trace(&mut self, id: &str) -> Result<crate::TraceReport, ClientError> {
        let response = Self::expect_200(self.request("GET", &format!("/trace/{id}"), None)?)?;
        let text = std::str::from_utf8(&response.body)
            .map_err(|e| ClientError::Protocol(format!("trace body not UTF-8: {e}")))?;
        serde_json::from_str(text).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// `GET /traces` — the slowest retained traces, slowest first.
    pub fn traces(&mut self) -> Result<Vec<crate::TraceReport>, ClientError> {
        #[derive(serde::Deserialize)]
        struct Slowest {
            slowest: Vec<crate::TraceReport>,
        }
        let response = Self::expect_200(self.request("GET", "/traces", None)?)?;
        let text = std::str::from_utf8(&response.body)
            .map_err(|e| ClientError::Protocol(format!("traces body not UTF-8: {e}")))?;
        serde_json::from_str::<Slowest>(text)
            .map(|s| s.slowest)
            .map_err(|e| ClientError::Protocol(e.to_string()))
    }

    fn read_line(&mut self) -> Result<String, ClientError> {
        let limits = HttpLimits::default();
        let mut line = Vec::new();
        loop {
            let mut byte = [0u8; 1];
            match self.reader.read(&mut byte) {
                Ok(0) => {
                    return Err(ClientError::Protocol("server closed mid-response".into()));
                }
                Ok(_) => {
                    if byte[0] == b'\n' {
                        if line.last() == Some(&b'\r') {
                            line.pop();
                        }
                        return String::from_utf8(line)
                            .map_err(|e| ClientError::Protocol(format!("non-UTF-8 header: {e}")));
                    }
                    line.push(byte[0]);
                    if line.len() > limits.max_header_line {
                        return Err(ClientError::Protocol("response header too long".into()));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// Reads one full response (status line, headers, `Content-Length`
    /// body).
    pub fn read_response(&mut self) -> Result<ClientResponse, ClientError> {
        let status_line = self.read_line()?;
        let mut parts = status_line.split(' ');
        let (version, status) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
        if !version.starts_with("HTTP/1.") {
            return Err(ClientError::Protocol(format!("bad status line: {status_line}")));
        }
        let status: u16 = status
            .parse()
            .map_err(|_| ClientError::Protocol(format!("bad status in: {status_line}")))?;
        let mut headers = Vec::new();
        let mut length: Option<usize> = None;
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if headers.len() >= HttpLimits::default().max_headers {
                return Err(ClientError::Protocol("too many response headers".into()));
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(ClientError::Protocol(format!("bad header: {line}")));
            };
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                length = Some(
                    value
                        .parse()
                        .map_err(|_| ClientError::Protocol(format!("bad length: {value}")))?,
                );
            }
            headers.push((name, value));
        }
        let length = length
            .ok_or_else(|| ClientError::Protocol("response without content-length".into()))?;
        if length > HttpLimits::default().max_body {
            return Err(ClientError::Protocol(format!("{length}-byte response too large")));
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok(ClientResponse { status, headers, body })
    }

    /// Sends raw bytes down the connection (the hostile-input battery)
    /// and reads back whatever response the server gives.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<ClientResponse, ClientError> {
        self.writer.write_all(bytes)?;
        self.read_response()
    }

    /// Consumes whatever remains on the connection until the server
    /// closes it; `true` if close was observed within the read timeout.
    pub fn server_closed(mut self) -> bool {
        let mut sink = Vec::new();
        self.reader.read_to_end(&mut sink).is_ok()
    }

    /// Whether buffered response bytes remain unread (protocol hygiene
    /// checks in tests).
    pub fn has_buffered(&self) -> bool {
        !self.reader.buffer().is_empty()
    }
}

/// Frames one request (request line, headers, body) into `out`, replacing
/// its contents, so the request leaves in a single write.
fn frame_request(
    out: &mut Vec<u8>,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    out.clear();
    write!(out, "{method} {path} HTTP/1.1\r\n")?;
    out.extend_from_slice(b"host: overton\r\n");
    for (name, value) in extra_headers {
        write!(out, "{name}: {value}\r\n")?;
    }
    if let Some(body) = body {
        write!(out, "content-type: application/json\r\ncontent-length: {}\r\n", body.len())?;
    }
    out.extend_from_slice(b"\r\n");
    if let Some(body) = body {
        out.extend_from_slice(body);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serves one canned `200` answer to one request, read in full first.
    fn canned_server(body: &'static str) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut request = Vec::new();
            let mut chunk = [0u8; 4096];
            let complete = |request: &[u8]| {
                let text = String::from_utf8_lossy(request);
                let Some((head, rest)) = text.split_once("\r\n\r\n") else { return false };
                let length = head
                    .lines()
                    .find_map(|l| l.strip_prefix("content-length: "))
                    .map_or(0, |v| v.trim().parse::<usize>().unwrap());
                rest.len() >= length
            };
            while !complete(&request) {
                let n = stream.read(&mut chunk).unwrap();
                assert!(n > 0, "client closed mid-request");
                request.extend_from_slice(&chunk[..n]);
            }
            write!(stream, "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n{body}", body.len())
                .unwrap();
            // Hold the connection until the client has read the answer.
            let _ = stream.read(&mut chunk);
        });
        (addr, handle)
    }

    #[test]
    fn predict_rejects_a_result_count_mismatch() {
        let (addr, server) = canned_server(r#"{"results":[{"err":"only one"}]}"#);
        let mut client = NetClient::connect(addr).unwrap();
        let err = client.predict(&[Record::new(), Record::new()]).unwrap_err();
        drop(client);
        server.join().unwrap();
        let ClientError::Protocol(msg) = err else { panic!("expected a protocol error: {err}") };
        assert!(msg.contains("1 results") && msg.contains("2 records"), "{msg}");
    }
}
