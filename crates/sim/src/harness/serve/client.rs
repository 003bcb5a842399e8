//! A minimal blocking HTTP/1.1 client, just enough to talk to
//! [`super::server::Server`] — shared by the integration tests and the
//! `serve_load` load-test helper so neither needs an external crate.
//!
//! [`http_request`] is one attempt with fixed per-attempt deadlines;
//! [`http_request_retry`] wraps it in a bounded, seeded
//! jittered-exponential-backoff loop. Retrying blindly is safe here
//! because every job key is content-addressed and idempotent: a
//! duplicate attempt can only hit the cache or join the in-flight
//! computation, never run a job twice with different results.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use tc_fault::SplitMix64;

/// A decoded response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The decoded body (chunked transfer encoding reassembled).
    pub body: String,
}

impl ClientResponse {
    /// First value of a header, by lower-case name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

fn read_line(reader: &mut impl BufRead) -> std::io::Result<String> {
    let mut line = String::new();
    let n = reader.read_line(&mut line)?;
    if n == 0 {
        // EOF before the line is a torn response, not an empty line: a
        // stream truncated mid-headers must never parse as a complete
        // response with an empty body.
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Sends one request and reads the full response.
///
/// # Errors
///
/// Any socket failure, or a response the decoder cannot make sense of
/// (reported as `InvalidData`).
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<ClientResponse> {
    http_request_timed(addr, method, path, body, &RetryPolicy::default())
}

/// How [`http_request_retry`] paces its attempts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (clamped to ≥ 1); `1` means no retry at all.
    pub attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub base_delay: Duration,
    /// Ceiling on any single backoff sleep.
    pub max_delay: Duration,
    /// Seed for the backoff jitter (deterministic per policy).
    pub seed: u64,
    /// Per-attempt connect deadline.
    pub connect_timeout: Duration,
    /// Per-attempt read deadline.
    pub read_timeout: Duration,
    /// Per-attempt write deadline.
    pub write_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 1,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(2),
            seed: 0,
            connect_timeout: Duration::from_secs(10),
            read_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(10),
        }
    }
}

impl RetryPolicy {
    /// A bounded retrying policy: `attempts` total tries with the
    /// default deadlines and backoff, jittered from `seed`.
    #[must_use]
    pub fn retries(attempts: u32, seed: u64) -> RetryPolicy {
        RetryPolicy {
            attempts: attempts.max(1),
            seed,
            ..RetryPolicy::default()
        }
    }

    /// The jittered backoff before attempt `attempt` (1-based count of
    /// failures so far): `base * 2^(attempt-1)`, capped at `max_delay`,
    /// then scaled by a uniform factor in `[0.5, 1.0)` so a fleet of
    /// clients never thunders in phase.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.max_delay);
        let mut rng = SplitMix64::new(self.seed ^ u64::from(attempt));
        let frac = 0.5 + (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
        exp.mul_f64(frac)
    }
}

/// Whether a response status is worth retrying: the server sheds load
/// with 503 (queue full, connection cap, draining) and every 503 here
/// is transient by construction.
fn retryable_status(status: u16) -> bool {
    status == 503
}

/// [`http_request`] with bounded retry. Transport errors (reset,
/// timeout, torn or corrupted response) and 503s retry with jittered
/// exponential backoff; any other response — success or a clean 4xx/5xx
/// — returns immediately. The last failure is returned when every
/// attempt is exhausted.
///
/// # Errors
///
/// The final attempt's socket/decode failure.
pub fn http_request_retry(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    policy: &RetryPolicy,
) -> std::io::Result<ClientResponse> {
    let attempts = policy.attempts.max(1);
    let mut last_err: Option<std::io::Error> = None;
    for attempt in 1..=attempts {
        match http_request_timed(addr, method, path, body, policy) {
            Ok(response) if !retryable_status(response.status) => return Ok(response),
            Ok(response) => {
                if attempt == attempts {
                    return Ok(response);
                }
            }
            Err(e) => {
                if attempt == attempts {
                    return Err(e);
                }
                last_err = Some(e);
            }
        }
        std::thread::sleep(policy.backoff(attempt));
    }
    // Unreachable: the loop always returns on its last attempt.
    Err(last_err.unwrap_or_else(|| std::io::Error::other("retry loop ended without an attempt")))
}

fn http_request_timed(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    policy: &RetryPolicy,
) -> std::io::Result<ClientResponse> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let stream = TcpStream::connect_timeout(&addr, policy.connect_timeout)?;
    stream.set_read_timeout(Some(policy.read_timeout))?;
    stream.set_write_timeout(Some(policy.write_timeout))?;
    let mut writer = stream.try_clone()?;
    let sent = (|| {
        writer.write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nhost: tw\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )?;
        writer.write_all(body.as_bytes())?;
        writer.flush()
    })();
    if let Err(e) = sent {
        // A server that rejects mid-upload (413 on an oversized body)
        // closes its read side; the response is still coming.
        match e.kind() {
            std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted => {}
            _ => return Err(e),
        }
    }

    let mut reader = BufReader::new(stream);
    let status_line = read_line(&mut reader)?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("malformed status line {status_line:?}")))?;
    let mut headers = Vec::new();
    loop {
        let line = read_line(&mut reader)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.contains("chunked"));
    let mut raw = Vec::new();
    if chunked {
        loop {
            let size_line = read_line(&mut reader)?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| bad(format!("malformed chunk size {size_line:?}")))?;
            if size == 0 {
                let _ = read_line(&mut reader); // trailing CRLF
                break;
            }
            let mut chunk = vec![0u8; size];
            reader.read_exact(&mut chunk)?;
            raw.extend_from_slice(&chunk);
            let _ = read_line(&mut reader); // chunk-terminating CRLF
        }
    } else if let Some(len) = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
    {
        raw = vec![0u8; len];
        reader.read_exact(&mut raw)?;
    } else {
        reader.read_to_end(&mut raw)?;
    }
    let body = String::from_utf8(raw).map_err(|_| bad("response body is not UTF-8".to_string()))?;
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

/// Sends raw bytes (possibly violating HTTP) and returns the raw
/// response text — for protocol-abuse tests.
///
/// # Errors
///
/// Any socket failure.
pub fn raw_request(addr: SocketAddr, payload: &[u8]) -> std::io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(payload)?;
    stream.flush()?;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut out = String::new();
    stream.read_to_string(&mut out)?;
    Ok(out)
}
