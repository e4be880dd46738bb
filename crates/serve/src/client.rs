//! A minimal blocking client for the line-delimited protocol, used by
//! the integration tests (the chaos suite among them) and scripting —
//! including [`Client::call_with_retry`], which honors the daemon's
//! `retry_after_ms` backpressure hints.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use tacos_report::Json;

/// One connection to a `tacos serve` daemon.
pub struct Client {
    addr: String,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// Backoff settings for [`Client::call_with_retry`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first attempt; 0 disables retrying.
    pub max_retries: u32,
    /// First backoff delay; doubles per retry (before jitter).
    pub base: Duration,
    /// Ceiling on any single backoff delay.
    pub max: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base: Duration::from_millis(50),
            max: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `attempt` (0-based): exponential
    /// from `base`, raised to at least the server's `retry_after_ms`
    /// hint when one was given, capped at `max`, plus up to 25% jitter
    /// so a rejected burst does not re-arrive as a synchronized burst.
    fn delay(&self, attempt: u32, server_hint_ms: Option<u64>, jitter_seed: u64) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .max(Duration::from_millis(server_hint_ms.unwrap_or(0)))
            .min(self.max);
        // xorshift on the caller-supplied seed: cheap, dependency-free,
        // and good enough to decorrelate clients.
        let mut x = jitter_seed | 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let quarter_ns = exp.as_nanos() as u64 / 4;
        let jitter = if quarter_ns == 0 { 0 } else { x % quarter_ns };
        exp + Duration::from_nanos(jitter)
    }
}

/// The result of [`Client::call_with_retry`]: the final response plus
/// how many retries it took to get it.
#[derive(Debug)]
pub struct RetriedCall {
    /// The final response (which may still be `rejected` if retries ran
    /// out).
    pub response: Json,
    /// Retries performed after the first attempt.
    pub retries: u32,
}

impl Client {
    /// Connects to a daemon.
    pub fn connect(addr: impl ToSocketAddrs + std::fmt::Display) -> io::Result<Client> {
        let addr_text = addr.to_string();
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Client {
            addr: addr_text,
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Connects, retrying for up to `wait` while the daemon is still
    /// binding its socket.
    pub fn connect_with_retry(addr: &str, wait: Duration) -> io::Result<Client> {
        let deadline = std::time::Instant::now() + wait;
        loop {
            match Client::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) => {
                    if std::time::Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }

    /// Sends one request line and returns the raw response line.
    pub fn call_raw(&mut self, request: &str) -> io::Result<String> {
        self.writer.write_all(request.as_bytes())?;
        if !request.ends_with('\n') {
            self.writer.write_all(b"\n")?;
        }
        self.writer.flush()?;
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(line)
    }

    /// Sends one request line and parses the JSON response.
    pub fn call(&mut self, request: &str) -> io::Result<Json> {
        let line = self.call_raw(request)?;
        Json::parse(line.trim())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }

    /// One `stats` round trip: the daemon's counter snapshot (requests,
    /// cache hits, warm-cache residency and evictions, ...) as JSON.
    pub fn stats(&mut self) -> io::Result<Json> {
        self.call(r#"{"op":"stats"}"#)
    }

    /// Like [`Client::call`], but retries `rejected` responses with
    /// jittered exponential backoff honoring the daemon's
    /// `retry_after_ms` hint, and reconnects once per attempt on I/O
    /// errors (the daemon closes connections it rejects at the cap).
    ///
    /// Returns the final response — still `rejected` when the budget is
    /// exhausted against a persistently-full daemon — and the number of
    /// retries spent. Non-`rejected` responses and non-I/O failures
    /// return immediately.
    pub fn call_with_retry(
        &mut self,
        request: &str,
        policy: &RetryPolicy,
    ) -> io::Result<RetriedCall> {
        for attempt in 0..=policy.max_retries {
            match self.call(request) {
                Ok(response) => {
                    let rejected =
                        response.get("status").and_then(Json::as_str) == Some("rejected");
                    if !rejected || attempt == policy.max_retries {
                        return Ok(RetriedCall {
                            response,
                            retries: attempt,
                        });
                    }
                    let hint = response.get("retry_after_ms").and_then(Json::as_u64);
                    std::thread::sleep(policy.delay(attempt, hint, jitter_seed(attempt)));
                }
                Err(e) => {
                    if attempt == policy.max_retries {
                        return Err(e);
                    }
                    std::thread::sleep(policy.delay(attempt, None, jitter_seed(attempt)));
                    // The daemon may have closed this connection
                    // (connection cap, oversized line): reconnect.
                    if let Ok(fresh) = Client::connect(&self.addr) {
                        *self = fresh;
                    }
                }
            }
        }
        unreachable!("the loop returns on its final attempt"); // lint: allow(panic, "loop structure returns on attempt == max; provable locally")
    }
}

/// A per-call jitter seed from the wall clock's sub-second nanos — not
/// cryptographic, just enough to decorrelate concurrent clients.
fn jitter_seed(attempt: u32) -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::from(d.subsec_nanos()))
        .unwrap_or(1);
    nanos.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(attempt)
}
