//! A minimal blocking client for the `spackled` protocol — used by the
//! integration tests, the `--smoke` self-check, and as the reference
//! implementation for external clients (the protocol is just
//! line-delimited JSON; see `protocol.rs`).
//!
//! Two calling conventions:
//!
//! * [`Client::call`] — one attempt, transport errors surface raw;
//! * [`Client::call_retrying`] — reconnect-and-resend on transport
//!   failure and back off on structured `overloaded` responses, under a
//!   [`RetryConfig`] with capped exponential backoff and an optional
//!   total deadline. Only *transport* errors and explicit shed
//!   responses retry; an `ok:false` answer the server actually
//!   computed (bad spec, unsat, timeout, ...) is returned as-is —
//!   retrying it would just repeat the work for the same answer.

use crate::protocol::{Request, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Backoff policy for [`Client::connect_with`] and
/// [`Client::call_retrying`].
#[derive(Clone, Copy, Debug)]
pub struct RetryConfig {
    /// Total attempts (first try included). `1` means no retries.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: Duration,
    /// Cap on any single backoff sleep (also caps a server-suggested
    /// `retry_after_ms`).
    pub max_backoff: Duration,
    /// Overall budget across all attempts and sleeps. `None` means the
    /// attempt count is the only bound.
    pub total_deadline: Option<Duration>,
}

impl Default for RetryConfig {
    fn default() -> RetryConfig {
        RetryConfig {
            max_attempts: 4,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            total_deadline: None,
        }
    }
}

impl RetryConfig {
    /// A policy that never retries (one attempt, no sleeps).
    pub fn none() -> RetryConfig {
        RetryConfig {
            max_attempts: 1,
            ..RetryConfig::default()
        }
    }

    /// The sleep before retry number `retry` (1-based): capped
    /// exponential, deterministic.
    fn backoff(&self, retry: u32) -> Duration {
        let factor = 1u32 << retry.saturating_sub(1).min(16);
        (self.base_backoff * factor).min(self.max_backoff)
    }
}

/// One connection to a running `spackled`.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    peer: SocketAddr,
    retry: RetryConfig,
}

impl Client {
    /// Connect to a server (one attempt; see [`Client::connect_with`]
    /// for a retrying connect).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        Client::from_stream(writer, RetryConfig::none())
    }

    /// Connect with retries: transient connection failures (daemon still
    /// booting, listen backlog full) back off and try again under
    /// `retry`'s attempt, backoff, and deadline budget. The policy is
    /// kept on the client and also governs [`Client::call_retrying`].
    pub fn connect_with(addr: impl ToSocketAddrs, retry: RetryConfig) -> std::io::Result<Client> {
        let started = Instant::now();
        let mut last_err = None;
        for attempt in 1..=retry.max_attempts.max(1) {
            match TcpStream::connect(&addr) {
                Ok(stream) => return Client::from_stream(stream, retry),
                Err(e) => last_err = Some(e),
            }
            if attempt < retry.max_attempts.max(1) {
                let sleep = retry.backoff(attempt);
                if out_of_budget(started, retry.total_deadline, sleep) {
                    break;
                }
                std::thread::sleep(sleep);
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::TimedOut, "connect retries exhausted")
        }))
    }

    fn from_stream(writer: TcpStream, retry: RetryConfig) -> std::io::Result<Client> {
        let peer = writer.peer_addr()?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            reader,
            writer,
            next_id: 0,
            peer,
            retry,
        })
    }

    /// Drop the broken connection and dial the same peer again. The
    /// correlation-id counter keeps counting up, so responses from the
    /// old and new connection can never be confused.
    fn reconnect(&mut self) -> std::io::Result<()> {
        let writer = TcpStream::connect(self.peer)?;
        self.reader = BufReader::new(writer.try_clone()?);
        self.writer = writer;
        Ok(())
    }

    /// Send one request and block for its response. Stamps a fresh
    /// correlation id and verifies the server echoed it.
    pub fn call(&mut self, mut request: Request) -> Result<Response, String> {
        self.next_id += 1;
        request.id = self.next_id;
        let line = request.to_line();
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))?;

        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => return Err("server closed the connection".to_string()),
            Ok(_) => {}
            Err(e) => return Err(format!("recv: {e}")),
        }
        let response = Response::from_line(reply.trim())?;
        if response.id != request.id {
            return Err(format!(
                "correlation mismatch: sent id {} got {}",
                request.id, response.id
            ));
        }
        Ok(response)
    }

    /// [`Client::call`] under the client's [`RetryConfig`]: transport
    /// failures reconnect and resend; `overloaded` responses honor the
    /// server's `retry_after_ms` (capped at `max_backoff`) and resend.
    /// Any other response — success or a computed error — returns
    /// immediately.
    pub fn call_retrying(&mut self, request: Request) -> Result<Response, String> {
        let retry = self.retry;
        let started = Instant::now();
        let attempts = retry.max_attempts.max(1);
        let mut last_err = String::new();
        for attempt in 1..=attempts {
            match self.call(request.clone()) {
                Ok(response) if response.error_kind == "overloaded" && attempt < attempts => {
                    let suggested = Duration::from_millis(response.retry_after_ms)
                        .max(retry.backoff(attempt))
                        .min(retry.max_backoff);
                    if out_of_budget(started, retry.total_deadline, suggested) {
                        return Ok(response);
                    }
                    std::thread::sleep(suggested);
                }
                Ok(response) => return Ok(response),
                Err(e) if attempt < attempts => {
                    last_err = e;
                    let sleep = retry.backoff(attempt);
                    if out_of_budget(started, retry.total_deadline, sleep) {
                        break;
                    }
                    std::thread::sleep(sleep);
                    if let Err(e) = self.reconnect() {
                        last_err = format!("reconnect: {e}");
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Err(format!("retries exhausted: {last_err}"))
    }

    /// `concretize` one spec with the session-default configuration.
    pub fn concretize(&mut self, spec: &str) -> Result<Response, String> {
        self.call(Request::concretize(spec))
    }

    /// Fetch the service counters.
    pub fn stats(&mut self) -> Result<Response, String> {
        self.call(Request::op("stats"))
    }

    /// Clear the server's ground cache.
    pub fn invalidate(&mut self) -> Result<Response, String> {
        self.call(Request::op("invalidate"))
    }

    /// Ask the server to stop accepting and drain.
    pub fn shutdown(&mut self) -> Result<Response, String> {
        self.call(Request::op("shutdown"))
    }
}

/// Would sleeping `next` blow the total deadline (measured from
/// `started`)?
fn out_of_budget(started: Instant, deadline: Option<Duration>, next: Duration) -> bool {
    match deadline {
        Some(total) => started.elapsed() + next > total,
        None => false,
    }
}
