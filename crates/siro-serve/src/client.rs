//! A small blocking client for the wire protocol.
//!
//! Used by `siro translate --remote`, the loopback throughput bench, the
//! CI smoke test, and the integration tests. One [`Client`] owns one
//! connection; [`Client::translate_batch`] pipelines many requests before
//! reading any response, which is how a caller gets concurrency out of a
//! single connection.

use std::io::{self};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use siro_ir::IrVersion;

use crate::protocol::{
    read_frame, write_frame, ErrorCode, FrameRead, ProtocolError, Request, Response, StageNanos,
    TranslateMode,
};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket / framing problems.
    Protocol(ProtocolError),
    /// The server answered with a structured error.
    Server {
        /// Machine-readable category.
        code: ErrorCode,
        /// Server-provided detail.
        message: String,
    },
    /// Admission control rejected the request; retry after the given
    /// backoff instead of immediately.
    Throttled {
        /// Milliseconds until the per-peer token bucket refills.
        retry_after_ms: u32,
        /// Server-provided detail.
        message: String,
    },
    /// Connecting, or waiting for a response, exceeded the configured
    /// timeout (see [`Client::set_op_timeout`]). Distinct from
    /// [`ClientError::Protocol`] so callers can retry timeouts without
    /// parsing error strings.
    Timeout,
    /// The server answered with the wrong response kind or id.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Protocol(e) => write!(f, "{e}"),
            ClientError::Server { code, message } => write!(f, "server error ({code}): {message}"),
            ClientError::Throttled {
                retry_after_ms,
                message,
            } => write!(f, "throttled (retry after {retry_after_ms} ms): {message}"),
            ClientError::Timeout => f.write_str("timed out waiting for the server"),
            ClientError::Unexpected(m) => write!(f, "unexpected response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        if matches!(
            e.kind(),
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
        ) {
            ClientError::Timeout
        } else {
            ClientError::Protocol(ProtocolError::Io(e))
        }
    }
}

/// A successful translation as seen by the client.
#[derive(Debug, Clone)]
pub struct Translated {
    /// The translated module text.
    pub text: String,
    /// Whether the server's translator cache already had the pair.
    pub cache_hit: bool,
    /// Server-side stage timings.
    pub timings: StageNanos,
}

impl Translated {
    /// Reads the answer to a translate request, from a daemon or from an
    /// in-process [`crate::Engine::execute`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for an error response,
    /// [`ClientError::Throttled`] for a throttled one.
    pub fn from_response(response: Response) -> Result<Self, ClientError> {
        match response {
            Response::TranslateOk {
                cache_hit,
                timings,
                text,
            } => Ok(Translated {
                text,
                cache_hit,
                timings,
            }),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            Response::Throttled {
                retry_after_ms,
                message,
            } => Err(ClientError::Throttled {
                retry_after_ms,
                message,
            }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }
}

/// One blocking connection to a `siro-serve` daemon.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
    op_timeout: Option<Duration>,
}

impl Client {
    /// Connects with the given I/O timeouts. A connect that exceeds
    /// `timeout` fails with [`ClientError::Timeout`].
    ///
    /// The per-operation response deadline starts *disabled* — a cold
    /// synthesis may legitimately take a long time — and is opted into
    /// with [`Client::set_op_timeout`] (the CLI wires `--timeout-ms` /
    /// `SIRO_CLIENT_TIMEOUT_MS` to it).
    ///
    /// # Errors
    ///
    /// Propagates resolution/connection failures.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> Result<Self, ClientError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Unexpected("address resolved to nothing".into()))?;
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            next_id: 1,
            op_timeout: None,
        })
    }

    /// Caps how long any single receive waits for a response; exceeding
    /// it yields [`ClientError::Timeout`]. `None` (the default) waits
    /// indefinitely.
    pub fn set_op_timeout(&mut self, timeout: Option<Duration>) {
        self.op_timeout = timeout;
    }

    fn send(&mut self, request: &Request) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.stream, &request.encode(id))?;
        Ok(id)
    }

    fn recv(&mut self) -> Result<(u64, Response), ClientError> {
        let deadline = self.op_timeout.map(|t| Instant::now() + t);
        loop {
            match read_frame(&mut self.stream)? {
                FrameRead::Payload(p) => return Ok(Response::decode(&p)?),
                FrameRead::Idle => {
                    // Server still working. Idle reads wake at the socket
                    // read-timeout cadence, so the deadline is checked at
                    // that granularity.
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return Err(ClientError::Timeout);
                    }
                    continue;
                }
                FrameRead::Eof => {
                    return Err(ClientError::Unexpected(
                        "connection closed mid-request".into(),
                    ))
                }
            }
        }
    }

    fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        let id = self.send(request)?;
        let (got_id, response) = self.recv()?;
        if got_id != id && got_id != 0 {
            return Err(ClientError::Unexpected(format!(
                "response id {got_id}, expected {id}"
            )));
        }
        Ok(response)
    }

    /// Translates one module.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] carries the server's [`ErrorCode`]
    /// (including `Busy` under backpressure).
    pub fn translate(
        &mut self,
        source: impl Into<siro_ir::DialectVersion>,
        target: impl Into<siro_ir::DialectVersion>,
        mode: TranslateMode,
        text: impl Into<String>,
    ) -> Result<Translated, ClientError> {
        Translated::from_response(self.roundtrip(&Request::Translate {
            source: source.into(),
            target: target.into(),
            mode,
            text: text.into(),
        })?)
    }

    /// Pipelines a whole batch of translate requests on this connection
    /// before reading any response; results come back in request order.
    ///
    /// # Errors
    ///
    /// Transport errors abort the batch; per-request server errors are
    /// returned in the corresponding slot.
    #[allow(clippy::type_complexity)]
    pub fn translate_batch(
        &mut self,
        requests: &[(IrVersion, IrVersion, TranslateMode, String)],
    ) -> Result<Vec<Result<Translated, (ErrorCode, String)>>, ClientError> {
        let mut ids = Vec::with_capacity(requests.len());
        for (source, target, mode, text) in requests {
            ids.push(self.send(&Request::Translate {
                source: (*source).into(),
                target: (*target).into(),
                mode: *mode,
                text: text.clone(),
            })?);
        }
        // Responses may finish out of order on the server; collect by id.
        let mut by_id = std::collections::HashMap::new();
        while by_id.len() < ids.len() {
            let (id, response) = self.recv()?;
            by_id.insert(id, response);
        }
        ids.into_iter()
            .map(|id| {
                let response = by_id.remove(&id).ok_or_else(|| {
                    ClientError::Unexpected(format!("no response for request {id}"))
                })?;
                Ok(match response {
                    Response::TranslateOk {
                        cache_hit,
                        timings,
                        text,
                    } => Ok(Translated {
                        text,
                        cache_hit,
                        timings,
                    }),
                    Response::Error { code, message } => Err((code, message)),
                    Response::Throttled {
                        retry_after_ms,
                        message,
                    } => Err((
                        ErrorCode::Throttled,
                        format!("retry after {retry_after_ms} ms: {message}"),
                    )),
                    other => {
                        return Err(ClientError::Unexpected(format!("{other:?}")));
                    }
                })
            })
            .collect()
    }

    /// Fetches the plaintext stats page.
    ///
    /// # Errors
    ///
    /// See [`Client::translate`].
    pub fn stats(&mut self) -> Result<String, ClientError> {
        match self.roundtrip(&Request::Stats)? {
            Response::StatsOk { text } => Ok(text),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetches the Prometheus-style plaintext metrics page. Parse samples
    /// out of it with [`crate::stats::metrics_value`]:
    ///
    /// ```no_run
    /// use std::time::Duration;
    /// use siro_serve::{metrics_value, Client};
    ///
    /// let mut client = Client::connect("127.0.0.1:4799", Duration::from_secs(5))?;
    /// let page = client.metrics()?;
    /// let served = metrics_value(&page, "siro_requests_total").unwrap_or(0);
    /// println!("server has answered {served} requests");
    /// # Ok::<(), siro_serve::ClientError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// See [`Client::translate`].
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.roundtrip(&Request::Metrics)? {
            Response::MetricsOk { text } => Ok(text),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Sends a ping, optionally asking the worker to stall `delay_ms`.
    ///
    /// # Errors
    ///
    /// See [`Client::translate`].
    pub fn ping(&mut self, delay_ms: u32) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Ping { delay_ms })? {
            Response::Pong => Ok(()),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            Response::Throttled {
                retry_after_ms,
                message,
            } => Err(ClientError::Throttled {
                retry_after_ms,
                message,
            }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Sends a ping without waiting for the pong (used to fill the queue
    /// in backpressure tests). Returns the request id.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn ping_nowait(&mut self, delay_ms: u32) -> Result<u64, ClientError> {
        self.send(&Request::Ping { delay_ms })
    }

    /// Reads one pending response (for requests sent with
    /// [`Client::ping_nowait`]).
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn recv_response(&mut self) -> Result<(u64, Response), ClientError> {
        self.recv()
    }

    /// Asks the server to drain and exit.
    ///
    /// # Errors
    ///
    /// See [`Client::translate`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::ShutdownOk => Ok(()),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }
}
