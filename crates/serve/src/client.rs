//! A small blocking client for the daemon's wire protocol.
//!
//! Used by `halotis-load`, the integration tests and the CI smoke test.
//! Send and receive are independent, so a caller may pipeline several
//! requests before collecting the (possibly out-of-order) responses.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use crate::frame::{read_frame, write_frame, FrameError};
use crate::json::{self, Value};
use crate::protocol::render_suite;
use halotis_corpus::StimulusSuite;

enum Stream {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(stream) => stream.read(buf),
            Stream::Uds(stream) => stream.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(stream) => stream.write(buf),
            Stream::Uds(stream) => stream.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(stream) => stream.flush(),
            Stream::Uds(stream) => stream.flush(),
        }
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed or the daemon closed the connection.
    Frame(FrameError),
    /// The daemon sent bytes that are not a JSON object (protocol bug).
    BadResponse(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(err) => write!(f, "{err}"),
            ClientError::BadResponse(detail) => write!(f, "bad response: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// One parsed response frame.
#[derive(Clone, Debug)]
pub struct Response {
    /// The echoed request id (`None` for pre-parse failures).
    pub id: Option<u64>,
    /// The whole response document.
    pub doc: Value,
}

impl Response {
    /// The `"ok"` payload, if the request succeeded.
    pub fn ok(&self) -> Option<&Value> {
        self.doc.get("ok")
    }

    /// The `"error"."code"` string, if the request failed.
    pub fn error_code(&self) -> Option<&str> {
        self.doc.get("error")?.get("code")?.as_str()
    }

    /// The `"error"."message"` string, if the request failed.
    pub fn error_message(&self) -> Option<&str> {
        self.doc.get("error")?.get("message")?.as_str()
    }
}

/// A blocking protocol client.
pub struct Client {
    stream: Stream,
    max_frame: usize,
}

impl Client {
    /// Connects over TCP.
    pub fn connect_tcp(addr: &str) -> std::io::Result<Self> {
        Ok(Client {
            stream: Stream::Tcp(TcpStream::connect(addr)?),
            max_frame: 64 << 20,
        })
    }

    /// Connects over a Unix-domain socket.
    pub fn connect_uds(path: &Path) -> std::io::Result<Self> {
        Ok(Client {
            stream: Stream::Uds(UnixStream::connect(path)?),
            max_frame: 64 << 20,
        })
    }

    /// Bounds how long [`recv`](Self::recv) blocks (`None` = forever).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        match &self.stream {
            Stream::Tcp(stream) => stream.set_read_timeout(timeout),
            Stream::Uds(stream) => stream.set_read_timeout(timeout),
        }
    }

    /// Sends one raw frame body (callers build the JSON).
    pub fn send(&mut self, body: &str) -> std::io::Result<()> {
        write_frame(&mut self.stream, body.as_bytes())
    }

    /// Sends raw bytes *without* framing — only the hardening tests use
    /// this, to speak deliberately broken protocol at the daemon.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Receives one response; `Ok(None)` when the daemon closed cleanly.
    pub fn recv(&mut self) -> Result<Option<Response>, ClientError> {
        let Some(body) =
            read_frame(&mut self.stream, self.max_frame).map_err(ClientError::Frame)?
        else {
            return Ok(None);
        };
        let text =
            std::str::from_utf8(&body).map_err(|err| ClientError::BadResponse(err.to_string()))?;
        let doc = json::parse(text).map_err(|err| ClientError::BadResponse(err.to_string()))?;
        let id = doc.get("id").and_then(Value::as_u64);
        Ok(Some(Response { id, doc }))
    }

    /// Send + receive one request, expecting the connection to stay open.
    pub fn call(&mut self, body: &str) -> Result<Response, ClientError> {
        self.send(body)
            .map_err(|err| ClientError::Frame(FrameError::from(err)))?;
        self.recv()?
            .ok_or(ClientError::Frame(FrameError::Truncated))
    }
}

/// Builds a `load` request frame.
pub fn load_request(id: u64, netlist_text: &str) -> String {
    format!(
        r#"{{"op":"load","id":{id},"netlist":{}}}"#,
        json::string(netlist_text)
    )
}

/// Builds a `simulate` request frame.
pub fn simulate_request(id: u64, key: &str, suite: &StimulusSuite, model: &str) -> String {
    format!(
        r#"{{"op":"simulate","id":{id},"key":{},"model":{},"suite":{}}}"#,
        json::string(key),
        json::string(model),
        render_suite(suite)
    )
}

/// Builds a `revert` request frame.
pub fn revert_request(id: u64, key: &str) -> String {
    format!(r#"{{"op":"revert","id":{id},"key":{}}}"#, json::string(key))
}

/// Builds a `stats` request frame.
pub fn stats_request(id: u64) -> String {
    format!(r#"{{"op":"stats","id":{id}}}"#)
}

/// Builds a `shutdown` request frame.
pub fn shutdown_request(id: u64) -> String {
    format!(r#"{{"op":"shutdown","id":{id}}}"#)
}
