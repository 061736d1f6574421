//! A minimal blocking HTTP/1.1 client.
//!
//! Just enough to exercise the server from tests and from the
//! repository benchmark (`perfbench/`) without external tooling. Two
//! shapes: [`request`] opens a fresh connection per call
//! (`Connection: close`), and [`Connection`] holds one keep-alive
//! socket open across calls — the shape the keep-alive benchmark and
//! byte-identity tests measure.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response: status code, headers in wire order, body text.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Response body as UTF-8 text.
    pub body: String,
}

impl ClientResponse {
    /// First header with the given name (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Sends one request on a fresh connection and reads the full response.
///
/// # Errors
///
/// Returns connection/transport errors, or `InvalidData` when the peer
/// speaks something that is not an HTTP/1.1 response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: Option<&str>,
) -> io::Result<ClientResponse> {
    let stream = connect(addr)?;
    let mut reader = BufReader::new(stream);
    write_request(reader.get_mut(), addr, method, target, body, false)?;
    read_response(&mut reader, false)
}

/// One persistent keep-alive connection: every request rides the same
/// socket, so repeated queries skip the TCP handshake and the server's
/// per-connection accept/teardown work.
pub struct Connection {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
}

impl Connection {
    /// Opens the socket.
    ///
    /// # Errors
    ///
    /// Returns the connect/configure error.
    pub fn open(addr: SocketAddr) -> io::Result<Connection> {
        Ok(Connection {
            addr,
            reader: BufReader::new(connect(addr)?),
        })
    }

    /// Sends one request on the open connection and reads the full
    /// response. The connection stays usable afterwards unless the
    /// server answered `Connection: close`.
    ///
    /// # Errors
    ///
    /// Returns transport errors (including the server having closed
    /// the connection between calls), or `InvalidData` on a malformed
    /// response.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> io::Result<ClientResponse> {
        write_request(self.reader.get_mut(), self.addr, method, target, body, true)?;
        read_response(&mut self.reader, true)
    }
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn write_request(
    stream: &mut TcpStream,
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: Option<&str>,
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head =
        format!("{method} {target} HTTP/1.1\r\nHost: {addr}\r\nConnection: {connection}\r\n");
    if let Some(body) = body {
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    if let Some(body) = body {
        stream.write_all(body.as_bytes())?;
    }
    stream.flush()
}

/// Reads one response. On a keep-alive connection a missing
/// `Content-Length` is an error (read-to-EOF would block forever);
/// on a one-shot connection it falls back to read-to-EOF.
fn read_response(
    reader: &mut BufReader<TcpStream>,
    keep_alive: bool,
) -> io::Result<ClientResponse> {
    let status_line = read_line(reader)?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("not an HTTP status line: {status_line:?}"),
            )
        })?;

    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().ok();
            }
            headers.push((name, value));
        }
    }

    let mut raw = Vec::new();
    match content_length {
        Some(n) => {
            raw.resize(n, 0);
            reader.read_exact(&mut raw)?;
        }
        None if keep_alive => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "keep-alive response without Content-Length",
            ));
        }
        None => {
            reader.read_to_end(&mut raw)?;
        }
    }
    let body = String::from_utf8(raw)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response body"))?;
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

fn read_line(reader: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}
