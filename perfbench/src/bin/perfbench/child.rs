//! The `tpu-serve` child process: spawned on an ephemeral port over a
//! private copy of the spec directory, killed and reaped on drop —
//! including when the benchmark fails or panics.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};
use tpu_serve::client;

/// A running `tpu-serve` with its shipped defaults (4 workers, cache
/// 256); only the address and spec directory are set.
pub struct ServerProcess {
    child: Child,
    /// Kept open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl ServerProcess {
    /// Spawns the server and waits until `/healthz` answers 200.
    /// Returns it with its set-up time: spawn to first healthy answer.
    pub fn start(bin: &Path, specs_dir: &Path) -> Result<(ServerProcess, Duration), String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--specs-dir"])
            .arg(specs_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // From here on the guard owns the child, so any early return
        // kills it.
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let mut server = ServerProcess {
            child,
            _stdout: stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        read.map_err(|e| format!("reading the server banner: {e}"))?;
        // "tpu-serve listening on http://127.0.0.1:PORT (...)"
        server.addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?;
        loop {
            match client::request(server.addr, "GET", "/healthz", None) {
                Ok(r) if r.status == 200 => return Ok((server, t0.elapsed())),
                _ if t0.elapsed() > Duration::from_secs(30) => {
                    return Err("server never became healthy".into())
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
