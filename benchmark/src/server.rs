//! The server child: a process that only hosts `dsm_service::Server`, and
//! the handle its parent holds on it.
//!
//! Protocol: the child binds port 0 with the default `ServeConfig`, prints
//! one JSON line with its address, and blocks reading stdin. When
//! stdin reaches end of file — the parent closed it, exited or was killed —
//! it shuts the server down, prints the final `StatsSnapshot` as a second
//! JSON line and exits. No listener can outlive its parent.

use std::io::{Read, Write};
use std::net::SocketAddr;
use std::path::Path;

use dsm_service::server::{ServeConfig, Server};

use crate::json::{self, Value};
use crate::ladder::IO_TIMEOUT;
use crate::proc::Proc;

/// Body of `benchmark serve`.
pub fn serve() -> Result<(), String> {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).map_err(|e| e.to_string())?;
    let hello = Value::obj([("addr", Value::str(server.local_addr().to_string()))]);
    let mut out = std::io::stdout().lock();
    writeln!(out, "{}", hello.to_line()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;

    let mut sink = Vec::new();
    let _ = std::io::stdin().lock().read_to_end(&mut sink);

    let stats = server.shutdown().stats;
    let line = Value::obj([
        ("accepted", Value::from(stats.accepted)),
        ("finished", Value::from(stats.finished)),
        ("degraded", Value::from(stats.degraded_sessions())),
        ("frames_rejected", Value::from(stats.frames_rejected)),
        ("events_shed", Value::from(stats.events_shed)),
        ("resumed", Value::from(stats.resumed)),
    ]);
    writeln!(out, "{}", line.to_line()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())
}

/// A running server child. Dropping it kills the process.
pub struct ServerProc {
    proc: Proc,
    pub addr: SocketAddr,
    pub pid: u32,
}

impl ServerProc {
    /// Start `exe serve` and wait for its address line.
    pub fn spawn(exe: &Path) -> Result<ServerProc, String> {
        let proc = Proc::spawn(exe, &["serve"])?;
        let addr = line(&proc)?
            .get("addr")
            .and_then(Value::as_str)
            .and_then(|a| a.parse().ok())
            .ok_or("server child printed no address")?;
        let pid = proc.pid();
        Ok(ServerProc { proc, addr, pid })
    }

    /// Close the child's stdin, collect its shutdown statistics and reap it.
    pub fn stop(mut self) -> Result<Value, String> {
        self.proc.close_stdin();
        let stats = line(&self.proc)?;
        self.proc.wait()?;
        Ok(stats)
    }
}

fn line(proc: &Proc) -> Result<Value, String> {
    let line = proc
        .line(IO_TIMEOUT)
        .map_err(|e| format!("server child: {e}"))?
        .ok_or("server child exited early")?;
    json::parse(&line)
}
