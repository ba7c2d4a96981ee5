//! A child process of this binary, as both the orchestrator and the server
//! handle need it: stdin and stdout piped, stdout readable one line at a
//! time with a timeout, and killed and reaped when the handle is dropped.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::time::Duration;

pub struct Proc {
    child: Child,
    lines: Receiver<String>,
}

impl Proc {
    pub fn spawn(exe: &Path, args: &[&str]) -> Result<Proc, String> {
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().ok_or("child has no stdout")?;
        // A reader thread, so that waiting for a line can time out. It ends
        // when the child's stdout closes.
        let (tx, lines) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok(Proc { child, lines })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The child's next line of output; `None` once it has closed stdout.
    pub fn line(&self, timeout: Duration) -> Result<Option<String>, String> {
        match self.lines.recv_timeout(timeout) {
            Ok(line) => Ok(Some(line)),
            Err(RecvTimeoutError::Disconnected) => Ok(None),
            Err(RecvTimeoutError::Timeout) => Err(format!("no output within {timeout:?}")),
        }
    }

    /// Close the child's stdin, which children of this binary take as the
    /// signal to finish.
    pub fn close_stdin(&mut self) {
        drop(self.child.stdin.take());
    }

    pub fn wait(&mut self) -> Result<ExitStatus, String> {
        self.child.wait().map_err(|e| format!("wait: {e}"))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        // After `wait` the child is already reaped and both calls are no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
