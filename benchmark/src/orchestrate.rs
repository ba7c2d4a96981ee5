//! The orchestrator: runs each workload in a child process of this same
//! binary, bounds its time, and turns whatever happens — a result line, a
//! crash, a hang — into one [`Report`].
//!
//! The child is the load generator and, for `inproc_*` and `sim_debug`, the
//! system under test; for `tcp_*` it starts the server child (see
//! [`crate::server`]) and reads that process's `/proc` entries. Children
//! hold the read end of a pipe as stdin and exit when it closes, so killing
//! the orchestrator leaves nothing running.

use std::io::Read;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::child::Args;
use crate::json;
use crate::proc::Proc;
use crate::report::Report;
use crate::spec::Scale;

/// Time a child may take on top of `--seconds`: five set-ups (the slowest,
/// `tcp_pingpong`, takes about one second each), the last rep in flight,
/// and start-up. The driver allows a run 180 s and `--seconds` at most 60.
const ALLOWANCE: Duration = Duration::from_secs(100);

/// Run one workload in a child and collect its report.
pub fn run_child(exe: &Path, args: &Args) -> Report {
    let lost = |why: String| Report::lost(args.workload, args.seed, args.trace, why);
    let flags = [
        "child",
        "--workload",
        args.workload.name(),
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if args.trace { "1" } else { "0" },
        "--scale",
        if args.scale == Scale::Mini {
            "mini"
        } else {
            "full"
        },
    ];
    let mut child = match Proc::spawn(exe, &flags) {
        Ok(child) => child,
        Err(why) => return lost(why),
    };

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds) + ALLOWANCE;
    let mut last = None;
    loop {
        match child.line(deadline.saturating_duration_since(Instant::now())) {
            Ok(Some(line)) => last = Some(line),
            Ok(None) => break, // the child closed stdout: it is exiting
            Err(_) => {
                return lost(format!(
                    "child still running {ALLOWANCE:?} after its {} s: killed",
                    args.seconds
                ));
            }
        }
    }
    let status = child.wait();
    let parsed = last
        .ok_or_else(|| "child printed nothing".to_string())
        .and_then(|line| json::parse(&line))
        .and_then(|v| Report::from_json(&v));
    match (parsed, status) {
        (Ok(report), Ok(status)) if status.success() => report,
        (Ok(_), Ok(status)) => lost(format!("child exited with {status}")),
        (Err(why), _) => lost(format!("child result unreadable: {why}")),
        (_, Err(why)) => lost(why),
    }
}

/// In a child: exit as soon as stdin closes, i.e. as soon as the parent is
/// gone, however it went.
pub fn exit_when_orphaned() {
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = std::io::stdin().lock().read_to_end(&mut sink);
        std::process::exit(3);
    });
}
