//! Command line of the benchmark. Run from the repository root.
//!
//! ```text
//! benchmark --workload W --seed S --seconds T --trace 0|1   one workload; last line is the result
//! benchmark run     [--seed S] [--seconds T] [--runs N] [--out FILE]   every workload, end to end
//! benchmark trace   [--seed S] [--seconds T]                           every workload, per layer
//! benchmark compare A.json B.json                                      exit 1 if B is worse than A
//! ```
//!
//! `child` and `serve` are what the orchestrator starts; they are not meant
//! to be typed.

use std::path::PathBuf;
use std::process::ExitCode;

use benchmark::child::{self, Args};
use benchmark::compare::{self, ResultSet};
use benchmark::json::Value;
use benchmark::orchestrate::{exit_when_orphaned, run_child};
use benchmark::spec::{Scale, Workload, DEFAULT_SEED};

/// `--key value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            pairs.push((key.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value {v:?}")),
        }
    }

    fn args(&self, workload: Workload, exe: PathBuf) -> Result<Args, String> {
        let seconds: f64 = self.number("seconds", 15.0)?;
        if !(seconds > 0.0 && seconds <= 60.0) {
            return Err("--seconds must be in (0, 60]".into());
        }
        Ok(Args {
            workload,
            seed: self.number("seed", DEFAULT_SEED)?,
            seconds,
            trace: match self.get("trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(v) => return Err(format!("--trace: bad value {v:?}")),
            },
            scale: match self.get("scale") {
                None | Some("full") => Scale::Full,
                Some("mini") => Scale::Mini,
                Some(v) => return Err(format!("--scale: bad value {v:?}")),
            },
            exe,
        })
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.get("workload").ok_or("--workload is required")?;
        Workload::from_name(name).ok_or_else(|| {
            let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {name:?}; known: {}", known.join(", "))
        })
    }
}

/// Host, toolchain and commit a result set was measured on.
fn stamp() -> Value {
    let output = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Value::obj([
        ("host_cores", Value::from(cores)),
        ("commit", Value::str(output("git", &["rev-parse", "HEAD"]))),
        ("rustc", Value::str(output("rustc", &["-V"]))),
        ("kernel", Value::str(kernel)),
    ])
}

fn run_all(flags: &Flags, exe: PathBuf, trace: bool) -> Result<ExitCode, String> {
    let runs: u64 = flags.number("runs", 1)?;
    let mut set = ResultSet {
        stamp: stamp(),
        runs: Vec::new(),
    };
    let mut all_correct = true;
    for run in 0..runs {
        for workload in Workload::ALL {
            let mut args = flags.args(workload, exe.clone())?;
            args.trace = trace;
            args.seed += run;
            let report = run_child(&exe, &args);
            print!("{}", report.table());
            all_correct &= report.correct();
            set.runs.push(report);
        }
    }
    if !trace {
        let path = match flags.get("out") {
            Some(path) => PathBuf::from(path),
            None => {
                let seed: u64 = flags.number("seed", DEFAULT_SEED)?;
                benchmark::out_dir().join(format!("run_{seed}.json"))
            }
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&path, set.to_json().to_line() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("results written to {}", path.display());
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main_inner() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    match argv.first().map(String::as_str) {
        Some("serve") => {
            benchmark::server::serve()?;
            Ok(ExitCode::SUCCESS)
        }
        Some("child") => {
            exit_when_orphaned();
            let flags = Flags::parse(&argv[1..])?;
            let report = child::run(&flags.args(flags.workload()?, exe)?);
            println!("{}", report.to_json().to_line());
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => run_all(&Flags::parse(&argv[1..])?, exe, false),
        Some("trace") => run_all(&Flags::parse(&argv[1..])?, exe, true),
        Some("compare") => {
            let [a, b] = &argv[1..] else {
                return Err("usage: compare <a.json> <b.json>".into());
            };
            let read = |path: &String| {
                std::fs::read_to_string(path)
                    .map_err(|e| format!("{path}: {e}"))
                    .and_then(|text| ResultSet::parse(&text).map_err(|e| format!("{path}: {e}")))
            };
            let (table, any_worse) = compare::compare(&read(a)?, &read(b)?);
            print!("{table}");
            Ok(if any_worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        _ => {
            // The driver's form: one workload, result as the last line.
            let flags = Flags::parse(&argv)?;
            let args = flags.args(flags.workload()?, exe.clone())?;
            let report = run_child(&exe, &args);
            print!("{}", report.table());
            println!("{}", report.contract_line());
            Ok(if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
    }
}

fn main() -> ExitCode {
    main_inner().unwrap_or_else(|why| {
        eprintln!("benchmark: {why}");
        ExitCode::from(2)
    })
}
