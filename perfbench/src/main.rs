//! End-to-end and per-layer benchmark of the federated-learning workspace.
//!
//! ```text
//! perfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of one workload, `--trace 1`
//! its per-layer metrics; `--workload all` (the default) runs every
//! workload in a child process of its own. See `perfbench/README.md`.

mod clock;
mod layers;
mod relay;
mod report;
mod run;
mod stats;
mod sys;
mod workloads;

use report::Report;
use workloads::Kind;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                out.workload = match v.as_str() {
                    "all" => None,
                    name => Some(Kind::parse(name).ok_or(format!("unknown workload {name:?}"))?),
                };
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(out.seconds.is_finite() && out.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    match args.workload {
        Some(kind) => {
            // Every load comes from this process with at most two
            // compute threads, on any host.
            std::env::set_var(
                niid_bench_rs::tensor::parallel::ENV_THREADS,
                workloads::WORKERS.to_string(),
            );
            let report = if args.trace {
                run::traced(kind, args.seed, args.seconds)
            } else {
                run::untraced(kind, args.seed, args.seconds)
            };
            report.print(kind.name());
        }
        None => std::process::exit(run_all(&argv)),
    }
}

/// Run every workload in a child process of its own (so peak memory and
/// CPU time belong to one workload), print each child's table, and end
/// with one combined result line.
fn run_all(argv: &[String]) -> i32 {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut combined = Report::default();
    let mut code = 0;
    let mut shared: Vec<&String> = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            shared.push(a);
        }
    }
    for kind in Kind::ALL {
        let out = std::process::Command::new(&exe)
            .args(&shared)
            .args(["--workload", kind.name()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("spawn a workload process");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for l in lines {
            println!("{l}");
        }
        match (out.status.success(), Report::parse_line(last)) {
            (true, Some(r)) => combined.absorb(kind.name(), r),
            _ => {
                eprintln!(
                    "perfbench: workload {} failed ({})",
                    kind.name(),
                    out.status
                );
                code = 1;
            }
        }
    }
    if code == 0 {
        println!("{}", combined.json_line());
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload silo_cnn --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: Some(Kind::SiloCnn),
                seed: 7,
                seconds: 12.0,
                trace: true
            }
        );
        assert_eq!(parse_args(&argv("--workload all")).unwrap().workload, None);
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed",
            "--bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
