//! Command line of the cluster benchmark.
//!
//! ```text
//! clusterbench --workload <olap_power|oltp|mixed|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Run metadata, per-class figures and any errors go to
//! standard error and, with the result, to `out/` in this package. The exit
//! code is non-zero on a wrong answer or an unconverged replica.
//! `--workload all` runs the three workloads one after another, each in a
//! child process of its own, and prints a table.

use std::io::Write;
use std::process::{Command, ExitCode};

use apuama_clusterbench::metrics::{json_str, metrics_json, result_json};
use apuama_clusterbench::run::{run, Options, Outcome};
use apuama_clusterbench::trace::Span;
use apuama_clusterbench::workload::{Workload, WORKLOADS};

const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn meta_json(meta: &[(&'static str, String)]) -> String {
    let fields: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn write_out(name: &str, out: &Outcome, result: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let list = |v: &[String]| v.iter().map(|e| json_str(e)).collect::<Vec<_>>().join(", ");
    let plans: Vec<String> = out
        .plans
        .iter()
        .map(|(q, lines)| format!("{}: [{}]", json_str(q), list(lines)))
        .collect();
    std::fs::write(
        format!("{OUT_DIR}/{name}.json"),
        format!(
            "{{\"meta\": {}, \"classes\": {}, \"errors\": [{}], \"plans\": {{{}}}, \"result\": {result}}}\n",
            meta_json(&out.meta),
            metrics_json(&out.classes),
            list(&out.errors),
            plans.join(", ")
        ),
    )?;
    if !out.spans.is_empty() {
        let mut f = std::io::BufWriter::new(std::fs::File::create(format!(
            "{OUT_DIR}/{name}.spans.jsonl"
        ))?);
        for Span {
            id,
            parent,
            root,
            name,
            start,
            end,
        } in &out.spans
        {
            let parent = parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\": {id}, \"parent\": {parent}, \"root\": {root}, \"name\": \"{name}\", \"start_us\": {start:.3}, \"end_us\": {end:.3}}}"
            )?;
        }
        f.flush()?;
    }
    Ok(())
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let out = run(Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    });
    for e in out.errors.iter().take(20) {
        eprintln!("error: {e}");
    }
    if out.errors.len() > 20 {
        eprintln!("error: … {} more", out.errors.len() - 20);
    }
    eprintln!("meta: {}", meta_json(&out.meta));
    for m in &out.classes {
        eprintln!("class {:<22} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let result = result_json(out.correct, out.attempted, out.failed, &out.metrics);
    let name = format!(
        "{}-seed{}-trace{}",
        workload.name(),
        args.seed,
        args.trace as u8
    );
    if let Err(e) = write_out(&name, &out, &result) {
        eprintln!("warning: could not write {OUT_DIR}/{name}.json: {e}");
    }
    println!("{result}");
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own (so each reports its
/// own peak memory) and prints one table of what they printed.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        match child {
            Ok(o) => {
                ok &= o.status.success();
                let stdout = String::from_utf8_lossy(&o.stdout);
                let stderr = String::from_utf8_lossy(&o.stderr);
                println!("== {} (exit {})", w.name(), o.status.code().unwrap_or(-1));
                for l in stderr
                    .lines()
                    .filter(|l| l.starts_with("class ") || l.starts_with("error"))
                {
                    println!("  {l}");
                }
                if let Some(last) = stdout.lines().last() {
                    println!("  {last}");
                }
            }
            Err(e) => {
                ok = false;
                println!("== {}: could not run: {e}", w.name());
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: clusterbench --workload <olap_power|oltp|mixed|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    match Workload::parse(&args.workload) {
        Some(w) => run_one(w, &args),
        None => {
            eprintln!("unknown workload {:?}", args.workload);
            ExitCode::from(2)
        }
    }
}
