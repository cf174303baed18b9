//! `dr-benchmark`: one command for the whole benchmark.
//!
//! ```text
//! dr-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
//!     one workload in this process; the last stdout line is the result
//!     object the acceptance driver reads
//! dr-benchmark run [--seed N] [--seconds S] [--workload W] [--trace] [--quick] [--out DIR]
//!     every workload (or one), each in its own child process; prints the
//!     suite table and writes DIR/result.json
//! dr-benchmark compare A.json B.json [--same-code]
//!     candidate B against baseline A; non-zero exit on a regression
//! dr-benchmark selfcheck [--seed N] [--seconds S] [--quick] [--out DIR]
//!     two sets of three alternating runs, compared as the same code
//! ```

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use dr_benchmark::bench::Ctx;
use dr_benchmark::json::Json;
use dr_benchmark::metrics::WORKLOADS;
use dr_benchmark::report;
use dr_benchmark::trace::{layer_table, Tracer};
use dr_benchmark::workloads;

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 8.0;
/// Runs per set in `selfcheck`.
const SELFCHECK_PAIRS: usize = 3;

#[derive(Debug, Clone)]
struct Args {
    command: Option<String>,
    files: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    same_code: bool,
    out: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        files: Vec::new(),
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        same_code: false,
        out: None,
    };
    let mut it = raw.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in 0..=600".to_string());
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--quick" => args.quick = true,
            "--same-code" => args.same_code = true,
            // `--trace 0|1` (driver form) or bare `--trace` (run form).
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    args.trace = false;
                }
                Some("1") => {
                    it.next();
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word if args.command.is_none() && args.files.is_empty() => {
                args.command = Some(word.to_string());
            }
            word => args.files.push(word.to_string()),
        }
    }
    Ok(args)
}

fn default_out() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn record_name(workload: &str, traced: bool) -> String {
    if traced {
        format!("{workload}.trace.json")
    } else {
        format!("{workload}.json")
    }
}

/// One workload in this process (the form the acceptance driver runs).
fn run_one(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    if !report::is_workload(name) {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload `{name}`; one of {}", known.join(", ")));
    }
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        tracer: Tracer::new(args.trace),
    };
    let result = workloads::run(name, &mut ctx).expect("checked against the catalogue");
    let rows = layer_table(ctx.tracer.spans());
    print!("{}", report::render_workload(&result, &ctx, &rows));
    if let Some(dir) = &args.out {
        let record = result.to_json(&ctx, &rows);
        write_file(&dir.join(record_name(name, args.trace)), &record.pretty())?;
        if args.trace {
            write_file(&dir.join(format!("{name}.trace.jsonl")), &ctx.tracer.to_jsonl())?;
        }
    }
    // Exit 0 whenever a result was printed: `correct`/`failed` carry the
    // verdict, and `run` reads them from the record.
    println!("{}", result.driver_line(args.trace).render());
    Ok(true)
}

/// Every workload (or `--workload`), each in a child process so that
/// `peak_rss_mb` is that workload's alone. Returns the suite record.
fn run_suite(args: &Args, out: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let names: Vec<&str> = match &args.workload {
        Some(w) if report::is_workload(w) => vec![w.as_str()],
        Some(w) => return Err(format!("unknown workload `{w}`")),
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let mut records: [BTreeMap<String, Json>; 2] = [BTreeMap::new(), BTreeMap::new()];
    for traced in [false, true] {
        if traced && !args.trace {
            continue;
        }
        for name in &names {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(out);
            if args.quick {
                child.arg("--quick");
            }
            // A record an earlier run left in `out` must not pass for this
            // one's: remove it first, and take only a record the child wrote
            // for these very arguments after exiting cleanly.
            let path = out.join(record_name(name, traced));
            match std::fs::remove_file(&path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(format!("remove {}: {e}", path.display()));
                }
                _ => {}
            }
            let status = child.status().map_err(|e| format!("spawn {name}: {e}"))?;
            let record = if status.success() {
                read_json(&path).and_then(|record| {
                    let same = record.get("seed").and_then(Json::as_f64) == Some(args.seed as f64)
                        && record.get("seconds").and_then(Json::as_f64) == Some(args.seconds)
                        && record.get("quick").and_then(Json::as_bool) == Some(args.quick)
                        && record.get("traced").and_then(Json::as_bool) == Some(traced);
                    same.then_some(record).ok_or(format!(
                        "{} was written for another seed, duration or size",
                        path.display()
                    ))
                })
            } else {
                Err(format!("the child process ended with {status}"))
            };
            let record = record.unwrap_or_else(|why| {
                eprintln!("workload {name} failed: {why}");
                report::failed_record(name, traced, &why)
            });
            records[usize::from(traced)].insert(name.to_string(), record);
        }
    }
    let [untraced, traced] = records;
    let suite = report::suite_json(args.seed, args.seconds, args.quick, untraced, traced);
    write_file(&out.join("result.json"), &suite.pretty())?;
    println!();
    print!("{}", report::render_suite(&suite));
    println!("wrote {}", out.join("result.json").display());
    Ok(suite)
}

fn suite_failed(suite: &Json) -> bool {
    suite.get("workloads").and_then(Json::as_obj).is_none_or(|ws| {
        ws.values().any(|record| {
            let failed = |r: &Json| r.get("correct").and_then(Json::as_bool) != Some(true);
            failed(record) || record.get("traced_run").is_some_and(failed)
        })
    })
}

fn compare_files(a: &Json, b: &Json, same_code: bool) -> bool {
    // The seed picks the inputs, the size and the duration how many of
    // them make up the fixed set: exact metrics repeat only when all agree.
    if same_code && ["seed", "seconds", "quick"].iter().any(|key| a.get(key) != b.get(key)) {
        eprintln!("--same-code needs two results of the same seed, duration and size");
        return false;
    }
    let rows = report::compare(a, b, same_code);
    print!("{}", report::render_compare(&rows));
    !rows.iter().any(|r| r.verdict.fails())
}

fn dispatch(args: &Args) -> Result<bool, String> {
    match args.command.as_deref() {
        None => run_one(args),
        Some("run") => {
            let out = args.out.clone().unwrap_or_else(default_out);
            Ok(!suite_failed(&run_suite(args, &out)?))
        }
        Some("compare") => match args.files.as_slice() {
            [a, b] => Ok(compare_files(
                &read_json(Path::new(a))?,
                &read_json(Path::new(b))?,
                args.same_code,
            )),
            _ => Err("compare takes exactly two result files".to_string()),
        },
        Some("selfcheck") => {
            // Alternate the two sets, so a slow spell of the machine lands
            // on both, and take each set's medians.
            let out = args.out.clone().unwrap_or_else(default_out);
            let (mut first, mut second) = (Vec::new(), Vec::new());
            for i in 0..SELFCHECK_PAIRS {
                first.push(run_suite(args, &out.join(format!("selfcheck_a{i}")))?);
                second.push(run_suite(args, &out.join(format!("selfcheck_b{i}")))?);
            }
            let first = report::merge_runs(&first).ok_or("no run to compare")?;
            let second = report::merge_runs(&second).ok_or("no run to compare")?;
            println!();
            let agree = compare_files(&first, &second, true);
            Ok(agree && !suite_failed(&first) && !suite_failed(&second))
        }
        Some(other) => Err(format!("unknown command `{other}` (run, compare, selfcheck)")),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&raw).and_then(|args| dispatch(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("dr-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
