//! Command line of the benchmark. See README.md.

use authz_bench::catalog::{benchmark_json, END_TO_END, RUN_SECONDS};
use authz_bench::output::{describe, result_json, run_one, RunOutput};
use authz_bench::run::Config;
use authz_bench::workloads::WORKLOADS;
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str = "\
authz-bench: end-to-end and per-layer benchmark for the OWTE authorization stack

  authz-bench [--seed N] [--trace] [--scale F] [--repeat N] [--workload NAME]
  authz-bench --workload NAME --seed N --seconds S --trace 0|1
  authz-bench --describe

  --workload NAME  run one workload; its last output line is one JSON object
                   {correct, attempted, failed, metrics}
                   (without it, every workload runs in turn)
  --seed N         seed for the fixture and the traces (default 42)
  --seconds S      length of the measured phase (default 10)
  --scale F        multiply --seconds by F and, below 0.1, set up once
  --trace [0|1]    also record spans (on alternate slices), run the layer
                   probes, report the per-layer metrics in place of the
                   end-to-end ones and write trace-<workload>.json
  --repeat N       run everything N times; print median, quartiles and
                   relative spread per metric and PASS/FAIL against its bound
  --describe       print the catalogue as BENCHMARK.json and exit
";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    scale: f64,
    trace: bool,
    repeat: usize,
}

fn parse(
    mut argv: std::iter::Peekable<impl Iterator<Item = String>>,
) -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        scale: 1.0,
        trace: false,
        repeat: 1,
    };
    fn value<T: std::str::FromStr>(
        flag: &str,
        argv: &mut impl Iterator<Item = String>,
    ) -> Result<T, String> {
        let raw = argv.next().ok_or(format!("{flag} needs a value"))?;
        raw.parse()
            .map_err(|_| format!("{flag}: cannot read `{raw}`"))
    }
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&flag, &mut argv)?),
            "--seed" => args.seed = value(&flag, &mut argv)?,
            "--seconds" => args.seconds = value(&flag, &mut argv)?,
            "--scale" => args.scale = value(&flag, &mut argv)?,
            "--repeat" => args.repeat = value(&flag, &mut argv)?,
            "--trace" => {
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                }
            }
            "--describe" => {
                print!("{}", benchmark_json());
                return Ok(None);
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0 && args.scale > 0.0 && args.repeat >= 1) {
        return Err("--seconds must be in (0, 60], --scale positive, --repeat at least 1".into());
    }
    if let Some(name) = &args.workload {
        if !WORKLOADS.iter().any(|(w, _)| w == name) {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!(
                "unknown workload `{name}`; known: {}",
                known.join(", ")
            ));
        }
    }
    Ok(Some(args))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (exclusive method), which is what the acceptance rule is stated in.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only, only);
    }
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

fn print_repeat_summary(
    runs: &BTreeMap<(String, String), Vec<f64>>,
    order: &[(String, String)],
) -> bool {
    println!("== repeatability: interquartile range as a share of the median, against each bound");
    let mut all_within = true;
    for key in order {
        let values = &runs[key];
        let (q1, q2, q3) = quartiles(values);
        let spread = if q2 != 0.0 { (q3 - q1) / q2.abs() } else { 0.0 };
        let bound = END_TO_END.iter().find(|e| e.name == key.1).map(|e| e.bound);
        let verdict = match bound {
            // Set-up time is reported but its spread is not gated.
            Some(_) if key.1 == "setup_s" => "    ",
            Some(b) if spread <= b => "PASS",
            Some(_) => {
                all_within = false;
                "FAIL"
            }
            None => "    ",
        };
        println!(
            "   {:<18} {:<34} median {:>14.4}  q1 {:>14.4}  q3 {:>14.4}  spread {:>6.2} %{}  {verdict}",
            key.0,
            key.1,
            q2,
            q1,
            q3,
            spread * 100.0,
            bound.map_or(String::new(), |b| format!("  bound {:.0} %", b * 100.0)),
        );
    }
    all_within
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1).peekable()) {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("authz-bench: {message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds * args.scale,
        trace: args.trace,
        setup_reps: if args.scale < 0.1 { 1 } else { 5 },
    };
    println!(
        "authz-bench: fixture ent200 from seed {}, at most 2 load threads, available parallelism {}",
        cfg.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let names: Vec<String> = match &args.workload {
        Some(name) => vec![name.clone()],
        None => WORKLOADS.iter().map(|w| w.0.to_string()).collect(),
    };

    let mut all_correct = true;
    let mut last: Option<RunOutput> = None;
    let mut samples: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut order = Vec::new();
    for round in 0..args.repeat {
        if args.repeat > 1 {
            println!("-- round {} of {}", round + 1, args.repeat);
        }
        for name in &names {
            let out = run_one(name, &cfg).expect("workload names were validated");
            print!("{}", describe(&out));
            all_correct &= out.report.correct();
            for m in &out.metrics {
                let key = (name.clone(), m.name.to_string());
                if !samples.contains_key(&key) {
                    order.push(key.clone());
                }
                samples.entry(key).or_default().push(m.value);
            }
            last = Some(out);
        }
    }
    let mut repeatable = true;
    if args.repeat > 1 {
        repeatable = print_repeat_summary(&samples, &order);
    }
    println!(
        "authz-bench: {}",
        if all_correct {
            "every output matched its oracle"
        } else {
            "SOME OUTPUTS WERE WRONG (see FAILED above)"
        }
    );
    match (&args.workload, last) {
        // Driver mode: the result line carries correctness; the run itself
        // completed.
        (Some(_), Some(out)) if args.repeat == 1 => {
            println!("{}", result_json(&out));
            ExitCode::SUCCESS
        }
        _ if all_correct && repeatable => ExitCode::SUCCESS,
        _ => ExitCode::FAILURE,
    }
}
