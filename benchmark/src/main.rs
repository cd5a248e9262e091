//! The repo benchmark.  See `README.md` for the metric and workload tables.
//!
//! ```text
//! cbs-benchmark --workload W --seed N --seconds S --trace 0|1
//!     one workload in this process; the last stdout line is the result JSON
//! cbs-benchmark run [--traced] [--seed N] [--seconds S]
//!     every workload, each in a child process; writes out/results.json
//! cbs-benchmark selfcheck [--seed N] [--seconds S]
//!     the untraced suite twice; fails if the two disagree beyond the bounds
//! cbs-benchmark reference [--workload W]
//!     regenerate the committed reference eigenvalues
//! ```

mod json;
mod layers;
mod measure;
mod oracle;
mod suite;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use layers::Counters;
use oracle::Verdict;
use workloads::{Call, Spec, System};

/// Every end-to-end metric with its unit, as `BENCHMARK.json` declares them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("solve_wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "frac"),
];

/// The source-block seed `SsConfig::paper()` uses.
const DEFAULT_SEED: u64 = 0x5a5a_5a5a;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

/// Where the traced pass and the suite write (`benchmark/out`, git-ignored).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("benchmark/out can be created");
    dir
}

/// Parsed command line: the subcommand, if any, and the flags.
pub struct Args {
    subcommand: Option<String>,
    values: BTreeMap<String, String>,
    /// `--traced`: `run` adds the traced pass.
    pub traced: bool,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args { subcommand: None, values: BTreeMap::new(), traced: false };
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                Some("traced") => args.traced = true,
                Some(flag @ ("workload" | "seed" | "seconds" | "trace")) => {
                    let value = raw.next().ok_or(format!("--{flag} needs a value"))?;
                    args.values.insert(flag.to_string(), value);
                }
                Some(_) => return Err(format!("unknown flag {a}")),
                None if args.subcommand.is_none() => args.subcommand = Some(a),
                None => return Err(format!("unexpected argument {a}")),
            }
        }
        Ok(args)
    }

    pub fn workload(&self) -> Result<Option<&'static Spec>, String> {
        self.values
            .get("workload")
            .map(|name| workloads::find(name).ok_or(format!("unknown workload {name}")))
            .transpose()
    }

    pub fn seed(&self) -> Result<u64, String> {
        self.values.get("seed").map_or(Ok(DEFAULT_SEED), |s| {
            s.parse().map_err(|_| format!("--seed {s}: not an unsigned integer"))
        })
    }

    pub fn seconds(&self) -> Result<f64, String> {
        let s = self.values.get("seconds").map_or(Ok(DEFAULT_SECONDS), |s| {
            s.parse::<f64>().map_err(|_| format!("--seconds {s}: not a number"))
        })?;
        if s > 0.0 && s <= 600.0 {
            Ok(s)
        } else {
            Err(format!("--seconds {s}: out of range (0, 600]"))
        }
    }

    fn trace(&self) -> Result<bool, String> {
        match self.values.get("trace").map(String::as_str) {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(other) => Err(format!("--trace {other}: expected 0 or 1")),
        }
    }
}

/// The untraced pass of one workload: set-up rebuilt repeatedly, then the
/// one library call in a closed loop (one client) for `seconds`.
fn untraced_pass(
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
) -> (BTreeMap<&'static str, f64>, Verdict, Counters) {
    // Set-up is 0.5..40 ms here, so one build is too short to time: rebuild
    // from scratch at least 5 times and for at least 2 s, report the median.
    // All of it before the first solve, as a user meets it: once the solves
    // have grown the heap, a rebuild skips its page faults and runs up to
    // 25% faster, on some runs and not on others.
    let build = || {
        let sys = System::build(spec);
        let (h00, h01) = (sys.h.h00(), sys.h.h01());
        drop(std::hint::black_box(Call::prepare(spec, &sys, &h00, &h01, seed)));
        sys
    };
    let mut setups = Vec::new();
    let setup_start = Instant::now();
    let sys = loop {
        let (sys, s) = measure::timed(build);
        setups.push(s);
        if setups.len() >= 5 && setup_start.elapsed().as_secs_f64() >= 2.0 {
            break sys;
        }
    };
    let (lo, hi) = measure::min_max(&setups);
    println!("  setup: {} builds, min {lo:.6} s, max {hi:.6} s", setups.len());

    let (h00, h01) = (sys.h.h00(), sys.h.h01());
    let call = Call::prepare(spec, &sys, &h00, &h01, seed);
    if spec.warmup {
        call.run(spec.parallel);
    }
    let (mut walls, mut cpu, mut total) = (Vec::new(), 0.0, Verdict::default());
    let mut counters = None;
    let loop_start = Instant::now();
    while walls.is_empty() || loop_start.elapsed().as_secs_f64() < seconds {
        let cpu_before = measure::cpu_seconds();
        let (output, wall) = measure::timed(|| call.run(spec.parallel));
        cpu += measure::cpu_seconds() - cpu_before;
        walls.push(wall);
        // Checked outside the timed region, every repetition.
        let verdict = oracle::check(spec, &sys, &output);
        total.absorb(&verdict);
        let these = Counters::of(&output);
        if counters.is_some_and(|c: Counters| !c.same_counts(&these)) {
            // The library promises run-to-run determinism; a drift is a
            // failed operation, not noise.
            total.attempted += 1;
            total.failed += 1;
        }
        counters = Some(these);
    }
    let (lo, hi) = measure::min_max(&walls);
    let wall = measure::median(&walls);
    println!(
        "  solve: {} timed reps{}, min {lo:.4} s, max {hi:.4} s; samples {:?}",
        walls.len(),
        if spec.warmup { " after 1 warm-up" } else { "" },
        walls.iter().map(|w| (w * 1e4).round() / 1e4).collect::<Vec<_>>()
    );
    let metrics = BTreeMap::from([
        ("solve_wall_s", wall),
        // CPU per wall second over all timed reps, times the median wall:
        // the process clock ticks at 10 ms, too coarse for one short rep,
        // and a plain mean would let one disturbed rep move the metric.
        ("cpu_s", cpu / walls.iter().sum::<f64>() * wall),
        ("setup_s", measure::median(&setups)),
        ("peak_rss_mib", measure::peak_rss_mib()),
        ("ok_frac", 1.0 - total.failed as f64 / total.attempted as f64),
    ]);
    (metrics, total, counters.expect("at least one repetition ran"))
}

fn one_workload(args: &Args) -> Result<ExitCode, String> {
    let spec = args.workload()?.ok_or("--workload is required")?;
    let (seed, seconds, trace) = (args.seed()?, args.seconds()?, args.trace()?);
    let start = Instant::now();
    println!(
        "workload {} seed {seed} seconds {seconds} trace {} executor {} threads {}",
        spec.name,
        u8::from(trace),
        if spec.parallel { "rayon" } else { "serial" },
        if spec.parallel { measure::threads() } else { 1 },
    );
    let (table, metrics, verdict, counters) = if trace {
        let dir = out_dir();
        let (pass, tracer) = layers::traced_pass(spec, seed, &dir);
        let path = dir.join(format!("trace_{}.json", spec.name));
        std::fs::write(&path, tracer.chrome_trace()).map_err(|e| format!("{path:?}: {e}"))?;
        println!("  wrote {} spans to {}", tracer.spans.len(), path.display());
        for note in &pass.notes {
            println!("  {note}");
        }
        (layers::PER_LAYER, pass.metrics, pass.verdict, pass.counters)
    } else {
        let (metrics, verdict, counters) = untraced_pass(spec, seed, seconds);
        (END_TO_END, metrics, verdict, counters)
    };
    for (name, unit) in table {
        println!("  {name:<36} = {:>16.6} {unit}", metrics[name]);
    }
    println!(
        "  ops: attempted {} failed {} (linear solves capped by majority stop {}, nonconverged \
         {}); eigenpairs {} of {} expected, worst residual {:.3e}, worst |dλ| {:.3e} (tol {:.0e})",
        verdict.attempted,
        verdict.failed,
        verdict.capped,
        verdict.nonconverged,
        verdict.pairs,
        spec.expected_pairs,
        verdict.worst_residual,
        verdict.worst_lambda_dev,
        spec.lambda_tol
    );
    println!("  elapsed {:.1} s", start.elapsed().as_secs_f64());
    println!("counters: {}", counters.to_json().encode());
    let correct = verdict.failed == 0 && counters.accepted > 0;
    let result = Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(verdict.attempted as f64)),
        ("failed", Json::Num(verdict.failed as f64)),
        (
            "metrics",
            Json::object(table.iter().map(|&(name, unit)| {
                let cell = [("value", Json::Num(metrics[name])), ("unit", Json::Str(unit.into()))];
                (name, Json::object(cell))
            })),
        ),
    ]);
    println!("{}", result.encode());
    Ok(ExitCode::SUCCESS)
}

fn reference(args: &Args) -> Result<ExitCode, String> {
    let only = args.workload()?;
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("reference");
    let mut written = Vec::new();
    for spec in workloads::SPECS.iter().filter(|s| only.is_none_or(|o| o.name == s.name)) {
        let (file, _) = spec.reference;
        if written.contains(&file) {
            continue;
        }
        println!("{}: generating {file} ...", spec.name);
        let (text, seconds) = measure::timed(|| oracle::generate_reference(spec));
        let path = dir.join(file);
        std::fs::write(&path, &text).map_err(|e| format!("{path:?}: {e}"))?;
        println!("  {} eigenvalues in {seconds:.1} s", oracle::parse_reference(&text).len());
        written.push(file);
    }
    println!("rebuild before the next run: the references are compiled in");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    // All inputs are flags.  The library reads CBS_* knobs on its own, so
    // a stray one would silently change what is measured: drop them.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("CBS_") {
            eprintln!("ignoring environment variable {}", key.to_string_lossy());
            std::env::remove_var(&key);
        }
    }
    let outcome =
        Args::parse(std::env::args().skip(1)).and_then(|args| match args.subcommand.as_deref() {
            None => one_workload(&args),
            Some("run") => suite::run(&args),
            Some("selfcheck") => suite::selfcheck(&args),
            Some("reference") => reference(&args),
            Some(other) => Err(format!("unknown subcommand {other}")),
        });
    outcome.unwrap_or_else(|message| {
        eprintln!("error: {message}");
        ExitCode::from(2)
    })
}
