//! The suite commands: every workload in a child process of its own (so that
//! `VmHWM` is per workload), the results document, its validation against
//! `BENCHMARK.json`, and the two-set self check.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use crate::json::{self, Json};
use crate::workloads::SPECS;
use crate::{measure, Args, END_TO_END};

/// What one child run printed: its result line and its exact counters.
struct ChildRun {
    result: Json,
    counters: Json,
    elapsed_s: f64,
}

/// Run one workload in a child process, echoing its output as it arrives.
fn spawn(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut lines = Vec::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading {workload}: {e}"))?;
        // The result line is for machines; everything else is the report.
        if !line.starts_with('{') {
            println!("{line}");
        }
        lines.push(line);
    }
    let status = child.wait().map_err(|e| format!("waiting for {workload}: {e}"))?;
    if !status.success() {
        return Err(format!("{workload} exited with {status}"));
    }
    let result = lines.last().ok_or(format!("{workload} printed nothing"))?;
    let counters = lines
        .iter()
        .find_map(|l| l.strip_prefix("counters: "))
        .ok_or(format!("{workload} printed no counters line"))?;
    Ok(ChildRun {
        result: json::parse(result)?,
        counters: json::parse(counters)?,
        elapsed_s: start.elapsed().as_secs_f64(),
    })
}

/// One pass over all workloads; returns `workload -> child run` and prints
/// the time budget.
fn pass(seed: u64, seconds: f64, traced: bool) -> Result<BTreeMap<&'static str, ChildRun>, String> {
    let start = Instant::now();
    let mut runs = BTreeMap::new();
    for spec in &SPECS {
        runs.insert(spec.name, spawn(spec.name, seed, seconds, traced)?);
    }
    let kind = if traced { "traced" } else { "untraced" };
    for (name, run) in &runs {
        println!("{kind} {name}: {:.1} s", run.elapsed_s);
    }
    println!("{kind} suite total: {:.1} s", start.elapsed().as_secs_f64());
    Ok(runs)
}

fn benchmark_json() -> Result<Json, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path:?}: {e}"))?;
    json::parse(&text)
}

fn metric_value(run: &ChildRun, name: &str) -> Option<f64> {
    run.result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// The results document of a suite run.
fn results_document(
    seed: u64,
    seconds: f64,
    untraced: &BTreeMap<&'static str, ChildRun>,
    traced: Option<&BTreeMap<&'static str, ChildRun>>,
) -> Json {
    let workloads = untraced.iter().map(|(name, run)| {
        let mut entry = BTreeMap::from([
            ("end_to_end".to_string(), run.result.get("metrics").cloned().unwrap_or(Json::Null)),
            ("counters".to_string(), run.counters.clone()),
            ("elapsed_s".to_string(), Json::Num(run.elapsed_s)),
        ]);
        for key in ["correct", "attempted", "failed"] {
            entry.insert(key.to_string(), run.result.get(key).cloned().unwrap_or(Json::Null));
        }
        if let Some(t) = traced.and_then(|t| t.get(name)) {
            entry.insert(
                "per_layer".to_string(),
                t.result.get("metrics").cloned().unwrap_or(Json::Null),
            );
            entry.insert("traced_elapsed_s".to_string(), Json::Num(t.elapsed_s));
        }
        (*name, Json::Obj(entry))
    });
    Json::object([
        // The change that defines the benchmark claims no gain.
        ("claim", Json::Null),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("threads", Json::Num(measure::threads() as f64)),
        ("workloads", Json::object(workloads)),
    ])
}

fn declared_names(benchmark: &Json, section: &str) -> Vec<String> {
    benchmark
        .get(section)
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_string))
        .collect()
}

/// Every way `results` falls short of what `benchmark` (the parsed
/// `BENCHMARK.json`) declares: a missing cell, a bad name, a value that is
/// not a finite non-negative number where one is required, a workload with
/// no operations or no accepted eigenpair.  `with_layers` demands the
/// per-layer section too.
pub fn validate(results: &Json, benchmark: &Json, with_layers: bool) -> Vec<String> {
    let mut problems = Vec::new();
    let name_ok = |n: &str| {
        !n.is_empty() && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let sections: &[&str] =
        if with_layers { &["end_to_end", "per_layer"] } else { &["end_to_end"] };
    for workload in declared_names(benchmark, "workloads") {
        let Some(entry) = results.get("workloads").and_then(|w| w.get(&workload)) else {
            problems.push(format!("workload {workload} is missing"));
            continue;
        };
        for section in sections {
            for metric in declared_names(benchmark, section) {
                if !name_ok(&metric) {
                    problems.push(format!(
                        "metric name {metric:?} has a character outside [A-Za-z0-9_.-]"
                    ));
                }
                let value = entry
                    .get(section)
                    .and_then(|s| s.get(&metric))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64);
                match value {
                    None => problems.push(format!("{workload}/{metric}: missing or not a number")),
                    Some(v) if !v.is_finite() => {
                        problems.push(format!("{workload}/{metric}: not finite"));
                    }
                    // Times, sizes and counts cannot be negative; a share
                    // that came out negative (unattributed, vector ops,
                    // tracing overhead within noise) is a finding, not a
                    // malformed document.
                    Some(v)
                        if v < 0.0 && !(metric.ends_with("share") || metric.ends_with("frac")) =>
                    {
                        problems.push(format!("{workload}/{metric}: negative ({v})"));
                    }
                    Some(_) => {}
                }
            }
        }
        let number = |key: &str| entry.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        if number("attempted") < 1.0 {
            problems.push(format!("{workload}: no operation attempted"));
        }
        let accepted =
            entry.get("counters").and_then(|c| c.get("core.accepted")).and_then(Json::as_f64);
        if accepted.unwrap_or(0.0) < 1.0 {
            problems.push(format!("{workload}: no eigenpair accepted"));
        }
    }
    problems
}

/// `run [--traced]`: the suite, `out/results.json`, and the cross-workload
/// numbers only the suite can form.
pub fn run(args: &Args) -> Result<ExitCode, String> {
    let (seed, seconds) = (args.seed()?, args.seconds()?);
    let with_layers = args.traced;
    let untraced = pass(seed, seconds, false)?;
    let traced = if with_layers { Some(pass(seed, seconds, true)?) } else { None };

    let wall = |name: &str| untraced.get(name).and_then(|r| metric_value(r, "solve_wall_s"));
    if let (Some(serial), Some(threaded)) = (wall("cnt80_solve_mf"), wall("cnt80_solve_mf_par")) {
        let threads = measure::threads();
        println!(
            "parallel.speedup (untraced medians) = {:.3} x on {threads} threads, efficiency {:.3}",
            serial / threaded,
            serial / threaded / threads as f64
        );
    }
    if let Some(traced) = &traced {
        for (name, t) in traced {
            if let (Some(on), Some(off)) = (metric_value(t, "trace.run_wall_s"), wall(name)) {
                println!(
                    "{name}: traced run {on:.4} s vs untraced median {off:.4} s ({:+.2}%), \
                     trace.overhead_frac {:+.4}",
                    (on / off - 1.0) * 100.0,
                    metric_value(t, "trace.overhead_frac").unwrap_or(f64::NAN)
                );
            }
        }
    }

    let results = results_document(seed, seconds, &untraced, traced.as_ref());
    let path = crate::out_dir().join("results.json");
    std::fs::write(&path, results.encode() + "\n").map_err(|e| format!("{path:?}: {e}"))?;
    println!("wrote {}", path.display());
    let mut problems = validate(&results, &benchmark_json()?, with_layers);
    for (name, run) in &untraced {
        if run.result.get("correct") != Some(&Json::Bool(true)) {
            problems.push(format!("{name}: result is not correct"));
        }
    }
    for p in &problems {
        eprintln!("results.json: {p}");
    }
    Ok(if problems.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `selfcheck`: the untraced suite twice, back to back.  The two sets must
/// agree within each metric's declared bound, and every exact counter must
/// be identical.
pub fn selfcheck(args: &Args) -> Result<ExitCode, String> {
    let (seed, seconds) = (args.seed()?, args.seconds()?);
    let benchmark = benchmark_json()?;
    let bounds: BTreeMap<String, f64> = benchmark
        .get("end_to_end")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?.to_string(), m.get("bound")?.as_f64()?)))
        .collect();
    let first = pass(seed, seconds, false)?;
    let second = pass(seed, seconds, false)?;
    let mut disagreements = 0;
    for (name, a) in &first {
        let b = &second[name];
        for (metric, _) in END_TO_END {
            let (va, vb) = (metric_value(a, metric), metric_value(b, metric));
            let (Some(va), Some(vb)) = (va, vb) else {
                return Err(format!("{name}/{metric}: missing from a result line"));
            };
            let bound = *bounds.get(*metric).ok_or(format!("{metric}: no bound declared"))?;
            let relative = (vb - va).abs() / va.abs();
            let verdict = if relative <= bound { "ok" } else { "DISAGREE" };
            println!(
                "{name:<20} {metric:<14} {va:>14.6} {vb:>14.6}  {:>7.3}% (bound {:.1}%) {verdict}",
                relative * 100.0,
                bound * 100.0
            );
            disagreements += usize::from(relative > bound);
        }
        if a.counters != b.counters {
            println!(
                "{name}: exact counters differ: {} vs {} DISAGREE",
                a.counters.encode(),
                b.counters.encode()
            );
            disagreements += 1;
        }
    }
    println!("selfcheck: {disagreements} disagreement(s)");
    Ok(if disagreements == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers;

    /// A results document with every declared cell, as a clean run writes it.
    fn complete_document(benchmark: &Json) -> Json {
        let cell = || Json::object([("value", Json::Num(1.5)), ("unit", Json::Str("s".into()))]);
        let section = |key: &str| {
            Json::object(declared_names(benchmark, key).into_iter().map(|m| (m, cell())))
        };
        let workloads = declared_names(benchmark, "workloads").into_iter().map(|w| {
            let entry = Json::object([
                ("end_to_end", section("end_to_end")),
                ("per_layer", section("per_layer")),
                ("counters", Json::object([("core.accepted", Json::Num(2.0))])),
                ("attempted", Json::Num(10.0)),
            ]);
            (w, entry)
        });
        Json::object([("claim", Json::Null), ("workloads", Json::object(workloads))])
    }

    fn set(doc: &mut Json, path: &[&str], value: Option<Json>) {
        let Json::Obj(map) = doc else { panic!("not an object at {path:?}") };
        match (path, value) {
            ([last], Some(v)) => drop(map.insert(last.to_string(), v)),
            ([last], None) => drop(map.remove(*last)),
            ([head, rest @ ..], v) => set(map.get_mut(*head).expect("path exists"), rest, v),
            ([], _) => unreachable!(),
        }
    }

    /// `BENCHMARK.json` declares exactly what the code emits, and the
    /// validation both accepts a complete document and catches each kind of
    /// defect.
    #[test]
    fn declared_metrics_match_the_code_and_validation_bites() {
        let benchmark = benchmark_json().expect("BENCHMARK.json parses");
        let names =
            |table: &[(&str, &str)]| table.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(declared_names(&benchmark, "end_to_end"), names(END_TO_END));
        assert_eq!(declared_names(&benchmark, "per_layer"), names(layers::PER_LAYER));
        let specs: Vec<String> = SPECS.iter().map(|s| s.name.to_string()).collect();
        assert_eq!(declared_names(&benchmark, "workloads"), specs);
        for (section, table) in [("end_to_end", END_TO_END), ("per_layer", layers::PER_LAYER)] {
            for (m, (_, unit)) in
                benchmark.get(section).unwrap().as_array().unwrap().iter().zip(table)
            {
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{m:?}");
            }
        }

        let good = complete_document(&benchmark);
        assert_eq!(validate(&good, &benchmark, true), Vec::<String>::new());

        let w = SPECS[0].name;
        let mut doc = good.clone();
        set(&mut doc, &["workloads", w, "end_to_end", "cpu_s"], None);
        assert_eq!(validate(&doc, &benchmark, true).len(), 1);
        let mut doc = good.clone();
        set(
            &mut doc,
            &["workloads", w, "per_layer", "dft.build_ms", "value"],
            Some(Json::Num(-1.0)),
        );
        assert_eq!(validate(&doc, &benchmark, true).len(), 1);
        assert!(validate(&doc, &benchmark, false).is_empty(), "layers are not demanded untraced");
        let mut doc = good.clone();
        // A NaN is encoded as null, which must not pass for a number.
        set(
            &mut doc,
            &["workloads", w, "end_to_end", "solve_wall_s", "value"],
            Some(Json::Num(f64::NAN)),
        );
        let reparsed = json::parse(&doc.encode()).expect("encodes to valid JSON");
        assert_eq!(validate(&reparsed, &benchmark, true).len(), 1);
        let mut doc = good.clone();
        set(&mut doc, &["workloads", w, "attempted"], Some(Json::Num(0.0)));
        set(&mut doc, &["workloads", w, "counters", "core.accepted"], Some(Json::Num(0.0)));
        assert_eq!(validate(&doc, &benchmark, true).len(), 2);
        let mut doc = good;
        set(&mut doc, &["workloads", SPECS[3].name], None);
        assert_eq!(validate(&doc, &benchmark, true).len(), 1);
    }
}
