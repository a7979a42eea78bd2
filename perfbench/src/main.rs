//! Controller-tick benchmark of the dadu-rbd workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ilqr_iiwa|mppi_atlas|lq_quadruped_arm> --seed <n> \
//!     --seconds <s> --trace <0|1> [--trace-out <file.json>]
//! ```
//!
//! Each workload runs one closed-loop controller: a tick starts only
//! after the previous one ended, as on a robot, with the host's available
//! parallelism as executor count. Every input (plant restarts and kicks,
//! MPPI noise seed, LQ sampling points) is generated from `--seed`.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` is the separate traced run: it times the tick's phases and
//! replays each layer's public entry points at the tick's visited states,
//! reports the per-layer metrics, attributes the tick to its layers and
//! writes the spans as a Chrome trace (Perfetto) file.
//!
//! Metric names and units come from `BENCHMARK.json`. The last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is non-zero when any
//! output check failed.

mod harness;
mod ilqr_iiwa;
mod json;
mod layers;
mod lq_quadruped_arm;
mod mppi_atlas;
mod spec;
mod stats;
mod trace;

use harness::{host_executors, LoopStats, Report, RunConfig};
use json::Json;
use spec::Spec;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// Per-layer metric prefixes of controller phases; a workload without
/// that controller reports them as 0 (the phase does not run).
const CONTROLLER_PREFIXES: [&str; 2] = ["ilqr.", "mppi."];

fn usage() -> String {
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]"
        .into()
}

fn parse_args(args: &[String], spec: &Spec) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    if !spec.workloads.iter().any(|w| w.name == workload) {
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        return Err(format!("unknown workload {workload:?}; one of {names:?}"));
    }
    let seed = seed.ok_or_else(usage)?;
    let trace_out = trace_out.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{workload}-seed{seed}.json"))
    });
    Ok(RunConfig {
        workload,
        seed,
        seconds: seconds.unwrap_or(spec.run_seconds as f64),
        trace: trace.unwrap_or(false),
        trace_out,
    })
}

/// Shared tail of every traced run: trace overhead, the phase holding
/// the unexplained remainder, and the trace file.
pub(crate) fn finish_traced(
    rep: &mut Report,
    tr: &Tracer,
    untraced: &LoopStats,
    traced: &LoopStats,
    holders: &[(&str, f64)],
    cfg: &RunConfig,
) -> Result<(), String> {
    rep.set(
        "trace.overhead_frac",
        traced.p50_ms() / untraced.p50_ms() - 1.0,
    );
    let (name, ms) = holders
        .iter()
        .copied()
        .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
        .expect("at least one phase");
    rep.line(format!(
        "attribution: unexplained ms/tick by phase (median): {}",
        holders
            .iter()
            .map(|(n, r)| format!("{n} {r:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    rep.line(format!(
        "attribution: the largest remainder is in `{name}` ({ms:.4} ms/tick)"
    ));
    let ticks: Vec<u32> = (0..tr.spans().len() as u32)
        .filter(|&i| tr.spans()[i as usize].name == "tick")
        .collect();
    let tick_us: Vec<f64> = ticks.iter().map(|&i| tr.spans()[i as usize].us()).collect();
    let self_us: Vec<f64> = ticks.iter().map(|&i| tr.self_us(i)).collect();
    rep.line(format!(
        "tick span: median {:.2} us, self time outside its phase spans {:.2} us",
        stats::median(&tick_us).unwrap_or(f64::NAN),
        stats::median(&self_us).unwrap_or(f64::NAN)
    ));
    rep.line(format!(
        "trace: traced p50 {:.4} ms vs untraced p50 {:.4} ms; {} spans ({} dropped)",
        traced.p50_ms(),
        untraced.p50_ms(),
        tr.spans().len(),
        tr.dropped()
    ));
    let meta = Json::obj([
        ("workload", Json::str(cfg.workload.as_str())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("executors", Json::Num(host_executors() as f64)),
        (
            "report",
            Json::Arr(rep.lines.iter().map(|l| Json::str(l.as_str())).collect()),
        ),
    ]);
    if let Some(dir) = cfg.trace_out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&cfg.trace_out, tr.chrome_trace(meta).write())
        .map_err(|e| format!("{}: {e}", cfg.trace_out.display()))?;
    rep.line(format!("trace file: {}", cfg.trace_out.display()));
    Ok(())
}

/// Checks the computed metrics against the declared list and builds the
/// result's `metrics` object in declaration order.
fn metrics_json(spec: &Spec, cfg: &RunConfig, rep: &mut Report) -> Result<Json, String> {
    let declared = if cfg.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut out = Vec::with_capacity(declared.len());
    for m in declared {
        let value = match rep.metrics.get(m.name.as_str()) {
            Some(v) => *v,
            None if cfg.trace && CONTROLLER_PREFIXES.iter().any(|p| m.name.starts_with(p)) => 0.0,
            None => return Err(format!("metric {} was not measured", m.name)),
        };
        if !value.is_finite() {
            return Err(format!("metric {} is not finite ({value})", m.name));
        }
        out.push((
            m.name.clone(),
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::str(m.unit.as_str())),
            ]),
        ));
    }
    if let Some(extra) = rep
        .metrics
        .keys()
        .find(|k| !declared.iter().any(|m| m.name == **k))
    {
        return Err(format!("metric {extra} is not declared in BENCHMARK.json"));
    }
    Ok(Json::Obj(out))
}

fn main() -> ExitCode {
    let spec = match Spec::parse(spec::BENCHMARK_JSON) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("BENCHMARK.json: {e}");
            return ExitCode::from(2);
        }
    };
    // A panicking tick counts as failed and the loop goes on; one line
    // per panic is enough.
    std::panic::set_hook(Box::new(|info| eprintln!("panic: {info}")));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args, &spec) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let mut rep = Report::default();
    rep.line(format!(
        "workload {} seed {} seconds {} trace {} executors {} nproc {}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        host_executors(),
        harness::host_cpus()
    ));
    let run = match cfg.workload.as_str() {
        "ilqr_iiwa" => ilqr_iiwa::run,
        "mppi_atlas" => mppi_atlas::run,
        "lq_quadruped_arm" => lq_quadruped_arm::run,
        other => unreachable!("workload {other} is declared but not implemented"),
    };
    let result = run(&cfg, &mut rep).and_then(|()| metrics_json(&spec, &cfg, &mut rep));
    for l in &rep.lines {
        println!("{l}");
    }
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("benchmark error: {e}");
            return ExitCode::from(2);
        }
    };
    let declared = if cfg.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    for m in declared {
        let v = metrics
            .get(&m.name)
            .and_then(|v| v.get("value"))
            .expect("just built");
        println!("{} = {} {}", m.name, v.write(), m.unit);
    }
    for f in &rep.check_failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = rep.failed == 0 && rep.check_failures.is_empty();
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(rep.attempted as f64)),
        ("failed", Json::Num(rep.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.write());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
