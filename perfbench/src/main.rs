//! The benchmark command.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_open --seed 1 --seconds 35 --trace 0
//! ```
//!
//! Run from the repository root. Prints one line per metric with its unit
//! and sample count, then one JSON result line; writes a run record (and,
//! traced, the spans) under `.bench_out/`. Exits 1 when a correctness
//! check fails and 2 on bad arguments.

use std::path::{Path, PathBuf};
use std::time::Duration;

use uae_perfbench::common::Ctx;
use uae_perfbench::report::{jstr, Report};
use uae_perfbench::{kernels, online_adapt, plan_join, serve_open, sys, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        std::process::exit(2);
    }
    let ctx = Ctx { seed: args.seed, seconds: args.seconds, traced: args.traced, out_dir };
    let mut report = Report::default();
    record_run(&mut report, &args);

    let (samples, widest_head) = match args.workload.as_str() {
        "serve_open" => (serve_open::SAMPLES, serve_open::run(&ctx, &mut report)),
        "plan_join" => (plan_join::SAMPLES, plan_join::run(&ctx, &mut report)),
        _ => (online_adapt::model_config().estimate_samples, online_adapt::run(&ctx, &mut report)),
    };
    report.field("pool_threads", uae_tensor::pool_threads().to_string());
    if args.traced {
        // S rows through the 128-wide hidden layer and the widest head.
        let k = kernels::measure(samples, 128, widest_head, Duration::from_millis(400));
        let alias = format!("S={samples}, hidden 128, head {widest_head}");
        report.set_as("simd.matmul_us", k.matmul_us, k.calls, Some(&alias));
        report.set("simd.matmul_mflop", k.matmul_mflop, k.calls);
        report.set("simd.matmul_kb", k.matmul_kb, k.calls);
        report.set_as("simd.softmax_us", k.softmax_us, k.calls, Some(&alias));
        report.set("simd.softmax_kelems", k.softmax_kelems, k.calls);
        report.set("simd.softmax_kb", k.softmax_kb, k.calls);
    }
    match sys::peak_rss_mb() {
        Some(mb) => report.set("peak_rss_mb", mb, 1),
        None => report.check("peak RSS readable", false, "/proc/self/status has no VmHWM"),
    }
    report.check(
        "at least one operation attempted",
        report.attempted >= 1,
        format!("{} attempted", report.attempted),
    );

    let (lines, result) = report.render(args.traced);
    let record = ctx.out_dir.join(format!(
        "run-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.traced)
    ));
    if let Err(e) = std::fs::write(&record, report.record_json()) {
        eprintln!("perfbench: cannot write {}: {e}", record.display());
    }
    for line in lines {
        println!("{line}");
    }
    println!("{result}");
    std::process::exit(if report.correct() { 0 } else { 1 });
}

/// The run record's fixed fields: what ran, where, and on what.
fn record_run(report: &mut Report, args: &Args) {
    report.field("workload", jstr(&args.workload));
    report.field("seed", args.seed.to_string());
    report.field("seconds", args.seconds.to_string());
    report.field("traced", args.traced.to_string());
    report.field("commit", jstr(&sys::commit(Path::new("."))));
    report.field("simd_backend", jstr(&format!("{:?}", uae_tensor::simd::backend())));
    report.field("avx2_available", uae_tensor::simd::avx2_available().to_string());
    report.field("nproc", sys::nproc().to_string());
    report.field("UAE_FORCE_SCALAR", jstr(&sys::env_or_unset("UAE_FORCE_SCALAR")));
    report.field("UAE_POOL_THREADS", jstr(&sys::env_or_unset("UAE_POOL_THREADS")));
    report.notes.push(format!(
        "workload {} seed {} seconds {} traced {} backend {:?} avx2 {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        args.traced,
        uae_tensor::simd::backend(),
        uae_tensor::simd::avx2_available(),
        sys::nproc()
    ));
}
