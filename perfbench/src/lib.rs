//! Seeded end-to-end benchmark of the bright-silicon workspace with
//! outside-in layer tracing. See `perfbench/README.md` for the
//! workloads, the metrics and what each layer metric should move.

pub mod common;
pub mod cosim;
pub mod pipeline;
pub mod service;
pub mod transient;
pub mod yield_mc;

use common::{Args, Outcome};

/// Runs one workload; returns its outcome and the run record.
#[must_use]
pub fn run(args: &Args) -> (Outcome, bright_jsonio::Value) {
    let (mut outcome, extra) = match args.workload.as_str() {
        "cosim_sweep" => cosim::run(args),
        "yield_mc" => yield_mc::run(args),
        "service_small_jobs" => service::run(args),
        other => unreachable!("workload '{other}' was validated by Args::parse"),
    };
    if args.trace && outcome.correct {
        outcome.metrics = common::per_layer(outcome.metrics);
    }
    let record = common::run_record(args, outcome.attempted, extra);
    (outcome, record)
}
