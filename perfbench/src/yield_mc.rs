//! `yield_mc`: `montecarlo::run` of the POWER7+ tolerance study at a
//! fixed sample count and chunk size. Every sample is a fresh operating
//! point, so the time goes to geometry retargets, duct-solve cache
//! misses, the 1 V array solve and the banded-Cholesky PDN; there is no
//! polarization sweep.

use crate::common::{median, nproc, timed, Args, Inputs, Metrics, Outcome, Requests, SETUPS};
use crate::pipeline::{Headline, Pipeline, SpanLog, Spans};
use bright_core::montecarlo::{self, apply_sample};
use bright_core::{CoSimulation, McReport, McSpec, Scenario, YieldReport};
use bright_flowcell::GeometryCache;
use bright_jsonio::Value;
use bright_num::CorrelatedSampler;
use std::sync::Arc;
use std::time::Instant;

/// Samples per study (one request).
pub const SAMPLES: usize = 16;

/// Samples per dispatch chunk. Each chunk cold-builds one
/// `CoSimulation` and serves the rest of its samples by retarget, so a
/// study pays `SAMPLES / CHUNK` cold builds whatever the host; the
/// traced run reports their share of a study (`montecarlo.cold_build_share`).
pub const CHUNK: usize = 8;

/// Relative tolerance between the recomposed and the production
/// sample scalars (both solve from cold warm starts).
const RECOMPOSE_TOL: f64 = 1e-6;

/// Monte Carlo worker threads per study: one per chunk, at most the
/// host's hardware threads.
#[must_use]
pub fn workers() -> usize {
    nproc().clamp(1, SAMPLES / CHUNK)
}

/// The tolerance study of request `k`: a fresh seed per request.
#[must_use]
pub fn study(inputs: &Inputs, k: u64) -> McSpec {
    McSpec {
        samples: SAMPLES,
        seed: inputs.bits(k),
        chunk: CHUNK,
        workers: Some(workers()),
        ..McSpec::power7_tolerances(Scenario::power7_nominal())
    }
}

/// Digest of a report's canonical JSON text (FNV-1a).
#[must_use]
pub fn digest(r: &McReport) -> u64 {
    bright_jsonio::checksummed::fnv1a64(r.to_json().to_json_string().as_bytes())
}

/// Output checks of one study: every sample evaluated, none failed or
/// invalid, every statistic finite, peaks above the coolant.
///
/// # Errors
///
/// The first violated check.
pub fn check(r: &McReport, spec: &McSpec) -> Result<(), String> {
    if r.samples != spec.samples as u64
        || r.evaluated != r.samples
        || r.failed != 0
        || r.invalid != 0
    {
        return Err(format!(
            "samples {} evaluated {} failed {} invalid {}",
            r.samples, r.evaluated, r.failed, r.invalid
        ));
    }
    let stats_finite = r
        .metrics
        .iter()
        .all(|m| m.mean.is_finite() && m.std_dev.is_finite())
        && r.field_mean
            .iter()
            .chain(&r.field_std)
            .all(|v| v.is_finite());
    if !stats_finite {
        return Err("non-finite statistic".into());
    }
    let inlet_lo = spec.base.inlet_temperature.value() - 2.0;
    if r.peak_temperature
        .p
        .iter()
        .any(|&p| p.is_nan() || p <= inlet_lo)
    {
        return Err(format!(
            "peak quantiles {:?} not above the inlet",
            r.peak_temperature.p
        ));
    }
    Ok(())
}

/// Runs the workload; returns the outcome and workload-specific record
/// entries.
pub fn run(args: &Args) -> (Outcome, Vec<(String, Value)>) {
    let inputs = Inputs::new(args.seed, 2);
    let record = vec![
        (
            "mc_samples_per_request".to_string(),
            Value::Number(SAMPLES as f64),
        ),
        ("mc_chunk".to_string(), Value::Number(CHUNK as f64)),
    ];
    if args.trace {
        let (outcome, mut extra) = traced(args, &inputs);
        extra.extend(record);
        return (outcome, extra);
    }
    // Set-up: the first study from a cold process, repeated; the
    // repeats share a seed, so their reports must be bitwise equal.
    let mut setup = Requests::default();
    let mut setups = Vec::new();
    let mut digests = Vec::new();
    let spec = study(&inputs, 0);
    for _ in 0..SETUPS {
        let (ms, out) = timed(|| montecarlo::run(&spec));
        setups.push(ms / 1e3);
        setup.attempted += 1;
        match out {
            Ok(r) => {
                if let Err(e) = check(&r.report, &spec) {
                    setup.fail(&e);
                }
                digests.push(digest(&r.report));
            }
            Err(e) => setup.fail(&e.to_string()),
        }
    }
    if digests.windows(2).any(|w| w[0] != w[1]) {
        setup.fail(&format!("same-seed McReport digests differ: {digests:x?}"));
    }
    let mut timing = Requests::default();
    let start = Instant::now();
    let mut k = 1;
    while start.elapsed().as_secs_f64() < args.seconds || k < 4 {
        let spec = study(&inputs, k);
        if let Some(r) = timing.serve(|| montecarlo::run(&spec).map_err(|e| e.to_string())) {
            if let Err(e) = check(&r.report, &spec) {
                timing.fail(&e);
            }
        }
        k += 1;
    }
    let outcome = Outcome::of(
        &[&setup, &timing],
        crate::common::end_to_end(&setups, &timing),
    );
    (outcome, record)
}

fn headline(r: &YieldReport) -> Headline {
    Headline {
        peak_k: r.peak_temperature.value(),
        current_1v: r.current_at_1v.value(),
        pdn_min: r.pdn_min_voltage.value(),
        pumping_w: r.pumping_power.value(),
        ..Headline::default()
    }
}

/// The traced run: one study for its `McStats`, then the study's
/// samples one by one, each served by a production worker
/// (`retarget` + `reset_warm_starts` + `run_yield`, untraced) and by the
/// recomposed pipeline (traced).
fn traced(args: &Args, inputs: &Inputs) -> (Outcome, Vec<(String, Value)>) {
    let mut req = Requests::default();
    let fail = |req, why: String| (Outcome::abort(req, &why), vec![]);
    let spec = study(inputs, 1);
    req.attempted += 1;
    let stats = match montecarlo::run(&spec) {
        Ok(r) => {
            if let Err(e) = check(&r.report, &spec) {
                req.fail(&e);
            }
            r.stats
        }
        Err(e) => return fail(req, e.to_string()),
    };
    let marginals = spec.variables.iter().map(|v| v.distribution).collect();
    let sampler = match CorrelatedSampler::new(spec.seed, marginals, spec.correlation.as_deref()) {
        Ok(s) => s,
        Err(e) => return fail(req, e.to_string()),
    };
    let (mut pipe, costs) = match Pipeline::build(&spec.base) {
        Ok(p) => p,
        Err(e) => return fail(req, e),
    };
    let mut worker =
        match CoSimulation::new(spec.base.clone()).and_then(|mut w| w.run_yield().map(|_| w)) {
            Ok(w) => w,
            Err(e) => return fail(req, e.to_string()),
        };
    if let Err(e) = pipe.run_yield(&spec.base, &mut Spans::default()) {
        return fail(req, e);
    }
    let (hits0, misses0) = (pipe.cache.hits(), pipe.cache.misses());
    let setups0 = pipe.thermal_stats().precond_setups;
    let mut log = SpanLog::default();
    let (mut untraced, mut recomposed, mut retarget_ms) = (vec![], vec![], vec![]);
    let mut iterations = Vec::new();
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < args.seconds || i < 3 {
        let scenario = match apply_sample(&spec.base, &spec.variables, &sampler.sample(i)) {
            Ok(s) => s,
            Err(e) => return fail(req, e.to_string()),
        };
        i += 1;
        req.attempted += 1;
        let (rt_ms, rt) = timed(|| worker.retarget(scenario.clone()));
        let (run_ms, report) = timed(|| {
            worker.reset_warm_starts();
            worker.run_yield()
        });
        let report = match rt.and(report) {
            Ok(r) => r,
            Err(e) => {
                req.fail(&e.to_string());
                continue;
            }
        };
        let mut spans = Spans::default();
        match pipe.run_yield(&scenario, &mut spans) {
            Ok(h) => {
                if let Some(d) = h.drift(&headline(&report), RECOMPOSE_TOL) {
                    req.fail(&format!("recomposition drifted from run_yield: {d}"));
                }
            }
            Err(e) => req.fail(&e),
        }
        iterations.push(pipe.thermal_last_iterations() as f64);
        untraced.push(rt_ms + run_ms);
        retarget_ms.push(rt_ms);
        recomposed.push(spans.total());
        log.push(&spans);
    }
    // The same worker re-serving one point (the first serve moves it
    // there and is not timed): the repeat-one-point loop that component
    // gates used to time, for contrast with fresh samples.
    let mut repeat = Vec::new();
    for n in 0..4 {
        let (ms, r) = timed(|| {
            worker.retarget(spec.base.clone())?;
            worker.reset_warm_starts();
            worker.run_yield()
        });
        if let Err(e) = r {
            req.fail(&e.to_string());
        }
        if n > 0 {
            repeat.push(ms);
        }
    }
    // Cold builds as a study's chunk pays them: a new `CoSimulation` on a
    // fresh sample with an empty geometry cache, then its first
    // `run_yield`.
    let mut cold = Vec::new();
    for n in 0..3 {
        let scenario = match apply_sample(&spec.base, &spec.variables, &sampler.sample(i + n)) {
            Ok(s) => s,
            Err(e) => return fail(req, e.to_string()),
        };
        req.attempted += 1;
        let (ms, r) = timed(|| {
            let mut w = CoSimulation::new(scenario)?;
            w.set_geometry_cache(Arc::new(GeometryCache::new()));
            w.run_yield()
        });
        match r {
            Ok(_) => cold.push(ms),
            Err(e) => req.fail(&e.to_string()),
        }
    }
    // The cold builds' extra time over warm fresh samples, as a share of
    // a study's sample time (the same on any worker count).
    let builds = (SAMPLES / CHUNK) as f64;
    let extra = builds * (median(&cold) - median(&untraced)).max(0.0);
    let cold_share = extra / (SAMPLES as f64 * median(&untraced) + extra);
    let samples = i as f64;
    let (hits, misses) = (pipe.cache.hits() - hits0, pipe.cache.misses() - misses0);
    let mut m = Metrics::default();
    m.put("montecarlo.sample_ms", median(&untraced), "ms");
    m.put("montecarlo.repeat_sample_ms", median(&repeat), "ms");
    m.put("montecarlo.cold_builds", stats.cold_builds as f64, "count");
    m.put("montecarlo.cold_build_ms", median(&cold), "ms");
    m.put("montecarlo.cold_build_share", cold_share, "ratio");
    m.put("montecarlo.retargets", stats.retargets as f64, "count");
    m.put(
        "flowcell.retarget_ms",
        log.median("flowcell.retarget"),
        "ms",
    );
    m.put(
        "flowcell.solve_1v_ms",
        log.median("flowcell.solve_1v"),
        "ms",
    );
    m.put("flowcell.duct_solves", misses as f64 / samples, "count");
    m.put(
        "flowcell.geometry_cache_hit_ratio",
        hits as f64 / ((hits + misses) as f64).max(1.0),
        "ratio",
    );
    m.put("flowcell.context_build_ms", costs.context_build_ms, "ms");
    m.put("thermal.assemble_ms", costs.thermal_assemble_ms, "ms");
    m.put("thermal.refresh_ms", log.median("thermal.refresh"), "ms");
    m.put(
        "thermal.steady_solve_ms",
        log.median("thermal.steady_solve"),
        "ms",
    );
    m.put("num.krylov_iters_per_solve", median(&iterations), "count");
    m.put(
        "num.precond_setups",
        (pipe.thermal_stats().precond_setups - setups0) as f64 / samples,
        "count",
    );
    m.put(
        "num.recovered_solves",
        stats.recovered_solves as f64,
        "count",
    );
    m.put("pdn.build_ms", costs.pdn_build_ms, "ms");
    m.put("pdn.factor_ms", costs.pdn_factor_ms, "ms");
    m.put("pdn.solve_direct_ms", log.median("pdn.solve_direct"), "ms");
    m.put(
        "flow.hydraulics_us",
        log.median("flow.hydraulics") * 1e3,
        "us",
    );
    m.put(
        "floorplan.rasterize_ms",
        log.median("floorplan.rasterize"),
        "ms",
    );
    m.put("cosim.retarget_ms", median(&retarget_ms), "ms");
    let gap = crate::common::median_gap(&untraced, &recomposed);
    m.put("cosim.unattributed_ms", gap, "ms");
    crate::common::put_coverage(&mut m, &untraced, &recomposed);
    let outcome = Outcome::of(&[&req], m);
    (
        outcome,
        vec![("samples_traced".into(), Value::Number(samples))],
    )
}
