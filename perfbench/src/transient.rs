//! Direct integration of an adaptive transient request on
//! `AdaptiveTransient`, with its public calls timed, and the output
//! check that compares the engine's step and solve counts with it.
//! `service_small_jobs` uses both for its transient jobs.

use crate::common::timed;
use crate::pipeline::Spans;
use bright_core::{TransientOutcome, TransientRequest};
use bright_thermal::{AdaptiveTransient, PowerTrace, ThermalModel, TraceSegment};

/// What the direct integration counted.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Accepted steps.
    pub steps: u64,
    /// Linear solves.
    pub solves: u64,
    /// Error-test rejections.
    pub rejected: u64,
    /// O(nnz) coefficient re-stamps.
    pub refreshes: u64,
}

/// Per-trace counters of the direct integration's solver session.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionCounts {
    /// Preconditioner set-ups.
    pub precond_setups: u64,
    /// Multigrid V-cycles.
    pub mg_cycles: u64,
}

/// Integrates `req` directly on `AdaptiveTransient`, one segment at a
/// time the way the engine carries a live integrator down a
/// single-request trace, timing every public call into `spans` and
/// every step into `step_ms`.
///
/// # Errors
///
/// Rasterization, integrator construction or step failures.
pub fn integrate(
    model: &ThermalModel,
    req: &TransientRequest,
    spans: &mut Spans,
    step_ms: &mut Vec<f64>,
) -> Result<(Counts, SessionCounts), String> {
    let s = &req.scenario;
    let mut segments = Vec::with_capacity(req.trace.len());
    for step in &req.trace {
        let power = spans
            .time("floorplan.rasterize", || {
                step.load.rasterize(&s.floorplan, model.grid())
            })
            .map_err(|e| e.to_string())?;
        segments.push(TraceSegment {
            duration: step.duration,
            power,
            ramp: step.ramp.map(|r| r.resolve(s)),
        });
    }
    let bright_core::SteppingMode::Adaptive(cfg) = req.stepping else {
        return Err("only adaptive transient requests are traced".into());
    };
    let mut rest = segments.into_iter();
    let first = rest.next().ok_or("empty trace")?;
    let t0 = req.initial_temperature.value();
    let mut integ = spans
        .time("thermal.integrator_build", || {
            AdaptiveTransient::new(model.clone(), PowerTrace::new(vec![first])?, t0, cfg)
        })
        .map_err(|e| e.to_string())?;
    loop {
        while !integ.finished() {
            let (ms, r) = timed(|| integ.step());
            r.map_err(|e| e.to_string())?;
            step_ms.push(ms);
            *spans.0.entry("thermal.step").or_insert(0.0) += ms;
        }
        let Some(next) = rest.next() else { break };
        spans
            .time("thermal.integrator_build", || integ.push_segment(next))
            .map_err(|e| e.to_string())?;
    }
    let st = integ.stats();
    let session = integ.session_stats();
    Ok((
        Counts {
            steps: st.accepted,
            solves: st.solves,
            rejected: st.rejected,
            refreshes: integ.coefficient_refreshes(),
        },
        SessionCounts {
            precond_setups: session.precond_setups,
            mg_cycles: session.mg_cycles,
        },
    ))
}

/// Output checks: a finite trace that heats above its initial field, and step,
/// solve, rejection and re-stamp counts equal to the direct integration
/// of the same resolved trace.
///
/// # Errors
///
/// The first violated check.
pub fn check(o: &TransientOutcome, req: &TransientRequest, direct: Counts) -> Result<(), String> {
    let (peak, last) = (o.trace_peak.value(), o.final_peak.value());
    let start = req.initial_temperature.value();
    if !(peak.is_finite() && last.is_finite() && peak > start && last <= peak) {
        return Err(format!(
            "trace peak {peak} K / final {last} K: not finite, not above the initial {start} K, \
             or final above peak"
        ));
    }
    if (o.end_time - req.total_duration()).abs() > 1e-9 {
        return Err(format!(
            "end time {} != trace duration {}",
            o.end_time,
            req.total_duration()
        ));
    }
    let engine = Counts {
        steps: o.steps,
        solves: o.solves,
        rejected: o.rejected,
        refreshes: o.coefficient_refreshes,
    };
    if engine != direct {
        return Err(format!(
            "engine counts {engine:?} != direct integration {direct:?}"
        ));
    }
    Ok(())
}
