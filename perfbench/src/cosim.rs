//! `cosim_sweep`: `CoSimulation::retarget` + `run` on the paper's
//! POWER7+ operating point, swept over seeded flow and inlet points on
//! one persistent simulation.

use crate::common::{median, timed, Args, Inputs, Metrics, Outcome, Requests, SETUPS};
use crate::pipeline::{Headline, Pipeline, SpanLog, Spans};
use bright_core::{CoSimReport, CoSimulation, Scenario};
use bright_jsonio::Value;
use bright_units::{CubicMetersPerSecond, Kelvin};
use std::time::Instant;

/// Relative tolerance between the recomposed and the production
/// headline scalars: both paths run the same iterative solves to a
/// 1e-10 relative residual from different warm starts.
const RECOMPOSE_TOL: f64 = 1e-6;

/// Sweep point `i`: the nominal 676 ml/min / 300 K point first, then
/// seeded points in 500–700 ml/min and 298–306 K.
#[must_use]
pub fn point(inputs: &Inputs, i: u64) -> Scenario {
    let mut s = Scenario::power7_nominal();
    if i > 0 {
        s.total_flow =
            CubicMetersPerSecond::from_milliliters_per_minute(inputs.uniform(i, 0, 500.0, 700.0));
        s.inlet_temperature = Kelvin::new(inputs.uniform(i, 1, 298.0, 306.0));
    }
    s
}

fn finite(values: &[f64]) -> bool {
    values.iter().all(|v| v.is_finite())
}

/// Output checks of one co-simulation report; the nominal point must
/// also land in the `tests/reproduction.rs` Fig. 7/8/9 bands and have an
/// operating point.
///
/// # Errors
///
/// The first violated check.
pub fn check_report(r: &CoSimReport, s: &Scenario, nominal: bool) -> Result<(), String> {
    let scalars = [
        r.peak_temperature.value(),
        r.outlet_temperature.value(),
        r.array_ocv.value(),
        r.current_at_1v.value(),
        r.power_at_1v.value(),
        r.isothermal_current_at_1v.value(),
        r.pdn_min_voltage.value(),
        r.pdn_max_voltage.value(),
        r.pressure_drop.value(),
        r.pumping_power.value(),
    ];
    if !(finite(&scalars)
        && finite(r.junction_map.as_slice())
        && finite(r.fluid_map.as_slice())
        && finite(r.voltage_map.as_slice()))
    {
        return Err("non-finite field or scalar".into());
    }
    let peak = r.peak_temperature.value();
    if peak <= s.inlet_temperature.value() {
        return Err(format!(
            "peak {peak} K not above inlet {}",
            s.inlet_temperature
        ));
    }
    let supply = s.vrm.output_voltage().value();
    if r.pdn_min_voltage.value() >= supply {
        return Err(format!(
            "PDN minimum {} not below supply {supply}",
            r.pdn_min_voltage
        ));
    }
    if !r.is_net_positive() {
        return Err(format!(
            "net power at 1 V not positive: {}",
            r.net_power_at_1v()
        ));
    }
    if nominal {
        let ocv = r.array_ocv.value();
        let i1 = r.current_at_1v.value();
        let peak_c = r.peak_temperature.to_celsius().value();
        let (vmin, vmax) = (r.pdn_min_voltage.value(), r.pdn_max_voltage.value());
        let bands = [
            ("Fig. 7 OCV", (ocv - 1.648).abs() < 0.02),
            ("Fig. 7 I(1V)", i1 > 2.5 && i1 < 8.0),
            ("Fig. 8 min V", vmin > 0.93 && vmin < 0.995),
            ("Fig. 8 max V", vmax > 0.99 && vmax <= 1.0 + 1e-9),
            ("Fig. 9 peak", peak_c > 32.0 && peak_c < 50.0),
            ("Fig. 9 rise", peak_c - 26.85 > 5.0 && peak_c - 26.85 < 28.0),
            ("operating point", r.operating_point.is_some()),
        ];
        if let Some((name, _)) = bands.iter().find(|(_, ok)| !ok) {
            return Err(format!("nominal point outside the {name} band"));
        }
    }
    Ok(())
}

/// The production report's headline scalars, in the recomposition's
/// shape.
fn headline(r: &CoSimReport) -> Headline {
    Headline {
        peak_k: r.peak_temperature.value(),
        current_1v: r.current_at_1v.value(),
        isothermal_1v: r.isothermal_current_at_1v.value(),
        ocv: r.array_ocv.value(),
        op_voltage: r
            .operating_point
            .as_ref()
            .map_or(0.0, |op| op.array_voltage.value()),
        pdn_min: r.pdn_min_voltage.value(),
        pumping_w: r.pumping_power.value(),
    }
}

/// Runs the workload; returns the outcome and workload-specific record
/// entries.
pub fn run(args: &Args) -> (Outcome, Vec<(String, Value)>) {
    let inputs = Inputs::new(args.seed, 1);
    if args.trace {
        return traced(args, &inputs);
    }
    let mut req = Requests::default();
    let mut setups = Vec::new();
    let mut sim = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up's simulation first, so the process
        // never holds two and `peak_rss_mb` sees one client's memory.
        sim = None;
        let nominal = point(&inputs, 0);
        let t = Instant::now();
        let built = CoSimulation::new(nominal.clone()).and_then(|mut s| s.run().map(|r| (s, r)));
        setups.push(t.elapsed().as_secs_f64());
        req.attempted += 1;
        match built {
            Ok((s, r)) => {
                if let Err(e) = check_report(&r, &nominal, true) {
                    req.fail(&e);
                }
                sim = Some(s);
            }
            Err(e) => req.fail(&e.to_string()),
        }
    }
    let Some(mut sim) = sim else {
        return (Outcome::of(&[&req], Metrics::default()), vec![]);
    };
    let mut timing = Requests::default();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < args.seconds || i < 3 {
        let s = point(&inputs, i);
        let out = timing.serve(|| {
            sim.retarget(s.clone()).map_err(|e| e.to_string())?;
            sim.run().map_err(|e| e.to_string())
        });
        if let Some(r) = out {
            if let Err(e) = check_report(&r, &s, i == 0) {
                timing.fail(&e);
            }
        }
        i += 1;
    }
    let outcome = Outcome::of(
        &[&req, &timing],
        crate::common::end_to_end(&setups, &timing),
    );
    (outcome, vec![("points".into(), Value::Number(i as f64))])
}

/// The traced run: each point is served once by the production call
/// (untraced) and once by the recomposed pipeline (traced), and the two
/// must agree.
fn traced(args: &Args, inputs: &Inputs) -> (Outcome, Vec<(String, Value)>) {
    let nominal = point(inputs, 0);
    let mut req = Requests::default();
    let fail = |req, why: String| (Outcome::abort(req, &why), vec![]);
    let (mut pipe, costs) = match Pipeline::build(&nominal) {
        Ok(p) => p,
        Err(e) => return fail(req, e),
    };
    let mut sim = match CoSimulation::new(nominal.clone()).and_then(|mut s| s.run().map(|_| s)) {
        Ok(s) => s,
        Err(e) => return fail(req, e.to_string()),
    };
    let mut log = SpanLog::default();
    let (mut untraced, mut recomposed, mut retarget_ms) = (vec![], vec![], vec![]);
    let (mut krylov, mut pdn_iters, mut stations) = (vec![], vec![], 0.0);
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < args.seconds || i < 3 {
        let s = point(inputs, i);
        i += 1;
        req.attempted += 1;
        let (rt_ms, rt) = timed(|| sim.retarget(s.clone()));
        let (run_ms, report) = timed(|| sim.run());
        let report = match rt.and(report) {
            Ok(r) => r,
            Err(e) => {
                req.fail(&e.to_string());
                continue;
            }
        };
        if let Err(e) = check_report(&report, &s, i == 1) {
            req.fail(&e);
        }
        let mut spans = Spans::default();
        match pipe.run(&s, &mut spans) {
            Ok((h, n)) => {
                if let Some(d) = h.drift(&headline(&report), RECOMPOSE_TOL) {
                    req.fail(&format!(
                        "recomposition drifted from CoSimulation::run: {d}"
                    ));
                }
                stations = n;
            }
            Err(e) => req.fail(&e),
        }
        krylov.push(pipe.thermal_last_iterations() as f64);
        pdn_iters.push(pipe.pdn_last_iterations() as f64);
        untraced.push(rt_ms + run_ms);
        retarget_ms.push(rt_ms);
        recomposed.push(spans.total());
        log.push(&spans);
    }
    let mut m = Metrics::default();
    let sweep = log.median("flowcell.sweep");
    m.put("flowcell.sweep_ms", sweep, "ms");
    m.put(
        "flowcell.stations_per_s",
        stations / (sweep / 1e3).max(1e-12),
        "1/s",
    );
    m.put(
        "flowcell.solve_1v_ms",
        log.median("flowcell.solve_1v"),
        "ms",
    );
    m.put(
        "flowcell.isothermal_1v_ms",
        log.median("flowcell.isothermal_1v"),
        "ms",
    );
    m.put(
        "flowcell.retarget_ms",
        log.median("flowcell.retarget"),
        "ms",
    );
    m.put("flowcell.duct_solves", pipe.cache.misses() as f64, "count");
    let lookups = (pipe.cache.hits() + pipe.cache.misses()) as f64;
    m.put(
        "flowcell.geometry_cache_hit_ratio",
        pipe.cache.hits() as f64 / lookups.max(1.0),
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
    let stats = pipe.thermal_stats();
    let per_point = |n: u64| n as f64 / i as f64;
    m.put("num.krylov_iters_per_solve", median(&krylov), "count");
    m.put(
        "num.precond_setups",
        per_point(stats.precond_setups),
        "count",
    );
    m.put("num.mg_cycles", per_point(stats.mg_cycles), "count");
    let recovered =
        sim.thermal_session_stats().recovered_solves + sim.pdn_session_stats().recovered_solves;
    m.put("num.recovered_solves", recovered as f64, "count");
    m.put("pdn.build_ms", costs.pdn_build_ms, "ms");
    m.put("pdn.solve_warm_ms", log.median("pdn.solve_warm"), "ms");
    m.put("pdn.krylov_iters", median(&pdn_iters), "count");
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
    m.put(
        "cosim.operating_point_ms",
        log.median("cosim.operating_point"),
        "ms",
    );
    let gap = crate::common::median_gap(&untraced, &recomposed);
    m.put("cosim.unattributed_ms", gap, "ms");
    crate::common::put_coverage(&mut m, &untraced, &recomposed);
    let outcome = Outcome::of(&[&req], m);
    (outcome, vec![("points".into(), Value::Number(i as f64))])
}
