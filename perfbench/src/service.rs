//! `service_small_jobs`: submit → `run_next` → verified `report` on a
//! fresh `ScenarioService` store, with small `power7_reduced` jobs
//! mixing steady, polarization and transient work 1:1:1. At these grid
//! sizes the journal, document writes and report encode/verify are a
//! large share of each job.

use crate::common::{median, timed, Args, Inputs, Metrics, Outcome, Requests, SETUPS};
use crate::pipeline::{SpanLog, Spans};
use crate::transient;
use bright_core::{
    JobId, JobKind, JobSpec, LoadRamp, LoadRef, LoadStep, PolarizationRequest, ReportPayload,
    ScenarioEngine, ScenarioService, ServiceClock, ServiceConfig, SteppingMode, TransientOutcome,
    TransientRequest,
};
use bright_jsonio::{checksummed, Value};
use bright_thermal::ThermalModel;
use bright_units::Kelvin;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Scratch directory for the stores, relative to the working directory
/// (the benchmark reads and writes only inside its checkout).
pub const STORE_DIR: &str = ".perfbench_tmp";

/// Job `k`: kind `k mod 3` (steady, polarization, transient) at seeded
/// flow, inlet and load scales on the `power7_reduced` grids.
#[must_use]
pub fn job(inputs: &Inputs, k: u64) -> JobSpec {
    let draw = |dim: usize, lo: f64, hi: f64| inputs.uniform(k, dim, lo, hi);
    let mut spec = JobSpec::steady("power7_reduced");
    spec.overrides.total_flow_ml_min = Some(draw(0, 500.0, 700.0));
    spec.overrides.inlet_temperature_k = Some(draw(1, 298.0, 306.0));
    spec.kind = match k % 3 {
        0 => JobKind::Steady,
        1 => JobKind::Polarization { points: 4 },
        _ => JobKind::Transient {
            trace: vec![
                (
                    5e-3,
                    LoadRef {
                        base: "full_load".into(),
                        scale: draw(2, 0.8, 1.2),
                    },
                    None,
                ),
                (
                    5e-3,
                    LoadRef {
                        base: "full_load".into(),
                        scale: draw(3, 0.3, 0.6),
                    },
                    Some(LoadRamp::flow(1.0, draw(4, 0.4, 0.7))),
                ),
            ],
            initial_temperature_k: 300.0,
            stepping: SteppingMode::Adaptive(bright_thermal::AdaptiveConfig::default()),
        },
    };
    spec
}

/// The engine request a transient job describes; `None` for the other
/// kinds.
///
/// # Errors
///
/// An unresolvable preset, override or load.
pub fn transient_request(spec: &JobSpec) -> Result<Option<TransientRequest>, String> {
    let JobKind::Transient {
        trace,
        initial_temperature_k,
        stepping,
    } = &spec.kind
    else {
        return Ok(None);
    };
    let mut steps = Vec::with_capacity(trace.len());
    for (duration, load, ramp) in trace {
        let step = LoadStep::new(*duration, load.resolve().map_err(|e| e.to_string())?);
        steps.push(match ramp {
            Some(r) => step.with_ramp(*r),
            None => step,
        });
    }
    Ok(Some(TransientRequest {
        scenario: spec.scenario().map_err(|e| e.to_string())?,
        trace: steps,
        initial_temperature: Kelvin::new(*initial_temperature_k),
        stepping: *stepping,
    }))
}

/// The same job served by a bare deterministic engine: no store, no
/// journal, no documents.
///
/// # Errors
///
/// The engine's error for the job.
pub fn bare(engine: &mut ScenarioEngine, spec: &JobSpec) -> Result<ReportPayload, String> {
    if let Some(request) = transient_request(spec)? {
        let r = engine
            .run_transient_batch([request])
            .pop()
            .ok_or("no transient report")?;
        return Ok(ReportPayload::Transient(
            r.result.map_err(|e| e.to_string())?,
        ));
    }
    let scenario = spec.scenario().map_err(|e| e.to_string())?;
    if let JobKind::Polarization { points } = spec.kind {
        let mut request = PolarizationRequest::new(scenario);
        request.points = points;
        let r = engine
            .run_polarization_batch([request])
            .pop()
            .ok_or("no polarization report")?;
        return Ok(ReportPayload::Polarization(
            r.result.map_err(|e| e.to_string())?,
        ));
    }
    let r = engine
        .run_batch([scenario])
        .pop()
        .ok_or("no steady report")?;
    Ok(ReportPayload::Steady(Box::new(
        r.result.map_err(|e| e.to_string())?,
    )))
}

/// Jobs per second of `--seconds`. The job count is fixed per run,
/// not timed: the service's memory grows with every distinct transient
/// operating point it has served (its transient-model cache is keyed by
/// flow and inlet and unbounded by default), so `peak_rss_mb` is only
/// comparable between runs that serve the same jobs.
pub const JOBS_PER_SECOND: f64 = 15.0;

/// Jobs served by a run of `seconds` (at least 100, so `req_p90_ms`
/// has ten samples beyond it).
#[must_use]
pub fn jobs_per_run(seconds: f64) -> u64 {
    ((JOBS_PER_SECOND * seconds).round() as u64).max(100)
}

/// A fresh bare engine in the service's deterministic mode, with
/// bounded caches; deterministic serving makes its output independent
/// of what it has cached.
fn bare_engine() -> ScenarioEngine {
    let mut engine = ScenarioEngine::new();
    engine.set_deterministic(true);
    engine.set_cache_capacity(4);
    engine
}

/// A fresh, empty store directory for set-up `n` of this process.
fn store_root(n: usize) -> PathBuf {
    let root = Path::new(STORE_DIR).join(format!("store-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Opens (and recovers) a service over a store at `root`.
///
/// # Errors
///
/// Directory creation or service-open failures.
pub fn open(root: &Path) -> Result<ScenarioService, String> {
    std::fs::create_dir_all(root).map_err(|e| e.to_string())?;
    ScenarioService::open(root, ServiceConfig::default(), ServiceClock::System)
        .map_err(|e| e.to_string())
}

/// One request: submit, serve, fetch the verified report.
///
/// # Errors
///
/// Refusal, a store failure, or another job served first.
pub fn request(
    service: &mut ScenarioService,
    spec: JobSpec,
    spans: &mut Spans,
) -> Result<ReportPayload, String> {
    let id: JobId = spans
        .time("service.submit", || service.submit(spec))
        .map_err(|e| e.to_string())?;
    let served = spans
        .time("service.run_next", || service.run_next())
        .map_err(|e| e.to_string())?;
    if served != Some(id) {
        return Err(format!("run_next served {served:?}, expected {id:?}"));
    }
    spans
        .time("service.report", || service.report(id))
        .map_err(|e| e.to_string())
}

/// A report's canonical JSON text, reduced to its length and FNV-1a
/// digest: what the untimed check keeps of each report until the bare
/// engine has served the same job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Length of the JSON text in bytes.
    pub len: usize,
    /// FNV-1a 64-bit digest of the JSON text.
    pub digest: u64,
}

impl Fingerprint {
    /// The fingerprint of `payload`'s JSON text.
    #[must_use]
    pub fn of(payload: &ReportPayload) -> Self {
        let text = payload.to_json().to_json_string();
        Self {
            len: text.len(),
            digest: checksummed::fnv1a64(text.as_bytes()),
        }
    }
}

/// The report must equal the bare engine's output bitwise.
///
/// # Errors
///
/// The bare engine's error, or the mismatch.
pub fn check(
    payload: &ReportPayload,
    reference: Result<ReportPayload, String>,
) -> Result<(), String> {
    check_fingerprint(Fingerprint::of(payload), reference)
}

/// As [`check`], for a report of which only the fingerprint was kept.
///
/// # Errors
///
/// The bare engine's error, or the mismatch.
pub fn check_fingerprint(
    served: Fingerprint,
    reference: Result<ReportPayload, String>,
) -> Result<(), String> {
    if served != Fingerprint::of(&reference?) {
        return Err("service report differs from the bare engine's".into());
    }
    Ok(())
}

/// Integrates a transient job directly on its own model, with every
/// public call timed into `log` and every step into `step_ms`, and
/// checks the service's step and solve counts against it.
fn trace_transient(
    req: &TransientRequest,
    outcome: &TransientOutcome,
    log: &mut SpanLog,
    step_ms: &mut Vec<f64>,
) -> Result<(), String> {
    let mut spans = Spans::default();
    let model = spans.time("thermal.assemble", || -> Result<ThermalModel, String> {
        let m = crate::pipeline::thermal_model(&req.scenario)?;
        m.assemble().map_err(|e| e.to_string())?;
        Ok(m)
    })?;
    let (direct, session) = transient::integrate(&model, req, &mut spans, step_ms)?;
    transient::check(outcome, req, direct)?;
    log.push(&spans);
    for (name, count) in [
        ("thermal.solves_per_trace", direct.solves),
        ("thermal.rejected_steps", direct.rejected),
        ("thermal.coefficient_refreshes", direct.refreshes),
        ("num.precond_setups", session.precond_setups),
        ("num.mg_cycles", session.mg_cycles),
    ] {
        log.0.entry(name).or_default().push(count as f64);
    }
    Ok(())
}

fn journal_len(root: &Path) -> u64 {
    std::fs::metadata(root.join("journal.log")).map_or(0, |m| m.len())
}

/// Runs the workload; returns the outcome and workload-specific record
/// entries. Every store is removed before returning.
pub fn run(args: &Args) -> (Outcome, Vec<(String, Value)>) {
    let inputs = Inputs::new(args.seed, 4);
    let out = serve_all(args, &inputs);
    let _ = std::fs::remove_dir_all(STORE_DIR);
    out
}

fn serve_all(args: &Args, inputs: &Inputs) -> (Outcome, Vec<(String, Value)>) {
    let mut setup = Requests::default();
    let mut setups = Vec::new();
    let mut served = Vec::new();
    let mut live = None;
    for n in 0..SETUPS {
        // Close the previous set-up's service first, so the process never
        // holds two and `peak_rss_mb` sees one client's memory.
        live = None;
        let root = store_root(n);
        let t = Instant::now();
        let out = open(&root).and_then(|mut service| {
            let payload = request(&mut service, job(inputs, 0), &mut Spans::default())?;
            Ok((service, payload))
        });
        setups.push(t.elapsed().as_secs_f64());
        setup.attempted += 1;
        match out {
            Ok((service, payload)) => {
                served.push((0, Fingerprint::of(&payload)));
                live = Some((service, root));
            }
            Err(e) => setup.fail(&e),
        }
    }
    let mut record = Vec::new();
    let Some((mut service, root)) = live else {
        return (Outcome::of(&[&setup], Metrics::default()), record);
    };
    if args.trace {
        verify(&mut setup, served, inputs);
        let (outcome, extra) = traced(args, inputs, &mut service, &root, &setup);
        record.extend(extra);
        return (outcome, record);
    }
    let mut timing = Requests::default();
    let mut timed_jobs = Vec::new();
    for k in 1..=jobs_per_run(args.seconds) {
        let spec = job(inputs, k);
        if let Some(payload) = timing.serve(|| request(&mut service, spec, &mut Spans::default())) {
            timed_jobs.push((k, Fingerprint::of(&payload)));
        }
    }
    record.push((
        "req_p90_ms".into(),
        Value::Number(crate::common::quantile(&timing.wall_ms, 0.9)),
    ));
    // The metrics (and with them the peak RSS) are read before the bare
    // engine serves the reference outputs, so its memory is not counted.
    let metrics = crate::common::end_to_end(&setups, &timing);
    drop(service);
    verify(&mut setup, served, inputs);
    verify(&mut timing, timed_jobs, inputs);
    (Outcome::of(&[&setup, &timing], metrics), record)
}

/// Checks each served job `k`'s report fingerprint against a bare
/// engine serving the same job, counting mismatches in `stream`.
fn verify(stream: &mut Requests, served: Vec<(u64, Fingerprint)>, inputs: &Inputs) {
    let mut engine = bare_engine();
    for (k, fingerprint) in served {
        if let Err(e) = check_fingerprint(fingerprint, bare(&mut engine, &job(inputs, k))) {
            stream.fail(&format!("job {k}: {e}"));
        }
    }
}

/// The traced run: every public call of a request timed on its own, the
/// bare engine's serve time subtracted from `run_next` for the
/// durability share, and the report's JSON round trip timed through
/// `bright_jsonio`.
fn traced(
    args: &Args,
    inputs: &Inputs,
    service: &mut ScenarioService,
    root: &Path,
    setup: &Requests,
) -> (Outcome, Vec<(String, Value)>) {
    let mut req = Requests::default();
    let mut engine = bare_engine();
    let mut log = SpanLog::default();
    let (mut untraced, mut recomposed, mut durability) = (vec![], vec![], vec![]);
    let (mut encode, mut decode, mut bytes) = (vec![], vec![], vec![]);
    let mut by_kind: std::collections::BTreeMap<&str, (f64, f64, f64)> =
        std::collections::BTreeMap::new();
    let (mut traces, mut step_ms) = (SpanLog::default(), Vec::new());
    let journal0 = journal_len(root);
    for k in 1..=jobs_per_run(args.seconds) {
        let spec = job(inputs, k);
        let kind = spec.kind.tag();
        let transient_req = transient_request(&spec);
        req.attempted += 1;
        let (bare_ms, reference) = timed(|| bare(&mut engine, &spec));
        let mut spans = Spans::default();
        let (ms, out) = timed(|| request(service, spec, &mut spans));
        let payload = match out.and_then(|p| check(&p, reference).map(|()| p)) {
            Ok(p) => p,
            Err(e) => {
                req.fail(&e);
                continue;
            }
        };
        if let (Ok(Some(t)), ReportPayload::Transient(o)) = (&transient_req, &payload) {
            if let Err(e) = trace_transient(t, o, &mut traces, &mut step_ms) {
                req.fail(&format!("transient job: {e}"));
            }
        }
        let (enc_ms, text) = timed(|| checksummed::to_string(&payload.to_json()));
        let (dec_ms, back) = timed(|| {
            checksummed::parse(&text)
                .map_err(|e| e.to_string())
                .and_then(|v| ReportPayload::from_json(&v).map_err(|e| e.to_string()))
        });
        if let Err(e) = back.and_then(|b| check(&b, Ok(payload))) {
            req.fail(&format!("report JSON round trip: {e}"));
        }
        encode.push(enc_ms);
        decode.push(dec_ms);
        bytes.push(text.len() as f64);
        durability.push(spans.get("service.run_next") - bare_ms);
        untraced.push(ms);
        recomposed.push(spans.total());
        log.push(&spans);
        let entry = by_kind.entry(kind).or_insert((0.0, 0.0, 0.0));
        *entry = (
            entry.0 + 1.0,
            entry.1 + ms,
            entry.2 + spans.get("service.report"),
        );
    }
    let kinds = by_kind.iter().map(|(kind, (n, job_ms, report_ms))| {
        let mean = |x: f64| Value::Number(x / n);
        (
            (*kind).to_string(),
            Value::object([
                ("job_ms".into(), mean(*job_ms)),
                ("report_ms".into(), mean(*report_ms)),
            ]),
        )
    });
    let record = vec![("mean_ms_by_kind".to_string(), Value::object(kinds))];
    let jobs = untraced.len().max(1) as f64;
    let stats = service.engine_stats();
    let mut m = Metrics::default();
    m.put("service.submit_ms", log.median("service.submit"), "ms");
    m.put("service.run_next_ms", log.median("service.run_next"), "ms");
    m.put("service.durability_ms", median(&durability), "ms");
    m.put("service.report_ms", log.median("service.report"), "ms");
    m.put(
        "service.journal_bytes_per_job",
        (journal_len(root) - journal0) as f64 / jobs,
        "B",
    );
    m.put("jsonio.report_encode_ms", median(&encode), "ms");
    m.put("thermal.step_ms", median(&step_ms), "ms");
    for (metric, stage) in [
        ("thermal.assemble_ms", "thermal.assemble"),
        ("thermal.integrator_build_ms", "thermal.integrator_build"),
        ("floorplan.rasterize_ms", "floorplan.rasterize"),
        ("thermal.solves_per_trace", "thermal.solves_per_trace"),
        ("thermal.rejected_steps", "thermal.rejected_steps"),
        (
            "thermal.coefficient_refreshes",
            "thermal.coefficient_refreshes",
        ),
        ("num.precond_setups", "num.precond_setups"),
        ("num.mg_cycles", "num.mg_cycles"),
    ] {
        let unit = if metric.ends_with("_ms") {
            "ms"
        } else {
            "count"
        };
        m.put(metric, traces.median(stage), unit);
    }
    m.put("jsonio.report_decode_ms", median(&decode), "ms");
    m.put("jsonio.report_bytes", median(&bytes), "B");
    m.put(
        "engine.worker_cache_hits",
        (stats.operator_reuses + stats.cell_context_reuses) as f64,
        "count",
    );
    m.put(
        "engine.evicted_workers",
        stats.evicted_workers as f64,
        "count",
    );
    m.put(
        "engine.segments_reused",
        stats.trace_segments_reused as f64,
        "count",
    );
    m.put(
        "num.recovered_solves",
        stats.recovered_solves as f64,
        "count",
    );
    crate::common::put_coverage(&mut m, &untraced, &recomposed);
    let outcome = Outcome::of(&[setup, &req], m);
    (outcome, record)
}
