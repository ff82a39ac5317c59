//! Shared plumbing: command-line arguments, seeded inputs, stopwatches,
//! process probes, the host record and the result line.

use bright_jsonio::Value;
use bright_num::CounterRng;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// The workloads `BENCHMARK.json` lists, in its order.
pub const WORKLOADS: [&str; 3] = ["cosim_sweep", "yield_mc", "service_small_jobs"];

/// Cold set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// `true` for the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    ///
    /// # Errors
    ///
    /// A usage message naming the bad or missing flag.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            flags.insert(key, value);
        }
        let get = |k: &str| {
            flags
                .get(k)
                .copied()
                .ok_or_else(|| format!("missing --{k}"))
        };
        let workload = get("workload")?.to_string();
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload '{workload}' (known: {WORKLOADS:?})"
            ));
        }
        let seed = get("seed")?
            .parse()
            .map_err(|_| "--seed must be an unsigned integer")?;
        let seconds: f64 = get("seconds")?
            .parse()
            .map_err(|_| "--seconds must be a number")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must lie in (0, 600]".into());
        }
        let trace = match get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
        };
        if let Some(extra) = flags
            .keys()
            .find(|k| !["workload", "seed", "seconds", "trace"].contains(k))
        {
            return Err(format!("unknown flag --{extra}"));
        }
        Ok(Self {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// Weyl-sequence steps, one per input dimension: fractional parts of
/// square roots of primes, which are irrational, so every dimension
/// fills `[0, 1)` evenly.
const WEYL: [f64; 8] = [
    0.414_213_562_373_095_1,
    0.732_050_807_568_877_2,
    0.236_067_977_499_789_7,
    0.645_751_311_064_590_6,
    0.316_624_790_355_399_8,
    0.605_551_275_463_989_3,
    0.123_105_625_617_660_6,
    0.358_898_943_540_673_6,
];

/// Seeded request inputs. Dimension `d` of request `k` is
/// `frac(offset_d + k·α_d)`: a Weyl sequence whose offsets come from the
/// seed. Inputs repeat exactly for a seed and differ between seeds, yet
/// the first few requests of any seed already spread evenly over each
/// input range, so a run's median cost does not hinge on a lucky draw.
#[derive(Debug, Clone)]
pub struct Inputs {
    rng: CounterRng,
}

impl Inputs {
    /// Inputs for one workload run (`stream` separates workloads).
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Self {
            rng: CounterRng::new(seed, stream),
        }
    }

    /// Dimension `dim` (< 8) of request `k`, mapped onto `[lo, hi)`.
    #[must_use]
    pub fn uniform(&self, k: u64, dim: usize, lo: f64, hi: f64) -> f64 {
        let x = self.rng.unit_f64_at(dim as u64) + (k as f64) * WEYL[dim];
        lo + (hi - lo) * x.fract()
    }

    /// A raw 64-bit seeded draw for request `k` (seeds of nested
    /// studies, which sample on their own).
    #[must_use]
    pub fn bits(&self, k: u64) -> u64 {
        self.rng.u64_at(WEYL.len() as u64 + k)
    }
}

/// Wall-clock milliseconds spent in `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64() * 1e3, r)
}

/// `struct timespec` of the C library on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Process user + system CPU time in milliseconds, summed over all
/// threads including exited ones, at nanosecond resolution. The tick-
/// based `/proc/self/stat` counters are too coarse for requests of a
/// few milliseconds.
#[must_use]
pub fn process_cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a constant the kernel
    // accepts; the call writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Peak resident set size of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; 0 for an empty slice.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Relative difference `|a - b| / max(|b|, floor)`.
#[must_use]
pub fn rel_diff(a: f64, b: f64, floor: f64) -> f64 {
    (a - b).abs() / b.abs().max(floor)
}

/// Timings of one closed-loop request stream.
#[derive(Debug, Default, Clone)]
pub struct Requests {
    /// Wall time of each request (ms).
    pub wall_ms: Vec<f64>,
    /// Process CPU time of each request (ms), read around the request
    /// only, so output checks between requests are not charged.
    pub cpu_ms: Vec<f64>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed, were refused, degraded or failed a check.
    pub failed: u64,
}

impl Requests {
    /// Runs and records one request; `f` returns `Ok(output)` or a
    /// description of the failure.
    pub fn serve<R>(&mut self, f: impl FnOnce() -> Result<R, String>) -> Option<R> {
        let cpu0 = process_cpu_ms();
        let (ms, out) = timed(f);
        self.cpu_ms.push(process_cpu_ms() - cpu0);
        self.wall_ms.push(ms);
        self.attempted += 1;
        match out {
            Ok(r) => Some(r),
            Err(e) => {
                self.fail(&e);
                None
            }
        }
    }

    /// Counts an output-check failure of an already served request.
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("perfbench: request {} failed: {why}", self.attempted);
    }

    /// Total wall time of the recorded requests (s).
    #[must_use]
    pub fn busy_s(&self) -> f64 {
        self.wall_ms.iter().sum::<f64>() / 1e3
    }
}

/// Named metrics with units, in insertion-independent (sorted) order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, (f64, String)>);

impl Metrics {
    /// Records `name = value unit`.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.0.insert(name.to_string(), (value, unit.to_string()));
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(setups_s: &[f64], req: &Requests) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", median(setups_s), "s");
    m.put("req_p50_ms", median(&req.wall_ms), "ms");
    m.put(
        "throughput_per_s",
        req.wall_ms.len() as f64 / req.busy_s().max(1e-9),
        "1/s",
    );
    m.put(
        "cpu_ms_per_req",
        req.cpu_ms.iter().sum::<f64>() / req.cpu_ms.len().max(1) as f64,
        "ms",
    );
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m
}

/// Every per-layer metric name and unit, in `BENCHMARK.json` order. A
/// traced run prints all of them; a layer the workload never calls
/// reads 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("flowcell.sweep_ms", "ms"),
    ("flowcell.stations_per_s", "1/s"),
    ("flowcell.solve_1v_ms", "ms"),
    ("flowcell.isothermal_1v_ms", "ms"),
    ("flowcell.retarget_ms", "ms"),
    ("flowcell.duct_solves", "count"),
    ("flowcell.geometry_cache_hit_ratio", "ratio"),
    ("flowcell.context_build_ms", "ms"),
    ("thermal.assemble_ms", "ms"),
    ("thermal.refresh_ms", "ms"),
    ("thermal.step_ms", "ms"),
    ("thermal.integrator_build_ms", "ms"),
    ("thermal.solves_per_trace", "count"),
    ("thermal.rejected_steps", "count"),
    ("thermal.coefficient_refreshes", "count"),
    ("thermal.steady_solve_ms", "ms"),
    ("num.krylov_iters_per_solve", "count"),
    ("num.precond_setups", "count"),
    ("num.mg_cycles", "count"),
    ("num.recovered_solves", "count"),
    ("pdn.build_ms", "ms"),
    ("pdn.factor_ms", "ms"),
    ("pdn.solve_warm_ms", "ms"),
    ("pdn.krylov_iters", "count"),
    ("pdn.solve_direct_ms", "ms"),
    ("flow.hydraulics_us", "us"),
    ("floorplan.rasterize_ms", "ms"),
    ("cosim.retarget_ms", "ms"),
    ("cosim.operating_point_ms", "ms"),
    ("cosim.unattributed_ms", "ms"),
    ("montecarlo.sample_ms", "ms"),
    ("montecarlo.repeat_sample_ms", "ms"),
    ("montecarlo.cold_builds", "count"),
    ("montecarlo.cold_build_ms", "ms"),
    ("montecarlo.cold_build_share", "ratio"),
    ("montecarlo.retargets", "count"),
    ("engine.worker_cache_hits", "count"),
    ("engine.evicted_workers", "count"),
    ("engine.segments_reused", "count"),
    ("service.submit_ms", "ms"),
    ("service.run_next_ms", "ms"),
    ("service.durability_ms", "ms"),
    ("service.report_ms", "ms"),
    ("service.journal_bytes_per_job", "B"),
    ("jsonio.report_encode_ms", "ms"),
    ("jsonio.report_decode_ms", "ms"),
    ("jsonio.report_bytes", "B"),
    ("trace.coverage", "ratio"),
    ("trace.requests", "count"),
    ("trace.untraced_req_ms", "ms"),
    ("trace.recomposed_req_ms", "ms"),
];

/// The end-to-end metric names and units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("req_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Completes a traced run's metrics: every per-layer name present (0
/// for layers the workload does not call) and nothing else.
///
/// # Panics
///
/// When the workload recorded a name outside [`PER_LAYER`] — a bug in
/// this benchmark.
#[must_use]
pub fn per_layer(mut m: Metrics) -> Metrics {
    for name in m.0.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "metric '{name}' is not declared in PER_LAYER"
        );
    }
    for (name, unit) in PER_LAYER {
        m.0.entry(name.to_string())
            .or_insert((0.0, unit.to_string()));
    }
    m
}

/// One run's outcome: the last line the benchmark prints.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every request served and every output check passed.
    pub correct: bool,
    /// Requests attempted (set-up requests included).
    pub attempted: u64,
    /// Requests failed, refused, degraded or failing a check.
    pub failed: u64,
    /// The metrics of this run.
    pub metrics: Metrics,
}

impl Outcome {
    /// The outcome over the given request streams: correct when none
    /// of their requests failed.
    #[must_use]
    pub fn of(streams: &[&Requests], metrics: Metrics) -> Self {
        let attempted = streams.iter().map(|r| r.attempted).sum();
        let failed = streams.iter().map(|r| r.failed).sum();
        Self {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        }
    }

    /// The outcome of a run that could not finish: `why` counts as one
    /// more failed request.
    #[must_use]
    pub fn abort(mut req: Requests, why: &str) -> Self {
        req.attempted += 1;
        req.fail(why);
        Self::of(&[&req], Metrics::default())
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` (whole numbers) and `metrics`.
    #[must_use]
    pub fn to_line(&self) -> String {
        let metrics = Value::object(self.metrics.0.iter().map(|(name, (value, unit))| {
            (
                name.clone(),
                Value::object([
                    ("value".into(), Value::Number(*value)),
                    ("unit".into(), Value::String(unit.clone())),
                ]),
            )
        }));
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.to_json_string()
        )
    }

    /// Parses a result line back (the schema round-trip the tests pin).
    ///
    /// # Errors
    ///
    /// A message naming the missing or mistyped field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or(format!("field '{k}'"))
        };
        let Some(Value::Object(map)) = v.get("metrics") else {
            return Err("field 'metrics'".into());
        };
        let mut metrics = Metrics::default();
        for (name, m) in map {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or(format!("{name}.value"))?;
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .ok_or(format!("{name}.unit"))?;
            metrics.put(name, value, unit);
        }
        Ok(Self {
            correct: v
                .get("correct")
                .and_then(Value::as_bool)
                .ok_or("field 'correct'")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
        })
    }
}

/// `true` when `name` is a valid metric name: `[A-Za-z0-9_.-]+`,
/// starting with a letter or digit, at most 64 characters.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Output of a short-lived helper command, or `"unknown"`. Waits for
/// the child to exit.
fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// The filesystem type holding `path`: the longest `/proc/mounts`
/// mount point that prefixes its canonical form.
#[must_use]
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Hardware threads available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The host and run record printed before the result line: what ran,
/// where, and at what size. `extra` carries workload-specific entries.
#[must_use]
pub fn run_record(args: &Args, requests: u64, extra: Vec<(String, Value)>) -> Value {
    let mut fields = vec![
        ("workload".to_string(), Value::String(args.workload.clone())),
        ("seed".into(), Value::Number(args.seed as f64)),
        ("seconds".into(), Value::Number(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("requests_per_run".into(), Value::Number(requests as f64)),
        ("nproc".into(), Value::Number(nproc() as f64)),
        (
            "mc_workers".into(),
            Value::Number(crate::yield_mc::workers() as f64),
        ),
        // The service stores live under the working directory.
        (
            "temp_store_fs".into(),
            Value::String(filesystem_of(Path::new("."))),
        ),
        (
            "rustc".into(),
            Value::String(command_output("rustc", &["--version"])),
        ),
        (
            "commit".into(),
            Value::String(command_output("git", &["rev-parse", "--short=12", "HEAD"])),
        ),
    ];
    fields.extend(extra);
    Value::object([("record".into(), Value::object(fields))])
}

/// Records the trace's accounting: `trace.coverage` is the median
/// recomposed (sum-of-layers) request time over the median untraced
/// request time.
pub fn put_coverage(m: &mut Metrics, untraced_ms: &[f64], recomposed_ms: &[f64]) {
    let (u, r) = (median(untraced_ms), median(recomposed_ms));
    m.put("trace.coverage", r / u.max(1e-12), "ratio");
    m.put("trace.requests", untraced_ms.len() as f64, "count");
    m.put("trace.untraced_req_ms", u, "ms");
    m.put("trace.recomposed_req_ms", r, "ms");
}

/// Median over requests of untraced minus recomposed time: the time the
/// recomposed stages do not account for.
#[must_use]
pub fn median_gap(untraced_ms: &[f64], recomposed_ms: &[f64]) -> f64 {
    let gaps: Vec<f64> = untraced_ms
        .iter()
        .zip(recomposed_ms)
        .map(|(u, r)| u - r)
        .collect();
    median(&gaps)
}
