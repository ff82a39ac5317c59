//! The benchmark's own tests, at tiny sizes: metric names, seeded
//! inputs, the result schema, and each workload's output check.

use bright_core::{montecarlo, CoSimulation, McSpec, Scenario, ScenarioEngine};
use bright_jsonio::Value;
use perfbench::common::{valid_metric_name, Args, Inputs, Metrics, Outcome, END_TO_END, PER_LAYER};
use perfbench::{cosim, service, transient, yield_mc};
use std::collections::BTreeSet;

fn names(list: &[(&str, &str)]) -> Vec<String> {
    list.iter().map(|(n, _)| (*n).to_string()).collect()
}

#[test]
fn metric_names_are_valid_and_unique() {
    let all: Vec<String> = names(&END_TO_END)
        .into_iter()
        .chain(names(&PER_LAYER))
        .collect();
    for name in &all {
        assert!(valid_metric_name(name), "invalid metric name {name}");
    }
    assert_eq!(
        all.iter().collect::<BTreeSet<_>>().len(),
        all.len(),
        "duplicate metric name"
    );
    assert!(
        !valid_metric_name("has space") && !valid_metric_name("_lead") && !valid_metric_name("")
    );
}

#[test]
fn benchmark_json_lists_the_metrics_and_workloads_the_code_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = Value::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Value::as_array)
            .expect("array")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let code = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), code(&END_TO_END));
    assert_eq!(listed("per_layer"), code(&PER_LAYER));
    let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(
        workloads,
        perfbench::common::WORKLOADS.map(String::from).to_vec()
    );
}

#[test]
fn the_seed_changes_the_inputs_and_repeats_them_exactly() {
    let (a, a2, b) = (Inputs::new(7, 1), Inputs::new(7, 1), Inputs::new(8, 1));
    for k in 1..6 {
        let (pa, pa2, pb) = (
            cosim::point(&a, k),
            cosim::point(&a2, k),
            cosim::point(&b, k),
        );
        assert_eq!(
            pa.total_flow.value().to_bits(),
            pa2.total_flow.value().to_bits()
        );
        assert_ne!(pa.total_flow.value(), pb.total_flow.value());
        let flow = pa.total_flow.to_milliliters_per_minute();
        assert!((500.0..700.0).contains(&flow), "{flow}");
        assert_eq!(service::job(&a, k), service::job(&a2, k));
        assert_ne!(service::job(&a, k), service::job(&b, k));
        assert_eq!(yield_mc::study(&a, k).seed, yield_mc::study(&a2, k).seed);
        assert_ne!(yield_mc::study(&a, k).seed, yield_mc::study(&b, k).seed);
        assert_eq!(yield_mc::study(&a, k).chunk, yield_mc::CHUNK);
    }
    // Successive requests of one seed differ too (no shared prefixes).
    assert_ne!(service::job(&a, 2), service::job(&a, 5));
    let nominal = Scenario::power7_nominal();
    for inputs in [&a, &b] {
        let p = cosim::point(inputs, 0);
        assert_eq!(
            p.total_flow.value(),
            nominal.total_flow.value(),
            "request 0 is the nominal point"
        );
        assert_eq!(
            p.inlet_temperature.value(),
            nominal.inlet_temperature.value()
        );
    }
}

#[test]
fn the_result_line_round_trips_through_jsonio() {
    let mut metrics = Metrics::default();
    metrics.put("req_p50_ms", 1.203_4, "ms");
    metrics.put("setup_s", 0.812_7, "s");
    let outcome = Outcome {
        correct: true,
        attempted: 1000,
        failed: 0,
        metrics,
    };
    let line = outcome.to_line();
    assert!(
        line.contains("\"attempted\":1000,"),
        "counts are whole numbers: {line}"
    );
    let v = Value::parse(&line).expect("the line is JSON");
    let Value::Object(map) = &v else {
        panic!("not an object")
    };
    assert_eq!(
        map.keys().collect::<Vec<_>>(),
        ["attempted", "correct", "failed", "metrics"]
    );
    let back = Outcome::from_json(&v).expect("schema");
    assert_eq!((back.correct, back.attempted, back.failed), (true, 1000, 0));
    assert_eq!(back.metrics.0, outcome.metrics.0);
}

#[test]
fn arguments_parse_and_reject() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a =
        Args::parse(&argv("--workload yield_mc --seed 3 --seconds 10 --trace 1")).expect("valid");
    assert_eq!(
        (a.workload.as_str(), a.seed, a.seconds, a.trace),
        ("yield_mc", 3, 10.0, true)
    );
    for bad in [
        "--workload nope --seed 3 --seconds 10 --trace 0",
        "--workload transient_ramp --seed 3 --seconds 10 --trace 0",
        "--workload yield_mc --seed -1 --seconds 10 --trace 0",
        "--workload yield_mc --seed 3 --seconds 0 --trace 0",
        "--workload yield_mc --seed 3 --seconds 10 --trace 2",
        "--workload yield_mc --seed 3 --seconds 10",
        "--workload yield_mc --seed 3 --seconds 10 --trace 0 --extra 1",
    ] {
        assert!(Args::parse(&argv(bad)).is_err(), "accepted: {bad}");
    }
}

#[test]
fn cosim_check_accepts_a_real_report_and_rejects_a_broken_one() {
    let s = Scenario::power7_reduced();
    let mut r = CoSimulation::new(s.clone()).unwrap().run().unwrap();
    cosim::check_report(&r, &s, false).unwrap();
    r.pdn_min_voltage = s.vrm.output_voltage();
    assert!(cosim::check_report(&r, &s, false).is_err());
}

#[test]
fn tiny_yield_study_repeats_its_digest_and_passes_the_check() {
    let spec = McSpec {
        samples: 2,
        chunk: 1,
        workers: Some(2),
        ..McSpec::power7_tolerances(Scenario::power7_reduced())
    };
    let a = montecarlo::run(&spec).unwrap();
    let b = montecarlo::run(&McSpec {
        workers: Some(1),
        chunk: 2,
        ..spec.clone()
    })
    .unwrap();
    yield_mc::check(&a.report, &spec).unwrap();
    assert_eq!(yield_mc::digest(&a.report), yield_mc::digest(&b.report));
}

#[test]
fn tiny_transient_job_counts_match_the_direct_integration() {
    let spec = service::job(&Inputs::new(1, 4), 2);
    let req = service::transient_request(&spec)
        .unwrap()
        .expect("job 2 is a transient job");
    let mut outcome = ScenarioEngine::new()
        .run_transient_batch([req.clone()])
        .pop()
        .unwrap()
        .result
        .unwrap();
    let model = perfbench::pipeline::thermal_model(&req.scenario).unwrap();
    model.assemble().unwrap();
    let (direct, _) =
        transient::integrate(&model, &req, &mut Default::default(), &mut Vec::new()).unwrap();
    transient::check(&outcome, &req, direct).unwrap();
    outcome.solves += 1;
    assert!(transient::check(&outcome, &req, direct).is_err());
}

#[test]
fn tiny_service_jobs_match_the_bare_engine() {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-service-test");
    let _ = std::fs::remove_dir_all(&root);
    let mut svc = service::open(&root).unwrap();
    let mut engine = ScenarioEngine::new();
    engine.set_deterministic(true);
    let inputs = Inputs::new(5, 4);
    for k in 0..3 {
        let spec = service::job(&inputs, k);
        let reference = service::bare(&mut engine, &spec);
        let payload = service::request(&mut svc, spec, &mut Default::default()).unwrap();
        service::check(&payload, reference).unwrap();
    }
    let other = service::bare(&mut engine, &service::job(&inputs, 3));
    let payload =
        service::request(&mut svc, service::job(&inputs, 0), &mut Default::default()).unwrap();
    assert!(
        service::check(&payload, other).is_err(),
        "a different job's output must not match"
    );
    drop(svc);
    std::fs::remove_dir_all(&root).unwrap();
}
