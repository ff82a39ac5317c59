//! PR-4 performance gate: multi-backend hot kernels. Records the
//! results in `BENCH_PR4.json`.
//!
//! Three benchmark families, mirroring the acceptance criteria:
//!
//! * `matvec_backends` — CSR matvec on the 212×170 (full paper
//!   resolution) PDN conductance operator under the scalar, blocked
//!   and threaded backends. Gate: threaded ≥ 2× over scalar.
//! * `ssor_level_sweep` — one SSOR(1.5) application (forward sweep,
//!   diagonal scaling, backward sweep) on a 3×-resolution PDN grid,
//!   sequential vs level-scheduled parallel. Gate ≥ 1.5×.
//! * `bicgstab_fused` — an end-to-end BiCGSTAB solve of a 212×170
//!   upwind convection–diffusion system: the multi-backend path pinned
//!   to the threaded backend
//!   (backend-dispatched matvec + fused pairwise reductions) vs the
//!   pre-PR-4 loop (scalar matvec, sequential unfused dots),
//!   replicated in this binary as the baseline. Gate ≥ 1.1×.
//!
//! The parallel gates measure wall-clock speedup from threading, so
//! they are **enforced only on hosts with ≥ 4 hardware threads** (the
//! CI runners); on smaller hosts the numbers are still measured and
//! recorded, with `gates.enforced = false` and the reason string.
//!
//! Usage: `bench_pr4 [--quick] [--out <path>]` (default `BENCH_PR4.json`).

use bright_floorplan::{power7, PowerScenario};
use bright_jsonio::Value;
use bright_num::kernels::{hardware_threads, kernel_threads};
use bright_num::solvers::{bicgstab_with_workspace, IterOptions, KrylovWorkspace};
use bright_num::{
    Backend, CsrMatrix, KernelSpec, PrecondSpec, TripletMatrix,
};
use bright_pdn::{PortLayout, PowerGrid};
use bright_units::Volt;
use std::hint::black_box;
use std::time::Instant;

/// The full-resolution PDN reference grid of the acceptance criteria.
const REF_NX: usize = 212;
const REF_NY: usize = 170;
/// The "big grid" for the sweep benchmark: 5× the paper resolution per
/// axis — the through-chip microchannel-stack class of the related
/// work, and a grid whose ~1900 anti-diagonal dependency levels are
/// ~470 rows wide on average, wide enough to shard across workers.
const SWEEP_NX: usize = 1060;
const SWEEP_NY: usize = 850;

fn time<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    // One untimed warm-up, then the best of `reps` timed repetitions
    // (minimum is the least noisy statistic on a shared host).
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Builds the cache-rail PDN grid at the given resolution with the
/// Fig. 8 electrical parameters.
fn pdn_grid(nx: usize, ny: usize) -> PowerGrid {
    let plan = power7::floorplan();
    let grid =
        bright_mesh::Grid2d::from_extent(plan.width().value(), plan.height().value(), nx, ny)
            .expect("grid");
    let load = PowerScenario::cache_only()
        .rasterize(&plan, &grid)
        .expect("rail map");
    PowerGrid::new(
        grid,
        bright_pdn::presets::CACHE_RAIL_SHEET_RESISTANCE,
        Volt::new(1.0),
        bright_pdn::presets::PORT_RESISTANCE,
        &PortLayout::UniformArray {
            pitch: bright_pdn::presets::PORT_PITCH,
        },
        &load,
    )
    .expect("valid grid")
}

/// Upwind 2-D convection–diffusion operator (nonsymmetric; the thermal
/// advection structure at PDN-grid scale).
fn convection_diffusion_2d(nx: usize, ny: usize, peclet: f64) -> CsrMatrix {
    let idx = |i: usize, j: usize| i * ny + j;
    let mut t = TripletMatrix::with_capacity(nx * ny, nx * ny, 5 * nx * ny);
    for i in 0..nx {
        for j in 0..ny {
            let me = idx(i, j);
            let mut diag = 4.0 + peclet;
            if i > 0 {
                t.push(me, idx(i - 1, j), -1.0 - peclet).unwrap();
            } else {
                diag += peclet;
            }
            if i + 1 < nx {
                t.push(me, idx(i + 1, j), -1.0).unwrap();
            }
            if j > 0 {
                t.push(me, idx(i, j - 1), -1.0).unwrap();
            }
            if j + 1 < ny {
                t.push(me, idx(i, j + 1), -1.0).unwrap();
            }
            t.push(me, me, diag).unwrap();
        }
    }
    t.to_csr()
}

struct MatvecResult {
    scalar_s: f64,
    blocked_s: f64,
    threaded_s: f64,
    n: usize,
    nnz: usize,
}

fn bench_matvec(reps: usize, inner: usize) -> MatvecResult {
    let pg = pdn_grid(REF_NX, REF_NY);
    let session = pg.session();
    let a = session.matrix();
    let n = a.rows();
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.37).sin()).collect();
    let mut y = vec![0.0; n];
    let mut run = |backend: Backend| {
        time(reps, || {
            for _ in 0..inner {
                a.matvec_into_backend(&x, &mut y, backend).expect("matvec");
            }
            black_box(&y);
        }) / inner as f64
    };
    let scalar_s = run(Backend::Scalar);
    let blocked_s = run(Backend::Blocked);
    let threaded_s = run(Backend::Threaded);
    for (name, s) in [
        ("scalar", scalar_s),
        ("blocked", blocked_s),
        ("threaded", threaded_s),
    ] {
        println!(
            "  matvec_{name:<9} {:>9.2} us/matvec  ({:.2}x vs scalar)  [{REF_NX}x{REF_NY}, nnz {}]",
            s * 1e6,
            scalar_s / s,
            a.nnz()
        );
    }
    MatvecResult {
        scalar_s,
        blocked_s,
        threaded_s,
        n,
        nnz: a.nnz(),
    }
}

struct SweepResult {
    scalar_s: f64,
    threaded_s: f64,
    n: usize,
}

fn bench_ssor_sweep(reps: usize, inner: usize, nx: usize, ny: usize) -> SweepResult {
    let pg = pdn_grid(nx, ny);
    let session = pg.session();
    let a = session.matrix();
    let n = a.rows();
    let src: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.23).cos()).collect();
    let mut dst = vec![0.0; n];
    let mut run = |kernel: KernelSpec| {
        let mut p = PrecondSpec::Ssor { omega: 1.5 }.build();
        p.set_kernel(kernel);
        p.setup(a).expect("SSOR setup");
        // Warm once so lazily built level schedules are excluded.
        p.apply(&mut dst, &src);
        time(reps, || {
            for _ in 0..inner {
                p.apply(&mut dst, &src);
            }
            black_box(&dst);
        }) / inner as f64
    };
    let scalar_s = run(KernelSpec::Fixed(Backend::Scalar));
    let threaded_s = run(KernelSpec::Fixed(Backend::Threaded));
    println!(
        "  ssor_sweep scalar {:>9.2} us  level-scheduled {:>9.2} us  speedup {:.2}x  [{nx}x{ny}]",
        scalar_s * 1e6,
        threaded_s * 1e6,
        scalar_s / threaded_s
    );
    SweepResult {
        scalar_s,
        threaded_s,
        n,
    }
}

/// The pre-PR-4 BiCGSTAB loop: scalar matvec, sequential unfused
/// reductions, Jacobi preconditioning — the baseline the fused
/// multi-backend path is gated against.
mod baseline {
    use bright_num::CsrMatrix;

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn norm2(a: &[f64]) -> f64 {
        dot(a, a).sqrt()
    }

    #[allow(clippy::many_single_char_names, clippy::similar_names)]
    pub fn bicgstab_jacobi(
        a: &CsrMatrix,
        b: &[f64],
        tol: f64,
        max_it: usize,
    ) -> (Vec<f64>, usize) {
        let n = b.len();
        let inv_diag: Vec<f64> = a.diagonal().iter().map(|d| 1.0 / d).collect();
        let apply = |dst: &mut [f64], src: &[f64], inv: &[f64]| {
            for ((d, s), m) in dst.iter_mut().zip(src).zip(inv) {
                *d = s * m;
            }
        };
        let b_norm = norm2(b);
        let mut x = vec![0.0; n];
        let mut r = b.to_vec();
        let r_hat = r.clone();
        let mut v = vec![0.0; n];
        let mut p = vec![0.0; n];
        let mut p_hat = vec![0.0; n];
        let mut s = vec![0.0; n];
        let mut s_hat = vec![0.0; n];
        let mut t = vec![0.0; n];
        let (mut rho, mut alpha, mut omega) = (1.0f64, 1.0f64, 1.0f64);
        for it in 0..max_it {
            if norm2(&r) / b_norm <= tol {
                return (x, it);
            }
            let rho_new = dot(&r_hat, &r);
            let beta = (rho_new / rho) * (alpha / omega);
            rho = rho_new;
            for i in 0..n {
                p[i] = r[i] + beta * (p[i] - omega * v[i]);
            }
            apply(&mut p_hat, &p, &inv_diag);
            a.matvec_into(&p_hat, &mut v).unwrap();
            alpha = rho / dot(&r_hat, &v);
            for i in 0..n {
                s[i] = r[i] - alpha * v[i];
            }
            if norm2(&s) / b_norm <= tol {
                for i in 0..n {
                    x[i] += alpha * p_hat[i];
                }
                return (x, it + 1);
            }
            apply(&mut s_hat, &s, &inv_diag);
            a.matvec_into(&s_hat, &mut t).unwrap();
            omega = dot(&t, &s) / dot(&t, &t);
            for i in 0..n {
                x[i] += alpha * p_hat[i] + omega * s_hat[i];
                r[i] = s[i] - omega * t[i];
            }
        }
        (x, max_it)
    }
}

struct SolveResult {
    baseline_s: f64,
    optimized_s: f64,
    baseline_iters: usize,
    optimized_iters: usize,
}

fn bench_bicgstab(reps: usize) -> SolveResult {
    let a = convection_diffusion_2d(REF_NX, REF_NY, 2.0);
    let n = a.rows();
    let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.11).sin()).collect();
    let b = a.matvec(&x_true).unwrap();
    let tol = 1e-10;

    let mut baseline_iters = 0usize;
    let baseline_s = time(reps, || {
        let (x, iters) = baseline::bicgstab_jacobi(&a, &b, tol, 50_000);
        baseline_iters = iters;
        black_box(x);
    });

    // Pinned to the threaded backend: this leg measures the fused
    // multi-backend solve the gate was set for, whatever `Auto` picks.
    let opts = IterOptions {
        tolerance: tol,
        max_iterations: 50_000,
        preconditioner: PrecondSpec::Jacobi,
        kernel: KernelSpec::Fixed(Backend::Threaded),
    };
    let mut optimized_iters = 0usize;
    let mut check = Vec::new();
    let optimized_s = time(reps, || {
        let mut ws = KrylovWorkspace::new();
        let mut x = Vec::new();
        let stats = bicgstab_with_workspace(&a, &b, &mut x, &opts, &mut ws).expect("solve");
        optimized_iters = stats.iterations;
        check = x;
        black_box(&check);
    });
    // Both paths must reach the same solution.
    for (u, v) in check.iter().zip(&x_true) {
        assert!((u - v).abs() < 1e-6, "fused solve diverged: {u} vs {v}");
    }
    println!(
        "  bicgstab_fused baseline {:>8.4} s ({baseline_iters} it)  optimized {:>8.4} s ({optimized_iters} it)  speedup {:.2}x  [{REF_NX}x{REF_NY}]",
        baseline_s,
        optimized_s,
        baseline_s / optimized_s
    );
    SolveResult {
        baseline_s,
        optimized_s,
        baseline_iters,
        optimized_iters,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR4.json".to_string());
    let reps = if quick { 3 } else { 5 };
    let inner = if quick { 30 } else { 100 };
    let solve_reps = if quick { 2 } else { 3 };

    bright_bench::banner(
        "BENCH_PR4",
        "multi-backend kernels: blocked/threaded matvec, level-scheduled sweeps, fused reductions",
    );
    if std::env::var("BRIGHT_KERNEL_BACKEND").is_ok() {
        eprintln!(
            "WARNING: BRIGHT_KERNEL_BACKEND overrides every fixed backend; \
             unset it for meaningful backend comparisons"
        );
    }
    let hw = hardware_threads();
    let pool = kernel_threads();
    println!("  host: {hw} hardware threads, kernel pool {pool}");

    let matvec = bench_matvec(reps, inner);
    let sweep = bench_ssor_sweep(reps, inner.min(40), SWEEP_NX, SWEEP_NY);
    let solve = bench_bicgstab(solve_reps);

    // Parallel wall-clock gates need real cores; record everywhere,
    // enforce on CI-class hosts.
    let enforced = hw >= 4;
    let threaded_matvec_speedup = matvec.scalar_s / matvec.threaded_s;
    let blocked_matvec_speedup = matvec.scalar_s / matvec.blocked_s;
    let sweep_speedup = sweep.scalar_s / sweep.threaded_s;
    let solve_speedup = solve.baseline_s / solve.optimized_s;

    let doc = Value::object([
        ("hardware_threads".into(), Value::Number(hw as f64)),
        ("pool_threads".into(), Value::Number(pool as f64)),
        (
            "matvec".into(),
            Value::object([
                ("grid".into(), Value::String(format!("{REF_NX}x{REF_NY}"))),
                ("rows".into(), Value::Number(matvec.n as f64)),
                ("nnz".into(), Value::Number(matvec.nnz as f64)),
                ("scalar_s".into(), Value::Number(matvec.scalar_s)),
                ("blocked_s".into(), Value::Number(matvec.blocked_s)),
                ("threaded_s".into(), Value::Number(matvec.threaded_s)),
                (
                    "blocked_speedup".into(),
                    Value::Number(blocked_matvec_speedup),
                ),
                (
                    "threaded_speedup".into(),
                    Value::Number(threaded_matvec_speedup),
                ),
            ]),
        ),
        (
            "ssor_level_sweep".into(),
            Value::object([
                ("grid".into(), Value::String(format!("{SWEEP_NX}x{SWEEP_NY}"))),
                ("rows".into(), Value::Number(sweep.n as f64)),
                ("scalar_s".into(), Value::Number(sweep.scalar_s)),
                ("threaded_s".into(), Value::Number(sweep.threaded_s)),
                ("speedup".into(), Value::Number(sweep_speedup)),
            ]),
        ),
        (
            "bicgstab_fused".into(),
            Value::object([
                ("grid".into(), Value::String(format!("{REF_NX}x{REF_NY}"))),
                ("baseline_s".into(), Value::Number(solve.baseline_s)),
                ("optimized_s".into(), Value::Number(solve.optimized_s)),
                (
                    "baseline_iterations".into(),
                    Value::Number(solve.baseline_iters as f64),
                ),
                (
                    "optimized_iterations".into(),
                    Value::Number(solve.optimized_iters as f64),
                ),
                ("speedup".into(), Value::Number(solve_speedup)),
            ]),
        ),
        ("quick".into(), Value::Bool(quick)),
        (
            "gates".into(),
            Value::object([
                ("threaded_matvec_min".into(), Value::Number(2.0)),
                ("ssor_sweep_min".into(), Value::Number(1.5)),
                ("bicgstab_fused_min".into(), Value::Number(1.1)),
                ("enforced".into(), Value::Bool(enforced)),
                (
                    "enforce_condition".into(),
                    Value::String(
                        "wall-clock parallel gates require >= 4 hardware threads".into(),
                    ),
                ),
            ]),
        ),
    ]);
    std::fs::write(&out_path, doc.to_json_string_pretty() + "\n").expect("write BENCH_PR4.json");
    println!("  results written to {out_path}");

    if !enforced {
        println!(
            "  gates recorded but not enforced: {hw} hardware thread(s) < 4 \
             (threaded {threaded_matvec_speedup:.2}x, sweep {sweep_speedup:.2}x, \
             fused solve {solve_speedup:.2}x)"
        );
        return;
    }
    let mut failed = false;
    let mut gate = |name: &str, got: f64, min: f64| {
        if got < min {
            eprintln!("GATE FAILED: {name} speedup {got:.2}x < required {min:.2}x");
            failed = true;
        }
    };
    gate("threaded_matvec", threaded_matvec_speedup, 2.0);
    gate("ssor_level_sweep", sweep_speedup, 1.5);
    gate("bicgstab_fused", solve_speedup, 1.1);
    if failed {
        std::process::exit(1);
    }
    println!("  all performance gates passed");
}
