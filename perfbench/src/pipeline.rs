//! The coupled co-simulation recomposed from each layer's public calls,
//! with a stopwatch around every call.
//!
//! `bright_core` builds its thermal stack, flow-cell template and PDN
//! system in crate-private helpers; this module rebuilds the same
//! objects from the layer crates so the traced run can time each layer
//! on its own. The traced workloads compare the recomposed headline
//! scalars against `CoSimulation::run` / `run_yield` and fail when they
//! drift, so a change to the production pipeline that this copy does
//! not follow shows up as a failed traced run instead of a wrong split.

use crate::common::timed;
use bright_core::Scenario;
use bright_flow::fluid::TemperatureDependentFluid;
use bright_flow::{ChannelArray, RectChannel};
use bright_flowcell::options::TemperatureProfile;
use bright_flowcell::{CellArray, CellGeometry, CellModel, GeometryCache, PolarizationCurve};
use bright_mesh::{Field2d, Grid2d};
use bright_num::SolverSession;
use bright_pdn::PowerGrid;
use bright_thermal::stack::{LayerSpec, MicrochannelSpec, StackConfig};
use bright_thermal::{Material, ThermalModel, ThermalSolution};
use bright_units::{Meters, Volt};
use std::collections::BTreeMap;

/// Channel length of the Table II array.
const CHANNEL_LENGTH_MM: f64 = 22.0;

/// Milliseconds per layer stage, summed over one request.
#[derive(Debug, Default, Clone)]
pub struct Spans(pub BTreeMap<&'static str, f64>);

impl Spans {
    /// Times `f` into stage `name` and returns its result.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (ms, r) = timed(f);
        *self.0.entry(name).or_insert(0.0) += ms;
        r
    }

    /// The recorded time of `name` (0 when absent).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The sum of every stage.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.0.values().sum()
    }
}

/// Per-stage samples across requests, reduced to medians at the end.
#[derive(Debug, Default, Clone)]
pub struct SpanLog(pub BTreeMap<&'static str, Vec<f64>>);

impl SpanLog {
    /// Appends one request's stage times.
    pub fn push(&mut self, spans: &Spans) {
        for (k, v) in &spans.0 {
            self.0.entry(k).or_default().push(*v);
        }
    }

    /// Median of stage `name` over the logged requests (0 when absent).
    #[must_use]
    pub fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| crate::common::median(v))
    }
}

/// Coolant properties at the scenario's inlet.
fn coolant(s: &Scenario) -> Result<bright_flow::FluidProperties, String> {
    TemperatureDependentFluid::vanadium_electrolyte()
        .at(s.inlet_temperature)
        .map_err(|e| e.to_string())
}

/// The die / flow-cell channel / cap stack a scenario describes.
///
/// # Errors
///
/// Fluid or stack validation failures.
pub fn thermal_model(s: &Scenario) -> Result<ThermalModel, String> {
    ThermalModel::new(StackConfig {
        width: s.floorplan.width(),
        height: s.floorplan.height(),
        nx: s.thermal_columns,
        ny: s.thermal_ny,
        layers: vec![
            LayerSpec::Solid {
                name: "die".into(),
                material: Material::silicon(),
                thickness: Meters::from_micrometers(400.0),
                sublayers: 2,
            },
            LayerSpec::Microchannel {
                name: "flow-cell channels".into(),
                spec: MicrochannelSpec {
                    channel_width: s.channel_width,
                    channel_height: s.channel_height,
                    channels_per_cell: s.channel_count / s.thermal_columns,
                    fluid: coolant(s)?,
                    total_flow: s.total_flow,
                    inlet_temperature: s.inlet_temperature,
                    wall_material: Material::silicon(),
                },
            },
            LayerSpec::Solid {
                name: "cap".into(),
                material: Material::silicon(),
                thickness: Meters::from_micrometers(300.0),
                sublayers: 1,
            },
        ],
        top_cooling: None,
    })
    .map_err(|e| e.to_string())
}

/// The flow-cell channel geometry of a scenario.
fn cell_geometry(s: &Scenario) -> Result<CellGeometry, String> {
    RectChannel::new(
        s.channel_width,
        s.channel_height,
        Meters::from_millimeters(CHANNEL_LENGTH_MM),
    )
    .map(CellGeometry::new)
    .map_err(|e| e.to_string())
}

/// The single-channel flow-cell template at the scenario's per-channel
/// flow and inlet temperature.
///
/// # Errors
///
/// Geometry or model validation failures.
pub fn cell_template(s: &Scenario) -> Result<CellModel, String> {
    CellModel::new(
        cell_geometry(s)?,
        bright_echem::vanadium::power7_cell_chemistry(),
        s.per_channel_flow(),
        TemperatureProfile::Uniform(s.inlet_temperature),
        s.cell_options.clone(),
    )
    .map_err(|e| e.to_string())
}

/// The cache-rail conductance system with the scenario's rail load.
///
/// # Errors
///
/// Grid, rasterization or PDN validation failures.
pub fn power_grid(s: &Scenario) -> Result<PowerGrid, String> {
    let grid = Grid2d::from_extent(
        s.floorplan.width().value(),
        s.floorplan.height().value(),
        s.pdn.nx,
        s.pdn.ny,
    )
    .map_err(|e| e.to_string())?;
    let rail = s
        .rail_load
        .rasterize(&s.floorplan, &grid)
        .map_err(|e| e.to_string())?;
    PowerGrid::new(
        grid,
        s.pdn.sheet_resistance,
        s.vrm.output_voltage(),
        s.pdn.port_resistance,
        &s.pdn.ports,
        &rail,
    )
    .map_err(|e| e.to_string())
}

/// The headline scalars both the production call and the recomposition
/// produce, compared field by field.
#[derive(Debug, Clone, Copy, Default)]
pub struct Headline {
    /// Peak junction temperature (K).
    pub peak_k: f64,
    /// Array current at 1 V (A).
    pub current_1v: f64,
    /// Isothermal array current at 1 V (A); 0 on the yield path.
    pub isothermal_1v: f64,
    /// Array open-circuit voltage (V); 0 on the yield path.
    pub ocv: f64,
    /// Operating-point array voltage (V); 0 when absent or on the yield
    /// path.
    pub op_voltage: f64,
    /// PDN minimum voltage (V).
    pub pdn_min: f64,
    /// Pumping power (W).
    pub pumping_w: f64,
}

impl Headline {
    /// The first field whose relative difference exceeds `tol`, or
    /// `None` when the two agree.
    #[must_use]
    pub fn drift(&self, reference: &Self, tol: f64) -> Option<String> {
        let fields = [
            ("peak_k", self.peak_k, reference.peak_k),
            ("current_1v", self.current_1v, reference.current_1v),
            ("isothermal_1v", self.isothermal_1v, reference.isothermal_1v),
            ("ocv", self.ocv, reference.ocv),
            ("op_voltage", self.op_voltage, reference.op_voltage),
            ("pdn_min", self.pdn_min, reference.pdn_min),
            ("pumping_w", self.pumping_w, reference.pumping_w),
        ];
        fields
            .iter()
            .find(|(_, a, b)| crate::common::rel_diff(*a, *b, 1e-12) > tol)
            .map(|(n, a, b)| format!("{n}: recomposed {a} vs production {b}"))
    }
}

/// Long-lived layer objects of the recomposed pipeline, built once and
/// moved between operating points the way `CoSimulation` moves its own.
#[derive(Debug)]
pub struct Pipeline {
    /// Scenario the layers currently describe.
    scenario: Scenario,
    thermal: ThermalModel,
    thermal_session: SolverSession,
    template: CellModel,
    /// Persistent per-column array of the yield path.
    yield_array: Option<CellArray>,
    grid: PowerGrid,
    pdn_session: SolverSession,
    /// Duct-solve cache the geometry retargets consult.
    pub cache: GeometryCache,
}

/// Build-time stage costs of a [`Pipeline`] (ms).
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildCosts {
    /// Thermal stack construction + operator assembly.
    pub thermal_assemble_ms: f64,
    /// Flow-cell template construction + solve-context build.
    pub context_build_ms: f64,
    /// PDN conductance system construction.
    pub pdn_build_ms: f64,
    /// Banded-Cholesky factorization of the PDN system.
    pub pdn_factor_ms: f64,
}

impl Pipeline {
    /// Builds every layer object for `s` cold, timing each build.
    ///
    /// # Errors
    ///
    /// Any layer's construction failure.
    pub fn build(s: &Scenario) -> Result<(Self, BuildCosts), String> {
        let mut costs = BuildCosts::default();
        let (ms, thermal) = timed(|| -> Result<ThermalModel, String> {
            let m = thermal_model(s)?;
            m.assemble().map_err(|e| e.to_string())?;
            Ok(m)
        });
        costs.thermal_assemble_ms = ms;
        let thermal = thermal?;
        let (ms, template) = timed(|| -> Result<CellModel, String> {
            let t = cell_template(s)?;
            t.warm().map_err(|e| e.to_string())?;
            Ok(t)
        });
        costs.context_build_ms = ms;
        let template = template?;
        let cache = GeometryCache::new();
        cache.warm_from(&template).map_err(|e| e.to_string())?;
        let (ms, grid) = timed(|| power_grid(s));
        costs.pdn_build_ms = ms;
        let grid = grid?;
        // The factor is built lazily by the first direct solve; time it
        // as the difference between that solve and a repeat.
        let (first, r) = timed(|| grid.solve_direct());
        r.map_err(|e| e.to_string())?;
        let (repeat, r) = timed(|| grid.solve_direct());
        r.map_err(|e| e.to_string())?;
        costs.pdn_factor_ms = (first - repeat).max(0.0);
        let pipeline = Self {
            scenario: s.clone(),
            thermal,
            thermal_session: SolverSession::new(ThermalModel::iter_options()),
            template,
            yield_array: None,
            grid,
            pdn_session: SolverSession::new(PowerGrid::iter_options(
                PowerGrid::default_preconditioner(),
            )),
            cache,
        };
        Ok((pipeline, costs))
    }

    /// Thermal solver-session statistics.
    #[must_use]
    pub fn thermal_stats(&self) -> bright_num::SessionStats {
        self.thermal_session.stats()
    }

    /// Krylov iterations of the most recent thermal solve.
    #[must_use]
    pub fn thermal_last_iterations(&self) -> usize {
        self.thermal_session.last_stats().iterations
    }

    /// Moves the thermal operator and the flow-cell template to `s`
    /// (same operator pattern), as `CoSimulation::retarget` does.
    fn retarget(&mut self, s: &Scenario, spans: &mut Spans) -> Result<(), String> {
        let fluid = coolant(s)?;
        spans
            .time("thermal.refresh", || {
                self.thermal.refresh_microchannels(|spec| {
                    spec.fluid = fluid;
                    spec.total_flow = s.total_flow;
                    spec.inlet_temperature = s.inlet_temperature;
                    spec.channel_width = s.channel_width;
                    spec.channel_height = s.channel_height;
                })
            })
            .map_err(|e| e.to_string())?;
        let geometry = cell_geometry(s)?;
        let template = &mut self.template;
        let cache = &self.cache;
        spans
            .time(
                "flowcell.retarget",
                || -> Result<(), bright_flowcell::FlowCellError> {
                    template.retarget_geometry(geometry, Some(cache))?;
                    template.retarget_contact_asr(s.cell_options.contact_asr)?;
                    if template.flow().value() != s.per_channel_flow().value() {
                        template.retarget_flow(s.per_channel_flow())?;
                    }
                    let inlet = TemperatureProfile::Uniform(s.inlet_temperature);
                    if *template.temperature() != inlet {
                        template.retarget_temperature(inlet)?;
                    }
                    Ok(())
                },
            )
            .map_err(|e| e.to_string())?;
        self.scenario = s.clone();
        Ok(())
    }

    /// Thermal solve under the chip load.
    fn thermal_solve(&mut self, spans: &mut Spans) -> Result<ThermalSolution, String> {
        let s = &self.scenario;
        let power = spans
            .time("floorplan.rasterize", || {
                s.thermal_load.rasterize(&s.floorplan, self.thermal.grid())
            })
            .map_err(|e| e.to_string())?;
        self.thermal_session
            .set_preconditioner(self.thermal.solve_options().preconditioner);
        let (thermal, session) = (&self.thermal, &mut self.thermal_session);
        spans
            .time("thermal.steady_solve", || {
                thermal.solve_steady_with_sources_warm(&[(0, &power)], session)
            })
            .map_err(|e| e.to_string())
    }

    /// Rail-load rasterization onto the PDN grid, stamped into the RHS
    /// (the stamp is charged to the PDN `stage` that solves it).
    fn pdn_load(&mut self, spans: &mut Spans, stage: &'static str) -> Result<(), String> {
        let s = &self.scenario;
        let rail: Field2d = spans
            .time("floorplan.rasterize", || {
                s.rail_load.rasterize(&s.floorplan, self.grid.grid())
            })
            .map_err(|e| e.to_string())?;
        let grid = &mut self.grid;
        spans
            .time(stage, || grid.set_power_density(&rail))
            .map_err(|e| e.to_string())
    }

    /// Pumping power through the channel array.
    fn hydraulics(&self, spans: &mut Spans) -> Result<f64, String> {
        let s = &self.scenario;
        let fluid = coolant(s)?;
        spans.time("flow.hydraulics", || {
            let pitch = Meters::new(s.floorplan.width().value() / s.channel_count as f64);
            let array =
                ChannelArray::new(*self.template.geometry().channel(), s.channel_count, pitch)
                    .map_err(|e| e.to_string())?;
            array.pressure_drop(&fluid, s.total_flow);
            array
                .pumping_power(&fluid, s.total_flow, s.pump_efficiency)
                .map(|w| w.value())
                .map_err(|e| e.to_string())
        })
    }

    /// `CoSimulation::retarget` + `run` at `s`, one public call per
    /// stage. Returns the headline scalars and the polarization-sweep
    /// station count (columns × stations × voltages).
    ///
    /// # Errors
    ///
    /// Any stage's failure.
    pub fn run(&mut self, s: &Scenario, spans: &mut Spans) -> Result<(Headline, f64), String> {
        self.retarget(s, spans)?;
        let sol = self.thermal_solve(spans)?;
        let s = self.scenario.clone();
        let group = s.channel_count / s.thermal_columns;
        let profiles: Vec<TemperatureProfile> = (0..s.thermal_columns)
            .map(|ix| TemperatureProfile::Sampled(sol.channel_profile(ix)))
            .collect();
        let template = &self.template;
        let array = spans
            .time("flowcell.retarget", || {
                CellArray::new(template.clone(), s.thermal_columns)?
                    .with_channel_temperatures(profiles)
            })
            .map_err(|e| e.to_string())?;
        let curve = spans
            .time("flowcell.sweep", || {
                array.polarization_curve(s.sweep_points)
            })
            .map_err(|e| e.to_string())?
            .scaled_parallel(group);
        let at_1v = spans
            .time("flowcell.solve_1v", || array.solve_at_voltage(1.0))
            .map_err(|e| e.to_string())?;
        let isothermal = spans
            .time("flowcell.isothermal_1v", || {
                CellArray::new(template.clone(), s.channel_count)?.solve_at_voltage(1.0)
            })
            .map_err(|e| e.to_string())?;
        let rail_power = s
            .rail_load
            .total_power(&s.floorplan)
            .map_err(|e| e.to_string())?;
        let op = spans.time("cosim.operating_point", || {
            operating_point(&s, &curve, rail_power.value())
        })?;
        self.pdn_load(spans, "pdn.solve_warm")?;
        self.pdn_session
            .set_preconditioner(self.grid.preferred_preconditioner());
        let (grid, session) = (&self.grid, &mut self.pdn_session);
        let pdn = spans
            .time("pdn.solve_warm", || grid.solve_warm(session))
            .map_err(|e| e.to_string())?;
        let pumping_w = self.hydraulics(spans)?;
        let stations = (s.thermal_columns * s.cell_options.nx * s.sweep_points) as f64;
        Ok((
            Headline {
                peak_k: sol.max_temperature().value(),
                current_1v: at_1v.current.value() * group as f64,
                isothermal_1v: isothermal.current.value(),
                ocv: curve.open_circuit_voltage().value(),
                op_voltage: op.unwrap_or(0.0),
                pdn_min: pdn.min_voltage().value(),
                pumping_w,
            },
            stations,
        ))
    }

    /// Krylov iterations of the most recent PDN solve.
    #[must_use]
    pub fn pdn_last_iterations(&self) -> usize {
        self.pdn_session.last_stats().iterations
    }

    /// Monte Carlo sample serve (`retarget` + `reset_warm_starts` +
    /// `run_yield`) at `s`, one public call per stage.
    ///
    /// # Errors
    ///
    /// Any stage's failure.
    pub fn run_yield(&mut self, s: &Scenario, spans: &mut Spans) -> Result<Headline, String> {
        self.retarget(s, spans)?;
        self.thermal_session.reset_warm_start();
        let sol = self.thermal_solve(spans)?;
        let s = self.scenario.clone();
        let group = s.channel_count / s.thermal_columns;
        let profiles: Vec<TemperatureProfile> = (0..s.thermal_columns)
            .map(|ix| TemperatureProfile::Sampled(sol.channel_profile(ix)))
            .collect();
        let geometry = cell_geometry(&s)?;
        let per_channel = s.per_channel_flow();
        let (template, cache, slot) = (&self.template, &self.cache, &mut self.yield_array);
        let array = spans
            .time(
                "flowcell.retarget",
                || -> Result<&CellArray, bright_flowcell::FlowCellError> {
                    match slot {
                        Some(array) => {
                            array.retarget_models(|m| {
                                m.retarget_geometry(geometry, Some(cache))?;
                                m.retarget_contact_asr(s.cell_options.contact_asr)?;
                                if m.flow().value() != per_channel.value() {
                                    m.retarget_flow(per_channel)?;
                                }
                                Ok(())
                            })?;
                            array.retarget_channel_temperatures(profiles)?;
                        }
                        None => {
                            *slot = Some(
                                CellArray::new(template.clone(), s.thermal_columns)?
                                    .with_channel_temperatures(profiles)?,
                            );
                        }
                    }
                    Ok(slot.as_ref().expect("set above"))
                },
            )
            .map_err(|e| e.to_string())?;
        let at_1v = spans
            .time("flowcell.solve_1v", || array.solve_at_voltage(1.0))
            .map_err(|e| e.to_string())?;
        self.pdn_load(spans, "pdn.solve_direct")?;
        let pdn = spans
            .time("pdn.solve_direct", || self.grid.solve_direct())
            .map_err(|e| e.to_string())?;
        let pumping_w = self.hydraulics(spans)?;
        Ok(Headline {
            peak_k: sol.max_temperature().value(),
            current_1v: at_1v.current.value() * group as f64,
            pdn_min: pdn.min_voltage().value(),
            pumping_w,
            ..Headline::default()
        })
    }
}

/// The stable (high-voltage) intersection of the array power curve with
/// the VRM input demand: a 400-step ladder down from the OCV, as the
/// co-simulation scans it. Returns the array voltage, or `None` when the
/// array cannot meet the demand.
fn operating_point(
    s: &Scenario,
    curve: &PolarizationCurve,
    rail_power: f64,
) -> Result<Option<f64>, String> {
    let v_out = s.vrm.output_voltage().value();
    let ocv = curve.open_circuit_voltage().value();
    if ocv <= v_out {
        return Ok(None);
    }
    let n = 400;
    for k in 1..n {
        let v = ocv - (ocv - v_out) * k as f64 / n as f64;
        let Some(current) = curve.current_at_voltage(v) else {
            continue;
        };
        let eff = s
            .vrm
            .efficiency_at(Volt::new(v))
            .map_err(|e| e.to_string())?;
        if v * current.value() >= rail_power / eff {
            return Ok(Some(v));
        }
    }
    Ok(None)
}
