//! The coupled flow-cell solver.
//!
//! For a trial terminal voltage `V`, the solver marches down the channel;
//! at every station the local current density `i(x)` must satisfy the
//! voltage balance (paper Section II-A):
//!
//! ```text
//! V = U_eq(T) − η_act+mt,anode(i) + η_act+mt,cathode(i) − i·ASR(T)
//! ```
//!
//! where the activation and mass-transfer overpotentials come from the
//! Butler–Volmer inversion with *surface* concentrations, which the
//! transport marcher exposes as exact affine functions of the wall flux.
//!
//! The residual `R(i)` of that balance is strictly decreasing in `i`, and
//! because the surface concentrations are affine in the flux its slope
//! `dR/di` is analytic (implicit differentiation of Butler–Volmer,
//! [`bright_echem::ResolvedKinetics::overpotential_with_slope`]). Each
//! station is solved by Newton's method on that slope, safeguarded by a
//! sign bracket on `[0, i_lim)` and taken in the variable
//! `−ln(1 − i/i_lim)`, which straightens the logarithmic singularity at
//! the transport limit `i_lim`. A station with `R(0) ≤ 0` carries no
//! current; one with `R` still non-negative at the limit sits on the
//! transport-limited plateau. The committed flux then advances both
//! streams' concentration fields.
//!
//! A voltage ladder (a polarization sweep) is solved in one *lockstep*
//! march: every point is a lane, and the lanes advance down the channel
//! together. The station operators depend on the station, not on the
//! voltage, and point `v` needs only point `v−1`'s roots at this station
//! and the previous one to start its own root, so within a station the
//! lanes are solved in ladder order and all of them share one multi-lane
//! back-substitution per electrode
//! ([`bright_num::tridiag::TridiagonalFactorization::solve_lanes_in_place`]).
//! Each lane's arithmetic is that of a one-lane march, so a sweep's
//! solutions are bitwise-equal to solving its points one at a time; a
//! single-point solve is simply the one-lane march.

use crate::geometry::CellGeometry;
use crate::options::{SolverOptions, TemperatureProfile, VelocityModel};
use crate::polarization::{PolarizationCurve, PolarizationPoint};
use crate::transport::{HalfCellMarcher, StationResponse, TransportOp};
use crate::FlowCellError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use bright_echem::electrolyte::area_specific_resistance;
use bright_echem::{CellChemistry, Electrolyte, ResolvedKinetics, SurfaceState};
use bright_flow::profile::{plane_poiseuille, DuctFlowSolution};
use bright_num::roots::{brent, RootOptions};
use bright_units::constants::FARADAY;
use bright_units::{
    Ampere, AmperePerSquareMeter, CubicMetersPerSecond, Kelvin, MolePerCubicMeter, SquareMeters,
    Volt, Watt,
};

/// A configured single-channel flow cell.
#[derive(Debug)]
pub struct CellModel {
    geometry: CellGeometry,
    chemistry: CellChemistry,
    flow: CubicMetersPerSecond,
    temperature: TemperatureProfile,
    options: SolverOptions,
    /// Geometry-keyed context (grid spacings + normalized velocity
    /// shape): survives every coefficient retarget and is *shared*
    /// across models of the same geometry — `with_temperature` /
    /// `with_flow` clones and array channels all point at one duct
    /// solution.
    geo: OnceLock<Arc<GeometryContext>>,
    /// Geometry builds this model itself paid for (0 when the context
    /// was inherited; incremented exactly when the `geo` cell's
    /// initializer runs, whether via a solve or `warm_geometry`).
    geo_builds_paid: std::sync::atomic::AtomicU64,
    /// Counters salvaged from contexts discarded by a failed refresh,
    /// folded into the next cold rebuild so [`CellContextStats`] stays
    /// monotonic over the model's life.
    stats_carry: CellContextStats,
    /// Lazily built solve context (coefficient state + counters),
    /// shared by every solve on this model and refreshed **in place**
    /// by the `retarget_*` mutators.
    ctx: OnceLock<SolveContext>,
}

impl Clone for CellModel {
    fn clone(&self) -> Self {
        // A clone shares the geometry `Arc` but paid for nothing:
        // its build attribution starts at zero (matching the
        // `with_temperature`/`with_flow` siblings), while the cloned
        // coefficient state and the remaining counters carry over.
        let mut ctx = self.ctx.clone();
        if let Some(c) = ctx.get_mut() {
            c.stats.geometry_builds = 0;
        }
        let mut stats_carry = self.stats_carry;
        stats_carry.geometry_builds = 0;
        Self {
            geometry: self.geometry,
            chemistry: self.chemistry.clone(),
            flow: self.flow,
            temperature: self.temperature.clone(),
            options: self.options.clone(),
            geo: self.geo.clone(),
            geo_builds_paid: std::sync::atomic::AtomicU64::new(0),
            stats_carry,
            ctx,
        }
    }
}

/// Every coefficient input of a [`CellModel`] — the fields a built
/// solve context can be moved between in place by
/// [`CellModel::retarget`]. The chemistry's inlet compositions move
/// separately ([`CellModel::retarget_inlets`]); the discretization
/// options are shape, not coefficients, and never move.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTarget {
    /// Channel geometry.
    pub geometry: CellGeometry,
    /// Contact/electrode area-specific resistance (Ω·m²).
    pub contact_asr: f64,
    /// Per-channel volumetric flow rate.
    pub flow: CubicMetersPerSecond,
    /// Temperature profile seen by the cell.
    pub temperature: TemperatureProfile,
}

/// Per-station chemistry snapshot (temperature-resolved), with the
/// constants of the station's voltage balance resolved once at context
/// build/refresh rather than on every residual evaluation.
#[derive(Debug, Clone)]
struct StationChem {
    chem: CellChemistry,
    ocv: f64,
    asr: f64,
    /// Negative-electrode (anode) kinetics at the station temperature.
    kin_a: ResolvedKinetics,
    /// Positive-electrode (cathode) kinetics at the station temperature.
    kin_c: ResolvedKinetics,
    /// `1/(n·F)` of each electrode: current density → wall molar flux.
    inv_nf_a: f64,
    inv_nf_c: f64,
}

/// Counters of the geometry/coefficient context split. All values are
/// monotonic over a model's life and scoped to work *this model paid
/// for*: an inherited (shared) geometry context does not count as a
/// build here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellContextStats {
    /// Geometry contexts built by this model (duct-profile solves /
    /// velocity-shape evaluations). Stays 0 when the geometry was
    /// inherited from another model (a `with_*` sibling or a plain
    /// clone); never grows past 1 otherwise — coefficient retargets
    /// reuse it.
    pub geometry_builds: u64,
    /// Full cold coefficient-state builds (1 after the first solve;
    /// grows only if a failed refresh forces a rebuild).
    pub coefficient_builds: u64,
    /// In-place coefficient refreshes served by the `retarget_*`
    /// mutators.
    pub coefficient_refreshes: u64,
    /// `TransportOp` constructions (band allocation + first
    /// factorization). A flow/inlet/temperature retarget performs zero
    /// of these once the context is warm.
    pub op_builds: u64,
    /// In-place `TransportOp` value re-stamps (`TransportOp::refresh`):
    /// O(ny) re-eliminations through the operator's existing storage.
    pub op_refreshes: u64,
    /// Station voltage-balance residual evaluations over every solve
    /// (endpoint probes included). Divided by
    /// [`CellContextStats::station_solves`] it is the mean cost of one
    /// station root.
    pub residual_evaluations: u64,
    /// Station root solves (one per marching station per solve).
    pub station_solves: u64,
    /// Marches down the channel: one per single-point solve and one per
    /// whole [`CellModel::sweep_at_voltages`] ladder, however many
    /// points it holds.
    pub marches: u64,
    /// Lanes × stations marched: the transport work, one multi-lane
    /// station advance counting once per lane it carried.
    pub lane_stations: u64,
}

impl std::iter::Sum for CellContextStats {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, b| Self {
            geometry_builds: a.geometry_builds + b.geometry_builds,
            coefficient_builds: a.coefficient_builds + b.coefficient_builds,
            coefficient_refreshes: a.coefficient_refreshes + b.coefficient_refreshes,
            op_builds: a.op_builds + b.op_builds,
            op_refreshes: a.op_refreshes + b.op_refreshes,
            residual_evaluations: a.residual_evaluations + b.residual_evaluations,
            station_solves: a.station_solves + b.station_solves,
            marches: a.marches + b.marches,
            lane_stations: a.lane_stations + b.lane_stations,
        })
    }
}

/// Solve counters of a context. Solves run through `&self` (sweeps fan
/// out across threads), so these are atomics, added to once per march.
#[derive(Debug, Default)]
struct SolveCounts {
    residual_evaluations: AtomicU64,
    station_solves: AtomicU64,
    marches: AtomicU64,
    lane_stations: AtomicU64,
}

impl SolveCounts {
    fn starting_at(stats: &CellContextStats) -> Self {
        Self {
            residual_evaluations: AtomicU64::new(stats.residual_evaluations),
            station_solves: AtomicU64::new(stats.station_solves),
            marches: AtomicU64::new(stats.marches),
            lane_stations: AtomicU64::new(stats.lane_stations),
        }
    }

    /// Records one march.
    fn record(&self, evaluations: u64, stations: u64, lane_stations: u64) {
        self.residual_evaluations
            .fetch_add(evaluations, Ordering::Relaxed);
        self.station_solves.fetch_add(stations, Ordering::Relaxed);
        self.marches.fetch_add(1, Ordering::Relaxed);
        self.lane_stations.fetch_add(lane_stations, Ordering::Relaxed);
    }

    /// `stats` with the solve counters replaced by their current values.
    fn over(&self, stats: CellContextStats) -> CellContextStats {
        CellContextStats {
            residual_evaluations: self.residual_evaluations.load(Ordering::Relaxed),
            station_solves: self.station_solves.load(Ordering::Relaxed),
            marches: self.marches.load(Ordering::Relaxed),
            lane_stations: self.lane_stations.load(Ordering::Relaxed),
            ..stats
        }
    }
}

impl Clone for SolveCounts {
    fn clone(&self) -> Self {
        Self::starting_at(&self.over(CellContextStats::default()))
    }
}

/// Geometry-keyed half of the solve context: everything that depends
/// only on the cell geometry and the discretization options. Immutable
/// once built, shared via `Arc` across coefficient retargets, sibling
/// models (`with_temperature`/`with_flow`) and array channels.
#[derive(Debug)]
pub(crate) struct GeometryContext {
    nx: usize,
    dx: f64,
    dy: f64,
    half_width: f64,
    electrode_length: f64,
    /// Normalized (unit-mean-velocity) height-averaged streamwise
    /// profile at the `ny` half-width cell centers, wall-first. The
    /// expensive duct Poisson solve lives here; coefficient states only
    /// rescale it by the mean velocity.
    shape_half: Vec<f64>,
}

impl GeometryContext {
    /// Builds the geometry-keyed context of `geometry` under `options`:
    /// grid spacings plus the normalized velocity shape (the duct
    /// Poisson solve for [`VelocityModel::Duct`]).
    fn build(geometry: &CellGeometry, options: &SolverOptions) -> Result<Self, FlowCellError> {
        let nx = options.nx;
        let ny = options.ny;
        let shape_half: Vec<f64> = match options.velocity {
            VelocityModel::PlanePoiseuille => (0..ny)
                .map(|j| {
                    let xi = (j as f64 + 0.5) / (2.0 * ny as f64);
                    plane_poiseuille(xi)
                })
                .collect(),
            VelocityModel::Duct { nz } => {
                let sol = DuctFlowSolution::solve(geometry.channel(), 2 * ny, nz)?;
                sol.width_profile()[..ny].to_vec()
            }
        };
        Ok(Self {
            nx,
            dx: geometry.electrode_length().value() / nx as f64,
            dy: geometry.stream_half_width().value() / ny as f64,
            half_width: geometry.stream_half_width().value(),
            electrode_length: geometry.electrode_length().value(),
            shape_half,
        })
    }
}

/// Fingerprint of everything a [`GeometryContext`] is built from: the
/// channel dimensions and electrode coverage (bit patterns, so the key
/// is exact) plus the discretization/velocity half of the solver
/// options. Two models with equal keys build bitwise-identical
/// geometry contexts and can share one duct solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct GeometryKey {
    width_bits: u64,
    height_bits: u64,
    length_bits: u64,
    coverage_bits: u64,
    ny: usize,
    nx: usize,
    velocity_kind: u8,
    nz: usize,
}

impl GeometryKey {
    fn new(geometry: &CellGeometry, options: &SolverOptions) -> Self {
        let (ny, nx, velocity_kind, nz) = options.geometry_fingerprint();
        let ch = geometry.channel();
        Self {
            width_bits: ch.width().value().to_bits(),
            height_bits: ch.height().value().to_bits(),
            length_bits: ch.length().value().to_bits(),
            coverage_bits: geometry.electrode_coverage().to_bits(),
            ny,
            nx,
            velocity_kind,
            nz,
        }
    }
}

/// A concurrent, fingerprint-keyed cache of built geometry contexts.
///
/// Monte Carlo geometry sampling retargets a cached cell model across
/// thousands of channel dimensions; when the sampled dimensions are
/// quantized to a manufacturing grid, fingerprints collide constantly
/// and the expensive duct Poisson solve should be paid once per
/// *distinct* geometry, not once per sample. Workers share one cache
/// (it is `Sync`); [`CellModel::retarget_geometry`] consults it before
/// building. Hit/miss counters feed `McStats`.
#[derive(Debug, Default)]
pub struct GeometryCache {
    map: std::sync::Mutex<std::collections::HashMap<GeometryKey, Arc<GeometryContext>>>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl GeometryCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Duct-solve reuses served so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Geometry builds the cache could not avoid.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Number of distinct geometry contexts held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.lock().expect("geometry cache poisoned").len()
    }

    /// `true` when no context has been cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Seeds the cache with `model`'s built (or herewith built)
    /// geometry context, so later retargets back to this geometry hit.
    /// Neither counter moves: seeding is not a served request.
    ///
    /// # Errors
    ///
    /// Propagates duct-solver errors when the model had no context yet.
    pub fn warm_from(&self, model: &CellModel) -> Result<(), FlowCellError> {
        let geo = Arc::clone(model.geometry_context()?);
        let key = GeometryKey::new(&model.geometry, &model.options);
        self.map
            .lock()
            .expect("geometry cache poisoned")
            .entry(key)
            .or_insert(geo);
        Ok(())
    }

    /// Returns the cached context for the fingerprint of `(geometry,
    /// options)`, or builds, caches and returns it. The boolean is
    /// `true` when `build` ran (the caller paid for a duct solve).
    fn get_or_build(
        &self,
        geometry: &CellGeometry,
        options: &SolverOptions,
        build: impl FnOnce() -> Result<GeometryContext, FlowCellError>,
    ) -> Result<(Arc<GeometryContext>, bool), FlowCellError> {
        use std::sync::atomic::Ordering;
        let key = GeometryKey::new(geometry, options);
        if let Some(hit) = self.map.lock().expect("geometry cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(hit), false));
        }
        // Build outside the lock — the duct solve is the long pole and
        // must not serialize unrelated lookups. A racing builder of the
        // same key wins the insert; both results are bitwise-identical
        // (pure functions of the fingerprint), so either Arc serves.
        let built = Arc::new(build()?);
        let mut map = self.map.lock().expect("geometry cache poisoned");
        let entry = map.entry(key).or_insert_with(|| Arc::clone(&built));
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok((Arc::clone(entry), true))
    }
}

/// One electrode stream's bank of factored transport operators:
/// a pool of distinct operators plus the station → pool index map
/// (consecutive equal-diffusivity stations share one operator, so the
/// isothermal case holds exactly one per side). Refreshes re-stamp the
/// pooled operators in place; the pool storage survives retargets.
#[derive(Debug, Clone, Default)]
struct OpBank {
    pool: Vec<TransportOp>,
    station_op: Vec<usize>,
    /// The per-station diffusivities the bank is currently stamped for
    /// (used to skip the re-stamp entirely when neither the velocity
    /// nor any diffusivity changed, e.g. an inlet-composition
    /// retarget).
    station_d: Vec<f64>,
}

impl OpBank {
    /// (Re)stamps the bank for per-station diffusivities `ds` over the
    /// given velocity profile. Pooled operators are refreshed in place;
    /// new operators are built only when the pool runs short (i.e. the
    /// retarget needs more *distinct* diffusivity runs than ever
    /// before — a shrink keeps the surplus operators warm for the next
    /// growth). No-op when nothing changed.
    fn stamp(
        &mut self,
        velocity: &[f64],
        dx: f64,
        dy: f64,
        ds: &[f64],
        velocity_changed: bool,
        stats: &mut CellContextStats,
    ) -> Result<(), FlowCellError> {
        if !velocity_changed && ds == self.station_d.as_slice() {
            return Ok(());
        }
        self.station_op.clear();
        let mut used = 0usize;
        for (k, &d) in ds.iter().enumerate() {
            let idx = if k > 0 && ds[k - 1] == d {
                used - 1
            } else {
                let i = used;
                if let Some(op) = self.pool.get_mut(i) {
                    op.refresh(velocity, dx, dy, d)?;
                    stats.op_refreshes += 1;
                } else {
                    self.pool.push(TransportOp::new(velocity, dx, dy, d)?);
                    stats.op_builds += 1;
                }
                used += 1;
                i
            };
            self.station_op.push(idx);
        }
        // Surplus pool entries (a shrink after a sampled profile) are
        // deliberately kept: they are never referenced by `station_op`
        // and are refreshed in place before any future reuse, so a
        // profile oscillating between shapes never rebuilds operators.
        self.station_d.clear();
        self.station_d.extend_from_slice(ds);
        Ok(())
    }

    /// The operator serving `station`.
    #[inline]
    fn op(&self, station: usize) -> &TransportOp {
        &self.pool[self.station_op[station]]
    }
}

/// Coefficient half of the solve context: everything that changes with
/// flow rate, inlet composition or temperature. Refreshed in place by
/// the `retarget_*` mutators; rebuilt cold only on the first solve (or
/// after a failed refresh).
#[derive(Debug, Clone)]
struct CoefficientState {
    v_mean: f64,
    velocity_half: Vec<f64>,
    stations: Vec<StationChem>,
    anode: OpBank,
    cathode: OpBank,
    /// Marcher skeletons: inlet-filled, never-marched prototypes cloned
    /// by every solve (skips per-solve validation and re-derivation).
    anode_proto: HalfCellMarcher,
    cathode_proto: HalfCellMarcher,
}

/// The full solve context: shared geometry + owned coefficients +
/// telemetry.
#[derive(Debug, Clone)]
struct SolveContext {
    geo: Arc<GeometryContext>,
    coef: CoefficientState,
    /// Context-work counters; the solve counters live in `counts`.
    stats: CellContextStats,
    counts: SolveCounts,
}

impl SolveContext {
    /// Every counter, solve counters included.
    fn stats(&self) -> CellContextStats {
        self.counts.over(self.stats)
    }
}

/// The solved state of a cell at one operating point.
#[derive(Debug, Clone)]
pub struct CellSolution {
    voltage: Volt,
    current: Ampere,
    current_density: Vec<f64>,
    eta_anode: Vec<f64>,
    eta_cathode: Vec<f64>,
    electrode_area: SquareMeters,
    transport_limited_stations: usize,
}

impl CellSolution {
    /// Terminal voltage.
    #[inline]
    pub fn voltage(&self) -> Volt {
        self.voltage
    }

    /// Delivered current.
    #[inline]
    pub fn current(&self) -> Ampere {
        self.current
    }

    /// Delivered power `V·I`.
    #[inline]
    pub fn power(&self) -> Watt {
        self.voltage * self.current
    }

    /// Local current density per marching station (A/m²), inlet to outlet.
    pub fn current_density_profile(&self) -> &[f64] {
        &self.current_density
    }

    /// Mean current density over the electrode.
    pub fn mean_current_density(&self) -> AmperePerSquareMeter {
        self.current / self.electrode_area
    }

    /// Anode overpotential per station (V).
    pub fn anode_overpotential_profile(&self) -> &[f64] {
        &self.eta_anode
    }

    /// Cathode overpotential per station (V, negative in discharge).
    pub fn cathode_overpotential_profile(&self) -> &[f64] {
        &self.eta_cathode
    }

    /// Electrode geometric area used to convert current ↔ density.
    #[inline]
    pub fn electrode_area(&self) -> SquareMeters {
        self.electrode_area
    }

    /// Number of stations clamped at the local transport limit. Non-zero
    /// values indicate operation on the limiting-current plateau.
    #[inline]
    pub fn transport_limited_stations(&self) -> usize {
        self.transport_limited_stations
    }
}

impl CellModel {
    /// Creates a cell model.
    ///
    /// # Errors
    ///
    /// Returns [`FlowCellError::InvalidConfig`] for invalid options or a
    /// non-positive flow rate.
    pub fn new(
        geometry: CellGeometry,
        chemistry: CellChemistry,
        flow: CubicMetersPerSecond,
        temperature: TemperatureProfile,
        options: SolverOptions,
    ) -> Result<Self, FlowCellError> {
        options.validate()?;
        if !(flow.value() > 0.0 && flow.is_finite()) {
            return Err(FlowCellError::InvalidConfig(format!(
                "flow must be positive, got {flow}"
            )));
        }
        temperature.resample(options.nx)?;
        Ok(Self {
            geometry,
            chemistry,
            flow,
            temperature,
            options,
            geo: OnceLock::new(),
            geo_builds_paid: std::sync::atomic::AtomicU64::new(0),
            stats_carry: CellContextStats::default(),
            ctx: OnceLock::new(),
        })
    }

    /// The cell geometry.
    #[inline]
    pub fn geometry(&self) -> &CellGeometry {
        &self.geometry
    }

    /// The cell chemistry.
    #[inline]
    pub fn chemistry(&self) -> &CellChemistry {
        &self.chemistry
    }

    /// Per-channel volumetric flow rate.
    #[inline]
    pub fn flow(&self) -> CubicMetersPerSecond {
        self.flow
    }

    /// The temperature profile seen by the cell.
    #[inline]
    pub fn temperature(&self) -> &TemperatureProfile {
        &self.temperature
    }

    /// Solver options.
    #[inline]
    pub fn options(&self) -> &SolverOptions {
        &self.options
    }

    /// Returns a copy with a different temperature profile (used by the
    /// electro-thermal co-simulation loop). The copy **shares** this
    /// model's geometry context (velocity shape / duct solution) when it
    /// has been built — temperature is a coefficient, not geometry.
    ///
    /// # Errors
    ///
    /// As [`CellModel::new`].
    pub fn with_temperature(&self, temperature: TemperatureProfile) -> Result<Self, FlowCellError> {
        let mut model = Self::new(
            self.geometry,
            self.chemistry.clone(),
            self.flow,
            temperature,
            self.options.clone(),
        )?;
        model.geo = self.geo.clone();
        Ok(model)
    }

    /// Returns a copy with a different per-channel flow rate, sharing
    /// this model's geometry context like
    /// [`CellModel::with_temperature`].
    ///
    /// # Errors
    ///
    /// As [`CellModel::new`].
    pub fn with_flow(&self, flow: CubicMetersPerSecond) -> Result<Self, FlowCellError> {
        let mut model = Self::new(
            self.geometry,
            self.chemistry.clone(),
            flow,
            self.temperature.clone(),
            self.options.clone(),
        )?;
        model.geo = self.geo.clone();
        Ok(model)
    }

    /// Points this model at a different flow rate, refreshing the solve
    /// context **in place**: the geometry context (duct solution, grid)
    /// is untouched, the velocity profile is rescaled, and the factored
    /// transport operators are re-stamped through their existing storage
    /// — zero new `TransportOp` builds, zero duct-profile solves.
    /// Subsequent solves are bitwise-equal to a cold model built at the
    /// new flow. A one-field [`CellModel::retarget`]: a retarget to the
    /// current flow is a no-op.
    ///
    /// # Errors
    ///
    /// [`FlowCellError::InvalidConfig`] for a non-positive flow (the
    /// model is unchanged); refresh errors clear the context so the next
    /// solve rebuilds cold.
    pub fn retarget_flow(&mut self, flow: CubicMetersPerSecond) -> Result<(), FlowCellError> {
        let mut to = self.target();
        to.flow = flow;
        self.retarget(&to, None)
    }

    /// Points this model at a different temperature profile in place:
    /// station chemistry snapshots are rebuilt and the transport
    /// operators re-stamped for the new diffusivities — the geometry
    /// context and the velocity profile survive untouched. A one-field
    /// [`CellModel::retarget`]: a retarget to the current profile is a
    /// no-op.
    ///
    /// # Errors
    ///
    /// [`FlowCellError::InvalidConfig`] for a non-physical profile (the
    /// model is unchanged); refresh errors clear the context so the next
    /// solve rebuilds cold.
    pub fn retarget_temperature(
        &mut self,
        temperature: TemperatureProfile,
    ) -> Result<(), FlowCellError> {
        let mut to = self.target();
        to.temperature = temperature;
        self.retarget(&to, None)
    }

    /// Points this model at different inlet compositions in place:
    /// station chemistry (open-circuit voltages) and the marcher
    /// skeletons are rebuilt, while the velocity profile **and every
    /// factored transport operator** survive untouched (diffusivities
    /// are composition-independent).
    ///
    /// # Errors
    ///
    /// Refresh errors clear the context so the next solve rebuilds cold.
    pub fn retarget_inlets(
        &mut self,
        negative: Electrolyte,
        positive: Electrolyte,
    ) -> Result<(), FlowCellError> {
        self.chemistry.negative.inlet = negative;
        self.chemistry.positive.inlet = positive;
        self.refresh_context(true, false, true)
    }

    /// Points this model at a different channel geometry in place: the
    /// geometry context is swapped (served from `cache` when the
    /// fingerprint matches a previous build — the duct solve is then
    /// *not* repeated), and the whole coefficient state is refreshed
    /// against it through the existing storage. Subsequent solves are
    /// bitwise-equal to a cold model built at the new geometry. A
    /// one-field [`CellModel::retarget`]: a retarget to the current
    /// geometry is a no-op.
    ///
    /// # Errors
    ///
    /// Duct-solver errors on a cache miss (the model is unchanged);
    /// refresh errors clear the context so the next solve rebuilds
    /// cold.
    pub fn retarget_geometry(
        &mut self,
        geometry: CellGeometry,
        cache: Option<&GeometryCache>,
    ) -> Result<(), FlowCellError> {
        let mut to = self.target();
        to.geometry = geometry;
        self.retarget(&to, cache)
    }

    /// Points this model at a different contact/electrode
    /// area-specific resistance (Ω·m²) in place: station chemistry
    /// snapshots are rebuilt with the new series term, while the
    /// velocity profile, transport operators and marchers all survive
    /// untouched. A one-field [`CellModel::retarget`]: a retarget to the
    /// current value is a no-op.
    ///
    /// # Errors
    ///
    /// [`FlowCellError::InvalidConfig`] for a negative or non-finite
    /// value (the model is unchanged); refresh errors clear the context
    /// so the next solve rebuilds cold.
    pub fn retarget_contact_asr(&mut self, contact_asr: f64) -> Result<(), FlowCellError> {
        let mut to = self.target();
        to.contact_asr = contact_asr;
        self.retarget(&to, None)
    }

    /// Every coefficient input of this model, as a [`CellTarget`] — the
    /// starting point for a retarget that changes only some of them.
    #[must_use]
    pub fn target(&self) -> CellTarget {
        CellTarget {
            geometry: self.geometry,
            contact_asr: self.options.contact_asr,
            flow: self.flow,
            temperature: self.temperature.clone(),
        }
    }

    /// Points this model at `to` in one in-place refresh: whatever set
    /// of fields changed — geometry, contact ASR, flow, temperature —
    /// the solve context is refreshed **once**, for the union of what
    /// those changes touch (station chemistry, velocity profile,
    /// transport-operator re-stamps, marcher skeletons). A geometry
    /// change swaps the geometry context first, served from `cache`
    /// when its fingerprint was built before (the duct solve is then
    /// not repeated). Subsequent solves are bitwise-equal to a cold
    /// model built at `to`, and to the same moves made one field at a
    /// time through the `retarget_*` wrappers — which cost one refresh
    /// per call instead. A target equal to the current inputs costs
    /// nothing; a model without a built context just takes the new
    /// inputs (the next solve builds cold).
    ///
    /// # Errors
    ///
    /// [`FlowCellError::InvalidConfig`] for a non-positive flow, a
    /// negative or non-finite contact ASR or a non-physical temperature
    /// profile, and duct-solver errors on a geometry-cache miss: every
    /// field is validated (and the new geometry context built) before
    /// anything is touched, so on these errors the model is unchanged.
    /// An error inside the refresh itself clears the context so the
    /// next solve rebuilds cold.
    pub fn retarget(
        &mut self,
        to: &CellTarget,
        cache: Option<&GeometryCache>,
    ) -> Result<(), FlowCellError> {
        if !(to.flow.value() > 0.0 && to.flow.is_finite()) {
            return Err(FlowCellError::InvalidConfig(format!(
                "flow must be positive, got {}",
                to.flow
            )));
        }
        if !(to.contact_asr >= 0.0 && to.contact_asr.is_finite()) {
            return Err(FlowCellError::InvalidConfig(format!(
                "contact ASR must be non-negative, got {}",
                to.contact_asr
            )));
        }
        let geometry = to.geometry != self.geometry;
        let asr = to.contact_asr != self.options.contact_asr;
        let flow = to.flow.value() != self.flow.value();
        let temperature = to.temperature != self.temperature;
        if temperature {
            to.temperature.resample(self.options.nx)?;
        }
        if !(geometry || asr || flow || temperature) {
            return Ok(());
        }
        let new_geo = if geometry {
            let build = || GeometryContext::build(&to.geometry, &self.options);
            let (geo, paid) = match cache {
                Some(cache) => cache.get_or_build(&to.geometry, &self.options, build)?,
                None => (Arc::new(build()?), true),
            };
            if paid {
                self.geo_builds_paid.fetch_add(1, Ordering::Relaxed);
            }
            Some(geo)
        } else {
            None
        };

        if geometry {
            self.geometry = to.geometry;
        }
        if asr {
            self.options.contact_asr = to.contact_asr;
        }
        if flow {
            self.flow = to.flow;
        }
        if temperature {
            self.temperature = to.temperature.clone();
        }
        if let Some(geo) = new_geo {
            self.geo = OnceLock::from(Arc::clone(&geo));
            let paid = self.geo_builds_paid.load(Ordering::Relaxed);
            if let Some(ctx) = self.ctx.get_mut() {
                ctx.geo = geo;
                ctx.stats.geometry_builds = paid;
            }
        }
        // Geometry moves everything downstream of it: stations (new
        // electrode gap → new ASR), velocity (new cross-section and
        // shape), operators (new grid spacings), marchers (new grid).
        // ASR and temperature touch only the stations (and, through
        // the diffusivities, the operators); flow the velocity, the
        // operators and the marchers.
        self.refresh_context(
            geometry || asr || temperature,
            geometry || flow,
            geometry || flow,
        )
    }

    /// Context telemetry: geometry builds, coefficient refreshes and
    /// transport-operator builds/refreshes paid by this model. All zero
    /// before any context work happens; monotonic afterwards (counters
    /// survive even a failed refresh's forced rebuild).
    #[must_use]
    pub fn context_stats(&self) -> CellContextStats {
        match self.ctx.get() {
            Some(c) => c.stats(),
            None => CellContextStats {
                geometry_builds: self
                    .geo_builds_paid
                    .load(std::sync::atomic::Ordering::Relaxed),
                ..self.stats_carry
            },
        }
    }

    /// Builds the geometry context now (idempotent). Call before fanning
    /// `with_temperature` clones out of a template so every clone shares
    /// one duct solution instead of each paying for its own.
    ///
    /// # Errors
    ///
    /// Propagates duct-solver errors.
    pub fn warm_geometry(&self) -> Result<(), FlowCellError> {
        self.geometry_context().map(|_| ())
    }

    /// Builds the full solve context now (idempotent): geometry plus
    /// coefficient state. Long-lived holders (the co-simulation, the
    /// scenario engine's polarization workers) warm their template once
    /// so clones carry a built context and later `retarget_*` calls
    /// have something to refresh.
    ///
    /// # Errors
    ///
    /// As the first solve would: context-construction errors.
    pub fn warm(&self) -> Result<(), FlowCellError> {
        self.context().map(|_| ())
    }

    /// `true` when both models share one built geometry context (same
    /// `Arc`). `false` when either side has not built one yet.
    #[must_use]
    pub fn shares_geometry_with(&self, other: &CellModel) -> bool {
        match (self.geo.get(), other.geo.get()) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Address of the built geometry context, for structural
    /// distinct-context accounting ([`crate::CellArray`]).
    pub(crate) fn geometry_ptr(&self) -> Option<usize> {
        self.geo.get().map(|g| Arc::as_ptr(g) as usize)
    }

    /// Open-circuit voltage at the mean channel temperature.
    ///
    /// # Errors
    ///
    /// Propagates chemistry validation errors.
    pub fn open_circuit_voltage(&self) -> Result<Volt, FlowCellError> {
        Ok(self.chemistry.open_circuit_voltage(self.temperature.mean())?)
    }

    /// The cached solve context, built on first use.
    fn context(&self) -> Result<&SolveContext, FlowCellError> {
        bright_num::lazy::get_or_try_init(&self.ctx, || self.build_context())
    }

    /// The cached geometry context, built on first use. A build is
    /// charged to this model's `geo_builds_paid` counter, so the
    /// attribution is correct whether the build happens here, inside
    /// [`CellModel::warm_geometry`], or not at all (inherited `Arc`).
    fn geometry_context(&self) -> Result<&Arc<GeometryContext>, FlowCellError> {
        bright_num::lazy::get_or_try_init(&self.geo, || {
            let geo = GeometryContext::build(&self.geometry, &self.options).map(Arc::new)?;
            self.geo_builds_paid
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(geo)
        })
    }

    /// Per-station chemistry snapshots at the current temperature
    /// profile (reusing a single snapshot when isothermal). Shared by
    /// the cold build and every in-place refresh so both produce
    /// bitwise-identical stations.
    fn compute_stations(&self) -> Result<Vec<StationChem>, FlowCellError> {
        let nx = self.options.nx;
        let temps = self.temperature.resample(nx)?;
        let uniform = temps.windows(2).all(|w| w[0] == w[1]);
        let mut stations = Vec::with_capacity(nx);
        let make = |t: Kelvin| -> Result<StationChem, FlowCellError> {
            let chem = self.chemistry.at_temperature(t)?;
            let ocv = chem.open_circuit_voltage(t)?.value();
            let sigma = chem.conductivity.at(t)?;
            let asr = area_specific_resistance(self.geometry.electrode_gap().value(), sigma)?
                + self.options.contact_asr;
            let kin_a = chem.negative.kinetics.resolve(t)?;
            let kin_c = chem.positive.kinetics.resolve(t)?;
            let inv_nf_a = 1.0 / (chem.negative.kinetics.couple().electrons() as f64 * FARADAY);
            let inv_nf_c = 1.0 / (chem.positive.kinetics.couple().electrons() as f64 * FARADAY);
            Ok(StationChem {
                chem,
                ocv,
                asr,
                kin_a,
                kin_c,
                inv_nf_a,
                inv_nf_c,
            })
        };
        if uniform {
            let proto = make(temps[0])?;
            for _ in 0..nx {
                stations.push(proto.clone());
            }
        } else {
            for t in &temps {
                stations.push(make(*t)?);
            }
        }
        Ok(stations)
    }

    fn build_context(&self) -> Result<SolveContext, FlowCellError> {
        let geo = Arc::clone(self.geometry_context()?);
        // Resume from the counters of any context a failed refresh
        // discarded (geometry attribution comes from the atomic, which
        // survives such clears on its own).
        let carry = self.stats_carry;
        let mut stats = CellContextStats {
            geometry_builds: self
                .geo_builds_paid
                .load(std::sync::atomic::Ordering::Relaxed),
            coefficient_builds: carry.coefficient_builds + 1,
            ..carry
        };
        let stations = self.compute_stations()?;
        let v_mean = self
            .flow
            .mean_velocity(self.geometry.channel().cross_section())
            .value();
        let velocity_half: Vec<f64> = geo.shape_half.iter().map(|s| s * v_mean).collect();
        let d_a: Vec<f64> = stations
            .iter()
            .map(|st| st.chem.negative.diffusivity.value())
            .collect();
        let d_c: Vec<f64> = stations
            .iter()
            .map(|st| st.chem.positive.diffusivity.value())
            .collect();
        let mut anode = OpBank::default();
        let mut cathode = OpBank::default();
        anode.stamp(&velocity_half, geo.dx, geo.dy, &d_a, true, &mut stats)?;
        cathode.stamp(&velocity_half, geo.dx, geo.dy, &d_c, true, &mut stats)?;
        let (anode_proto, cathode_proto) =
            make_marchers(&self.chemistry, &geo, &velocity_half)?;
        Ok(SolveContext {
            geo,
            coef: CoefficientState {
                v_mean,
                velocity_half,
                stations,
                anode,
                cathode,
                anode_proto,
                cathode_proto,
            },
            stats,
            counts: SolveCounts::starting_at(&carry),
        })
    }

    /// Refreshes the built context in place after a coefficient change.
    /// `restamp_stations` rebuilds the chemistry snapshots,
    /// `restamp_velocity` rescales the velocity profile,
    /// `restamp_marchers` rebuilds the marcher skeletons (needed only
    /// when the velocity or the inlet compositions changed); the
    /// operator banks re-stamp themselves only when their inputs
    /// actually changed. A model without a built context just keeps
    /// the new parameters (the next solve builds cold — nothing to
    /// reuse yet). On error the context is cleared so the next solve
    /// rebuilds cold.
    fn refresh_context(
        &mut self,
        restamp_stations: bool,
        restamp_velocity: bool,
        restamp_marchers: bool,
    ) -> Result<(), FlowCellError> {
        if self.ctx.get().is_none() {
            return Ok(());
        }
        let result =
            self.refresh_context_inner(restamp_stations, restamp_velocity, restamp_marchers);
        if result.is_err() {
            // Salvage the counters so CellContextStats stays monotonic
            // across the forced cold rebuild.
            if let Some(ctx) = self.ctx.get() {
                self.stats_carry = ctx.stats();
                self.stats_carry.geometry_builds = 0;
            }
            self.ctx = OnceLock::new();
        }
        result
    }

    fn refresh_context_inner(
        &mut self,
        restamp_stations: bool,
        restamp_velocity: bool,
        restamp_marchers: bool,
    ) -> Result<(), FlowCellError> {
        let stations = if restamp_stations {
            Some(self.compute_stations()?)
        } else {
            None
        };
        let v_mean = self
            .flow
            .mean_velocity(self.geometry.channel().cross_section())
            .value();
        let ctx = self.ctx.get_mut().expect("checked by refresh_context");
        if let Some(stations) = stations {
            ctx.coef.stations = stations;
        }
        if restamp_velocity {
            ctx.coef.v_mean = v_mean;
            for (v, s) in ctx
                .coef
                .velocity_half
                .iter_mut()
                .zip(&ctx.geo.shape_half)
            {
                *v = s * v_mean;
            }
        }
        let d_a: Vec<f64> = ctx
            .coef
            .stations
            .iter()
            .map(|st| st.chem.negative.diffusivity.value())
            .collect();
        let d_c: Vec<f64> = ctx
            .coef
            .stations
            .iter()
            .map(|st| st.chem.positive.diffusivity.value())
            .collect();
        ctx.coef.anode.stamp(
            &ctx.coef.velocity_half,
            ctx.geo.dx,
            ctx.geo.dy,
            &d_a,
            restamp_velocity,
            &mut ctx.stats,
        )?;
        ctx.coef.cathode.stamp(
            &ctx.coef.velocity_half,
            ctx.geo.dx,
            ctx.geo.dy,
            &d_c,
            restamp_velocity,
            &mut ctx.stats,
        )?;
        if restamp_marchers {
            let (anode_proto, cathode_proto) =
                make_marchers(&self.chemistry, &ctx.geo, &ctx.coef.velocity_half)?;
            ctx.coef.anode_proto = anode_proto;
            ctx.coef.cathode_proto = cathode_proto;
        }
        ctx.stats.coefficient_refreshes += 1;
        Ok(())
    }

    /// One-point solve: the one-lane march.
    fn solve_with_context(
        &self,
        voltage: f64,
        ctx: &SolveContext,
    ) -> Result<CellSolution, FlowCellError> {
        let mut sols = self.march(&[voltage], None, ctx)?;
        Ok(sols.pop().expect("one lane, one solution"))
    }

    /// Core marching solve of a voltage ladder: every point (*lane*) of
    /// `voltages` marches down the channel together, station by station
    /// and, within a station, lane by lane in ladder order. At every
    /// station the voltage balance `R(i) = U − η_a(i) + η_c(i) − i·ASR − V`
    /// is strictly decreasing in the local current density `i` below
    /// the local transport limit; [`solve_station`] finds its root by
    /// bracket-safeguarded Newton on the analytic slope `dR/di`.
    ///
    /// Lane `v` starts each station from [`warm_start`] over lane `v−1`'s
    /// roots at this station and the previous one (the neighbouring
    /// point's profile shape) and its own previous root; lane 0 takes
    /// `hint` (a solved profile to continue from) in that role, or
    /// starts from its own previous root alone. Those are exactly the
    /// values a point-by-point sweep hinting each point with its
    /// predecessor's finished profile reads, and the transport
    /// arithmetic is per lane that of a one-lane march, so each lane's
    /// solution is bitwise-equal to solving the ladder one point at a
    /// time. A single solve is the one-lane case.
    ///
    /// Errors are those of the point-by-point sweep: the first lane (in
    /// ladder order) that fails names the error. A failed lane stops
    /// itself and every later lane (they start from its roots); earlier
    /// lanes march on, since one of them may fail further downstream.
    fn march(
        &self,
        voltages: &[f64],
        hint: Option<&[f64]>,
        ctx: &SolveContext,
    ) -> Result<Vec<CellSolution>, FlowCellError> {
        let invalid = voltages.iter().position(|v| !(*v >= 0.0 && v.is_finite()));
        let invalid_error = invalid.map(|bad| {
            FlowCellError::Infeasible(format!(
                "terminal voltage must be non-negative and finite, got {}",
                voltages[bad]
            ))
        });
        let ladder = &voltages[..invalid.unwrap_or(voltages.len())];
        let lanes = ladder.len();
        if lanes == 0 {
            return invalid_error.map_or(Ok(Vec::new()), Err);
        }
        let nx = self.options.nx;
        let track = self.options.track_products;
        let mut anode = ctx.coef.anode_proto.with_lanes(lanes);
        let mut cathode = ctx.coef.cathode_proto.with_lanes(lanes);
        let mut profiles: Vec<LaneProfile> = (0..lanes).map(|_| LaneProfile::new(nx)).collect();
        let mut q_a = vec![0.0; lanes];
        let mut q_c = vec![0.0; lanes];
        // Lanes `[0, active)` are still marching; `failed` holds the
        // error of the lowest failed lane (a later failure can only be
        // a lower lane).
        let mut active = lanes;
        let mut failed: Option<FlowCellError> = None;
        let mut evaluations = 0u64;
        let mut solves = 0u64;
        let mut marched = 0u64;

        for (station, st) in ctx.coef.stations.iter().enumerate() {
            if active == 0 {
                break;
            }
            anode.prepare_with(ctx.coef.anode.op(station))?;
            cathode.prepare_with(ctx.coef.cathode.op(station))?;
            marched += active as u64;
            for lane in 0..active {
                let (done, rest) = profiles.split_at_mut(lane);
                let lane_hint = done
                    .last()
                    .map_or(hint, |h| Some(h.current_density.as_slice()));
                let own = &mut rest[0];
                let i_prev = own.current_density.last().copied().unwrap_or(0.0);
                let root = solve_lane_station(
                    st,
                    anode.response(lane),
                    cathode.response(lane),
                    track,
                    ladder[lane],
                    warm_start(lane_hint, station, i_prev),
                    &mut evaluations,
                );
                match root {
                    Ok(root) => {
                        solves += 1;
                        own.push(root);
                        q_a[lane] = root.i * st.inv_nf_a;
                        q_c[lane] = root.i * st.inv_nf_c;
                    }
                    Err(e) => {
                        failed = Some(e);
                        active = lane;
                        break;
                    }
                }
            }
            anode.commit_lanes(&q_a);
            cathode.commit_lanes(&q_c);
        }
        ctx.counts.record(evaluations, solves, marched);
        if let Some(e) = failed.or(invalid_error) {
            return Err(e);
        }
        let height = self.geometry.channel().height().value();
        Ok(ladder
            .iter()
            .zip(profiles)
            .map(|(&voltage, p)| {
                let current: f64 = p.current_density.iter().sum::<f64>() * ctx.geo.dx * height;
                CellSolution {
                    voltage: Volt::new(voltage),
                    current: Ampere::new(current),
                    current_density: p.current_density,
                    eta_anode: p.eta_anode,
                    eta_cathode: p.eta_cathode,
                    electrode_area: self.geometry.electrode_area(),
                    transport_limited_stations: p.clamped,
                }
            })
            .collect())
    }

    /// Solves the cell at a fixed terminal voltage.
    ///
    /// # Errors
    ///
    /// * [`FlowCellError::Infeasible`] for a negative/non-finite voltage,
    /// * solver errors propagated from transport and kinetics.
    pub fn solve_at_voltage(&self, voltage: f64) -> Result<CellSolution, FlowCellError> {
        let ctx = self.context()?;
        self.solve_with_context(voltage, ctx)
    }

    /// Solves a whole voltage ladder with one cached context in a single
    /// lockstep march: all points advance station by station together,
    /// each point starting its station roots from the previous point's
    /// roots (its current-density profile shape) and sharing every
    /// station's factored transport operators and multi-lane
    /// back-substitution. Each solution is bitwise-equal to solving the
    /// ladder one point at a time, hinting every point with its
    /// predecessor's profile — the amortized path used by polarization
    /// sweeps and the sweep engines.
    ///
    /// # Errors
    ///
    /// As [`CellModel::solve_at_voltage`], for the first point of the
    /// ladder that fails.
    pub fn sweep_at_voltages(&self, voltages: &[f64]) -> Result<Vec<CellSolution>, FlowCellError> {
        let ctx = self.context()?;
        self.march(voltages, None, ctx)
    }

    /// Continues a sweep from a solved operating point of this model:
    /// solves `voltages` in one lockstep march like
    /// [`CellModel::sweep_at_voltages`], with the first point
    /// warm-started from `from`'s current-density profile the way every
    /// later point is from its predecessor's. `continue_sweep(&a, &[v])`
    /// therefore solves `v` exactly as a sweep solves the point after
    /// `a`; solutions from different starting profiles agree to the
    /// station residual tolerance, not bitwise.
    ///
    /// # Errors
    ///
    /// [`FlowCellError::InvalidConfig`] if `from` has a different
    /// number of stations; otherwise as
    /// [`CellModel::sweep_at_voltages`].
    pub fn continue_sweep(
        &self,
        from: &CellSolution,
        voltages: &[f64],
    ) -> Result<Vec<CellSolution>, FlowCellError> {
        if from.current_density.len() != self.options.nx {
            return Err(FlowCellError::InvalidConfig(format!(
                "solution with {} stations cannot seed a march of {}",
                from.current_density.len(),
                self.options.nx
            )));
        }
        let ctx = self.context()?;
        self.march(voltages, Some(&from.current_density), ctx)
    }

    /// Solves the cell at a fixed delivered current by inverting the
    /// voltage–current map with Brent's method.
    ///
    /// # Errors
    ///
    /// [`FlowCellError::Infeasible`] if `target` exceeds the cell's
    /// limiting current (or is negative).
    pub fn solve_at_current(&self, target: Ampere) -> Result<CellSolution, FlowCellError> {
        if !(target.value() >= 0.0 && target.is_finite()) {
            return Err(FlowCellError::Infeasible(format!(
                "target current must be non-negative, got {target}"
            )));
        }
        let ctx = self.context()?;
        let v_floor = 0.02;
        let i_max = self.solve_with_context(v_floor, ctx)?.current.value();
        if target.value() > i_max {
            return Err(FlowCellError::Infeasible(format!(
                "target {target} exceeds limiting current {i_max:.4} A at {v_floor} V"
            )));
        }
        let ocv = ctx
            .coef
            .stations
            .iter()
            .map(|s| s.ocv)
            .fold(f64::NEG_INFINITY, f64::max);
        let v = brent(
            |v| match self.solve_with_context(v, ctx) {
                Ok(sol) => sol.current.value() - target.value(),
                Err(_) => f64::NAN,
            },
            v_floor,
            ocv,
            &RootOptions {
                x_tolerance: 1e-7,
                f_tolerance: (target.value() * 1e-7).max(1e-12),
                max_iterations: 100,
            },
        )
        .map_err(FlowCellError::from)?;
        self.solve_with_context(v, ctx)
    }

    /// Sweeps the polarization curve with `n ≥ 2` voltage points between
    /// 0.05 V and the open-circuit voltage (the exact OCV/zero-current
    /// point is appended).
    ///
    /// # Errors
    ///
    /// Propagates solver errors; [`FlowCellError::InvalidConfig`] if
    /// `n < 2`.
    pub fn polarization_curve(&self, n: usize) -> Result<PolarizationCurve, FlowCellError> {
        if n < 2 {
            return Err(FlowCellError::InvalidConfig(
                "need at least 2 sweep points".into(),
            ));
        }
        let ctx = self.context()?;
        let ocv = ctx
            .coef
            .stations
            .iter()
            .map(|s| s.ocv)
            .sum::<f64>()
            / ctx.coef.stations.len() as f64;
        let v_lo = 0.05_f64.min(ocv / 2.0);
        let voltages: Vec<f64> = (0..n)
            .map(|k| v_lo + (ocv - 1e-4 - v_lo) * k as f64 / (n - 1) as f64)
            .collect();
        let mut points: Vec<PolarizationPoint> = self
            .sweep_at_voltages(&voltages)?
            .iter()
            .map(|sol| PolarizationPoint {
                voltage: sol.voltage(),
                current: sol.current(),
                power: sol.power(),
            })
            .collect();
        points.push(PolarizationPoint {
            voltage: Volt::new(ocv),
            current: Ampere::new(0.0),
            power: Watt::new(0.0),
        });
        PolarizationCurve::new(points)
    }
}

/// One evaluation of a station's voltage balance: the residual `R(i)`
/// (V), its analytic slope `dR/di` and the electrode overpotentials.
#[derive(Debug, Clone, Copy)]
struct StationEval {
    r: f64,
    dr: f64,
    eta_a: f64,
    eta_c: f64,
}

/// A solved station: current density, overpotentials, and whether it
/// sits on the transport-limited plateau.
#[derive(Debug, Clone, Copy)]
struct StationRoot {
    i: f64,
    eta_a: f64,
    eta_c: f64,
    plateau: bool,
}

/// One lane's solved station profile, filled station by station.
#[derive(Debug)]
struct LaneProfile {
    current_density: Vec<f64>,
    eta_anode: Vec<f64>,
    eta_cathode: Vec<f64>,
    clamped: usize,
}

impl LaneProfile {
    fn new(nx: usize) -> Self {
        Self {
            current_density: Vec::with_capacity(nx),
            eta_anode: Vec::with_capacity(nx),
            eta_cathode: Vec::with_capacity(nx),
            clamped: 0,
        }
    }

    fn push(&mut self, root: StationRoot) {
        self.current_density.push(root.i);
        self.eta_anode.push(root.eta_a);
        self.eta_cathode.push(root.eta_c);
        if root.plateau {
            self.clamped += 1;
        }
    }
}

/// Solves one lane's voltage balance at a prepared station from the two
/// electrodes' affine surface responses, starting Newton at `start`.
fn solve_lane_station(
    st: &StationChem,
    resp_a: StationResponse,
    resp_c: StationResponse,
    track: bool,
    voltage: f64,
    start: f64,
    evaluations: &mut u64,
) -> Result<StationRoot, FlowCellError> {
    // Surface concentrations move with the current density at these
    // rates: the reactant is consumed and the product made at the wall
    // flux `q = i/(n·F)`.
    let dq_a = resp_a.sens * st.inv_nf_a;
    let dq_c = resp_c.sens * st.inv_nf_c;
    let eval = |i: f64| -> Result<StationEval, FlowCellError> {
        let q_a = i * st.inv_nf_a;
        let q_c = i * st.inv_nf_c;
        let (c_ox_a, dc_ox_a) = if track {
            (resp_a.product_surface(q_a), dq_a)
        } else {
            (resp_a.p0, 0.0)
        };
        let (eta_a, deta_a) = st.kin_a.overpotential_with_slope(
            i,
            SurfaceState {
                c_red: MolePerCubicMeter::new(resp_a.reactant_surface(q_a)),
                c_ox: MolePerCubicMeter::new(c_ox_a),
            },
            dc_ox_a,
            -dq_a,
        )?;
        // The cathode passes the current `−i`; its rates are per unit of
        // that (cathodic) current density.
        let (c_red_c, dc_red_c) = if track {
            (resp_c.product_surface(q_c), -dq_c)
        } else {
            (resp_c.p0, 0.0)
        };
        let (eta_c, deta_c) = st.kin_c.overpotential_with_slope(
            -i,
            SurfaceState {
                c_ox: MolePerCubicMeter::new(resp_c.reactant_surface(q_c)),
                c_red: MolePerCubicMeter::new(c_red_c),
            },
            dq_c,
            dc_red_c,
        )?;
        Ok(StationEval {
            r: st.ocv - eta_a + eta_c - i * st.asr - voltage,
            dr: -deta_a - deta_c - st.asr,
            eta_a,
            eta_c,
        })
    };
    let i_lim = (resp_a.q_max / st.inv_nf_a).min(resp_c.q_max / st.inv_nf_c);
    solve_station(eval, start, i_lim, evaluations)
}

/// Starting current density of `station`: the previous station's root
/// carried along the hint's profile shape, `i_prev·h[k]/h[k−1]` (the
/// neighbouring operating point predicts how the current changes from
/// one station to the next better than it predicts the level); the hint
/// itself where that ratio is undefined; the previous station's root
/// when there is no hint.
fn warm_start(hint: Option<&[f64]>, station: usize, i_prev: f64) -> f64 {
    match hint {
        Some(h) if station > 0 && h[station - 1] > 0.0 => i_prev * (h[station] / h[station - 1]),
        Some(h) => h[station],
        None => i_prev,
    }
}

/// Residual tolerance of the station balance (V).
const STATION_F_TOLERANCE: f64 = 1e-10;

/// Iteration budget of one station solve (bisection alone needs ~45).
const STATION_MAX_ITERATIONS: usize = 200;

/// Finds the root of a station's strictly decreasing voltage balance on
/// `[0, i_hi]`, `i_hi = (1 − 1e-9)·i_lim` just below the transport limit
/// `i_lim`, by Newton's method from `start`, safeguarded by a sign
/// bracket. `evaluations` counts the calls to `eval`.
///
/// The Newton step is taken in `s = −ln(1 − i/i_lim)`: near the limit
/// the depleted surface makes `R` fall like `ln(i_lim − i)`, where a
/// step in `i` creeps or overshoots, while `R` is close to linear in `s`
/// over the whole range. For small steps the two coincide.
///
/// The classification is that of a bracketing solve: `R(0) ≤ 0` means
/// zero current, `R(i_hi) ≥ 0` the transport plateau, anything else an
/// interior root. An endpoint is evaluated only when a step tries to
/// leave the bracket through it while its sign is unknown — an interior
/// residual of either sign already implies the sign at the endpoint
/// beyond it. A step that leaves through a known side bisects instead.
fn solve_station(
    mut eval: impl FnMut(f64) -> Result<StationEval, FlowCellError>,
    start: f64,
    i_lim: f64,
    evaluations: &mut u64,
) -> Result<StationRoot, FlowCellError> {
    let i_hi = (1.0 - 1e-9) * i_lim;
    let x_tolerance = (i_hi * 1e-12).max(1e-14);
    let (mut lo, mut hi) = (0.0, i_hi);
    let (mut lo_known, mut hi_known) = (false, false);
    let mut i = if start.is_finite() {
        start.clamp(0.0, i_hi)
    } else {
        0.0
    };
    for _ in 0..STATION_MAX_ITERATIONS {
        let e = eval(i)?;
        *evaluations += 1;
        let root = |plateau| StationRoot {
            i,
            eta_a: e.eta_a,
            eta_c: e.eta_c,
            plateau,
        };
        if i == 0.0 && e.r <= 0.0 {
            // The local balance wants zero (or charging) current.
            return Ok(root(false));
        }
        if i == i_hi && e.r >= 0.0 {
            // Even near-total surface depletion cannot absorb the
            // driving force: transport-limited plateau.
            return Ok(root(true));
        }
        if e.r.abs() <= STATION_F_TOLERANCE {
            return Ok(root(false));
        }
        if e.r > 0.0 {
            (lo, lo_known) = (i, true);
        } else {
            (hi, hi_known) = (i, true);
        }
        if lo_known && hi_known && hi - lo <= x_tolerance {
            return Ok(root(false));
        }
        // Newton in s: Δs = −R/(dR/di · (i_lim − i)), mapped back to i.
        let gap = i_lim - i;
        let newton = i_lim - gap * (e.r / (e.dr * gap)).exp();
        i = if newton > lo && newton < hi {
            newton
        } else if newton <= lo && !lo_known {
            0.0
        } else if newton >= hi && !hi_known {
            i_hi
        } else {
            0.5 * (lo + hi)
        };
    }
    Err(FlowCellError::Numerical(format!(
        "station balance did not converge in {STATION_MAX_ITERATIONS} iterations \
         (bracket [{lo:.6e}, {hi:.6e}] A/m²)"
    )))
}

/// Builds the inlet-filled marcher skeletons for `chemistry` over
/// `velocity`. A free function so in-place refreshes can borrow the
/// chemistry and the context disjointly.
fn make_marchers(
    chemistry: &CellChemistry,
    geo: &GeometryContext,
    velocity: &[f64],
) -> Result<(HalfCellMarcher, HalfCellMarcher), FlowCellError> {
    let anode = HalfCellMarcher::new(
        geo.half_width,
        geo.electrode_length,
        geo.nx,
        velocity.to_vec(),
        chemistry.negative.inlet.c_red.value(),
        chemistry.negative.inlet.c_ox.value(),
    )?;
    let cathode = HalfCellMarcher::new(
        geo.half_width,
        geo.electrode_length,
        geo.nx,
        velocity.to_vec(),
        chemistry.positive.inlet.c_ox.value(),
        chemistry.positive.inlet.c_red.value(),
    )?;
    Ok((anode, cathode))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn power7_channel_model() -> CellModel {
        presets::power7_channel().expect("valid preset")
    }

    #[test]
    fn ocv_is_the_zero_current_point() {
        let m = power7_channel_model();
        let ocv = m.open_circuit_voltage().unwrap().value();
        let sol = m.solve_at_voltage(ocv).unwrap();
        assert!(
            sol.current.value().abs() < 1e-6,
            "I at OCV = {}",
            sol.current
        );
    }

    #[test]
    fn current_increases_as_voltage_drops() {
        let m = power7_channel_model();
        let i_12 = m.solve_at_voltage(1.2).unwrap().current.value();
        let i_10 = m.solve_at_voltage(1.0).unwrap().current.value();
        let i_06 = m.solve_at_voltage(0.6).unwrap().current.value();
        assert!(i_12 < i_10 && i_10 < i_06, "{i_12} {i_10} {i_06}");
        assert!(i_10 > 0.0);
    }

    #[test]
    fn per_channel_current_at_1v_is_tens_of_milliamps() {
        // 88 channels supply ~amps in Fig. 7, so each channel delivers
        // tens of mA at 1 V.
        let m = power7_channel_model();
        let i = m.solve_at_voltage(1.0).unwrap().current.value();
        assert!(i > 0.01 && i < 0.2, "I = {i} A");
    }

    #[test]
    fn solve_at_current_roundtrips() {
        let m = power7_channel_model();
        let sol_v = m.solve_at_voltage(1.1).unwrap();
        let sol_i = m.solve_at_current(sol_v.current()).unwrap();
        assert!(
            (sol_i.voltage().value() - 1.1).abs() < 1e-3,
            "V = {}",
            sol_i.voltage()
        );
    }

    #[test]
    fn infeasible_current_is_rejected() {
        let m = power7_channel_model();
        assert!(matches!(
            m.solve_at_current(Ampere::new(100.0)),
            Err(FlowCellError::Infeasible(_))
        ));
        assert!(m.solve_at_current(Ampere::new(-1.0)).is_err());
    }

    #[test]
    fn polarization_curve_is_monotone_with_plateau() {
        let m = power7_channel_model();
        let curve = m.polarization_curve(12).unwrap();
        assert!(curve.open_circuit_voltage().value() > 1.5);
        // The low-voltage end approaches the transport-limited plateau:
        // current at 0.2 V within 25% of current at 0.05 V.
        let i_low = curve.current_at_voltage(0.2).unwrap().value();
        let i_lim = curve.limiting_current().value();
        assert!(i_low > 0.7 * i_lim, "knee: {i_low} vs plateau {i_lim}");
    }

    #[test]
    fn warmer_cell_delivers_more_current() {
        // The paper's Section III-B observation, at channel scale.
        let m = power7_channel_model();
        let warm = m
            .with_temperature(TemperatureProfile::Uniform(Kelvin::new(310.0)))
            .unwrap();
        let i_cold = m.solve_at_voltage(1.0).unwrap().current.value();
        let i_warm = warm.solve_at_voltage(1.0).unwrap().current.value();
        assert!(
            i_warm > i_cold * 1.05,
            "cold {i_cold} A vs warm {i_warm} A"
        );
    }

    #[test]
    fn higher_flow_raises_limiting_current() {
        let m = power7_channel_model();
        let half_flow = m.with_flow(m.flow() / 2.0).unwrap();
        let i_full = m.solve_at_voltage(0.3).unwrap().current.value();
        let i_half = half_flow.solve_at_voltage(0.3).unwrap().current.value();
        assert!(i_full > i_half, "full {i_full} vs half {i_half}");
    }

    #[test]
    fn transport_limit_flags_at_low_voltage() {
        let m = power7_channel_model();
        let sol = m.solve_at_voltage(0.05).unwrap();
        assert!(sol.transport_limited_stations() > 0 || sol.current.value() > 0.0);
    }

    #[test]
    fn current_density_decays_downstream() {
        // Boundary-layer growth starves downstream stations.
        let m = power7_channel_model();
        let sol = m.solve_at_voltage(0.6).unwrap();
        let prof = sol.current_density_profile();
        let inlet_avg: f64 = prof[..10].iter().sum::<f64>() / 10.0;
        let outlet_avg: f64 = prof[prof.len() - 10..].iter().sum::<f64>() / 10.0;
        assert!(
            inlet_avg > outlet_avg,
            "inlet {inlet_avg} vs outlet {outlet_avg}"
        );
    }

    fn assert_bitwise_equal(a: &CellSolution, b: &CellSolution) {
        assert_eq!(a.voltage().value().to_bits(), b.voltage().value().to_bits());
        assert_eq!(a.current().value().to_bits(), b.current().value().to_bits());
        assert_eq!(a.current_density_profile().len(), b.current_density_profile().len());
        for (x, y) in a
            .current_density_profile()
            .iter()
            .zip(b.current_density_profile())
        {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(
            a.transport_limited_stations(),
            b.transport_limited_stations()
        );
    }

    #[test]
    fn retarget_flow_matches_cold_build_bitwise() {
        let mut m = power7_channel_model();
        m.solve_at_voltage(1.0).unwrap();
        let base = m.context_stats();
        assert_eq!(base.geometry_builds, 1);
        assert_eq!(base.coefficient_builds, 1);
        // Isothermal: exactly one distinct operator per side.
        assert_eq!(base.op_builds, 2);

        let half = m.flow() / 2.0;
        m.retarget_flow(half).unwrap();
        let warm = m.solve_at_voltage(0.9).unwrap();
        let cold = power7_channel_model()
            .with_flow(half)
            .unwrap()
            .solve_at_voltage(0.9)
            .unwrap();
        assert_bitwise_equal(&warm, &cold);

        let stats = m.context_stats();
        assert_eq!(stats.geometry_builds, 1, "flow retarget must not re-solve the duct");
        assert_eq!(stats.op_builds, base.op_builds, "flow retarget must not build operators");
        assert_eq!(stats.op_refreshes, 2, "one in-place re-stamp per side");
        assert_eq!(stats.coefficient_refreshes, 1);
        assert_eq!(stats.coefficient_builds, 1);
    }

    #[test]
    fn retarget_temperature_matches_cold_build_bitwise() {
        let mut m = power7_channel_model();
        m.solve_at_voltage(1.0).unwrap();
        let base = m.context_stats();
        let profile = TemperatureProfile::Sampled(vec![
            Kelvin::new(301.0),
            Kelvin::new(306.0),
            Kelvin::new(311.0),
        ]);
        m.retarget_temperature(profile.clone()).unwrap();
        let warm = m.solve_at_voltage(1.0).unwrap();
        let cold = power7_channel_model()
            .with_temperature(profile)
            .unwrap()
            .solve_at_voltage(1.0)
            .unwrap();
        assert_bitwise_equal(&warm, &cold);
        let stats = m.context_stats();
        assert_eq!(stats.geometry_builds, 1);
        // The sampled profile needs more distinct operators than the
        // isothermal pool held; those extra builds are honest — but the
        // pooled isothermal pair must have been refreshed, not rebuilt.
        assert!(stats.op_refreshes >= 2, "{stats:?}");
        // Back to isothermal: the pool logically shrinks, pure
        // refreshes again.
        let before = m.context_stats().op_builds;
        m.retarget_temperature(TemperatureProfile::Uniform(Kelvin::new(300.0)))
            .unwrap();
        let back = m.solve_at_voltage(1.0).unwrap();
        let cold_back = power7_channel_model().solve_at_voltage(1.0).unwrap();
        assert_bitwise_equal(&back, &cold_back);
        assert_eq!(m.context_stats().op_builds, before, "shrinking pool rebuilt ops");
        // Oscillating back to the sampled profile reuses the kept
        // surplus operators: still zero new builds.
        m.retarget_temperature(TemperatureProfile::Sampled(vec![
            Kelvin::new(301.0),
            Kelvin::new(306.0),
            Kelvin::new(311.0),
        ]))
        .unwrap();
        assert_eq!(
            m.context_stats().op_builds,
            before,
            "oscillating profile shapes must not rebuild operators"
        );
        let _ = base;
    }

    #[test]
    fn retarget_inlets_skips_operator_restamp_entirely() {
        use bright_echem::Electrolyte;
        use bright_units::MolePerCubicMeter;

        let mut m = power7_channel_model();
        m.solve_at_voltage(1.0).unwrap();
        let base = m.context_stats();
        let neg = Electrolyte::new(
            MolePerCubicMeter::new(150.0),
            MolePerCubicMeter::new(1500.0),
        )
        .unwrap();
        let pos = Electrolyte::new(
            MolePerCubicMeter::new(1500.0),
            MolePerCubicMeter::new(150.0),
        )
        .unwrap();
        m.retarget_inlets(neg, pos).unwrap();
        let warm = m.solve_at_voltage(1.0).unwrap();
        let stats = m.context_stats();
        assert_eq!(stats.op_builds, base.op_builds, "inlet retarget built ops");
        assert_eq!(
            stats.op_refreshes, base.op_refreshes,
            "inlet retarget must not even re-stamp (diffusivities unchanged)"
        );
        assert_eq!(stats.geometry_builds, 1);
        assert_eq!(stats.coefficient_refreshes, 1);

        // Cold model with the same inlets agrees bitwise.
        let mut chem = bright_echem::vanadium::power7_cell_chemistry();
        chem.negative.inlet = neg;
        chem.positive.inlet = pos;
        let cold = CellModel::new(
            *m.geometry(),
            chem,
            m.flow(),
            m.temperature().clone(),
            m.options().clone(),
        )
        .unwrap()
        .solve_at_voltage(1.0)
        .unwrap();
        assert_bitwise_equal(&warm, &cold);
    }

    #[test]
    fn retarget_geometry_matches_cold_build_bitwise() {
        use bright_flow::RectChannel;
        use bright_units::Meters;

        let mut m = power7_channel_model();
        m.solve_at_voltage(1.0).unwrap();
        assert_eq!(m.context_stats().geometry_builds, 1);

        let wider = CellGeometry::new(
            RectChannel::new(
                Meters::from_micrometers(210.0),
                Meters::from_micrometers(400.0),
                Meters::from_millimeters(22.0),
            )
            .unwrap(),
        );
        m.retarget_geometry(wider, None).unwrap();
        let warm = m.solve_at_voltage(0.9).unwrap();
        let cold = CellModel::new(
            wider,
            bright_echem::vanadium::power7_cell_chemistry(),
            m.flow(),
            m.temperature().clone(),
            m.options().clone(),
        )
        .unwrap()
        .solve_at_voltage(0.9)
        .unwrap();
        assert_bitwise_equal(&warm, &cold);
        let stats = m.context_stats();
        assert_eq!(stats.geometry_builds, 2, "uncached geometry retarget pays a build");
        assert_eq!(stats.coefficient_builds, 1, "coefficients refreshed, not rebuilt");
        assert_eq!(stats.coefficient_refreshes, 1);
        // Retargeting to the current geometry is free.
        m.retarget_geometry(wider, None).unwrap();
        assert_eq!(m.context_stats().geometry_builds, 2);
        assert_eq!(m.context_stats().coefficient_refreshes, 1);
    }

    #[test]
    fn geometry_cache_shares_duct_solves_across_retargets() {
        use bright_flow::RectChannel;
        use bright_units::Meters;

        let geom = |w_um: f64| {
            CellGeometry::new(
                RectChannel::new(
                    Meters::from_micrometers(w_um),
                    Meters::from_micrometers(400.0),
                    Meters::from_millimeters(22.0),
                )
                .unwrap(),
            )
        };
        let cache = GeometryCache::new();
        let mut m = power7_channel_model();
        m.solve_at_voltage(1.0).unwrap();
        cache.warm_from(&m).unwrap();
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 0, 1));

        // Oscillate between two sampled geometries: one miss each,
        // every revisit a hit — the model never pays a second build
        // for a fingerprint the cache has seen.
        for (i, w) in [210.0, 220.0, 210.0, 220.0, 200.0].iter().enumerate() {
            m.retarget_geometry(geom(*w), Some(&cache)).unwrap();
            m.solve_at_voltage(1.0).unwrap();
            let _ = i;
        }
        assert_eq!(cache.misses(), 2, "only two distinct new fingerprints");
        assert_eq!(cache.hits(), 3, "revisits (incl. the seeded base) are hits");
        assert_eq!(cache.len(), 3);
        assert_eq!(
            m.context_stats().geometry_builds,
            1 + 2,
            "builds paid: the cold one plus the two cache misses"
        );
        // Cached revisit agrees bitwise with a cold model.
        m.retarget_geometry(geom(210.0), Some(&cache)).unwrap();
        let warm = m.solve_at_voltage(0.9).unwrap();
        let cold = CellModel::new(
            geom(210.0),
            bright_echem::vanadium::power7_cell_chemistry(),
            m.flow(),
            m.temperature().clone(),
            m.options().clone(),
        )
        .unwrap()
        .solve_at_voltage(0.9)
        .unwrap();
        assert_bitwise_equal(&warm, &cold);
    }

    #[test]
    fn retarget_contact_asr_matches_cold_build_bitwise() {
        let mut m = power7_channel_model();
        m.solve_at_voltage(1.0).unwrap();
        let base = m.context_stats();

        m.retarget_contact_asr(2e-4).unwrap();
        let warm = m.solve_at_voltage(1.0).unwrap();
        let cold = CellModel::new(
            *m.geometry(),
            bright_echem::vanadium::power7_cell_chemistry(),
            m.flow(),
            m.temperature().clone(),
            SolverOptions {
                contact_asr: 2e-4,
                ..m.options().clone()
            },
        )
        .unwrap()
        .solve_at_voltage(1.0)
        .unwrap();
        assert_bitwise_equal(&warm, &cold);
        // ASR is a series term in the station balance: higher resistance
        // must cost current at fixed voltage.
        assert!(warm.current().value() < m.retarget_contact_asr(0.0).map(|()| {
            m.solve_at_voltage(1.0).unwrap().current().value()
        }).unwrap());

        let stats = m.context_stats();
        assert_eq!(stats.geometry_builds, 1);
        assert_eq!(stats.op_builds, base.op_builds, "ASR retarget must not touch operators");
        assert_eq!(stats.op_refreshes, base.op_refreshes, "diffusivities unchanged: no re-stamp");
        assert_eq!(stats.coefficient_refreshes, 2);
        // Invalid values are rejected without touching the model.
        assert!(m.retarget_contact_asr(-1.0).is_err());
        assert!(m.retarget_contact_asr(f64::NAN).is_err());
        assert_eq!(m.options().contact_asr, 0.0);
    }

    #[test]
    fn sibling_models_share_one_geometry_context() {
        let m = power7_channel_model();
        m.warm_geometry().unwrap();
        let warm = m
            .with_temperature(TemperatureProfile::Uniform(Kelvin::new(310.0)))
            .unwrap();
        let throttled = m.with_flow(m.flow() / 3.0).unwrap();
        assert!(m.shares_geometry_with(&warm));
        assert!(m.shares_geometry_with(&throttled));
        // Shared geometry is telemetry-visible: the siblings never pay
        // for a duct solve of their own.
        warm.solve_at_voltage(1.0).unwrap();
        assert_eq!(warm.context_stats().geometry_builds, 0);
        // A fresh model without sharing pays for its own.
        let fresh = power7_channel_model();
        fresh.solve_at_voltage(1.0).unwrap();
        assert!(!m.shares_geometry_with(&fresh));
        assert_eq!(fresh.context_stats().geometry_builds, 1);
    }

    #[test]
    fn warm_geometry_build_is_attributed_to_the_payer() {
        // Warming geometry before the first solve must not hide the
        // duct build from the telemetry.
        let m = power7_channel_model();
        m.warm_geometry().unwrap();
        m.solve_at_voltage(1.0).unwrap();
        assert_eq!(m.context_stats().geometry_builds, 1);
        // A clone shares the Arc and paid nothing: no double-counting.
        assert_eq!(m.clone().context_stats().geometry_builds, 0);
    }

    #[test]
    fn retarget_before_first_solve_is_a_plain_parameter_update() {
        let mut m = power7_channel_model();
        let half = m.flow() / 2.0;
        m.retarget_flow(half).unwrap();
        assert_eq!(m.context_stats(), CellContextStats::default());
        let warm = m.solve_at_voltage(0.9).unwrap();
        let cold = power7_channel_model()
            .with_flow(half)
            .unwrap()
            .solve_at_voltage(0.9)
            .unwrap();
        assert_bitwise_equal(&warm, &cold);
    }

    #[test]
    fn counters_survive_a_failed_refresh() {
        // A refresh that errors clears the context (the next solve
        // rebuilds cold) — but the telemetry must stay monotonic: the
        // rebuild resumes from the salvaged counters.
        let mut m = power7_channel_model();
        m.solve_at_voltage(1.0).unwrap();
        m.retarget_flow(m.flow() / 2.0).unwrap();
        let before = m.context_stats();
        assert_eq!(before.coefficient_refreshes, 1);

        // Inject a refresh failure past the public validation: a
        // non-physical temperature assigned directly (same-module test
        // access) makes compute_stations error inside the refresh.
        m.temperature = TemperatureProfile::Uniform(Kelvin::new(f64::INFINITY));
        assert!(m.refresh_context(true, false, false).is_err());
        assert_eq!(
            m.context_stats().coefficient_refreshes,
            before.coefficient_refreshes,
            "salvaged counters must persist while no context is built"
        );

        m.temperature = TemperatureProfile::Uniform(Kelvin::new(300.0));
        m.solve_at_voltage(1.0).unwrap();
        let after = m.context_stats();
        assert_eq!(after.coefficient_builds, 2, "forced rebuild must count");
        assert_eq!(after.coefficient_refreshes, before.coefficient_refreshes);
        assert!(after.op_builds >= before.op_builds);
        assert!(after.op_refreshes >= before.op_refreshes);
        assert_eq!(after.geometry_builds, 1, "geometry survives the clear");
        // And the model keeps working: further retargets refresh again.
        m.retarget_flow(m.flow() * 2.0).unwrap();
        assert_eq!(m.context_stats().coefficient_refreshes, 2);
    }

    #[test]
    fn retarget_rejects_bad_inputs_and_keeps_state() {
        let mut m = power7_channel_model();
        let i_before = m.solve_at_voltage(1.0).unwrap().current().value();
        assert!(m.retarget_flow(CubicMetersPerSecond::new(0.0)).is_err());
        assert!(m.retarget_flow(CubicMetersPerSecond::new(f64::NAN)).is_err());
        assert!(m
            .retarget_temperature(TemperatureProfile::Uniform(Kelvin::new(-3.0)))
            .is_err());
        let i_after = m.solve_at_voltage(1.0).unwrap().current().value();
        assert_eq!(i_before.to_bits(), i_after.to_bits());
    }

    #[test]
    fn station_solves_average_at_most_six_evaluations() {
        // Bracketing solves (Brent from the full [0, i_lim] interval plus
        // the two endpoint classifications) average about 11 residual
        // evaluations per station on the warm sweep; the Newton station
        // solve must stay well below that, warm and cold, including the
        // transport-limited points where Newton in `i` alone creeps.
        let per_station = |m: &CellModel| {
            let stats = m.context_stats();
            stats.residual_evaluations as f64 / stats.station_solves as f64
        };
        let m = power7_channel_model();
        m.warm().unwrap();
        assert_eq!(m.context_stats().station_solves, 0);
        let ocv = m.open_circuit_voltage().unwrap().value();
        let voltages: Vec<f64> = (0..16)
            .map(|k| 0.05 + (ocv - 1e-4 - 0.05) * k as f64 / 15.0)
            .collect();
        m.sweep_at_voltages(&voltages).unwrap();
        assert_eq!(m.context_stats().station_solves, 16 * m.options().nx as u64);
        assert!(
            per_station(&m) <= 6.0,
            "warm sweep: {:?}",
            m.context_stats()
        );
        for v in [0.05, 0.3, 0.6, 1.0, 1.3, ocv - 1e-3] {
            let cold = power7_channel_model();
            cold.solve_at_voltage(v).unwrap();
            assert!(
                per_station(&cold) <= 6.0,
                "cold at {v} V: {:?}",
                cold.context_stats()
            );
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let m = power7_channel_model();
        assert!(m.solve_at_voltage(-0.1).is_err());
        assert!(m.solve_at_voltage(f64::NAN).is_err());
        assert!(m.polarization_curve(1).is_err());
        assert!(m
            .with_flow(CubicMetersPerSecond::new(0.0))
            .is_err());
    }
}
