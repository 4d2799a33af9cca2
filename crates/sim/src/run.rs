//! The run builder — the one public entry point into every run. [`Run`]
//! configures a run and `execute` performs it:
//!
//! ```
//! use utlb_sim::{Mechanism, Run, RunOutputExt, SimConfig};
//! use utlb_trace::{gen, GenConfig, SplashApp};
//!
//! let cfg = GenConfig { seed: 1, scale: 0.03, app_processes: 4 };
//! let trace = gen::generate(SplashApp::Water, &cfg);
//! let sim = SimConfig::study(1024);
//!
//! // Plain serial replay of a materialized trace:
//! let utlb = Run::new(Mechanism::Utlb).config(&sim).execute(&trace).into_sim().unwrap();
//! assert_eq!(utlb.stats.interrupts, 0);
//!
//! // The same run observed, as a fused generate+replay stream:
//! let mut stream = gen::stream(SplashApp::Water, &cfg);
//! let (streamed, obs) = Run::new(Mechanism::Utlb)
//!     .config(&sim)
//!     .observed()
//!     .execute(&mut stream)
//!     .into_observed()
//!     .unwrap();
//! assert_eq!(streamed.stats, utlb.stats);
//! assert!(obs.reconciled);
//! ```
//!
//! `execute` accepts a `&Trace`, a `&mut` any [`TraceStream`], or [`Live`]
//! (the request plane generates its own input). `.des(cfg)` switches the
//! timing model to the discrete-event stations, `.cluster(cfg)` shards the
//! run across simulated boards — composing with `.frontend(cfg)` to serve
//! *live connections* over the cluster — and `.observed()` attaches the
//! metrics/event-ring collector.
//!
//! Behind the builder there is one loop per input kind: every trace input
//! replays through one loop over `nodes >= 1` boards, and every [`Live`]
//! input drives one connection reactor over `nodes >= 1` boards. A plain
//! run is the one-board case with no station overlay; `.des()` and
//! `.cluster()` switch the overlay on. Each execution allocates its own
//! replay buffers, so one run never sees state left by another; the only
//! state a caller can carry in is the engine it hands to
//! [`Run::execute_with`].
//!
//! Misconfiguration is a typed, recoverable [`RunError`] returned from
//! [`Run::execute`], never a panic: an incompatible builder combination,
//! the wrong input shape, or reading an output as a shape the run did not
//! produce all surface as `Err`. [`RunOutputExt`] lets the `Result` chain
//! straight into the accessors (`.execute(&trace).into_sim()?`).

use crate::cluster::{ClusterConfig, ClusterResult, HomingPolicy};
use crate::des_runner::DesResult;
use crate::frontend::cluster::{serve_live, ClusterFrontendResult};
use crate::frontend::{FrontendConfig, FrontendResult};
use crate::observe::{Collect, ObsReport};
use crate::runner::{replay, SimResult};
use crate::{Mechanism, SimConfig};
use utlb_core::TranslationMechanism;
use utlb_des::DesConfig;
use utlb_mem::ProcessId;
use utlb_trace::{Trace, TraceStream, TraceView};

/// Per-process event-ring capacity [`Run::observed`] uses.
pub const DEFAULT_OBS_RING: usize = 64;

/// Why a [`Run`] could not execute, or a [`RunOutput`] could not be read
/// as the requested shape. Every variant is a misuse of the builder — the
/// simulation itself is closed-world and still treats internal engine
/// failures as bugs (panics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The run has no mechanism: use `Run::new(mech)` or
    /// [`Run::execute_with`].
    NoMechanism,
    /// Two builder options cannot compose (e.g. a single-board frontend
    /// with `.des()`). The message says which and what to drop.
    IncompatibleConfig(&'static str),
    /// The input shape does not fit the configured run (e.g. a trace fed
    /// to a frontend run, or [`Live`] without `.frontend(cfg)`), or a
    /// trace's pids are not dense from 1.
    IncompatibleInput(&'static str),
    /// The output was read as a shape the run did not produce (e.g.
    /// `.into_sim()` on a cluster run).
    IncompatiblePayload {
        /// The shape the accessor asked for.
        requested: &'static str,
        /// The shape the run actually produced.
        actual: &'static str,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::NoMechanism => {
                write!(
                    f,
                    "Run has no mechanism: use Run::new(mech) or Run::execute_with"
                )
            }
            RunError::IncompatibleConfig(msg) | RunError::IncompatibleInput(msg) => {
                write!(f, "{msg}")
            }
            RunError::IncompatiblePayload { requested, actual } => write!(
                f,
                "not a {requested} run: the result is in .into_{actual}()"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// A configured simulation run: mechanism (or caller-supplied engine),
/// simulation parameters, optional observability, optional discrete-event
/// timing, optional cluster topology. See the crate docs for the grammar.
#[derive(Debug, Clone)]
pub struct Run {
    mech: Option<Mechanism>,
    cfg: SimConfig,
    des: Option<DesConfig>,
    obs_ring: Option<usize>,
    cluster: Option<ClusterConfig>,
    frontend: Option<FrontendConfig>,
}

impl Run {
    /// A run of mechanism `mech` under the default [`SimConfig`].
    pub fn new(mech: Mechanism) -> Self {
        Run {
            mech: Some(mech),
            cfg: SimConfig::default(),
            des: None,
            obs_ring: None,
            cluster: None,
            frontend: None,
        }
    }

    /// A run with no mechanism selected, for [`execute_with`] — the caller
    /// brings the engine (to pre-attach a probe, reuse state, or drive a
    /// custom [`TranslationMechanism`] implementation).
    ///
    /// [`execute_with`]: Run::execute_with
    pub fn with_config(cfg: &SimConfig) -> Self {
        Run {
            mech: None,
            cfg: cfg.clone(),
            des: None,
            obs_ring: None,
            cluster: None,
            frontend: None,
        }
    }

    /// Sets the simulation parameters (cloned).
    pub fn config(mut self, cfg: &SimConfig) -> Self {
        self.cfg = cfg.clone();
        self
    }

    /// Attaches the standard observability collector (metrics + per-process
    /// event rings of [`DEFAULT_OBS_RING`] events) so the output carries an
    /// [`ObsReport`].
    pub fn observed(self) -> Self {
        self.observed_ring(DEFAULT_OBS_RING)
    }

    /// [`observed`](Run::observed) with an explicit per-process ring
    /// capacity.
    ///
    /// # Panics
    ///
    /// The run panics at execute time if `ring_capacity` is zero.
    pub fn observed_ring(mut self, ring_capacity: usize) -> Self {
        self.obs_ring = Some(ring_capacity);
        self
    }

    /// Switches timing to the discrete-event stations of `utlb-des`: the
    /// output becomes a [`DesResult`] whose serial half is byte-identical
    /// to the plain run. On a cluster (trace or frontend) run this sets the
    /// shared-station parameters instead.
    pub fn des(mut self, des: DesConfig) -> Self {
        self.des = Some(des);
        self
    }

    /// Shards the run across the simulated boards of `cluster`; the output
    /// becomes a [`ClusterResult`] — or, combined with
    /// [`frontend`](Run::frontend), a [`ClusterFrontendResult`] serving
    /// live connections homed across the boards. Cluster runs always use
    /// the discrete-event stations — `.des(cfg)` sets their parameters and
    /// defaults to [`DesConfig::zero_contention`].
    pub fn cluster(mut self, cluster: ClusterConfig) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Switches the input source to the live request plane: `frontend`'s
    /// simulated peers connect, export buffers, and issue the requests the
    /// mechanism translates — there is no trace. Execute with the [`Live`]
    /// input; the output becomes a [`FrontendResult`]. Composes with
    /// [`observed`](Run::observed), and with [`cluster`](Run::cluster) to
    /// home connections across N boards (the output then becomes a
    /// [`ClusterFrontendResult`]); a *single-board* frontend owns its own
    /// clock discipline and rejects `.des()`.
    pub fn frontend(mut self, frontend: FrontendConfig) -> Self {
        self.frontend = Some(frontend);
        self
    }

    /// Executes the run, constructing the engine(s) from the configured
    /// [`Mechanism`]. `input` is a `&Trace`, a `&mut` any [`TraceStream`],
    /// or [`Live`] for frontend runs.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] on builder misuse: no mechanism
    /// ([`Run::with_config`] runs need [`execute_with`](Run::execute_with)),
    /// an incompatible option combination, a frontend shape
    /// [`FrontendConfig::validate`] rejects, an input shape the
    /// configured run cannot consume, or a trace whose pids are not dense
    /// from 1.
    ///
    /// # Panics
    ///
    /// Panics on internal engine errors — trace simulation is closed-world,
    /// so any failure past configuration is a bug worth a loud stop.
    pub fn execute(&self, input: impl RunInput) -> Result<RunOutput, RunError> {
        let mech = self.mech.ok_or(RunError::NoMechanism)?;
        self.check()?;
        let nodes = self.cluster.as_ref().map_or(1, |c| c.nodes);
        let mut owned: Vec<Box<dyn TranslationMechanism>> =
            (0..nodes).map(|_| mech.engine(&self.cfg)).collect();
        input.dispatch(Exec {
            run: self,
            engines: owned.iter_mut().map(|e| &mut **e).collect(),
        })
    }

    /// Executes the run on a caller-supplied engine. The engine's processes
    /// and probe slot are used in place; any probe the caller attached
    /// beforehand stays attached for non-observed serial runs.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] on builder misuse; cluster runs build one
    /// engine per board and must go through [`execute`](Run::execute).
    ///
    /// # Panics
    ///
    /// Panics on internal engine errors.
    pub fn execute_with<M>(
        &self,
        engine: &mut M,
        input: impl RunInput,
    ) -> Result<RunOutput, RunError>
    where
        M: TranslationMechanism + ?Sized,
    {
        if self.cluster.is_some() {
            return Err(RunError::IncompatibleConfig(
                "cluster runs construct one engine per board: use Run::execute",
            ));
        }
        self.check()?;
        input.dispatch(Exec {
            run: self,
            engines: vec![engine],
        })
    }

    /// Rejects option combinations no input can satisfy, before any work.
    fn check(&self) -> Result<(), RunError> {
        let reject = |msg| Err(RunError::IncompatibleConfig(msg));
        self.cfg
            .cost
            .validate()
            .map_err(RunError::IncompatibleConfig)?;
        if let Some(f) = &self.frontend {
            f.validate().map_err(RunError::IncompatibleConfig)?;
        }
        let Some(c) = &self.cluster else {
            if self.frontend.is_some() && self.des.is_some() {
                return reject(
                    "a single-board frontend run owns its own clock discipline: \
                     drop .des() or add .cluster(topology)",
                );
            }
            return Ok(());
        };
        if c.nodes == 0 {
            return reject("a cluster needs at least one board");
        }
        if self.frontend.is_some() {
            if self.obs_ring.is_some() {
                return reject(
                    "a clustered frontend reports per-board metrics in its result cells: \
                     drop .observed()",
                );
            }
            if !c.migrations.is_empty() {
                return reject(
                    "scheduled migrations replay traces: the frontend re-homes \
                     connections at admission instead",
                );
            }
            if c.shard.is_some() {
                return reject(
                    "a shard map places trace processes: the frontend homes \
                     connections by .homing(policy) instead",
                );
            }
            return Ok(());
        }
        if self.obs_ring.is_some() {
            return reject(
                "a trace cluster reports per-board metrics in its result cells: \
                 drop .observed()",
            );
        }
        if c.shard.as_ref().is_some_and(|map| map.nodes() != c.nodes) {
            return reject("the shard map covers a different number of boards than the cluster");
        }
        if c.migrations.iter().any(|m| m.to_board >= c.nodes) {
            return reject("a migration names an out-of-range board");
        }
        Ok(())
    }

    /// The collectors the run attaches: one per board on a cluster (for
    /// its result cells), else the `.observed()` one.
    fn collect(&self) -> Option<Collect> {
        match &self.cluster {
            Some(_) => Some(Collect::Cells),
            None => self.obs_ring.map(Collect::Report),
        }
    }

    /// The station overlay's timing: a cluster always prices on stations
    /// (zero contention unless `.des()` says otherwise).
    fn overlay(&self) -> Option<DesConfig> {
        match &self.cluster {
            Some(_) => Some(self.des.unwrap_or_default()),
            None => self.des,
        }
    }
}

/// Rejects a cluster topology that does not fit the stream's processes.
fn check_placement(c: &ClusterConfig, pids: &[ProcessId]) -> Result<(), RunError> {
    if let Some(map) = &c.shard {
        if pids.iter().any(|&pid| map.board_of(pid).is_none()) {
            return Err(RunError::IncompatibleConfig(
                "the shard map misses a pid of the stream",
            ));
        }
    }
    if c.migrations
        .iter()
        .any(|m| m.pid == 0 || m.pid as usize > pids.len())
    {
        return Err(RunError::IncompatibleConfig(
            "a migration names a pid the stream does not have",
        ));
    }
    Ok(())
}

/// An input [`Run::execute`] accepts: a materialized `&`[`Trace`], a
/// `&mut` [`TraceStream`] (fused generate+replay), or [`Live`].
/// Implemented for exactly those shapes; the trait only routes the input
/// to the trace replay loop or the live driver.
pub trait RunInput {
    /// Hands the underlying stream — or, for [`Live`], the live request
    /// plane — to `visitor`. Not meant to be called directly —
    /// [`Run::execute`] does.
    #[doc(hidden)]
    fn dispatch<V: StreamVisitor>(self, visitor: V) -> V::Out;
}

/// Internal visitor that receives what an input resolves to.
#[doc(hidden)]
pub trait StreamVisitor {
    /// The visit result.
    type Out;
    /// Consumes the resolved stream.
    fn visit<S: TraceStream + ?Sized>(self, stream: &mut S) -> Self::Out;
    /// Runs the live request plane ([`Live`] input).
    fn visit_live(self) -> Self::Out;
}

impl RunInput for &Trace {
    fn dispatch<V: StreamVisitor>(self, visitor: V) -> V::Out {
        visitor.visit(&mut TraceView::new(self))
    }
}

impl RunInput for &std::sync::Arc<Trace> {
    fn dispatch<V: StreamVisitor>(self, visitor: V) -> V::Out {
        visitor.visit(&mut TraceView::new(self))
    }
}

impl<S: TraceStream> RunInput for &mut S {
    fn dispatch<V: StreamVisitor>(self, visitor: V) -> V::Out {
        visitor.visit(self)
    }
}

/// The input for a [`Run::frontend`] run: requests come from the simulated
/// peers, not from a trace.
///
/// ```no_run
/// # use utlb_sim::{frontend::FrontendConfig, Live, Mechanism, Run, RunOutputExt};
/// let result = Run::new(Mechanism::Utlb)
///     .frontend(FrontendConfig::default())
///     .execute(Live)
///     .into_frontend()
///     .unwrap();
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Live;

impl RunInput for Live {
    fn dispatch<V: StreamVisitor>(self, visitor: V) -> V::Out {
        visitor.visit_live()
    }
}

/// The one dispatch of a configured run: a trace input replays through the
/// trace loop, [`Live`] drives the live reactor, each over the run's
/// engines — one per board, borrowed for the run.
struct Exec<'r, 'e, M: ?Sized> {
    run: &'r Run,
    engines: Vec<&'e mut M>,
}

impl<M: TranslationMechanism + ?Sized> StreamVisitor for Exec<'_, '_, M> {
    type Out = Result<RunOutput, RunError>;

    fn visit<S: TraceStream + ?Sized>(self, stream: &mut S) -> Result<RunOutput, RunError> {
        let run = self.run;
        if run.frontend.is_some() {
            return Err(RunError::IncompatibleInput(
                "a frontend run generates its own requests: execute(Live), not a trace",
            ));
        }
        let pids = stream.process_ids();
        if pids
            .iter()
            .zip(1u32..)
            .any(|(pid, expected)| pid.raw() != expected)
        {
            return Err(RunError::IncompatibleInput(
                "the trace's pids must be dense from 1 (pid 1, 2, ..., n)",
            ));
        }
        if let Some(c) = &run.cluster {
            check_placement(c, &pids)?;
        }
        let one_board = ClusterConfig::new(1);
        let topology = run.cluster.as_ref().unwrap_or(&one_board);
        let mut replayed = replay(
            self.engines,
            stream,
            pids,
            &run.cfg,
            topology,
            run.overlay().as_ref(),
            run.collect(),
        );
        let obs = replayed.obs.take();
        let payload = if run.cluster.is_some() {
            Payload::Cluster(Box::new(replayed.result))
        } else if run.des.is_some() {
            Payload::Des(Box::new(replayed.into_des()))
        } else {
            Payload::Sim(replayed.into_sim())
        };
        Ok(RunOutput { payload, obs })
    }

    fn visit_live(self) -> Result<RunOutput, RunError> {
        let run = self.run;
        let Some(fcfg) = &run.frontend else {
            return Err(RunError::IncompatibleInput(
                "a Live input needs .frontend(cfg): nothing else generates requests",
            ));
        };
        let homing = run
            .cluster
            .as_ref()
            .map_or_else(HomingPolicy::default, |c| c.homing);
        let (result, obs) = serve_live(
            self.engines,
            &run.cfg,
            fcfg,
            homing,
            run.overlay().as_ref(),
            run.collect(),
        );
        let payload = if run.cluster.is_some() {
            Payload::ClusterFrontend(Box::new(result))
        } else {
            Payload::Frontend(Box::new(result.single_board_image()))
        };
        Ok(RunOutput { payload, obs })
    }
}

#[derive(Debug, Clone)]
enum Payload {
    Sim(SimResult),
    Des(Box<DesResult>),
    Cluster(Box<ClusterResult>),
    Frontend(Box<FrontendResult>),
    ClusterFrontend(Box<ClusterFrontendResult>),
}

impl Payload {
    /// The shape name used in [`RunError::IncompatiblePayload`].
    fn kind(&self) -> &'static str {
        match self {
            Payload::Sim(_) => "sim",
            Payload::Des(_) => "des",
            Payload::Cluster(_) => "cluster",
            Payload::Frontend(_) => "frontend",
            Payload::ClusterFrontend(_) => "cluster_frontend",
        }
    }
}

fn payload_err<T>(requested: &'static str, payload: &Payload) -> Result<T, RunError> {
    Err(RunError::IncompatiblePayload {
        requested,
        actual: payload.kind(),
    })
}

/// What a [`Run`] produced: a serial [`SimResult`], a discrete-event
/// [`DesResult`], a [`ClusterResult`], a [`FrontendResult`], or a
/// [`ClusterFrontendResult`], plus the [`ObsReport`] when the run was
/// observed. The `into_*` accessors return
/// [`RunError::IncompatiblePayload`] when asked for a shape the run was
/// not configured to produce; [`RunOutputExt`] provides the same accessors
/// directly on `Result<RunOutput, RunError>` so the `execute` result
/// chains without an intermediate unwrap.
#[derive(Debug, Clone)]
pub struct RunOutput {
    payload: Payload,
    obs: Option<ObsReport>,
}

impl RunOutput {
    /// The serial result: the plain result of a serial run, or the `base`
    /// half of a DES run.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::IncompatiblePayload`] on cluster and frontend
    /// runs.
    pub fn sim(&self) -> Result<&SimResult, RunError> {
        match &self.payload {
            Payload::Sim(r) => Ok(r),
            Payload::Des(r) => Ok(&r.base),
            other => payload_err("sim", other),
        }
    }

    /// Consumes the output into its serial result (see
    /// [`sim`](RunOutput::sim)).
    ///
    /// # Errors
    ///
    /// Returns [`RunError::IncompatiblePayload`] on cluster and frontend
    /// runs.
    pub fn into_sim(self) -> Result<SimResult, RunError> {
        match self.payload {
            Payload::Sim(r) => Ok(r),
            Payload::Des(r) => Ok(r.base),
            other => payload_err("sim", &other),
        }
    }

    /// The discrete-event result, if the run was configured with
    /// [`Run::des`].
    pub fn des(&self) -> Option<&DesResult> {
        match &self.payload {
            Payload::Des(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes the output into its discrete-event result.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::IncompatiblePayload`] if the run was not
    /// configured with [`Run::des`].
    pub fn into_des(self) -> Result<DesResult, RunError> {
        match self.payload {
            Payload::Des(r) => Ok(*r),
            other => payload_err("des", &other),
        }
    }

    /// The cluster result, if the run was configured with [`Run::cluster`].
    pub fn cluster(&self) -> Option<&ClusterResult> {
        match &self.payload {
            Payload::Cluster(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes the output into its cluster result.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::IncompatiblePayload`] if the run was not
    /// configured with [`Run::cluster`] (trace input).
    pub fn into_cluster(self) -> Result<ClusterResult, RunError> {
        match self.payload {
            Payload::Cluster(r) => Ok(*r),
            other => payload_err("cluster", &other),
        }
    }

    /// The front-end result, if the run was configured with
    /// [`Run::frontend`] on a single board.
    pub fn frontend(&self) -> Option<&FrontendResult> {
        match &self.payload {
            Payload::Frontend(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes the output into its front-end result.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::IncompatiblePayload`] if the run was not
    /// configured with [`Run::frontend`] on a single board.
    pub fn into_frontend(self) -> Result<FrontendResult, RunError> {
        match self.payload {
            Payload::Frontend(r) => Ok(*r),
            other => payload_err("frontend", &other),
        }
    }

    /// The clustered front-end result, if the run combined
    /// [`Run::frontend`] with [`Run::cluster`].
    pub fn cluster_frontend(&self) -> Option<&ClusterFrontendResult> {
        match &self.payload {
            Payload::ClusterFrontend(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes the output into its clustered front-end result.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::IncompatiblePayload`] if the run did not combine
    /// [`Run::frontend`] with [`Run::cluster`].
    pub fn into_cluster_frontend(self) -> Result<ClusterFrontendResult, RunError> {
        match self.payload {
            Payload::ClusterFrontend(r) => Ok(*r),
            other => payload_err("cluster_frontend", &other),
        }
    }

    /// Consumes the output into `(front-end result, report)`.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] if the run was not both observed and a
    /// frontend run.
    pub fn into_frontend_observed(self) -> Result<(FrontendResult, ObsReport), RunError> {
        let obs = self.obs.ok_or(RunError::IncompatibleConfig(
            "not an observed run: configure with Run::observed",
        ))?;
        match self.payload {
            Payload::Frontend(r) => Ok((*r, obs)),
            other => payload_err("frontend", &other),
        }
    }

    /// The observability report, if the run was observed.
    pub fn obs(&self) -> Option<&ObsReport> {
        self.obs.as_ref()
    }

    /// Consumes the output into `(serial result, report)`.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] if the run was not observed, or on cluster
    /// and frontend runs.
    pub fn into_observed(self) -> Result<(SimResult, ObsReport), RunError> {
        let obs = self.obs.ok_or(RunError::IncompatibleConfig(
            "not an observed run: configure with Run::observed",
        ))?;
        let sim = match self.payload {
            Payload::Sim(r) => r,
            Payload::Des(r) => r.base,
            other => return payload_err("sim", &other),
        };
        Ok((sim, obs))
    }

    /// Consumes the output into `(DES result, report)`.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] if the run was not both observed and
    /// DES-timed.
    pub fn into_des_observed(self) -> Result<(DesResult, ObsReport), RunError> {
        let obs = self.obs.ok_or(RunError::IncompatibleConfig(
            "not an observed run: configure with Run::observed",
        ))?;
        match self.payload {
            Payload::Des(r) => Ok((*r, obs)),
            other => payload_err("des", &other),
        }
    }
}

/// The [`RunOutput`] accessors, lifted onto `Result<RunOutput, RunError>`
/// so [`Run::execute`] chains directly:
/// `.execute(&trace).into_sim()?` instead of
/// `.execute(&trace)?.into_sim()?`.
pub trait RunOutputExt {
    /// See [`RunOutput::sim`].
    #[allow(clippy::missing_errors_doc)]
    fn sim(&self) -> Result<&SimResult, RunError>;
    /// See [`RunOutput::into_sim`].
    #[allow(clippy::missing_errors_doc)]
    fn into_sim(self) -> Result<SimResult, RunError>;
    /// See [`RunOutput::into_des`].
    #[allow(clippy::missing_errors_doc)]
    fn into_des(self) -> Result<DesResult, RunError>;
    /// See [`RunOutput::into_cluster`].
    #[allow(clippy::missing_errors_doc)]
    fn into_cluster(self) -> Result<ClusterResult, RunError>;
    /// See [`RunOutput::into_frontend`].
    #[allow(clippy::missing_errors_doc)]
    fn into_frontend(self) -> Result<FrontendResult, RunError>;
    /// See [`RunOutput::into_cluster_frontend`].
    #[allow(clippy::missing_errors_doc)]
    fn into_cluster_frontend(self) -> Result<ClusterFrontendResult, RunError>;
    /// See [`RunOutput::into_observed`].
    #[allow(clippy::missing_errors_doc)]
    fn into_observed(self) -> Result<(SimResult, ObsReport), RunError>;
    /// See [`RunOutput::into_des_observed`].
    #[allow(clippy::missing_errors_doc)]
    fn into_des_observed(self) -> Result<(DesResult, ObsReport), RunError>;
    /// See [`RunOutput::into_frontend_observed`].
    #[allow(clippy::missing_errors_doc)]
    fn into_frontend_observed(self) -> Result<(FrontendResult, ObsReport), RunError>;
}

impl RunOutputExt for Result<RunOutput, RunError> {
    fn sim(&self) -> Result<&SimResult, RunError> {
        match self {
            Ok(out) => out.sim(),
            Err(e) => Err(e.clone()),
        }
    }
    fn into_sim(self) -> Result<SimResult, RunError> {
        self.and_then(RunOutput::into_sim)
    }
    fn into_des(self) -> Result<DesResult, RunError> {
        self.and_then(RunOutput::into_des)
    }
    fn into_cluster(self) -> Result<ClusterResult, RunError> {
        self.and_then(RunOutput::into_cluster)
    }
    fn into_frontend(self) -> Result<FrontendResult, RunError> {
        self.and_then(RunOutput::into_frontend)
    }
    fn into_cluster_frontend(self) -> Result<ClusterFrontendResult, RunError> {
        self.and_then(RunOutput::into_cluster_frontend)
    }
    fn into_observed(self) -> Result<(SimResult, ObsReport), RunError> {
        self.and_then(RunOutput::into_observed)
    }
    fn into_des_observed(self) -> Result<(DesResult, ObsReport), RunError> {
        self.and_then(RunOutput::into_des_observed)
    }
    fn into_frontend_observed(self) -> Result<(FrontendResult, ObsReport), RunError> {
        self.and_then(RunOutput::into_frontend_observed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utlb_core::{CostModel, UtlbEngine};
    use utlb_trace::{gen, GenConfig, ShardMap, SplashApp};

    fn tiny() -> Trace {
        gen::generate(
            SplashApp::Water,
            &GenConfig {
                seed: 21,
                scale: 0.05,
                app_processes: 4,
            },
        )
    }

    #[test]
    fn trace_and_stream_inputs_agree() {
        let trace = tiny();
        let sim = SimConfig::study(256);
        let run = Run::new(Mechanism::Utlb).config(&sim);
        let a = run.execute(&trace).into_sim().unwrap();
        let mut view = TraceView::new(&trace);
        let b = run.execute(&mut view).into_sim().unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.sim_time_ns, b.sim_time_ns);
    }

    #[test]
    fn non_dense_pids_are_a_typed_error() {
        let sim = SimConfig::study(256);
        for pids in [&[3u32][..], &[0], &[1, 3]] {
            let records = pids
                .iter()
                .map(|&pid| utlb_trace::TraceRecord {
                    ts_ns: 0,
                    pid: ProcessId::new(pid),
                    op: utlb_trace::Op::Send,
                    va: utlb_mem::VirtAddr::new(0x4000),
                    nbytes: 64,
                })
                .collect();
            let trace = Trace::new("outside", 1, records);
            for run in [
                Run::new(Mechanism::Utlb).config(&sim),
                Run::new(Mechanism::Intr)
                    .config(&sim)
                    .cluster(ClusterConfig::new(2)),
            ] {
                assert!(
                    matches!(run.execute(&trace), Err(RunError::IncompatibleInput(_))),
                    "pids {pids:?}"
                );
            }
        }
    }

    #[test]
    fn execute_with_uses_the_supplied_engine() {
        let trace = tiny();
        let sim = SimConfig::study(256);
        let mut engine = UtlbEngine::new(sim.utlb_config());
        let r = Run::with_config(&sim)
            .execute_with(&mut engine, &trace)
            .into_sim()
            .unwrap();
        assert_eq!(r.stats.lookups, trace.total_lookups());
        // The engine keeps its state: stats remain queryable afterwards.
        assert_eq!(engine.aggregate_stats(), r.stats);
    }

    #[test]
    fn observed_output_carries_a_reconciled_report() {
        let trace = tiny();
        let sim = SimConfig::study(256);
        let (r, obs) = Run::new(Mechanism::Intr)
            .config(&sim)
            .observed_ring(16)
            .execute(&trace)
            .into_observed()
            .unwrap();
        assert!(obs.reconciled, "mismatches: {:?}", obs.mismatches);
        assert_eq!(obs.metrics.counts.lookups, r.stats.lookups);
        assert!(!obs.traces.is_empty(), "an observed run keeps its rings");
    }

    #[test]
    fn cluster_cells_keep_no_event_rings_and_reconcile() {
        let sim = SimConfig::study(128);
        let fcfg = FrontendConfig {
            connections: 200,
            open_window: 8,
            requests_per_conn: 2,
            ..FrontendConfig::default()
        };
        let run = Run::new(Mechanism::Intr)
            .config(&sim)
            .frontend(fcfg)
            .cluster(ClusterConfig::new(2));
        let collect = run.collect().expect("a cluster collects per board");
        assert!(
            collect.collector().snapshot().recorder.is_none(),
            "a result cell's collector keeps no event rings"
        );
        let r = run.execute(Live).into_cluster_frontend().unwrap();
        assert_eq!(r.accepted, 200);
        for b in &r.boards {
            assert!(b.reconciled, "board {} did not reconcile", b.board);
            assert!(
                b.metrics.counts.lookups > 0,
                "board {} saw no lookups",
                b.board
            );
        }
    }

    #[test]
    fn des_output_nests_the_serial_result() {
        let trace = tiny();
        let sim = SimConfig::study(256);
        let plain = Run::new(Mechanism::Utlb)
            .config(&sim)
            .execute(&trace)
            .into_sim()
            .unwrap();
        let out = Run::new(Mechanism::Utlb)
            .config(&sim)
            .des(DesConfig::zero_contention())
            .execute(&trace);
        assert_eq!(
            out.sim().unwrap().stats,
            plain.stats,
            "sim() reads the DES base"
        );
        let des = out.into_des().unwrap();
        assert_eq!(des.base.sim_time_ns, plain.sim_time_ns);
        assert_eq!(des.des_time_ns, plain.sim_time_ns);
    }

    #[test]
    fn execute_without_mechanism_is_a_typed_error() {
        let err = Run::with_config(&SimConfig::study(64))
            .execute(&tiny())
            .unwrap_err();
        assert_eq!(err, RunError::NoMechanism);
        assert!(err.to_string().contains("no mechanism"), "{err}");
    }

    #[test]
    fn misreading_a_serial_output_is_a_typed_error() {
        let err = Run::new(Mechanism::Utlb)
            .config(&SimConfig::study(64))
            .execute(&tiny())
            .into_des()
            .unwrap_err();
        assert_eq!(
            err,
            RunError::IncompatiblePayload {
                requested: "des",
                actual: "sim"
            }
        );
        assert!(err.to_string().contains("not a des run"), "{err}");
    }

    #[test]
    fn execute_with_on_a_cluster_run_is_a_typed_error() {
        let sim = SimConfig::study(64);
        let mut engine = UtlbEngine::new(sim.utlb_config());
        let err = Run::new(Mechanism::Utlb)
            .config(&sim)
            .cluster(ClusterConfig::new(2))
            .execute_with(&mut engine, &tiny())
            .unwrap_err();
        assert!(err.to_string().contains("use Run::execute"), "{err}");
    }

    /// The message of the `IncompatibleConfig` error `run` fails with on
    /// the `tiny()` trace.
    fn config_error(run: Run) -> String {
        match run.config(&SimConfig::study(64)).execute(&tiny()) {
            Err(RunError::IncompatibleConfig(msg)) => msg.to_string(),
            other => panic!("expected IncompatibleConfig, got {other:?}"),
        }
    }

    #[test]
    fn a_cluster_of_zero_boards_is_a_typed_error() {
        let msg = config_error(Run::new(Mechanism::Utlb).cluster(ClusterConfig::new(0)));
        assert!(msg.contains("at least one board"), "{msg}");
    }

    #[test]
    fn a_shard_map_that_does_not_fit_is_a_typed_error() {
        let wrong_nodes = ClusterConfig::new(2).shard(ShardMap::new(3));
        let msg = config_error(Run::new(Mechanism::Utlb).cluster(wrong_nodes));
        assert!(msg.contains("different number of boards"), "{msg}");
        let mut partial = ShardMap::new(2);
        partial.assign(ProcessId::new(1), 1);
        let msg =
            config_error(Run::new(Mechanism::Utlb).cluster(ClusterConfig::new(2).shard(partial)));
        assert!(msg.contains("misses a pid"), "{msg}");
    }

    #[test]
    fn a_migration_of_an_unknown_pid_is_a_typed_error() {
        let cluster = ClusterConfig::new(2).migrate(99, 0, 1);
        let msg = config_error(Run::new(Mechanism::Utlb).cluster(cluster));
        assert!(msg.contains("does not have"), "{msg}");
    }

    #[test]
    fn observing_a_trace_cluster_is_a_typed_error() {
        let run = Run::new(Mechanism::Utlb)
            .cluster(ClusterConfig::new(2))
            .observed();
        let msg = config_error(run);
        assert!(msg.contains("drop .observed()"), "{msg}");
    }

    #[test]
    fn a_shard_map_on_a_clustered_frontend_is_a_typed_error() {
        let err = Run::new(Mechanism::Utlb)
            .frontend(FrontendConfig::default())
            .cluster(ClusterConfig::new(2).shard(ShardMap::new(2)))
            .execute(Live)
            .unwrap_err();
        assert!(matches!(err, RunError::IncompatibleConfig(_)), "{err}");
        assert!(err.to_string().contains(".homing(policy)"), "{err}");
    }

    #[test]
    fn a_degenerate_frontend_shape_is_a_typed_error() {
        let err = Run::new(Mechanism::Utlb)
            .config(&SimConfig::study(64))
            .frontend(FrontendConfig {
                connections: 0,
                ..FrontendConfig::default()
            })
            .execute(Live)
            .unwrap_err();
        assert_eq!(
            err,
            RunError::IncompatibleConfig("frontend needs at least one connection")
        );
    }

    #[test]
    fn an_invalid_cost_model_is_a_typed_error() {
        let broken = |breakage: fn(&mut CostModel)| {
            let mut cost = CostModel::default();
            breakage(&mut cost);
            cost
        };
        let cases = [
            (broken(|c| c.user_check_us = -1.0), "scalar"),
            (broken(|c| c.interrupt_us = f64::NAN), "scalar"),
            (broken(|c| c.pin_points = vec![(1, 27.0)]), "two points"),
            (
                broken(|c| c.dma_points = vec![(1, 1.5), (1, 1.6)]),
                "strictly increasing",
            ),
            (
                broken(|c| c.unpin_points = vec![(1, 25.0), (2, 20.0)]),
                "nondecreasing",
            ),
            (
                broken(|c| c.pin_points = vec![(1, -1.0), (2, 3.0)]),
                "nondecreasing",
            ),
            (
                broken(|c| c.dma_points = vec![(1, 1.5), (2, f64::INFINITY)]),
                "nondecreasing",
            ),
        ];
        for (cost, expected) in cases {
            let cfg = SimConfig {
                cost,
                ..SimConfig::study(64)
            };
            let err = Run::new(Mechanism::Utlb)
                .config(&cfg)
                .execute(&tiny())
                .unwrap_err();
            assert!(matches!(err, RunError::IncompatibleConfig(_)), "{err}");
            assert!(err.to_string().contains(expected), "{err}");
        }
    }

    #[test]
    fn live_input_without_a_frontend_is_a_typed_error() {
        let err = Run::new(Mechanism::Utlb)
            .config(&SimConfig::study(64))
            .execute(Live)
            .unwrap_err();
        assert!(err.to_string().contains(".frontend(cfg)"), "{err}");
        let err = Run::new(Mechanism::Utlb)
            .config(&SimConfig::study(64))
            .cluster(ClusterConfig::new(2))
            .execute(Live)
            .unwrap_err();
        assert!(err.to_string().contains(".frontend(cfg)"), "{err}");
    }
}
