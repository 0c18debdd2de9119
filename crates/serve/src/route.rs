//! The vocabulary of routed execution: which backend answered
//! ([`Route`]), the answer with its routing metadata ([`Served`]), the
//! knobs that decide ([`RoutePolicy`]), what became of a feedback example
//! ([`Feedback`]) and what can go wrong ([`ServeError`]).

use regq_core::{CoreError, ScreenCounters};
use regq_linalg::LinalgError;
use std::fmt;

/// Which backend answered a routed query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Served from the published model snapshot (zero data access).
    Model,
    /// Executed on the exact engine (data traversal).
    Exact,
    /// Served from the snapshot **below** the confidence threshold,
    /// because the exact fallback was refused — its estimated cost blew
    /// the [`RoutePolicy::deadline_us`] budget, or feedback pressure
    /// crossed [`RoutePolicy::pressure_watermark`]. The value is the same
    /// bits the model route would serve; the distinct variant exists so a
    /// degraded answer is *always* flagged, never mistaken for a
    /// confident one.
    Degraded,
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Route::Model => write!(f, "model"),
            Route::Exact => write!(f, "exact"),
            Route::Degraded => write!(f, "degraded"),
        }
    }
}

/// A routed answer: the value plus how it was produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Served<T> {
    /// The answer.
    pub value: T,
    /// Which backend produced it.
    pub route: Route,
    /// The confidence score that drove the routing decision (`None` when
    /// no snapshot was consulted — e.g. forced-exact mode before any
    /// model was attached).
    pub score: Option<f64>,
    /// Version ([`regq_core::ServingSnapshot::version`]) of the snapshot
    /// consulted (the newest one across the shards).
    pub snapshot_version: Option<u64>,
    /// `true` when this query's own feedback example was *lost*: its
    /// shard's bounded queue was still full after the retry budget.
    /// Always `false` on model and degraded routes and with feedback
    /// disabled.
    pub feedback_dropped: bool,
    /// Pruning telemetry of the bound-and-verify snapshot consultation
    /// that produced (or rejected) the model answer: prototype blocks
    /// considered / bounded / skipped / verified. All-zero when no
    /// snapshot was consulted; for batch entry points the counters of the
    /// whole batch's single consultation are shared by every answer in
    /// it. `screen.skip_rate()` is the query's pruning win.
    pub screen: ScreenCounters,
}

impl<T> Served<T> {
    /// An answer served from the snapshot at `score`.
    pub(crate) fn model(value: T, score: f64, version: u64, screen: ScreenCounters) -> Self {
        Served {
            value,
            route: Route::Model,
            score: Some(score),
            snapshot_version: Some(version),
            feedback_dropped: false,
            screen,
        }
    }

    /// An answer executed on the exact engine with no snapshot consulted.
    pub(crate) fn exact_only(value: T) -> Self {
        Served {
            value,
            route: Route::Exact,
            score: None,
            snapshot_version: None,
            feedback_dropped: false,
            screen: ScreenCounters::default(),
        }
    }

    /// Map the value, preserving the routing metadata (SQL layers wrap
    /// routed answers into their own output shapes).
    pub fn map_value<U>(self, f: impl FnOnce(T) -> U) -> Served<U> {
        Served {
            value: f(self.value),
            route: self.route,
            score: self.score,
            snapshot_version: self.snapshot_version,
            feedback_dropped: self.feedback_dropped,
            screen: self.screen,
        }
    }
}

/// Routing policy for a [`crate::ShardRouter`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutePolicy {
    /// Minimum [`regq_core::Confidence::score`] for serving from the
    /// snapshot in auto mode. `0.0` serves everything from the model,
    /// `> 1.0` routes everything to the exact engine.
    pub confidence_threshold: f64,
    /// Feed exact answers back to the trainer (Algorithm 1's loop, closed
    /// in production).
    pub feedback: bool,
    /// Publish a fresh snapshot after this many accepted feedback
    /// examples. Larger intervals amortize the `O(dK)` capture; smaller
    /// ones propagate learning to readers sooner.
    pub publish_interval: usize,
    /// Deadline budget (µs) for the exact fallback. When set and the
    /// router's exact-cost estimate (a served-cost EMA, folded with any
    /// [`crate::fault::FaultPlan::with_exact_cost_hint_us`] hint) exceeds
    /// it, below-threshold queries are served from the snapshot as
    /// [`Route::Degraded`] instead of traversing data. `None` (default)
    /// never degrades on cost.
    pub deadline_us: Option<f64>,
    /// Feedback-pressure watermark: when the routed shard's feedback
    /// queue holds at least this many pending examples, fallbacks degrade
    /// to the snapshot answer instead of piling more work onto a
    /// struggling trainer. `None` (default) never degrades on pressure.
    pub pressure_watermark: Option<usize>,
    /// Bounded retry budget for feedback that hits a full shard queue:
    /// each retry backs off deterministically (a doubling spin) and pumps
    /// the fabric once before re-offering. `0` (default) drops
    /// immediately.
    pub overflow_retries: u32,
}

impl Default for RoutePolicy {
    fn default() -> Self {
        RoutePolicy {
            confidence_threshold: 0.3,
            feedback: true,
            publish_interval: 256,
            deadline_us: None,
            pressure_watermark: None,
            overflow_retries: 0,
        }
    }
}

/// Outcome of offering one feedback example to the fabric
/// ([`crate::ShardRouter::observe_outcome`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feedback {
    /// The example was enqueued on its shard; a trainer consumes it at
    /// the next drain (a contended trainer lock leaves it queued, it is
    /// not lost).
    Accepted,
    /// The example was lost to a full (or overflowing) shard queue after
    /// the retry budget. Counted in
    /// [`crate::RouterStats::feedback_dropped`] and surfaced per-query via
    /// [`Served::feedback_dropped`].
    Dropped,
    /// The example's shard cannot train — it holds no model, or a frozen
    /// one — so the example was not enqueued: nothing could have been
    /// learned from it, and nothing was lost. Counted in
    /// [`crate::RouterStats::feedback_declined`].
    Declined,
}

impl Feedback {
    /// Whether this outcome lost the example — the condition surfaced as
    /// [`Served::feedback_dropped`].
    pub fn is_lost(self) -> bool {
        self == Feedback::Dropped
    }
}

/// Most quarantined examples retained for inspection
/// ([`crate::ShardRouter::quarantined`]); the counter in
/// [`crate::RouterStats::trainer_panics`] is never capped.
pub const QUARANTINE_CAP: usize = 64;

/// Errors from routed execution.
#[derive(Debug)]
pub enum ServeError {
    /// A model-route query arrived but no (non-empty) model is attached.
    NoModel,
    /// The exact selection was empty (SQL NULL).
    EmptySubspace,
    /// Model-side failure.
    Model(CoreError),
    /// Exact-engine numerical failure.
    Numeric(LinalgError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::NoModel => write!(f, "no model attached (train or attach first)"),
            ServeError::EmptySubspace => write!(f, "empty subspace (NULL)"),
            ServeError::Model(_) => write!(f, "model error"),
            ServeError::Numeric(_) => write!(f, "numeric error"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Model(e) => Some(e),
            ServeError::Numeric(e) => Some(e),
            ServeError::NoModel | ServeError::EmptySubspace => None,
        }
    }
}
