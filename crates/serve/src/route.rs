//! The vocabulary of routed execution: which backend answered
//! ([`Route`]), the answer with its routing metadata ([`Served`]), the
//! gate's threshold ([`RoutePolicy`]) and the feedback loop's constants,
//! what became of a feedback example
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
    /// Nothing produces this route: the gate serves the snapshot or runs
    /// the query exactly. It stays only because the benchmark package
    /// still names it (with [`crate::RouterStats::degraded_served`],
    /// which always reads 0); both go with the benchmark's next change.
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
    /// consulted: the trainer's step count when it was published.
    pub snapshot_version: Option<u64>,
    /// `true` when this query's own feedback example was *lost*: the
    /// bounded feedback queue was full while another thread held the
    /// trainer (or an injected [`crate::FaultKind::QueueOverflow`] burst
    /// said so). Always `false` on the model route and when the trainer
    /// declined the example.
    pub feedback_dropped: bool,
    /// Pruning telemetry of the bound-and-verify snapshot consultation
    /// that produced (or rejected) the model answer: prototype blocks
    /// considered / bounded / skipped / verified. All-zero when no
    /// snapshot was consulted; for batch entry points the counters of the
    /// whole batch's single consultation are shared by every answer in
    /// it. `screen.skipped / screen.blocks` is the query's pruning win.
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

/// Routing policy for a [`crate::ShardRouter`]: the gate's one setting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutePolicy {
    /// Minimum [`regq_core::Confidence::score`] for serving from the
    /// snapshot in auto mode. `0.0` serves everything from the model,
    /// `> 1.0` routes everything to the exact engine.
    pub confidence_threshold: f64,
}

impl Default for RoutePolicy {
    fn default() -> Self {
        RoutePolicy {
            confidence_threshold: 0.3,
        }
    }
}

/// Feedback examples the trainer consumes between two publishes: a pump
/// that reaches this many publishes as it lets the trainer go, amortizing
/// the `O(dK)` capture over many steps.
pub const PUBLISH_INTERVAL: usize = 256;

/// Bound on a router's feedback queue (examples, not bytes). A label that
/// meets a full queue drains it first when the trainer is free, so only
/// a trainer held by another thread loses labels to it.
pub const FEEDBACK_QUEUE_CAPACITY: usize = 1024;

/// Outcome of offering one feedback example to the trainer
/// ([`crate::ShardRouter::observe_outcome`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feedback {
    /// The example was enqueued; the offering call, or the thread that
    /// holds the trainer, trains it before returning unless the trainer froze.
    Accepted,
    /// The example was lost to a queue that stayed full because another
    /// thread held the trainer (or to an injected
    /// [`crate::FaultKind::QueueOverflow`] burst). Counted in
    /// [`crate::RouterStats::feedback_dropped`] and surfaced per-query via
    /// [`Served::feedback_dropped`].
    Dropped,
    /// Nothing could have been learned from the example, so it was not
    /// enqueued and nothing was lost: the trainer holds no model or a
    /// frozen one, or `train_step` would refuse the pair (a dimension not
    /// the relation's, or a non-finite centre, radius or label). Counted in
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
