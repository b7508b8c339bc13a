//! # dp-service: a privacy-budget-metered release service
//!
//! A multi-tenant front-end for the datacube-dp release pipeline. The
//! service keeps the paper's two-phase split intact across a process
//! boundary:
//!
//! 1. **Plan registry** ([`registry::Registry`]) — tenants register
//!    data-independent plans, either as pre-compiled documents or as
//!    inputs the server compiles through one shared
//!    [`dp_core::api::PlanCache`]. Plans are interned by fingerprint, so
//!    K tenants asking for the same workload shape cost exactly one
//!    strategy compile and one Step-2 budget solve.
//! 2. **Pool** ([`pool::Pool`]) — everything a release draws from, one
//!    [`dp_core::Session`] per entry with its owner: registered plans
//!    bound to a loaded table/histogram (observations `z = S·x` computed
//!    once, shared read-only by every tenant that registered the plan),
//!    and tenant-owned streams that ingest record deltas. One release path,
//!    [`service::DpService::release`], serves both.
//! 3. **Budget accountant** ([`accountant::Accountant`]) — per-tenant
//!    cumulative (ε, δ) metering via sequential composition
//!    ([`dp_mech::compose_n`]). Charges are debited atomically **before**
//!    noise is drawn; exhaustion is the typed
//!    [`error::ServiceError::BudgetExhausted`] carrying the remaining
//!    allowance; an optional JSON write-ahead ledger makes spent budget
//!    survive restarts.
//! 4. **Transport + server** ([`transport`], [`server`]) — a blocking
//!    JSON-lines TCP protocol on OS threads, behind a small
//!    [`transport::Transport`] trait. This workspace links no async
//!    runtime (everything is vendored and dependency-free), so threads
//!    are the concurrency model; the trait is the seam where an async or
//!    TLS front-end would slot in later.
//!
//! ## Example (in-process, no sockets)
//!
//! ```
//! use dp_core::{PlanBuilder, Schema, StrategyKind, Workload, ContingencyTable};
//! use dp_mech::PrivacyLevel;
//! use dp_service::{Accountant, DpService, Target};
//!
//! let service = DpService::new(Accountant::in_memory());
//! service.data().insert_table("toy", ContingencyTable::from_indices(3, &[0, 1, 7]));
//!
//! service.open_tenant("alice", PrivacyLevel::Pure { epsilon: 1.0 }).unwrap();
//! let schema = Schema::binary(3).unwrap();
//! let workload = Workload::all_k_way(&schema, 1).unwrap();
//! let plan_id = service
//!     .register_compiled(
//!         "alice",
//!         PlanBuilder::marginals(workload, StrategyKind::Fourier)
//!             .privacy(PrivacyLevel::Pure { epsilon: 0.5 }),
//!     )
//!     .unwrap();
//! let session = Target::Session(service.bind("alice", &plan_id, "toy").unwrap());
//! let response = service.release("alice", &session, &[42], None).unwrap();
//! let releases = response.get_field("releases").unwrap().as_array().unwrap();
//! assert_eq!(releases.len(), 1);
//! assert_eq!(service.budget_status("alice").unwrap().spent_epsilon, 0.5);
//! ```
//!
//! Over TCP, the same flow runs through [`server::Server`] +
//! [`client::Client`]; releases are **byte-identical** per seed to the
//! in-process path, because the wire format round-trips `f64` exactly.
//!
//! ## Failure model
//!
//! A release may carry a client-generated `request_id`: the accountant
//! journals the debit in the write-ahead ledger — durably, via **group
//! commit** (one `sync_data` covers every record staged concurrently;
//! see [`accountant`]) — so a retried request — after a dropped
//! connection, a timeout, or even a server crash and restart — returns
//! the same release bytes without a second debit (exactly once). The [`client::Client`] runs every
//! socket operation under finite deadlines and retries *idempotent*
//! requests with capped exponential backoff. Servers can bound
//! concurrent connections ([`server::ServerLimits`]) and per-tenant
//! in-flight releases ([`service::DpService::with_tenant_inflight_cap`]),
//! shedding excess load with the typed, retryable
//! [`error::ServiceError::Overloaded`] instead of degrading everyone.
//!
//! ## Trust model
//!
//! The wire protocol carries bearer-token credentials when the service is
//! built with [`auth::AuthPolicy::Operator`]: tenant-scoped requests need
//! that tenant's token, and `open_tenant`/`shutdown` need the admin
//! token — so budgets meter the *data owner's* tenant grants, not
//! whatever names a TCP peer invents. The default
//! [`auth::AuthPolicy::Trusted`] policy skips all checks and is only for
//! in-process use and single-operator loopback deployments; see [`auth`]
//! for the full threat model. An optional service-wide ledger
//! ([`accountant::Accountant::with_global_budget`]) additionally caps the
//! dataset's cumulative privacy loss across *all* tenants.

#![warn(missing_docs)]

pub mod accountant;
pub mod auth;
pub mod client;
pub mod error;
#[cfg(feature = "fault-inject")]
pub mod failpoint;
pub mod pool;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod service;
pub mod transport;

/// Evaluates a named fault-injection site (see [`failpoint`]).
///
/// Expands to nothing unless the `fault-inject` feature is on, so the hot
/// paths carry no branch in production builds. With the feature on, the
/// enclosing function must return `Result<_, ServiceError>`: a firing
/// `Error` action propagates through `?`.
#[cfg(feature = "fault-inject")]
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {
        $crate::failpoint::check($site)?
    };
}

/// Evaluates a named fault-injection site (no-op: the `fault-inject`
/// feature is off, so no registry exists and no cost is paid).
#[cfg(not(feature = "fault-inject"))]
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {};
}

pub use accountant::{Accountant, BudgetStatus, ReleaseAdmission, WalStats, WalSync};
pub use auth::{Auth, AuthPolicy};
pub use client::{Client, ClientConfig, ClientStats, KeyedRelease, RemoteBudgetStatus};
pub use error::ServiceError;
pub use pool::{DataStore, Dataset, Pool, Target};
pub use registry::Registry;
pub use server::{Server, ServerLimits};
pub use service::DpService;
pub use transport::{Connection, ConnectionWriter, TcpTransport, Transport};
