//! The release service core: one object tying the accountant, registry,
//! data store, and pool together, independent of any transport.
//!
//! The privacy-critical ordering lives in [`DpService::release`], the one
//! release path for bound sessions and streams alike: the whole batch is
//! composed into one charge ([`dp_mech::compose_n`]) and debited from the
//! tenant's ledger **before** any noise is drawn. A
//! rejected debit therefore consumes no randomness and leaks nothing; a
//! release failure *after* a granted debit burns budget without output,
//! which is the safe direction (never overspend).
//!
//! Authorization is enforced at the wire boundary, [`DpService::handle`],
//! against the service's [`Auth`] policy; the direct Rust methods
//! (`open_tenant`, `release`, …) are the in-process operator surface and
//! take no credential. See [`crate::auth`] for the threat model.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::accountant::{Accountant, BudgetStatus, ReleaseAdmission};
use crate::auth::Auth;
use crate::error::ServiceError;
use crate::fail_point;
use crate::pool::{DataStore, Pool, Target};
use crate::protocol::{ok_response, privacy_to_value, Request};
use crate::registry::Registry;
use dp_core::api::SessionRelease;
use dp_core::{Plan, PlanBuilder};
use dp_mech::{compose_n, PrivacyLevel};
use serde::{Serialize, Value};

/// A privacy-budget-metered release service (see the module docs).
pub struct DpService {
    accountant: Accountant,
    auth: Auth,
    registry: Registry,
    pool: Pool,
    data: DataStore,
    /// Per-tenant cap on wire releases being computed at once (`None` =
    /// unbounded). Excess requests are shed with the typed, retryable
    /// [`ServiceError::Overloaded`] *before* anything is charged.
    tenant_inflight_cap: Option<usize>,
    inflight: Mutex<HashMap<String, usize>>,
}

/// The success response for a batch of releases. A keyed response echoes
/// the client's `request_id`, so pipelined clients can match out-of-order
/// responses to their requests. Fresh computation, cached replay, and
/// post-restart recomputation all build this same shape, so replays stay
/// byte-identical.
fn release_response(releases: &[SessionRelease], request_id: Option<&str>) -> Value {
    let mut fields = Vec::with_capacity(2);
    if let Some(rid) = request_id {
        fields.push(("request_id".into(), Value::String(rid.into())));
    }
    fields.push((
        "releases".into(),
        Value::Array(releases.iter().map(Serialize::serialize_value).collect()),
    ));
    ok_response(fields)
}

/// RAII decrement for the per-tenant in-flight release counter.
struct InflightGuard<'a> {
    service: &'a DpService,
    tenant: String,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let mut inflight = self
            .service
            .inflight
            .lock()
            .expect("inflight mutex poisoned");
        if let Some(count) = inflight.get_mut(&self.tenant) {
            *count -= 1;
            if *count == 0 {
                inflight.remove(&self.tenant);
            }
        }
    }
}

impl DpService {
    /// A service backed by the given accountant, trusting every peer (the
    /// in-process / loopback mode — see [`crate::auth`] before exposing
    /// this over a network).
    pub fn new(accountant: Accountant) -> DpService {
        DpService::with_auth(accountant, Auth::trusted())
    }

    /// A service enforcing the given auth policy at the wire boundary.
    pub fn with_auth(accountant: Accountant, auth: Auth) -> DpService {
        DpService {
            accountant,
            auth,
            registry: Registry::new(),
            pool: Pool::default(),
            data: DataStore::new(),
            tenant_inflight_cap: None,
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Bounds how many wire releases one tenant may have in flight at
    /// once; excess requests are shed with the retryable
    /// [`ServiceError::Overloaded`] before any budget is charged. Applies
    /// to [`DpService::handle`] (the wire boundary), not the direct Rust
    /// methods.
    pub fn with_tenant_inflight_cap(mut self, cap: usize) -> DpService {
        self.tenant_inflight_cap = Some(cap);
        self
    }

    /// Claims an in-flight slot for `tenant`, or sheds with the typed
    /// [`ServiceError::Overloaded`]. The slot frees when the guard drops.
    fn acquire_inflight(&self, tenant: &str) -> Result<Option<InflightGuard<'_>>, ServiceError> {
        let Some(cap) = self.tenant_inflight_cap else {
            return Ok(None);
        };
        let mut inflight = self.inflight.lock().expect("inflight mutex poisoned");
        let count = inflight.entry(tenant.to_string()).or_insert(0);
        if *count >= cap {
            return Err(ServiceError::Overloaded {
                scope: "tenant".into(),
            });
        }
        *count += 1;
        Ok(Some(InflightGuard {
            service: self,
            tenant: tenant.to_string(),
        }))
    }

    /// The authenticator enforcing the service's policy.
    pub fn auth(&self) -> &Auth {
        &self.auth
    }

    /// The named datasets available for binding.
    pub fn data(&self) -> &DataStore {
        &self.data
    }

    /// The plan registry (exposed for solve-count assertions).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The budget accountant.
    pub fn accountant(&self) -> &Accountant {
        &self.accountant
    }

    /// Opens a tenant (idempotent for an identical budget).
    pub fn open_tenant(&self, tenant: &str, budget: PrivacyLevel) -> Result<(), ServiceError> {
        self.accountant.open_tenant(tenant, budget)
    }

    fn require_tenant(&self, tenant: &str) -> Result<(), ServiceError> {
        self.accountant.status(tenant).map(|_| ())
    }

    /// Registers a client-compiled plan document for `tenant`.
    pub fn register_plan(&self, tenant: &str, plan: Plan) -> Result<String, ServiceError> {
        self.require_tenant(tenant)?;
        self.registry.register_plan(tenant, plan)
    }

    /// Compiles (through the shared cache) and registers a plan.
    pub fn register_compiled(
        &self,
        tenant: &str,
        builder: PlanBuilder,
    ) -> Result<String, ServiceError> {
        self.require_tenant(tenant)?;
        self.registry.register_compiled(tenant, builder)
    }

    /// Binds a registered plan to a loaded dataset, returning the
    /// deterministic session id.
    pub fn bind(&self, tenant: &str, plan_id: &str, table: &str) -> Result<String, ServiceError> {
        self.require_tenant(tenant)?;
        let plan = self.registry.lookup(tenant, plan_id)?;
        let dataset = self.data.get(table)?;
        self.pool.bind(plan_id, table, plan, &dataset)
    }

    /// Draws one deterministic release per seed from a bound session or a
    /// stream: the one release path, for wire and in-process callers
    /// alike. Every call runs the same admission sequence:
    ///
    /// 1. the tenant must exist;
    /// 2. the target must resolve and the tenant must be allowed to use it
    ///    ([`Pool::get`]), so an unknown or foreign target is a typed error
    ///    even for an empty batch;
    /// 3. an empty batch is then a no-op: nothing drawn, nothing charged;
    /// 4. the whole batch is one sequential-composition charge
    ///    ([`compose_n`]),
    /// 5. debited before any noise is drawn: a plain debit, or under a
    ///    `request_id` an [`Accountant::admit_release`] that journals
    ///    `(tenant, request_id)` durably with the debit. A retry of the id
    ///    (same target and seeds) debits nothing: it gets another handle
    ///    on the cached response, byte-identical on the wire, or a
    ///    recomputation when the first attempt died after the debit, the
    ///    cache evicted the response, or the server restarted;
    /// 6. a fresh admission passes the `release.post_debit` failpoint;
    /// 7. the releases are drawn, with a stream held locked from step 4
    ///    on, so they see one consistent snapshot while ingests race;
    /// 8. a keyed response is recorded for replay.
    pub fn release(
        &self,
        tenant: &str,
        target: &Target,
        seeds: &[u64],
        request_id: Option<&str>,
    ) -> Result<Arc<Value>, ServiceError> {
        self.require_tenant(tenant)?;
        let entry = self.pool.get(tenant, target, &self.registry)?;
        if seeds.is_empty() {
            return Ok(Arc::new(release_response(&[], request_id)));
        }
        let session = entry.read();
        let charge = compose_n(session.plan().privacy(), seeds.len());
        match request_id {
            None => self.accountant.try_debit(tenant, charge)?,
            Some(rid) => {
                match self
                    .accountant
                    .admit_release(tenant, rid, target.id(), seeds, charge)?
                {
                    ReleaseAdmission::Replay(Some(cached)) => return Ok(cached),
                    ReleaseAdmission::Replay(None) => {}
                    ReleaseAdmission::Fresh => {
                        fail_point!("release.post_debit");
                    }
                }
            }
        }
        let releases = session.release_batch(seeds)?;
        let response = Arc::new(release_response(&releases, request_id));
        if let Some(rid) = request_id {
            self.accountant.record_response(tenant, rid, &response);
        }
        Ok(response)
    }

    /// Opens (or re-opens) a per-tenant streaming session over a
    /// registered plan, optionally seeded from a loaded dataset, and
    /// returns the stream id. Idempotent and non-destructive: reopening
    /// an existing stream keeps every accumulated delta, which is what
    /// lets a crashed publisher reconnect and resume its schedule.
    /// Ingests are uncharged — only [`DpService::release`] touches the
    /// budget.
    pub fn stream_open(
        &self,
        tenant: &str,
        plan: &str,
        table: Option<&str>,
    ) -> Result<String, ServiceError> {
        self.require_tenant(tenant)?;
        let compiled = self.registry.lookup(tenant, plan)?;
        let dataset = match table {
            Some(name) => Some(self.data.get(name)?),
            None => None,
        };
        self.pool
            .open_stream(tenant, plan, table, compiled, dataset.as_deref())
    }

    /// Applies one record-level delta to the tenant's own stream — O(Δ)
    /// against the compiled strategy, no rebind or recompile. Uncharged: a
    /// delta changes what a *future* release will say, not what has
    /// already been released.
    pub fn stream_ingest(
        &self,
        tenant: &str,
        stream: &str,
        cell: u64,
        delta: f64,
    ) -> Result<(), ServiceError> {
        self.require_tenant(tenant)?;
        self.pool
            .get(tenant, &Target::Stream(stream.into()), &self.registry)?
            .write()
            .ingest_count(cell, delta)
            .map_err(Into::into)
    }

    /// The tenant's current budget position.
    pub fn budget_status(&self, tenant: &str) -> Result<BudgetStatus, ServiceError> {
        self.accountant.status(tenant)
    }

    /// Handles one parsed request, producing the success-response value
    /// (shared: keyed-release replays return another handle on the cached
    /// response instead of a deep clone). `credential` is the request's
    /// `"auth"` field, checked against the service's [`Auth`] policy per
    /// operation. `Shutdown` is acknowledged here; actually stopping the
    /// transport is the server loop's job (and only after an *authorized*
    /// shutdown).
    pub fn handle(
        &self,
        request: Request,
        credential: Option<&str>,
    ) -> Result<Arc<Value>, ServiceError> {
        match request {
            Request::OpenTenant {
                tenant,
                budget,
                tenant_token,
            } => {
                self.auth.check_admin(credential)?;
                let token = if self.auth.requires_tokens() {
                    Some(tenant_token.ok_or_else(|| {
                        ServiceError::Protocol(
                            "open_tenant requires a `tenant_token` under the operator auth policy"
                                .into(),
                        )
                    })?)
                } else {
                    None
                };
                self.open_tenant(&tenant, budget)?;
                if let Some(token) = token {
                    self.auth.install_tenant_token(&tenant, &token);
                }
                Ok(Arc::new(ok_response(vec![(
                    "tenant".into(),
                    Value::String(tenant),
                )])))
            }
            Request::RegisterPlan { tenant, plan } => {
                self.auth.check_tenant(&tenant, credential)?;
                let id = self.register_plan(&tenant, *plan)?;
                Ok(Arc::new(ok_response(vec![(
                    "plan_id".into(),
                    Value::String(id),
                )])))
            }
            Request::RegisterCompile {
                tenant,
                spec,
                budgeting,
                privacy,
                neighboring,
            } => {
                self.auth.check_tenant(&tenant, credential)?;
                let builder = PlanBuilder::new(spec)
                    .budgeting(budgeting)
                    .privacy(privacy)
                    .neighboring(neighboring);
                let id = self.register_compiled(&tenant, builder)?;
                Ok(Arc::new(ok_response(vec![(
                    "plan_id".into(),
                    Value::String(id),
                )])))
            }
            Request::Bind {
                tenant,
                plan_id,
                table,
            } => {
                self.auth.check_tenant(&tenant, credential)?;
                let id = self.bind(&tenant, &plan_id, &table)?;
                Ok(Arc::new(ok_response(vec![(
                    "session".into(),
                    Value::String(id),
                )])))
            }
            Request::Release {
                tenant,
                session,
                seeds,
                request_id,
            } => {
                self.auth.check_tenant(&tenant, credential)?;
                let _slot = self.acquire_inflight(&tenant)?;
                let target = Target::Session(session);
                self.release(&tenant, &target, &seeds, request_id.as_deref())
            }
            Request::StreamOpen {
                tenant,
                plan_id,
                table,
            } => {
                self.auth.check_tenant(&tenant, credential)?;
                let id = self.stream_open(&tenant, &plan_id, table.as_deref())?;
                Ok(Arc::new(ok_response(vec![(
                    "stream".into(),
                    Value::String(id),
                )])))
            }
            Request::Ingest {
                tenant,
                stream,
                cell,
                delta,
            } => {
                self.auth.check_tenant(&tenant, credential)?;
                self.stream_ingest(&tenant, &stream, cell, delta)?;
                Ok(Arc::new(ok_response(vec![(
                    "ingested".into(),
                    Value::Bool(true),
                )])))
            }
            Request::ReleaseCurrent {
                tenant,
                stream,
                seeds,
                request_id,
            } => {
                self.auth.check_tenant(&tenant, credential)?;
                let _slot = self.acquire_inflight(&tenant)?;
                let target = Target::Stream(stream);
                self.release(&tenant, &target, &seeds, request_id.as_deref())
            }
            Request::BudgetStatus { tenant } => {
                self.auth.check_tenant(&tenant, credential)?;
                let s = self.budget_status(&tenant)?;
                Ok(Arc::new(ok_response(vec![
                    ("tenant".into(), Value::String(tenant)),
                    ("total".into(), privacy_to_value(s.total)),
                    ("spent_epsilon".into(), Value::Number(s.spent_epsilon)),
                    ("spent_delta".into(), Value::Number(s.spent_delta)),
                    (
                        "remaining_epsilon".into(),
                        Value::Number(s.remaining_epsilon),
                    ),
                    ("remaining_delta".into(), Value::Number(s.remaining_delta)),
                    ("charges".into(), Value::Number(s.charges as f64)),
                ])))
            }
            Request::Ping => Ok(Arc::new(ok_response(vec![
                ("pong".into(), Value::Bool(true)),
                (
                    "tables".into(),
                    Value::Array(self.data.names().into_iter().map(Value::String).collect()),
                ),
            ]))),
            Request::Shutdown => {
                self.auth.check_admin(credential)?;
                Ok(Arc::new(ok_response(vec![(
                    "shutdown".into(),
                    Value::Bool(true),
                )])))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::{ContingencyTable, CoreError, Schema, StrategyKind, Workload};

    fn service_with_toy_table() -> DpService {
        let service = DpService::new(Accountant::in_memory());
        service
            .data()
            .insert_table("toy", ContingencyTable::from_indices(3, &[0, 1, 2, 7, 7]));
        service
    }

    fn builder(epsilon: f64) -> PlanBuilder {
        let schema = Schema::binary(3).unwrap();
        let workload = Workload::all_k_way(&schema, 1).unwrap();
        PlanBuilder::marginals(workload, StrategyKind::Fourier)
            .privacy(PrivacyLevel::Pure { epsilon })
    }

    fn session(id: &str) -> Target {
        Target::Session(id.into())
    }

    fn stream(id: &str) -> Target {
        Target::Stream(id.into())
    }

    fn render(response: &Value) -> String {
        crate::protocol::render_line(response)
    }

    fn release_count(response: &Value) -> usize {
        response
            .get_field("releases")
            .unwrap()
            .as_array()
            .unwrap()
            .len()
    }

    #[test]
    fn end_to_end_release_meters_the_budget() {
        let service = service_with_toy_table();
        service
            .open_tenant("t", PrivacyLevel::Pure { epsilon: 1.0 })
            .unwrap();
        let plan_id = service.register_compiled("t", builder(0.25)).unwrap();
        let target = session(&service.bind("t", &plan_id, "toy").unwrap());

        let releases = service.release("t", &target, &[1, 2, 3], None).unwrap();
        assert_eq!(release_count(&releases), 3);
        let status = service.budget_status("t").unwrap();
        assert_eq!(status.spent_epsilon, 0.75);
        assert_eq!(status.charges, 1, "a batch is one composed charge");

        // 0.25 remains: a 2-seed batch (0.5) must be rejected whole...
        assert!(matches!(
            service.release("t", &target, &[4, 5], None),
            Err(ServiceError::BudgetExhausted { .. })
        ));
        // ...without burning the remainder, which a 1-seed release can use.
        service.release("t", &target, &[4], None).unwrap();
        assert_eq!(service.budget_status("t").unwrap().remaining_epsilon, 0.0);
    }

    #[test]
    fn unknown_names_are_typed() {
        let service = service_with_toy_table();
        assert!(matches!(
            service.register_compiled("ghost", builder(0.1)),
            Err(ServiceError::UnknownTenant(_))
        ));
        service
            .open_tenant("t", PrivacyLevel::Pure { epsilon: 1.0 })
            .unwrap();
        assert!(matches!(
            service.bind("t", "feedfacefeedface", "toy"),
            Err(ServiceError::UnknownPlan { .. })
        ));
        let plan_id = service.register_compiled("t", builder(0.1)).unwrap();
        assert!(matches!(
            service.bind("t", &plan_id, "missing"),
            Err(ServiceError::UnknownTable(_))
        ));
        assert!(matches!(
            service.release("t", &session("nope"), &[1], None),
            Err(ServiceError::UnknownSession(_))
        ));
        assert!(matches!(
            service.release("ghost", &session("nope"), &[1], None),
            Err(ServiceError::UnknownTenant(_))
        ));
    }

    #[test]
    fn wire_requests_are_gated_by_the_operator_policy() {
        let service = DpService::with_auth(Accountant::in_memory(), Auth::operator("admin"));
        service
            .data()
            .insert_table("toy", ContingencyTable::from_indices(3, &[0, 1, 2]));
        let open = || Request::OpenTenant {
            tenant: "t".into(),
            budget: PrivacyLevel::Pure { epsilon: 1.0 },
            tenant_token: Some("tok".into()),
        };

        // Minting a tenant budget needs the operator credential...
        for bad in [None, Some("nope"), Some("tok")] {
            assert!(matches!(
                service.handle(open(), bad),
                Err(ServiceError::Unauthorized(_))
            ));
        }
        // ...and must install a tenant credential.
        assert!(matches!(
            service.handle(
                Request::OpenTenant {
                    tenant: "t".into(),
                    budget: PrivacyLevel::Pure { epsilon: 1.0 },
                    tenant_token: None,
                },
                Some("admin"),
            ),
            Err(ServiceError::Protocol(_))
        ));
        service.handle(open(), Some("admin")).unwrap();

        // Tenant-scoped requests take the tenant credential or the admin's.
        let status = || Request::BudgetStatus { tenant: "t".into() };
        assert!(matches!(
            service.handle(status(), None),
            Err(ServiceError::Unauthorized(_))
        ));
        assert!(matches!(
            service.handle(status(), Some("wrong")),
            Err(ServiceError::Unauthorized(_))
        ));
        service.handle(status(), Some("tok")).unwrap();
        service.handle(status(), Some("admin")).unwrap();

        // Shutdown is operator-only; a tenant credential does not unlock it.
        for bad in [None, Some("tok")] {
            assert!(matches!(
                service.handle(Request::Shutdown, bad),
                Err(ServiceError::Unauthorized(_))
            ));
        }
        service.handle(Request::Shutdown, Some("admin")).unwrap();
    }

    #[test]
    fn sessions_are_shared_but_authorization_is_not() {
        let service = service_with_toy_table();
        for tenant in ["alice", "bob"] {
            service
                .open_tenant(tenant, PrivacyLevel::Pure { epsilon: 1.0 })
                .unwrap();
        }
        let a = service.register_compiled("alice", builder(0.5)).unwrap();
        let b = service.register_compiled("bob", builder(0.5)).unwrap();
        assert_eq!(a, b);
        let sa = service.bind("alice", &a, "toy").unwrap();
        let sb = service.bind("bob", &b, "toy").unwrap();
        assert_eq!(sa, sb, "same plan + table share one session");
        let shared = session(&sa);
        assert_eq!(
            render(&service.release("alice", &shared, &[1], None).unwrap()),
            render(&service.release("bob", &shared, &[1], None).unwrap()),
        );

        // Carol never registered the plan: the shared session id alone
        // must not grant access.
        service
            .open_tenant("carol", PrivacyLevel::Pure { epsilon: 1.0 })
            .unwrap();
        assert!(matches!(
            service.release("carol", &shared, &[1], None),
            Err(ServiceError::UnknownPlan { .. })
        ));
    }

    #[test]
    fn idempotent_releases_charge_once_and_replay_the_same_bytes() {
        let service = service_with_toy_table();
        service
            .open_tenant("t", PrivacyLevel::Pure { epsilon: 1.0 })
            .unwrap();
        let plan_id = service.register_compiled("t", builder(0.25)).unwrap();
        let target = session(&service.bind("t", &plan_id, "toy").unwrap());

        let first = service.release("t", &target, &[1, 2], Some("r1")).unwrap();
        assert_eq!(service.budget_status("t").unwrap().spent_epsilon, 0.5);
        for _ in 0..3 {
            let again = service.release("t", &target, &[1, 2], Some("r1")).unwrap();
            assert_eq!(
                render(&again),
                render(&first),
                "replays must be byte-identical"
            );
        }
        // Still one charge — and the replay even works with the budget
        // fully exhausted, because nothing new is debited.
        assert_eq!(service.budget_status("t").unwrap().spent_epsilon, 0.5);
        service.release("t", &target, &[9, 10], Some("r2")).unwrap();
        assert_eq!(service.budget_status("t").unwrap().remaining_epsilon, 0.0);
        service.release("t", &target, &[1, 2], Some("r1")).unwrap();

        // Reusing an id with different seeds is the typed client bug.
        assert!(matches!(
            service.release("t", &target, &[3, 4], Some("r1")),
            Err(ServiceError::IdempotencyMismatch { .. })
        ));
    }

    #[test]
    fn empty_seed_batches_are_uncharged_no_ops_on_every_release_path() {
        let service = service_with_toy_table();
        for tenant in ["t", "u"] {
            service
                .open_tenant(tenant, PrivacyLevel::Pure { epsilon: 1.0 })
                .unwrap();
        }
        let plan_id = service.register_compiled("t", builder(0.25)).unwrap();
        service.register_compiled("u", builder(0.25)).unwrap();
        let bound = session(&service.bind("t", &plan_id, "toy").unwrap());
        let streamed = stream(&service.stream_open("t", &plan_id, None).unwrap());

        for target in [&bound, &streamed] {
            for rid in [None, Some("r-empty")] {
                let resp = service.release("t", target, &[], rid).unwrap();
                assert_eq!(release_count(&resp), 0);
            }
        }
        // No noise drawn, no budget consumed, no charge journaled — an
        // empty id is even reusable with real seeds later.
        let status = service.budget_status("t").unwrap();
        assert_eq!(status.spent_epsilon, 0.0);
        assert_eq!(status.charges, 0);
        service.release("t", &bound, &[1], Some("r-empty")).unwrap();

        // An empty batch still resolves and authorizes its target first:
        // an unknown session and another tenant's stream are typed errors.
        let foreign = stream(&service.stream_open("u", &plan_id, None).unwrap());
        for rid in [None, Some("r-foreign")] {
            assert!(matches!(
                service.release("t", &session("nope"), &[], rid),
                Err(ServiceError::UnknownSession(_))
            ));
            assert!(matches!(
                service.release("t", &foreign, &[], rid),
                Err(ServiceError::UnknownSession(_))
            ));
        }
        assert_eq!(service.budget_status("t").unwrap().charges, 1);
    }

    #[test]
    fn streams_ingest_uncharged_and_release_the_current_state() {
        let service = service_with_toy_table();
        service
            .open_tenant("t", PrivacyLevel::Pure { epsilon: 2.0 })
            .unwrap();
        let plan_id = service.register_compiled("t", builder(0.25)).unwrap();
        let id = service.stream_open("t", &plan_id, Some("toy")).unwrap();
        assert_eq!(id, format!("t/{plan_id}/toy"));
        let streamed = stream(&id);

        // A stream seeded from a dataset releases exactly what a bound
        // session over that dataset releases.
        let bound = session(&service.bind("t", &plan_id, "toy").unwrap());
        let from_stream = service.release("t", &streamed, &[42], None).unwrap();
        let from_session = service.release("t", &bound, &[42], None).unwrap();
        assert_eq!(render(&from_stream), render(&from_session));

        // Deltas are uncharged and visible to the next release.
        let spent = service.budget_status("t").unwrap().spent_epsilon;
        for _ in 0..5 {
            service.stream_ingest("t", &id, 3, 1.0).unwrap();
        }
        assert_eq!(service.budget_status("t").unwrap().spent_epsilon, spent);
        let after = service.release("t", &streamed, &[42], None).unwrap();
        assert_ne!(render(&after), render(&from_stream));

        // Reopening never resets: the five ingests survive.
        let again = service.stream_open("t", &plan_id, Some("toy")).unwrap();
        assert_eq!(again, id);
        let re_release = service.release("t", &streamed, &[42], None).unwrap();
        assert_eq!(render(&re_release), render(&after));
    }

    #[test]
    fn a_non_finite_ingest_is_refused_and_leaves_the_stream_unchanged() {
        let service = service_with_toy_table();
        service
            .open_tenant("t", PrivacyLevel::Pure { epsilon: 2.0 })
            .unwrap();
        let plan_id = service.register_compiled("t", builder(0.25)).unwrap();
        let id = service.stream_open("t", &plan_id, Some("toy")).unwrap();
        let release = || {
            let request = Request::ReleaseCurrent {
                tenant: "t".into(),
                stream: id.clone(),
                seeds: vec![42],
                request_id: None,
            };
            render(&service.handle(request, None).unwrap())
        };
        let before = release();
        // `1e400` parses to +inf; the -inf after it would have made the
        // count NaN, and every later release all-null.
        for delta in ["1e400", "-1e400"] {
            let line = format!(
                r#"{{"op":"ingest","tenant":"t","stream":"{id}","cell":3,"delta":{delta}}}"#
            );
            let request = Request::from_value(&crate::protocol::parse_line(&line).unwrap());
            assert!(matches!(
                service.handle(request.unwrap(), None),
                Err(ServiceError::Core(CoreError::NonFiniteCount {
                    cell: 3,
                    ..
                }))
            ));
        }
        assert_eq!(release(), before);
        assert!(!before.contains("null"), "{before}");
    }

    #[test]
    fn streams_are_tenant_scoped() {
        let service = service_with_toy_table();
        for tenant in ["alice", "bob"] {
            service
                .open_tenant(tenant, PrivacyLevel::Pure { epsilon: 1.0 })
                .unwrap();
        }
        let plan_id = service.register_compiled("alice", builder(0.25)).unwrap();
        service.register_compiled("bob", builder(0.25)).unwrap();
        let id = service.stream_open("alice", &plan_id, None).unwrap();

        // Bob shares the plan, but alice's stream id gets him nothing —
        // not an ingest, not a release.
        assert!(matches!(
            service.stream_ingest("bob", &id, 0, 1.0),
            Err(ServiceError::UnknownSession(_))
        ));
        assert!(matches!(
            service.release("bob", &stream(&id), &[1], None),
            Err(ServiceError::UnknownSession(_))
        ));
        // Bob's own open gets a distinct stream.
        let bobs = service.stream_open("bob", &plan_id, None).unwrap();
        assert_ne!(bobs, id);
        // A plan carol never registered cannot be streamed.
        service
            .open_tenant("carol", PrivacyLevel::Pure { epsilon: 1.0 })
            .unwrap();
        assert!(matches!(
            service.stream_open("carol", &plan_id, None),
            Err(ServiceError::UnknownPlan { .. })
        ));
    }

    #[test]
    fn continual_releases_charge_once_per_request_id() {
        let service = service_with_toy_table();
        service
            .open_tenant("t", PrivacyLevel::Pure { epsilon: 1.0 })
            .unwrap();
        let plan_id = service.register_compiled("t", builder(0.25)).unwrap();
        let id = service.stream_open("t", &plan_id, None).unwrap();
        let streamed = stream(&id);

        service.stream_ingest("t", &id, 1, 1.0).unwrap();
        let first = service
            .release("t", &streamed, &[7], Some("pub-1"))
            .unwrap();
        assert_eq!(service.budget_status("t").unwrap().spent_epsilon, 0.25);

        // The stream moves on, but a re-driven id must replay the bytes
        // from the admitted release — no re-noise, no second debit.
        service.stream_ingest("t", &id, 6, 3.0).unwrap();
        for _ in 0..3 {
            let replay = service
                .release("t", &streamed, &[7], Some("pub-1"))
                .unwrap();
            assert_eq!(render(&replay), render(&first));
        }
        assert_eq!(service.budget_status("t").unwrap().spent_epsilon, 0.25);
        assert_eq!(service.budget_status("t").unwrap().charges, 1);

        // A fresh id sees the post-ingest state and is a second charge.
        let second = service
            .release("t", &streamed, &[7], Some("pub-2"))
            .unwrap();
        assert_ne!(render(&second), render(&first));
        assert_eq!(service.budget_status("t").unwrap().charges, 2);

        // Reusing an id with different seeds is the typed client bug.
        assert!(matches!(
            service.release("t", &streamed, &[8], Some("pub-1")),
            Err(ServiceError::IdempotencyMismatch { .. })
        ));
    }

    #[test]
    fn tenant_inflight_cap_sheds_with_the_typed_overload() {
        let service = service_with_toy_table().with_tenant_inflight_cap(1);
        service
            .open_tenant("t", PrivacyLevel::Pure { epsilon: 1.0 })
            .unwrap();
        let held = service.acquire_inflight("t").unwrap();
        assert!(held.is_some());
        // The tenant is at its cap: the wire release sheds, charging
        // nothing...
        let err = service
            .handle(
                Request::Release {
                    tenant: "t".into(),
                    session: "s".into(),
                    seeds: vec![1],
                    request_id: None,
                },
                None,
            )
            .unwrap_err();
        assert!(matches!(&err, ServiceError::Overloaded { scope } if scope == "tenant"));
        assert!(err.is_retryable());
        assert_eq!(service.budget_status("t").unwrap().spent_epsilon, 0.0);
        // ...other tenants are unaffected...
        service
            .open_tenant("u", PrivacyLevel::Pure { epsilon: 1.0 })
            .unwrap();
        assert!(service.acquire_inflight("u").unwrap().is_some());
        // ...and dropping the slot un-sheds the tenant.
        drop(held);
        let plan_id = service.register_compiled("t", builder(0.25)).unwrap();
        let session = service.bind("t", &plan_id, "toy").unwrap();
        service
            .handle(
                Request::Release {
                    tenant: "t".into(),
                    session,
                    seeds: vec![1],
                    request_id: Some("r1".into()),
                },
                None,
            )
            .unwrap();
    }

    #[test]
    fn release_ops_resolve_only_their_own_kind_of_target() {
        let service = service_with_toy_table();
        service
            .open_tenant("t", PrivacyLevel::Pure { epsilon: 1.0 })
            .unwrap();
        let plan_id = service.register_compiled("t", builder(0.25)).unwrap();
        let session_id = service.bind("t", &plan_id, "toy").unwrap();
        let stream_id = service.stream_open("t", &plan_id, Some("toy")).unwrap();

        // `release` naming a stream id, and `release_current` naming a
        // session id, find nothing and charge nothing.
        for request_id in [None, Some("r1".to_string())] {
            let wrong_kind = [
                Request::Release {
                    tenant: "t".into(),
                    session: stream_id.clone(),
                    seeds: vec![1],
                    request_id: request_id.clone(),
                },
                Request::ReleaseCurrent {
                    tenant: "t".into(),
                    stream: session_id.clone(),
                    seeds: vec![1],
                    request_id: request_id.clone(),
                },
            ];
            for request in wrong_kind {
                assert!(matches!(
                    service.handle(request, None),
                    Err(ServiceError::UnknownSession(_))
                ));
            }
        }
        let status = service.budget_status("t").unwrap();
        assert_eq!(status.charges, 0);
        assert_eq!(status.spent_epsilon, 0.0);
    }

    #[test]
    fn coinciding_session_and_stream_ids_stay_separate_entries() {
        // A tenant named like a plan id, and a table name containing `/`,
        // make a session id and a stream id the same string:
        // `"<p>/<x>/y"` is plan p bound to table `"<x>/y"`, and also
        // tenant p's stream over plan x seeded from table `"y"`.
        let service = service_with_toy_table();
        service
            .open_tenant("setup", PrivacyLevel::Pure { epsilon: 1.0 })
            .unwrap();
        let p = service.register_compiled("setup", builder(0.25)).unwrap();
        let x = service.register_compiled("setup", builder(0.5)).unwrap();
        service
            .open_tenant(&p, PrivacyLevel::Pure { epsilon: 2.0 })
            .unwrap();
        service.register_compiled(&p, builder(0.25)).unwrap();
        service.register_compiled(&p, builder(0.5)).unwrap();
        let table = ContingencyTable::from_indices(3, &[0, 1, 2, 7, 7]);
        service.data().insert_table("y", table.clone());
        service.data().insert_table(&format!("{x}/y"), table);

        let session_id = service.bind(&p, &p, &format!("{x}/y")).unwrap();
        let stream_id = service.stream_open(&p, &x, Some("y")).unwrap();
        assert_eq!(session_id, stream_id);

        // Each kind resolves to its own entry: the binding releases plan
        // p (ε = 0.25), the stream plan x (ε = 0.5), and the stream's
        // ingests never reach the binding.
        let id = session_id;
        let before = service.release(&p, &session(&id), &[3], None).unwrap();
        assert_eq!(service.budget_status(&p).unwrap().spent_epsilon, 0.25);
        service.release(&p, &stream(&id), &[3], None).unwrap();
        assert_eq!(service.budget_status(&p).unwrap().spent_epsilon, 0.75);
        service.stream_ingest(&p, &id, 5, 4.0).unwrap();
        let after = service.release(&p, &session(&id), &[3], None).unwrap();
        assert_eq!(render(&before), render(&after));
    }
}
