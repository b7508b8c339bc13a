//! Loaded datasets, and the one pool of bound sessions and streams.
//!
//! A [`DataStore`] holds the named tables/histograms the operator loaded
//! into the server. The [`Pool`] holds everything a release draws from,
//! one [`Entry`] per [`Target`], and each entry records its owner:
//!
//! * A **binding** ([`Entry::Binding`]) is a registered plan bound to one
//!   dataset, with the observations `z = S·x` computed exactly once at bind
//!   time. It is read-only and carries no tenant state (the observations
//!   depend only on plan and data; all per-tenant state lives in the
//!   accountant/registry), so every tenant that registered the plan shares
//!   it. Session ids are deterministic (`"<plan_id>/<table>"`), so binding
//!   is idempotent and the pool never grows with repeated binds.
//! * A **stream** ([`Entry::Stream`]) is a tenant's mutable
//!   [`StreamingSession`] a publisher pushes deltas into. Streams **must
//!   not** be shared across tenants (one tenant's ingests would silently
//!   change what another tenant releases), so stream ids embed the tenant
//!   (`"<tenant>/<plan_id>/<table>"`) and opening is idempotent *per
//!   tenant*: reopening returns the live stream without resetting its
//!   state, which is what lets a crashed publisher reconnect and resume.
//!
//! Entries are keyed by kind *and* id, so a session id never resolves to a
//! stream even when the two strings coincide (a tenant named like a plan
//! id, a table name containing `/`). [`Pool::get`] authorizes as it looks
//! up.

use std::collections::hash_map::Entry as Slot;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::error::ServiceError;
use crate::registry::Registry;
use dp_core::api::{OwnedSession, SessionRelease, StreamingSession};
use dp_core::{ContingencyTable, CoreError, Plan};

/// One loadable dataset: a full contingency table or a raw histogram.
pub enum Dataset {
    /// A contingency table over binary attributes.
    Table(ContingencyTable),
    /// A raw histogram (cell counts in index order).
    Histogram(Vec<f64>),
}

/// Named datasets available for binding.
pub struct DataStore {
    data: Mutex<HashMap<String, Arc<Dataset>>>,
}

impl DataStore {
    /// An empty store.
    pub fn new() -> DataStore {
        DataStore {
            data: Mutex::new(HashMap::new()),
        }
    }

    /// Loads (or replaces) a contingency table under `name`.
    pub fn insert_table(&self, name: &str, table: ContingencyTable) {
        self.data
            .lock()
            .expect("data store mutex poisoned")
            .insert(name.into(), Arc::new(Dataset::Table(table)));
    }

    /// Loads (or replaces) a histogram under `name`.
    pub fn insert_histogram(&self, name: &str, histogram: Vec<f64>) {
        self.data
            .lock()
            .expect("data store mutex poisoned")
            .insert(name.into(), Arc::new(Dataset::Histogram(histogram)));
    }

    /// Fetches a dataset by name.
    pub fn get(&self, name: &str) -> Result<Arc<Dataset>, ServiceError> {
        self.data
            .lock()
            .expect("data store mutex poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownTable(name.into()))
    }

    /// The sorted names of all loaded datasets.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .data
            .lock()
            .expect("data store mutex poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }
}

impl Default for DataStore {
    fn default() -> DataStore {
        DataStore::new()
    }
}

/// What a release draws from: a bound session or a stream, by id.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Target {
    /// A session id returned by `bind`.
    Session(String),
    /// A stream id returned by `stream_open`.
    Stream(String),
}

impl Target {
    /// The id, without its kind.
    pub fn id(&self) -> &str {
        match self {
            Target::Session(id) | Target::Stream(id) => id,
        }
    }
}

/// One pool entry, recording who may use it.
pub enum Entry {
    /// A registered plan bound to a dataset: read-only, and shared by every
    /// tenant that registered the plan.
    Binding {
        /// The bound plan's id; a tenant must have registered it.
        plan_id: String,
        /// The bound observations.
        session: OwnedSession,
    },
    /// A tenant-owned mutable stream.
    Stream {
        /// The only tenant that may ingest into it or release from it.
        tenant: String,
        /// The stream, locked per ingest and per release.
        session: Mutex<StreamingSession>,
    },
}

/// An entry's session, held for one release. A stream stays locked while
/// held, so the release sees one consistent snapshot while ingests race.
pub enum Held<'a> {
    /// A shared binding.
    Binding(&'a OwnedSession),
    /// A locked stream.
    Stream(MutexGuard<'a, StreamingSession>),
}

impl Entry {
    /// Holds the entry's session for one release.
    pub fn hold(&self) -> Held<'_> {
        match self {
            Entry::Binding { session, .. } => Held::Binding(session),
            Entry::Stream { session, .. } => {
                Held::Stream(session.lock().expect("stream mutex poisoned"))
            }
        }
    }
}

impl Held<'_> {
    /// The plan the session releases.
    pub fn plan(&self) -> &Plan {
        match self {
            Held::Binding(session) => session.plan(),
            Held::Stream(session) => session.plan(),
        }
    }

    /// One release per seed (see [`OwnedSession::release_batch`]).
    pub fn release_batch(&self, seeds: &[u64]) -> Result<Vec<SessionRelease>, CoreError> {
        match self {
            Held::Binding(session) => session.release_batch(seeds),
            Held::Stream(session) => session.release_batch(seeds),
        }
    }
}

/// Bound sessions and streams, keyed by [`Target`] (see the module docs).
#[derive(Default)]
pub struct Pool {
    entries: Mutex<HashMap<Target, Arc<Entry>>>,
}

impl Pool {
    /// Binds `plan` to `dataset`, returning the deterministic session id
    /// `"<plan_id>/<table>"`. Idempotent:
    /// re-binding the same (plan, table) pair reuses the stored binding
    /// and recomputes nothing.
    pub fn bind(
        &self,
        plan_id: &str,
        table: &str,
        plan: Arc<Plan>,
        dataset: &Dataset,
    ) -> Result<String, ServiceError> {
        let id = format!("{plan_id}/{table}");
        self.insert_once(Target::Session(id.clone()), || {
            let session = match dataset {
                Dataset::Table(t) => OwnedSession::bind(plan, t)?,
                Dataset::Histogram(h) => OwnedSession::bind_histogram(plan, h)?,
            };
            Ok(Entry::Binding {
                plan_id: plan_id.into(),
                session,
            })
        })?;
        Ok(id)
    }

    /// Opens (or re-opens) `tenant`'s stream, returning its deterministic
    /// id `"<tenant>/<plan_id>/<table>"` (empty table name for `None`).
    /// Idempotent and **non-destructive**: if the stream already exists,
    /// its accumulated state is kept untouched — a reconnecting publisher
    /// resumes where it left off. `dataset` seeds the initial counts;
    /// `None` starts empty.
    pub fn open_stream(
        &self,
        tenant: &str,
        plan_id: &str,
        table: Option<&str>,
        plan: Arc<Plan>,
        dataset: Option<&Dataset>,
    ) -> Result<String, ServiceError> {
        let id = format!("{tenant}/{plan_id}/{}", table.unwrap_or(""));
        self.insert_once(Target::Stream(id.clone()), || {
            let session = match dataset {
                None => StreamingSession::empty(plan)?,
                Some(Dataset::Table(t)) => StreamingSession::bind(plan, t)?,
                Some(Dataset::Histogram(h)) => StreamingSession::bind_histogram(plan, h)?,
            };
            Ok(Entry::Stream {
                tenant: tenant.into(),
                session: Mutex::new(session),
            })
        })?;
        Ok(id)
    }

    /// Inserts the entry `build` makes under `target`, unless one is there.
    fn insert_once(
        &self,
        target: Target,
        build: impl FnOnce() -> Result<Entry, ServiceError>,
    ) -> Result<(), ServiceError> {
        let mut entries = self.entries.lock().expect("pool mutex poisoned");
        if let Slot::Vacant(slot) = entries.entry(target) {
            slot.insert(Arc::new(build()?));
        }
        Ok(())
    }

    /// Looks up `target` for `tenant`, checking its owner: a binding needs
    /// the tenant's own registration of the bound plan (the shared session
    /// id alone grants nothing), and a stream must be the tenant's own —
    /// another tenant's stream is as good as unknown, which keeps one
    /// tenant's deltas out of another tenant's releases.
    pub fn get(
        &self,
        tenant: &str,
        target: &Target,
        registry: &Registry,
    ) -> Result<Arc<Entry>, ServiceError> {
        let unknown = || ServiceError::UnknownSession(target.id().into());
        let entry = self
            .entries
            .lock()
            .expect("pool mutex poisoned")
            .get(target)
            .cloned()
            .ok_or_else(unknown)?;
        match &*entry {
            Entry::Binding { plan_id, .. } => {
                registry.lookup(tenant, plan_id)?;
            }
            Entry::Stream { tenant: owner, .. } if owner != tenant => return Err(unknown()),
            Entry::Stream { .. } => {}
        }
        Ok(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::{PlanBuilder, Schema, StrategyKind, Workload};

    fn builder() -> PlanBuilder {
        let schema = Schema::binary(3).unwrap();
        let workload = Workload::all_k_way(&schema, 1).unwrap();
        PlanBuilder::marginals(workload, StrategyKind::Fourier)
    }

    fn entries(pool: &Pool) -> usize {
        pool.entries.lock().unwrap().len()
    }

    fn stream_counts(entry: &Entry) -> Vec<f64> {
        let Held::Stream(session) = entry.hold() else {
            panic!("not a stream");
        };
        session.counts().to_vec()
    }

    #[test]
    fn binding_is_idempotent_shared_and_typed_on_misses() {
        let registry = Registry::new();
        let pid = registry.register_compiled("t", builder()).unwrap();
        registry.register_compiled("u", builder()).unwrap();
        let plan = registry.lookup("t", &pid).unwrap();

        let store = DataStore::new();
        store.insert_table("toy", ContingencyTable::from_indices(3, &[0, 1, 7, 7]));
        assert!(matches!(
            store.get("missing"),
            Err(ServiceError::UnknownTable(_))
        ));

        let pool = Pool::default();
        let dataset = store.get("toy").unwrap();
        let id = pool.bind(&pid, "toy", Arc::clone(&plan), &dataset).unwrap();
        assert_eq!(id, format!("{pid}/toy"));
        let again = pool.bind(&pid, "toy", plan, &dataset).unwrap();
        assert_eq!(id, again);
        assert_eq!(entries(&pool), 1);

        // Both registered tenants resolve the one shared binding.
        let target = Target::Session(id);
        let entry = pool.get("t", &target, &registry).unwrap();
        assert!(Arc::ptr_eq(
            &entry,
            &pool.get("u", &target, &registry).unwrap()
        ));
        let a = entry.hold().release_batch(&[7]).unwrap();
        let b = entry.hold().release_batch(&[7]).unwrap();
        assert_eq!(
            crate::protocol::render_line(&crate::protocol::session_release_to_value(&a[0])),
            crate::protocol::render_line(&crate::protocol::session_release_to_value(&b[0])),
            "releases are seed-deterministic"
        );
        // A tenant that never registered the plan gets nothing.
        assert!(matches!(
            pool.get("v", &target, &registry),
            Err(ServiceError::UnknownPlan { .. })
        ));
        assert!(matches!(
            pool.get("t", &Target::Session("nope".into()), &registry),
            Err(ServiceError::UnknownSession(_))
        ));
    }

    #[test]
    fn stream_open_is_idempotent_and_keeps_state() {
        let plan = Arc::new(builder().compile().unwrap());
        let registry = Registry::new();
        let pool = Pool::default();
        let id = pool
            .open_stream("acme", "abc", None, Arc::clone(&plan), None)
            .unwrap();
        assert_eq!(id, "acme/abc/");
        let target = Target::Stream(id.clone());

        // Push state in, then re-open: the ingests must survive.
        let entry = pool.get("acme", &target, &registry).unwrap();
        let Held::Stream(mut session) = entry.hold() else {
            panic!("not a stream");
        };
        session.ingest(5).unwrap();
        drop(session);
        let again = pool
            .open_stream("acme", "abc", None, Arc::clone(&plan), None)
            .unwrap();
        assert_eq!(id, again);
        assert_eq!(entries(&pool), 1);
        assert_eq!(
            stream_counts(&pool.get("acme", &target, &registry).unwrap())[5],
            1.0
        );

        // Seeding from a dataset and tenant isolation.
        let table = ContingencyTable::from_indices(3, &[2, 2, 6]);
        let seeded = pool
            .open_stream(
                "beta",
                "abc",
                Some("toy"),
                plan,
                Some(&Dataset::Table(table)),
            )
            .unwrap();
        assert_eq!(seeded, "beta/abc/toy");
        assert_eq!(entries(&pool), 2);
        let seeded = Target::Stream(seeded);
        assert_eq!(
            stream_counts(&pool.get("beta", &seeded, &registry).unwrap())[2],
            2.0
        );
        assert!(matches!(
            pool.get("acme", &seeded, &registry),
            Err(ServiceError::UnknownSession(_))
        ));
        assert!(matches!(
            pool.get("ghost", &Target::Stream("ghost/abc/".into()), &registry),
            Err(ServiceError::UnknownSession(_))
        ));
    }
}
