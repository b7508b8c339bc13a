//! Loaded datasets, and the one pool of sessions releases draw from.
//!
//! A [`DataStore`] holds the named tables/histograms the operator loaded
//! into the server. The [`Pool`] holds one [`Entry`] per [`Target`]: a
//! [`Session`] behind a read-write lock, and the owner who may use it.
//!
//! * A **binding** (`bind`) is a registered plan bound to one dataset,
//!   with the observations `z = S·x` computed exactly once. It is stored
//!   read-only ([`Session::into_read_only`]): it keeps no count vector and
//!   no tenant state (the observations depend only on plan and data; all
//!   per-tenant state lives in the accountant/registry), so every tenant
//!   that registered the plan shares it. Session ids are deterministic
//!   (`"<plan_id>/<table>"`), so binding is idempotent and the pool never
//!   grows with repeated binds.
//! * A **stream** (`stream_open`) is a tenant's editable session a
//!   publisher pushes deltas into. Streams **must not** be shared across
//!   tenants (one tenant's ingests would silently change what another
//!   tenant releases), so stream ids embed the tenant
//!   (`"<tenant>/<plan_id>/<table>"`) and opening is idempotent *per
//!   tenant*: reopening returns the live stream without resetting its
//!   state, which is what lets a crashed publisher reconnect and resume.
//!
//! A release holds its entry's read lock ([`Entry::read`]) from the charge
//! to the draw, and an ingest takes the write lock ([`Entry::write`]), so
//! a stream release sees one consistent snapshot while ingests race, and
//! releases from a shared binding never wait on each other.
//!
//! Entries are keyed by kind *and* id, so a session id never resolves to a
//! stream even when the two strings coincide (a tenant named like a plan
//! id, a table name containing `/`). [`Pool::get`] authorizes as it looks
//! up.

use std::collections::hash_map::Entry as Slot;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::error::ServiceError;
use crate::registry::Registry;
use dp_core::{ContingencyTable, Plan, Session};

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

/// Who may use a pool entry.
enum Owner {
    /// A shared binding: every tenant that registered this plan id.
    Plan(String),
    /// A stream: this tenant only.
    Tenant(String),
}

/// One pool entry: a [`Session`] and who may use it.
pub struct Entry {
    owner: Owner,
    session: RwLock<Session>,
}

impl Entry {
    /// The session, held for one release. A stream's ingests wait until
    /// the guard drops, so the release sees one consistent snapshot.
    pub fn read(&self) -> RwLockReadGuard<'_, Session> {
        self.session.read().expect("session lock poisoned")
    }

    /// The session, held for one edit.
    pub fn write(&self) -> RwLockWriteGuard<'_, Session> {
        self.session.write().expect("session lock poisoned")
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
            let session = open_session(plan, Some(dataset))?.into_read_only();
            Ok((Owner::Plan(plan_id.into()), session))
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
            Ok((Owner::Tenant(tenant.into()), open_session(plan, dataset)?))
        })?;
        Ok(id)
    }

    /// Inserts the entry `build` makes under `target`, unless one is there.
    fn insert_once(
        &self,
        target: Target,
        build: impl FnOnce() -> Result<(Owner, Session), ServiceError>,
    ) -> Result<(), ServiceError> {
        let mut entries = self.entries.lock().expect("pool mutex poisoned");
        if let Slot::Vacant(slot) = entries.entry(target) {
            let (owner, session) = build()?;
            slot.insert(Arc::new(Entry {
                owner,
                session: RwLock::new(session),
            }));
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
        match &entry.owner {
            Owner::Plan(plan_id) => {
                registry.lookup(tenant, plan_id)?;
            }
            Owner::Tenant(owner) if owner != tenant => return Err(unknown()),
            Owner::Tenant(_) => {}
        }
        Ok(entry)
    }
}

/// A session over `dataset` (empty for `None`), editable.
fn open_session(plan: Arc<Plan>, dataset: Option<&Dataset>) -> Result<Session, ServiceError> {
    Ok(match dataset {
        None => Session::empty(plan)?,
        Some(Dataset::Table(t)) => Session::bind(plan, t)?,
        Some(Dataset::Histogram(h)) => Session::bind_histogram(plan, h)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::{CoreError, PlanBuilder, Schema, StrategyKind, Workload};

    fn builder() -> PlanBuilder {
        let schema = Schema::binary(3).unwrap();
        let workload = Workload::all_k_way(&schema, 1).unwrap();
        PlanBuilder::marginals(workload, StrategyKind::Fourier)
    }

    fn entries(pool: &Pool) -> usize {
        pool.entries.lock().unwrap().len()
    }

    fn stream_counts(entry: &Entry) -> Vec<f64> {
        entry
            .read()
            .counts()
            .expect("a stream keeps its counts")
            .to_vec()
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
        let a = entry.read().release_batch(&[7]).unwrap();
        let b = entry.read().release_batch(&[7]).unwrap();
        assert_eq!(
            crate::protocol::render_line(&crate::protocol::session_release_to_value(&a[0])),
            crate::protocol::render_line(&crate::protocol::session_release_to_value(&b[0])),
            "releases are seed-deterministic"
        );
        // The shared binding is read-only: it keeps no count vector, and
        // no tenant can edit what the others release from it.
        assert_eq!(entry.read().counts(), None);
        assert!(matches!(
            entry.write().ingest(0),
            Err(CoreError::ReadOnlySession)
        ));
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
        entry.write().ingest(5).unwrap();
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
