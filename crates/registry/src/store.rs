//! The in-memory UDDI registry store with prefix and operation indexes.
//!
//! Businesses, services and the indexes are one table under one lock.
//! Every request a [`crate::RegistryServer`] serves runs on its one node
//! turn, so the lock is taken by one caller at a time in the served path;
//! only direct set-up calls (a `ServiceManager` publishing its members)
//! meet it from other threads. A find read-locks the table once, resolves
//! its index intersection and sorts its hits by key.

use crate::model::{
    BusinessEntity, BusinessKey, FindQuery, RegistryError, ServiceKey, ServiceRecord,
    ServiceSummary,
};
use parking_lot::RwLock;
use selfserv_wsdl::ServiceDescription;
use selfserv_xml::Element;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Bound;
use std::time::{Duration, Instant};

#[derive(Default)]
struct Indexes {
    /// lowercase service name → keys (BTreeMap for prefix range scans).
    by_name: BTreeMap<String, HashSet<ServiceKey>>,
    /// lowercase provider name → keys.
    by_provider: BTreeMap<String, HashSet<ServiceKey>>,
    /// lowercase operation name → keys.
    by_operation: BTreeMap<String, HashSet<ServiceKey>>,
    /// exact category → keys.
    by_category: HashMap<String, HashSet<ServiceKey>>,
}

impl Indexes {
    fn insert(&mut self, rec: &ServiceRecord) {
        self.by_name
            .entry(rec.description.name.to_lowercase())
            .or_default()
            .insert(rec.key.clone());
        self.by_provider
            .entry(rec.provider_name.to_lowercase())
            .or_default()
            .insert(rec.key.clone());
        for op in &rec.description.operations {
            self.by_operation
                .entry(op.name.to_lowercase())
                .or_default()
                .insert(rec.key.clone());
        }
        self.by_category
            .entry(rec.category.clone())
            .or_default()
            .insert(rec.key.clone());
    }

    fn remove(&mut self, rec: &ServiceRecord) {
        fn drop_key<K: Ord>(map: &mut BTreeMap<K, HashSet<ServiceKey>>, k: K, key: &ServiceKey) {
            if let Some(set) = map.get_mut(&k) {
                set.remove(key);
                if set.is_empty() {
                    map.remove(&k);
                }
            }
        }
        drop_key(
            &mut self.by_name,
            rec.description.name.to_lowercase(),
            &rec.key,
        );
        drop_key(
            &mut self.by_provider,
            rec.provider_name.to_lowercase(),
            &rec.key,
        );
        for op in &rec.description.operations {
            drop_key(&mut self.by_operation, op.name.to_lowercase(), &rec.key);
        }
        if let Some(set) = self.by_category.get_mut(&rec.category) {
            set.remove(&rec.key);
            if set.is_empty() {
                self.by_category.remove(&rec.category);
            }
        }
    }

    /// The key sets of every indexed string starting with `prefix`
    /// (already lowercased); a key matches when any of them holds it.
    fn prefix_scan<'a>(
        map: &'a BTreeMap<String, HashSet<ServiceKey>>,
        prefix: &str,
    ) -> Vec<&'a HashSet<ServiceKey>> {
        map.range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|(name, _)| name.starts_with(prefix))
            .map(|(_, keys)| keys)
            .collect()
    }
}

/// A record as the table holds it: with its [`ServiceSummary`], built once
/// at publication so that a find reply and the client's hit are that tree
/// instead of copies of it. The tree encodes nothing that changes while
/// the record is stored (`renew` moves only `published_at`), and the two
/// leave the table together, so it cannot go stale.
struct Stored {
    record: ServiceRecord,
    summary: ServiceSummary,
}

/// The registry's state: businesses, service records and their indexes,
/// plus the counters the keys are numbered from.
#[derive(Default)]
struct Table {
    businesses: HashMap<BusinessKey, BusinessEntity>,
    /// Boxed, so that growing the table moves pointers, not ~280-byte
    /// records. Inline, 2 000 records under publish/delete churn make a
    /// table of megabytes; freeing its predecessor raises glibc's mmap
    /// threshold, and the heap fragments under later buffers (peak RSS
    /// +4 MiB on a 22 s compose-and-deploy run against 2 000 services).
    services: HashMap<ServiceKey, Box<Stored>>,
    indexes: Indexes,
    next_business: u64,
    next_service: u64,
}

impl Table {
    /// The keys matching `query` (every criterion intersected), or `None`
    /// when the query carries no criteria at all. The index sets are only
    /// borrowed: the criterion with the fewest keys is walked and the
    /// others probed, so no key is copied.
    fn candidates(&self, query: &FindQuery) -> Option<Vec<&ServiceKey>> {
        // Per criterion, the index sets whose union matches it.
        let mut criteria: Vec<Vec<&HashSet<ServiceKey>>> = Vec::new();
        if let Some(p) = &query.provider {
            criteria.push(Indexes::prefix_scan(
                &self.indexes.by_provider,
                &p.to_lowercase(),
            ));
        }
        if let Some(n) = &query.service_name {
            criteria.push(Indexes::prefix_scan(
                &self.indexes.by_name,
                &n.to_lowercase(),
            ));
        }
        if let Some(o) = &query.operation {
            criteria.push(Indexes::prefix_scan(
                &self.indexes.by_operation,
                &o.to_lowercase(),
            ));
        }
        if let Some(c) = &query.category {
            criteria.push(self.indexes.by_category.get(c).into_iter().collect());
        }
        let (smallest, _) = criteria
            .iter()
            .enumerate()
            .min_by_key(|(_, sets)| sets.iter().map(|s| s.len()).sum::<usize>())?;
        let walked = criteria.swap_remove(smallest);
        // Sized for every walked key, so that it is one allocation however
        // many match.
        let mut keys = Vec::with_capacity(walked.iter().map(|s| s.len()).sum());
        keys.extend(walked.iter().flat_map(|set| set.iter()).filter(|key| {
            criteria
                .iter()
                .all(|sets| sets.iter().any(|s| s.contains(*key)))
        }));
        if walked.len() > 1 {
            // A record indexed under two matching strings (two operations
            // sharing the prefix) was walked twice.
            keys.sort_unstable();
            keys.dedup();
        }
        Some(keys)
    }

    /// Drops the entry under `key`, record, summary and index rows; false if
    /// there is none.
    fn remove(&mut self, key: &ServiceKey) -> bool {
        match self.services.remove(key) {
            Some(stored) => {
                self.indexes.remove(&stored.record);
                true
            }
            None => false,
        }
    }
}

/// The thread-safe UDDI registry. Cheap handle semantics are obtained by
/// wrapping it in `Arc` where shared.
#[derive(Default)]
pub struct UddiRegistry {
    table: RwLock<Table>,
}

impl UddiRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a provider; returns its key.
    pub fn save_business(
        &self,
        name: impl Into<String>,
        contact: impl Into<String>,
    ) -> BusinessEntity {
        let mut table = self.table.write();
        table.next_business += 1;
        let entity = BusinessEntity {
            key: BusinessKey(format!("biz-{}", table.next_business)),
            name: name.into(),
            contact: contact.into(),
        };
        table.businesses.insert(entity.key.clone(), entity.clone());
        entity
    }

    /// Looks up a business.
    pub fn business(&self, key: &BusinessKey) -> Option<BusinessEntity> {
        self.table.read().businesses.get(key).cloned()
    }

    /// All businesses whose name starts with `prefix` (case-insensitive).
    pub fn find_businesses(&self, prefix: &str) -> Vec<BusinessEntity> {
        let prefix = prefix.to_lowercase();
        let mut out: Vec<BusinessEntity> = self
            .table
            .read()
            .businesses
            .values()
            .filter(|b| b.name.to_lowercase().starts_with(&prefix))
            .cloned()
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Publishes a service description under a business, with an optional
    /// lease. Publishing a new description for a name the business already
    /// publishes is an error (use [`UddiRegistry::renew`] or delete first),
    /// unless that record's lease has run out: it is absent, swept or not,
    /// and is dropped here.
    pub fn save_service(
        &self,
        business: &BusinessKey,
        category: impl Into<String>,
        description: ServiceDescription,
        lease: Option<Duration>,
    ) -> Result<ServiceKey, RegistryError> {
        let mut guard = self.table.write();
        let table = &mut *guard;
        let provider_name = table
            .businesses
            .get(business)
            .ok_or_else(|| RegistryError::UnknownBusiness(business.clone()))?
            .name
            .clone();
        let now = Instant::now();
        // Same-name records are indexed under one lowercase name: only they
        // are looked at, not the table.
        let clash = table
            .indexes
            .by_name
            .get(&description.name.to_lowercase())
            .into_iter()
            .flatten()
            .filter_map(|key| table.services.get(key))
            .find(|s| {
                s.record.business == *business && s.record.description.name == description.name
            })
            .map(|s| (s.record.key.clone(), s.record.is_expired(now)));
        match clash {
            Some((_, false)) => {
                return Err(RegistryError::DuplicateService {
                    business: business.clone(),
                    name: description.name,
                })
            }
            Some((lapsed, true)) => {
                table.remove(&lapsed);
            }
            None => {}
        }
        table.next_service += 1;
        let key = ServiceKey(format!("svc-{}", table.next_service));
        let record = ServiceRecord {
            key: key.clone(),
            business: business.clone(),
            provider_name,
            category: category.into(),
            description,
            published_at: now,
            lease,
        };
        let summary = ServiceSummary::from(&record);
        table.indexes.insert(&record);
        table
            .services
            .insert(key.clone(), Box::new(Stored { record, summary }));
        Ok(key)
    }

    /// What `read` makes of the live entry under `key` (expired leases
    /// behave as absent).
    fn lookup<T>(
        &self,
        key: &ServiceKey,
        read: impl FnOnce(&Stored) -> T,
    ) -> Result<T, RegistryError> {
        let now = Instant::now();
        match self.table.read().services.get(key) {
            Some(s) if !s.record.is_expired(now) => Ok(read(s)),
            _ => Err(RegistryError::UnknownService(key.clone())),
        }
    }

    /// Retrieves a service record (expired leases behave as absent).
    pub fn get_service(&self, key: &ServiceKey) -> Result<ServiceRecord, RegistryError> {
        self.lookup(key, |s| s.record.clone())
    }

    /// [`UddiRegistry::get_service`]`.to_xml()`, built from the stored
    /// record without copying it.
    pub(crate) fn get_info(&self, key: &ServiceKey) -> Result<Element, RegistryError> {
        self.lookup(key, |s| s.record.to_xml())
    }

    /// Deletes a service.
    pub fn delete_service(&self, key: &ServiceKey) -> Result<(), RegistryError> {
        if self.table.write().remove(key) {
            Ok(())
        } else {
            Err(RegistryError::UnknownService(key.clone()))
        }
    }

    /// Renews a leased service's publication instant. A record whose
    /// lease has run out is absent, swept or not: it is dropped, not
    /// renewed.
    pub fn renew(&self, key: &ServiceKey) -> Result<(), RegistryError> {
        let now = Instant::now();
        let mut table = self.table.write();
        match table.services.get_mut(key) {
            Some(s) if !s.record.is_expired(now) => {
                s.record.published_at = now;
                Ok(())
            }
            Some(_) => {
                table.remove(key);
                Err(RegistryError::UnknownService(key.clone()))
            }
            None => Err(RegistryError::UnknownService(key.clone())),
        }
    }

    /// Removes expired records; returns how many were swept.
    pub fn sweep_expired(&self) -> usize {
        let now = Instant::now();
        let mut table = self.table.write();
        let expired: Vec<ServiceKey> = table
            .services
            .values()
            .filter(|s| s.record.is_expired(now))
            .map(|s| s.record.key.clone())
            .collect();
        for key in &expired {
            table.remove(key);
        }
        expired.len()
    }

    /// Finds services matching a query, sorted by key for determinism.
    /// Expired records never match.
    pub fn find(&self, query: &FindQuery) -> Vec<ServiceRecord> {
        self.collect_hits(query, |s| s.record.clone())
    }

    /// The summaries of [`UddiRegistry::find`]'s hits, as stored: the same
    /// hits in the same order for a reference count each — no record is
    /// cloned, no tree built, no key copied to sort by.
    pub(crate) fn find_info(&self, query: &FindQuery) -> Vec<ServiceSummary> {
        self.collect_hits(query, |s| s.summary.clone())
    }

    /// `read` of every live hit, in key order. The hits are sorted by the
    /// keys their records hold — each read once, in place — before `read`
    /// copies anything out. The number of allocations does not grow with
    /// the number of hits.
    fn collect_hits<T>(&self, query: &FindQuery, read: impl Fn(&Stored) -> T) -> Vec<T> {
        let now = Instant::now();
        let live = |s: &&Stored| !s.record.is_expired(now);
        fn keyed(s: &Stored) -> (&str, &Stored) {
            (s.record.key.0.as_str(), s)
        }
        let table = self.table.read();
        let mut hits: Vec<(&str, &Stored)> = match table.candidates(query) {
            Some(keys) => {
                let mut hits = Vec::with_capacity(keys.len());
                hits.extend(
                    keys.into_iter()
                        .filter_map(|k| table.services.get(k))
                        .map(|s| &**s)
                        .filter(live)
                        .map(keyed),
                );
                hits
            }
            // Empty query: everything (unexpired).
            None => table
                .services
                .values()
                .map(|s| &**s)
                .filter(live)
                .map(keyed)
                .collect(),
        };
        hits.sort_unstable_by_key(|&(key, _)| key);
        hits.into_iter().map(|(_, s)| read(s)).collect()
    }

    /// Number of live (unexpired) services.
    pub fn service_count(&self) -> usize {
        let now = Instant::now();
        self.table
            .read()
            .services
            .values()
            .filter(|s| !s.record.is_expired(now))
            .count()
    }

    /// Number of registered businesses.
    pub fn business_count(&self) -> usize {
        self.table.read().businesses.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfserv_wsdl::{Binding, OperationDef, ServiceDescription};

    fn desc(name: &str, provider: &str, ops: &[&str]) -> ServiceDescription {
        let mut d = ServiceDescription::new(name, provider).with_binding(Binding::fabric("n"));
        for op in ops {
            d.operations.push(OperationDef::new(*op));
        }
        d
    }

    fn seeded() -> (UddiRegistry, BusinessKey, BusinessKey) {
        let reg = UddiRegistry::new();
        let ausair = reg.save_business("AusAir", "ops@ausair.example").key;
        let wheels = reg.save_business("WheelsNow", "cars@wheels.example").key;
        reg.save_service(
            &ausair,
            "flight-booking",
            desc(
                "Domestic Flight Booking",
                "AusAir",
                &["bookFlight", "cancelFlight"],
            ),
            None,
        )
        .unwrap();
        reg.save_service(
            &ausair,
            "flight-booking",
            desc("International Flight Booking", "AusAir", &["bookFlight"]),
            None,
        )
        .unwrap();
        reg.save_service(
            &wheels,
            "car-rental",
            desc("Car Rental", "WheelsNow", &["rentCar"]),
            None,
        )
        .unwrap();
        (reg, ausair, wheels)
    }

    #[test]
    fn publish_and_count() {
        let (reg, _, _) = seeded();
        assert_eq!(reg.service_count(), 3);
        assert_eq!(reg.business_count(), 2);
    }

    #[test]
    fn find_by_provider_prefix_case_insensitive() {
        let (reg, _, _) = seeded();
        let hits = reg.find(&FindQuery::any().provider("ausa"));
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|r| r.provider_name == "AusAir"));
    }

    #[test]
    fn find_by_service_name_prefix() {
        let (reg, _, _) = seeded();
        let hits = reg.find(&FindQuery::any().service_name("domestic"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].description.name, "Domestic Flight Booking");
    }

    #[test]
    fn find_by_operation() {
        let (reg, _, _) = seeded();
        assert_eq!(reg.find(&FindQuery::any().operation("bookFlight")).len(), 2);
        assert_eq!(reg.find(&FindQuery::any().operation("rent")).len(), 1);
        assert_eq!(reg.find(&FindQuery::any().operation("teleport")).len(), 0);
        // "Domestic Flight Booking" is indexed under two operations that the
        // empty prefix matches; it is still one hit.
        assert_eq!(reg.find(&FindQuery::any().operation("")).len(), 3);
    }

    #[test]
    fn find_by_category_exact() {
        let (reg, _, _) = seeded();
        assert_eq!(
            reg.find(&FindQuery::any().category("flight-booking")).len(),
            2
        );
        assert_eq!(
            reg.find(&FindQuery::any().category("flight")).len(),
            0,
            "category is exact"
        );
    }

    #[test]
    fn criteria_are_anded() {
        let (reg, _, _) = seeded();
        let hits = reg.find(&FindQuery::any().provider("AusAir").operation("cancel"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].description.name, "Domestic Flight Booking");
        let none = reg.find(
            &FindQuery::any()
                .provider("WheelsNow")
                .operation("bookFlight"),
        );
        assert!(none.is_empty());
    }

    #[test]
    fn empty_query_returns_all_sorted() {
        let (reg, _, _) = seeded();
        let all = reg.find(&FindQuery::any());
        assert_eq!(all.len(), 3);
        let keys: Vec<&str> = all.iter().map(|r| r.key.0.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn duplicate_service_rejected() {
        let (reg, ausair, wheels) = seeded();
        let err = reg
            .save_service(
                &ausair,
                "flight-booking",
                desc("Domestic Flight Booking", "AusAir", &["bookFlight"]),
                None,
            )
            .unwrap_err();
        assert!(matches!(err, RegistryError::DuplicateService { .. }));
        // Another business may publish the name, and names are compared
        // exactly although they are indexed in lowercase.
        let again = desc("Domestic Flight Booking", "WheelsNow", &["bookFlight"]);
        reg.save_service(&wheels, "flight-booking", again, None)
            .unwrap();
        let lowercase = desc("domestic flight booking", "AusAir", &["bookFlight"]);
        reg.save_service(&ausair, "flight-booking", lowercase, None)
            .unwrap();
        assert_eq!(reg.service_count(), 5);
    }

    #[test]
    fn stored_tree_is_the_encoded_summary_without_spare_capacity() {
        let (reg, _, _) = seeded();
        let query = FindQuery::any().service_name("Car Rental");
        let record = &reg.find(&query)[0];
        let [summary] = &reg.find_info(&query)[..] else {
            panic!("one hit");
        };
        assert_eq!(*summary, ServiceSummary::from(record));
        let tree = &summary.0;
        assert_eq!(
            tree.to_xml(),
            concat!(
                "<serviceInfo key=\"svc-3\" business=\"biz-2\" name=\"Car Rental\" ",
                "provider=\"WheelsNow\"/>"
            )
        );
        assert_eq!(tree.attrs.capacity(), tree.attrs.len());
        assert_eq!(tree.children.capacity(), 0);
        for (name, value) in &tree.attrs {
            assert_eq!(name.capacity(), name.len());
            assert_eq!(value.capacity(), value.len());
        }
        assert_eq!(reg.get_info(&record.key).unwrap(), record.to_xml());
    }

    #[test]
    fn unknown_business_rejected() {
        let reg = UddiRegistry::new();
        let err = reg
            .save_service(&BusinessKey("nope".into()), "c", desc("S", "P", &[]), None)
            .unwrap_err();
        assert!(matches!(err, RegistryError::UnknownBusiness(_)));
    }

    #[test]
    fn delete_removes_from_indexes() {
        let (reg, _, _) = seeded();
        let key = reg.find(&FindQuery::any().service_name("Car Rental"))[0]
            .key
            .clone();
        reg.delete_service(&key).unwrap();
        assert!(reg.find(&FindQuery::any().operation("rentCar")).is_empty());
        assert!(reg.get_service(&key).is_err());
        assert!(reg.delete_service(&key).is_err());
    }

    #[test]
    fn leases_expire_and_sweep() {
        let reg = UddiRegistry::new();
        let biz = reg.save_business("Ephemeral", "x").key;
        let key = reg
            .save_service(
                &biz,
                "c",
                desc("Flaky", "Ephemeral", &["op"]),
                Some(Duration::ZERO),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(2));
        assert!(
            reg.get_service(&key).is_err(),
            "expired record behaves as absent"
        );
        assert!(reg.find(&FindQuery::any()).is_empty());
        assert_eq!(reg.service_count(), 0);
        assert_eq!(reg.sweep_expired(), 1);
    }

    #[test]
    fn renew_extends_lease() {
        let reg = UddiRegistry::new();
        let biz = reg.save_business("B", "x").key;
        let key = reg
            .save_service(
                &biz,
                "c",
                desc("S", "B", &["op"]),
                Some(Duration::from_millis(40)),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(25));
        reg.renew(&key).unwrap();
        std::thread::sleep(Duration::from_millis(25));
        assert!(reg.get_service(&key).is_ok(), "renewed lease is still live");
    }

    /// A record whose lease ran out, swept or not, is absent to every
    /// call: its name is free again under its business.
    #[test]
    fn lapsed_lease_frees_the_name() {
        let reg = UddiRegistry::new();
        let biz = reg.save_business("B", "x").key;
        let lease = Some(Duration::from_millis(5));
        let old = reg
            .save_service(&biz, "c", desc("S", "B", &["op"]), lease)
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            reg.get_service(&old).unwrap_err(),
            RegistryError::UnknownService(old.clone())
        );
        let new = reg
            .save_service(&biz, "c", desc("S", "B", &["op2"]), None)
            .unwrap();
        assert_ne!(new, old);
        let found: Vec<ServiceKey> = reg
            .find(&FindQuery::any().service_name("s"))
            .into_iter()
            .map(|r| r.key)
            .collect();
        assert_eq!(found, [new]);
        assert_eq!(reg.service_count(), 1);
        assert!(reg.get_service(&old).is_err());
        assert_eq!(
            reg.renew(&old).unwrap_err(),
            RegistryError::UnknownService(old)
        );
        assert_eq!(
            reg.sweep_expired(),
            0,
            "republishing dropped the lapsed record"
        );
    }

    /// Renewing a record whose lease ran out does not bring it back.
    #[test]
    fn lapsed_lease_cannot_be_renewed() {
        let reg = UddiRegistry::new();
        let biz = reg.save_business("B", "x").key;
        let key = reg
            .save_service(
                &biz,
                "c",
                desc("S", "B", &["op"]),
                Some(Duration::from_millis(5)),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            reg.renew(&key).unwrap_err(),
            RegistryError::UnknownService(key.clone())
        );
        assert!(reg.get_service(&key).is_err());
        assert!(reg.find(&FindQuery::any()).is_empty());
        assert_eq!(reg.service_count(), 0);
    }

    #[test]
    fn find_businesses_prefix() {
        let (reg, _, _) = seeded();
        assert_eq!(reg.find_businesses("aus").len(), 1);
        assert_eq!(reg.find_businesses("").len(), 2);
    }

    #[test]
    fn business_lookup() {
        let (reg, ausair, _) = seeded();
        assert_eq!(reg.business(&ausair).unwrap().name, "AusAir");
        assert!(reg.business(&BusinessKey("nope".into())).is_none());
    }

    #[test]
    fn many_records_count_sort_look_up_and_delete() {
        let reg = UddiRegistry::new();
        let biz = reg.save_business("Spread", "x").key;
        let keys: Vec<ServiceKey> = (0..32)
            .map(|i| {
                reg.save_service(
                    &biz,
                    "c",
                    desc(&format!("Svc-{i}"), "Spread", &["op"]),
                    None,
                )
                .unwrap()
            })
            .collect();
        assert_eq!(reg.service_count(), 32);
        let all = reg.find(&FindQuery::any());
        assert_eq!(all.len(), 32);
        let found: Vec<&str> = all.iter().map(|r| r.key.0.as_str()).collect();
        let mut sorted = found.clone();
        sorted.sort();
        assert_eq!(found, sorted, "results are sorted by key");
        for key in &keys {
            assert!(reg.get_service(key).is_ok());
        }
        reg.delete_service(&keys[0]).unwrap();
        assert_eq!(reg.service_count(), 31);
    }

    #[test]
    fn concurrent_publish_and_find() {
        let reg = std::sync::Arc::new(UddiRegistry::new());
        let biz = reg.save_business("Conc", "x").key;
        let mut handles = Vec::new();
        for t in 0..8 {
            let reg = std::sync::Arc::clone(&reg);
            let biz = biz.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    reg.save_service(
                        &biz,
                        "bulk",
                        desc(&format!("Svc-{t}-{i}"), "Conc", &["op"]),
                        None,
                    )
                    .unwrap();
                    // Summaries found while other threads publish are whole.
                    for summary in reg.find_info(&FindQuery::any().operation("op")) {
                        let found = ServiceSummary::from_xml(summary.0).unwrap();
                        assert_eq!(found.provider_name(), "Conc");
                        assert!(found.name().starts_with("Svc-"), "{found:?}");
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.service_count(), 200);
        assert_eq!(reg.find(&FindQuery::any().operation("op")).len(), 200);
    }
}
