//! Data insertion and deletion (paper §IV-C).
//!
//! Both operations locate the owning node with the exact-match routing walk
//! and then act locally, so their cost is `O(log N)` messages.  Insertion of
//! a key outside the current domain is handled by the leftmost / rightmost
//! node expanding its range, which costs an extra `O(log N)` messages to
//! refresh the links that record that node's range.  Insertions may trigger
//! load balancing (§IV-D), reported separately.

use baton_net::PeerId;

use crate::error::{BatonError, Result};
use crate::range::Key;
use crate::reports::{DeleteReport, InsertReport};
use crate::store::Value;
use crate::system::{BatonSystem, LinkUpdate};

impl BatonSystem {
    /// Inserts `value` under `key`, issuing the request at a uniformly
    /// random node.
    pub fn insert(&mut self, key: Key, value: Value) -> Result<InsertReport> {
        let issuer = self.random_peer().ok_or(BatonError::EmptyNetwork)?;
        self.insert_from(issuer, key, value)
    }

    /// Inserts `value` under `key`, issuing the request at `issuer`.
    ///
    /// Keys outside the current domain are accepted: the leftmost (or
    /// rightmost) node expands its range to cover them, and the overlay's
    /// domain grows accordingly (paper §IV-C).  The one exception is
    /// `Key::MAX`, which no exclusive upper bound can cover: it is refused
    /// with [`BatonError::KeyOutOfDomain`] before any message is sent.
    pub fn insert_from(&mut self, issuer: PeerId, key: Key, value: Value) -> Result<InsertReport> {
        self.check_alive(issuer)?;
        if key == Key::MAX {
            return Err(BatonError::KeyOutOfDomain(key));
        }
        self.in_op("insert", |system, op| {
            let walk = system.locate_owner(op, issuer, key, "insert")?;
            let mut expansion_messages = 0u64;
            // `walk.data` is the node whose slice takes the key: the owner
            // itself, or — at k > 1 while the owner is dead — the dead node
            // whose retained slice a replica holder serves.  Range-checking
            // the *data* node is what keeps a failover write from being
            // mistaken for an out-of-domain expansion.
            let target_range = system.range_ref(walk.data)?;
            if !target_range.contains(key) {
                // Leftmost / rightmost expansion.
                let expanded = if key < target_range.low() {
                    target_range.extend_low(key)
                } else {
                    target_range.extend_high(key + 1)
                };
                system.set_range(walk.data, expanded)?;
                if key < system.domain.low() {
                    system.domain = system.domain.extend_low(key);
                } else if key >= system.domain.high() {
                    system.domain = system.domain.extend_high(key + 1);
                }
                expansion_messages =
                    system.broadcast_link_update(op, walk.data, LinkUpdate::Range)?;
            }
            system.node_mut(walk.data)?.store.insert(key, value);
            let replication_messages = system.charge_replica_copies(op, walk.owner, walk.data);
            let balance = if walk.data == walk.owner {
                system.maybe_balance_after_insert(op, walk.data)?
            } else {
                // Failover write into a dead node's slice: balancing waits
                // for the repair.
                None
            };
            Ok(InsertReport {
                key,
                owner: walk.data,
                messages: walk.messages + replication_messages,
                expansion_messages,
                balance,
            })
        })
    }

    /// Deletes one value stored under `key`, issuing the request at a
    /// uniformly random node.
    pub fn delete(&mut self, key: Key) -> Result<DeleteReport> {
        let issuer = self.random_peer().ok_or(BatonError::EmptyNetwork)?;
        self.delete_from(issuer, key)
    }

    /// Deletes one value stored under `key`, issuing the request at
    /// `issuer`.  Returns `removed == false` if no value was stored.
    pub fn delete_from(&mut self, issuer: PeerId, key: Key) -> Result<DeleteReport> {
        self.check_alive(issuer)?;
        self.check_key(key)?;
        self.in_op("delete", |system, op| {
            let walk = system.locate_owner(op, issuer, key, "delete")?;
            let removed = system.node_mut(walk.data)?.store.remove_one(key).is_some();
            let replication_messages = if removed {
                system.charge_replica_copies(op, walk.owner, walk.data)
            } else {
                0
            };
            Ok(DeleteReport {
                key,
                owner: walk.data,
                removed,
                messages: walk.messages + replication_messages,
                balance: None,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use baton_net::Overlay;

    use super::*;
    use crate::config::{BatonConfig, LoadBalanceConfig};
    use crate::range::KeyRange;
    use crate::validate::validate;

    fn build(n: usize, seed: u64) -> BatonSystem {
        BatonSystem::build(BatonConfig::default(), seed, n).expect("build network")
    }

    #[test]
    fn insert_places_key_at_owner() {
        let mut system = build(50, 1);
        let report = system.insert(123_456_789, 7).unwrap();
        let owner = system.node(report.owner).unwrap();
        assert!(system.range_of(report.owner).unwrap().contains(123_456_789));
        assert_eq!(owner.store.get(123_456_789), &[7]);
        assert_eq!(report.expansion_messages, 0);
        validate(&system).unwrap();
    }

    #[test]
    fn insert_and_delete_roundtrip() {
        let mut system = build(30, 2);
        system.insert(42_000_000, 1).unwrap();
        let found = system.search_exact(42_000_000).unwrap();
        assert_eq!(found.matches, vec![1]);
        let deleted = system.delete(42_000_000).unwrap();
        assert!(deleted.removed);
        let gone = system.search_exact(42_000_000).unwrap();
        assert!(gone.matches.is_empty());
        let missing = system.delete(42_000_000).unwrap();
        assert!(!missing.removed);
    }

    #[test]
    fn insert_cost_is_logarithmic() {
        let mut system = build(400, 3);
        let log_n = (system.node_count() as f64).log2();
        let mut total = 0u64;
        for i in 0..100u64 {
            let key = 1 + (i * 9_876_543) % 999_999_998;
            let report = system.insert(key, i).unwrap();
            total += report.messages;
        }
        let avg = total as f64 / 100.0;
        assert!(
            avg <= 1.6 * log_n + 2.0,
            "average insert cost {avg} too high"
        );
    }

    #[test]
    fn out_of_domain_insert_expands_leftmost_node() {
        let config = BatonConfig::default()
            .with_domain(KeyRange::new(1000, 2000))
            .with_load_balance(LoadBalanceConfig::disabled());
        let mut system = BatonSystem::build(config, 4, 20).unwrap();
        let before = system.domain();
        assert_eq!(before, KeyRange::new(1000, 2000));
        let report = system.insert(5, 99).unwrap();
        assert!(report.expansion_messages > 0);
        assert_eq!(system.domain().low(), 5);
        let owner = system.node(report.owner).unwrap();
        assert!(system.range_of(report.owner).unwrap().contains(5));
        assert_eq!(owner.store.get(5), &[99]);
        validate(&system).unwrap();
        // And the value is findable afterwards.
        let found = system.search_exact(5).unwrap();
        assert_eq!(found.matches, vec![99]);
    }

    #[test]
    fn out_of_domain_insert_expands_rightmost_node() {
        let config = BatonConfig::default()
            .with_domain(KeyRange::new(1000, 2000))
            .with_load_balance(LoadBalanceConfig::disabled());
        let mut system = BatonSystem::build(config, 4, 20).unwrap();
        let report = system.insert(5000, 1).unwrap();
        assert!(report.expansion_messages > 0);
        assert_eq!(system.domain().high(), 5001);
        validate(&system).unwrap();
        assert_eq!(system.search_exact(5000).unwrap().matches, vec![1]);
    }

    #[test]
    fn insert_of_the_largest_key_is_refused_before_the_walk() {
        // An exclusive upper bound cannot cover `Key::MAX`; the key one
        // below it still expands the rightmost node up to that bound.
        let config = BatonConfig::default().with_load_balance(LoadBalanceConfig::disabled());
        let mut system = BatonSystem::build(config, 6, 20).unwrap();
        let sent = system.net.stats().total_sent();
        assert_eq!(
            system.insert(Key::MAX, 1).unwrap_err(),
            BatonError::KeyOutOfDomain(Key::MAX)
        );
        assert_eq!(system.net.stats().total_sent(), sent);
        system.net.stats_mut().retire_finished();
        assert_eq!(system.net.stats().live_op_count(), 0);
        let report = system.insert(Key::MAX - 1, 2).unwrap();
        assert!(report.expansion_messages > 0);
        assert_eq!(system.domain().high(), Key::MAX);
        assert_eq!(system.search_exact(Key::MAX - 1).unwrap().matches, vec![2]);
        validate(&system).unwrap();
    }

    #[test]
    fn delete_out_of_domain_key_is_rejected() {
        let mut system = build(10, 5);
        assert_eq!(system.delete(0).unwrap_err(), BatonError::KeyOutOfDomain(0));
    }

    #[test]
    fn data_stays_with_owner_across_further_joins() {
        let mut system = build(10, 7);
        for i in 0..100u64 {
            system.insert(1 + i * 9_999_999, i).unwrap();
        }
        for _ in 0..40 {
            system.join_random().unwrap();
        }
        validate(&system).unwrap();
        assert_eq!(system.total_items(), 100);
        for i in 0..100u64 {
            let found = system.search_exact(1 + i * 9_999_999).unwrap();
            assert_eq!(found.matches, vec![i], "key {i} lost after joins");
        }
    }

    #[test]
    fn unavailable_insert_and_delete_still_finish_their_ops() {
        // An unreplicated overlay with a block of adjacent peers dark (a
        // regional failure awaiting repair): writes aimed at the dark slice
        // fail, and each failed write must still finish its op — one
        // unfinished op at the front of the live window would block
        // `retire_finished` for the rest of the run.
        let mut system = build(64, 23);
        let mut by_range = system.peers().to_vec();
        by_range.sort_by_key(|p| system.range_of(*p).unwrap().low());
        let dark = &by_range[20..28];
        for peer in dark {
            system.fail_silently(*peer).unwrap();
        }
        let issuer = by_range[0];
        for peer in dark {
            let key = system.range_of(*peer).unwrap().low();
            assert!(system.insert_from(issuer, key, 1).is_err());
            assert!(system.delete_from(issuer, key).is_err());
        }
        system.net.stats_mut().retire_finished();
        assert_eq!(
            system.net.stats().live_op_count(),
            0,
            "unavailable writes left unfinished ops behind"
        );
    }

    /// Asserts that `result` is the k = 1 owner-bounce exit naming `dead`,
    /// that it left no op open and that the stores still hold `items`.
    fn assert_stopped_at<T: std::fmt::Debug>(
        system: &mut BatonSystem,
        result: Result<T>,
        dead: PeerId,
        items: usize,
    ) {
        assert_eq!(result.unwrap_err(), BatonError::PeerNotAlive(dead));
        system.net.stats_mut().retire_finished();
        assert_eq!(system.net.stats().live_op_count(), 0);
        assert_eq!(system.total_items(), items);
    }

    #[test]
    fn k1_writes_to_a_dead_owner_end_at_the_first_bounce() {
        let mut system = build(200, 31);
        let mut by_range = system.peers().to_vec();
        by_range.sort_by_key(|p| system.range_of(*p).unwrap().low());
        let (issuer, owner) = (by_range[10], by_range[150]);
        let key = system.range_of(owner).unwrap().low() + 1;
        system.insert_from(issuer, key, 1).unwrap();
        let items = system.total_items();
        system.fail_silently(owner).unwrap();

        let insert = system.insert_from(issuer, key, 2);
        assert_stopped_at(&mut system, insert, owner, items);
        let delete = system.delete_from(issuer, key);
        assert_stopped_at(&mut system, delete, owner, items);
        // One bounce each: the walks stopped at the owner.
        assert_eq!(system.net.stats().total_failed(), 2);
    }

    #[test]
    fn k1_out_of_domain_insert_ends_at_a_dead_boundary_node() {
        let config = BatonConfig::default()
            .with_domain(KeyRange::new(1000, 2000))
            .with_load_balance(LoadBalanceConfig::disabled());
        let mut system = BatonSystem::build(config, 4, 20).unwrap();
        let mut by_range = system.peers().to_vec();
        by_range.sort_by_key(|p| system.range_of(*p).unwrap().low());
        let (leftmost, issuer) = (by_range[0], by_range[15]);
        let items = system.total_items();
        system.fail_silently(leftmost).unwrap();

        let insert = system.insert_from(issuer, 5, 99);
        assert_stopped_at(&mut system, insert, leftmost, items);
        assert_eq!(system.domain(), KeyRange::new(1000, 2000));
        assert_eq!(system.net.stats().total_failed(), 1);
    }
}
