//! System configuration.

use crate::range::KeyRange;

/// Load-balancing policy (paper §IV-D).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoadBalanceConfig {
    /// Whether load balancing runs at all.
    pub enabled: bool,
    /// A node is *overloaded* when it stores more than this many items.
    pub overload_threshold: usize,
    /// A node is *lightly loaded* (eligible to migrate next to an overloaded
    /// node) when it stores fewer than this many items.
    pub underload_threshold: usize,
}

impl Default for LoadBalanceConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            overload_threshold: 4_000,
            underload_threshold: 1_000,
        }
    }
}

impl LoadBalanceConfig {
    /// Disables load balancing entirely.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }

    /// Thresholds sized for a target average of `avg` items per node:
    /// overloaded above `4·avg`, lightly loaded below `avg / 2`.
    ///
    /// The factor of four keeps balancing quiet under uniform data (where
    /// the natural spread of range sizes already produces nodes at 2–3× the
    /// average) while still firing promptly on genuinely skewed data, which
    /// is the behaviour the paper evaluates in §V-D.
    pub fn for_average_load(avg: usize) -> Self {
        Self {
            enabled: true,
            overload_threshold: (4 * avg).max(8),
            underload_threshold: (avg / 2).max(1),
        }
    }
}

/// Configuration of a [`crate::BatonSystem`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatonConfig {
    /// The key domain the overlay indexes.  The first node manages the whole
    /// domain; subsequent joins split it.
    pub domain: KeyRange,
    /// Load-balancing policy.
    pub load_balance: LoadBalanceConfig,
}

impl Default for BatonConfig {
    fn default() -> Self {
        Self {
            domain: KeyRange::paper_domain(),
            load_balance: LoadBalanceConfig::default(),
        }
    }
}

impl BatonConfig {
    /// Configuration over the paper's `[1, 10^9)` domain with defaults.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Sets the key domain.
    pub fn with_domain(mut self, domain: KeyRange) -> Self {
        self.domain = domain;
        self
    }

    /// Sets the load-balancing policy.
    pub fn with_load_balance(mut self, lb: LoadBalanceConfig) -> Self {
        self.load_balance = lb;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_uses_paper_domain() {
        let c = BatonConfig::default();
        assert_eq!(c.domain, KeyRange::paper_domain());
        assert!(c.load_balance.enabled);
        assert_eq!(BatonConfig::paper(), c);
    }

    #[test]
    fn builder_methods_override_fields() {
        let c = BatonConfig::default()
            .with_domain(KeyRange::new(0, 1000))
            .with_load_balance(LoadBalanceConfig::disabled());
        assert_eq!(c.domain, KeyRange::new(0, 1000));
        assert!(!c.load_balance.enabled);
    }

    #[test]
    fn load_balance_for_average_load() {
        let lb = LoadBalanceConfig::for_average_load(100);
        assert_eq!(lb.overload_threshold, 400);
        assert_eq!(lb.underload_threshold, 50);
        assert!(lb.enabled);
        // Tiny averages keep sane minimums.
        let tiny = LoadBalanceConfig::for_average_load(0);
        assert!(tiny.overload_threshold >= 8);
        assert!(tiny.underload_threshold >= 1);
    }
}
