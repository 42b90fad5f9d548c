//! Deterministic re-crawl scheduling for long-running watch services.
//!
//! The paper re-crawls its candidate set weekly (four April snapshots);
//! a streaming daemon instead keeps a due-queue of live candidates and
//! sweeps whatever is due each cadence. Ordering is fully deterministic:
//! entries pop in `(due_tick, domain)` order regardless of insertion
//! order, so two runs of the same stream schedule identical sweeps.

use std::collections::{BTreeSet, HashMap};

/// A deterministic due-queue of domains awaiting re-crawl.
///
/// ```
/// use squatphi_crawler::RecrawlScheduler;
///
/// let mut s = RecrawlScheduler::new();
/// s.schedule(8, "b.example");
/// s.schedule(4, "a.example");
/// assert_eq!(s.due(4, 10), vec!["a.example".to_string()]);
/// assert_eq!(s.len(), 1);
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecrawlScheduler {
    queue: BTreeSet<(u64, String)>,
    by_domain: HashMap<String, u64>,
}

impl RecrawlScheduler {
    /// An empty scheduler.
    pub fn new() -> Self {
        RecrawlScheduler::default()
    }

    /// Schedules (or reschedules) `domain` for re-crawl at `due_tick`.
    /// A domain has at most one pending slot; scheduling again moves it.
    pub fn schedule(&mut self, due_tick: u64, domain: &str) {
        if let Some(old) = self.by_domain.insert(domain.to_string(), due_tick) {
            self.queue.remove(&(old, domain.to_string()));
        }
        self.queue.insert((due_tick, domain.to_string()));
    }

    /// Drops `domain`'s pending slot (takedown / deregistration).
    /// Returns whether anything was cancelled.
    pub fn cancel(&mut self, domain: &str) -> bool {
        match self.by_domain.remove(domain) {
            Some(due) => self.queue.remove(&(due, domain.to_string())),
            None => false,
        }
    }

    /// Pops up to `limit` domains due at or before `now_tick`, in
    /// `(due_tick, domain)` order.
    pub fn due(&mut self, now_tick: u64, limit: usize) -> Vec<String> {
        let mut out = Vec::new();
        while out.len() < limit {
            let Some(entry) = self.queue.iter().next().cloned() else {
                break;
            };
            if entry.0 > now_tick {
                break;
            }
            self.queue.remove(&entry);
            self.by_domain.remove(&entry.1);
            out.push(entry.1);
        }
        out
    }

    /// The tick `domain`'s pending slot is due at, if it has one.
    pub fn due_tick(&self, domain: &str) -> Option<u64> {
        self.by_domain.get(domain).copied()
    }

    /// Pending entries.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Iterates pending `(due_tick, domain)` pairs in deterministic
    /// order (checkpoint serialization).
    pub fn entries(&self) -> impl Iterator<Item = (u64, &str)> {
        self.queue.iter().map(|(t, d)| (*t, d.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_due_then_domain_order() {
        let mut s = RecrawlScheduler::new();
        s.schedule(5, "c.example");
        s.schedule(3, "b.example");
        s.schedule(3, "a.example");
        assert_eq!(
            s.due(5, 10),
            vec!["a.example", "b.example", "c.example"]
                .into_iter()
                .map(String::from)
                .collect::<Vec<_>>()
        );
        assert!(s.is_empty());
    }

    #[test]
    fn respects_limit_and_now() {
        let mut s = RecrawlScheduler::new();
        for i in 0..6u64 {
            s.schedule(i, &format!("d{i}.example"));
        }
        assert_eq!(s.due(3, 2).len(), 2);
        assert_eq!(s.due(3, 10).len(), 2); // only ticks 2 and 3 remain due
        assert_eq!(s.len(), 2); // ticks 4 and 5 still pending
    }

    #[test]
    fn reschedule_moves_not_duplicates() {
        let mut s = RecrawlScheduler::new();
        s.schedule(2, "x.example");
        s.schedule(9, "x.example");
        assert_eq!(s.len(), 1);
        assert!(s.due(2, 10).is_empty());
        assert_eq!(s.due(9, 10), vec!["x.example".to_string()]);
    }

    #[test]
    fn cancel_removes_pending() {
        let mut s = RecrawlScheduler::new();
        s.schedule(1, "x.example");
        assert_eq!(s.due_tick("x.example"), Some(1));
        assert!(s.cancel("x.example"));
        assert_eq!(s.due_tick("x.example"), None);
        assert!(!s.cancel("x.example"));
        assert!(s.due(1, 10).is_empty());
    }

    #[test]
    fn entries_iterate_sorted() {
        let mut s = RecrawlScheduler::new();
        s.schedule(7, "b.example");
        s.schedule(1, "z.example");
        let e: Vec<(u64, String)> = s.entries().map(|(t, d)| (t, d.to_string())).collect();
        assert_eq!(
            e,
            vec![(1, "z.example".to_string()), (7, "b.example".to_string())]
        );
    }
}
