//! Triggers that fire on tuple expiration.
//!
//! The paper (Section 1): "triggers can be supported that fire on
//! expirations … This leads to a seamless integration of expiration into
//! database applications" — e.g. regenerating a user profile when it
//! expires, or renewing a session key. A [`TriggerManager`] holds named
//! callbacks per table; the engine fires them with the expired tuple and
//! the time it expired.

use exptime_core::time::Time;
use exptime_core::tuple::Tuple;
use std::collections::{HashMap, VecDeque};

/// An expiration event: a tuple left `table` because its time passed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpirationEvent {
    /// The table the tuple expired from.
    pub table: String,
    /// The expired tuple.
    pub tuple: Tuple,
    /// Its expiration time (the instant it ceased to be current).
    pub texp: Time,
    /// The engine time at which the trigger fired. Equal to `texp` under
    /// eager removal; possibly later under lazy removal — the fidelity gap
    /// experiment E3 measures.
    pub fired_at: Time,
}

/// A trigger callback.
pub type TriggerFn = Box<dyn FnMut(&ExpirationEvent) + Send>;

/// How many events the log keeps — the span ring's capacity. An
/// application that must see every expiration registers a callback; the
/// log is for looking at the recent past.
const LOG_CAP: usize = exptime_obs::SPAN_RING_CAP;

/// Named expiration triggers, registered per table.
#[derive(Default)]
pub struct TriggerManager {
    triggers: HashMap<String, Vec<(String, TriggerFn)>>,
    /// The most recent [`LOG_CAP`] events fired, oldest first.
    log: VecDeque<ExpirationEvent>,
    /// Every event ever fired, logged or since evicted.
    fired: u64,
}

impl std::fmt::Debug for TriggerManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TriggerManager")
            .field(
                "triggers",
                &self
                    .triggers
                    .iter()
                    .map(|(t, v)| (t, v.iter().map(|(n, _)| n).collect::<Vec<_>>()))
                    .collect::<Vec<_>>(),
            )
            .field("fired", &self.fired)
            .finish()
    }
}

impl TriggerManager {
    /// An empty manager.
    #[must_use]
    pub fn new() -> Self {
        TriggerManager::default()
    }

    /// Registers `callback` under `trigger_name` for expirations on
    /// `table`.
    pub fn on_expire(
        &mut self,
        table: impl Into<String>,
        trigger_name: impl Into<String>,
        callback: TriggerFn,
    ) {
        self.triggers
            .entry(table.into().to_ascii_lowercase())
            .or_default()
            .push((trigger_name.into(), callback));
    }

    /// Removes a named trigger; returns whether it existed.
    pub fn drop_trigger(&mut self, table: &str, trigger_name: &str) -> bool {
        if let Some(list) = self.triggers.get_mut(&table.to_ascii_lowercase()) {
            let before = list.len();
            list.retain(|(n, _)| n != trigger_name);
            return list.len() != before;
        }
        false
    }

    /// Fires all triggers for an expiration and appends it to the log,
    /// evicting the oldest entry once the log is full.
    pub fn fire(&mut self, event: ExpirationEvent) {
        if let Some(list) = self.triggers.get_mut(&event.table.to_ascii_lowercase()) {
            for (_, f) in list {
                f(&event);
            }
        }
        if self.log.len() == LOG_CAP {
            self.log.pop_front();
        }
        self.log.push_back(event);
        self.fired += 1;
    }

    /// The most recent events (a bounded ring), oldest first.
    #[must_use]
    pub fn log(&self) -> &VecDeque<ExpirationEvent> {
        &self.log
    }

    /// How many events have fired since creation — exact, unlike the
    /// length of the bounded [`TriggerManager::log`].
    #[must_use]
    pub fn fired_count(&self) -> u64 {
        self.fired
    }

    /// Clears the event log (the triggers stay registered).
    pub fn clear_log(&mut self) {
        self.log.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exptime_core::tuple;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn event(table: &str, texp: u64, fired: u64) -> ExpirationEvent {
        ExpirationEvent {
            table: table.into(),
            tuple: tuple![1, 2],
            texp: Time::new(texp),
            fired_at: Time::new(fired),
        }
    }

    #[test]
    fn triggers_fire_for_their_table_only() {
        let mut tm = TriggerManager::new();
        let count = Arc::new(AtomicUsize::new(0));
        let c = count.clone();
        tm.on_expire(
            "pol",
            "count_expiries",
            Box::new(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
            }),
        );
        tm.fire(event("pol", 5, 5));
        tm.fire(event("el", 5, 5));
        tm.fire(event("POL", 7, 7)); // case-insensitive table match
        assert_eq!(count.load(Ordering::SeqCst), 2);
        assert_eq!(tm.log().len(), 3);
    }

    #[test]
    fn triggers_receive_event_details() {
        let mut tm = TriggerManager::new();
        let seen: Arc<std::sync::Mutex<Vec<(Time, Time)>>> =
            Arc::new(std::sync::Mutex::new(Vec::new()));
        let s = seen.clone();
        tm.on_expire(
            "pol",
            "capture",
            Box::new(move |e| {
                s.lock().unwrap().push((e.texp, e.fired_at));
            }),
        );
        tm.fire(event("pol", 5, 8)); // lazy: fired later than texp
        let got = seen.lock().unwrap();
        assert_eq!(got[0], (Time::new(5), Time::new(8)));
    }

    #[test]
    fn drop_trigger() {
        let mut tm = TriggerManager::new();
        let count = Arc::new(AtomicUsize::new(0));
        let c = count.clone();
        tm.on_expire(
            "pol",
            "t1",
            Box::new(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert!(tm.drop_trigger("pol", "t1"));
        assert!(!tm.drop_trigger("pol", "t1"));
        assert!(!tm.drop_trigger("el", "t1"));
        tm.fire(event("pol", 5, 5));
        assert_eq!(count.load(Ordering::SeqCst), 0, "dropped trigger is gone");
        assert_eq!(tm.log().len(), 1, "log still records the event");
    }

    #[test]
    fn log_keeps_the_newest_events_and_an_exact_count() {
        let mut tm = TriggerManager::new();
        let total = 10 * LOG_CAP as u64;
        for i in 0..total {
            tm.fire(event("pol", i, i));
        }
        assert_eq!(tm.fired_count(), total);
        assert_eq!(tm.log().len(), LOG_CAP);
        let newest: Vec<u64> = (total - LOG_CAP as u64..total).collect();
        let kept: Vec<u64> = tm.log().iter().map(|e| e.texp.finite().unwrap()).collect();
        assert_eq!(kept, newest);
    }

    #[test]
    fn clear_log() {
        let mut tm = TriggerManager::new();
        tm.fire(event("pol", 1, 1));
        tm.clear_log();
        assert!(tm.log().is_empty());
    }
}
