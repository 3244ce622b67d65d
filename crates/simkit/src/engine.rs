//! The simulation run loop.
//!
//! [`Engine`] owns the future-event list and the clock; a model implements
//! [`Simulation`] and receives each event together with a scheduling context
//! [`Ctx`]. The engine advances time monotonically and stops at a horizon (or
//! when the calendar empties).

use crate::event::EventQueue;
use crate::time::SimTime;

/// Scheduling context handed to event handlers.
///
/// Wraps the calendar and the current clock so handlers can schedule
/// absolute or relative follow-up events.
pub struct Ctx<'a, E> {
    now: SimTime,
    calendar: &'a mut EventQueue<E>,
}

impl<'a, E> Ctx<'a, E> {
    /// The current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        self.calendar.schedule(at, event);
    }

    /// Schedules `event` after a delay of `dt` seconds.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `dt` is negative.
    pub fn schedule_in(&mut self, dt: f64, event: E) {
        debug_assert!(dt >= 0.0, "negative delay {dt}");
        self.calendar.schedule(self.now + dt, event);
    }
}

/// A discrete-event model.
pub trait Simulation {
    /// The event alphabet of the model.
    type Event;

    /// Handles one event at its scheduled time.
    fn handle(&mut self, event: Self::Event, ctx: &mut Ctx<'_, Self::Event>);

    /// Observation hook: called by the engine after each handled event,
    /// once the model state reflects it. Intended for read-only observers
    /// (trace sinks, gauge samplers) that must not feed back into the
    /// simulation — implementations must not mutate model state that the
    /// event logic reads. The default is a no-op, so models that do not
    /// observe pay nothing (static dispatch, empty inlined body).
    fn after_event(&mut self, _now: SimTime) {}
}

/// The discrete-event engine: clock plus calendar.
pub struct Engine<E> {
    calendar: EventQueue<E>,
    now: SimTime,
    processed: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at zero and an empty calendar.
    #[must_use]
    pub fn new() -> Self {
        Engine {
            calendar: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Creates an engine whose calendar has room for `cap` pending events,
    /// so a model with a known steady-state population (e.g. one watchdog
    /// per database object) runs without calendar reallocations.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Engine {
            calendar: EventQueue::with_capacity(cap),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// The current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// How many events the calendar can hold pending before it
    /// reallocates (for diagnostics).
    #[must_use]
    pub fn calendar_capacity(&self) -> usize {
        self.calendar.capacity()
    }

    /// Number of events processed so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Schedules an initial event at absolute time `at` before the run
    /// starts (or between runs).
    pub fn prime(&mut self, at: SimTime, event: E) {
        self.calendar.schedule(at, event);
    }

    /// Runs the model until the calendar is exhausted or the next event
    /// would fire after `end`. Events at exactly `end` are processed.
    ///
    /// The clock finishes at `end` (even if the calendar emptied earlier), so
    /// time-weighted statistics can be closed at a well-defined horizon.
    pub fn run_until<S>(&mut self, sim: &mut S, end: SimTime)
    where
        S: Simulation<Event = E>,
    {
        while let Some(t) = self.calendar.peek_time() {
            if t > end {
                break;
            }
            let (t, ev) = self.calendar.pop().expect("peeked entry must pop");
            debug_assert!(t >= self.now, "event time regressed");
            self.now = t;
            self.processed += 1;
            let mut ctx = Ctx {
                now: t,
                calendar: &mut self.calendar,
            };
            sim.handle(ev, &mut ctx);
            sim.after_event(t);
        }
        self.now = self.now.max(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that counts down: event `n` schedules `n - 1` after 1s.
    struct Countdown {
        fired: Vec<(f64, u32)>,
    }

    impl Simulation for Countdown {
        type Event = u32;

        fn handle(&mut self, event: u32, ctx: &mut Ctx<'_, u32>) {
            self.fired.push((ctx.now().as_secs(), event));
            if event > 0 {
                ctx.schedule_in(1.0, event - 1);
            }
        }
    }

    #[test]
    fn runs_chain_of_events() {
        let mut engine = Engine::new();
        let mut sim = Countdown { fired: vec![] };
        engine.prime(SimTime::from_secs(0.5), 3);
        engine.run_until(&mut sim, SimTime::from_secs(100.0));
        assert_eq!(sim.fired, vec![(0.5, 3), (1.5, 2), (2.5, 1), (3.5, 0)]);
        assert_eq!(engine.events_processed(), 4);
        assert_eq!(engine.now().as_secs(), 100.0);
    }

    #[test]
    fn horizon_cuts_off_future_events() {
        let mut engine = Engine::new();
        let mut sim = Countdown { fired: vec![] };
        engine.prime(SimTime::from_secs(0.0), 10);
        engine.run_until(&mut sim, SimTime::from_secs(2.0));
        // Events at 0, 1, 2 fire; the event at 3 does not.
        assert_eq!(sim.fired.len(), 3);
        assert_eq!(engine.now().as_secs(), 2.0);
    }

    #[test]
    fn event_at_exact_horizon_fires() {
        let mut engine = Engine::new();
        let mut sim = Countdown { fired: vec![] };
        engine.prime(SimTime::from_secs(2.0), 0);
        engine.run_until(&mut sim, SimTime::from_secs(2.0));
        assert_eq!(sim.fired, vec![(2.0, 0)]);
    }

    /// A model that counts observation-hook calls.
    struct Observed {
        handled: u32,
        observed: Vec<f64>,
    }

    impl Simulation for Observed {
        type Event = u32;

        fn handle(&mut self, event: u32, ctx: &mut Ctx<'_, u32>) {
            self.handled += 1;
            if event > 0 {
                ctx.schedule_in(1.0, event - 1);
            }
        }

        fn after_event(&mut self, now: SimTime) {
            self.observed.push(now.as_secs());
        }
    }

    #[test]
    fn after_event_fires_once_per_handled_event() {
        let mut engine = Engine::new();
        let mut sim = Observed {
            handled: 0,
            observed: vec![],
        };
        engine.prime(SimTime::from_secs(0.0), 3);
        engine.run_until(&mut sim, SimTime::from_secs(10.0));
        assert_eq!(sim.handled, 4);
        assert_eq!(sim.observed, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn resumable_runs() {
        let mut engine = Engine::new();
        let mut sim = Countdown { fired: vec![] };
        engine.prime(SimTime::from_secs(0.0), 5);
        engine.run_until(&mut sim, SimTime::from_secs(2.5));
        let first = sim.fired.len();
        engine.run_until(&mut sim, SimTime::from_secs(10.0));
        assert!(sim.fired.len() > first);
        assert_eq!(sim.fired.len(), 6);
    }
}
