//! Scheduler equivalence. The engine's contract is `(time, insertion
//! seq)` order: earlier sim-time first, FIFO among events at the same
//! instant. Its event queue starts as a binary heap in that order and
//! moves into the timing wheel once more than `WHEEL_SLOTS` events are
//! pending (DESIGN.md §5), so the wheel must pop exactly what a heap
//! pops — at a pair run's shallow depth and at a fleet's deep one —
//! or the switch would show in the output.
//!
//! The first two tests drive the public `TimingWheel` against an
//! in-test `BinaryHeap` oracle; the last two check the switch inside
//! the engine.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};
use turb_netsim::{
    Application, Ctx, SchedStats, SimDuration, SimRng, SimTime, Simulation, TimingWheel,
    WHEEL_SLOTS,
};
use turbulence::runner;

/// Wheel geometry (see `turb_netsim::wheel`): 2^13 ns ticks and four
/// levels of 256 slots, so 2^32 ticks before the overflow heap.
const TICK_NS: u64 = 1 << 13;
const HORIZON_NS: u64 = TICK_NS << 32;

/// The reference order, straight from a `BinaryHeap`.
#[derive(Default)]
struct Oracle {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
}

impl Oracle {
    fn push(&mut self, time: u64, seq: u64, value: u32) {
        self.heap.push(Reverse((time, seq, value)));
    }

    fn pop(&mut self) -> Option<(SimTime, u64, u32)> {
        self.heap.pop().map(|Reverse((t, s, v))| (SimTime(t), s, v))
    }

    fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((t, _, _))| SimTime(*t))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// A delay from now in every regime the wheel files differently: the
/// same instant, sub-tick, each of the four levels, and past the
/// horizon into the overflow heap.
fn delay(rng: &mut SimRng) -> u64 {
    let ticks = match rng.index(8) {
        0 => return 0,
        1 => return rng.range_u64(1, TICK_NS - 1),
        2 => rng.range_u64(1, (1 << 8) - 1),
        3 => rng.range_u64(1 << 8, (1 << 16) - 1),
        4 => rng.range_u64(1 << 16, (1 << 24) - 1),
        5 => rng.range_u64(1 << 24, (1 << 32) - 1),
        6 => rng.range_u64(1 << 32, 1 << 33),
        _ => return rng.range_u64(0, 1_000_000),
    };
    ticks * TICK_NS + rng.range_u64(0, TICK_NS - 1)
}

/// Seeded interleaved pushes and pops on the wheel and the oracle,
/// never more than `depth` pending, then a full drain. Every result
/// of `push`/`pop`/`next_time`/`len` must agree. Returns the deepest
/// queue reached.
fn differential(seed: u64, depth: usize, ops: usize) -> usize {
    let mut rng = SimRng::new(seed);
    let mut wheel = TimingWheel::new();
    let mut oracle = Oracle::default();
    let (mut now, mut last, mut seq, mut deepest) = (0u64, 0u64, 0u64, 0usize);
    for op in 0..ops {
        assert_eq!(wheel.next_time(), oracle.next_time(), "op {op}");
        let push = oracle.len() == 0 || (oracle.len() < depth && rng.chance(0.6));
        if push {
            // One push in five ties with the previous one's instant
            // (when that is still ahead), so FIFO order is exercised.
            let time = if rng.chance(0.2) {
                last.max(now)
            } else {
                now + delay(&mut rng)
            };
            wheel.push(SimTime(time), seq, seq as u32);
            oracle.push(time, seq, seq as u32);
            (last, seq) = (time, seq + 1);
        } else {
            let popped = oracle.pop();
            assert_eq!(wheel.pop(), popped, "op {op}");
            now = popped.expect("pops only when non-empty").0.as_nanos();
        }
        assert_eq!(wheel.len(), oracle.len(), "op {op}");
        deepest = deepest.max(oracle.len());
    }
    while let Some(expected) = oracle.pop() {
        assert_eq!(wheel.pop(), Some(expected));
    }
    assert_eq!((wheel.pop(), wheel.len()), (None, 0));
    deepest
}

#[test]
fn wheel_matches_a_heap_oracle_at_corpus_depth() {
    for seed in [1u64, 2, 3, 42] {
        assert_eq!(differential(seed, 32, 20_000), 32, "seed {seed}");
    }
}

#[test]
fn wheel_matches_a_heap_oracle_at_fleet_depth() {
    assert!(differential(7, 100_000, 700_000) >= 100_000);
}

#[test]
fn a_corpus_pair_run_never_leaves_the_heap() {
    let mut configs = runner::corpus_configs(42);
    for c in &mut configs {
        c.telemetry = true;
    }
    for run in runner::run_configs_parallel(&configs, 0).runs {
        let telemetry = run.telemetry.expect("telemetry was requested");
        assert_eq!(
            telemetry.sched,
            SchedStats::default(),
            "set {} {:?} switched to the wheel",
            run.set_id,
            run.class
        );
        // Independent of the queue: streaming traffic fits the MTU, so
        // every pair run takes the zero-copy transit fast path.
        assert!(
            telemetry.report.transit_fastpath > 0,
            "set {} {:?}: streaming traffic fits the MTU and must use the fast path",
            run.set_id,
            run.class
        );
    }
}

/// Every timer set during the test, in one global order: `stamp` is
/// taken when a timer is armed, so it follows the engine's seq.
#[derive(Default)]
struct TimerLog {
    next_stamp: u64,
    /// `(fired at, due at, stamp)` per firing.
    fired: Vec<(u64, u64, u64)>,
}

const APPS: u64 = 300;
const FANOUT: u64 = 4;
const ROUNDS: u32 = 20;
/// Sub-tick, two level-0 distances and a level-1 one. Every app arms
/// the same delays from the same instant, so timers tie in bulk.
const DELAYS: [u64; FANOUT as usize] = [3, 10_000, 20_000, 1_000_000];
/// Every app's first timer fires here, in one 300-way tie.
const FIRST_NS: u64 = 10_000;

/// Arms one timer at `FIRST_NS`; when it fires, fans out into
/// `FANOUT` timers that each re-arm `ROUNDS` times. 300 apps keep 1200
/// timers pending, past `WHEEL_SLOTS`, but only after the fan-out.
struct Ticker {
    id: u64,
    log: Arc<Mutex<TimerLog>>,
    /// stamp → (due at, delay, re-arms left).
    armed: HashMap<u64, (u64, u64, u32)>,
    fanned_out: bool,
}

impl Ticker {
    fn arm(&mut self, ctx: &mut Ctx<'_>, delay_ns: u64, rounds: u32) {
        let stamp = {
            let mut log = self.log.lock().unwrap();
            log.next_stamp += 1;
            log.next_stamp - 1
        };
        let due = ctx.now().as_nanos() + delay_ns;
        self.armed.insert(stamp, (due, delay_ns, rounds));
        ctx.set_timer_after(SimDuration::from_nanos(delay_ns), stamp);
    }
}

impl Application for Ticker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.arm(ctx, FIRST_NS, 0);
        if self.id == 0 {
            // One timer past the horizon: armed while the queue is a
            // heap, carried into the wheel's overflow by the switch.
            self.arm(ctx, 2 * HORIZON_NS + 7, 0);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, stamp: u64) {
        let (due, delay, rounds) = self.armed.remove(&stamp).expect("armed timer");
        let now = ctx.now().as_nanos();
        self.log.lock().unwrap().fired.push((now, due, stamp));
        if !self.fanned_out {
            self.fanned_out = true;
            for delay in DELAYS {
                self.arm(ctx, delay, ROUNDS);
            }
        } else if rounds > 0 {
            self.arm(ctx, delay, rounds - 1);
        }
    }
}

#[test]
fn a_deep_timer_population_switches_mid_run_and_keeps_every_timer_exact() {
    let log = Arc::new(Mutex::new(TimerLog::default()));
    let mut sim = Simulation::new(1);
    let node = sim.add_host("t", Ipv4Addr::new(10, 0, 0, 1));
    for id in 0..APPS {
        let app = Ticker {
            id,
            log: Arc::clone(&log),
            armed: HashMap::new(),
            fanned_out: false,
        };
        sim.add_app(node, Box::new(app), None, false);
    }

    // Before the fan-out only one timer per app is pending: still a heap.
    sim.run_until(SimTime(FIRST_NS - 1));
    assert_eq!(sim.sched_stats(), SchedStats::default());
    assert!(sim.sim_stats().queue_high_water <= WHEEL_SLOTS as u64);

    sim.run_to_idle(SimTime(u64::MAX));
    assert!(sim.sim_stats().queue_high_water > WHEEL_SLOTS as u64);
    let sched = sim.sched_stats();
    assert!(sched.slots_touched > 0, "{sched:?}");
    assert_eq!(sched.overflow_events, 1, "{sched:?}");

    let log = log.lock().unwrap();
    let rounds = u64::from(ROUNDS) + 1;
    assert_eq!(log.fired.len() as u64, APPS * (1 + FANOUT * rounds) + 1);
    for &(fired, due, stamp) in &log.fired {
        assert_eq!(fired, due, "timer {stamp} fired off its due time");
    }
    // (time, stamp) strictly increasing: exact time order, FIFO ties.
    for pair in log.fired.windows(2) {
        let (a, b) = ((pair[0].0, pair[0].2), (pair[1].0, pair[1].2));
        assert!(a < b, "timer {} fired after timer {}", b.1, a.1);
    }
}
