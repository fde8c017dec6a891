//! Exact allocation gate for the manager's steady state.
//!
//! A counting global allocator (std only) counts the heap allocations
//! made on the calling thread. Managers over random platforms
//! (`rispp_sim::random_platform`) are first warmed up — every task
//! forecasts every SI, then a long random op mix runs — so each reusable
//! buffer reaches its high-water mark. After that, every `forecast`,
//! `retract_forecast` and `execute_si` call must allocate exactly zero
//! times. `advance_to` is not gated: it returns its events in a `Vec`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rispp_core::forecast::ForecastValue;
use rispp_core::si::SiId;
use rispp_rt::manager::{RisppManager, TaskId};
use rispp_sim::random_platform;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count_one() {
    // `try_with`: allocations during thread teardown are simply not
    // counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations `f` makes on this thread.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const TASKS: TaskId = 3;

/// One manager call of the stress op mix (`Scenario::Stress`).
enum Op {
    Forecast(TaskId, ForecastValue),
    Retract(TaskId, SiId),
    Execute(TaskId, SiId),
    Advance(u64),
}

fn random_op(rng: &mut StdRng, sis: usize) -> Op {
    let si = SiId(rng.gen_range(0..sis));
    match rng.gen_range(0..10) {
        0..=2 => Op::Forecast(
            rng.gen_range(0..TASKS),
            ForecastValue::new(
                si,
                rng.gen_range(0.05..1.0),
                rng.gen_range(1_000.0..1_000_000.0),
                rng.gen_range(1.0..500.0),
            ),
        ),
        3 => Op::Retract(rng.gen_range(0..TASKS), si),
        4..=7 => Op::Execute(rng.gen_range(0..TASKS), si),
        _ => Op::Advance(rng.gen_range(1..200_000u64)),
    }
}

/// Applies `op` and returns the allocations it made, `None` for
/// `Advance` (ungated).
fn apply(mgr: &mut RisppManager, op: Op) -> Option<u64> {
    match op {
        Op::Forecast(task, value) => Some(allocs_in(|| mgr.forecast(task, value))),
        Op::Retract(task, si) => Some(allocs_in(|| mgr.retract_forecast(task, si))),
        Op::Execute(task, si) => Some(allocs_in(|| {
            mgr.execute_si(task, si);
        })),
        Op::Advance(dt) => {
            let t = mgr.now() + dt;
            mgr.advance_to(t).expect("monotone time");
            None
        }
    }
}

#[test]
fn warmed_manager_hot_path_allocates_nothing() {
    const WARM_OPS: usize = 2_000;
    const GATED_OPS: usize = 2_000;
    let mut gated_calls = 0u64;
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (lib, fabric) = random_platform(&mut rng);
        let sis = lib.len();
        let mut mgr = RisppManager::builder(lib, fabric).build();
        for task in 0..TASKS {
            for si in 0..sis {
                mgr.forecast(task, ForecastValue::new(SiId(si), 1.0, 50_000.0, 100.0));
            }
        }
        for _ in 0..WARM_OPS {
            let op = random_op(&mut rng, sis);
            apply(&mut mgr, op);
        }
        for i in 0..GATED_OPS {
            let op = random_op(&mut rng, sis);
            let name = match op {
                Op::Forecast(..) => "forecast",
                Op::Retract(..) => "retract_forecast",
                Op::Execute(..) => "execute_si",
                Op::Advance(_) => "advance_to",
            };
            if let Some(n) = apply(&mut mgr, op) {
                assert_eq!(
                    n, 0,
                    "platform {seed}, gated op {i}: {name} allocated {n} times"
                );
                gated_calls += 1;
            }
        }
    }
    assert!(
        gated_calls > 40_000,
        "gate exercised only {gated_calls} calls"
    );
}
