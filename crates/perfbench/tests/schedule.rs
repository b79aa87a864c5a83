//! Generated inputs are a function of the seed and nothing else.

use perfbench::workloads::{net_steady, rt_overload};
use perfbench::Plan;

fn plan(seed: u64) -> Plan {
    Plan::for_seconds(seed, 1, true)
}

#[test]
fn same_seed_gives_the_same_schedule_and_keys() {
    assert_eq!(rt_overload::load(&plan(7)), rt_overload::load(&plan(7)));
    assert_eq!(net_steady::load(&plan(7)), net_steady::load(&plan(7)));
}

#[test]
fn another_seed_gives_another_schedule_and_other_keys() {
    for (a, b) in [
        (rt_overload::load(&plan(7)), rt_overload::load(&plan(8))),
        (net_steady::load(&plan(7)), net_steady::load(&plan(8))),
    ] {
        assert_ne!(a.frames, b.frames, "due times must depend on the seed");
        assert_ne!(
            a.classes[0].pool, b.classes[0].pool,
            "keys must depend on the seed"
        );
    }
}

#[test]
fn schedules_are_sorted_and_sized_to_the_offered_rate() {
    let p = plan(11);
    let total_s = (p.warmup + p.window()).as_secs_f64();

    let rt = rt_overload::load(&p);
    assert!(rt.frames.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
    let tuples = rt.frames.len() as f64 * rt_overload::FRAME_TUPLES as f64;
    let want = rt_overload::OVERLOAD * rt_overload::capacity_tps() * total_s;
    assert!(
        (tuples / want - 1.0).abs() < 0.01,
        "{tuples} tuples scheduled, {want} wanted"
    );

    let net = net_steady::load(&p);
    assert!(net.frames.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
    let bulk = net.frames.iter().filter(|f| f.class == 0).count() as f64;
    let small = net.frames.iter().filter(|f| f.class == 1).count() as f64;
    let bulk_want = net_steady::BULK_TPS / net_steady::BULK_TUPLES as f64 * total_s;
    assert!(
        (bulk / bulk_want - 1.0).abs() < 0.001,
        "{bulk} bulk frames, {bulk_want} wanted"
    );
    assert!(
        (small / (net_steady::SMALL_FPS * total_s) - 1.0).abs() < 0.02,
        "{small} small frames"
    );
}
