//! Pins the virtual-time sample path to the bit.
//!
//! Folds the campaign replay digests of a fixed subset of the sanity
//! corpus and the bit patterns of Fig. 12's summary into one `u64`, and
//! asserts it against a constant. Any change that moves a seeded RNG
//! draw, a shed decision or a float anywhere on the simulator's path
//! fails here; a change that is meant to move the sample path updates
//! [`PINNED`] in the same commit and says so.

use streamshed_experiments::{campaign, fig12};

/// The campaign seed (the `reproduce` default).
const SEED: u64 = 7;

/// Sanity-corpus cells folded into the pin: every controller in
/// [`campaign::CONTROLS`], the actuator-fault paths of the fault harness
/// (hold and partial) and a sensor dropout that makes the supervisor
/// hold its last actuation.
const CELLS: &[&str] = &[
    "poisson+clean+ident+1shard+paper",
    "poisson+stale_q+ident+1shard+paper",
    "poisson+actuator_partial+ident+1shard+paper",
    "poisson+actuator_hold+chain8+1shard+paper",
    "poisson+sensor_dropout+chain8+1shard+paper",
    "poisson+clean+ident+1shard+nosup",
    "poisson+stale_q+ident+1shard+netshed",
    "poisson+clean+ident+1shard+adaptive",
    "poisson+clean+ident+1shard+comparator",
];

/// The folded digest, re-captured when the simulator's entry shedder
/// became the wall-clock front door's counter-coin kernel.
const PINNED: u64 = 0xb514_e64a_65aa_9c6a;

#[test]
fn virtual_time_sample_path_is_pinned() {
    let corpus = campaign::sanity_corpus();
    let mut fold = String::new();
    for &key in CELLS {
        let spec = corpus
            .iter()
            .find(|c| c.key() == key)
            .unwrap_or_else(|| panic!("{key} is not in the sanity corpus"));
        let digest = campaign::digest_shards(&campaign::run_cell(spec, SEED, false));
        fold.push_str(&format!("{key}={digest:016x};"));
    }
    for control in campaign::CONTROLS {
        assert!(
            CELLS.iter().any(|k| k.ends_with(&format!("+{control}"))),
            "no pinned cell runs controller '{control}'"
        );
    }

    for (name, value) in fig12::run(SEED).summary {
        fold.push_str(&format!("{name}={:016x};", value.to_bits()));
    }
    let folded = campaign::fnv1a64(fold.as_bytes());
    assert_eq!(
        folded, PINNED,
        "virtual-time sample path moved: folded digest {folded:#018x}"
    );
}
