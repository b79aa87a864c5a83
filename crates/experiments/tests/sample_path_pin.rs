//! Pins the virtual-time sample path to the bit.
//!
//! Pins the campaign replay digest of each cell in a fixed subset of the
//! sanity corpus, and the fold of the bit patterns of Fig. 12's summary,
//! each to its own constant. Any change that moves a seeded RNG draw, a
//! shed decision or a float anywhere on the simulator's path fails here,
//! and the failure names every cell (or Fig. 12) that moved; a change
//! that is meant to move the sample path updates those rows of
//! [`PINNED`] (or [`FIG12_PINNED`]) in the same commit and says so.

use streamshed_experiments::{campaign, fig12};

/// The campaign seed (the `reproduce` default).
const SEED: u64 = 7;

/// Sanity-corpus cells and their pinned digests: every controller in
/// [`campaign::CONTROLS`], the actuator-fault paths of the fault harness
/// (hold and partial) and a sensor dropout that makes the supervisor
/// hold its last actuation.
const PINNED: &[(&str, u64)] = &[
    ("poisson+clean+ident+1shard+paper", 0x6e87_f4c5_2f3f_6ebd),
    ("poisson+stale_q+ident+1shard+paper", 0x103f_5d7a_32c9_f79f),
    ("poisson+actuator_partial+ident+1shard+paper", 0x372e_17a9_c7a2_aa1c),
    ("poisson+actuator_hold+chain8+1shard+paper", 0xf8e1_7e44_d7f2_54a4),
    ("poisson+sensor_dropout+chain8+1shard+paper", 0x01fc_8b7c_8912_e3eb),
    ("poisson+clean+ident+1shard+nosup", 0xc589_4829_38e7_3a16),
    ("poisson+stale_q+ident+1shard+netshed", 0x57c5_2a30_fde7_6459),
];

/// FNV-1a of Fig. 12's summary, `name=<value bits>;` per entry.
const FIG12_PINNED: u64 = 0x3e12_0339_9a1c_53ed;

#[test]
fn virtual_time_sample_path_is_pinned() {
    let corpus = campaign::sanity_corpus();
    let mut moved = Vec::new();
    for &(key, pinned) in PINNED {
        let spec = corpus
            .iter()
            .find(|c| c.key() == key)
            .unwrap_or_else(|| panic!("{key} is not in the sanity corpus"));
        let digest = campaign::digest_shards(&campaign::run_cell(spec, SEED, false));
        if digest != pinned {
            moved.push(format!("{key}: digest {digest:#018x}, pinned {pinned:#018x}"));
        }
    }
    for control in campaign::CONTROLS {
        assert!(
            PINNED
                .iter()
                .any(|(k, _)| k.ends_with(&format!("+{control}"))),
            "no pinned cell runs controller '{control}'"
        );
    }

    let mut fold = String::new();
    for (name, value) in fig12::run(SEED).summary {
        fold.push_str(&format!("{name}={:016x};", value.to_bits()));
    }
    let fig12 = campaign::fnv1a64(fold.as_bytes());
    if fig12 != FIG12_PINNED {
        moved.push(format!(
            "fig12 summary: fold {fig12:#018x}, pinned {FIG12_PINNED:#018x}"
        ));
    }
    assert!(
        moved.is_empty(),
        "virtual-time sample path moved:\n{}",
        moved.join("\n")
    );
}
