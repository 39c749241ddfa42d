//! Regression pins for the RTL co-simulation on real catalog designs.
//!
//! The case database scores every locking case by its output corruption
//! under wrong keys (`verify::wrong_key_corruption`, run by
//! `database::full_row` with 2 wrong-key samples of 24 cycles and seed
//! `0xDB + case index`). For each design this asserts how many cases apply,
//! how many corrupt, and a hash over the `f64` bits of every applicable
//! case's corruption, in candidate order. The values depend on every
//! bit-vector kernel the designs exercise (sha1's 512-bit message schedule
//! among them), on the simulator's settle loop and on the random stimulus
//! stream, so a change to any of them that alters one output sample fails
//! this test. A change that alters the corruption values on purpose must
//! update the values here.

use rtlock::candidates::enumerate;
use rtlock::transforms::{apply, KeyAllocator};
use rtlock::verify::{try_cosim_bounded, wrong_key_corruption};
use rtlock_artifacts::bytes_hash;
use rtlock_governor::CancelToken;

/// The database's corruption settings (`DatabaseConfig::default`, also
/// `rtlock_bench::rtlock_config`).
const SAMPLES: usize = 2;
const CYCLES: usize = 24;
const SEED: u64 = 0xDB;

/// Asserts `(applicable cases, corrupting cases, hash of the corruption
/// bits)` of the catalog design `name`.
fn assert_pinned(name: &str, applicable: usize, corrupting: usize, hash: &str) {
    let module = rtlock_designs::by_name(name).expect("catalog design").module().expect("parses");
    let config = rtlock_bench::rtlock_config(name, true);
    let (candidates, fsms) = enumerate(&module, &config.enumeration);
    let mut bits = Vec::new();
    let mut corrupting_seen = 0;
    for (i, cand) in candidates.iter().enumerate() {
        let mut locked = module.clone();
        let mut keys = KeyAllocator::new();
        if apply(&mut locked, cand, &fsms, &mut keys).is_err() {
            continue;
        }
        let c = wrong_key_corruption(&module, &locked, keys.correct_key(), SAMPLES, CYCLES, SEED + i as u64);
        corrupting_seen += usize::from(c > 0.0);
        bits.extend_from_slice(&c.to_bits().to_le_bytes());
    }
    let got = format!("{:032x}", bytes_hash(&bits));
    assert_eq!(
        (bits.len() / 8, corrupting_seen, got.as_str()),
        (applicable, corrupting, hash),
        "{name}: (applicable, corrupting, corruption hash)"
    );
}

#[test]
fn b05_corruption_is_pinned() {
    assert_pinned("b05", 70, 39, "e640ced717d1ea5961eb111e59030165");
}

#[test]
fn fibo_corruption_is_pinned() {
    assert_pinned("fibo", 39, 27, "94eb400276df00cdad74f7b0f2695ccb");
}

#[test]
fn b14_corruption_is_pinned() {
    assert_pinned("b14", 50, 31, "7caeced1639d648b8be5354390bf9b3b");
}

#[test]
fn b15_corruption_is_pinned() {
    assert_pinned("b15", 81, 47, "eef9e63cb8cdc049ceb5512d4359380b");
}

#[test]
fn sha1_corruption_is_pinned() {
    assert_pinned("sha1", 82, 18, "98c90fd513c5e4352d9ca37150dae402");
}

/// One bounded co-simulation of sha1 over 200 cycles (two message blocks
/// and more), locked with candidate 67, an add/sub swap in the round
/// datapath, under its key with one bit of the entangled pair flipped:
/// the mismatch rate's exact bits.
#[test]
fn sha1_wrong_key_mismatch_rate_is_pinned() {
    let module = rtlock_designs::by_name("sha1").expect("catalog design").module().expect("parses");
    let config = rtlock_bench::rtlock_config("sha1", true);
    let (candidates, fsms) = enumerate(&module, &config.enumeration);
    let cand = &candidates[67];
    assert_eq!(cand.label(), "arith Add<->Sub");
    let mut locked = module.clone();
    let mut keys = KeyAllocator::new();
    apply(&mut locked, cand, &fsms, &mut keys).expect("applies");
    let mut wrong = keys.correct_key().to_vec();
    wrong[0] = !wrong[0];
    let out = try_cosim_bounded(&module, &locked, &wrong, 200, 7, &CancelToken::unlimited()).expect("settles");
    assert_eq!((out.complete, out.cycles_run), (true, 200));
    // 39 of 600 output samples (3 ports, 200 cycles) differ.
    assert_eq!(out.mismatch_rate.to_bits(), 0x3fb0_a3d7_0a3d_70a4);
    assert_eq!(out.mismatch_rate, 39.0 / 600.0);
}
