//! The structural-hash table shared by [`GateBuilder`](crate::GateBuilder)
//! and the optimizer's strash pass.
//!
//! A key packs a gate kind and its (at most three) fanin ids into one
//! `u128`, so a probe neither allocates nor clones. The hasher is a fixed
//! multiply-rotate with no per-process seed. The table is only probed and
//! never iterated, so its layout cannot reach a netlist.

use rtlock_netlist::{GateId, GateKind};
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Packs `(kind, fanin)` into a key:
/// - bits 0–95: `fanin[0..3]`, 32 bits each, unused slots zero;
/// - bits 96–99: the kind tag, the two `Dff` init values apart;
/// - bits 100–101: the fanin count.
///
/// # Panics
///
/// Panics if `fanin` has more than three ids.
fn pack(kind: GateKind, fanin: &[GateId]) -> u128 {
    assert!(fanin.len() <= 3, "{kind:?} with {} fanins has no strash key", fanin.len());
    let tag: u128 = match kind {
        GateKind::Input => 0,
        GateKind::Const0 => 1,
        GateKind::Const1 => 2,
        GateKind::Buf => 3,
        GateKind::Not => 4,
        GateKind::And => 5,
        GateKind::Nand => 6,
        GateKind::Or => 7,
        GateKind::Nor => 8,
        GateKind::Xor => 9,
        GateKind::Xnor => 10,
        GateKind::Mux => 11,
        GateKind::Dff { init: false } => 12,
        GateKind::Dff { init: true } => 13,
    };
    let mut key = (fanin.len() as u128) << 100 | tag << 96;
    for (slot, f) in fanin.iter().enumerate() {
        key |= u128::from(f.0) << (32 * slot);
    }
    key
}

/// The rustc-hash 2 multiplier (odd, high bit entropy).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiply-rotate hasher for packed keys. The final rotation moves the
/// well-mixed high product bits down to where the table takes its bucket
/// index from.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(26) ^ u64::from(b)).wrapping_mul(K);
        }
    }

    fn write_u128(&mut self, key: u128) {
        let lo = (key as u64).wrapping_mul(K);
        self.0 = (lo.rotate_left(26) ^ (key >> 64) as u64).wrapping_mul(K);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Packed structural key → the first gate registered under it.
#[derive(Debug, Clone, Default)]
pub(crate) struct StrashTable(HashMap<u128, GateId, BuildHasherDefault<KeyHasher>>);

impl StrashTable {
    /// An empty table sized for `gates` entries.
    pub(crate) fn with_capacity(gates: usize) -> StrashTable {
        StrashTable(HashMap::with_capacity_and_hasher(gates, BuildHasherDefault::default()))
    }

    /// The gate registered for `(kind, fanin)`, registering `make()` first
    /// when there is none.
    pub(crate) fn find_or_insert_with(
        &mut self,
        kind: GateKind,
        fanin: &[GateId],
        make: impl FnOnce() -> GateId,
    ) -> GateId {
        match self.0.entry(pack(kind, fanin)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => *e.insert(make()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    const KINDS: [GateKind; 14] = [
        GateKind::Input,
        GateKind::Const0,
        GateKind::Const1,
        GateKind::Buf,
        GateKind::Not,
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Mux,
        GateKind::Dff { init: false },
        GateKind::Dff { init: true },
    ];

    #[test]
    fn pack_is_injective_over_kind_arity_and_full_width_ids() {
        let ids = [0, 1, 2, 0x7fff_ffff, 0x8000_0000, u32::MAX - 1, u32::MAX].map(GateId);
        let mut fanins: Vec<Vec<GateId>> = vec![vec![]];
        for &a in &ids {
            fanins.push(vec![a]);
            for &b in &ids {
                fanins.push(vec![a, b]);
                for &c in &ids {
                    fanins.push(vec![a, b, c]);
                }
            }
        }
        let mut seen = HashSet::new();
        for kind in KINDS {
            for fanin in &fanins {
                assert!(seen.insert(pack(kind, fanin)), "{kind:?} {fanin:?} collides");
            }
        }
        assert_eq!(seen.len(), KINDS.len() * fanins.len());
    }

    #[test]
    fn pack_keeps_every_field_recoverable() {
        let key = pack(GateKind::Dff { init: true }, &[GateId(u32::MAX), GateId(7), GateId(0x8000_0001)]);
        assert_eq!(key as u32, u32::MAX);
        assert_eq!((key >> 32) as u32, 7);
        assert_eq!((key >> 64) as u32, 0x8000_0001);
        assert_eq!((key >> 96) & 0xf, 13);
        assert_eq!(key >> 100, 3);
    }

    #[test]
    #[should_panic(expected = "has no strash key")]
    fn pack_rejects_four_fanins() {
        pack(GateKind::And, &[GateId(0); 4]);
    }

    #[test]
    fn table_returns_the_first_gate_per_key() {
        let mut t = StrashTable::with_capacity(4);
        let (a, b) = (GateId(1), GateId(2));
        assert_eq!(t.find_or_insert_with(GateKind::And, &[a, b], || GateId(10)), GateId(10));
        assert_eq!(t.find_or_insert_with(GateKind::And, &[a, b], || unreachable!()), GateId(10));
        assert_eq!(t.find_or_insert_with(GateKind::Or, &[a, b], || GateId(11)), GateId(11));
        assert_eq!(t.find_or_insert_with(GateKind::And, &[b, a], || GateId(12)), GateId(12));
    }

    #[test]
    fn hasher_is_a_fixed_function_of_the_key() {
        let hash = |key: u128| {
            let mut h = KeyHasher::default();
            h.write_u128(key);
            h.finish()
        };
        let key = pack(GateKind::Mux, &[GateId(3), GateId(4), GateId(5)]);
        assert_eq!(hash(key), 0xb32b_102d_0893_8758, "the same in every process");
        assert_ne!(hash(key), hash(pack(GateKind::Mux, &[GateId(3), GateId(5), GateId(4)])));
    }
}
