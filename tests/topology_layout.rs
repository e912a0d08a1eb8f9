//! Node numbering and layer order of every construction, pinned where
//! tier-1 sees it.
//!
//! Node ids set the simulator's arena slot order and routing table, and
//! through them every golden trace and committed table. A change to how
//! a `Topology` is stored or how a construction lays out its balancers
//! must keep each network's text form, DOT form and per-layer node
//! order bit for bit. The digests below were computed before the
//! topology was stored as flat arrays.

use counting_networks::topology::{constructions, io, Topology};

/// FNV-1a over bytes and little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// Folds one network's text form, DOT form and every layer's node list
/// into `h`.
fn fold(h: &mut Fnv, net: &Topology) {
    h.bytes(io::to_text(net).as_bytes());
    h.bytes(net.to_dot().as_bytes());
    for l in 1..=net.depth() {
        h.word(l as u64);
        for node in net.layer(l) {
            h.word(node.index() as u64);
        }
    }
}

/// Digest of each network in `nets`, then of each padded by three
/// 1-in/1-out balancers per input.
fn digest(nets: impl IntoIterator<Item = Topology>) -> u64 {
    let mut h = Fnv::new();
    for net in nets {
        fold(&mut h, &net);
        fold(&mut h, &constructions::pad_inputs(&net, 3).unwrap());
    }
    h.0
}

const WIDTHS: [usize; 6] = [2, 4, 8, 16, 32, 64];

#[test]
fn every_construction_keeps_its_node_numbering() {
    let by_name = |kind: &'static str| {
        digest(
            WIDTHS
                .iter()
                .map(move |&w| constructions::by_name(kind, w, 2).unwrap()),
        )
    };
    let moved = [
        ("bitonic", by_name("bitonic"), 0x0805_67ce_5bcb_d71f_u64),
        ("periodic", by_name("periodic"), 0x31d1_c52c_225e_95dc),
        ("tree", by_name("tree"), 0xb779_ba7d_1f39_ac9c),
        ("merger", by_name("merger"), 0x6e45_5546_9c0e_fbb4),
        ("block", by_name("block"), 0x153f_43fa_7e29_3ee6),
        ("single", by_name("single"), 0x45ea_d379_05ca_1c41),
        (
            "tree_d",
            digest(
                [(9, 3), (27, 3), (16, 4)]
                    .map(|(w, d)| constructions::counting_tree_d(w, d).unwrap()),
            ),
            0xbbeb_0296_45e3_acc1,
        ),
    ]
    .into_iter()
    .filter(|&(_, got, expected)| got != expected)
    .map(|(name, got, _)| format!("{name}: got {got:#018x}"))
    .collect::<Vec<_>>();
    assert!(
        moved.is_empty(),
        "the node numbering or layer order moved: {moved:#?}"
    );
}
