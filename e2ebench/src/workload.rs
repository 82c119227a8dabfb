//! The four workloads: their shapes, why each exists, and the seeded,
//! fixed-length operation sequence a run executes.
//!
//! The program under test receives only generated requests; everything
//! here is a pure function of `(workload, seed, length)`, so a run does
//! the same work on every commit and two runs with one seed can be
//! compared count for count.

/// Assemblies under each seeded root, and parts under each assembly.
pub const FANOUT: usize = 8;
/// Bytes in every part payload (seed data and rewrites alike, so an
/// update is an in-place rewrite).
pub const PAYLOAD_LEN: usize = 70;
/// Roots each connection owns on the workloads with private partitions.
pub const PRIVATE_ROOTS: usize = 100;
/// Hot composites all `mixed` traffic lands on (fits the buffer pool).
pub const MIXED_HOT_ROOTS: usize = 16;
/// Share of every sequence that is warm-up, excluded from timings.
pub const WARMUP_SHARE: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    DurableUpdate,
    Traverse,
    Mixed,
}

/// Size and device model of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Seeded roots (each with FANOUT assemblies of FANOUT parts).
    pub roots: usize,
    /// Operations per second of `--seconds`, i.e. the rate of the seed
    /// code on the 2-core sandbox: the sequence length is this times
    /// `--seconds`, fixed for every commit measured afterwards.
    pub ops_per_second: f64,
    /// Share of the sequence the one-connection depth passes execute.
    pub depth_share: f64,
    /// Modelled latency added to every log sync during the run.
    pub sync_latency_us: u64,
    /// Operations address the executing connection's own roots.
    pub private: bool,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Ingest,
        Workload::DurableUpdate,
        Workload::Traverse,
        Workload::Mixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::DurableUpdate => "durable-update",
            Workload::Traverse => "traverse",
            Workload::Mixed => "mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn shape(self) -> Shape {
        match self {
            Workload::Ingest => Shape {
                roots: 2 * PRIVATE_ROOTS,
                ops_per_second: 2_400.0,
                depth_share: 0.10,
                sync_latency_us: 0,
                private: true,
            },
            Workload::DurableUpdate => Shape {
                roots: 2 * PRIVATE_ROOTS,
                ops_per_second: 800.0,
                depth_share: 0.08,
                sync_latency_us: 1_000,
                private: true,
            },
            Workload::Traverse => Shape {
                roots: 400,
                ops_per_second: 18_400.0,
                depth_share: 0.05,
                sync_latency_us: 0,
                private: false,
            },
            Workload::Mixed => Shape {
                roots: 2 * PRIVATE_ROOTS,
                ops_per_second: 9_300.0,
                depth_share: 0.06,
                sync_latency_us: 0,
                private: false,
            },
        }
    }

    /// True if the workload commits transactions.
    pub fn writes(self) -> bool {
        self != Workload::Traverse
    }
}

/// A part by position in the seeded hierarchy. On private-partition
/// workloads `root` is relative to the executing connection's first root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartAddr {
    pub root: u32,
    pub asm: u8,
    pub part: u8,
}

/// One operation of the sequence: a whole transaction or one read request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `Begin`, `Make Asm` under a root, 3 × `Make Part` under it, `Commit`.
    Ingest {
        root: u32,
        payloads: [String; 3],
    },
    /// `Begin`, one `SetAttr payload` per write in the given order, `Commit`.
    Update {
        writes: Vec<(PartAddr, String)>,
    },
    Subtree {
        root: u32,
    },
    Components {
        root: u32,
        asm: u8,
    },
    Ancestors(PartAddr),
    Get(PartAddr),
}

/// What a latency sample is a sample of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    Txn,
    Subtree,
    Components,
    Ancestors,
    Get,
}

impl OpKind {
    pub const ALL: [OpKind; 5] = [
        OpKind::Txn,
        OpKind::Subtree,
        OpKind::Components,
        OpKind::Ancestors,
        OpKind::Get,
    ];

    pub fn is_read(self) -> bool {
        self != OpKind::Txn
    }

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Txn => "txn",
            OpKind::Subtree => "subtree",
            OpKind::Components => "components",
            OpKind::Ancestors => "ancestors",
            OpKind::Get => "get",
        }
    }
}

impl Op {
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Ingest { .. } | Op::Update { .. } => OpKind::Txn,
            Op::Subtree { .. } => OpKind::Subtree,
            Op::Components { .. } => OpKind::Components,
            Op::Ancestors(_) => OpKind::Ancestors,
            Op::Get(_) => OpKind::Get,
        }
    }
}

/// SplitMix64: small, seedable, and owned by the benchmark so that the
/// sequence never changes because a vendored crate did.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// A PAYLOAD_LEN-byte printable payload drawn from `rng`.
pub fn payload(rng: &mut Rng) -> String {
    const ALPHABET: &[u8; 64] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_";
    let mut s = String::with_capacity(PAYLOAD_LEN);
    let mut bits = 0u64;
    for i in 0..PAYLOAD_LEN {
        if i % 10 == 0 {
            bits = rng.next_u64();
        }
        s.push(ALPHABET[(bits & 63) as usize] as char);
        bits >>= 6;
    }
    s
}

/// The payload a seeded part starts with.
pub fn seed_payload(seed: u64, addr: PartAddr) -> String {
    let key = (addr.root as u64) << 16 | (addr.asm as u64) << 8 | addr.part as u64;
    payload(&mut Rng::new(
        seed ^ key.wrapping_mul(0xD6E8_FEB8_6659_FD93),
    ))
}

/// The generated sequence with its identity.
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub shape: Shape,
    pub ops: Vec<Op>,
    /// FNV-1a over the canonical encoding of `ops`.
    pub hash: u64,
}

impl Plan {
    /// Generates the sequence for `seconds` of seed-code work.
    pub fn generate(workload: Workload, seed: u64, seconds: f64) -> Plan {
        let shape = workload.shape();
        let len = ((shape.ops_per_second * seconds).round() as usize).max(40);
        let tag = workload
            .name()
            .bytes()
            .fold(0u64, |h, b| h * 131 + b as u64);
        let mut rng = Rng::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ tag);
        let ops: Vec<Op> = (0..len)
            .map(|_| generate_op(workload, &shape, &mut rng))
            .collect();
        let hash = hash_ops(&ops);
        Plan {
            workload,
            seed,
            shape,
            ops,
            hash,
        }
    }

    /// Leading operations excluded from every timing.
    pub fn warmup(&self, executed: usize) -> usize {
        (executed as f64 * WARMUP_SHARE) as usize
    }

    /// Operations each one-connection depth pass executes.
    pub fn depth_ops(&self) -> usize {
        ((self.ops.len() as f64 * self.shape.depth_share) as usize).clamp(20, self.ops.len())
    }
}

fn part_addr(rng: &mut Rng, root: usize) -> PartAddr {
    PartAddr {
        root: root as u32,
        asm: rng.below(FANOUT) as u8,
        part: rng.below(FANOUT) as u8,
    }
}

fn generate_op(workload: Workload, shape: &Shape, rng: &mut Rng) -> Op {
    match workload {
        Workload::Ingest => Op::Ingest {
            root: rng.below(PRIVATE_ROOTS) as u32,
            payloads: [payload(rng), payload(rng), payload(rng)],
        },
        Workload::DurableUpdate => {
            let root = rng.below(PRIVATE_ROOTS);
            Op::Update {
                writes: vec![(part_addr(rng, root), payload(rng))],
            }
        }
        Workload::Traverse => {
            // 80 % of keys from the hot tenth of the roots (fits the
            // pool), 20 % uniform over all of them (spills it).
            let root = if rng.below(100) < 80 {
                rng.below(shape.roots / 10)
            } else {
                rng.below(shape.roots)
            };
            match rng.below(100) {
                0..=39 => Op::Subtree { root: root as u32 },
                40..=69 => Op::Components {
                    root: root as u32,
                    asm: rng.below(FANOUT) as u8,
                },
                70..=89 => Op::Ancestors(part_addr(rng, root)),
                _ => Op::Get(part_addr(rng, root)),
            }
        }
        Workload::Mixed => {
            if rng.below(2) == 0 {
                let root = rng.below(MIXED_HOT_ROOTS);
                match rng.below(100) {
                    0..=49 => Op::Subtree { root: root as u32 },
                    50..=79 => Op::Components {
                        root: root as u32,
                        asm: rng.below(FANOUT) as u8,
                    },
                    _ => Op::Get(part_addr(rng, root)),
                }
            } else {
                // Two distinct hot composites in seeded (not sorted)
                // order, so lock-order inversions — and deadlocks — occur.
                let first = rng.below(MIXED_HOT_ROOTS);
                let second = (first + 1 + rng.below(MIXED_HOT_ROOTS - 1)) % MIXED_HOT_ROOTS;
                Op::Update {
                    writes: vec![
                        (part_addr(rng, first), payload(rng)),
                        (part_addr(rng, second), payload(rng)),
                    ],
                }
            }
        }
    }
}

fn hash_ops(ops: &[Op]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    let addr = |a: &PartAddr| [a.root.to_le_bytes().as_slice(), &[a.asm, a.part]].concat();
    for op in ops {
        match op {
            Op::Ingest { root, payloads } => {
                eat(&[1]);
                eat(&root.to_le_bytes());
                payloads.iter().for_each(|p| eat(p.as_bytes()));
            }
            Op::Update { writes } => {
                eat(&[2, writes.len() as u8]);
                for (a, p) in writes {
                    eat(&addr(a));
                    eat(p.as_bytes());
                }
            }
            Op::Subtree { root } => {
                eat(&[3]);
                eat(&root.to_le_bytes());
            }
            Op::Components { root, asm } => {
                eat(&[4, *asm]);
                eat(&root.to_le_bytes());
            }
            Op::Ancestors(a) => {
                eat(&[5]);
                eat(&addr(a));
            }
            Op::Get(a) => {
                eat(&[6]);
                eat(&addr(a));
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_different_seed_different_sequence() {
        for w in Workload::ALL {
            let a = Plan::generate(w, 7, 0.5);
            let b = Plan::generate(w, 7, 0.5);
            let c = Plan::generate(w, 8, 0.5);
            assert_eq!(a.hash, b.hash, "{}", w.name());
            assert_eq!(a.ops, b.ops);
            assert_ne!(a.hash, c.hash, "{}", w.name());
        }
        // Workloads do not share a sequence either.
        assert_ne!(
            Plan::generate(Workload::Ingest, 7, 0.5).hash,
            Plan::generate(Workload::DurableUpdate, 7, 0.5).hash
        );
    }

    #[test]
    fn a_longer_run_extends_the_same_sequence() {
        let short = Plan::generate(Workload::Mixed, 3, 0.5);
        let long = Plan::generate(Workload::Mixed, 3, 1.0);
        assert_eq!(long.ops[..short.ops.len()], short.ops[..]);
    }

    #[test]
    fn payloads_have_the_fixed_length_and_seed_payloads_are_stable() {
        let mut rng = Rng::new(1);
        assert_eq!(payload(&mut rng).len(), PAYLOAD_LEN);
        let a = PartAddr {
            root: 3,
            asm: 1,
            part: 2,
        };
        assert_eq!(seed_payload(9, a), seed_payload(9, a));
        assert_ne!(seed_payload(9, a), seed_payload(10, a));
    }

    #[test]
    fn mixed_updates_touch_two_distinct_hot_composites() {
        let plan = Plan::generate(Workload::Mixed, 11, 1.0);
        let mut updates = 0;
        for op in &plan.ops {
            if let Op::Update { writes } = op {
                updates += 1;
                assert_eq!(writes.len(), 2);
                assert_ne!(writes[0].0.root, writes[1].0.root);
                assert!(writes
                    .iter()
                    .all(|(a, _)| (a.root as usize) < MIXED_HOT_ROOTS));
            }
        }
        let share = updates as f64 / plan.ops.len() as f64;
        assert!((0.45..0.55).contains(&share), "{share}");
    }

    #[test]
    fn traverse_mix_and_hot_set_are_as_declared() {
        let plan = Plan::generate(Workload::Traverse, 5, 1.0);
        let hot = plan.shape.roots as u32 / 10;
        let (mut subtree, mut in_hot) = (0usize, 0usize);
        for op in &plan.ops {
            let root = match op {
                Op::Subtree { root } => {
                    subtree += 1;
                    *root
                }
                Op::Components { root, .. } => *root,
                Op::Ancestors(a) | Op::Get(a) => a.root,
                _ => panic!("traverse must not write"),
            };
            if root < hot {
                in_hot += 1;
            }
        }
        let n = plan.ops.len() as f64;
        assert!((0.38..0.42).contains(&(subtree as f64 / n)));
        // 80 % aimed at the hot tenth plus a tenth of the uniform 20 %.
        assert!((0.80..0.84).contains(&(in_hot as f64 / n)));
    }
}
