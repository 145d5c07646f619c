//! Property-based tests of the behavioural core models.

use casbus_p1500::TestableCore;
use casbus_soc::models::{self, BistCore, ExternalCore, HierarchicalCore, MemoryCore, ScanCore};
use casbus_soc::{catalog, CoreDescription, SocBuilder, TestMethod};
use casbus_tpg::BitVec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Scan chains are pure shift registers between captures: any stimulus
    /// comes back verbatim after chain-length clocks.
    #[test]
    fn scan_shift_is_lossless(
        lengths in proptest::collection::vec(1usize..20, 1..4),
        seed in any::<u64>(),
    ) {
        let mut core = ScanCore::new("prop", lengths.clone());
        let depth = *lengths.iter().max().expect("non-empty");
        let ports = lengths.len();
        let stimuli: Vec<BitVec> = (0..depth)
            .map(|t| (0..ports).map(|j| (seed >> ((t + 3 * j) % 64)) & 1 == 1).collect())
            .collect();
        for stim in &stimuli {
            core.test_clock(stim);
        }
        // Read back: chain j returns its bits after lengths[j] clocks total;
        // compare per chain with the correct per-chain delay.
        let mut observed: Vec<Vec<bool>> = vec![Vec::new(); ports];
        for _ in 0..depth {
            let out = core.test_clock(&BitVec::zeros(ports));
            for (j, chain) in observed.iter_mut().enumerate() {
                chain.push(out.get(j).expect("port"));
            }
        }
        for (j, delay) in lengths.iter().copied().enumerate() {
            for (t, stimulus) in stimuli.iter().enumerate() {
                // Bit driven at clock t emerges at clock t + delay overall;
                // we started reading at clock `depth`.
                let read_index = (t + delay).checked_sub(depth);
                if let Some(r) = read_index {
                    if r < depth {
                        prop_assert_eq!(
                            observed[j][r],
                            stimulus.get(j).expect("port"),
                            "chain {} stimulus {}",
                            j,
                            t
                        );
                    }
                }
            }
        }
    }

    /// The BIST engine is deterministic and every (width, patterns) pair
    /// yields a stable non-trivial signature.
    #[test]
    fn bist_signature_stable(width in 2u32..20, patterns in 1usize..80) {
        let golden_a = BistCore::new("prop", width, patterns).golden_signature();
        let golden_b = BistCore::new("prop", width, patterns).golden_signature();
        prop_assert_eq!(&golden_a, &golden_b);
        prop_assert_eq!(golden_a.len(), width as usize);
    }

    /// The march test detects every possible single stuck cell.
    #[test]
    fn march_detects_any_stuck_cell(words in 1usize..20, width in 1usize..10, pick in any::<u64>(), value in any::<bool>()) {
        let word = (pick as usize) % words;
        let bit = ((pick >> 32) as usize) % width;
        let mut mem = MemoryCore::new("prop", words, width);
        mem.inject_stuck_cell(word, bit, value);
        for _ in 0..mem.march_length() {
            mem.capture_clock();
        }
        prop_assert!(mem.self_test_done());
        prop_assert!(!mem.self_test_passed(), "stuck-at-{value} cell ({word},{bit}) escaped");
    }

    /// External cores respond identically to identical histories.
    #[test]
    fn external_core_deterministic(ports in 1usize..6, stream_seed in any::<u64>(), len in 1usize..30) {
        let stimuli: Vec<BitVec> = (0..len)
            .map(|t| (0..ports).map(|j| (stream_seed >> ((t * 5 + j) % 64)) & 1 == 1).collect())
            .collect();
        let a = ExternalCore::golden_responses("prop", ports, &stimuli);
        let b = ExternalCore::golden_responses("prop", ports, &stimuli);
        prop_assert_eq!(a, b);
    }

    /// Hierarchical scan depth is the sum of sub-core depths, at any width.
    #[test]
    fn hierarchy_depth_adds(d1 in 1usize..10, d2 in 1usize..10, width in 1usize..4) {
        let subs: Vec<Box<dyn TestableCore>> = vec![
            Box::new(ScanCore::new("a", vec![d1; width])),
            Box::new(ScanCore::new("b", vec![d2; width])),
        ];
        let core = HierarchicalCore::new("h", width, subs);
        prop_assert_eq!(core.scan_depth(), d1 + d2);
        prop_assert_eq!(core.test_ports(), width);
    }

    /// `test_clock_into` on a scan core writes exactly its port count into
    /// a stale buffer and matches the word-level path clock for clock,
    /// with captures, resets and stuck-at faults interleaved.
    #[test]
    fn scan_clocks_into_a_stale_buffer_like_its_word_path(
        lengths in proptest::collection::vec(1usize..140, 1..4),
        seed in any::<u64>(),
    ) {
        let make = || ScanCore::new("prop", lengths.clone());
        let inject = |core: &mut ScanCore, roll: u64| {
            let chain = roll as usize % lengths.len();
            let position = (roll >> 8) as usize % lengths[chain];
            core.inject_stuck_at(chain, position, roll >> 63 == 1);
        };
        into_matches_word_path(make, inject, seed)?;
    }

    /// The same contract for an external-test core, whose stuck outputs
    /// take their own per-clock branch of the word-level path.
    #[test]
    fn external_clocks_into_a_stale_buffer_like_its_word_path(
        ports in 1usize..6,
        seed in any::<u64>(),
    ) {
        let make = || ExternalCore::new("prop", ports);
        let inject = |core: &mut ExternalCore, roll: u64| {
            core.inject_stuck_output(roll as usize % ports, roll >> 63 == 1);
        };
        into_matches_word_path(make, inject, seed)?;
    }

    /// The same contract for a hierarchical core threading a scan core and
    /// a BIST core through its reused buffers; a fault swaps a stuck-at
    /// scan core in.
    #[test]
    fn hierarchical_clocks_into_a_stale_buffer_like_its_word_path(
        depth in 1usize..70,
        width in 2usize..4,
        seed in any::<u64>(),
    ) {
        let make = || {
            let subs: Vec<Box<dyn TestableCore>> = vec![
                Box::new(ScanCore::new("a", vec![depth; width])),
                Box::new(BistCore::new("b", 6, 10)),
            ];
            HierarchicalCore::new("h", width, subs)
        };
        let inject = |core: &mut HierarchicalCore, roll: u64| {
            let mut faulty = ScanCore::new("a", vec![depth; width]);
            faulty.inject_stuck_at(roll as usize % width, (roll >> 8) as usize % depth, true);
            *core.sub_core_mut(0) = Box::new(faulty);
        };
        into_matches_word_path(make, inject, seed)?;
    }

    /// BIST and memory cores write exactly their one port into a stale
    /// buffer on every clock of a random mix.
    #[test]
    fn single_port_models_clock_into_a_stale_buffer(seed in any::<u64>()) {
        fold_stale_clocks(&mut BistCore::new("prop", 8, 40), seed, 2, inject_bist)?;
        fold_stale_clocks(&mut MemoryCore::new("prop", 4, 3), seed, 64, inject_memory)?;
    }

    /// The cores of random SoCs follow their methods' depth and port rules.
    #[test]
    fn random_soc_models_follow_their_methods_depth_and_ports(
        seed in any::<u64>(),
        cores in 1usize..15,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for desc in catalog::random_soc(&mut rng, cores, 4).cores() {
            assert_model_follows_its_method(desc);
        }
    }

    /// Random SoCs always validate and always fit a bus of max_ports width.
    #[test]
    fn random_socs_always_fit(seed in any::<u64>(), cores in 1usize..15) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let soc = catalog::random_soc(&mut rng, cores, 4);
        prop_assert_eq!(soc.cores().len(), cores);
        prop_assert!(soc.max_ports() >= 1);
        prop_assert!(soc.max_ports() <= 4);
    }
}

/// `desc` and every sub-core below it, depth first.
fn with_sub_cores(desc: &CoreDescription) -> Vec<&CoreDescription> {
    let mut all = vec![desc];
    if let TestMethod::Hierarchical { sub_cores, .. } = desc.method() {
        all.extend(sub_cores.iter().flat_map(with_sub_cores));
    }
    all
}

/// The depth the session shapes use and the ports the CAS grants are the
/// behavioural model's own.
fn assert_model_follows_its_method(desc: &CoreDescription) {
    let model = models::instantiate(desc);
    let method = desc.method();
    assert_eq!(model.scan_depth(), method.scan_depth(), "{}", desc.name());
    assert_eq!(
        model.test_ports(),
        method.required_ports(),
        "{}",
        desc.name()
    );
}

/// Every catalog core and every hierarchical sub-core, plus a hierarchical
/// core embedding an external and a nested hierarchical sub-core, which no
/// catalog SoC has.
#[test]
fn models_follow_their_methods_depth_and_ports() {
    let socs = [
        catalog::figure1_soc(),
        catalog::figure2a_scan_soc(),
        catalog::figure2b_bist_soc(),
        catalog::figure2c_external_soc(),
        catalog::figure2d_hierarchical_soc(),
        catalog::maintenance_soc(),
        catalog::itc02_like_soc(),
    ];
    let scan = |name: &str, chains: Vec<usize>| {
        CoreDescription::new(
            name,
            TestMethod::Scan {
                chains,
                patterns: 3,
            },
        )
    };
    let nested = CoreDescription::new(
        "nested",
        TestMethod::Hierarchical {
            internal_bus_width: 2,
            sub_cores: vec![scan("inner", vec![7, 5])],
        },
    );
    let mixed = CoreDescription::new(
        "mixed",
        TestMethod::Hierarchical {
            internal_bus_width: 3,
            sub_cores: vec![
                scan("leaf", vec![4, 6, 2]),
                CoreDescription::new(
                    "ext",
                    TestMethod::External {
                        ports: 2,
                        patterns: 8,
                    },
                ),
                nested,
            ],
        },
    );
    let tops = socs.iter().flat_map(|soc| soc.cores()).chain([&mixed]);
    for desc in tops.flat_map(with_sub_cores) {
        assert_model_follows_its_method(desc);
    }
    assert_eq!(mixed.method().scan_depth(), 6 + 1 + 7);
}

#[test]
fn soc_descriptions_reject_structural_nonsense() {
    // A battery of invalid descriptions, all rejected with precise errors.
    use casbus_soc::SocError;
    let zero_chain = SocBuilder::new("x")
        .core(CoreDescription::new(
            "a",
            TestMethod::Scan {
                chains: vec![0],
                patterns: 1,
            },
        ))
        .build();
    assert_eq!(zero_chain, Err(SocError::EmptyScanChain("a".into())));

    let clash = SocBuilder::new("x")
        .core(CoreDescription::new(
            "a",
            TestMethod::Bist {
                width: 4,
                patterns: 1,
            },
        ))
        .core(CoreDescription::new(
            "a",
            TestMethod::Bist {
                width: 4,
                patterns: 1,
            },
        ))
        .build();
    assert_eq!(clash, Err(SocError::DuplicateName("a".into())));
}

/// 1 000 clocks of a BIST core (seed 1) fold to the value the allocating
/// `test_clock` produced before the models clocked into caller buffers.
#[test]
fn bist_outputs_fold_to_their_recorded_value() {
    let mut core = BistCore::new("fold", 8, 40);
    let fold = fold_stale_clocks(&mut core, 1, 2, inject_bist).expect("one port");
    assert_eq!(fold, BIST_FOLD);
}

/// The same for a memory core (seed 2), restarted by a rare one-bit.
#[test]
fn memory_outputs_fold_to_their_recorded_value() {
    let mut core = MemoryCore::new("fold", 4, 3);
    let fold = fold_stale_clocks(&mut core, 2, 64, inject_memory).expect("one port");
    assert_eq!(fold, MEMORY_FOLD);
}

const BIST_FOLD: u64 = 2_089_537_876_634_690_831;
const MEMORY_FOLD: u64 = 8_440_324_189_279_629_294;

fn inject_bist(core: &mut BistCore, roll: u64) {
    core.inject_fault_after(roll as usize % 40);
}

fn inject_memory(core: &mut MemoryCore, roll: u64) {
    core.inject_stuck_cell(roll as usize % 4, (roll >> 8) as usize % 3, roll >> 63 == 1);
}

/// A seeded word stream for the clock mixes.
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(0x5851_f42d_4c95_7f2d)
            .wrapping_add(0x1405_7b7e_f767_814f);
        state ^ (state >> 29)
    }
}

/// A buffer of the wrong length for `ports` outputs, every bit set.
fn stale(ports: usize, roll: u64) -> BitVec {
    if roll & 1 == 0 || ports == 1 {
        BitVec::ones(ports + 1 + (roll >> 1) as usize % 70)
    } else {
        BitVec::ones((roll >> 1) as usize % ports)
    }
}

/// What one step of a clock mix does.
enum Step {
    Capture,
    Reset,
    Inject(u64),
    Clock(u64),
}

/// A quarter captures, one in 64 resets, one in 64 fault injections, the
/// rest test clocks.
fn step(roll: u64) -> Step {
    match roll % 64 {
        0..=15 => Step::Capture,
        16 => Step::Reset,
        17 => Step::Inject(roll >> 6),
        _ => Step::Clock(roll >> 6),
    }
}

/// Drives `fast` through `test_clock_into`, each clock into a stale
/// buffer, and a twin from `make` through `test_clock_words` on the same
/// random batches (1 to 64 clocks), with the same captures, resets and
/// faults interleaved: every output is exactly `test_ports()` wide and
/// every batch's outputs equal the word-level planes.
fn into_matches_word_path<M: TestableCore>(
    make: impl Fn() -> M,
    inject: impl Fn(&mut M, u64),
    seed: u64,
) -> Result<(), TestCaseError> {
    let (mut fast, mut twin) = (make(), make());
    let ports = fast.test_ports();
    let mut next = stream(seed);
    for index in 0..48 {
        let roll = next();
        match step(roll) {
            Step::Capture => {
                fast.capture_clock();
                twin.capture_clock();
            }
            Step::Reset => {
                fast.reset();
                twin.reset();
            }
            Step::Inject(roll) => {
                inject(&mut fast, roll);
                inject(&mut twin, roll);
            }
            Step::Clock(roll) => {
                let cycles = roll as usize % 64 + 1;
                let planes: Vec<u64> = (0..ports).map(|_| next()).collect();
                let mut fast_planes = vec![0u64; ports];
                for t in 0..cycles {
                    let wpi: BitVec = planes.iter().map(|p| (p >> t) & 1 == 1).collect();
                    let mut out = stale(ports, next());
                    fast.test_clock_into(&wpi, &mut out);
                    prop_assert_eq!(out.len(), ports, "step {} cycle {}", index, t);
                    for (j, plane) in fast_planes.iter_mut().enumerate() {
                        *plane |= u64::from(out.get(j) == Some(true)) << t;
                    }
                }
                let twin_planes = twin.test_clock_words(&planes, cycles);
                prop_assert_eq!(fast_planes, twin_planes, "step {} cycles {}", index, cycles);
            }
        }
    }
    Ok(())
}

/// 1 000 steps of a seeded clock mix on a one-port model: each test clock
/// drives a bit that is set one time in `one_in` into a stale buffer and
/// must write exactly one bit. Returns a 64-bit fold of every output.
fn fold_stale_clocks<M: TestableCore>(
    model: &mut M,
    seed: u64,
    one_in: u64,
    inject: impl Fn(&mut M, u64),
) -> Result<u64, TestCaseError> {
    let mut next = stream(seed);
    let mut fold = 0xcbf2_9ce4_8422_2325u64;
    for index in 0..1_000 {
        let roll = next();
        match step(roll) {
            Step::Capture => model.capture_clock(),
            Step::Reset => model.reset(),
            Step::Inject(roll) => inject(model, roll),
            Step::Clock(roll) => {
                let mut wpi = BitVec::new();
                wpi.push(roll % one_in == 0);
                let mut out = stale(1, next());
                model.test_clock_into(&wpi, &mut out);
                prop_assert_eq!(out.len(), 1, "step {}", index);
                fold = (fold ^ out.to_u64()).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    Ok(fold)
}
