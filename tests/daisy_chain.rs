//! Serial concatenation of cores on a *shared* bus wire — the CAS-BUS idiom
//! behind the paper's §4 note that the test programmer can configure the
//! test chains to optimize interconnect/test time: two CASes claiming the
//! same wire put their cores in series, like one long scan path.

use casbus_suite::casbus::TamConfiguration;
use casbus_suite::casbus_p1500::TestableCore;
use casbus_suite::casbus_p1500::WrapperInstruction;
use casbus_suite::casbus_sim::{ClockKind, SocSimulator};
use casbus_suite::casbus_soc::{models, CoreDescription, SocBuilder, TestMethod};
use casbus_suite::casbus_tpg::BitVec;

fn daisy_soc() -> casbus_suite::casbus_soc::SocDescription {
    SocBuilder::new("daisy")
        .core(CoreDescription::new(
            "front",
            TestMethod::Scan {
                chains: vec![5],
                patterns: 4,
            },
        ))
        .core(CoreDescription::new(
            "back",
            TestMethod::Scan {
                chains: vec![7],
                patterns: 4,
            },
        ))
        .build()
        .expect("valid")
}

#[test]
fn shared_wire_concatenates_two_scan_cores() {
    let soc = daisy_soc();
    let mut sim = SocSimulator::new(&soc, 2).expect("fits");

    // Both CASes claim wire 0 — deliberately NOT exclusive.
    let mut config = TamConfiguration::all_bypass(2);
    config
        .set(0, sim.tam().explicit_test(0, vec![0]).expect("fits"))
        .unwrap();
    config
        .set(1, sim.tam().explicit_test(1, vec![0]).expect("fits"))
        .unwrap();
    sim.configure(&config, &[WrapperInstruction::IntestScan; 2])
        .expect("configures");
    assert_eq!(
        sim.tam().chain().shared_wires(),
        vec![(0, vec![0, 1])],
        "the chain must report the deliberate sharing"
    );

    // Golden: the two scan models composed in series with the retiming
    // register's one-cycle delay between them.
    let mut front = models::ScanCore::new("front", vec![5]);
    let mut back = models::ScanCore::new("back", vec![7]);
    let mut front_delay = false;

    let stimulus: Vec<bool> = (0..40).map(|t| t % 3 == 0 || t % 7 == 2).collect();
    let kinds = vec![ClockKind::Shift; 2];
    let mut expected_tail = Vec::new();
    let mut observed_tail = Vec::new();
    for &bit in &stimulus {
        // Golden composition: front sees the bus bit; back sees front's
        // previous output (pending register); the wire after CAS1 carries
        // back's previous output... which is CAS1's pending, i.e. back's
        // output from last cycle.
        let mut v = BitVec::new();
        v.push(bit);
        let front_out = front.test_clock(&v).get(0).unwrap();
        let mut v2 = BitVec::new();
        v2.push(front_delay);
        let back_out = back.test_clock(&v2).get(0).unwrap();
        front_delay = front_out;
        expected_tail.push(back_out);

        let mut bus = BitVec::zeros(2);
        bus.set(0, bit);
        let out = sim.data_clock(&bus, &kinds).expect("clocks");
        observed_tail.push(out.get(0).unwrap());
    }
    // The bus observation lags the golden back-core output by one cycle
    // (back's own pending register).
    assert_eq!(
        &observed_tail[1..],
        &expected_tail[..expected_tail.len() - 1],
        "serial concatenation must behave as one long delayed chain"
    );
}

#[test]
fn concatenated_path_total_depth() {
    // A single 1 injected into the shared wire re-emerges after
    // 5 (front) + 1 (retime) + 7 (back) + 1 (retime) = 14 cycles.
    let soc = daisy_soc();
    let mut sim = SocSimulator::new(&soc, 2).expect("fits");
    let mut config = TamConfiguration::all_bypass(2);
    config
        .set(0, sim.tam().explicit_test(0, vec![0]).unwrap())
        .unwrap();
    config
        .set(1, sim.tam().explicit_test(1, vec![0]).unwrap())
        .unwrap();
    sim.configure(&config, &[WrapperInstruction::IntestScan; 2])
        .unwrap();

    let kinds = vec![ClockKind::Shift; 2];
    let mut first_seen = None;
    for t in 0..20 {
        let mut bus = BitVec::zeros(2);
        if t == 0 {
            bus.set(0, true);
        }
        let out = sim.data_clock(&bus, &kinds).unwrap();
        if out.get(0) == Some(true) && first_seen.is_none() {
            first_seen = Some(t);
        }
    }
    assert_eq!(first_seen, Some(14));
}

#[test]
fn wire_one_stays_free_for_another_core() {
    // While the two cores share wire 0, wire 1 still bypasses end to end —
    // the rest of the bus is unaffected by the concatenation.
    let soc = daisy_soc();
    let mut sim = SocSimulator::new(&soc, 2).expect("fits");
    let mut config = TamConfiguration::all_bypass(2);
    config
        .set(0, sim.tam().explicit_test(0, vec![0]).unwrap())
        .unwrap();
    config
        .set(1, sim.tam().explicit_test(1, vec![0]).unwrap())
        .unwrap();
    sim.configure(&config, &[WrapperInstruction::IntestScan; 2])
        .unwrap();
    let kinds = vec![ClockKind::Shift; 2];
    for t in 0..10u32 {
        let mut bus = BitVec::zeros(2);
        bus.set(1, t % 2 == 0);
        let out = sim.data_clock(&bus, &kinds).unwrap();
        assert_eq!(out.get(1), Some(t % 2 == 0), "wire 1 bypasses");
    }
}

#[test]
fn boxed_models_match_plain_models() {
    // Sanity for the golden used above: instantiate() and direct
    // construction agree.
    let desc = CoreDescription::new(
        "front",
        TestMethod::Scan {
            chains: vec![5],
            patterns: 4,
        },
    );
    let mut boxed = models::instantiate(&desc);
    let mut plain = models::ScanCore::new("front", vec![5]);
    for t in 0..12u32 {
        let mut v = BitVec::new();
        v.push(t % 2 == 0);
        assert_eq!(boxed.test_clock(&v), plain.test_clock(&v));
    }
}
