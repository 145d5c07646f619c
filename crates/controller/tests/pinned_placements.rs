//! Exact placements of every scheduler on two reference SoCs.
//!
//! Each table lists `core@start/wire_start` in schedule order. The greedy
//! policies and the search share one placer, so a change to it, to the
//! heuristics' priority order, to the annealer's random draws or to the
//! test times the cores book (`CoreDescription::test_time`) shows up here
//! as a changed table, not only as a changed makespan.

use casbus_controller::schedule::{
    packed_schedule, power_aware_schedule, serial_schedule, wave_optimal_schedule,
};
use casbus_controller::search::{search_schedule, SearchBudget};
use casbus_controller::{Schedule, ScheduleError};
use casbus_soc::{catalog, SocDescription};

fn placements(schedule: Result<Schedule, ScheduleError>) -> String {
    let schedule = schedule.expect("the bus fits every core");
    let slots: Vec<String> = schedule
        .tests()
        .iter()
        .map(|t| format!("{}@{}/{}", t.core.0, t.start, t.wire_start))
        .collect();
    slots.join(" ")
}

/// Two cores' worth of test power: binding on both SoCs, whose cores all
/// draw the default 100.
const BINDING_BUDGET: u32 = 200;

/// Serial, packed, wave-optimal, power-aware at [`BINDING_BUDGET`] and
/// searched placements, in that order.
fn check(soc: &SocDescription, n: usize, pins: [&str; 5]) {
    assert!(soc.cores().iter().all(|c| c.test_power() == 100));
    let [serial, packed, wave_optimal, power_binding, searched] = pins;
    assert_eq!(placements(serial_schedule(soc, n)), serial);
    assert_eq!(placements(packed_schedule(soc, n)), packed);
    assert_eq!(placements(wave_optimal_schedule(soc, n)), wave_optimal);
    let binding = power_aware_schedule(soc, n, BINDING_BUDGET);
    assert_eq!(placements(binding), power_binding);
    // Without a binding budget the power-aware packer is the plain one.
    assert_eq!(placements(power_aware_schedule(soc, n, u32::MAX)), packed);
    let smoke = search_schedule(soc, n, SearchBudget::smoke());
    assert_eq!(placements(smoke), searched);
}

#[test]
fn figure1_at_8_wires() {
    check(
        &catalog::figure1_soc(),
        8,
        [
            "0@0/0 1@12462/0 2@18374/0 3@18890/0 4@19147/0 5@19391/0",
            "0@0/0 1@0/4 2@0/6 5@0/7 3@516/6 4@773/6",
            "0@0/0 1@0/4 2@0/6 5@0/7 3@12462/0 4@12462/2",
            "0@0/0 1@0/4 2@5912/4 3@6428/4 4@6685/4 5@6929/4",
            "0@0/0 2@0/4 1@0/5 5@0/7 4@5912/4 3@5912/6",
        ],
    );
}

#[test]
fn itc02_like_at_16_wires() {
    check(
        &catalog::itc02_like_soc(),
        16,
        [
            "0@0/0 1@97250/0 2@173068/0 3@212478/0 7@230034/0 8@234128/0 \
             6@237091/0 4@238629/0 5@239849/0 11@240765/0 9@241322/0 10@241623/0",
            "0@0/0 1@0/4 2@0/7 3@0/9 7@0/13 8@0/15 \
             6@2963/15 4@4094/13 5@4094/14 11@4501/15 9@5058/14 10@5359/13",
            "0@0/0 3@0/4 1@0/8 2@0/11 7@0/13 8@0/15 \
             9@97250/0 10@97250/2 4@97250/4 5@97250/5 6@97250/6 11@97250/7",
            "0@0/0 1@0/4 2@75818/4 3@97250/0 7@114806/0 8@115228/2 \
             6@118191/2 4@118900/0 5@119729/1 11@120120/0 9@120645/1 10@120677/3",
            "9@0/0 8@0/2 6@0/3 10@0/4 1@0/6 0@0/9 11@0/13 2@0/14 7@184/4 \
             4@301/0 5@301/1 3@2963/0",
        ],
    );
}
