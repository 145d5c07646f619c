//! The complete P1500-style wrapper: WIR + bypass + boundary + wrapped core.

use casbus_tpg::BitVec;

use crate::boundary::BoundaryRegister;
use crate::core::TestableCore;
use crate::wir::{Wir, WrapperInstruction};

/// Per-clock wrapper control signals, driven by the SoC test controller
/// (the paper's central controller synchronises these with the CAS control
/// signals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WrapperControl {
    /// Route the serial path through the WIR instead of the selected data
    /// register.
    pub select_wir: bool,
    /// Shift the selected register by one bit this clock.
    pub shift: bool,
    /// Capture functional/response values into the selected register.
    pub capture: bool,
    /// Transfer shift stages into update/hold stages.
    pub update: bool,
}

impl WrapperControl {
    /// Control word for one shift clock on the selected data register.
    pub fn shift_data() -> Self {
        Self {
            shift: true,
            ..Self::default()
        }
    }

    /// Control word for one shift clock on the WIR.
    pub fn shift_wir() -> Self {
        Self {
            select_wir: true,
            shift: true,
            ..Self::default()
        }
    }

    /// Control word updating the WIR after shifting.
    pub fn update_wir() -> Self {
        Self {
            select_wir: true,
            update: true,
            ..Self::default()
        }
    }

    /// Control word for a capture clock on the data register.
    pub fn capture_data() -> Self {
        Self {
            capture: true,
            ..Self::default()
        }
    }

    /// Control word for an update clock on the data register.
    pub fn update_data() -> Self {
        Self {
            update: true,
            ..Self::default()
        }
    }
}

/// A P1500-style wrapper around a [`TestableCore`].
///
/// The wrapper owns:
///
/// * the wrapper instruction register ([`Wir`]),
/// * the 1-bit bypass register (WBY),
/// * the wrapper boundary register ([`BoundaryRegister`]) sized to the
///   core's functional terminal counts,
/// * the core itself.
///
/// Two access paths exist, matching the paper's architecture:
///
/// * the **serial path** ([`Wrapper::clock_serial`]) used during the
///   CONFIGURATION phase (WIR loading, optionally daisy-chained with the CAS
///   instruction register) and for EXTEST/bypass data,
/// * the **parallel path** ([`Wrapper::clock_parallel`]), `P` bits wide,
///   which is what the CAS routes the selected test bus wires to during the
///   TEST phase.
///
/// # Examples
///
/// ```
/// use casbus_p1500::{Wrapper, WrapperControl, WrapperInstruction, TestableCore};
/// use casbus_tpg::BitVec;
///
/// // Any TestableCore works; see casbus-soc for real core models.
/// # struct Nop;
/// # impl TestableCore for Nop {
/// #     fn name(&self) -> &str { "nop" }
/// #     fn test_ports(&self) -> usize { 1 }
/// #     fn test_clock_into(&mut self, i: &BitVec, o: &mut BitVec) { o.copy_from(i) }
/// #     fn capture_clock(&mut self) {}
/// #     fn scan_depth(&self) -> usize { 1 }
/// #     fn reset(&mut self) {}
/// # }
/// let mut wrapper = Wrapper::new(Nop, 4, 4);
/// wrapper.apply_instruction(WrapperInstruction::IntestScan);
/// assert_eq!(wrapper.instruction(), WrapperInstruction::IntestScan);
/// ```
#[derive(Debug, Clone)]
pub struct Wrapper<C> {
    wir: Wir,
    wby: bool,
    wbr: BoundaryRegister,
    core: C,
    extest_inputs: BitVec,
}

impl<C: TestableCore> Wrapper<C> {
    /// Wraps `core`, building a boundary register with `functional_inputs`
    /// input cells and `functional_outputs` output cells.
    pub fn new(core: C, functional_inputs: usize, functional_outputs: usize) -> Self {
        Self {
            wir: Wir::new(),
            wby: false,
            wbr: BoundaryRegister::new(functional_inputs, functional_outputs),
            core,
            extest_inputs: BitVec::zeros(functional_inputs),
        }
    }

    /// The wrapped core's name.
    pub fn core_name(&self) -> &str {
        self.core.name()
    }

    /// Immutable access to the wrapped core.
    pub fn core(&self) -> &C {
        &self.core
    }

    /// The active wrapper instruction.
    pub fn instruction(&self) -> WrapperInstruction {
        self.wir.instruction()
    }

    /// The boundary register.
    pub fn boundary(&self) -> &BoundaryRegister {
        &self.wbr
    }

    /// Width of the parallel test port: the core's port count in INTEST
    /// modes, 1 in EXTEST (the WBR is a single serial chain), 1 otherwise.
    pub fn parallel_width(&self) -> usize {
        match self.instruction() {
            WrapperInstruction::IntestScan | WrapperInstruction::IntestBist => {
                self.core.test_ports()
            }
            _ => 1,
        }
    }

    /// Serial depth of one shift-load in the current mode: the longest core
    /// chain in INTEST, the WBR length in EXTEST, 1 in bypass modes.
    pub fn shift_depth(&self) -> usize {
        match self.instruction() {
            WrapperInstruction::IntestScan | WrapperInstruction::IntestBist => {
                self.core.scan_depth()
            }
            WrapperInstruction::Extest => self.wbr.len(),
            WrapperInstruction::Normal | WrapperInstruction::Bypass => 1,
        }
    }

    /// Values present at the core's functional input terminals, captured by
    /// the WBR input cells in EXTEST (driven by the SoC interconnect model).
    pub fn set_extest_inputs(&mut self, values: BitVec) {
        assert_eq!(
            values.len(),
            self.wbr.input_count(),
            "extest input width mismatch"
        );
        self.extest_inputs = values;
    }

    /// Loads and activates an instruction directly (shift LSB-first, then
    /// update) — the shortcut used when the wrapper is configured
    /// independently of the CAS chain (§3.1: "The system test engineer may
    /// configure the wrapper independently").
    pub fn apply_instruction(&mut self, instruction: WrapperInstruction) {
        for bit in instruction.opcode_bits().iter() {
            self.clock_serial(bit, &WrapperControl::shift_wir());
        }
        self.clock_serial(false, &WrapperControl::update_wir());
    }

    /// One clock on the serial path (WSI → WSO).
    ///
    /// With `select_wir` the serial bit shifts through the WIR; otherwise it
    /// shifts through the register the active instruction selects: WBY in
    /// NORMAL/BYPASS, the WBR in EXTEST, the concatenated parallel port in
    /// INTEST modes (modelled as the bypass register, since the CAS uses the
    /// parallel path for INTEST data).
    pub fn clock_serial(&mut self, wsi: bool, ctrl: &WrapperControl) -> bool {
        if ctrl.select_wir {
            let mut out = false;
            if ctrl.shift {
                out = self.wir.shift(wsi);
            }
            if ctrl.update {
                self.wir.update();
            }
            return out;
        }
        match self.instruction() {
            WrapperInstruction::Extest => {
                let mut out = false;
                if ctrl.capture {
                    let mut snapshot = self.extest_inputs.clone();
                    // Output cells capture the core-side values; the
                    // behavioural core model does not expose functional
                    // outputs, so they capture 0.
                    snapshot.extend(std::iter::repeat_n(false, self.wbr.output_count()));
                    self.wbr.capture(&snapshot);
                }
                if ctrl.shift {
                    out = self.wbr.shift(wsi);
                }
                if ctrl.update {
                    self.wbr.update();
                }
                out
            }
            _ => {
                let out = self.wby;
                if ctrl.shift {
                    self.wby = wsi;
                }
                out
            }
        }
    }

    /// One clock on the parallel path (WPI → WPO), `parallel_width()` bits.
    ///
    /// In INTEST modes a `shift` clock moves every core chain by one bit; a
    /// `capture` clock fires the core's functional capture. In EXTEST wire 0
    /// shifts the WBR. In NORMAL/BYPASS the port is inactive and returns
    /// zeros (the CAS keeps those wires on its internal bypass anyway).
    ///
    /// # Panics
    ///
    /// Panics if `wpi.len()` differs from [`Wrapper::parallel_width`].
    pub fn clock_parallel(&mut self, wpi: &BitVec, ctrl: &WrapperControl) -> BitVec {
        let mut wpo = BitVec::new();
        self.clock_parallel_into(wpi, ctrl, &mut wpo);
        wpo
    }

    /// [`Wrapper::clock_parallel`] into the caller's buffer: `wpo` holds
    /// exactly `parallel_width()` bits afterwards, whatever it held before.
    /// INTEST clocks hand `wpo` to the core's
    /// [`test_clock_into`](TestableCore::test_clock_into), so a caller
    /// that reuses one buffer per wrapper clocks without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `wpi.len()` differs from [`Wrapper::parallel_width`].
    pub fn clock_parallel_into(&mut self, wpi: &BitVec, ctrl: &WrapperControl, wpo: &mut BitVec) {
        let width = self.parallel_width();
        assert_eq!(
            wpi.len(),
            width,
            "parallel port width mismatch on core {}",
            self.core.name()
        );
        match self.instruction() {
            WrapperInstruction::IntestScan | WrapperInstruction::IntestBist => {
                if ctrl.capture {
                    self.core.capture_clock();
                }
                if ctrl.shift {
                    self.core.test_clock_into(wpi, wpo);
                    return;
                }
            }
            WrapperInstruction::Extest => {
                if ctrl.capture {
                    let mut snapshot = self.extest_inputs.clone();
                    snapshot.extend(std::iter::repeat_n(false, self.wbr.output_count()));
                    self.wbr.capture(&snapshot);
                }
                let out = ctrl.shift && self.wbr.shift(wpi.get(0).unwrap_or(false));
                if ctrl.update {
                    self.wbr.update();
                }
                wpo.clear();
                wpo.push(out);
                return;
            }
            WrapperInstruction::Normal | WrapperInstruction::Bypass => {}
        }
        wpo.clear();
        wpo.resize(width, false);
    }

    /// Runs up to 64 consecutive *shift* clocks on the parallel path in one
    /// call. `inputs` holds one plane per parallel port; bit `t` of plane
    /// `j` is the port-`j` WPI value at cycle `t`, and the returned planes
    /// carry the WPO values in the same layout.
    ///
    /// Behaviourally identical to `cycles` calls of
    /// [`Wrapper::clock_parallel`] with [`WrapperControl::shift_data`]; the
    /// word-level session engine uses it to stream scan data 64 cycles at
    /// a time. INTEST modes go straight to the core's word-level path;
    /// EXTEST falls back to the per-cycle WBR shift, and in NORMAL/BYPASS
    /// the port is inactive and all-zero planes come back.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`Wrapper::parallel_width`]
    /// or `cycles > 64`.
    pub fn clock_parallel_words(&mut self, inputs: &[u64], cycles: usize) -> Vec<u64> {
        assert_eq!(
            inputs.len(),
            self.parallel_width(),
            "parallel port width mismatch on core {}",
            self.core.name()
        );
        assert!(
            cycles <= 64,
            "clock_parallel_words supports at most 64 cycles, got {cycles}"
        );
        match self.instruction() {
            WrapperInstruction::IntestScan | WrapperInstruction::IntestBist => {
                self.core.test_clock_words(inputs, cycles)
            }
            WrapperInstruction::Extest => {
                let ctrl = WrapperControl::shift_data();
                let (mut wpi, mut wpo) = (BitVec::zeros(1), BitVec::new());
                let mut out = 0u64;
                for t in 0..cycles {
                    wpi.set(0, (inputs[0] >> t) & 1 == 1);
                    self.clock_parallel_into(&wpi, &ctrl, &mut wpo);
                    if wpo.get(0) == Some(true) {
                        out |= 1 << t;
                    }
                }
                vec![out]
            }
            WrapperInstruction::Normal | WrapperInstruction::Bypass => vec![0u64; inputs.len()],
        }
    }

    /// Resets the wrapper and the core to power-on state.
    pub fn reset(&mut self) {
        self.wir.reset();
        self.wby = false;
        let (i, o) = (self.wbr.input_count(), self.wbr.output_count());
        self.wbr = BoundaryRegister::new(i, o);
        self.core.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::test_support::ShiftCore;

    fn wrapper() -> Wrapper<ShiftCore> {
        Wrapper::new(ShiftCore::new("u0", 2, 4), 3, 2)
    }

    #[test]
    fn starts_in_normal_mode() {
        let w = wrapper();
        assert_eq!(w.instruction(), WrapperInstruction::Normal);
        assert_eq!(w.parallel_width(), 1);
        assert_eq!(w.shift_depth(), 1);
    }

    #[test]
    fn apply_instruction_switches_mode() {
        let mut w = wrapper();
        w.apply_instruction(WrapperInstruction::IntestScan);
        assert_eq!(w.instruction(), WrapperInstruction::IntestScan);
        assert_eq!(w.parallel_width(), 2);
        assert_eq!(w.shift_depth(), 4);
    }

    #[test]
    fn bypass_serial_is_one_cycle_delay() {
        let mut w = wrapper();
        w.apply_instruction(WrapperInstruction::Bypass);
        let ctrl = WrapperControl::shift_data();
        assert!(!w.clock_serial(true, &ctrl));
        assert!(w.clock_serial(false, &ctrl));
        assert!(!w.clock_serial(false, &ctrl));
    }

    #[test]
    fn intest_scan_parallel_shifts_chains() {
        let mut w = wrapper();
        w.apply_instruction(WrapperInstruction::IntestScan);
        let ctrl = WrapperControl::shift_data();
        // Shift 4 bits into each 4-deep chain, then 4 more to read them back.
        let data = ["11", "01", "10", "11"];
        for d in data {
            w.clock_parallel(&d.parse().unwrap(), &ctrl);
        }
        let mut seen = Vec::new();
        for _ in 0..4 {
            seen.push(w.clock_parallel(&"00".parse().unwrap(), &ctrl).to_string());
        }
        assert_eq!(seen, vec!["11", "01", "10", "11"]);
    }

    #[test]
    fn intest_capture_fires_core_capture() {
        let mut w = wrapper();
        w.apply_instruction(WrapperInstruction::IntestScan);
        w.clock_parallel(&"00".parse().unwrap(), &WrapperControl::capture_data());
        // ShiftCore capture complements all chain bits: chains become all-1.
        let out = w.clock_parallel(&"00".parse().unwrap(), &WrapperControl::shift_data());
        assert_eq!(out.to_string(), "11");
    }

    #[test]
    fn extest_captures_interconnect_inputs() {
        let mut w = wrapper();
        w.apply_instruction(WrapperInstruction::Extest);
        assert_eq!(w.parallel_width(), 1);
        assert_eq!(w.shift_depth(), 5);
        w.set_extest_inputs("101".parse().unwrap());
        w.clock_serial(false, &WrapperControl::capture_data());
        // Cells hold [1,0,1,0,0]; the last cell exits first.
        let out: BitVec = (0..5)
            .map(|_| w.clock_serial(false, &WrapperControl::shift_data()))
            .collect();
        assert_eq!(out.to_string(), "00101");
    }

    #[test]
    fn extest_update_drives_outputs() {
        let mut w = wrapper();
        w.apply_instruction(WrapperInstruction::Extest);
        w.clock_serial(false, &WrapperControl::shift_data());
        for bit in "11111".parse::<BitVec>().unwrap().iter() {
            w.clock_serial(bit, &WrapperControl::shift_data());
        }
        w.clock_serial(false, &WrapperControl::update_data());
        assert_eq!(w.boundary().driven_outputs().count_ones(), 2);
    }

    #[test]
    fn normal_mode_parallel_port_inactive() {
        let mut w = wrapper();
        let out = w.clock_parallel(&"1".parse().unwrap(), &WrapperControl::shift_data());
        assert_eq!(out.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "parallel port width mismatch")]
    fn parallel_width_mismatch_panics() {
        let mut w = wrapper();
        w.apply_instruction(WrapperInstruction::IntestScan);
        w.clock_parallel(&"1".parse().unwrap(), &WrapperControl::shift_data());
    }

    #[test]
    fn wir_chain_with_external_register() {
        // Emulate the paper's tri-state mechanism: CAS IR and WIR in one
        // serial chain. Here the "CAS IR" is a second wrapper's WIR.
        let mut first = wrapper();
        let mut second = wrapper();
        let mut stream = WrapperInstruction::Extest.opcode_bits();
        stream.extend_from(&WrapperInstruction::IntestBist.opcode_bits());
        for bit in stream.iter() {
            let mid = second.clock_serial(bit, &WrapperControl::shift_wir());
            first.clock_serial(mid, &WrapperControl::shift_wir());
        }
        first.clock_serial(false, &WrapperControl::update_wir());
        second.clock_serial(false, &WrapperControl::update_wir());
        assert_eq!(first.instruction(), WrapperInstruction::Extest);
        assert_eq!(second.instruction(), WrapperInstruction::IntestBist);
    }

    #[test]
    fn clock_parallel_words_matches_per_cycle_shifts() {
        for instruction in [
            WrapperInstruction::IntestScan,
            WrapperInstruction::Extest,
            WrapperInstruction::Bypass,
        ] {
            let mut fast = wrapper();
            let mut slow = wrapper();
            fast.apply_instruction(instruction);
            slow.apply_instruction(instruction);
            let width = fast.parallel_width();
            let planes: Vec<u64> = (0..width)
                .map(|j| 0x0123_4567_89ab_cdefu64.rotate_left(j as u32 * 13))
                .collect();
            let cycles = 37;
            let out_planes = fast.clock_parallel_words(&planes, cycles);
            let ctrl = WrapperControl::shift_data();
            for t in 0..cycles {
                let wpi: BitVec = planes.iter().map(|p| (p >> t) & 1 == 1).collect();
                let wpo = slow.clock_parallel(&wpi, &ctrl);
                for (j, plane) in out_planes.iter().enumerate() {
                    assert_eq!(
                        (plane >> t) & 1 == 1,
                        wpo.get(j).unwrap(),
                        "{instruction:?} cycle {t} port {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn clock_parallel_into_overwrites_a_stale_buffer_in_every_mode() {
        for instruction in [
            WrapperInstruction::IntestScan,
            WrapperInstruction::Extest,
            WrapperInstruction::Bypass,
        ] {
            let mut into = wrapper();
            let mut fresh = wrapper();
            into.apply_instruction(instruction);
            fresh.apply_instruction(instruction);
            let width = into.parallel_width();
            let controls = [
                WrapperControl::shift_data(),
                WrapperControl::capture_data(),
                WrapperControl::update_data(),
                WrapperControl::default(),
            ];
            for t in 0..24usize {
                let wpi: BitVec = (0..width).map(|j| (t * 7 + j * 3) % 5 < 2).collect();
                let ctrl = controls[t % controls.len()];
                let mut wpo = BitVec::ones(width + 1 + t % 3);
                into.clock_parallel_into(&wpi, &ctrl, &mut wpo);
                let expected = fresh.clock_parallel(&wpi, &ctrl);
                assert_eq!(wpo, expected, "{instruction:?} clock {t}");
                assert_eq!(wpo.len(), width, "{instruction:?} clock {t}");
            }
        }
    }

    #[test]
    fn reset_restores_power_on() {
        let mut w = wrapper();
        w.apply_instruction(WrapperInstruction::IntestScan);
        w.clock_parallel(&"11".parse().unwrap(), &WrapperControl::shift_data());
        w.reset();
        assert_eq!(w.instruction(), WrapperInstruction::Normal);
        assert_eq!(w.core().chain(0).count_ones(), 0);
    }

    #[test]
    fn set_extest_inputs_validates_width() {
        let mut w = wrapper();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.set_extest_inputs(BitVec::zeros(2));
        }));
        assert!(result.is_err());
    }
}
