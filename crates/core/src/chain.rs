//! A chain of CASes on the shared test bus (paper Fig. 1).

use casbus_tpg::BitVec;

use crate::cas::{Cas, CasControl};
use crate::error::CasError;
use crate::instruction::CasInstruction;

/// An ordered chain of CASes threaded by the `N`-wire test bus: the bus
/// outputs of CAS *i* feed the bus inputs of CAS *i+1*, and during the
/// CONFIGURATION phase all instruction registers form one serial chain over
/// wire 0.
///
/// All CASes share the bus width `N`, but each may switch a different `P`
/// (the paper's Fig. 1 shows exactly this: CAS 1–6 with per-core widths).
///
/// # Examples
///
/// ```
/// use casbus::{Cas, CasChain, CasControl, CasGeometry, CasInstruction};
/// use casbus_tpg::BitVec;
///
/// let mut chain = CasChain::new(vec![
///     Cas::for_geometry(CasGeometry::new(4, 2)?)?,
///     Cas::for_geometry(CasGeometry::new(4, 1)?)?,
/// ])?;
/// // Both in power-on BYPASS: the bus is transparent end to end.
/// let result = chain.clock(
///     &"1011".parse::<BitVec>().unwrap(),
///     &[BitVec::zeros(2), BitVec::zeros(1)],
///     CasControl::run(),
/// )?;
/// assert_eq!(result.bus_out.to_string(), "1011");
/// # Ok::<(), casbus::CasError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CasChain {
    cases: Vec<Cas>,
    n: usize,
}

/// The result of clocking a whole chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainOutput {
    /// Bus outputs at the far end of the chain.
    pub bus_out: BitVec,
    /// Per-CAS core-side outputs (`None` where tri-stated).
    pub core_in: Vec<Option<BitVec>>,
}

impl CasChain {
    /// Builds a chain.
    ///
    /// # Errors
    ///
    /// Returns [`CasError::BadGeometry`] if the chain is empty or the CASes
    /// disagree on the bus width.
    pub fn new(cases: Vec<Cas>) -> Result<Self, CasError> {
        let n = cases
            .first()
            .map(|c| c.geometry().bus_width())
            .ok_or(CasError::BadGeometry { n: 0, p: 0 })?;
        for cas in &cases {
            if cas.geometry().bus_width() != n {
                return Err(CasError::BadGeometry {
                    n: cas.geometry().bus_width(),
                    p: cas.geometry().switched_wires(),
                });
            }
        }
        Ok(Self { cases, n })
    }

    /// The shared bus width `N`.
    pub fn bus_width(&self) -> usize {
        self.n
    }

    /// Number of CASes on the bus.
    pub fn len(&self) -> usize {
        self.cases.len()
    }

    /// Whether the chain is empty (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.cases.is_empty()
    }

    /// The CASes, bus order.
    pub fn cases(&self) -> &[Cas] {
        &self.cases
    }

    /// Mutable access to all CASes (for simulators threading external
    /// registers — e.g. wrapper WIRs — into the configuration chain).
    pub fn cases_mut(&mut self) -> &mut [Cas] {
        &mut self.cases
    }

    /// Total configuration chain length: the sum of all instruction register
    /// widths (what one full configuration shift costs in clocks).
    pub fn config_chain_bits(&self) -> usize {
        self.cases
            .iter()
            .map(|c| c.instruction_width() as usize)
            .sum()
    }

    /// One clock of the whole chain: `bus_in` enters CAS 0, each CAS's bus
    /// output feeds the next, and `core_outs[i]` carries the `P_i` core test
    /// outputs presented to CAS `i`. The allocating form of
    /// [`CasChain::clock_in_place`].
    ///
    /// # Errors
    ///
    /// Propagates width mismatches from the individual CASes and checks
    /// `core_outs.len()` equals the chain length.
    pub fn clock(
        &mut self,
        bus_in: &BitVec,
        core_outs: &[BitVec],
        ctrl: CasControl,
    ) -> Result<ChainOutput, CasError> {
        let mut bus = bus_in.clone();
        let mut core_ins: Vec<BitVec> = self
            .cases
            .iter()
            .map(|c| BitVec::zeros(c.geometry().switched_wires()))
            .collect();
        let mut tested = vec![false; self.cases.len()];
        self.clock_in_place(&mut bus, core_outs, &mut core_ins, &mut tested, ctrl)?;
        Ok(ChainOutput {
            bus_out: bus,
            core_in: core_ins
                .into_iter()
                .zip(tested)
                .map(|(core_in, tested)| tested.then_some(core_in))
                .collect(),
        })
    }

    /// One clock of the whole chain over caller-owned buffers: `bus` enters
    /// CAS 0 and leaves the last CAS transformed in place, CAS `i` reads
    /// `core_outs[i]`, and `tested[i]` says whether CAS `i` was in TEST
    /// mode, in which case `core_ins[i]` holds the bits it presented to its
    /// core (see [`Cas::clock_in_place`]). Allocates nothing, so a
    /// simulator that owns the buffers clocks the chain allocation-free.
    ///
    /// # Errors
    ///
    /// Propagates width mismatches from the individual CASes and checks
    /// that `core_outs`, `core_ins` and `tested` each have one entry per
    /// CAS.
    pub fn clock_in_place(
        &mut self,
        bus: &mut BitVec,
        core_outs: &[BitVec],
        core_ins: &mut [BitVec],
        tested: &mut [bool],
        ctrl: CasControl,
    ) -> Result<(), CasError> {
        let expected = self.cases.len();
        for got in [core_outs.len(), core_ins.len(), tested.len()] {
            if got != expected {
                return Err(CasError::ConfigurationLengthMismatch { got, expected });
            }
        }
        for (((cas, core_out), core_in), tested) in self
            .cases
            .iter_mut()
            .zip(core_outs)
            .zip(core_ins.iter_mut())
            .zip(tested.iter_mut())
        {
            *tested = cas.clock_in_place(bus, core_out, core_in, ctrl)?;
        }
        Ok(())
    }

    /// Every bus wire claimed by more than one TEST-mode CAS, with the
    /// claiming CASes in bus order. Sharing is legal: the CAS-BUS explicitly
    /// allows several CASes to share wires *in series* (data threads
    /// through each tapped core), which is how scan chains are
    /// concatenated. The report lets a test programmer tell concatenation
    /// from accidental conflict, and [`RouteTable`](crate::RouteTable)
    /// reads it to find the CASes that own their wires.
    pub fn shared_wires(&self) -> Vec<(usize, Vec<usize>)> {
        let mut claims: Vec<Vec<usize>> = vec![Vec::new(); self.n];
        for (idx, cas) in self.cases.iter().enumerate() {
            if let Some(scheme) = cas.test_scheme() {
                for &wire in scheme.wires() {
                    claims[wire].push(idx);
                }
            }
        }
        claims
            .into_iter()
            .enumerate()
            .filter(|(_, users)| users.len() > 1)
            .collect()
    }

    /// Applies a full configuration through the serial protocol: asserts
    /// `config`, shifts the concatenated encodings over wire 0, then pulses
    /// `update`. This is exactly the paper's initialization phase.
    ///
    /// # Errors
    ///
    /// Returns [`CasError::ConfigurationLengthMismatch`] when the
    /// instruction count differs from the chain length, or an encoding
    /// error from an out-of-range scheme index.
    pub fn configure(&mut self, instructions: &[CasInstruction]) -> Result<(), CasError> {
        if instructions.len() != self.cases.len() {
            return Err(CasError::ConfigurationLengthMismatch {
                got: instructions.len(),
                expected: self.cases.len(),
            });
        }
        // Validate scheme indices before touching any state.
        for (cas, instr) in self.cases.iter().zip(instructions) {
            if let CasInstruction::Test(index) = instr {
                cas.schemes().scheme(*index)?;
            }
        }
        let stream = crate::config::ConfigStream::build(&self.cases, instructions)?;
        // One bus and one set of core-side buffers thread every clock of
        // the phase; each bit enters on an otherwise idle bus.
        let idle_cores: Vec<BitVec> = self
            .cases
            .iter()
            .map(|c| BitVec::zeros(c.geometry().switched_wires()))
            .collect();
        let mut core_ins = idle_cores.clone();
        let mut tested = vec![false; self.cases.len()];
        let mut bus = BitVec::zeros(self.n);
        for bit in stream.bits().iter() {
            bus.fill_range(0..self.n, false);
            bus.set(0, bit);
            self.clock_in_place(
                &mut bus,
                &idle_cores,
                &mut core_ins,
                &mut tested,
                CasControl::shift_config(),
            )?;
        }
        bus.fill_range(0..self.n, false);
        self.clock_in_place(
            &mut bus,
            &idle_cores,
            &mut core_ins,
            &mut tested,
            CasControl::update(),
        )
    }

    /// Resets every CAS to power-on BYPASS.
    pub fn reset(&mut self) {
        for cas in &mut self.cases {
            cas.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::CasGeometry;

    fn chain(geoms: &[(usize, usize)]) -> CasChain {
        let cases = geoms
            .iter()
            .map(|&(n, p)| Cas::for_geometry(CasGeometry::new(n, p).unwrap()).unwrap())
            .collect();
        CasChain::new(cases).unwrap()
    }

    fn idle(chain: &CasChain) -> Vec<BitVec> {
        chain
            .cases()
            .iter()
            .map(|c| BitVec::zeros(c.geometry().switched_wires()))
            .collect()
    }

    #[test]
    fn empty_chain_rejected() {
        assert!(CasChain::new(vec![]).is_err());
    }

    #[test]
    fn mismatched_bus_widths_rejected() {
        let cases = vec![
            Cas::for_geometry(CasGeometry::new(4, 1).unwrap()).unwrap(),
            Cas::for_geometry(CasGeometry::new(5, 1).unwrap()).unwrap(),
        ];
        assert!(CasChain::new(cases).is_err());
    }

    #[test]
    fn all_bypass_is_transparent() {
        let mut ch = chain(&[(4, 2), (4, 1), (4, 3)]);
        let cores = idle(&ch);
        let bus: BitVec = "1101".parse().unwrap();
        let out = ch.clock(&bus, &cores, CasControl::run()).unwrap();
        assert_eq!(out.bus_out, bus);
        assert!(out.core_in.iter().all(Option::is_none));
    }

    #[test]
    fn serial_configure_loads_every_cas() {
        let mut ch = chain(&[(4, 2), (4, 1), (4, 3)]);
        let instrs = vec![
            CasInstruction::Test(5),
            CasInstruction::Bypass,
            CasInstruction::Test(10),
        ];
        ch.configure(&instrs).unwrap();
        assert_eq!(*ch.cases()[0].instruction(), CasInstruction::Test(5));
        assert_eq!(*ch.cases()[1].instruction(), CasInstruction::Bypass);
        assert_eq!(*ch.cases()[2].instruction(), CasInstruction::Test(10));
    }

    #[test]
    fn configure_wrong_length_rejected() {
        let mut ch = chain(&[(4, 1), (4, 1)]);
        let err = ch.configure(&[CasInstruction::Bypass]).unwrap_err();
        assert_eq!(
            err,
            CasError::ConfigurationLengthMismatch {
                got: 1,
                expected: 2
            }
        );
    }

    #[test]
    fn configure_invalid_scheme_rejected_without_state_change() {
        let mut ch = chain(&[(4, 1)]);
        assert!(ch.configure(&[CasInstruction::Test(99)]).is_err());
        assert_eq!(*ch.cases()[0].instruction(), CasInstruction::Bypass);
    }

    #[test]
    fn config_chain_bits_sum() {
        let ch = chain(&[(4, 2), (4, 1), (4, 3)]);
        // k(4,2)=4, k(4,1)=3, k(4,3)=5.
        assert_eq!(ch.config_chain_bits(), 12);
    }

    #[test]
    fn test_data_threads_through_configured_cas() {
        let mut ch = chain(&[(4, 2), (4, 1)]);
        // CAS0 taps wires 0,1; CAS1 taps wire 3: disjoint.
        let i0 = ch.cases()[0].schemes().index_of(&[0, 1]).unwrap();
        let i1 = ch.cases()[1].schemes().index_of(&[3]).unwrap();
        ch.configure(&[CasInstruction::Test(i0), CasInstruction::Test(i1)])
            .unwrap();
        let bus: BitVec = "1011".parse().unwrap();
        let cores = vec!["01".parse().unwrap(), "1".parse().unwrap()];
        let out = ch.clock(&bus, &cores, CasControl::run()).unwrap();
        // CAS0 core sees e0,e1.
        assert_eq!(out.core_in[0].as_ref().unwrap().to_string(), "10");
        // CAS1 core sees e3 (untouched by CAS0's bypass of wire 3).
        assert_eq!(out.core_in[1].as_ref().unwrap().to_string(), "1");
        // Bus out: s0=i0(0), s1=i1(1), s2=e2(1), s3=CAS1's i0(1).
        assert_eq!(out.bus_out.to_string(), "0111");
    }

    #[test]
    fn in_place_clock_flags_test_mode_and_leaves_tri_stated_buffers() {
        let mut ch = chain(&[(4, 2), (4, 1)]);
        let i0 = ch.cases()[0].schemes().index_of(&[0, 1]).unwrap();
        ch.configure(&[CasInstruction::Test(i0), CasInstruction::Bypass])
            .unwrap();
        let cores: Vec<BitVec> = vec!["01".parse().unwrap(), "1".parse().unwrap()];
        let mut bus: BitVec = "1011".parse().unwrap();
        let mut core_ins = vec![BitVec::zeros(2), "1".parse().unwrap()];
        let mut tested = vec![false, true];
        ch.clock_in_place(
            &mut bus,
            &cores,
            &mut core_ins,
            &mut tested,
            CasControl::run(),
        )
        .unwrap();
        assert_eq!(tested, [true, false]);
        assert_eq!(core_ins[0].to_string(), "10", "CAS0 core sees e0, e1");
        assert_eq!(core_ins[1].to_string(), "1", "tri-stated buffer untouched");
        assert_eq!(
            bus.to_string(),
            "0111",
            "s0, s1 = i0, i1; wires 2, 3 bypass"
        );
        assert!(ch
            .clock_in_place(
                &mut bus,
                &cores,
                &mut core_ins[..1],
                &mut tested,
                CasControl::run()
            )
            .is_err());
    }

    #[test]
    fn serial_wire_sharing_concatenates_cores() {
        // Two CASes tapping the SAME wire put their cores in series — how
        // the CAS-BUS concatenates scan paths.
        let mut ch = chain(&[(2, 1), (2, 1)]);
        let i = ch.cases()[0].schemes().index_of(&[1]).unwrap();
        ch.configure(&[CasInstruction::Test(i), CasInstruction::Test(i)])
            .unwrap();
        assert_eq!(ch.shared_wires(), vec![(1, vec![0, 1])]);
        let bus: BitVec = "01".parse().unwrap();
        let cores = vec!["1".parse().unwrap(), "0".parse().unwrap()];
        let out = ch.clock(&bus, &cores, CasControl::run()).unwrap();
        // CAS0 core receives e1=1; CAS0 drives i=1 onto the wire, which
        // CAS1's core then receives; CAS1 drives 0 out.
        assert_eq!(out.core_in[0].as_ref().unwrap().get(0), Some(true));
        assert_eq!(out.core_in[1].as_ref().unwrap().get(0), Some(true));
        assert_eq!(out.bus_out.get(1), Some(false));
    }

    #[test]
    fn reconfigure_between_sessions() {
        let mut ch = chain(&[(3, 1), (3, 1)]);
        ch.configure(&[CasInstruction::Test(0), CasInstruction::Bypass])
            .unwrap();
        assert!(ch.cases()[0].instruction().is_test());
        // Second session: swap roles — the paper's dynamic reconfiguration.
        ch.configure(&[CasInstruction::Bypass, CasInstruction::Test(2)])
            .unwrap();
        assert_eq!(*ch.cases()[0].instruction(), CasInstruction::Bypass);
        assert_eq!(*ch.cases()[1].instruction(), CasInstruction::Test(2));
    }

    #[test]
    fn reset_clears_chain() {
        let mut ch = chain(&[(3, 1)]);
        ch.configure(&[CasInstruction::Test(1)]).unwrap();
        ch.reset();
        assert_eq!(*ch.cases()[0].instruction(), CasInstruction::Bypass);
    }

    #[test]
    fn heterogeneous_p_on_shared_bus() {
        // Fig. 1's situation: same N, very different P per core.
        let ch = chain(&[(6, 4), (6, 1), (6, 2), (6, 1), (6, 2), (6, 1)]);
        assert_eq!(ch.bus_width(), 6);
        assert_eq!(ch.len(), 6);
    }
}
