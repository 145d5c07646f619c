//! Structural synthesis of a Core Access Switch (paper Fig. 3).
//!
//! The generated netlist implements exactly the behavioural contract of
//! [`casbus::Cas`]:
//!
//! * a `k`-bit instruction **shift register** clocked while `config` is
//!   asserted, threaded between `e0` and `s0`,
//! * a `k`-bit **update (shadow) register** loaded on `update`,
//! * a shared-prefix **instruction decoder** producing one select line per
//!   TEST scheme,
//! * the **N/P switch fabric**: per-wire AND-OR selection networks plus the
//!   bypass muxes, and tri-state buffers on the core-side outputs (high
//!   impedance outside TEST mode, as the paper specifies).
//!
//! Port convention: inputs `config`, `update`, `e0..e{N−1}`, `i0..i{P−1}`;
//! outputs `s0..s{N−1}`, `o0..o{P−1}`. The clock is implicit in
//! [`Simulator::clock`](crate::sim::Simulator::clock).

use casbus::SchemeSet;

use crate::netlist::{NetId, Netlist};

/// Synthesizes the gate-level CAS for an enumerated scheme set.
///
/// The update register takes effect at the clock edge, so an instruction
/// shifted in becomes active on the cycle *after* the `update` pulse — one
/// cycle later than the behavioural model's immediate
/// [`load_instruction`](casbus::Cas::load_instruction); the serial protocol
/// in [`casbus::CasChain::configure`] already accounts for this.
///
/// # Examples
///
/// ```
/// use casbus::{CasGeometry, SchemeSet};
/// use casbus_netlist::synth::synthesize_cas;
///
/// let set = SchemeSet::enumerate(CasGeometry::new(3, 1)?)?;
/// let nl = synthesize_cas(&set);
/// assert_eq!(nl.inputs().len(), 2 + 3 + 1);   // config, update, e*, i*
/// assert_eq!(nl.outputs().len(), 3 + 1);      // s*, o*
/// nl.validate()?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn synthesize_cas(set: &SchemeSet) -> Netlist {
    let geometry = set.geometry();
    let n = geometry.bus_width();
    let p = geometry.switched_wires();
    let k = geometry.instruction_width() as usize;
    let m_schemes = set.len();

    let mut nl = Netlist::new(format!("cas_n{n}_p{p}"));
    let config = nl.add_input("config");
    let update = nl.add_input("update");
    let e: Vec<NetId> = (0..n).map(|w| nl.add_input(format!("e{w}"))).collect();
    let i: Vec<NetId> = (0..p).map(|j| nl.add_input(format!("i{j}"))).collect();

    // Instruction shift register: bits enter at index k−1 from e0 and exit
    // at index 0 towards s0 (LSB-first opcodes, like the behavioural model).
    let mut ir_q = vec![NetId(usize::MAX); k];
    for j in (0..k).rev() {
        let d = if j == k - 1 { e[0] } else { ir_q[j + 1] };
        ir_q[j] = nl.dff_e(d, config);
    }

    // Update (shadow) register holding the active instruction.
    let shadow: Vec<NetId> = ir_q.iter().map(|&q| nl.dff_e(q, update)).collect();
    let shadow_n: Vec<NetId> = shadow.iter().map(|&q| nl.not(q)).collect();

    // Shared-prefix decoder: full sub-decoders over the two halves of the
    // opcode, combined only for the opcodes that exist.
    let (lo_bits, hi_bits) = shadow.split_at(k / 2);
    let (lo_neg, hi_neg) = shadow_n.split_at(k / 2);
    let lo = decode_full(&mut nl, lo_bits, lo_neg);
    let hi = decode_full(&mut nl, hi_bits, hi_neg);
    let lo_width = lo_bits.len();
    let scheme_sel: Vec<NetId> = (0..m_schemes)
        .map(|idx| {
            let opcode = idx + 1; // TEST opcodes start after BYPASS (0)
            let lo_part = opcode & ((1 << lo_width) - 1);
            let hi_part = opcode >> lo_width;
            if hi.len() == 1 {
                lo[lo_part]
            } else {
                nl.and2(lo[lo_part], hi[hi_part])
            }
        })
        .collect();

    // TEST-mode detector: 1 ≤ opcode ≤ m_schemes, and not configuring.
    let nonzero = nl.or_tree(&shadow);
    let le_max = compare_le_const(&mut nl, &shadow, &shadow_n, m_schemes as u64);
    let not_config = nl.not(config);
    let in_range = nl.and2(nonzero, le_max);
    let test_active = nl.and2(in_range, not_config);

    // Per-(port, wire) select lines: OR of the schemes assigning that wire
    // to that port.
    let mut sel = vec![vec![None::<NetId>; n]; p];
    for (idx, scheme) in set.iter().enumerate() {
        for (port, row) in sel.iter_mut().enumerate() {
            let wire = scheme.wire_for_port(port);
            row[wire] = Some(match row[wire] {
                None => scheme_sel[idx],
                Some(existing) => nl.or2(existing, scheme_sel[idx]),
            });
        }
    }

    // Core-side outputs o_j: tri-stated AND-OR over candidate wires.
    for (port, row) in sel.iter().enumerate() {
        let terms: Vec<NetId> = (0..n)
            .filter_map(|wire| row[wire].map(|s| (wire, s)))
            .map(|(wire, s)| nl.and2(s, e[wire]))
            .collect();
        let data = nl.or_tree(&terms);
        let bus = nl.new_net();
        nl.add_tribuf_onto(bus, test_active, data);
        nl.mark_output(format!("o{port}"), bus);
    }

    // Bus-side outputs s_w: bypass e_w unless a scheme claims the wire (then
    // carry the paired core return i_j); wire 0 additionally carries the
    // instruction register during configuration.
    for wire in 0..n {
        let claims: Vec<NetId> = (0..p).filter_map(|port| sel[port][wire]).collect();
        let routed = if claims.is_empty() {
            e[wire]
        } else {
            let claimed_raw = nl.or_tree(&claims);
            let claimed = nl.and2(claimed_raw, test_active);
            let returns: Vec<NetId> = (0..p)
                .filter_map(|port| sel[port][wire].map(|s| (port, s)))
                .map(|(port, s)| nl.and2(s, i[port]))
                .collect();
            let ret = nl.or_tree(&returns);
            nl.mux2(claimed, e[wire], ret)
        };
        let s_net = if wire == 0 {
            nl.mux2(config, routed, ir_q[0])
        } else {
            routed
        };
        nl.mark_output(format!("s{wire}"), s_net);
    }

    nl
}

/// Full decoder over `bits` (LSB first): returns `2^len` one-hot nets,
/// index = opcode value. Recursion shares every prefix term.
fn decode_full(nl: &mut Netlist, bits: &[NetId], negs: &[NetId]) -> Vec<NetId> {
    match bits.len() {
        0 => vec![],
        1 => vec![negs[0], bits[0]],
        _ => {
            let half = bits.len() / 2;
            let lo = decode_full(nl, &bits[..half], &negs[..half]);
            let hi = decode_full(nl, &bits[half..], &negs[half..]);
            let mut out = Vec::with_capacity(lo.len() * hi.len());
            for &h in &hi {
                for &l in &lo {
                    out.push(nl.and2(l, h));
                }
            }
            out
        }
    }
}

/// Builds `value(bits) <= limit` as a ripple comparator from the MSB down.
fn compare_le_const(nl: &mut Netlist, bits: &[NetId], negs: &[NetId], limit: u64) -> NetId {
    // le = NOT gt, where gt is accumulated MSB-first:
    //   gt' = gt OR (eq AND bit AND NOT limit_bit)
    //   eq' = eq AND (bit == limit_bit)
    let mut gt = nl.const0();
    let mut eq = nl.const1();
    for j in (0..bits.len()).rev() {
        let limit_bit = limit >> j & 1 == 1;
        if limit_bit {
            // gt unchanged when the limit bit is 1 (this bit cannot exceed).
            eq = nl.and2(eq, bits[j]);
        } else {
            let exceeds = nl.and2(eq, bits[j]);
            gt = nl.or2(gt, exceeds);
            eq = nl.and2(eq, negs[j]);
        }
    }
    nl.not(gt)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sim::{Simulator, Value};
    use casbus::{Cas, CasControl, CasGeometry, CasInstruction};
    use casbus_tpg::BitVec;

    fn set(n: usize, p: usize) -> SchemeSet {
        SchemeSet::enumerate(CasGeometry::new(n, p).unwrap()).unwrap()
    }

    /// One data clock of the behavioural [`Cas`] under TEST scheme `idx`:
    /// the `(s, o)` values every gate-level switch fabric must produce.
    pub(crate) fn behavioural_clock(
        set: &SchemeSet,
        idx: usize,
        e: &[bool],
        i: &[bool],
    ) -> (Vec<Value>, Vec<Value>) {
        let mut cas = Cas::new(set.clone());
        cas.load_instruction(&CasInstruction::Test(idx));
        let out = cas
            .clock(
                &e.iter().copied().collect(),
                &i.iter().copied().collect(),
                CasControl::run(),
            )
            .unwrap();
        let values = |bits: BitVec| bits.iter().map(Value::from_bool).collect();
        (values(out.bus_out), values(out.core_in.unwrap()))
    }

    /// Drives the netlist through the serial configuration protocol.
    fn load_instruction(sim: &mut Simulator<'_>, set: &SchemeSet, instr: &CasInstruction) {
        let k = set.geometry().instruction_width();
        let n = set.geometry().bus_width();
        let p = set.geometry().switched_wires();
        let bits = instr.encode(set.len(), k);
        for bit in bits.iter() {
            let mut inputs = vec![false; 2 + n + p];
            inputs[0] = true; // config
            inputs[2] = bit; // e0
            sim.step(&inputs);
        }
        let mut inputs = vec![false; 2 + n + p];
        inputs[1] = true; // update
        sim.step(&inputs);
    }

    fn run_cycle(
        sim: &mut Simulator<'_>,
        n: usize,
        p: usize,
        e: &[bool],
        i: &[bool],
    ) -> (Vec<Value>, Vec<Value>) {
        let mut inputs = vec![false; 2 + n + p];
        inputs[2..2 + n].copy_from_slice(e);
        inputs[2 + n..].copy_from_slice(i);
        sim.set_inputs(&inputs);
        sim.eval();
        let s: Vec<Value> = (0..n)
            .map(|w| sim.output(&format!("s{w}")).unwrap())
            .collect();
        let o: Vec<Value> = (0..p)
            .map(|j| sim.output(&format!("o{j}")).unwrap())
            .collect();
        sim.clock();
        (s, o)
    }

    #[test]
    fn netlist_is_well_formed_for_table1_geometries() {
        for (n, p) in [(3, 1), (4, 1), (4, 2), (4, 3), (5, 2), (6, 3)] {
            let nl = synthesize_cas(&set(n, p));
            nl.validate().unwrap_or_else(|e| panic!("N={n} P={p}: {e}"));
            assert!(nl.gate_count() > 0);
        }
    }

    #[test]
    fn powers_on_bypassing() {
        let s = set(4, 2);
        let nl = synthesize_cas(&s);
        let mut sim = Simulator::new(&nl).unwrap();
        let (s_out, o_out) = run_cycle(&mut sim, 4, 2, &[true, false, true, true], &[false, false]);
        assert_eq!(
            s_out,
            vec![Value::One, Value::Zero, Value::One, Value::One],
            "bypass passes the bus through"
        );
        assert!(o_out.iter().all(|v| *v == Value::Z), "core side tri-stated");
    }

    #[test]
    fn configured_scheme_routes_like_the_oracle() {
        let s = set(4, 2);
        let nl = synthesize_cas(&s);
        let mut sim = Simulator::new(&nl).unwrap();
        for idx in [0usize, 3, 7, 11] {
            sim.reset();
            load_instruction(&mut sim, &s, &CasInstruction::Test(idx));
            let e = [true, false, true, false];
            let i = [true, true];
            let got = run_cycle(&mut sim, 4, 2, &e, &i);
            assert_eq!(got, behavioural_clock(&s, idx, &e, &i), "scheme {idx}");
        }
    }

    #[test]
    fn configuration_mode_threads_ir_on_wire0() {
        let s = set(3, 1);
        let nl = synthesize_cas(&s);
        let mut sim = Simulator::new(&nl).unwrap();
        let k = s.geometry().instruction_width() as usize;
        // Shift k ones in; after k more shifts they emerge on s0.
        let mut seen = Vec::new();
        for step in 0..2 * k {
            let bit = step < k;
            let mut inputs = vec![false; 2 + 3 + 1];
            inputs[0] = true;
            inputs[2] = bit;
            sim.set_inputs(&inputs);
            sim.eval();
            seen.push(sim.output("s0").unwrap());
            sim.clock();
        }
        assert_eq!(&seen[..k], vec![Value::Zero; k].as_slice());
        assert_eq!(&seen[k..], vec![Value::One; k].as_slice());
    }

    #[test]
    fn bypass_instruction_after_test_releases_core() {
        let s = set(4, 2);
        let nl = synthesize_cas(&s);
        let mut sim = Simulator::new(&nl).unwrap();
        load_instruction(&mut sim, &s, &CasInstruction::Test(0));
        let (_, o_test) = run_cycle(&mut sim, 4, 2, &[true; 4], &[false; 2]);
        assert!(o_test[0].is_known());
        load_instruction(&mut sim, &s, &CasInstruction::Bypass);
        let (_, o_bypass) = run_cycle(&mut sim, 4, 2, &[true; 4], &[false; 2]);
        assert_eq!(o_bypass[0], Value::Z);
    }

    #[test]
    fn unassigned_opcode_behaves_as_bypass() {
        // N=4, P=2: m = 14, k = 4 → codes 14 and 15 unassigned.
        let s = set(4, 2);
        let nl = synthesize_cas(&s);
        let mut sim = Simulator::new(&nl).unwrap();
        // Shift in opcode 15 manually.
        for _ in 0..4 {
            let mut inputs = vec![false; 2 + 4 + 2];
            inputs[0] = true;
            inputs[2] = true;
            sim.step(&inputs);
        }
        let mut inputs = vec![false; 2 + 4 + 2];
        inputs[1] = true;
        sim.step(&inputs);
        let (s_out, o_out) = run_cycle(&mut sim, 4, 2, &[true, true, false, false], &[true, true]);
        assert_eq!(
            s_out
                .iter()
                .map(|v| v.to_bool().unwrap())
                .collect::<Vec<_>>(),
            vec![true, true, false, false]
        );
        assert_eq!(o_out[0], Value::Z);
    }

    #[test]
    fn gate_count_grows_with_m() {
        let small = synthesize_cas(&set(4, 1)).gate_count();
        let mid = synthesize_cas(&set(4, 2)).gate_count();
        let big = synthesize_cas(&set(4, 3)).gate_count();
        assert!(small < mid && mid < big, "{small} < {mid} < {big}");
    }
}
