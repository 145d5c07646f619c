//! The pass-transistor CAS — the paper's second §3.3 future-work variant,
//! built as a real netlist rather than an analytic estimate.
//!
//! *"The second one, which is much more optimized, considers a hardware
//! architecture based on the use of pass transistors. … first experiments
//! have shown that they solve the CAS area problem for large width test
//! busses, even without restricting heuristics."*
//!
//! Instead of densely encoding one of `m = N!/(N−P)! + 2` instructions and
//! decoding them all, the crosspoint CAS gives **each port its own wire-
//! select field** of `⌈log₂(N+1)⌉` bits (value `N` = port parked). The
//! switch fabric is a crosspoint of transmission gates — modelled at logic
//! level by tri-state buffers — of size `2·N·P` (forward + return paths),
//! plus one small per-port decoder. Register width grows linearly in `P`
//! instead of with `log₂(N!/(N−P)!)`, and the fabric in `N·P` instead of
//! `m` — which is exactly why it beats the dense design for wide busses,
//! *without* the paper's restricting heuristic (any port↔wire pairing is
//! expressible, including non-injective ones the dense design forbids).

use casbus::{CasGeometry, SwitchScheme};

use crate::netlist::{NetId, Netlist};

/// Select-field width per port: wires `0..N` plus the "parked" code `N`.
pub fn select_bits(n: usize) -> usize {
    usize::BITS as usize - n.leading_zeros() as usize
}

/// Instruction register width of the crosspoint CAS: one select field per
/// port (compare [`CasGeometry::instruction_width`] for the dense design).
pub fn crosspoint_register_width(geometry: CasGeometry) -> usize {
    geometry.switched_wires() * select_bits(geometry.bus_width())
}

/// Synthesizes the crosspoint (pass-transistor) CAS for a geometry.
///
/// Ports, in declaration order: `config`, `update`, `e0..eN−1`, `i0..iP−1`
/// in; `s0..sN−1`, `o0..oP−1` out — the same interface as
/// [`synthesize_cas`](crate::synth::synthesize_cas), so the two designs are
/// drop-in comparable. The instruction register shifts on `e0` while
/// `config` is asserted (LSB of port 0's field first) and the shifted-out
/// bit leaves on `s0`, exactly like the dense design.
///
/// Routing semantics per port `j` with select value `v`:
///
/// * `v < N` — transmission gates connect `e_v → o_j` and `i_j → s_v`,
/// * `v ≥ N` — the port is parked (both gates off).
///
/// Bus wires claimed by no port fall back to bypass (`s_w = e_w`) through a
/// bypass transmission gate.
pub fn synthesize_crosspoint_cas(geometry: CasGeometry) -> Netlist {
    let n = geometry.bus_width();
    let p = geometry.switched_wires();
    let bits = select_bits(n);
    let k = p * bits;

    let mut nl = Netlist::new(format!("cas_xp_n{n}_p{p}"));
    let config = nl.add_input("config");
    let update = nl.add_input("update");
    let e: Vec<NetId> = (0..n).map(|w| nl.add_input(format!("e{w}"))).collect();
    let i: Vec<NetId> = (0..p).map(|j| nl.add_input(format!("i{j}"))).collect();

    // Shift + shadow registers, same discipline as the dense CAS.
    let mut ir_q = vec![NetId(usize::MAX); k];
    for idx in (0..k).rev() {
        let d = if idx == k - 1 { e[0] } else { ir_q[idx + 1] };
        ir_q[idx] = nl.dff_e(d, config);
    }
    let shadow: Vec<NetId> = ir_q.iter().map(|&q| nl.dff_e(q, update)).collect();
    let shadow_n: Vec<NetId> = shadow.iter().map(|&q| nl.not(q)).collect();
    let not_config = nl.not(config);

    // Per-port one-hot wire selects from each port's private field.
    // sel[j][w] = (field_j == w) AND not_config.
    let mut sel = vec![vec![NetId(usize::MAX); n]; p];
    for (j, sel_row) in sel.iter_mut().enumerate() {
        let field = &shadow[j * bits..(j + 1) * bits];
        let field_n = &shadow_n[j * bits..(j + 1) * bits];
        for (w, slot) in sel_row.iter_mut().enumerate() {
            let literals: Vec<NetId> = (0..bits)
                .map(|b| {
                    if w >> b & 1 == 1 {
                        field[b]
                    } else {
                        field_n[b]
                    }
                })
                .collect();
            let hot = nl.and_tree(&literals);
            *slot = nl.and2(hot, not_config);
        }
    }

    // Core-side outputs: a column of transmission gates per port.
    for (j, sel_row) in sel.iter().enumerate() {
        let o_bus = nl.new_net();
        for w in 0..n {
            nl.add_tribuf_onto(o_bus, sel_row[w], e[w]);
        }
        nl.mark_output(format!("o{j}"), o_bus);
    }

    // Bus-side outputs: return gates per (port, wire) plus a bypass gate
    // active when no port claims the wire (and a config-mode path on s0).
    for w in 0..n {
        let s_bus = nl.new_net();
        let mut claims = Vec::with_capacity(p);
        for (j, sel_row) in sel.iter().enumerate() {
            nl.add_tribuf_onto(s_bus, sel_row[w], i[j]);
            claims.push(sel_row[w]);
        }
        let any_claim = nl.or_tree(&claims);
        let unclaimed_raw = nl.not(any_claim);
        let bypass_en = nl.and2(unclaimed_raw, not_config);
        nl.add_tribuf_onto(s_bus, bypass_en, e[w]);
        if w == 0 {
            nl.add_tribuf_onto(s_bus, config, ir_q[0]);
        } else {
            // In CONFIGURATION the other wires bypass unconditionally.
            nl.add_tribuf_onto(s_bus, config, e[w]);
        }
        nl.mark_output(format!("s{w}"), s_bus);
    }
    nl
}

/// Encodes a dense-design [`SwitchScheme`] as crosspoint select fields
/// (LSB of port 0's field first) — letting the two implementations be
/// configured identically in equivalence tests.
pub fn encode_scheme(scheme: &SwitchScheme) -> casbus_tpg::BitVec {
    let n = scheme.geometry().bus_width();
    let bits = select_bits(n);
    let mut out = casbus_tpg::BitVec::new();
    for port in 0..scheme.geometry().switched_wires() {
        let v = scheme.wire_for_port(port) as u64;
        for b in 0..bits {
            out.push(v >> b & 1 == 1);
        }
    }
    out
}

/// Encodes the all-parked (bypass) configuration.
pub fn encode_bypass(geometry: CasGeometry) -> casbus_tpg::BitVec {
    let n = geometry.bus_width();
    let bits = select_bits(n);
    let mut out = casbus_tpg::BitVec::new();
    for _ in 0..geometry.switched_wires() {
        let v = n as u64; // parked
        for b in 0..bits {
            out.push(v >> b & 1 == 1);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::area::gate_equivalents;
    use crate::sim::{Simulator, Value};
    use crate::synth::tests::behavioural_clock;
    use casbus::SchemeSet;
    use casbus_tpg::BitVec;

    fn g(n: usize, p: usize) -> CasGeometry {
        CasGeometry::new(n, p).unwrap()
    }

    fn load(sim: &mut Simulator<'_>, geometry: CasGeometry, stream: &BitVec) {
        let n = geometry.bus_width();
        let p = geometry.switched_wires();
        for bit in stream.iter() {
            let mut inputs = vec![false; 2 + n + p];
            inputs[0] = true;
            inputs[2] = bit;
            sim.step(&inputs);
        }
        let mut inputs = vec![false; 2 + n + p];
        inputs[1] = true;
        sim.step(&inputs);
    }

    fn cycle(
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
        let s = (0..n)
            .map(|w| sim.output(&format!("s{w}")).unwrap())
            .collect();
        let o = (0..p)
            .map(|j| sim.output(&format!("o{j}")).unwrap())
            .collect();
        sim.clock();
        (s, o)
    }

    #[test]
    fn register_width_is_linear_in_p() {
        assert_eq!(select_bits(4), 3); // values 0..=4 need 3 bits
        assert_eq!(select_bits(8), 4);
        assert_eq!(crosspoint_register_width(g(8, 4)), 16);
        // Dense design needs k = 11 for (8,4) but the crosspoint pays a
        // linear price that WINS as P grows relative to log2(m).
        assert_eq!(crosspoint_register_width(g(24, 2)), 10);
    }

    #[test]
    fn netlist_is_well_formed() {
        for (n, p) in [(3usize, 1usize), (4, 2), (6, 3), (8, 4)] {
            let nl = synthesize_crosspoint_cas(g(n, p));
            nl.validate().unwrap_or_else(|e| panic!("N={n} P={p}: {e}"));
        }
    }

    #[test]
    fn beats_dense_design_on_wide_busses() {
        // The paper's claim, measured on real netlists.
        for (n, p) in [(6usize, 5usize), (8, 4)] {
            let dense = crate::synth::synthesize_cas(&SchemeSet::enumerate(g(n, p)).unwrap());
            let crosspoint = synthesize_crosspoint_cas(g(n, p));
            let dense_area = gate_equivalents(&dense);
            let xp_area = gate_equivalents(&crosspoint);
            assert!(
                xp_area < dense_area / 4.0,
                "N={n} P={p}: crosspoint {xp_area} vs dense {dense_area}"
            );
        }
    }

    #[test]
    fn parked_configuration_bypasses() {
        let geometry = g(4, 2);
        let nl = synthesize_crosspoint_cas(geometry);
        let mut sim = Simulator::new(&nl).unwrap();
        load(&mut sim, geometry, &encode_bypass(geometry));
        let (s, o) = cycle(&mut sim, 4, 2, &[true, false, true, true], &[true, true]);
        assert_eq!(
            s.iter().map(|v| v.to_bool().unwrap()).collect::<Vec<_>>(),
            vec![true, false, true, true]
        );
        assert!(o.iter().all(|v| *v == Value::Z));
    }

    #[test]
    fn routes_every_dense_scheme_identically() {
        let geometry = g(4, 2);
        let set = SchemeSet::enumerate(geometry).unwrap();
        let nl = synthesize_crosspoint_cas(geometry);
        let mut sim = Simulator::new(&nl).unwrap();
        for (idx, scheme) in set.iter().enumerate() {
            sim.reset();
            load(&mut sim, geometry, &encode_scheme(scheme));
            let e = [true, false, true, false];
            let i = [true, false];
            let got = cycle(&mut sim, 4, 2, &e, &i);
            assert_eq!(got, behavioural_clock(&set, idx, &e, &i), "{scheme}");
        }
    }

    #[test]
    fn expresses_non_injective_routing_the_dense_design_cannot() {
        // Both ports listening to wire 2 — broadcast, forbidden by the
        // dense design's injective schemes ("without restricting
        // heuristics" per the paper).
        let geometry = g(4, 2);
        let nl = synthesize_crosspoint_cas(geometry);
        let mut sim = Simulator::new(&nl).unwrap();
        let bits = select_bits(4);
        let mut stream = BitVec::new();
        for _ in 0..2 {
            for b in 0..bits {
                stream.push(2u64 >> b & 1 == 1);
            }
        }
        load(&mut sim, geometry, &stream);
        let (s, o) = cycle(&mut sim, 4, 2, &[false, false, true, false], &[true, true]);
        assert_eq!(o[0], Value::One, "port 0 hears wire 2");
        assert_eq!(o[1], Value::One, "port 1 hears wire 2");
        // Both return gates drive s2 with the same value: resolves cleanly.
        assert_eq!(s[2], Value::One);
    }

    #[test]
    fn config_mode_threads_wire0() {
        let geometry = g(3, 1);
        let nl = synthesize_crosspoint_cas(geometry);
        let mut sim = Simulator::new(&nl).unwrap();
        let k = crosspoint_register_width(geometry);
        let mut seen = Vec::new();
        for step in 0..2 * k {
            let mut inputs = vec![false; 2 + 3 + 1];
            inputs[0] = true;
            inputs[2] = step < k;
            sim.set_inputs(&inputs);
            sim.eval();
            seen.push(sim.output("s0").unwrap());
            sim.clock();
        }
        assert_eq!(&seen[..k], vec![Value::Zero; k].as_slice());
        assert_eq!(&seen[k..], vec![Value::One; k].as_slice());
    }
}
