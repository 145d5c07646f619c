//! Levelized 4-value structural simulation with tri-state resolution.

use std::fmt;

use crate::gate::GateKind;
use crate::netlist::{Netlist, NetlistError};

/// A 4-value logic level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Value {
    /// Logic 0.
    Zero,
    /// Logic 1.
    One,
    /// High impedance (undriven bus).
    #[default]
    Z,
    /// Unknown / conflict.
    X,
}

impl Value {
    /// Converts from a plain bool.
    pub fn from_bool(b: bool) -> Self {
        if b {
            Self::One
        } else {
            Self::Zero
        }
    }

    /// The bool value, if driven and known.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Self::Zero => Some(false),
            Self::One => Some(true),
            Self::Z | Self::X => None,
        }
    }

    /// Whether the level is a defined 0 or 1.
    pub fn is_known(self) -> bool {
        matches!(self, Self::Zero | Self::One)
    }

    fn as_logic(self) -> Self {
        // A floating input reads as unknown at a gate pin.
        if self == Self::Z {
            Self::X
        } else {
            self
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Zero => "0",
            Self::One => "1",
            Self::Z => "Z",
            Self::X => "X",
        })
    }
}

/// Computes a combinational evaluation order (gate indices), treating
/// flip-flop outputs as sources. Used both by the simulator and by
/// [`Netlist::validate`] for cycle detection.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] when no such order exists.
pub fn levelize(netlist: &Netlist) -> Result<Vec<usize>, NetlistError> {
    let nets = netlist.net_count();
    let gates = netlist.gates();
    // pending[net] = number of *combinational* drivers not yet evaluated. A
    // net is resolved once every such driver is scheduled; nets driven only
    // by flip-flops or primary inputs are resolved from the start.
    let mut pending = vec![0usize; nets];
    let mut comb_total = 0usize;
    for gate in gates {
        if !gate.kind.is_sequential() {
            pending[gate.output.0] += 1;
            comb_total += 1;
        }
    }
    // readers[net] = combinational gates with that net on an input pin
    // (counted once per pin, so a gate reading a net twice waits twice).
    let mut readers: Vec<Vec<usize>> = vec![Vec::new(); nets];
    // waiting[gate] = input pins still connected to unresolved nets.
    let mut waiting = vec![0usize; gates.len()];
    for (idx, gate) in gates.iter().enumerate() {
        if gate.kind.is_sequential() {
            continue;
        }
        for input in &gate.inputs {
            if pending[input.0] > 0 {
                readers[input.0].push(idx);
                waiting[idx] += 1;
            }
        }
    }
    // Kahn's algorithm over the net-resolution dependency graph: O(V+E).
    // The FIFO is seeded in gate-index order, keeping the order
    // deterministic for a given netlist.
    let mut order = Vec::with_capacity(comb_total);
    let mut queue = std::collections::VecDeque::new();
    for (idx, gate) in gates.iter().enumerate() {
        if !gate.kind.is_sequential() && waiting[idx] == 0 {
            queue.push_back(idx);
        }
    }
    while let Some(idx) = queue.pop_front() {
        order.push(idx);
        let output = gates[idx].output.0;
        pending[output] -= 1;
        if pending[output] == 0 {
            for &reader in &readers[output] {
                waiting[reader] -= 1;
                if waiting[reader] == 0 {
                    queue.push_back(reader);
                }
            }
        }
    }
    if order.len() == comb_total {
        Ok(order)
    } else {
        Err(NetlistError::CombinationalCycle)
    }
}

/// A structural simulator over a [`Netlist`].
///
/// Flip-flops power up at 0. One [`Simulator::step`] evaluates the
/// combinational logic with the current register states and input vector,
/// then fires the clock edge.
///
/// # Examples
///
/// ```
/// use casbus_netlist::{Netlist, Simulator, Value};
///
/// let mut nl = Netlist::new("andgate");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let y = nl.and2(a, b);
/// nl.mark_output("y", y);
///
/// let mut sim = Simulator::new(&nl)?;
/// sim.set_input("a", true)?;
/// sim.set_input("b", true)?;
/// sim.eval();
/// assert_eq!(sim.output("y")?, Value::One);
/// # Ok::<(), casbus_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    order: Vec<usize>,
    nets: Vec<Value>,
    dff_state: Vec<Value>,
    /// Indices of sequential gates, aligned with `dff_state`.
    dff_gates: Vec<usize>,
    /// Nets with at least one tri-state driver (need Z-reset every eval).
    bus_nets: Vec<usize>,
    /// A net forced to a fixed value (stuck-at fault injection).
    forced: Option<(usize, Value)>,
}

impl<'a> Simulator<'a> {
    /// Builds a simulator; fails on malformed netlists.
    ///
    /// # Errors
    ///
    /// Propagates [`Netlist::validate`] errors.
    pub fn new(netlist: &'a Netlist) -> Result<Self, NetlistError> {
        netlist.validate()?;
        let order = levelize(netlist)?;
        let dff_gates: Vec<usize> = netlist
            .gates()
            .iter()
            .enumerate()
            .filter(|(_, g)| g.kind.is_sequential())
            .map(|(i, _)| i)
            .collect();
        let bus_nets: Vec<usize> = netlist
            .gates()
            .iter()
            .filter(|g| g.kind.is_tristate())
            .map(|g| g.output.0)
            .collect();
        Ok(Self {
            netlist,
            order,
            nets: vec![Value::Z; netlist.net_count()],
            dff_state: vec![Value::Zero; dff_gates.len()],
            dff_gates,
            bus_nets,
            forced: None,
        })
    }

    /// Forces a net to a fixed value on every evaluation (stuck-at fault
    /// injection), replacing any net forced before.
    pub fn force_net(&mut self, net: crate::netlist::NetId, value: Value) {
        self.forced = Some((net.0, value));
    }

    fn apply_force(&mut self, net: usize) {
        if let Some((forced_net, value)) = self.forced {
            if forced_net == net {
                self.nets[net] = value;
            }
        }
    }

    /// Sets one primary input for the next evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownPort`] for a bad name.
    pub fn set_input(&mut self, name: &str, value: bool) -> Result<(), NetlistError> {
        let net = self.netlist.input_net(name)?;
        self.nets[net.0] = Value::from_bool(value);
        Ok(())
    }

    /// Sets all primary inputs at once, declaration order.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the input count.
    pub fn set_inputs(&mut self, values: &[bool]) {
        assert_eq!(
            values.len(),
            self.netlist.inputs().len(),
            "input vector length mismatch"
        );
        for (&(_, net), &v) in self.netlist.inputs().iter().zip(values) {
            self.nets[net.0] = Value::from_bool(v);
        }
    }

    /// Evaluates the combinational logic with the current inputs and
    /// register states (no clock edge).
    pub fn eval(&mut self) {
        // An injected fault may sit on a primary-input net.
        if let Some((net, _)) = self.forced {
            self.apply_force(net);
        }
        // Register outputs drive their nets.
        for idx in 0..self.dff_gates.len() {
            let out = self.netlist.gates()[self.dff_gates[idx]].output;
            self.nets[out.0] = self.dff_state[idx];
            self.apply_force(out.0);
        }
        // Bus nets float until a tri-state driver claims them.
        for idx in 0..self.bus_nets.len() {
            let net = self.bus_nets[idx];
            self.nets[net] = Value::Z;
        }
        for order_idx in 0..self.order.len() {
            let gate_idx = self.order[order_idx];
            let gate = &self.netlist.gates()[gate_idx];
            let output = gate.output.0;
            let tristate = gate.kind.is_tristate();
            let value = self.eval_gate(gate_idx);
            if tristate {
                // Resolve against whatever already drives the bus.
                self.nets[output] = resolve_bus(self.nets[output], value);
            } else {
                self.nets[output] = value;
            }
            self.apply_force(output);
        }
    }

    fn eval_gate(&self, gate_idx: usize) -> Value {
        use Value::{One, Zero, X, Z};
        let gate = &self.netlist.gates()[gate_idx];
        let input = |pin: usize| self.nets[gate.inputs[pin].0].as_logic();
        match gate.kind {
            GateKind::Const(b) => Value::from_bool(b),
            GateKind::Buf => input(0),
            GateKind::Not => match input(0) {
                Zero => One,
                One => Zero,
                _ => X,
            },
            GateKind::And2 => and(input(0), input(1)),
            GateKind::Nand2 => invert(and(input(0), input(1))),
            GateKind::Or2 => or(input(0), input(1)),
            GateKind::Nor2 => invert(or(input(0), input(1))),
            GateKind::Xor2 => xor(input(0), input(1)),
            GateKind::Xnor2 => invert(xor(input(0), input(1))),
            GateKind::Mux2 => match input(0) {
                Zero => input(1),
                One => input(2),
                _ => {
                    if input(1) == input(2) && input(1).is_known() {
                        input(1)
                    } else {
                        X
                    }
                }
            },
            GateKind::TriBuf => match input(0) {
                Zero => Z,
                One => input(1),
                _ => X,
            },
            GateKind::DffE => unreachable!("sequential gates are not levelized"),
        }
    }

    /// Fires the clock edge: every enabled flip-flop captures its D input.
    /// Call after [`Simulator::eval`].
    pub fn clock(&mut self) {
        let mut next = self.dff_state.clone();
        for (slot, &gate_idx) in next.iter_mut().zip(&self.dff_gates) {
            let gate = &self.netlist.gates()[gate_idx];
            let d = self.nets[gate.inputs[0].0].as_logic();
            let en = self.nets[gate.inputs[1].0].as_logic();
            *slot = match en {
                Value::One => d,
                Value::Zero => *slot,
                _ => Value::X,
            };
        }
        self.dff_state = next;
    }

    /// Convenience: set inputs, evaluate, read all outputs, then clock.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the input count.
    pub fn step(&mut self, values: &[bool]) -> Vec<(String, Value)> {
        self.set_inputs(values);
        self.eval();
        let outs = self.outputs();
        self.clock();
        outs
    }

    /// Reads one primary output (after [`Simulator::eval`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownPort`] for a bad name.
    pub fn output(&self, name: &str) -> Result<Value, NetlistError> {
        Ok(self.nets[self.netlist.output_net(name)?.0])
    }

    /// Reads all primary outputs, declaration order.
    pub fn outputs(&self) -> Vec<(String, Value)> {
        self.netlist
            .outputs()
            .iter()
            .map(|(name, net)| (name.clone(), self.nets[net.0]))
            .collect()
    }

    /// Resets every register to 0.
    pub fn reset(&mut self) {
        for slot in &mut self.dff_state {
            *slot = Value::Zero;
        }
    }
}

fn and(a: Value, b: Value) -> Value {
    use Value::{One, Zero, X};
    match (a, b) {
        (Zero, _) | (_, Zero) => Zero,
        (One, One) => One,
        _ => X,
    }
}

fn or(a: Value, b: Value) -> Value {
    use Value::{One, Zero, X};
    match (a, b) {
        (One, _) | (_, One) => One,
        (Zero, Zero) => Zero,
        _ => X,
    }
}

fn xor(a: Value, b: Value) -> Value {
    match (a.to_bool(), b.to_bool()) {
        (Some(x), Some(y)) => Value::from_bool(x ^ y),
        _ => Value::X,
    }
}

fn invert(a: Value) -> Value {
    match a {
        Value::Zero => Value::One,
        Value::One => Value::Zero,
        _ => Value::X,
    }
}

/// Wired-bus resolution between the current bus level and one more driver.
fn resolve_bus(current: Value, driven: Value) -> Value {
    use Value::{X, Z};
    match (current, driven) {
        (Z, v) => v,
        (v, Z) => v,
        (a, b) if a == b => a,
        _ => X,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combinational_gates_truth_tables() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let and_o = nl.and2(a, b);
        let or_o = nl.or2(a, b);
        let xor_o = nl.xor2(a, b);
        let not_o = nl.not(a);
        nl.mark_output("and", and_o);
        nl.mark_output("or", or_o);
        nl.mark_output("xor", xor_o);
        nl.mark_output("not", not_o);
        let mut sim = Simulator::new(&nl).unwrap();
        for (a_v, b_v) in [(false, false), (false, true), (true, false), (true, true)] {
            sim.set_inputs(&[a_v, b_v]);
            sim.eval();
            assert_eq!(sim.output("and").unwrap(), Value::from_bool(a_v && b_v));
            assert_eq!(sim.output("or").unwrap(), Value::from_bool(a_v || b_v));
            assert_eq!(sim.output("xor").unwrap(), Value::from_bool(a_v ^ b_v));
            assert_eq!(sim.output("not").unwrap(), Value::from_bool(!a_v));
        }
    }

    #[test]
    fn mux_selects() {
        let mut nl = Netlist::new("t");
        let s = nl.add_input("s");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.mux2(s, a, b);
        nl.mark_output("y", y);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_inputs(&[false, true, false]);
        sim.eval();
        assert_eq!(sim.output("y").unwrap(), Value::One, "sel=0 picks a");
        sim.set_inputs(&[true, true, false]);
        sim.eval();
        assert_eq!(sim.output("y").unwrap(), Value::Zero, "sel=1 picks b");
    }

    #[test]
    fn dff_shifts_on_clock() {
        let mut nl = Netlist::new("t");
        let d = nl.add_input("d");
        let en = nl.add_input("en");
        let q = nl.dff_e(d, en);
        nl.mark_output("q", q);
        let mut sim = Simulator::new(&nl).unwrap();
        // Power-on: q = 0.
        sim.set_inputs(&[true, true]);
        sim.eval();
        assert_eq!(sim.output("q").unwrap(), Value::Zero);
        sim.clock();
        sim.eval();
        assert_eq!(sim.output("q").unwrap(), Value::One);
        // Disabled: holds.
        sim.set_inputs(&[false, false]);
        sim.eval();
        sim.clock();
        sim.eval();
        assert_eq!(sim.output("q").unwrap(), Value::One);
    }

    #[test]
    fn tristate_bus_resolution() {
        let mut nl = Netlist::new("t");
        let en1 = nl.add_input("en1");
        let en2 = nl.add_input("en2");
        let d1 = nl.add_input("d1");
        let d2 = nl.add_input("d2");
        let bus = nl.new_net();
        nl.add_tribuf_onto(bus, en1, d1);
        nl.add_tribuf_onto(bus, en2, d2);
        nl.mark_output("bus", bus);
        let mut sim = Simulator::new(&nl).unwrap();
        // Nobody drives: Z.
        sim.set_inputs(&[false, false, true, false]);
        sim.eval();
        assert_eq!(sim.output("bus").unwrap(), Value::Z);
        // One driver.
        sim.set_inputs(&[true, false, true, false]);
        sim.eval();
        assert_eq!(sim.output("bus").unwrap(), Value::One);
        // Two agreeing drivers.
        sim.set_inputs(&[true, true, true, true]);
        sim.eval();
        assert_eq!(sim.output("bus").unwrap(), Value::One);
        // Conflict.
        sim.set_inputs(&[true, true, true, false]);
        sim.eval();
        assert_eq!(sim.output("bus").unwrap(), Value::X);
    }

    #[test]
    fn shift_register_through_steps() {
        // 3-bit enabled shift register.
        let mut nl = Netlist::new("t");
        let d = nl.add_input("d");
        let en = nl.add_input("en");
        let q0 = nl.dff_e(d, en);
        let q1 = nl.dff_e(q0, en);
        let q2 = nl.dff_e(q1, en);
        nl.mark_output("q2", q2);
        let mut sim = Simulator::new(&nl).unwrap();
        let stream = [true, false, true, true, false, false];
        let mut seen = Vec::new();
        for &bit in &stream {
            let outs = sim.step(&[bit, true]);
            seen.push(outs[0].1);
        }
        // Output is the input delayed by 3 clocks.
        assert_eq!(seen[3..], [Value::One, Value::Zero, Value::One][..],);
    }

    #[test]
    fn x_propagates_through_logic() {
        let mut nl = Netlist::new("t");
        let en = nl.add_input("en");
        let d = nl.add_input("d");
        let bus = nl.new_net();
        nl.add_tribuf_onto(bus, en, d);
        let y = nl.not(bus);
        nl.mark_output("y", y);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_inputs(&[false, true]); // bus floats -> X at the inverter
        sim.eval();
        assert_eq!(sim.output("y").unwrap(), Value::X);
    }

    #[test]
    fn and_short_circuits_zero_with_x() {
        let mut nl = Netlist::new("t");
        let en = nl.add_input("en");
        let d = nl.add_input("d");
        let zero = nl.const0();
        let bus = nl.new_net();
        nl.add_tribuf_onto(bus, en, d);
        let y = nl.and2(bus, zero);
        nl.mark_output("y", y);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_inputs(&[false, false]);
        sim.eval();
        assert_eq!(sim.output("y").unwrap(), Value::Zero, "0 AND X = 0");
    }

    #[test]
    fn value_display_and_conversion() {
        assert_eq!(Value::Zero.to_string(), "0");
        assert_eq!(Value::X.to_string(), "X");
        assert_eq!(Value::from_bool(true), Value::One);
        assert_eq!(Value::One.to_bool(), Some(true));
        assert_eq!(Value::Z.to_bool(), None);
        assert!(!Value::X.is_known());
    }

    #[test]
    fn reset_clears_registers() {
        let mut nl = Netlist::new("t");
        let d = nl.add_input("d");
        let en = nl.add_input("en");
        let q = nl.dff_e(d, en);
        nl.mark_output("q", q);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.step(&[true, true]);
        sim.reset();
        sim.eval();
        assert_eq!(sim.output("q").unwrap(), Value::Zero);
    }
}
