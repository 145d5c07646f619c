//! A standard Value Change Dump (IEEE 1364 §18) writer.
//!
//! Produces files GTKWave and other waveform viewers open directly:
//! hierarchical `$scope module … $upscope` declarations, one printable
//! short identifier per variable, an initial `$dumpvars` block (all X, the
//! power-on value), then `#time` stamps with deduplicated value changes.
//! Output is deterministic — the header carries no wall-clock date — so
//! dumps are byte-stable and golden-testable.

use std::fmt;

use crate::probe::{Probe, SignalId};

/// One 4-state logic value, the full algebra of a test bus wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Wire4 {
    /// Driven logic 0.
    V0,
    /// Driven logic 1.
    V1,
    /// Unknown.
    X,
    /// High impedance (an undriven bus wire).
    Z,
}

impl Wire4 {
    /// The VCD value character.
    pub fn as_char(self) -> char {
        match self {
            Self::V0 => '0',
            Self::V1 => '1',
            Self::X => 'x',
            Self::Z => 'z',
        }
    }

    /// Parses a VCD value character (either case for x/z).
    pub fn from_char(c: char) -> Option<Self> {
        match c {
            '0' => Some(Self::V0),
            '1' => Some(Self::V1),
            'x' | 'X' => Some(Self::X),
            'z' | 'Z' => Some(Self::Z),
            _ => None,
        }
    }
}

impl fmt::Display for Wire4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_char())
    }
}

/// Renders the short printable VCD identifier for declaration index `n`
/// (base-94 over ASCII `!`..`~`).
fn id_code(mut n: usize) -> String {
    let mut code = String::new();
    loop {
        code.push((b'!' + (n % 94) as u8) as char);
        n /= 94;
        if n == 0 {
            break;
        }
    }
    code
}

#[derive(Debug)]
struct Signal {
    code: String,
    width: usize,
    /// Last emitted value; signals start at all-X (power-on).
    last: Vec<Wire4>,
}

/// A streaming VCD writer; also implements [`Probe`] so instrumented
/// components can drive it without naming the concrete type.
#[derive(Debug)]
pub struct VcdWriter {
    header: String,
    body: String,
    signals: Vec<Signal>,
    open_scopes: usize,
    header_closed: bool,
    time: u64,
    time_stamped: bool,
}

impl VcdWriter {
    /// Creates a writer with the given `$timescale` (e.g. `"1ns"`). One
    /// time unit corresponds to one test clock in the CAS-BUS dumps.
    pub fn new(timescale: &str) -> Self {
        let mut header = String::new();
        header.push_str("$date\n    (deterministic build)\n$end\n");
        header.push_str("$version\n    casbus-obs VCD writer\n$end\n");
        header.push_str(&format!("$timescale {timescale} $end\n"));
        Self {
            header,
            body: String::new(),
            signals: Vec::new(),
            open_scopes: 0,
            header_closed: false,
            time: 0,
            time_stamped: false,
        }
    }

    /// Closes the declaration section: pops any open scopes, emits
    /// `$enddefinitions` and the initial all-X `$dumpvars` block. Called
    /// implicitly by the first [`VcdWriter::set_time`].
    pub fn close_header(&mut self) {
        if self.header_closed {
            return;
        }
        while self.open_scopes > 0 {
            self.header.push_str("$upscope $end\n");
            self.open_scopes -= 1;
        }
        self.header.push_str("$enddefinitions $end\n");
        self.header.push_str("$dumpvars\n");
        for signal in &self.signals {
            Self::emit_value(&mut self.header, &signal.last, &signal.code);
        }
        self.header.push_str("$end\n");
        self.header_closed = true;
    }

    fn emit_value(out: &mut String, value: &[Wire4], code: &str) {
        if value.len() == 1 {
            out.push(value[0].as_char());
            out.push_str(code);
        } else {
            out.push('b');
            for v in value {
                out.push(v.as_char());
            }
            out.push(' ');
            out.push_str(code);
        }
        out.push('\n');
    }

    /// The complete VCD file contents. Idempotent; the writer stays usable
    /// (callers behind an `Rc<RefCell<_>>` render without reclaiming it).
    pub fn render(&mut self) -> String {
        self.close_header();
        let mut out = self.header.clone();
        out.push_str(&self.body);
        out
    }
}

impl Probe for VcdWriter {
    fn push_scope(&mut self, name: &str) {
        assert!(!self.header_closed, "declare scopes before the first time");
        self.header
            .push_str(&format!("$scope module {name} $end\n"));
        self.open_scopes += 1;
    }

    fn pop_scope(&mut self) {
        assert!(self.open_scopes > 0, "no open scope to pop");
        self.header.push_str("$upscope $end\n");
        self.open_scopes -= 1;
    }

    fn add_wire(&mut self, name: &str, width: usize) -> SignalId {
        assert!(!self.header_closed, "declare wires before the first time");
        assert!(width >= 1, "zero-width wire {name:?}");
        let code = id_code(self.signals.len());
        let range = if width == 1 {
            String::new()
        } else {
            format!(" [{}:0]", width - 1)
        };
        self.header
            .push_str(&format!("$var wire {width} {code} {name}{range} $end\n"));
        self.signals.push(Signal {
            code,
            width,
            last: vec![Wire4::X; width],
        });
        SignalId(self.signals.len() - 1)
    }

    fn set_time(&mut self, t: u64) {
        self.close_header();
        assert!(t >= self.time, "VCD time must be monotone: {t} < current");
        if t != self.time {
            self.time = t;
            self.time_stamped = false;
        }
    }

    fn change(&mut self, id: SignalId, value: &[Wire4]) {
        let signal = &mut self.signals[id.0];
        assert_eq!(value.len(), signal.width, "value width mismatch");
        if signal.last == value {
            return; // Only actual changes reach the dump.
        }
        signal.last.copy_from_slice(value);
        if !self.time_stamped {
            self.body.push_str(&format!("#{}\n", self.time));
            self.time_stamped = true;
        }
        Self::emit_value(&mut self.body, value, &signal.code);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_codes_are_printable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for n in 0..500 {
            let code = id_code(n);
            assert!(code.chars().all(|c| ('!'..='~').contains(&c)));
            assert!(seen.insert(code), "duplicate at {n}");
        }
        assert_eq!(id_code(0), "!");
        assert_eq!(id_code(94), "!\"");
    }

    #[test]
    fn header_has_scopes_and_vars() {
        let mut vcd = VcdWriter::new("1ns");
        vcd.push_scope("top");
        vcd.push_scope("bus");
        let _w = vcd.add_wire("wire0", 1);
        vcd.pop_scope();
        let _v = vcd.add_wire("mode", 2);
        let text = vcd.render();
        assert!(text.contains("$scope module top $end"));
        assert!(text.contains("$scope module bus $end"));
        assert!(text.contains("$var wire 1 ! wire0 $end"));
        assert!(text.contains("$var wire 2 \" mode [1:0] $end"));
        // Both scopes closed even though only one was popped explicitly.
        assert_eq!(text.matches("$upscope $end").count(), 2);
        assert!(text.contains("$enddefinitions $end"));
    }

    #[test]
    fn initial_dump_is_all_x() {
        let mut vcd = VcdWriter::new("1ns");
        let _a = vcd.add_wire("a", 1);
        let _b = vcd.add_wire("b", 3);
        let text = vcd.render();
        assert!(text.contains("$dumpvars\nx!\nbxxx \"\n$end\n"));
    }

    #[test]
    fn changes_are_deduplicated_and_time_lazy() {
        let mut vcd = VcdWriter::new("1ns");
        let a = vcd.add_wire("a", 1);
        vcd.set_time(0);
        vcd.change(a, &[Wire4::V1]);
        vcd.set_time(1);
        vcd.change(a, &[Wire4::V1]); // no change: no #1 stamp, no record
        vcd.set_time(2);
        vcd.change(a, &[Wire4::V0]);
        let text = vcd.render();
        assert!(text.contains("#0\n1!\n#2\n0!\n"));
        assert!(!text.contains("#1\n"));
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn time_cannot_go_backwards() {
        let mut vcd = VcdWriter::new("1ns");
        let _a = vcd.add_wire("a", 1);
        vcd.set_time(5);
        vcd.set_time(4);
    }

    #[test]
    fn wire4_roundtrip() {
        for v in [Wire4::V0, Wire4::V1, Wire4::X, Wire4::Z] {
            assert_eq!(Wire4::from_char(v.as_char()), Some(v));
        }
        assert_eq!(Wire4::from_char('q'), None);
    }
}
