use crate::{Levelization, Netlist, SignalId};

/// The *combinational view* of a (possibly sequential) netlist.
///
/// Under the state-preserving DFT scheme the paper assumes (first-level
/// hold, \[18\]), the combinational logic sees scan patterns applied one
/// after another, so ATPG and power analysis work on the combinational
/// core with flip-flops opened up:
///
/// * **view inputs** — primary inputs followed by flip-flop outputs
///   (pseudo primary inputs); this ordering *is* the pin ordering of test
///   cubes;
/// * **view outputs** — primary outputs followed by flip-flop D fanins
///   (pseudo primary outputs);
/// * a cached [`Levelization`] giving the evaluation order.
///
/// # Example
///
/// ```
/// use dpfill_netlist::{CombView, GateKind, NetlistBuilder};
///
/// # fn main() -> Result<(), dpfill_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new("toy");
/// b.input("a");
/// b.gate("n", GateKind::Not, &["a"])?;
/// b.dff("q", "n")?;
/// b.gate("z", GateKind::And, &["n", "q"])?;
/// b.output("z");
/// let netlist = b.build()?;
/// let view = CombView::new(&netlist);
/// assert_eq!(view.input_count(), 2);   // a, q
/// assert_eq!(view.output_count(), 2);  // z, n (D pin of q)
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CombView<'a> {
    netlist: &'a Netlist,
    inputs: Vec<SignalId>,
    outputs: Vec<SignalId>,
    input_index: Vec<Option<u32>>,
    levels: Levelization,
}

impl<'a> CombView<'a> {
    /// Builds the combinational view of `netlist`.
    pub fn new(netlist: &'a Netlist) -> CombView<'a> {
        let inputs = netlist.scan_inputs();
        let outputs = netlist.scan_outputs();
        let mut input_index = vec![None; netlist.signal_count()];
        for (i, id) in inputs.iter().enumerate() {
            input_index[id.index()] = Some(i as u32);
        }
        CombView {
            netlist,
            inputs,
            outputs,
            input_index,
            levels: Levelization::of(netlist),
        }
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// View inputs: PIs then FF outputs. Cube pin `i` drives
    /// `self.inputs()[i]`.
    pub fn inputs(&self) -> &[SignalId] {
        &self.inputs
    }

    /// View outputs: POs then FF D fanins.
    pub fn outputs(&self) -> &[SignalId] {
        &self.outputs
    }

    /// Number of view inputs (= test-cube width).
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of view outputs.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Maps a signal to its cube pin index, if it is a view input.
    pub fn input_index(&self, id: SignalId) -> Option<usize> {
        self.input_index[id.index()].map(|i| i as usize)
    }

    /// Cached levelization (evaluation order).
    pub fn levels(&self) -> &Levelization {
        &self.levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GateKind, NetlistBuilder};

    fn toy() -> Netlist {
        let mut b = NetlistBuilder::new("toy");
        b.input("a");
        b.input("b");
        b.gate("n", GateKind::Nand, &["a", "b"]).unwrap();
        b.dff("q", "n").unwrap();
        b.gate("z", GateKind::Xor, &["n", "q"]).unwrap();
        b.output("z");
        b.build().unwrap()
    }

    #[test]
    fn pin_ordering_is_pis_then_ffs() {
        let n = toy();
        let v = CombView::new(&n);
        let names: Vec<&str> = v.inputs().iter().map(|i| n.signal(*i).name()).collect();
        assert_eq!(names, ["a", "b", "q"]);
        assert_eq!(v.input_index(n.find("q").unwrap()), Some(2));
        assert_eq!(v.input_index(n.find("z").unwrap()), None);
    }

    #[test]
    fn outputs_are_pos_then_d_pins() {
        let n = toy();
        let v = CombView::new(&n);
        let names: Vec<&str> = v.outputs().iter().map(|i| n.signal(*i).name()).collect();
        assert_eq!(names, ["z", "n"]);
    }

    #[test]
    fn levels_are_cached() {
        let n = toy();
        let v = CombView::new(&n);
        assert_eq!(v.levels().level(n.find("n").unwrap()), 1);
        assert_eq!(v.levels().level(n.find("z").unwrap()), 2);
        assert_eq!(v.levels().depth(), 2);
    }
}
