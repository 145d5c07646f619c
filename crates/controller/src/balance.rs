//! Scan-chain balancing (paper §4).
//!
//! *"In case of scanned cores, the test programmer can balance the length of
//! the scan chains within the test programs, in order to reduce the test
//! time."* — the deepest chain dictates the shift time, so moving flip-flops
//! from long chains to short ones (or re-concatenating the scan path into a
//! different number of chains via the reconfigurable CAS) shortens every
//! pattern.

/// Re-partitions the same flip-flops over the same number of chains as
/// evenly as possible: the optimal balancing when the chain count is fixed
/// by the wrapper.
///
/// Returns lengths in descending order; the total is preserved.
///
/// # Examples
///
/// ```
/// use casbus_controller::balance_chains;
///
/// assert_eq!(balance_chains(&[19, 1]), vec![10, 10]);
/// assert_eq!(balance_chains(&[7, 7, 7]), vec![7, 7, 7]);
/// ```
pub fn balance_chains(chains: &[usize]) -> Vec<usize> {
    repartition_flops(chains.iter().sum(), chains.len())
}

/// Distributes `flops` flip-flops over `chain_count` chains as evenly as
/// possible (descending lengths). With a reconfigurable CAS the test
/// programmer may also *change* the chain count to match the wires granted.
///
/// # Panics
///
/// Panics if `chain_count` is zero while `flops` is non-zero.
///
/// # Examples
///
/// ```
/// use casbus_controller::repartition_flops;
///
/// assert_eq!(repartition_flops(20, 3), vec![7, 7, 6]);
/// assert_eq!(repartition_flops(0, 2), vec![0, 0]);
/// ```
pub fn repartition_flops(flops: usize, chain_count: usize) -> Vec<usize> {
    assert!(
        chain_count > 0 || flops == 0,
        "cannot place {flops} flip-flops on zero chains"
    );
    if chain_count == 0 {
        return Vec::new();
    }
    let base = flops / chain_count;
    let extra = flops % chain_count;
    (0..chain_count)
        .map(|i| base + usize::from(i < extra))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shift depth a partition implies: its scan method's.
    fn depth(chains: &[usize]) -> usize {
        let chains = chains.to_vec();
        casbus_soc::TestMethod::Scan {
            chains,
            patterns: 0,
        }
        .scan_depth()
    }

    #[test]
    fn preserves_total() {
        let before = [13, 2, 8, 40, 1];
        let after = balance_chains(&before);
        assert_eq!(after.iter().sum::<usize>(), before.iter().sum::<usize>());
        assert_eq!(after.len(), before.len());
    }

    #[test]
    fn never_increases_depth() {
        let cases: [&[usize]; 4] = [&[19, 1], &[5, 5], &[100], &[3, 9, 2, 2]];
        for chains in cases {
            assert!(
                depth(&balance_chains(chains)) <= depth(chains),
                "{chains:?}"
            );
        }
    }

    #[test]
    fn achieves_ceiling_depth() {
        let after = balance_chains(&[19, 1]);
        assert_eq!(depth(&after), 10); // ceil(20/2)
    }

    #[test]
    fn descending_order() {
        let after = repartition_flops(22, 4);
        assert_eq!(after, vec![6, 6, 5, 5]);
        assert!(after.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn single_chain_unchanged() {
        assert_eq!(balance_chains(&[42]), vec![42]);
    }

    #[test]
    fn more_chains_reduce_depth() {
        let two = repartition_flops(100, 2);
        let five = repartition_flops(100, 5);
        assert!(depth(&five) < depth(&two));
    }

    #[test]
    fn zero_flops() {
        assert_eq!(repartition_flops(0, 3), vec![0, 0, 0]);
        assert_eq!(depth(&[]), 0);
    }

    #[test]
    #[should_panic(expected = "zero chains")]
    fn zero_chains_with_flops_panics() {
        let _ = repartition_flops(5, 0);
    }
}
