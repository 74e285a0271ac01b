//! Convex subcircuit regions.
//!
//! GUOQ applies transformations to *subcircuits* — convex subgraphs of the
//! circuit DAG (paper §3). We represent a subcircuit as a [`Region`]: a
//! qubit set `Q` plus a position window `[lo, hi]` with the invariant that
//! every instruction inside the window acts either entirely on `Q` or not
//! on `Q` at all.
//!
//! That invariant makes the region's member set convex (a path can only
//! leave the members through a wire of `Q`, and the next gate on a `Q`
//! wire inside the window is itself a member), and makes replacement
//! trivially sound: the non-member instructions inside the window act on
//! disjoint qubits and therefore commute with the replacement.

use crate::circuit::{Circuit, Instruction, Qubit};
use crate::edit::Patch;

/// A convex subcircuit: a qubit set and instruction window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    qubits: Vec<Qubit>,
    lo: usize,
    hi: usize,
}

/// Relationship between an instruction's qubits and a region's qubit set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Overlap {
    Inside,
    Disjoint,
    Partial,
}

fn classify(qs: &[Qubit], set: &[Qubit]) -> Overlap {
    let hits = qs.iter().filter(|q| set.contains(q)).count();
    if hits == 0 {
        Overlap::Disjoint
    } else if hits == qs.len() {
        Overlap::Inside
    } else {
        Overlap::Partial
    }
}

impl Region {
    /// Grows a region around the instruction at `anchor`, greedily
    /// absorbing neighbouring gates while the qubit set stays within
    /// `max_qubits` (mirrors the paper's §5.3 subcircuit selection).
    ///
    /// The window is extended to the right and left alternately; when an
    /// extension would force the qubit set beyond `max_qubits`, that side
    /// is blocked permanently.
    ///
    /// Returns `None` if the anchor gate alone already exceeds
    /// `max_qubits`.
    ///
    /// # Panics
    ///
    /// Panics if `anchor` is out of bounds.
    pub fn grow(circuit: &Circuit, anchor: usize, max_qubits: usize) -> Option<Region> {
        let instrs = circuit.instructions();
        assert!(anchor < instrs.len(), "anchor out of bounds");
        let mut qubits: Vec<Qubit> = instrs[anchor].qubits().to_vec();
        qubits.sort_unstable();
        if qubits.len() > max_qubits {
            return None;
        }
        let (mut lo, mut hi) = (anchor, anchor);
        let (mut blocked_l, mut blocked_r) = (false, false);

        // Attempt to include position `j`; possibly grows `qubits` (with
        // closure over the whole current window). Returns false if blocked.
        let try_include = |qubits: &mut Vec<Qubit>, lo: usize, hi: usize, j: usize| -> bool {
            match classify(instrs[j].qubits(), qubits) {
                Overlap::Inside | Overlap::Disjoint => true,
                Overlap::Partial => {
                    // Candidate qubit set: closure over the extended window.
                    let mut cand = qubits.clone();
                    for &q in instrs[j].qubits() {
                        if !cand.contains(&q) {
                            cand.push(q);
                        }
                    }
                    let (wlo, whi) = (lo.min(j), hi.max(j));
                    loop {
                        if cand.len() > max_qubits {
                            return false;
                        }
                        let mut grew = false;
                        for ins in &instrs[wlo..=whi] {
                            if classify(ins.qubits(), &cand) == Overlap::Partial {
                                for &q in ins.qubits() {
                                    if !cand.contains(&q) {
                                        cand.push(q);
                                        grew = true;
                                    }
                                }
                            }
                        }
                        if !grew {
                            break;
                        }
                    }
                    if cand.len() > max_qubits {
                        return false;
                    }
                    cand.sort_unstable();
                    *qubits = cand;
                    true
                }
            }
        };

        while !(blocked_l && blocked_r) {
            if !blocked_r {
                if hi + 1 < instrs.len() {
                    if try_include(&mut qubits, lo, hi, hi + 1) {
                        hi += 1;
                    } else {
                        blocked_r = true;
                    }
                } else {
                    blocked_r = true;
                }
            }
            if !blocked_l {
                if lo > 0 {
                    if try_include(&mut qubits, lo, hi, lo - 1) {
                        lo -= 1;
                    } else {
                        blocked_l = true;
                    }
                } else {
                    blocked_l = true;
                }
            }
        }

        // Shrink the window so it starts and ends with member gates (the
        // disjoint padding at the edges carries no information).
        let is_member = |j: usize| classify(instrs[j].qubits(), &qubits) == Overlap::Inside;
        while lo < hi && !is_member(lo) {
            lo += 1;
        }
        while hi > lo && !is_member(hi) {
            hi -= 1;
        }
        Some(Region { qubits, lo, hi })
    }

    /// Rightward-only growth for disjoint partitioning (BQSKit-style
    /// scan-line partitioners): grows a region from `anchor` towards
    /// higher positions only, never absorbing an instruction marked in
    /// `excluded`. Excluded instructions inside the window must stay
    /// disjoint from the region's qubits (they belong to other
    /// partitions), so extension stops before any overlapping one.
    ///
    /// Returns `None` if the anchor is excluded or wider than
    /// `max_qubits`.
    ///
    /// # Panics
    ///
    /// Panics if `anchor` is out of bounds or `excluded` is shorter than
    /// the instruction list.
    pub fn grow_after(
        circuit: &Circuit,
        anchor: usize,
        max_qubits: usize,
        excluded: &[bool],
    ) -> Option<Region> {
        let instrs = circuit.instructions();
        assert!(anchor < instrs.len(), "anchor out of bounds");
        assert!(excluded.len() >= instrs.len(), "excluded mask too short");
        if excluded[anchor] {
            return None;
        }
        let mut qubits: Vec<Qubit> = instrs[anchor].qubits().to_vec();
        qubits.sort_unstable();
        if qubits.len() > max_qubits {
            return None;
        }
        let lo = anchor;
        let mut hi = anchor;
        'extend: while hi + 1 < instrs.len() {
            let j = hi + 1;
            match classify(instrs[j].qubits(), &qubits) {
                Overlap::Disjoint => hi = j,
                Overlap::Inside => {
                    if excluded[j] {
                        break 'extend;
                    }
                    hi = j;
                }
                Overlap::Partial => {
                    if excluded[j] {
                        break 'extend;
                    }
                    // Try to absorb by growing the qubit set, with closure
                    // over the window; every excluded instruction in the
                    // window must stay disjoint from the new set.
                    let mut cand = qubits.clone();
                    for &q in instrs[j].qubits() {
                        if !cand.contains(&q) {
                            cand.push(q);
                        }
                    }
                    loop {
                        if cand.len() > max_qubits {
                            break 'extend;
                        }
                        let mut grew = false;
                        for (k, ins) in instrs.iter().enumerate().take(j + 1).skip(lo) {
                            let cls = classify(ins.qubits(), &cand);
                            if excluded[k] && cls != Overlap::Disjoint {
                                break 'extend;
                            }
                            if !excluded[k] && cls == Overlap::Partial {
                                for &q in ins.qubits() {
                                    if !cand.contains(&q) {
                                        cand.push(q);
                                        grew = true;
                                    }
                                }
                            }
                        }
                        if !grew {
                            break;
                        }
                    }
                    if cand.len() > max_qubits {
                        break 'extend;
                    }
                    cand.sort_unstable();
                    qubits = cand;
                    hi = j;
                }
            }
        }
        // Shrink so the window ends on a member gate.
        let is_member =
            |k: usize| !excluded[k] && classify(instrs[k].qubits(), &qubits) == Overlap::Inside;
        while hi > lo && !is_member(hi) {
            hi -= 1;
        }
        Some(Region { qubits, lo, hi })
    }

    /// Builds a region directly from parts, validating the invariant.
    ///
    /// Returns `None` if some instruction in the window acts on the qubit
    /// set only partially.
    pub fn from_window(
        circuit: &Circuit,
        qubits: Vec<Qubit>,
        lo: usize,
        hi: usize,
    ) -> Option<Region> {
        if hi >= circuit.len() || lo > hi {
            return None;
        }
        let mut qubits = qubits;
        qubits.sort_unstable();
        qubits.dedup();
        for ins in &circuit.instructions()[lo..=hi] {
            if classify(ins.qubits(), &qubits) == Overlap::Partial {
                return None;
            }
        }
        Some(Region { qubits, lo, hi })
    }

    /// The region's qubit set, sorted ascending.
    pub fn qubits(&self) -> &[Qubit] {
        &self.qubits
    }

    /// Start of the instruction window (inclusive).
    pub fn lo(&self) -> usize {
        self.lo
    }

    /// End of the instruction window (inclusive).
    pub fn hi(&self) -> usize {
        self.hi
    }

    /// Indices of the member instructions (window gates fully on `Q`).
    pub fn member_indices(&self, circuit: &Circuit) -> Vec<usize> {
        (self.lo..=self.hi)
            .filter(|&j| {
                classify(circuit.instructions()[j].qubits(), &self.qubits) == Overlap::Inside
            })
            .collect()
    }

    /// Extracts the member subcircuit with qubits renumbered to
    /// `0..qubits.len()` (by ascending global index). Returns the local
    /// circuit; the mapping back to global qubits is [`Self::qubits`].
    ///
    /// One walk of the window into one instruction buffer, with no
    /// per-gate allocation: a gate is a member exactly when every
    /// operand is found in the (sorted) qubit set, and the search that
    /// decides it also yields the local index. The local circuit is
    /// then built in bulk.
    pub fn extract(&self, circuit: &Circuit) -> Circuit {
        let window = &circuit.instructions()[self.lo..=self.hi];
        let mut members = Vec::new();
        let mut qs: [Qubit; 3] = [0; 3];
        for ins in window {
            let ops = ins.qubits();
            let inside = ops.iter().zip(&mut qs).all(|(q, l)| {
                self.qubits
                    .binary_search(q)
                    .map(|i| *l = i as Qubit)
                    .is_ok()
            });
            if inside {
                members.push(Instruction::new(ins.gate, &qs[..ops.len()]));
            }
        }
        Circuit::from_instructions(self.qubits.len(), members)
    }

    /// Expresses "replace the member gates with `replacement`" as a
    /// [`Patch`]: the members are removed and the replacement (mapped
    /// back to global qubits) is spliced in just after the window, where
    /// it commutes past the window's disjoint spectator gates. Applying
    /// the patch costs O(window), not O(circuit) — the substrate for
    /// in-place resynthesis commits.
    ///
    /// # Panics
    ///
    /// Panics if `replacement.num_qubits()` differs from the region's
    /// qubit count, if the window is out of bounds for `circuit`, or if
    /// the window violates the region invariant (a gate partially
    /// overlapping the qubit set — the region was built for a different
    /// circuit).
    pub fn replacement_patch(&self, circuit: &Circuit, replacement: &Circuit) -> Patch {
        assert_eq!(
            replacement.num_qubits(),
            self.qubits.len(),
            "replacement qubit count mismatch"
        );
        assert!(self.hi < circuit.len(), "region out of bounds");
        // The emitted patch is only sound if the window invariant holds
        // (a partially-overlapping gate would not commute with the
        // replacement); a region used against a circuit it was not
        // built for must fail here, not splice silently. O(window),
        // like the member_indices walk below.
        assert!(
            circuit.instructions()[self.lo..=self.hi]
                .iter()
                .all(|ins| classify(ins.qubits(), &self.qubits) != Overlap::Partial),
            "region invariant violated"
        );
        let mapped: Vec<Instruction> = replacement
            .iter()
            .map(|ins| {
                let qs: Vec<Qubit> = ins
                    .qubits()
                    .iter()
                    .map(|&q| self.qubits[q as usize])
                    .collect();
                Instruction::new(ins.gate, &qs)
            })
            .collect();
        Patch::new(self.member_indices(circuit), mapped, self.hi + 1)
    }

    /// Replaces the member gates with `replacement` (a circuit on the
    /// region's local qubits), leaving the interleaved disjoint gates in
    /// place. Returns the new circuit; only the region window is
    /// rewritten (one [`Patch`] splice), everything outside it is copied
    /// once.
    ///
    /// # Panics
    ///
    /// Panics if `replacement.num_qubits()` differs from the region's
    /// qubit count or if the window is out of bounds for `circuit`.
    pub fn replace(&self, circuit: &Circuit, replacement: &Circuit) -> Circuit {
        circuit.with_patch(&self.replacement_patch(circuit, replacement))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use qmath::hs_distance;

    fn sample() -> Circuit {
        let mut c = Circuit::new(4);
        c.push(Gate::H, &[0]); // 0
        c.push(Gate::Cx, &[0, 1]); // 1
        c.push(Gate::T, &[3]); // 2 (disjoint spectator)
        c.push(Gate::Cx, &[1, 2]); // 3
        c.push(Gate::H, &[2]); // 4
        c.push(Gate::Cx, &[2, 3]); // 5
        c
    }

    #[test]
    fn grow_respects_qubit_limit() {
        let c = sample();
        let r = Region::grow(&c, 1, 2).unwrap();
        assert!(r.qubits().len() <= 2);
        assert!(r.member_indices(&c).contains(&1));
        for &m in &r.member_indices(&c) {
            for &q in c.instructions()[m].qubits() {
                assert!(r.qubits().contains(&q));
            }
        }
    }

    #[test]
    fn grow_from_each_anchor_is_valid() {
        let c = sample();
        for anchor in 0..c.len() {
            for maxq in 1..=4 {
                if let Some(r) = Region::grow(&c, anchor, maxq) {
                    assert!(r.qubits().len() <= maxq);
                    // Window invariant: no partial overlap inside.
                    for ins in &c.instructions()[r.lo()..=r.hi()] {
                        let hits = ins
                            .qubits()
                            .iter()
                            .filter(|q| r.qubits().contains(q))
                            .count();
                        assert!(hits == 0 || hits == ins.qubits().len());
                    }
                    // The window starts and ends on member gates, so it
                    // holds two or more members exactly when lo < hi.
                    let members = r.member_indices(&c);
                    assert_eq!(members.first(), Some(&r.lo()));
                    assert_eq!(members.last(), Some(&r.hi()));
                }
            }
        }
    }

    /// The member-by-member construction `extract` replaced: one
    /// operand `Vec` and one linear qubit lookup per member gate.
    fn extract_reference(r: &Region, c: &Circuit) -> Circuit {
        let mut local = Circuit::new(r.qubits().len());
        for j in r.member_indices(c) {
            let ins = c.instructions()[j];
            let qs: Vec<Qubit> = ins
                .qubits()
                .iter()
                .map(|q| r.qubits().iter().position(|g| g == q).unwrap() as Qubit)
                .collect();
            local.push(ins.gate, &qs);
        }
        local
    }

    #[test]
    fn extract_matches_member_walk_reference() {
        let c = sample();
        for anchor in 0..c.len() {
            for maxq in 1..=4 {
                if let Some(r) = Region::grow(&c, anchor, maxq) {
                    assert_eq!(r.extract(&c), extract_reference(&r, &c), "anchor {anchor}");
                }
            }
        }
        // A spread qubit set with spectators inside the window.
        let mut c = Circuit::new(6);
        c.push(Gate::Cx, &[5, 1]);
        c.push(Gate::H, &[3]);
        c.push(Gate::Ccx, &[1, 5, 4]);
        c.push(Gate::Cx, &[0, 2]);
        c.push(Gate::Rz(0.25), &[4]);
        let r = Region::from_window(&c, vec![5, 4, 1], 0, 4).unwrap();
        assert_eq!(r.extract(&c), extract_reference(&r, &c));
        assert_eq!(r.extract(&c).len(), 3);
    }

    #[test]
    fn grow_with_three_qubits_covers_chain() {
        let c = sample();
        let r = Region::grow(&c, 3, 3).unwrap();
        // Qubits {0,1,2} or {1,2,3} both possible depending on growth; the
        // anchor's own qubits must be present.
        assert!(r.qubits().contains(&1) && r.qubits().contains(&2));
        assert_eq!(r.qubits().len(), 3);
    }

    #[test]
    fn extract_renumbers_locally() {
        let c = sample();
        let r = Region::from_window(&c, vec![1, 2], 3, 4).unwrap();
        let local = r.extract(&c);
        assert_eq!(local.num_qubits(), 2);
        assert_eq!(local.len(), 2);
        assert_eq!(local.instructions()[0].qubits(), &[0, 1]);
        assert_eq!(local.instructions()[1].qubits(), &[1]);
    }

    #[test]
    fn replace_preserves_global_semantics() {
        let c = sample();
        let r = Region::from_window(&c, vec![1, 2], 3, 4).unwrap();
        let local = r.extract(&c);
        // Replace by an equivalent circuit: CX then H == itself (identity
        // check) and a genuinely different but equivalent form.
        let replaced = r.replace(&c, &local);
        assert!(hs_distance(&replaced.unitary(), &c.unitary()) < 1e-7);
        // The spectator T on qubit 3 must survive.
        assert_eq!(replaced.count_where(|i| matches!(i.gate, Gate::T)), 1);
    }

    #[test]
    fn replace_with_smaller_circuit() {
        // CX; CX cancels — replace the pair with an empty circuit.
        let mut c = Circuit::new(3);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::T, &[2]);
        c.push(Gate::Cx, &[0, 1]);
        let r = Region::from_window(&c, vec![0, 1], 0, 2).unwrap();
        assert_eq!(r.member_indices(&c), vec![0, 2]);
        let empty = Circuit::new(2);
        let replaced = r.replace(&c, &empty);
        assert_eq!(replaced.len(), 1);
        assert!(hs_distance(&replaced.unitary(), &c.unitary()) < 1e-7);
    }

    #[test]
    fn replacement_patch_matches_legacy_emission_order() {
        // The patch-based replace must reproduce the historical order:
        // prefix, disjoint window spectators, replacement, suffix.
        let c = sample();
        let r = Region::from_window(&c, vec![1, 2], 3, 4).unwrap();
        let mut repl = Circuit::new(2);
        repl.push(Gate::Cz, &[0, 1]);
        let patch = r.replacement_patch(&c, &repl);
        assert_eq!(patch.removed(), &[3, 4]);
        assert_eq!(patch.insert_at(), 5);
        let out = r.replace(&c, &repl);
        let mut expect = Circuit::new(4);
        for ins in &c.instructions()[..3] {
            expect.push_instruction(*ins);
        }
        expect.push(Gate::Cz, &[1, 2]);
        expect.push(Gate::Cx, &[2, 3]);
        assert_eq!(out, expect);
    }

    #[test]
    fn from_window_rejects_partial_overlap() {
        let c = sample();
        // Window [1,3] with qubits {0,1}: instruction 3 = CX(1,2) partially
        // overlaps — must be rejected.
        assert!(Region::from_window(&c, vec![0, 1], 1, 3).is_none());
    }

    #[test]
    fn grow_after_respects_exclusions() {
        let c = sample();
        // Exclude instruction 1 (CX 0,1): growth from 0 must stop before
        // absorbing it.
        let mut excl = vec![false; c.len()];
        excl[1] = true;
        let r = Region::grow_after(&c, 0, 3, &excl).unwrap();
        assert!(!r.member_indices(&c).contains(&1));
        // And all members stay un-excluded.
        for m in r.member_indices(&c) {
            assert!(!excl[m]);
        }
    }

    #[test]
    fn grow_after_excluded_anchor_is_none() {
        let c = sample();
        let mut excl = vec![false; c.len()];
        excl[2] = true;
        assert!(Region::grow_after(&c, 2, 3, &excl).is_none());
    }

    #[test]
    fn grow_after_never_extends_left() {
        let c = sample();
        let excl = vec![false; c.len()];
        for anchor in 0..c.len() {
            if let Some(r) = Region::grow_after(&c, anchor, 2, &excl) {
                assert!(r.lo() >= anchor);
                for m in r.member_indices(&c) {
                    assert!(m >= anchor);
                }
            }
        }
    }

    #[test]
    fn grow_after_window_invariant_holds() {
        let c = sample();
        let excl = vec![false; c.len()];
        for anchor in 0..c.len() {
            for maxq in 1..=3 {
                if let Some(r) = Region::grow_after(&c, anchor, maxq, &excl) {
                    assert!(r.qubits().len() <= maxq);
                    for ins in &c.instructions()[r.lo()..=r.hi()] {
                        let hits = ins
                            .qubits()
                            .iter()
                            .filter(|q| r.qubits().contains(q))
                            .count();
                        assert!(hits == 0 || hits == ins.qubits().len());
                    }
                }
            }
        }
    }

    #[test]
    fn grow_region_replacement_roundtrip_random_anchors() {
        let c = sample();
        for anchor in 0..c.len() {
            if let Some(r) = Region::grow(&c, anchor, 3) {
                let local = r.extract(&c);
                let replaced = r.replace(&c, &local);
                assert!(
                    hs_distance(&replaced.unitary(), &c.unitary()) < 1e-7,
                    "anchor {anchor}"
                );
            }
        }
    }
}
