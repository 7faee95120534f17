//! Hybrid branch predictor, branch target buffer, return-address stack.

/// Predictor geometry. Defaults are the paper's: an 8K-entry hybrid
/// predictor and a 2K-entry BTB (plus a conventional 16-deep RAS).
/// Table sizes must be powers of two.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BpredConfig {
    /// Entries in the bimodal table.
    pub bimodal_entries: usize,
    /// Entries in the gshare table.
    pub gshare_entries: usize,
    /// Entries in the chooser table.
    pub chooser_entries: usize,
    /// Global-history bits used by gshare.
    pub history_bits: u32,
    /// BTB entries (direct-mapped, tagged).
    pub btb_entries: usize,
    /// Return-address stack depth.
    pub ras_depth: usize,
}

impl Default for BpredConfig {
    fn default() -> BpredConfig {
        BpredConfig {
            bimodal_entries: 8192,
            gshare_entries: 8192,
            chooser_entries: 8192,
            history_bits: 12,
            btb_entries: 2048,
            ras_depth: 16,
        }
    }
}

/// Outcome counters: 2-bit saturating, initialised weakly not-taken.
#[inline]
fn bump(counter: &mut u8, taken: bool) {
    if taken {
        *counter = (*counter + 1).min(3);
    } else {
        *counter = counter.saturating_sub(1);
    }
}

/// A hybrid (bimodal + gshare with a chooser) direction predictor, a
/// tagged direct-mapped BTB for indirect targets, and a return-address
/// stack.
#[derive(Clone, Debug)]
pub struct Predictor {
    config: BpredConfig,
    bimodal: Vec<u8>,
    gshare: Vec<u8>,
    chooser: Vec<u8>,
    history: u64,
    btb: Vec<Option<(u64, u64)>>, // (tag=pc, target)
    /// Return-address ring: the next push writes `ras[ras_top]`, and the
    /// `ras_len` slots below it (wrapping) hold the stack, so a push
    /// onto a full stack overwrites the oldest entry.
    ras: Vec<u64>,
    ras_top: usize,
    ras_len: usize,
    /// Direction predictions made / direction mispredicts.
    pub dir_predictions: u64,
    /// Direction mispredicts.
    pub dir_mispredicts: u64,
}

impl Predictor {
    /// Build an empty predictor.
    ///
    /// # Panics
    ///
    /// Panics if a table size (bimodal, gshare, chooser or BTB entries)
    /// is not a power of two.
    pub fn new(config: BpredConfig) -> Predictor {
        for (table, entries) in [
            ("bimodal", config.bimodal_entries),
            ("gshare", config.gshare_entries),
            ("chooser", config.chooser_entries),
            ("BTB", config.btb_entries),
        ] {
            assert!(
                entries.is_power_of_two(),
                "{table} entries must be a power of two, got {entries}"
            );
        }
        Predictor {
            config,
            bimodal: vec![1; config.bimodal_entries],
            gshare: vec![1; config.gshare_entries],
            chooser: vec![2; config.chooser_entries],
            history: 0,
            btb: vec![None; config.btb_entries],
            ras: vec![0; config.ras_depth],
            ras_top: 0,
            ras_len: 0,
            dir_predictions: 0,
            dir_mispredicts: 0,
        }
    }

    #[inline]
    fn bimodal_idx(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.config.bimodal_entries - 1)
    }

    #[inline]
    fn gshare_idx(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) as usize) & (self.config.gshare_entries - 1)
    }

    #[inline]
    fn chooser_idx(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.config.chooser_entries - 1)
    }

    /// Predict the direction of the conditional branch at `pc`, then
    /// update all tables with the actual outcome. Returns `true` when the
    /// prediction was correct.
    #[inline]
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        self.dir_predictions += 1;
        let bi = self.bimodal_idx(pc);
        let gi = self.gshare_idx(pc);
        let ci = self.chooser_idx(pc);
        let bim_pred = self.bimodal[bi] >= 2;
        let gsh_pred = self.gshare[gi] >= 2;
        let use_gshare = self.chooser[ci] >= 2;
        let pred = if use_gshare { gsh_pred } else { bim_pred };

        // Chooser trains toward the component that was right when they
        // disagree.
        if bim_pred != gsh_pred {
            bump(&mut self.chooser[ci], gsh_pred == taken);
        }
        bump(&mut self.bimodal[bi], taken);
        bump(&mut self.gshare[gi], taken);
        self.history =
            ((self.history << 1) | u64::from(taken)) & ((1 << self.config.history_bits) - 1);

        let correct = pred == taken;
        if !correct {
            self.dir_mispredicts += 1;
        }
        correct
    }

    /// Predict the target of the indirect jump at `pc`, then install the
    /// actual target. Returns `true` when the predicted target matched.
    #[inline]
    pub fn predict_indirect(&mut self, pc: u64, actual: u64) -> bool {
        let idx = ((pc >> 2) as usize) & (self.config.btb_entries - 1);
        let hit = matches!(self.btb[idx], Some((tag, t)) if tag == pc && t == actual);
        self.btb[idx] = Some((pc, actual));
        hit
    }

    /// Record a call: push the return address.
    #[inline]
    pub fn push_return(&mut self, return_addr: u64) {
        self.ras[self.ras_top] = return_addr;
        self.ras_top = if self.ras_top + 1 == self.ras.len() { 0 } else { self.ras_top + 1 };
        self.ras_len = (self.ras_len + 1).min(self.ras.len());
    }

    /// Predict a return: pop and compare. Returns `true` on a correct
    /// prediction.
    #[inline]
    pub fn predict_return(&mut self, actual: u64) -> bool {
        if self.ras_len == 0 {
            return false;
        }
        self.ras_len -= 1;
        self.ras_top = self.ras_top.checked_sub(1).unwrap_or(self.ras.len() - 1);
        self.ras[self.ras_top] == actual
    }

    /// Direction-misprediction rate over the run.
    pub fn mispredict_rate(&self) -> f64 {
        if self.dir_predictions == 0 {
            0.0
        } else {
            self.dir_mispredicts as f64 / self.dir_predictions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_always_taken() {
        let mut p = Predictor::new(BpredConfig::default());
        let pc = 0x1000;
        // Initial counters are weakly not-taken: first prediction wrong.
        assert!(!p.predict_and_update(pc, true));
        // After training, always correct.
        for _ in 0..8 {
            p.predict_and_update(pc, true);
        }
        assert!(p.predict_and_update(pc, true));
        assert!(p.mispredict_rate() < 0.5);
    }

    #[test]
    fn learns_alternating_pattern_via_gshare() {
        let mut p = Predictor::new(BpredConfig::default());
        let pc = 0x2000;
        let mut correct = 0;
        for i in 0..200u32 {
            if p.predict_and_update(pc, i % 2 == 0) {
                correct += 1;
            }
        }
        // History-based component should capture the period-2 pattern.
        assert!(correct > 150, "only {correct}/200 correct");
    }

    #[test]
    fn btb_learns_stable_indirect_target() {
        let mut p = Predictor::new(BpredConfig::default());
        assert!(!p.predict_indirect(0x3000, 0x4000), "cold miss");
        assert!(p.predict_indirect(0x3000, 0x4000));
        assert!(!p.predict_indirect(0x3000, 0x5000), "target changed");
        assert!(p.predict_indirect(0x3000, 0x5000));
    }

    #[test]
    fn ras_matches_call_return_nesting() {
        let mut p = Predictor::new(BpredConfig::default());
        p.push_return(0x100);
        p.push_return(0x200);
        assert!(p.predict_return(0x200));
        assert!(p.predict_return(0x100));
        assert!(!p.predict_return(0x300), "empty stack mispredicts");
    }

    #[test]
    fn ras_overflow_drops_oldest() {
        let cfg = BpredConfig { ras_depth: 2, ..BpredConfig::default() };
        let mut p = Predictor::new(cfg);
        p.push_return(1);
        p.push_return(2);
        p.push_return(3); // evicts 1
        assert!(p.predict_return(3));
        assert!(p.predict_return(2));
        assert!(!p.predict_return(1));
    }

    #[test]
    fn non_power_of_two_tables_are_rejected() {
        for cfg in [
            BpredConfig { bimodal_entries: 6000, ..BpredConfig::default() },
            BpredConfig { gshare_entries: 0, ..BpredConfig::default() },
            BpredConfig { chooser_entries: 3, ..BpredConfig::default() },
            BpredConfig { btb_entries: 2000, ..BpredConfig::default() },
        ] {
            let built = std::panic::catch_unwind(|| Predictor::new(cfg));
            assert!(built.is_err(), "{cfg:?} must be rejected");
        }
    }
}
