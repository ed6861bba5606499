//! Dictionary-based diagnosis: from an observed failing signature back to
//! ranked candidate faults, across fault models.
//!
//! A self-test run ends with one number: the MISR signature the hardware
//! compacted.  If it differs from the fault-free reference, the chip
//! failed — and diagnosis asks *where*.  A [`Diagnosis`] holds the fault
//! dictionaries of one campaign (one per fault-model section, built by a
//! [`DiagnosisObserver`] riding a
//! [`Campaign`](crate::campaign::Campaign)) and answers that question by
//! signature lookup:
//!
//! * [`Diagnosis::candidates`] returns every fault — of every model —
//!   whose full-campaign signature equals the observed one, ranked by how
//!   early the fault is detected (earlier detection ⇒ more of the
//!   signature stream is fault-dependent, so the match carries more
//!   evidence) with detected faults strictly before undetected ones;
//! * [`Diagnosis::disambiguate`] additionally matches the per-segment
//!   *intermediate* signatures recorded at the campaign's checkpoints
//!   (evenly spaced snapshots whose count scales with the campaign
//!   length; see [`crate::dictionary::checkpoint_count`]): candidates are
//!   re-ranked by how many checkpoint signatures agree with the observed
//!   ones, which separates faults that alias on the final signature but
//!   diverged mid-campaign.
//!
//! The per-model dictionaries are [`Arc`]-shared with the campaign
//! outcome that produced them: building a diagnosis from an observer
//! costs pointer clones, not deep copies of the dictionaries.
//!
//! The candidate lookups are hash-index queries on the underlying
//! [`FaultDictionary`] — no linear scans per diagnosis.
//!
//! # Example
//!
//! ```
//! use stfsm_fsm::suite::fig3_example;
//! use stfsm_encode::StateEncoding;
//! use stfsm_bist::{BistStructure, excitation::{build_pla, layout, RegisterTransform}, netlist::build_netlist};
//! use stfsm_logic::espresso::minimize;
//! use stfsm_faults::StuckAt;
//! use stfsm_testsim::campaign::Campaign;
//! use stfsm_testsim::diagnosis::DiagnosisObserver;
//!
//! let fsm = fig3_example()?;
//! let encoding = StateEncoding::natural(&fsm)?;
//! let transform = RegisterTransform::Dff;
//! let pla = build_pla(&fsm, &encoding, &transform)?;
//! let cover = minimize(&pla).cover;
//! let lay = layout(&fsm, &encoding, &transform);
//! let netlist = build_netlist("fig3", &cover, &lay, BistStructure::Dff, None)?;
//!
//! let mut observer = DiagnosisObserver::new();
//! Campaign::new(&netlist)
//!     .model(&StuckAt)
//!     .patterns(256)
//!     .observe(&mut observer)
//!     .run();
//! let diagnosis = observer.into_diagnosis().expect("campaign ran");
//! // A failing chip reported some signature; look it up.
//! let failing = diagnosis.sections()[0].1.entries.iter()
//!     .find(|e| e.first_detect.is_some())
//!     .expect("something is detectable");
//! let candidates = diagnosis.candidates(failing.signature);
//! assert!(candidates.iter().any(|c| c.fault == failing.fault));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::campaign::{CampaignObserver, CampaignOutcome};
use crate::dictionary::{DictionaryEntry, FaultDictionary};
use std::sync::Arc;
use stfsm_faults::Injection;

/// One ranked diagnosis candidate: a fault whose dictionary signature
/// matches the observed failing signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagnosisCandidate {
    /// The fault-model section the candidate came from.
    pub model: String,
    /// The candidate fault.
    pub fault: Injection,
    /// The campaign pattern that first detected the fault (`None` for
    /// never-detected faults, which can only match the reference
    /// signature).
    pub first_detect: Option<usize>,
    /// The candidate's per-segment intermediate signatures.
    pub segments: Vec<u64>,
    /// How many observed intermediate signatures this candidate matched
    /// (only populated by [`Diagnosis::disambiguate`]; plain
    /// [`Diagnosis::candidates`] reports 0).
    pub matching_segments: usize,
}

impl DiagnosisCandidate {
    fn from_entry(model: &str, entry: &DictionaryEntry, matching_segments: usize) -> Self {
        Self {
            model: model.to_string(),
            fault: entry.fault.clone(),
            first_detect: entry.first_detect,
            segments: entry.segments.clone(),
            matching_segments,
        }
    }
}

/// The diagnosis database of one campaign: per-model fault dictionaries
/// plus signature-indexed candidate lookup.  Built by a
/// [`DiagnosisObserver`] or directly from dictionaries via
/// [`Diagnosis::from_dictionaries`].
#[derive(Debug, Clone)]
pub struct Diagnosis {
    sections: Vec<(String, Arc<FaultDictionary>)>,
}

impl Diagnosis {
    /// A diagnosis database over labelled per-model dictionaries (all built
    /// from the same stimulus, as one campaign produces them).
    pub fn from_dictionaries(sections: Vec<(String, FaultDictionary)>) -> Self {
        Self::from_shared(
            sections
                .into_iter()
                .map(|(label, dictionary)| (label, Arc::new(dictionary)))
                .collect(),
        )
    }

    /// A diagnosis database over already-shared dictionaries — the
    /// zero-copy path a [`DiagnosisObserver`] takes from a campaign's
    /// [`SectionOutcome`](crate::campaign::SectionOutcome)s.
    pub fn from_shared(sections: Vec<(String, Arc<FaultDictionary>)>) -> Self {
        Self { sections }
    }

    /// The labelled per-model dictionaries backing this diagnosis.
    pub fn sections(&self) -> &[(String, Arc<FaultDictionary>)] {
        &self.sections
    }

    /// The fault-free reference signature (`None` for a diagnosis without
    /// sections).  All sections of one campaign share it.
    pub fn reference_signature(&self) -> Option<u64> {
        self.sections.first().map(|(_, d)| d.reference_signature)
    }

    /// Whether an observed signature is the fault-free one — a passing
    /// chip (or a fault the compactor aliased).
    pub fn is_reference(&self, signature: u64) -> bool {
        self.reference_signature() == Some(signature)
    }

    /// Every fault, across all models, whose full-campaign signature
    /// equals `signature` — ranked with detected faults first, earlier
    /// first-detect first, and fault-list order as the final tiebreak.
    pub fn candidates(&self, signature: u64) -> Vec<DiagnosisCandidate> {
        let mut candidates: Vec<DiagnosisCandidate> = self
            .sections
            .iter()
            .flat_map(|(model, dictionary)| {
                dictionary
                    .candidates(signature)
                    .into_iter()
                    .map(|entry| DiagnosisCandidate::from_entry(model, entry, 0))
            })
            .collect();
        candidates.sort_by_key(|c| c.first_detect.map_or(usize::MAX, |p| p));
        candidates
    }

    /// Like [`Diagnosis::candidates`], but additionally matches the
    /// observed *intermediate* signatures (`observed_segments[k]` at the
    /// campaign's checkpoint `k`; see
    /// [`FaultDictionary::segment_checkpoints`]): candidates are ranked by
    /// matching checkpoint count first, then by the
    /// [`Diagnosis::candidates`] order.  This separates faults that alias
    /// on the final signature but diverged mid-campaign.
    pub fn disambiguate(
        &self,
        signature: u64,
        observed_segments: &[u64],
    ) -> Vec<DiagnosisCandidate> {
        let mut candidates = self.candidates(signature);
        for candidate in candidates.iter_mut() {
            candidate.matching_segments = candidate
                .segments
                .iter()
                .zip(observed_segments)
                .filter(|(a, b)| a == b)
                .count();
        }
        candidates.sort_by_key(|c| {
            (
                std::cmp::Reverse(c.matching_segments),
                c.first_detect.map_or(usize::MAX, |p| p),
            )
        });
        candidates
    }
}

/// The diagnosis sink of a [`Campaign`](crate::campaign::Campaign):
/// requests signatures and assembles the sections' dictionaries into a
/// [`Diagnosis`].
#[derive(Debug, Default)]
pub struct DiagnosisObserver {
    diagnosis: Option<Diagnosis>,
}

impl DiagnosisObserver {
    /// An empty diagnosis sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The assembled diagnosis; `None` before the campaign ran.
    pub fn diagnosis(&self) -> Option<&Diagnosis> {
        self.diagnosis.as_ref()
    }

    /// Consumes the observer into its diagnosis.
    pub fn into_diagnosis(self) -> Option<Diagnosis> {
        self.diagnosis
    }
}

impl CampaignObserver for DiagnosisObserver {
    fn needs_signatures(&self) -> bool {
        true
    }

    fn on_finish(&mut self, outcome: &CampaignOutcome) {
        self.diagnosis = Some(Diagnosis::from_shared(
            outcome
                .sections
                .iter()
                .map(|section| {
                    (
                        section.label.clone(),
                        section
                            .dictionary
                            .clone()
                            .expect("needs_signatures guarantees a dictionary"),
                    )
                })
                .collect(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use stfsm_bist::excitation::{build_pla, layout, RegisterTransform};
    use stfsm_bist::netlist::{build_netlist, Netlist};
    use stfsm_bist::BistStructure;
    use stfsm_encode::StateEncoding;
    use stfsm_faults::all_models;
    use stfsm_fsm::suite::modulo12_exact;
    use stfsm_lfsr::{primitive_polynomial, Misr};
    use stfsm_logic::espresso::minimize;

    fn pst_netlist() -> Netlist {
        let fsm = modulo12_exact().unwrap();
        let encoding = StateEncoding::natural(&fsm).unwrap();
        let poly = primitive_polynomial(encoding.num_bits()).unwrap();
        let transform = RegisterTransform::Misr(Misr::new(poly).unwrap());
        let pla = build_pla(&fsm, &encoding, &transform).unwrap();
        let cover = minimize(&pla).cover;
        let lay = layout(&fsm, &encoding, &transform);
        build_netlist("diag", &cover, &lay, BistStructure::Pst, Some(poly)).unwrap()
    }

    fn multi_model_diagnosis(netlist: &Netlist, patterns: usize) -> Diagnosis {
        let mut observer = DiagnosisObserver::new();
        let models = all_models();
        let mut campaign = Campaign::new(netlist).patterns(patterns);
        for model in &models {
            campaign = campaign.model(model.as_ref());
        }
        campaign.observe(&mut observer).run();
        observer.into_diagnosis().expect("campaign ran")
    }

    #[test]
    fn candidates_resolve_known_fault_signatures_across_models() {
        let netlist = pst_netlist();
        let diagnosis = multi_model_diagnosis(&netlist, 512);
        assert_eq!(diagnosis.sections().len(), 5);
        let reference = diagnosis.reference_signature().unwrap();
        assert!(diagnosis.is_reference(reference));
        let mut resolved = 0usize;
        for (model, dictionary) in diagnosis.sections() {
            for entry in &dictionary.entries {
                if entry.first_detect.is_none() || entry.signature == reference {
                    continue;
                }
                let candidates = diagnosis.candidates(entry.signature);
                assert!(
                    candidates
                        .iter()
                        .any(|c| &c.model == model && c.fault == entry.fault),
                    "{model}/{} not among its own signature's candidates",
                    entry.fault
                );
                // Every candidate really carries the queried signature.
                for candidate in &candidates {
                    assert!(candidate.first_detect.is_some());
                }
                resolved += 1;
            }
        }
        assert!(resolved > 0, "no detectable non-aliased faults at all");
    }

    #[test]
    fn candidates_rank_detected_before_undetected_and_by_first_detect() {
        let netlist = pst_netlist();
        let diagnosis = multi_model_diagnosis(&netlist, 256);
        let reference = diagnosis.reference_signature().unwrap();
        // The reference group mixes undetected faults with aliased detected
        // ones; detected must sort first, in first-detect order.
        let group = diagnosis.candidates(reference);
        let mut last = (false, 0usize);
        for candidate in &group {
            let key = match candidate.first_detect {
                Some(p) => (false, p),
                None => (true, 0),
            };
            assert!(key >= last, "candidates out of rank order");
            last = key;
        }
    }

    #[test]
    fn disambiguate_prefers_full_segment_matches() {
        let netlist = pst_netlist();
        let diagnosis = multi_model_diagnosis(&netlist, 512);
        let reference = diagnosis.reference_signature().unwrap();
        for (_, dictionary) in diagnosis.sections() {
            for entry in &dictionary.entries {
                if entry.first_detect.is_none() || entry.signature == reference {
                    continue;
                }
                let ranked = diagnosis.disambiguate(entry.signature, &entry.segments);
                let top = ranked.first().expect("the fault itself matches");
                // The queried fault matches all of its own segments, so the
                // top candidate must too.
                assert_eq!(top.matching_segments, entry.segments.len());
            }
        }
    }

    #[test]
    fn unknown_signatures_yield_empty_candidate_lists() {
        let netlist = pst_netlist();
        let diagnosis = multi_model_diagnosis(&netlist, 512);
        // A signature no fault (and not the reference) produced.
        let mut absent = 0xDEAD_BEEF_0BAD_F00Du64;
        let known: std::collections::HashSet<u64> = diagnosis
            .sections()
            .iter()
            .flat_map(|(_, d)| {
                d.entries
                    .iter()
                    .map(|e| e.signature)
                    .chain(std::iter::once(d.reference_signature))
            })
            .collect();
        while known.contains(&absent) {
            absent = absent.wrapping_add(1);
        }
        assert!(diagnosis.candidates(absent).is_empty());
        assert!(diagnosis.disambiguate(absent, &[1, 2, 3]).is_empty());
        assert!(!diagnosis.is_reference(absent));
    }

    #[test]
    fn perfect_aliases_tie_break_in_dictionary_order() {
        use crate::dictionary::DictionaryEntry;
        // Three faults sharing the full signature AND every checkpoint
        // signature — indistinguishable to the MISR.  Ranking must be
        // deterministic: first_detect ascending, dictionary order within
        // equal first_detect (the sorts are stable).
        let alias = |net: usize, first_detect: Option<usize>| DictionaryEntry {
            fault: Injection::StuckOutput { net, value: true },
            first_detect,
            signature: 0x5150,
            segments: vec![0xA, 0xB, 0xC],
        };
        let entries = vec![
            alias(7, Some(40)),
            alias(3, Some(12)),
            alias(9, Some(40)),
            alias(1, None),
        ];
        let dictionary = FaultDictionary::new(
            16,
            0xFFFF,
            vec![0x1, 0x2, 0x3],
            vec![8, 16, 24],
            24,
            entries,
        );
        let diagnosis = Diagnosis::from_dictionaries(vec![("stuck_at".to_string(), dictionary)]);

        let ranked = diagnosis.candidates(0x5150);
        assert_eq!(ranked.len(), 4);
        let order: Vec<usize> = ranked
            .iter()
            .map(|c| match c.fault {
                Injection::StuckOutput { net, .. } => net,
                _ => unreachable!(),
            })
            .collect();
        // 3 (detect 12) first, then 7 before 9 (both detect 40, dictionary
        // order), the never-detected 1 last.
        assert_eq!(order, vec![3, 7, 9, 1]);

        // All aliases match all checkpoints, so disambiguation cannot
        // separate them: same order, full segment-match counts.
        let ranked = diagnosis.disambiguate(0x5150, &[0xA, 0xB, 0xC]);
        let order: Vec<usize> = ranked
            .iter()
            .map(|c| match c.fault {
                Injection::StuckOutput { net, .. } => net,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![3, 7, 9, 1]);
        assert!(ranked.iter().all(|c| c.matching_segments == 3));
    }

    #[test]
    fn empty_diagnosis_is_total() {
        let diagnosis = Diagnosis::from_dictionaries(Vec::new());
        assert!(diagnosis.sections().is_empty());
        assert_eq!(diagnosis.reference_signature(), None);
        assert!(!diagnosis.is_reference(0));
        assert!(diagnosis.candidates(0xABCD).is_empty());
        assert!(diagnosis.disambiguate(0xABCD, &[0, 0, 0]).is_empty());
        let observer = DiagnosisObserver::new();
        assert!(observer.diagnosis().is_none());
    }
}
