//! The single stuck-at fault model: enumeration, collapsing and the
//! [`FaultModel`] implementation.
//!
//! [`Fault`], [`FaultSite`] and [`FaultList`] describe the stuck-at
//! universe of a netlist; [`StuckAt`] turns it into the model-agnostic
//! [`Injection`]s every simulation engine consumes.

use crate::injection::Injection;
use crate::model::FaultModel;
use std::fmt;
use stfsm_bist::netlist::{Gate, Netlist};

/// Where a stuck-at fault is injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The output net of a gate is stuck.
    GateOutput(usize),
    /// One input pin of a gate is stuck (the driving net itself is healthy).
    GateInput {
        /// Index of the gate whose pin is faulty.
        gate: usize,
        /// Pin position within the gate's fan-in list.
        pin: usize,
    },
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultSite::GateOutput(net) => write!(f, "net{net}"),
            FaultSite::GateInput { gate, pin } => write!(f, "gate{gate}.pin{pin}"),
        }
    }
}

/// A single stuck-at fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// Fault location.
    pub site: FaultSite,
    /// Stuck-at value (`false` = stuck-at-0, `true` = stuck-at-1).
    pub stuck_at: bool,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/SA{}", self.site, self.stuck_at as u8)
    }
}

impl From<Fault> for Injection {
    fn from(fault: Fault) -> Self {
        match fault.site {
            FaultSite::GateOutput(net) => Injection::StuckOutput {
                net,
                value: fault.stuck_at,
            },
            FaultSite::GateInput { gate, pin } => Injection::StuckPin {
                gate,
                pin,
                value: fault.stuck_at,
            },
        }
    }
}

impl TryFrom<Injection> for Fault {
    type Error = Injection;

    /// Recovers the stuck-at view of an injection; non-stuck-at injections
    /// are returned unchanged in the error.
    fn try_from(injection: Injection) -> Result<Self, Injection> {
        match injection {
            Injection::StuckOutput { net, value } => Ok(Fault {
                site: FaultSite::GateOutput(net),
                stuck_at: value,
            }),
            Injection::StuckPin { gate, pin, value } => Ok(Fault {
                site: FaultSite::GateInput { gate, pin },
                stuck_at: value,
            }),
            other => Err(other),
        }
    }
}

/// The single stuck-at fault list of a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultList {
    faults: Vec<Fault>,
}

impl FaultList {
    /// Enumerates the complete (uncollapsed) single stuck-at fault list:
    /// both polarities on every gate output and on every input pin of every
    /// multi-input gate.
    pub fn full(netlist: &Netlist) -> Self {
        let mut faults = Vec::new();
        for (id, gate) in netlist.gates().iter().enumerate() {
            if matches!(gate, Gate::Constant(_)) {
                continue;
            }
            for stuck_at in [false, true] {
                faults.push(Fault {
                    site: FaultSite::GateOutput(id),
                    stuck_at,
                });
            }
            if gate.fanin().len() > 1 {
                for pin in 0..gate.fanin().len() {
                    for stuck_at in [false, true] {
                        faults.push(Fault {
                            site: FaultSite::GateInput { gate: id, pin },
                            stuck_at,
                        });
                    }
                }
            }
        }
        Self { faults }
    }

    /// Structural fault collapsing:
    ///
    /// * input-pin faults of single-input gates are equivalent to the
    ///   corresponding output fault of the driver (they are never generated
    ///   by [`FaultList::full`]);
    /// * for an AND gate, stuck-at-0 on any input pin is equivalent to
    ///   stuck-at-0 on the output; for an OR gate, stuck-at-1 on any input
    ///   pin is equivalent to stuck-at-1 on the output — those pin faults are
    ///   dropped;
    /// * faults on nets with a single fan-out pin that leads into an AND/OR
    ///   gate keep only the representative on the gate side.
    pub fn collapsed(netlist: &Netlist) -> Self {
        let full = Self::full(netlist);
        Self {
            faults: full
                .faults
                .into_iter()
                .filter(|fault| keep_when_collapsed(netlist, fault))
                .collect(),
        }
    }

    /// The faults in the list.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Restricts the list to every `n`-th fault (deterministic sampling used
    /// to bound very long fault-simulation campaigns).
    pub fn sampled(&self, keep_every: usize) -> Self {
        let step = keep_every.max(1);
        Self {
            faults: self
                .faults
                .iter()
                .enumerate()
                .filter(|(i, _)| i % step == 0)
                .map(|(_, f)| *f)
                .collect(),
        }
    }
}

impl<'a> IntoIterator for &'a FaultList {
    type Item = &'a Fault;
    type IntoIter = std::slice::Iter<'a, Fault>;

    fn into_iter(self) -> Self::IntoIter {
        self.faults.iter()
    }
}

/// The collapsing predicate shared by [`FaultList::collapsed`] and
/// [`StuckAt::collapse`].
fn keep_when_collapsed(netlist: &Netlist, fault: &Fault) -> bool {
    if let FaultSite::GateInput { gate, .. } = fault.site {
        match &netlist.gates()[gate] {
            Gate::And(_) if !fault.stuck_at => return false,
            Gate::Or(_) if fault.stuck_at => return false,
            _ => {}
        }
    }
    true
}

/// The single stuck-at fault model (the paper's model).
///
/// Enumeration and collapsing delegate to [`FaultList`], so a campaign over
/// this model simulates exactly [`FaultList::full`] (uncollapsed) or
/// [`FaultList::collapsed`], in the same order.
#[derive(Debug, Clone, Copy, Default)]
pub struct StuckAt;

impl FaultModel for StuckAt {
    fn name(&self) -> &'static str {
        "stuck_at"
    }

    fn enumerate(&self, netlist: &Netlist) -> Vec<Injection> {
        FaultList::full(netlist)
            .faults()
            .iter()
            .map(|&f| f.into())
            .collect()
    }

    fn collapse(&self, netlist: &Netlist, faults: Vec<Injection>) -> Vec<Injection> {
        faults
            .into_iter()
            .filter(|injection| match Fault::try_from(injection.clone()) {
                Ok(fault) => keep_when_collapsed(netlist, &fault),
                Err(_) => true,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fig3_netlist;

    #[test]
    fn full_list_covers_outputs_and_pins() {
        let n = fig3_netlist();
        let list = FaultList::full(&n);
        assert!(!list.is_empty());
        // Two polarities per gate output at least.
        let non_const = n
            .gates()
            .iter()
            .filter(|g| !matches!(g, Gate::Constant(_)))
            .count();
        assert!(list.len() >= 2 * non_const);
        // Display formatting.
        let s = list.faults()[0].to_string();
        assert!(s.contains("SA"));
    }

    #[test]
    fn collapsing_reduces_the_list_but_keeps_output_faults() {
        let n = fig3_netlist();
        let full = FaultList::full(&n);
        let collapsed = FaultList::collapsed(&n);
        assert!(collapsed.len() < full.len());
        for (id, gate) in n.gates().iter().enumerate() {
            if matches!(gate, Gate::Constant(_)) {
                continue;
            }
            for stuck_at in [false, true] {
                assert!(collapsed
                    .faults()
                    .iter()
                    .any(|f| f.site == FaultSite::GateOutput(id) && f.stuck_at == stuck_at));
            }
        }
    }

    #[test]
    fn collapsed_list_drops_controlling_value_pin_faults() {
        let n = fig3_netlist();
        let collapsed = FaultList::collapsed(&n);
        for fault in collapsed.faults() {
            if let FaultSite::GateInput { gate, .. } = fault.site {
                match &n.gates()[gate] {
                    Gate::And(_) => assert!(fault.stuck_at),
                    Gate::Or(_) => assert!(!fault.stuck_at),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn sampling_keeps_every_nth_fault() {
        let n = fig3_netlist();
        let list = FaultList::collapsed(&n);
        let sampled = list.sampled(3);
        assert!(sampled.len() <= list.len() / 3 + 1);
        assert_eq!(list.sampled(1).len(), list.len());
        assert_eq!(list.sampled(0).len(), list.len());
        // Iteration works.
        assert_eq!((&sampled).into_iter().count(), sampled.len());
    }

    #[test]
    fn model_mirrors_the_fault_list_bit_for_bit() {
        let n = fig3_netlist();
        for collapse in [false, true] {
            let via_model = StuckAt.fault_list(&n, collapse);
            let via_list = if collapse {
                FaultList::collapsed(&n)
            } else {
                FaultList::full(&n)
            };
            let expected: Vec<Injection> = via_list.faults().iter().map(|&f| f.into()).collect();
            assert_eq!(via_model, expected, "collapse = {collapse}");
        }
    }

    #[test]
    fn fault_injection_round_trip() {
        let out = Fault {
            site: FaultSite::GateOutput(4),
            stuck_at: true,
        };
        let pin = Fault {
            site: FaultSite::GateInput { gate: 2, pin: 1 },
            stuck_at: false,
        };
        for fault in [out, pin] {
            let injection: Injection = fault.into();
            assert_eq!(Fault::try_from(injection.clone()), Ok(fault));
            assert_eq!(injection.to_string(), fault.to_string());
        }
        let bridge = Injection::Bridge {
            victim: 3,
            aggressor: 1,
            wired_and: true,
        };
        assert_eq!(Fault::try_from(bridge.clone()), Err(bridge));
    }

    #[test]
    fn site_display() {
        assert_eq!(FaultSite::GateOutput(12).to_string(), "net12");
        assert_eq!(
            FaultSite::GateInput { gate: 3, pin: 2 }.to_string(),
            "gate3.pin2"
        );
    }
}
