//! The pluggable fault-model interface.

use crate::injection::Injection;
use stfsm_bist::netlist::Netlist;

/// A fault model: a rule for enumerating the fault universe of a netlist and
/// for collapsing structurally equivalent or undetectable faults.
///
/// Implementations describe each fault as a model-agnostic [`Injection`], so
/// every simulation engine (scalar, 64-way packed, differential) supports
/// every model without model-specific code — the way verification frameworks
/// treat properties as pluggable checks.
///
/// The trait is object safe; campaign drivers take `&dyn FaultModel`.
pub trait FaultModel: Sync {
    /// A short stable name of the model (used in reports and artefacts).
    fn name(&self) -> &'static str;

    /// Enumerates the complete (uncollapsed) fault universe of a netlist.
    ///
    /// The order must be deterministic: campaign results are reported per
    /// fault index.
    fn enumerate(&self, netlist: &Netlist) -> Vec<Injection>;

    /// Structurally collapses a fault list enumerated on the same netlist,
    /// preserving the relative order of the survivors.
    ///
    /// The default keeps the list unchanged.
    fn collapse(&self, netlist: &Netlist, faults: Vec<Injection>) -> Vec<Injection> {
        let _ = netlist;
        faults
    }

    /// Convenience: the enumerated and optionally collapsed fault list.
    fn fault_list(&self, netlist: &Netlist, collapse: bool) -> Vec<Injection> {
        let full = self.enumerate(netlist);
        if collapse {
            self.collapse(netlist, full)
        } else {
            full
        }
    }
}

/// Per-net observability bitmap: `true` for nets that feed at least one gate
/// or flip-flop D input or are observation points.  A fault whose only site
/// is an unobservable net can never be detected and is dropped during
/// collapsing.
pub fn observable_nets(netlist: &Netlist) -> Vec<bool> {
    let mut observable = vec![false; netlist.gates().len()];
    for gate in netlist.gates() {
        for &n in gate.fanin() {
            observable[n] = true;
        }
    }
    for ff in netlist.flip_flops() {
        observable[ff.d] = true;
    }
    for &n in netlist.observation_points() {
        observable[n] = true;
    }
    observable
}

/// All built-in fault models, in report order.
pub fn all_models() -> Vec<Box<dyn FaultModel>> {
    vec![
        Box::new(crate::StuckAt),
        Box::new(crate::TransitionDelay),
        Box::new(crate::Bridging::default()),
        Box::new(crate::PathDelay::default()),
        Box::new(crate::MultiCycleDelay::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fig3_netlist;

    #[test]
    fn all_models_are_named_and_enumerate() {
        let netlist = fig3_netlist();
        let models = all_models();
        let names: Vec<&str> = models.iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec![
                "stuck_at",
                "transition",
                "bridging",
                "path_delay",
                "multi_cycle"
            ]
        );
        for model in &models {
            let full = model.fault_list(&netlist, false);
            let collapsed = model.fault_list(&netlist, true);
            assert!(!full.is_empty(), "{} enumerates faults", model.name());
            assert!(collapsed.len() <= full.len());
        }
    }

    #[test]
    fn observable_nets_cover_fanin_and_observation_points() {
        let netlist = fig3_netlist();
        let observable = observable_nets(&netlist);
        for &n in netlist.observation_points() {
            assert!(observable[n]);
        }
        for ff in netlist.flip_flops() {
            assert!(observable[ff.d]);
        }
    }
}
