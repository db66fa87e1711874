//! Connectors: the routing elements between components.

use crate::brick::BrickId;
use crate::monitor::ConnectorMonitor;
use std::fmt;

/// A connector routes every event emitted by one attached component to all
/// other attached components, and taps its traffic for monitors — the
/// middleware hook the paper's `EvtFrequencyMonitor` uses.
pub struct Connector {
    id: BrickId,
    name: String,
    /// Welded component ids, kept sorted — binary-searched on weld/unweld,
    /// scanned linearly (cache-friendly) on every routed emission.
    attached: Vec<BrickId>,
    monitors: Vec<Box<dyn ConnectorMonitor>>,
}

impl fmt::Debug for Connector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Connector")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("attached", &self.attached)
            .field("monitors", &self.monitors.len())
            .finish()
    }
}

impl Connector {
    pub(crate) fn new(id: BrickId, name: impl Into<String>) -> Self {
        Connector {
            id,
            name: name.into(),
            attached: Vec::new(),
            monitors: Vec::new(),
        }
    }

    /// Ids of the components currently welded to this connector.
    pub fn attached(&self) -> impl Iterator<Item = BrickId> + '_ {
        self.attached.iter().copied()
    }

    pub(crate) fn weld(&mut self, component: BrickId) {
        if let Err(pos) = self.attached.binary_search(&component) {
            self.attached.insert(pos, component);
        }
    }

    pub(crate) fn unweld(&mut self, component: BrickId) -> bool {
        match self.attached.binary_search(&component) {
            Ok(pos) => {
                self.attached.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    pub(crate) fn add_monitor(&mut self, monitor: Box<dyn ConnectorMonitor>) {
        self.monitors.push(monitor);
    }

    pub(crate) fn monitors_mut(&mut self) -> &mut [Box<dyn ConnectorMonitor>] {
        &mut self.monitors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weld_and_unweld() {
        let mut c = Connector::new(BrickId::new(0), "bus");
        c.weld(BrickId::new(1));
        c.weld(BrickId::new(2));
        assert_eq!(c.attached().count(), 2);
        assert!(c.unweld(BrickId::new(1)));
        assert!(!c.unweld(BrickId::new(1)));
        assert_eq!(c.attached().collect::<Vec<_>>(), [BrickId::new(2)]);
    }
}
