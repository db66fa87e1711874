//! `GraphViewData`: "the information needed for visualizing a system's
//! deployment architecture: graphical (e.g., color, shape, border thickness)
//! and layout (e.g., juxtaposition, movability, containment) properties".

use redep_model::{ComponentId, Deployment, DeploymentModel, HostId};
use std::collections::BTreeMap;

/// Graphical style of a node (host or component box).
#[derive(Clone, PartialEq, Debug)]
pub struct NodeStyle {
    /// Fill color (CSS color string).
    pub fill: String,
    /// Border width in pixels.
    pub border: f64,
}

impl Default for NodeStyle {
    fn default() -> Self {
        NodeStyle {
            fill: "#ffffff".into(),
            border: 1.0,
        }
    }
}

/// Computed geometry of one host box and the components inside it.
#[derive(Clone, PartialEq, Debug)]
pub struct HostLayout {
    /// Top-left corner.
    pub x: f64,
    /// Top-left corner.
    pub y: f64,
    /// Box width.
    pub width: f64,
    /// Box height.
    pub height: f64,
    /// Positions of contained components (relative to the canvas).
    pub components: BTreeMap<ComponentId, (f64, f64)>,
}

/// Deterministic layout and styling of a deployment architecture.
///
/// Hosts are placed on a circle (juxtaposition), components in a grid inside
/// their host's box (containment) — the zoomed-out arrangement of Figure 10a.
/// The `zoom` factor scales the whole canvas (Figure 10b's zoomed-in view).
#[derive(Clone, PartialEq, Debug)]
pub struct GraphViewData {
    layouts: BTreeMap<HostId, HostLayout>,
    host_style: NodeStyle,
    component_style: NodeStyle,
    zoom: f64,
    canvas: (f64, f64),
}

impl GraphViewData {
    /// Base size of a component box, before zoom.
    pub const COMPONENT_SIZE: f64 = 28.0;

    /// Computes the layout for a model and deployment at zoom `1.0`.
    pub fn layout(model: &DeploymentModel, deployment: &Deployment) -> Self {
        Self::layout_zoomed(model, deployment, 1.0)
    }

    /// Computes the layout at an explicit zoom factor.
    ///
    /// # Panics
    ///
    /// Panics if `zoom` is not positive.
    pub fn layout_zoomed(model: &DeploymentModel, deployment: &Deployment, zoom: f64) -> Self {
        assert!(zoom > 0.0, "zoom must be positive, got {zoom}");
        let hosts = model.host_ids();
        let n = hosts.len().max(1);
        let comp = Self::COMPONENT_SIZE * zoom;
        let pad = 8.0 * zoom;

        // Size each host box by its component count (grid of up to 4 wide).
        let mut boxes: BTreeMap<HostId, (usize, f64, f64)> = BTreeMap::new();
        let mut max_side = 0.0f64;
        for &h in &hosts {
            let count = deployment.components_on(h).len();
            let cols = count.clamp(1, 4);
            let rows = count.div_ceil(4).max(1);
            let w = cols as f64 * (comp + pad) + pad;
            let hgt = rows as f64 * (comp + pad) + pad + 14.0 * zoom; // title strip
            boxes.insert(h, (count, w, hgt));
            max_side = max_side.max(w).max(hgt);
        }

        // Hosts on a circle whose radius comfortably fits the largest box.
        let radius = (max_side * n as f64 / std::f64::consts::PI).max(max_side) * 0.9 + 40.0 * zoom;
        let center = radius + max_side;
        let mut layouts = BTreeMap::new();
        for (i, &h) in hosts.iter().enumerate() {
            let angle = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
            let (_, w, hgt) = boxes[&h];
            let cx = center + radius * angle.cos();
            let cy = center + radius * angle.sin();
            let (x, y) = (cx - w / 2.0, cy - hgt / 2.0);
            let mut components = BTreeMap::new();
            for (j, c) in deployment.components_on(h).into_iter().enumerate() {
                let col = (j % 4) as f64;
                let row = (j / 4) as f64;
                components.insert(
                    c,
                    (
                        x + pad + col * (comp + pad),
                        y + 14.0 * zoom + pad + row * (comp + pad),
                    ),
                );
            }
            layouts.insert(
                h,
                HostLayout {
                    x,
                    y,
                    width: w,
                    height: hgt,
                    components,
                },
            );
        }
        let side = 2.0 * (center);
        GraphViewData {
            layouts,
            host_style: NodeStyle::default(),
            component_style: NodeStyle {
                fill: "#d9d9d9".into(),
                border: 1.0,
            },
            zoom,
            canvas: (side, side),
        }
    }

    /// Iterates over host layouts in id order.
    pub fn layouts(&self) -> impl Iterator<Item = (HostId, &HostLayout)> {
        self.layouts.iter().map(|(h, l)| (*h, l))
    }

    /// Canvas dimensions.
    pub fn canvas(&self) -> (f64, f64) {
        self.canvas
    }

    /// The zoom factor the layout was computed at.
    pub fn zoom(&self) -> f64 {
        self.zoom
    }

    /// Style applied to host boxes (white, per Figure 10).
    pub fn host_style(&self) -> &NodeStyle {
        &self.host_style
    }

    /// Style applied to component boxes (shaded, per Figure 10).
    pub fn component_style(&self) -> &NodeStyle {
        &self.component_style
    }

    /// Center point of a host box (anchor for physical-link lines).
    pub fn host_center(&self, h: HostId) -> Option<(f64, f64)> {
        self.layouts
            .get(&h)
            .map(|l| (l.x + l.width / 2.0, l.y + l.height / 2.0))
    }

    /// Center point of a component box (anchor for logical-link lines).
    pub fn component_center(&self, c: ComponentId) -> Option<(f64, f64)> {
        let comp = Self::COMPONENT_SIZE * self.zoom;
        self.layouts.values().find_map(|l| {
            l.components
                .get(&c)
                .map(|(x, y)| (x + comp / 2.0, y + comp / 2.0))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redep_model::{Generator, GeneratorConfig};

    fn system() -> (DeploymentModel, Deployment) {
        let s = Generator::generate(&GeneratorConfig::sized(4, 10)).unwrap();
        (s.model, s.initial)
    }

    #[test]
    fn every_host_and_component_is_placed() {
        let (m, d) = system();
        let g = GraphViewData::layout(&m, &d);
        assert_eq!(g.layouts().count(), m.host_count());
        for c in m.component_ids() {
            assert!(g.component_center(c).is_some(), "component {c} unplaced");
        }
    }

    #[test]
    fn components_are_contained_in_their_host_box() {
        let (m, d) = system();
        let g = GraphViewData::layout(&m, &d);
        for (h, l) in g.layouts() {
            for c in d.components_on(h) {
                let (x, y) = l.components[&c];
                assert!(x >= l.x && x + GraphViewData::COMPONENT_SIZE <= l.x + l.width + 1e-9);
                assert!(y >= l.y && y + GraphViewData::COMPONENT_SIZE <= l.y + l.height + 1e-9);
            }
        }
    }

    #[test]
    fn host_boxes_do_not_overlap() {
        let (m, d) = system();
        let g = GraphViewData::layout(&m, &d);
        let ls: Vec<&HostLayout> = g.layouts().map(|(_, l)| l).collect();
        for i in 0..ls.len() {
            for j in (i + 1)..ls.len() {
                let (a, b) = (ls[i], ls[j]);
                let disjoint = a.x + a.width <= b.x
                    || b.x + b.width <= a.x
                    || a.y + a.height <= b.y
                    || b.y + b.height <= a.y;
                assert!(disjoint, "host boxes {i} and {j} overlap");
            }
        }
    }

    #[test]
    fn zoom_scales_geometry() {
        let (m, d) = system();
        let g1 = GraphViewData::layout_zoomed(&m, &d, 1.0);
        let g2 = GraphViewData::layout_zoomed(&m, &d, 2.0);
        assert!(g2.canvas().0 > g1.canvas().0);
        assert_eq!(g2.zoom(), 2.0);
    }

    #[test]
    fn layout_is_deterministic() {
        let (m, d) = system();
        assert_eq!(GraphViewData::layout(&m, &d), GraphViewData::layout(&m, &d));
    }

    #[test]
    #[should_panic(expected = "zoom must be positive")]
    fn zero_zoom_panics() {
        let (m, d) = system();
        let _ = GraphViewData::layout_zoomed(&m, &d, 0.0);
    }
}
