//! Deployment plans: a named, persistable assignment of reuse patterns
//! to layers — the artifact the selection workflow produces and the
//! runtime consumes. Stored in a simple line-oriented text format so a
//! plan can be reviewed and edited by hand (no external serialization
//! crates needed).
//!
//! ```text
//! # greuse deployment plan v1
//! model cifarnet
//! layer conv1 order=C1 row=N dir=M-1 l=25 b=1 h=6
//! layer conv2 order=C2 row=S2 dir=M-1 l=20 b=2 h=3
//! ```

use std::fmt::Write as _;
use std::path::Path;

use crate::hash_provider::HashProvider;
use crate::pattern::{ReuseDirection, ReuseOrder, ReusePattern, RowOrder};
use crate::{GreuseError, Result, ReuseBackend};

/// A persistable per-layer pattern assignment.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeploymentPlan {
    /// Model name the plan targets (informational).
    pub model: String,
    /// `(layer, pattern)` entries, in insertion order.
    pub entries: Vec<(String, ReusePattern)>,
}

impl DeploymentPlan {
    /// Creates an empty plan for a model.
    pub fn new(model: impl Into<String>) -> Self {
        DeploymentPlan {
            model: model.into(),
            entries: Vec::new(),
        }
    }

    /// Adds (or replaces) a layer's pattern.
    pub fn set(&mut self, layer: impl Into<String>, pattern: ReusePattern) {
        let layer = layer.into();
        if let Some(e) = self.entries.iter_mut().find(|(l, _)| *l == layer) {
            e.1 = pattern;
        } else {
            self.entries.push((layer, pattern));
        }
    }

    /// Looks up a layer's pattern.
    pub fn get(&self, layer: &str) -> Option<&ReusePattern> {
        self.entries
            .iter()
            .find(|(l, _)| l == layer)
            .map(|(_, p)| p)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Builds a [`ReuseBackend`] executing this plan.
    pub fn to_backend<P: HashProvider>(&self, hashes: P) -> ReuseBackend<P> {
        ReuseBackend::new(hashes).with_patterns(self.entries.iter().cloned())
    }

    /// Serializes the plan to its text format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# greuse deployment plan v1\n");
        let _ = writeln!(out, "model {}", self.model);
        for (layer, p) in &self.entries {
            let _ = writeln!(
                out,
                "layer {layer} order={} row={} dir={} l={} b={} h={}",
                p.order.label(),
                p.row_order.label(),
                p.direction.label(),
                p.l,
                p.block_rows,
                p.h
            );
        }
        out
    }

    /// Parses a plan from its text format.
    ///
    /// # Errors
    ///
    /// Returns [`GreuseError::InvalidWorkflow`] on any malformed line.
    pub fn from_text(text: &str) -> Result<DeploymentPlan> {
        let bad = |line: usize, why: &str| GreuseError::InvalidWorkflow {
            detail: format!("plan line {}: {why}", line + 1),
        };
        let mut plan = DeploymentPlan::default();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("model") => {
                    plan.model = parts
                        .next()
                        .ok_or_else(|| bad(i, "missing model name"))?
                        .to_string();
                }
                Some("layer") => {
                    let name = parts
                        .next()
                        .ok_or_else(|| bad(i, "missing layer name"))?
                        .to_string();
                    let mut pattern = ReusePattern::conventional(1, 1);
                    for kv in parts {
                        let (key, value) = kv
                            .split_once('=')
                            .ok_or_else(|| bad(i, "expected key=value"))?;
                        match key {
                            "order" => {
                                pattern.order =
                                    parse_order(value).ok_or_else(|| bad(i, "bad order"))?
                            }
                            "row" => {
                                pattern.row_order =
                                    parse_row(value).ok_or_else(|| bad(i, "bad row order"))?
                            }
                            "dir" => {
                                pattern.direction = match value {
                                    "M-1" => ReuseDirection::Vertical,
                                    "M-2" => ReuseDirection::Horizontal,
                                    _ => return Err(bad(i, "bad direction")),
                                }
                            }
                            "l" => pattern.l = value.parse().map_err(|_| bad(i, "bad l"))?,
                            "b" => {
                                pattern.block_rows = value.parse().map_err(|_| bad(i, "bad b"))?
                            }
                            "h" => pattern.h = value.parse().map_err(|_| bad(i, "bad h"))?,
                            _ => return Err(bad(i, "unknown key")),
                        }
                    }
                    plan.entries.push((name, pattern));
                }
                Some(other) => {
                    return Err(bad(i, &format!("unknown directive `{other}`")));
                }
                None => {}
            }
        }
        Ok(plan)
    }

    /// Saves the plan to a file.
    ///
    /// # Errors
    ///
    /// Returns [`GreuseError::InvalidWorkflow`] wrapping I/O failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        std::fs::write(path, self.to_text()).map_err(|e| GreuseError::InvalidWorkflow {
            detail: format!("io: {e}"),
        })
    }

    /// Loads a plan from a file.
    ///
    /// # Errors
    ///
    /// Returns [`GreuseError::InvalidWorkflow`] on I/O failure or a
    /// malformed file.
    pub fn load(path: impl AsRef<Path>) -> Result<DeploymentPlan> {
        let text = std::fs::read_to_string(path).map_err(|e| GreuseError::InvalidWorkflow {
            detail: format!("io: {e}"),
        })?;
        Self::from_text(&text)
    }
}

fn parse_order(v: &str) -> Option<ReuseOrder> {
    match v {
        "C1" => Some(ReuseOrder::ChannelLast),
        "C2" => Some(ReuseOrder::ChannelFirst),
        "KT" => Some(ReuseOrder::KernelTranspose),
        _ => {
            if let Some(t) = v.strip_prefix('T') {
                t.parse().ok().map(ReuseOrder::Tiled)
            } else if let Some(s) = v.strip_prefix('R') {
                s.parse().ok().map(ReuseOrder::Random)
            } else {
                None
            }
        }
    }
}

fn parse_row(v: &str) -> Option<RowOrder> {
    match v {
        "N" => Some(RowOrder::Natural),
        _ => {
            if let Some(t) = v.strip_prefix('S') {
                t.parse().ok().map(RowOrder::SpatialTiles)
            } else if let Some(s) = v.strip_prefix('r') {
                s.parse().ok().map(RowOrder::Random)
            } else {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> DeploymentPlan {
        let mut plan = DeploymentPlan::new("cifarnet");
        plan.set("conv1", ReusePattern::conventional(25, 6));
        plan.set(
            "conv2",
            ReusePattern::conventional(20, 3)
                .with_order(ReuseOrder::ChannelFirst)
                .with_block_rows(2)
                .with_row_order(RowOrder::SpatialTiles(2)),
        );
        plan
    }

    #[test]
    fn text_roundtrip_exact() {
        let plan = sample_plan();
        let text = plan.to_text();
        let back = DeploymentPlan::from_text(&text).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn roundtrip_every_order_variant() {
        let mut plan = DeploymentPlan::new("m");
        for (i, order) in [
            ReuseOrder::ChannelLast,
            ReuseOrder::ChannelFirst,
            ReuseOrder::KernelTranspose,
            ReuseOrder::Tiled(4),
            ReuseOrder::Random(17),
        ]
        .into_iter()
        .enumerate()
        {
            plan.set(
                format!("l{i}"),
                ReusePattern::conventional(8, 2).with_order(order),
            );
        }
        for (i, row) in [
            RowOrder::Natural,
            RowOrder::SpatialTiles(3),
            RowOrder::Random(9),
        ]
        .into_iter()
        .enumerate()
        {
            plan.set(
                format!("r{i}"),
                ReusePattern::conventional(8, 2).with_row_order(row),
            );
        }
        plan.set(
            "h0",
            ReusePattern::conventional(16, 2).with_direction(ReuseDirection::Horizontal),
        );
        let back = DeploymentPlan::from_text(&plan.to_text()).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn set_replaces() {
        let mut plan = DeploymentPlan::new("m");
        plan.set("a", ReusePattern::conventional(8, 2));
        plan.set("a", ReusePattern::conventional(16, 4));
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.get("a").unwrap().l, 16);
        assert!(plan.get("b").is_none());
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(DeploymentPlan::from_text("bogus line").is_err());
        assert!(DeploymentPlan::from_text("layer x order=??").is_err());
        assert!(DeploymentPlan::from_text("layer x l=abc").is_err());
        assert!(DeploymentPlan::from_text("layer x unknown=1").is_err());
        // Comments and blanks are fine.
        assert!(DeploymentPlan::from_text("# hi\n\nmodel m\n").is_ok());
    }

    #[test]
    fn backend_from_plan_applies_patterns() {
        use crate::hash_provider::RandomHashProvider;
        let plan = sample_plan();
        let backend = plan.to_backend(RandomHashProvider::new(1));
        assert!(backend.pattern("conv1").is_some());
        assert!(backend.pattern("conv2").is_some());
        assert_eq!(backend.pattern("conv2").unwrap().block_rows, 2);
    }

    #[test]
    fn file_roundtrip() {
        let plan = sample_plan();
        let path = std::env::temp_dir().join("greuse_plan_test.plan");
        plan.save(&path).unwrap();
        let back = DeploymentPlan::load(&path).unwrap();
        assert_eq!(back, plan);
        let _ = std::fs::remove_file(&path);
    }
}
